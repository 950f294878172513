"""Configuration validation, capability bound, and JSON ingestion."""

import json
import math
import random

import pytest

from frosim import (
    AttackerCapability,
    GeneratorRelay,
    GridConfig,
    GridParams,
    InvalidParameter,
    LoadRelay,
    StabilityViolation,
    capability_bound,
    load_config,
    validate_config,
)
from conftest import C1_GENERATORS, C1_LOADS, study_config


def make_config(**params_kw):
    defaults = dict(h_inertia=2.0, droop_r=0.2, governor_t=0.2, dt=1 / 60,
                    rocof_window_m=6)
    defaults.update(params_kw)
    return GridConfig(
        params=GridParams(**defaults),
        generators=C1_GENERATORS,
        loads=C1_LOADS,
        capability=AttackerCapability(0.02, 0.2, 1.5),
    )


class TestValidateConfig:
    def test_case_study_column_is_valid(self):
        cfg = validate_config(make_config())
        assert cfg.params.h_inertia == 2.0
        # diagnostic metadata: 1 - dt^2/(4*H*R*T)
        expected = 1.0 - (1 / 60) ** 2 / (4 * 2.0 * 0.2 * 0.2)
        assert cfg.params.delta_f_coefficient == pytest.approx(expected, rel=1e-15)

    def test_zero_inertia_rejected(self):
        with pytest.raises(InvalidParameter) as exc:
            validate_config(make_config(h_inertia=0.0))
        assert "h_inertia" in str(exc.value)

    def test_step_larger_than_governor_t_rejected(self):
        with pytest.raises(StabilityViolation):
            validate_config(make_config(dt=1.0, governor_t=0.2))

    def test_unstable_coefficient_rejected(self):
        # dt <= T but dt^2 >= 8*H*R*T puts the coefficient at/below -1
        with pytest.raises(StabilityViolation) as exc:
            validate_config(make_config(h_inertia=1e-5, droop_r=0.2,
                                        governor_t=0.2, dt=0.1))
        assert exc.value.coefficient is not None

    def test_idempotent(self):
        once = validate_config(make_config())
        twice = validate_config(once)
        assert once == twice

    @pytest.mark.parametrize("field,kw", [
        ("droop_r", dict(droop_r=-0.1)),
        ("governor_t", dict(governor_t=0.0)),
        ("dt", dict(dt=-1.0)),
        ("rocof_window_m", dict(rocof_window_m=0)),
        ("f_nominal", dict(f_nominal=0.0)),
    ])
    def test_bad_params_name_the_field(self, field, kw):
        with pytest.raises(InvalidParameter) as exc:
            validate_config(make_config(**kw))
        assert exc.value.field == field

    def test_empty_rosters_rejected(self):
        cfg = GridConfig(GridParams(2, 0.2, 0.2), (), C1_LOADS,
                         AttackerCapability(0.1, 0.5, 1.5))
        with pytest.raises(InvalidParameter):
            validate_config(cfg)

    def test_duplicate_relay_id_rejected(self):
        gens = (GeneratorRelay("g", "b1", 1.0, 0.5),
                GeneratorRelay("g", "b2", 1.0, 0.6))
        cfg = GridConfig(GridParams(2, 0.2, 0.2), gens, C1_LOADS,
                         AttackerCapability(0.1, 0.5, 1.5))
        with pytest.raises(InvalidParameter):
            validate_config(cfg)

    def test_threshold_outside_band_warns_but_passes(self):
        gens = (GeneratorRelay("g", "b", 1.0, 2.5),)
        cfg = GridConfig(GridParams(2, 0.2, 0.2), gens, C1_LOADS,
                         AttackerCapability(0.1, 0.5, 1.5))
        with pytest.warns(UserWarning, match="outside the customary"):
            validate_config(cfg)

    def test_ls_threshold_must_be_below_nominal(self):
        loads = (LoadRelay("l", "b", 0.5, 61.0),)
        cfg = GridConfig(GridParams(2, 0.2, 0.2), C1_GENERATORS, loads,
                         AttackerCapability(0.1, 0.5, 1.5))
        with pytest.raises(InvalidParameter):
            validate_config(cfg)

    def test_capability_fraction_bounds(self):
        with pytest.raises(InvalidParameter):
            validate_config(GridConfig(
                GridParams(2, 0.2, 0.2), C1_GENERATORS, C1_LOADS,
                AttackerCapability(toi=1.5, ad=0.2, der_total=1.5),
            ))


    @pytest.mark.parametrize("kappa,der_total,toi", [
        (1e308, 1e308, 1.0),     # the product overflows to inf
        (math.inf, 1.5, 0.0),    # inf * 0 is nan
    ])
    def test_capability_bound_must_be_finite(self, kappa, der_total, toi):
        # each field passes its own check; synthesis could replay no magnitude
        # at an infinite bound
        with pytest.raises(InvalidParameter, match="capability: bound"):
            validate_config(GridConfig(
                GridParams(2, 0.2, 0.2), C1_GENERATORS, C1_LOADS,
                AttackerCapability(toi=toi, ad=1.0, der_total=der_total,
                                   kappa=kappa),
            ))


class TestCapabilityBound:
    def test_default_mapping(self):
        assert capability_bound(AttackerCapability(0.02, 0.2, 1.5)) == \
            pytest.approx(0.006, rel=1e-15)

    def test_zero_injection_capability(self):
        assert capability_bound(AttackerCapability(0.0, 1.0, 1.5)) == 0.0

    def test_calibration_factor_scales(self):
        assert capability_bound(AttackerCapability(0.06, 0.2, 1.5, kappa=50.0)) == \
            pytest.approx(0.9, rel=1e-15)

    def test_monotone_in_every_field(self):
        rng = random.Random(7)
        for _ in range(200):
            base = [rng.uniform(0, 1), rng.uniform(0, 1),
                    rng.uniform(0, 3), rng.uniform(0, 5)]
            bumped = list(base)
            i = rng.randrange(4)
            bumped[i] += rng.uniform(0, 0.5)
            bumped[i] = min(bumped[i], 1.0) if i < 2 else bumped[i]
            lo = capability_bound(AttackerCapability(*base))
            hi = capability_bound(AttackerCapability(*bumped))
            assert hi >= lo


class TestJsonLoading:
    def write(self, tmp_path, data):
        p = tmp_path / "grid.json"
        p.write_text(json.dumps(data))
        return p

    def base_dict(self):
        return {
            "frequency_nominal_hz": 60.0,
            "dt_s": 1 / 60,
            "inertia_h_s": 2.0,
            "droop_r_pu": 0.2,
            "governor_t_s": 0.2,
            "rocof_window_m": 6,
            "generators": [
                {"id": "g4", "bus": "bus4", "p_tg_pu": 1.0,
                 "rocof_thresh_hz_per_s": 0.5},
            ],
            "loads": [
                {"id": "l1", "bus": "bus2", "p_sh_pu": 0.5,
                 "underfreq_thresh_hz": 59.5},
            ],
            "attacker": {"toi": 0.02, "ad": 0.2, "der_total_pu": 1.5,
                         "kappa": 1.0},
        }

    def test_round_trip(self, tmp_path):
        cfg = load_config(self.write(tmp_path, self.base_dict()))
        assert cfg.params.h_inertia == 2.0
        assert cfg.generators[0].id == "g4"
        assert cfg.loads[0].underfreq_threshold == 59.5
        assert cfg.capability.der_total == 1.5

    def test_defaults_for_nominal_and_kappa(self, tmp_path):
        data = self.base_dict()
        del data["frequency_nominal_hz"]
        del data["attacker"]["kappa"]
        cfg = load_config(self.write(tmp_path, data))
        assert cfg.params.f_nominal == 60.0
        assert cfg.capability.kappa == 1.0

    def test_missing_key_names_it(self, tmp_path):
        data = self.base_dict()
        del data["inertia_h_s"]
        with pytest.raises(InvalidParameter) as exc:
            load_config(self.write(tmp_path, data))
        assert "inertia_h_s" in str(exc.value)

    def test_unknown_key_warns(self, tmp_path):
        data = self.base_dict()
        data["inertia"] = 3.0
        with pytest.warns(UserWarning, match="unknown config keys"):
            load_config(self.write(tmp_path, data))

    def test_invalid_json_reported(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(InvalidParameter):
            load_config(p)


def test_study_config_helper_is_shareable():
    cfg = study_config()
    assert math.isfinite(cfg.params.delta_f_coefficient)
    assert len(cfg.generators) == 3 and len(cfg.loads) == 4
