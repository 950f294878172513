"""Configuration validation, capability bound, and JSON ingestion."""

import itertools
import json
import math
import random

import pytest

from frosim import (
    AttackSignal,
    AttackerCapability,
    GeneratorRelay,
    GridConfig,
    GridParams,
    InvalidParameter,
    LoadRelay,
    StabilityViolation,
    capability_bound,
    load_config,
    simulate,
    validate_config,
)
from frosim.config import _valid_bound, is_finite_real
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

    @pytest.mark.parametrize("field,kw", [
        ("4*h_inertia/dt", dict(h_inertia=1e306)),
        ("4*h_inertia/dt", dict(dt=1e-309)),
        ("dt/(4*h_inertia)", dict(h_inertia=1e-320, dt=1e-5)),
        ("dt/(droop_r*governor_t)",
         dict(droop_r=1e-200, governor_t=1e-200, dt=1e-201)),
        ("f_nominal/(rocof_window_m*dt)", dict(f_nominal=1e300, dt=1e-10)),
        # integers that convert to no float are named as fields, as a JSON
        # number beyond the floats is
        ("h_inertia", dict(h_inertia=2 ** 1100)),
        ("dt", dict(dt=2 ** 1100)),
        ("rocof_window_m", dict(rocof_window_m=2 ** 1100)),
        ("f_nominal", dict(f_nominal=2 ** 1100)),
        ("droop_r", dict(dt=1, droop_r=2 ** 1100, governor_t=1)),
    ])
    def test_overflowing_step_factor_rejected(self, field, kw):
        # each value is > 0, but a quotient the step kernel derives from
        # the params is not finite, or the value is no float at all
        with pytest.raises(InvalidParameter) as exc:
            validate_config(make_config(**kw))
        assert exc.value.field == field

    def test_overflowing_step_square_is_unstable(self):
        # every quotient is finite and dt <= T, but dt**2 overflows
        with pytest.raises(StabilityViolation) as exc:
            validate_config(make_config(h_inertia=1e200, droop_r=1.0,
                                        governor_t=1e300, dt=1e200))
        assert exc.value.coefficient == -math.inf

    @pytest.mark.parametrize("roster,field", [("generators", "p_tg"),
                                              ("loads", "p_sh")])
    def test_infinite_relay_block_rejected(self, roster, field):
        # an infinite block passes "> 0", but its trip or shed steps the
        # frequency into NaN, which no relay reads as an event
        cfg = study_config()
        relays = list(getattr(cfg, roster))
        relays[0] = relays[0]._replace(**{field: math.inf})
        infinite = cfg._replace(**{roster: relays})
        end = simulate(infinite, AttackSignal(-0.3), 60).records[-1]
        assert math.isnan(end.delta_f)
        with pytest.raises(InvalidParameter) as exc:
            validate_config(infinite)
        assert exc.value.field == f"{roster}[0].{field}"
        assert str(exc.value) == f"{roster}[0].{field}: must be finite (got inf)"

    def test_underflowing_coefficient_divisor_rejected(self):
        # every step factor is finite, but 4*H*R*T underflows to zero
        with pytest.raises(StabilityViolation) as exc:
            validate_config(make_config(h_inertia=1e-310, droop_r=1e-20,
                                        governor_t=1.0, dt=1e-300))
        assert exc.value.coefficient == -math.inf

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

    def test_relay_id_shared_across_rosters_rejected(self):
        # a specific goal names one relay, so a generator and a load relay
        # may not share an id
        loads = (LoadRelay("g4", "b1", 0.5, 59.5),) + C1_LOADS[1:]
        cfg = GridConfig(GridParams(2, 0.2, 0.2), C1_GENERATORS, loads,
                         AttackerCapability(0.1, 0.5, 1.5))
        with pytest.raises(InvalidParameter) as exc:
            validate_config(cfg)
        assert (exc.value.field, exc.value.value) == ("loads[0].id", "g4")
        assert "must be unique" in str(exc.value)

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
        # top-level keys keep their bare names
        data = self.base_dict()
        data["zeta"] = data["inertia"] = 3.0
        with pytest.warns(UserWarning) as caught:
            load_config(self.write(tmp_path, data))
        assert [str(w.message) for w in caught] == [
            "ignoring unknown config keys: ['inertia', 'zeta']"]

    def test_unknown_nested_keys_warn_once_by_path(self, tmp_path):
        # a misspelled kappa runs at the default, so the warning must say so
        data = self.base_dict()
        data["attacker"]["kapa"] = data["attacker"].pop("kappa")
        data["generators"][0]["colour"] = "red"
        data["loads"].append({**data["loads"][0], "id": "l2", "note": 1,
                              "bus ": "x"})
        data["extra"] = True
        with pytest.warns(UserWarning) as caught:
            cfg = load_config(self.write(tmp_path, data))
        assert [str(w.message) for w in caught] == [
            "ignoring unknown config keys: ['extra', 'generators[0].colour', "
            "'loads[1].bus ', 'loads[1].note', 'attacker.kapa']"]
        assert cfg.capability.kappa == 1.0

    def test_unknown_keys_warn_before_a_field_fails(self, tmp_path):
        data = self.base_dict()
        data["generators"][0]["colour"] = "red"
        data["loads"][0]["p_sh_pu"] = "0.5"
        with pytest.warns(UserWarning, match=r"\['generators\[0\].colour'\]"):
            with pytest.raises(InvalidParameter, match=r"loads\[0\].p_sh_pu"):
                load_config(self.write(tmp_path, data))

    def test_a_valid_config_warns_nothing(self, tmp_path, recwarn):
        load_config(self.write(tmp_path, self.base_dict()))
        assert not recwarn.list

    def test_invalid_json_reported(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(InvalidParameter):
            load_config(p)

    def test_not_utf8_reported(self, tmp_path):
        p = tmp_path / "grid.json"
        p.write_bytes(bytes.fromhex("fffe7b7d"))
        with pytest.raises(InvalidParameter) as exc:
            load_config(p)
        assert exc.value.field == "config"
        assert str(exc.value) == "config: not UTF-8 text"


# Values each capability field takes in turn: the ends of its range, both
# zeros, NaN and the infinities, a boolean, an integer beyond the floats and
# a float whose products overflow.
BOUND_FIELD_VALUES = [0, 1, 0.0, -0.0, 0.5, 1e308, math.nan, math.inf,
                      -math.inf, True, 2 ** 1100, -1]


def _outcome(call):
    try:
        value = call()
    except Exception as exc:  # the class is part of what is compared
        return type(exc), str(exc), getattr(exc, "field", None)
    return "ok", type(value), repr(value)


def _expected_field(toi, ad, der_total, kappa):
    """The field the documented capability checks name, in their order, or
    None when they accept."""
    for name, ok in (("toi", 0 <= toi <= 1), ("ad", 0 <= ad <= 1),
                     ("der_total", der_total >= 0), ("kappa", kappa >= 0)):
        if not ok:
            return f"capability.{name}"
    return None if math.isfinite(kappa * toi * ad * der_total) else "capability"


def test_valid_bound_matches_the_public_path():
    # the public path reads each field as a float first, as JSON input is
    # read, and _valid_bound checks those floats
    grid = validate_config(make_config())
    for fields in itertools.product(BOUND_FIELD_VALUES, repeat=4):
        cap = AttackerCapability(*fields)
        public = _outcome(lambda: validate_config(grid._replace(capability=cap)))
        unread = [name for name, value in zip(cap._fields, fields)
                  if type(value) is not float and not is_finite_real(value)]
        if unread:  # a boolean or an integer beyond the floats
            assert public[0] is InvalidParameter, cap
            assert public[2] == f"capability.{unread[0]}", cap
            continue
        floats = AttackerCapability(*map(float, fields))
        bound = _outcome(lambda: _valid_bound(*floats))
        field = _expected_field(*floats)
        if field is None:
            assert public[0] == "ok", cap
            assert bound == _outcome(lambda: capability_bound(floats)), cap
        else:
            assert bound[0] is InvalidParameter and bound[2] == field, cap
            assert public == bound, cap


def test_study_config_helper_is_shareable():
    cfg = study_config()
    assert math.isfinite(cfg.params.delta_f_coefficient)
    assert len(cfg.generators) == 3 and len(cfg.loads) == 4
