"""Sweep harness: combination generation, execution, trends, file formats."""

import functools
import math
import random
from collections import Counter
from decimal import (ROUND_CEILING, Context, Decimal, Inexact, Rounded,
                     localcontext)
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import frosim.dynamics
import frosim.sweep
import frosim.synth
from frosim import (
    AttackGoal,
    AttackType,
    FrosimError,
    HorizonTooShort,
    InvalidParameter,
    SweepMode,
    SweepRecord,
    SweepSpec,
    capability_bound,
    classify_attack,
    feasibility,
    generate_combinations,
    run_sweep,
    synthesize_min_attack,
    trend_report,
    validate_config,
    with_capability,
    with_dynamics,
    write_records_csv,
)
from frosim.synth import Sign, TargetKind
from frosim.sweep import (
    SWEEP_CSV_HEADER,
    read_records_csv,
    trend_report_dict,
    write_trend_outputs,
)
from frosim.cli import _spec_from_file
from conftest import study_config

DEMO_SPEC = Path(__file__).resolve().parent.parent / "demos" / "sweep_spec.json"


def small_spec(**kw):
    defaults = dict(
        base=study_config(kappa=2.0),
        goal=AttackGoal(horizon=12),
        h_values=(2.0, 6.0),
        r_values=(0.2,),
        t_values=(0.2,),
        toi_pct_values=(2.0, 10.0),
        ad_pct_values=(20.0, 100.0),
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


class TestGenerateCombinations:
    def test_full_cartesian_product_size(self):
        spec = small_spec(
            h_values=(2.0, 4.0, 6.0, 8.0, 10.0),
            r_values=(0.2, 0.4, 0.6, 0.8, 1.0),
            t_values=(0.2, 0.4, 0.6, 0.8, 1.0),
            toi_pct_values=(2.0, 4.0, 6.0, 8.0, 10.0),
            ad_pct_values=(20.0, 40.0, 60.0, 80.0, 100.0),
        )
        combos = generate_combinations(spec)
        assert len(combos) == 3125
        # lexicographic order of the value lists
        assert combos[0] == (2.0, 0.2, 0.2, 2.0, 20.0)
        assert combos[1] == (2.0, 0.2, 0.2, 2.0, 40.0)
        assert combos[-1] == (10.0, 1.0, 1.0, 10.0, 100.0)

    def test_random_mode_is_reproducible(self):
        spec = small_spec(mode=SweepMode.RANDOM, count=10000, seed=1)
        a = generate_combinations(spec)
        b = generate_combinations(spec)
        assert len(a) == 10000 and a == b
        values = {c.h for c in a}
        assert values == {2.0, 6.0}

    def test_random_draws_equal_rng_choice(self):
        # the draw consumes the seeded generator as rng.choice does: value
        # lists of every length 1-9, one length or mixed lengths in a spec
        pick = random.Random(0)
        for seed in range(300):
            if seed % 3:
                lengths = [pick.randint(1, 9) for _ in range(5)]
            else:
                lengths = [seed % 9 + 1] * 5
            lists = [tuple(float(10 * column + j) for j in range(n))
                     for column, n in enumerate(lengths)]
            seed = seed if seed % 2 else 2 ** 40 + seed
            spec = small_spec(h_values=lists[0], r_values=lists[1],
                              t_values=lists[2], toi_pct_values=lists[3],
                              ad_pct_values=lists[4], mode=SweepMode.RANDOM,
                              count=40, seed=seed)
            rng = random.Random(seed)
            expected = [tuple(rng.choice(values) for values in lists)
                        for _ in range(40)]
            combos = generate_combinations(spec)
            assert combos == expected
            assert all(type(c) is frosim.sweep.Combo for c in combos)

    def test_single_value_lists_yield_one_tuple(self):
        spec = small_spec(h_values=(2.0,), toi_pct_values=(2.0,),
                          ad_pct_values=(20.0,))
        assert generate_combinations(spec) == [(2.0, 0.2, 0.2, 2.0, 20.0)]

    def test_empty_list_rejected(self):
        with pytest.raises(InvalidParameter):
            small_spec(h_values=())

    def test_random_requires_count(self):
        with pytest.raises(InvalidParameter):
            small_spec(mode=SweepMode.RANDOM, count=None)

    def test_horizon_shorter_than_the_rocof_window_rejected(self):
        # the window length M comes from the base grid and is never swept
        with pytest.raises(HorizonTooShort, match=r"horizon 5 .*\(M=6\)"):
            small_spec(goal=AttackGoal(horizon=5))
        records = run_sweep(small_spec(goal=AttackGoal(horizon=6)))
        assert {r.status for r in records} == {"ok"}


class TestRunSweep:
    def test_zero_capability_yields_all_none(self):
        spec = small_spec(toi_pct_values=(0.0,))
        records = run_sweep(spec)
        assert all(not r.success for r in records)
        assert all(r.attack_type is AttackType.NONE for r in records)
        assert all(r.min_dp_a is None and r.trip_step is None for r in records)

    def test_case_study_combo_succeeds_as_rocof(self):
        # kappa chosen so the case-study capability covers the boundary
        spec = small_spec(
            base=study_config(kappa=60.0),
            h_values=(2.0,), r_values=(0.2,), t_values=(0.2,),
            toi_pct_values=(2.0,), ad_pct_values=(20.0,),
        )
        records = run_sweep(spec)
        assert len(records) == 1
        rec = records[0]
        assert rec.success and rec.attack_type is AttackType.ROCOF
        assert rec.min_dp_a <= 0.322
        assert rec.status == "ok"

    def test_rerun_is_identical(self):
        spec = small_spec(mode=SweepMode.RANDOM, count=30, seed=7)
        assert run_sweep(spec) == run_sweep(spec)

    def test_worker_count_does_not_change_results(self):
        spec = small_spec(mode=SweepMode.RANDOM, count=16, seed=3)
        assert run_sweep(spec, workers=1) == run_sweep(spec, workers=2)

    def test_one_dynamics_group_runs_serially_at_any_workers(
            self, monkeypatch):
        # every combination shares (H, R, T), so the sweep is one pool task
        # and starts no pool for it
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        spec = small_spec(h_values=(2.0,), toi_pct_values=(2.0, 6.0, 10.0),
                          ad_pct_values=(20.0, 60.0, 100.0))
        serial = run_sweep(spec, workers=1)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        assert run_sweep(spec, workers=2) == serial
        assert len(serial) == 9
        assert {(r.h, r.r, r.t) for r in serial} == {(2.0, 0.2, 0.2)}
        # two groups do reach the pool
        with pytest.raises(AssertionError, match="pool was started"):
            run_sweep(small_spec(), workers=2)

    def test_per_combo_errors_land_in_status(self):
        spec = small_spec(h_values=(0.0, 2.0))  # H=0 is invalid per combo
        records = run_sweep(spec)
        bad = [r for r in records if r.h == 0.0]
        good = [r for r in records if r.h == 2.0]
        assert bad and all(r.status == "InvalidParameter" for r in bad)
        assert all(not r.success for r in bad)
        assert all(r.status == "ok" for r in good)

    def test_overflowing_step_factor_lands_in_status(self):
        # 4H/dt overflows at H = 1e306: not a grid on which no attack exists
        records = run_sweep(small_spec(h_values=(1e306, 2.0)))
        assert {(r.h, r.status) for r in records} == {
            (1e306, "InvalidParameter"), (2.0, "ok")}
        assert not any(r.success for r in records if r.h == 1e306)

    def test_overflowing_capability_bound_lands_in_status(self):
        # the base capability is valid at toi 0; every other toi overflows
        # kappa*toi*ad*der_total
        base = validate_config(with_capability(
            study_config(), toi=0.0, der_total=1e308, kappa=1e308))
        records = run_sweep(small_spec(base=base, toi_pct_values=(0.0, 2.0)))
        assert {(r.toi_pct, r.status) for r in records} == {
            (0.0, "ok"), (2.0, "InvalidParameter")}
        assert not any(r.success for r in records)

    def test_records_ordered_by_combo_id(self):
        spec = small_spec(mode=SweepMode.RANDOM, count=12, seed=5)
        records = run_sweep(spec, workers=2)
        assert [r.combo_id for r in records] == list(range(12))


def combo_config(spec, combo):
    return with_capability(
        with_dynamics(spec.base, h_inertia=combo.h, droop_r=combo.r,
                      governor_t=combo.t),
        toi=combo.toi_pct / 100.0, ad=combo.ad_pct / 100.0,
    )


def lone_records(spec):
    """The records of *spec*, each from its own synthesis call (no memo
    shared), as (fields, repr of min_dp_a)."""
    rows = []
    for i, combo in enumerate(generate_combinations(spec)):
        try:
            out = synthesize_min_attack(validate_config(combo_config(spec, combo)),
                                        spec.goal, spec.tolerance)
        except FrosimError as exc:
            rec = SweepRecord(i, *combo, success=False,
                              attack_type=AttackType.NONE,
                              status=type(exc).__name__)
        else:
            vec = out.vector
            rec = SweepRecord(i, *combo, success=out.success,
                              attack_type=classify_attack(vec),
                              min_dp_a=vec and vec.dp_a,
                              trip_step=vec and vec.outcome.trip_step)
        rows.append((tuple(rec), repr(rec.min_dp_a)))
    return rows


def memo_spec(target, sign, **kw):
    """Random draws that repeat each (H, R, T) under many capability
    bounds, some below and some above the minimal injections."""
    defaults = dict(
        goal=AttackGoal(horizon=12, target_kind=target, sign=sign),
        h_values=(2.0, 6.0), r_values=(0.2, 0.6), t_values=(0.2, 1.0),
        toi_pct_values=(2.0, 6.0, 10.0), ad_pct_values=(20.0, 60.0, 100.0),
        mode=SweepMode.RANDOM, count=64, seed=11,
    )
    defaults.update(kw)
    return small_spec(**defaults)


MEMO_SPECS = [
    pytest.param(memo_spec(target, sign), id=f"{target.value}-{sign.value}")
    for target in (TargetKind.ANY, TargetKind.ROCOF_ONLY)
    for sign in (Sign.POSITIVE, Sign.EITHER)
] + [
    # H = 0 fails validation in every one of its cells, before any memo
    pytest.param(small_spec(h_values=(0.0, 2.0), toi_pct_values=(2.0, 6.0, 10.0)),
                 id="cartesian-invalid-h"),
]


class TestDynamicsMemo:
    """Combinations of one (H, R, T) share replays; no record may change."""

    def test_each_group_repeats_under_several_bounds(self):
        for param in MEMO_SPECS[:-1]:
            bounds: dict[tuple, set] = {}
            for combo in generate_combinations(param.values[0]):
                bounds.setdefault(combo[:3], set()).add(combo[3:])
            assert len(bounds) == 8
            assert all(len(b) >= 3 for b in bounds.values())

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("spec", MEMO_SPECS)
    def test_records_equal_lone_syntheses(self, spec, workers):
        expected = lone_records(spec)
        got = [(tuple(r), repr(r.min_dp_a)) for r in run_sweep(spec, workers)]
        assert got == expected
        statuses = Counter(row[0][-1] for row in expected)
        if spec.mode is SweepMode.CARTESIAN:
            assert statuses == {"InvalidParameter": 6, "ok": 6}
        else:
            assert statuses["ok"] > 0
            assert 0 < sum(row[0][6] for row in expected) < len(expected)

    @pytest.mark.parametrize("goal", [
        AttackGoal(horizon=12),
        AttackGoal(horizon=60, target_kind=TargetKind.ROCOF_ONLY,
                   sign=Sign.EITHER)], ids=["any", "rocof"])
    def test_step_constants_built_once_per_group(self, monkeypatch, goal):
        # each group call runs on one config
        spec, _ = _spec_from_file(DEMO_SPEC, 1)
        spec = spec._replace(goal=goal)
        builds = Counter()
        build = frosim.dynamics._build_step_constants

        def counted(params, generators, loads):
            builds[params.h_inertia, params.droop_r, params.governor_t] += 1
            return build(params, generators, loads)

        monkeypatch.setattr(frosim.dynamics, "_build_step_constants", counted)
        records = run_sweep(spec, workers=1)
        assert set(builds) == {(r.h, r.r, r.t) for r in records}
        assert len(records) > 10 * len(builds)
        assert set(builds.values()) == {1}

    @pytest.mark.parametrize("target", [TargetKind.ANY, TargetKind.ROCOF_ONLY])
    def test_serial_sweep_replays_each_dynamics_and_magnitude_once(
            self, monkeypatch, target):
        # one replay per (group, signed magnitude); an answer is one of them.
        # For every goal a group answers a bound far below its pass's start
        # with no replay, where a lone synthesis replays the bound, and its
        # certified answer serves every bound above; so it replays a strict
        # subset of what its lone syntheses replay
        spec = memo_spec(target, Sign.EITHER, count=160)
        replays = Counter()
        feasibility = frosim.synth.feasibility

        def counted_feasibility(config, dp_a, goal, options):
            p = config.params
            replays[p.h_inertia, p.droop_r, p.governor_t, repr(dp_a)] += 1
            return feasibility(config, dp_a, goal, options)

        monkeypatch.setattr(frosim.synth, "feasibility", counted_feasibility)
        lone = lone_records(spec)
        lone_replays, replays = replays, Counter()
        starts = {}
        real_pass = frosim.synth._smallest_feasible_start

        def recorded_pass(config, goal, direction, options):
            start, peak = real_pass(config, goal, direction, options)
            p = config.params
            starts[p.h_inertia, p.droop_r, p.governor_t, direction] = start
            return start, peak

        monkeypatch.setattr(frosim.synth, "_smallest_feasible_start",
                            recorded_pass)
        records = run_sweep(spec, workers=1)
        assert [(tuple(r), repr(r.min_dp_a)) for r in records] == lone
        assert set(replays) < set(lone_replays)
        # each skipped replay lies below its direction's rounded-up start
        # times 1 - 1e-9
        rounded = Context(prec=12, rounding=ROUND_CEILING).plus
        for h, r, t, dp_a in set(lone_replays) - set(replays):
            start = starts[h, r, t, math.copysign(1, float(dp_a))]
            assert abs(Decimal(dp_a)) < rounded(Decimal(start)) * Decimal(
                "0.999999999")
        assert set(replays.values()) == {1}
        assert sum(lone_replays.values()) >= 2 * len(replays)
        answers = {(r.h, r.r, r.t, repr(r.min_dp_a))
                   for r in records if r.success}
        assert answers <= set(replays)
        assert len(answers) < sum(r.success for r in records)

    @pytest.mark.parametrize("target", [TargetKind.ANY, TargetKind.ROCOF_ONLY])
    def test_one_interval_pass_per_group_and_direction(self, monkeypatch,
                                                       target):
        # every ToI x AD product is distinct, so a group's largest bound
        # runs first, and its pass covers every bound of the group
        spec = memo_spec(target, Sign.EITHER, toi_pct_values=(2.0, 5.0, 9.0),
                         ad_pct_values=(20.0, 60.0, 100.0))
        products = [t * a for t in spec.toi_pct_values
                    for a in spec.ad_pct_values]
        assert len(set(products)) == len(products)
        passes = Counter()
        real = frosim.synth._smallest_feasible_start

        def counted(config, goal, direction, options):
            p = config.params
            passes[p.h_inertia, p.droop_r, p.governor_t, direction] += 1
            return real(config, goal, direction, options)

        monkeypatch.setattr(frosim.synth, "_smallest_feasible_start", counted)
        records = run_sweep(spec, workers=1)
        groups = {(r.h, r.r, r.t) for r in records}
        assert set(passes) == {(*g, d) for g in groups for d in (1, -1)}
        assert set(passes.values()) == {1}
        assert 0 < sum(r.success for r in records) < len(records)
        assert [(tuple(r), repr(r.min_dp_a)) for r in records] == (
            lone_records(spec))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_group_validation_equals_validating_each_combination(
            self, monkeypatch, workers):
        # the base capability's toi is out of range, but every combination
        # replaces it; H = 0 and T below dt fail their whole group, the
        # former before its out-of-range toi of 150%, which fails its own
        # combinations in the valid group
        spec = small_spec(
            base=with_capability(study_config(kappa=2.0), toi=5.0),
            h_values=(0.0, 2.0), t_values=(0.001, 0.2),
            toi_pct_values=(2.0, 150.0))
        expected = lone_records(spec)
        assert Counter(row[0][-1] for row in expected) == {
            "InvalidParameter": 10, "StabilityViolation": 4, "ok": 2}
        grids = Counter()
        validate_grid = frosim.sweep.validate_grid

        def counted(config):
            grids[config.params.h_inertia, config.params.governor_t] += 1
            return validate_grid(config)

        monkeypatch.setattr(frosim.sweep, "validate_grid", counted)
        got = [(tuple(r), repr(r.min_dp_a)) for r in run_sweep(spec, workers)]
        assert got == expected
        if workers == 1:
            assert len(grids) == 4 and set(grids.values()) == {1}

    def test_each_pool_task_is_one_group(self, monkeypatch):
        # no (H, R, T) group is split between two tasks, so none certifies
        # its answers twice; the pool runs in process here to see its tasks
        spec, _ = _spec_from_file(DEMO_SPEC, 1)
        tasks, chunksizes = [], []

        class InProcessPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                chunksizes.append(chunksize)
                for task in items:
                    tasks.append(task[1])
                    yield fn(task)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            InProcessPool)
        records = run_sweep(spec, workers=2)
        assert records == run_sweep(spec, workers=1)
        # the tasks carry every combination id exactly once, with its combo
        combos = generate_combinations(spec)
        carried = sorted(item for task in tasks for item in task)
        assert carried == list(enumerate(combos))
        groups = [{combo[:3] for _, combo in task} for task in tasks]
        assert all(len(group) == 1 for group in groups)
        assert len(groups) == len(set().union(*groups)) == 125
        # the pool still sends at least eight chunks of tasks
        chunksize, = chunksizes
        assert math.ceil(len(tasks) / chunksize) >= 8

    def test_capability_check_is_kept_on_every_call(self):
        # a group call checks every bound against its config's, and each
        # replay checks its magnitude
        spec = memo_spec(TargetKind.ANY, Sign.POSITIVE)
        combo = generate_combinations(spec)[0]
        wide = validate_config(with_capability(
            combo_config(spec, combo), toi=1.0, ad=1.0))
        narrow = validate_config(with_capability(
            combo_config(spec, combo), toi=0.01, ad=0.01))
        bounds = [capability_bound(c.capability) for c in (narrow, wide)]
        small, big = frosim.synth._min_attacks(wide, spec.goal, bounds,
                                               frosim.SimOptions())
        assert big.success and abs(big.vector.dp_a) > bounds[0]
        assert not small.success
        assert [repr(small), repr(big)] == [
            repr(synthesize_min_attack(c, spec.goal)) for c in (narrow, wide)]
        with pytest.raises(frosim.CapabilityExceeded):
            frosim.synth._min_attacks(narrow, spec.goal, bounds,
                                      frosim.SimOptions())
        with pytest.raises(frosim.CapabilityExceeded):
            feasibility(narrow, big.vector.dp_a, spec.goal)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_invalid_capabilities_in_a_group_with_valid_ones(self, workers):
        # the base capability is valid at toi 0; a ToI of 150% fails its
        # range check, and 100% overflows kappa*toi*ad*der_total, in every
        # (H, R, T) group beside combinations whose bounds lie below and
        # above the minimal injections
        base = validate_config(with_capability(
            study_config(), toi=0.0, der_total=4.0, kappa=1e308))
        spec = small_spec(base=base, toi_pct_values=(1e-308, 1e-307, 150.0,
                                                    100.0),
                          ad_pct_values=(60.0, 100.0))
        combos = generate_combinations(spec)
        assert len({c[:3] for c in combos}) == 2
        expected = lone_records(spec)
        got = [(tuple(r), repr(r.min_dp_a)) for r in run_sweep(spec, workers)]
        assert got == expected
        statuses = {(r[0][4], r[0][-1]) for r in expected}
        assert statuses == {(1e-308, "ok"), (1e-307, "ok"),
                            (150.0, "InvalidParameter"),
                            (100.0, "InvalidParameter")}
        successes = {(r[0][4], r[0][6]) for r in expected}
        assert (1e-308, False) in successes and (1e-307, True) in successes


def record_reprs(records):
    # repr tells -0.0 from 0.0 and 2 from 2.0, which == does not
    return [repr(tuple(r)) for r in records]


def lone_reprs(spec):
    return [repr(fields) for fields, _ in lone_records(spec)]


@functools.cache
def demo_spec_and_lone_reprs():
    spec, _ = _spec_from_file(DEMO_SPEC, 1)
    return spec, lone_reprs(spec)


class TestCallerDecimalContext:
    def test_answers_do_not_depend_on_the_decimal_context(self):
        # synthesis rounds and compares record decimals in contexts of its
        # own, so a coarse caller context that traps every rounding changes
        # no record and no outcome
        goal = AttackGoal(horizon=60, target_kind=TargetKind.ROCOF_ONLY,
                          sign=Sign.EITHER)
        spec, _ = _spec_from_file(DEMO_SPEC, 1)
        spec = spec._replace(goal=goal, count=300)
        cfg = study_config(kappa=60.0)

        def answers():
            return (repr(run_sweep(spec, workers=1)),
                    repr(synthesize_min_attack(cfg, goal)))

        expected = answers()
        with localcontext(Context(prec=3, traps=[Inexact, Rounded])):
            assert answers() == expected


class TestDuplicateReuse:
    """A combination whose five values an earlier one had runs in the same
    (H, R, T) group, whose call answers its bound once; a zero of either
    sign shares its group and its answer, and each record keeps its own
    values.  No record may change."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_demo_spec_equals_lone_syntheses(self, workers):
        spec, expected = demo_spec_and_lone_reprs()
        combos = generate_combinations(spec)
        assert len(set(combos)) < 0.8 * len(combos)
        assert record_reprs(run_sweep(spec, workers)) == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_same_value_of_another_zero_sign_runs_again(self, workers):
        # 150% fails its capability check; 0.0 and -0.0 are equal but are
        # written apart, and the ToI 2 is read as 2.0
        spec = small_spec(
            mode=SweepMode.RANDOM, count=120, seed=3, h_values=(2.0, 6.0),
            toi_pct_values=(0.0, -0.0, 2, 2.0, 10.0, 150.0),
            ad_pct_values=(20.0, 100.0))
        assert repr(spec.toi_pct_values[2:4]) == repr((2.0, 2.0))
        combos = generate_combinations(spec)
        for toi in (150.0, 0.0, -0.0, 2.0):
            cells = [c for c in combos if repr(c.toi_pct) == repr(toi)]
            assert len(cells) > len(set(map(repr, cells))), toi
        records = run_sweep(spec, workers)
        assert record_reprs(records) == lone_reprs(spec)
        statuses = Counter(r.status for r in records)
        assert statuses["InvalidParameter"] == sum(
            c.toi_pct == 150.0 for c in combos)
        assert 0 < sum(r.success for r in records) < len(combos)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("column,values", [
        (0, (0.0, -0.0, 2.0)), (1, (0.0, -0.0, 0.2)), (2, (0.0, -0.0, 0.2)),
    ], ids=["h-zero-sign", "r-zero-sign", "t-zero-sign"])
    def test_repeats_apart_only_in_h_r_or_t_run_apart(self, tmp_path, column,
                                                      values, workers):
        # equal H, R or T values that are written apart: a zero of either
        # sign fails its grid
        field = ("h_values", "r_values", "t_values")[column]
        spec = small_spec(mode=SweepMode.RANDOM, count=80, seed=2,
                          **{field: values})
        combos = generate_combinations(spec)
        for value in values[:2]:
            cells = [c for c in combos if repr(c[column]) == repr(value)]
            assert len(cells) > len(set(map(repr, cells))), value
        records = run_sweep(spec, workers)
        assert record_reprs(records) == lone_reprs(spec)
        assert {r.status == "ok" for r in records} == {True, False}
        # each record writes its own values, -0 apart from 0
        out = tmp_path / "records.csv"
        write_records_csv(records, out)
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[1:6] for row in rows] == [
            [frosim.sweep._FLOAT % v for v in combo] for combo in combos]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("values", [
        {"h_values": (2, 6.0)},
        {"r_values": (2 ** 600,), "t_values": (2 ** 600,)},
    ], ids=["h-2", "r-and-t-2**600"])
    def test_an_integer_value_runs_as_its_float(self, values, workers):
        # integers are stored as their floats, so an H of 2 is written as
        # 2.0 and R*T of two large ones overflows to inf, as it does for
        # floats, where the integer product converts to no float at all
        spec = small_spec(mode=SweepMode.RANDOM, count=40, seed=2, **values)
        floats = small_spec(mode=SweepMode.RANDOM, count=40, seed=2, **{
            field: tuple(map(float, vals)) for field, vals in values.items()})
        records = run_sweep(spec, workers)
        assert record_reprs(records) == record_reprs(run_sweep(floats, 1))
        assert {r.status for r in records} == {"ok"}

    @pytest.mark.parametrize("target", [TargetKind.ANY, TargetKind.ROCOF_ONLY])
    def test_repeats_cost_no_replay(self, monkeypatch, target):
        # repeated ToI and AD values repeat combinations, which the group
        # call answers with the replays and passes of the spec without them
        spec = small_spec(
            goal=AttackGoal(horizon=12, target_kind=target, sign=Sign.EITHER),
            toi_pct_values=(2.0, 10.0, 2.0),
            ad_pct_values=(20.0, 100.0, 100.0))
        distinct = spec._replace(toi_pct_values=(2.0, 10.0),
                                 ad_pct_values=(20.0, 100.0))
        calls = []
        feasibility = frosim.synth.feasibility
        start = frosim.synth._smallest_feasible_start

        def counted_feasibility(config, dp_a, goal, options):
            calls.append((config.params, repr(dp_a)))
            return feasibility(config, dp_a, goal, options)

        def counted_start(config, goal, direction, options):
            calls.append((config.params, direction))
            return start(config, goal, direction, options)

        monkeypatch.setattr(frosim.synth, "feasibility", counted_feasibility)
        monkeypatch.setattr(frosim.synth, "_smallest_feasible_start",
                            counted_start)
        records = run_sweep(spec, workers=1)
        repeated, calls[:] = calls[:], []
        run_sweep(distinct, workers=1)
        assert repeated == calls and calls
        combos = generate_combinations(spec)
        assert len(combos) == 18 and len(set(combos)) == 8
        assert record_reprs(records) == lone_reprs(spec)
        assert 0 < sum(r.success for r in records) < len(records)

    @pytest.mark.parametrize("cartesian", [False, True],
                             ids=["random", "cartesian"])
    def test_one_synthesis_per_group(self, monkeypatch, cartesian):
        # one group call per (H, R, T), on a config at the group's largest
        # bound, carrying the bound of every valid combination
        spec, _ = _spec_from_file(DEMO_SPEC, 1)
        if cartesian:
            spec = spec._replace(mode=SweepMode.CARTESIAN,
                                 toi_pct_values=(2.0, 10.0),
                                 ad_pct_values=(20.0, 100.0))
        calls = Counter()
        carried = []
        min_attacks = frosim.sweep._min_attacks

        def counted(config, goal, bounds, options):
            p = config.params
            calls[p.h_inertia, p.droop_r, p.governor_t] += 1
            assert max(bounds) == capability_bound(config.capability)
            carried.extend(bounds)
            return min_attacks(config, goal, bounds, options)

        monkeypatch.setattr(frosim.sweep, "_min_attacks", counted)
        records = run_sweep(spec, workers=1)
        combos = generate_combinations(spec)
        assert set(calls.values()) == {1}
        assert set(calls) == {c[:3] for c in combos}
        cap = spec.base.capability
        assert sorted(carried) == sorted(
            capability_bound(cap._replace(
                toi=c.toi_pct / 100.0, ad=c.ad_pct / 100.0))
            for c in combos)
        assert (len(set(combos)) == len(combos)) == cartesian
        assert records == run_sweep(spec, workers=2)


class TestClassify:
    def test_none_for_missing_vector(self):
        assert classify_attack(None) is AttackType.NONE

    def test_first_event_decides(self):
        from frosim import feasibility
        cfg = study_config(kappa=60.0)
        out = feasibility(cfg, 0.322, AttackGoal(horizon=12))
        assert classify_attack(out.vector) is AttackType.ROCOF


def synthetic_records(success_by_h):
    records = []
    cid = 0
    for h, successes in success_by_h.items():
        for ok in successes:
            records.append(SweepRecord(
                combo_id=cid, h=h, r=0.2, t=0.2, toi_pct=2.0, ad_pct=20.0,
                success=ok,
                attack_type=AttackType.ROCOF if ok else AttackType.NONE,
                min_dp_a=0.1 if ok else None,
                trip_step=6 if ok else None,
            ))
            cid += 1
    return records


class TestTrendReport:
    def test_successes_only_at_smallest_h_is_nonincreasing(self):
        records = synthetic_records({
            2.0: [True] * 10, 6.0: [False] * 10, 10.0: [False] * 10,
        })
        report = trend_report(records)
        trend = report.parameters["h_s"]
        assert trend.verdict == "nonincreasing"
        assert trend.matches_expected

    def test_uniform_successes_are_weakly_monotone_everywhere(self):
        records = synthetic_records({
            2.0: [True] * 10, 6.0: [True] * 10, 10.0: [True] * 10,
        })
        report = trend_report(records)
        for trend in report.parameters.values():
            if trend.verdict != "insufficient buckets":
                assert trend.verdict == "both"
                assert trend.matches_expected

    def test_single_bucket_is_insufficient(self):
        records = synthetic_records({2.0: [True, False]})
        report = trend_report(records)
        for trend in report.parameters.values():
            assert trend.verdict == "insufficient buckets"

    def test_bucket_totals_sum_to_record_count(self):
        records = synthetic_records({
            2.0: [True, False, True], 6.0: [False] * 4, 10.0: [True] * 2,
        })
        report = trend_report(records)
        for trend in report.parameters.values():
            assert sum(b.records for b in trend.buckets) == len(records)

    def test_rising_trend_fails_nonincreasing_beyond_slack(self):
        records = synthetic_records({
            2.0: [False] * 10, 6.0: [True] * 5 + [False] * 5, 10.0: [True] * 10,
        })
        trend = trend_report(records).parameters["h_s"]
        assert trend.verdict == "nondecreasing"
        assert not trend.matches_expected

    def test_empty_records_rejected(self):
        with pytest.raises(InvalidParameter):
            trend_report([])

    def test_non_ok_records_are_counted_not_bucketed(self):
        records = run_sweep(small_spec(h_values=(0.0, 2.0)))
        report = trend_report(records)
        bad = sum(r.status != "ok" for r in records)
        assert bad == 4
        assert report.total_records == len(records)
        assert report.excluded_records == bad
        assert [b.value for b in report.parameters["h_s"].buckets] == [2.0]
        for trend in report.parameters.values():
            assert sum(b.records for b in trend.buckets) == len(records) - bad
        assert [s.h for s in report.h_type_split] == [2.0]
        assert trend_report_dict(report)["excluded_records"] == bad

    def test_no_ok_record_leaves_every_bucket_empty(self):
        records = run_sweep(small_spec(h_values=(0.0,)))
        assert {r.status for r in records} == {"InvalidParameter"}
        report = trend_report(records)
        assert (report.total_records, report.total_successes,
                report.excluded_records) == (len(records), 0, len(records))
        assert report.h_type_split == ()
        for name, trend in report.parameters.items():
            assert trend == frosim.sweep.ParameterTrend(
                name, frosim.sweep.EXPECTED_DIRECTIONS[name], (),
                "insufficient buckets", False)

    def test_equal_values_share_the_first_seen_bucket(self):
        # h 2 and 2.0, toi 2.0 and 2; the excluded record's h 6 is no key
        records = synthetic_records({2: [True, False, True, False],
                                     6.0: [False]})
        records[1] = records[1]._replace(toi_pct=2)
        records[2] = records[2]._replace(h=2.0)
        records[3] = records[3]._replace(h=6, status="InvalidParameter")
        report = trend_report(records)
        h = report.parameters["h_s"].buckets
        assert [(repr(b.value), b.records, b.successes) for b in h] == [
            ("2", 3, 2), ("6.0", 1, 0)]
        toi, = report.parameters["toi_pct"].buckets
        assert (repr(toi.value), toi.records, toi.successes) == ("2.0", 4, 2)
        assert [(repr(s.h), s.rocof, s.none) for s in report.h_type_split] == [
            ("2", 2, 1), ("6.0", 0, 1)]
        assert (report.total_successes, report.excluded_records) == (2, 1)

    def test_h_type_split_counts(self):
        records = synthetic_records({2.0: [True, False], 6.0: [True]})
        split = {s.h: s for s in trend_report(records).h_type_split}
        assert split[2.0].rocof == 1 and split[2.0].none == 1
        assert split[6.0].rocof == 1


def reference_write_records_csv(records, path):
    """Reference records writer, one ``format`` call per field joined by
    commas; ``write_records_csv`` must write the same bytes."""
    def fmt(x):
        return format(x, ".12g")

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(SWEEP_CSV_HEADER + "\n")
        for r in records:
            fh.write(",".join([
                str(r.combo_id),
                fmt(r.h), fmt(r.r), fmt(r.t), fmt(r.toi_pct), fmt(r.ad_pct),
                "true" if r.success else "false",
                r.attack_type.value,
                "" if r.min_dp_a is None else fmt(r.min_dp_a),
                "" if r.trip_step is None else str(r.trip_step),
                r.status,
            ]) + "\n")


class TestFiles:
    def test_csv_round_trip(self, tmp_path):
        spec = small_spec(mode=SweepMode.RANDOM, count=20, seed=2)
        records = run_sweep(spec)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        back = read_records_csv(path)
        for orig, parsed in zip(records, back):
            assert parsed.combo_id == orig.combo_id
            assert parsed.success == orig.success
            assert parsed.attack_type == orig.attack_type
            if orig.min_dp_a is None:
                assert parsed.min_dp_a is None
            else:
                assert parsed.min_dp_a == pytest.approx(orig.min_dp_a,
                                                        rel=1e-10)

    def test_recorded_answers_replay(self, tmp_path):
        # a minimal answer sits on the feasibility boundary, so the value
        # the CSV keeps (not the float it was written from) must meet the goal
        goal = AttackGoal(horizon=12)
        spec = SweepSpec(base=study_config(kappa=2.0), goal=goal,
                         mode=SweepMode.RANDOM, count=200, seed=1)
        path = tmp_path / "records.csv"
        write_records_csv(run_sweep(spec), path)
        successes = [r for r in read_records_csv(path) if r.success]
        assert len({r.min_dp_a for r in successes}) >= 25
        for rec in successes:
            config = validate_config(with_capability(
                with_dynamics(spec.base, h_inertia=rec.h, droop_r=rec.r,
                              governor_t=rec.t),
                toi=rec.toi_pct / 100.0, ad=rec.ad_pct / 100.0,
            ))
            out = feasibility(config, rec.min_dp_a, goal)
            assert out.success, rec
            assert classify_attack(out.vector) is rec.attack_type
            assert out.vector.outcome.trip_step == rec.trip_step

    def test_an_off_grid_answer_replays_within_its_bound(self, tmp_path):
        # the bound lies between the kernel's boundary and the next record
        # decimal, 0.0335807781047, so the answer is the bound itself, and
        # its 12-digit text would lie above the bound
        goal = AttackGoal(horizon=12)
        base = with_capability(study_config(kappa=60.0), der_total=1.0,
                               kappa=0.033580778104675)
        spec = SweepSpec(base=base, goal=goal, h_values=(2.0,),
                         r_values=(0.2,), t_values=(0.2,),
                         toi_pct_values=(100.0,), ad_pct_values=(100.0,))
        path = tmp_path / "records.csv"
        write_records_csv(run_sweep(spec), path)
        rec, = read_records_csv(path)
        config = validate_config(with_capability(base, toi=1.0, ad=1.0))
        assert rec.min_dp_a == capability_bound(config.capability)
        out = feasibility(config, rec.min_dp_a, goal)
        assert out.success and out.vector.outcome.trip_step == rec.trip_step

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_demo_spec_same_bytes_as_the_reference_writer(self, tmp_path, seed):
        spec, _ = _spec_from_file(DEMO_SPEC, seed)
        serial = run_sweep(spec, workers=1)
        assert {r.success for r in serial} == {True, False}
        want = tmp_path / "want.csv"
        reference_write_records_csv(serial, want)
        for workers, records in ((1, serial), (2, run_sweep(spec, workers=2))):
            got = tmp_path / f"got{workers}.csv"
            write_records_csv(records, got)
            assert got.read_bytes() == want.read_bytes(), workers

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.one_of(st.floats(), st.integers(-10**20, 10**20)))
    def test_percent_format_equals_format(self, x):
        assert frosim.sweep._FLOAT % x == format(x, ".12g")

    def test_status_column_round_trips(self, tmp_path):
        records = run_sweep(small_spec(h_values=(0.0, 2.0)))
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        assert path.read_text().splitlines()[1].endswith(",InvalidParameter")
        back = read_records_csv(path)
        assert [r.status for r in back] == [r.status for r in records]
        assert {r.status for r in back} == {"ok", "InvalidParameter"}

    def test_header_without_status_reads_ok(self, tmp_path):
        records = run_sweep(small_spec())
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        old = [ln.rsplit(",", 1)[0] for ln in path.read_text().splitlines()]
        assert old[0] == ("combo_id,h_s,r_pu,t_s,toi_pct,ad_pct,success,"
                          "attack_type,min_dp_a_pu,trip_step")
        path.write_text("\n".join(old) + "\n")
        back = read_records_csv(path)
        assert len(back) == len(records)
        assert all(r.status == "ok" for r in back)
        assert [r.success for r in back] == [r.success for r in records]

    @pytest.mark.parametrize("column,value", [
        (6, "yes"), (6, "1"), (6, ""), (8, "nan"), (8, "-inf"), (8, "inf"),
        (1, "nan"), (2, "inf"), (3, "inf"), (4, "-inf"), (5, "-inf")])
    def test_read_rejects_malformed_fields(self, tmp_path, column, value):
        records = run_sweep(small_spec(toi_pct_values=(10.0,)))
        assert records[0].success
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        lines = path.read_text().splitlines()
        row = lines[1].split(",")
        row[column] = value
        lines[1] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParameter, match="malformed row"):
            read_records_csv(path)

    def test_read_rejects_wrong_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InvalidParameter):
            read_records_csv(p)

    def test_read_rejects_empty(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text(SWEEP_CSV_HEADER + "\n")
        with pytest.raises(InvalidParameter):
            read_records_csv(p)

    def test_trend_outputs_written(self, tmp_path):
        records = synthetic_records({2.0: [True] * 3, 6.0: [False] * 3})
        report = trend_report(records)
        out = tmp_path / "report.json"
        files = write_trend_outputs(report, out, tmp_path / "csv")
        assert out.exists()
        names = {f.name for f in files}
        assert "trend_h_s.csv" in names and "trend_ad_pct.csv" in names
        d = trend_report_dict(report)
        assert d["total_records"] == 6 and d["total_successes"] == 3
