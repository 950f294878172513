"""Attack synthesis: feasibility oracle, probing, closed form, interval
pass, exhaustive scan."""

import dataclasses
import itertools
import logging
import math
import random
from decimal import Context, Decimal

import pytest

import frosim.dynamics
import frosim.synth
from frosim import (
    AttackerCapability,
    AttackGoal,
    CapabilityExceeded,
    EventKind,
    FeasibilityOutcome,
    FeasibilityStatus,
    GeneratorRelay,
    GridConfig,
    GridParams,
    LoadRelay,
    Sign,
    SimOptions,
    SystemState,
    TargetKind,
    capability_bound,
    exhaustive_min_attack,
    feasibility,
    frequency_step,
    governor_step,
    probe_monotonicity,
    synthesize_min_attack,
    validate_config,
    with_capability,
)
from conftest import (C1_GENERATORS, C1_LOADS, random_small_config,
                      study_config)


def exhaustive_scan_oracle(config, goal, resolution):
    """Plain smallest-first magnitude scan used as the independent oracle."""
    bound = capability_bound(config.capability)
    mag = 0.0
    while mag <= bound:
        if feasibility(config, mag, goal).success:
            return mag
        mag += resolution
    return None


def nonmonotone_config():
    """Feasible set with a hole: a large shed block rebounds frequency fast
    enough to trip a high ROCOF setting at small injections, while mid-size
    injections neither rebound hard enough nor fall fast enough."""
    gens = (GeneratorRelay("g", "b1", 1.0, 3.0),)
    loads = (LoadRelay("l", "b2", 0.5, 59.5),)
    with pytest.warns(UserWarning):
        return validate_config(GridConfig(
            GridParams(h_inertia=2.0, droop_r=1.0, governor_t=0.2),
            gens, loads,
            AttackerCapability(toi=1.0, ad=1.0, der_total=1.5,
                               kappa=0.35 / 1.5),
        ))


def reference_unit_response(config, goal):
    """The relay-free response to ``dp_a = 1`` stepped by the reference
    recursions, steps 0..horizon; ``synth._unit_response`` must equal it
    bit for bit."""
    params = config.params
    # the update equations read only delta_f and dp_gov
    state = SystemState(0, 0.0, 0.0, 0.0, 0.0, (), (), ())
    response = [0.0]
    for n in range(goal.horizon):
        dp_a = 1.0 if n >= goal.attack_step else 0.0
        state = SystemState(
            n + 1,
            frequency_step(state, params, dp_a, 0.0, 0.0),
            governor_step(state, params),
            0.0, 0.0, (), (), (),
        )
        response.append(state.delta_f)
    return response


class TestFeasibility:
    def test_zero_injection_never_succeeds(self):
        out = feasibility(study_config(), 0.0, AttackGoal(horizon=100))
        assert out.status is FeasibilityStatus.NO_ATTACK_EXISTS
        assert out.vector is None

    def test_case_study_injection_succeeds_on_lowest_threshold(self):
        cfg = study_config(kappa=60.0)
        out = feasibility(cfg, 0.322, AttackGoal(horizon=12))
        assert out.success
        assert out.vector.outcome.relay_id == "g4"
        assert out.vector.outcome.kind is EventKind.ROCOF_TRIP
        assert out.vector.outcome.trip_step <= 12

    def test_below_boundary_fails(self):
        # boundary located by the exhaustive oracle at 1e-4 resolution
        cfg = study_config(kappa=60.0)
        goal = AttackGoal(horizon=12)
        boundary = exhaustive_scan_oracle(cfg, goal, 1e-4)
        assert boundary is not None
        out = feasibility(cfg, boundary - 2e-4, goal)
        assert not out.success

    def test_capability_bound_enforced(self):
        cfg = study_config()  # bound = 0.006
        with pytest.raises(CapabilityExceeded):
            feasibility(cfg, 0.01, AttackGoal(horizon=12))

    @pytest.mark.parametrize("target", list(TargetKind), ids=str)
    def test_verdict_replay_stops_at_the_matching_event(self, monkeypatch,
                                                        target):
        cfg = study_config(kappa=60.0)
        goal = AttackGoal(horizon=200, target_kind=target,
                          specific_relay_id="l1")
        trip_step = feasibility(cfg, 0.322, goal).vector.outcome.trip_step
        steps = 0
        real = frosim.dynamics.simulate_step

        def counted(*args):
            nonlocal steps
            steps += 1
            return real(*args)

        monkeypatch.setattr(frosim.dynamics, "simulate_step", counted)
        assert frosim.synth._is_feasible(cfg, 0.322, goal)
        assert steps == trip_step + 1 < 201

    def test_goal_filtering_by_kind(self):
        cfg = study_config(kappa=60.0)
        rocof_goal = AttackGoal(horizon=12, target_kind=TargetKind.ROCOF_ONLY)
        ls_goal = AttackGoal(horizon=12, target_kind=TargetKind.LS_ONLY)
        assert feasibility(cfg, 0.322, rocof_goal).success
        # shedding happens only after the trip at this horizon
        out = feasibility(cfg, 0.322, ls_goal)
        assert out.success
        assert out.vector.outcome.kind is EventKind.LS_SHED

    def test_specific_relay_goal(self):
        cfg = study_config(kappa=60.0)
        goal = AttackGoal(horizon=12, target_kind=TargetKind.SPECIFIC,
                          specific_relay_id="g5")
        out = feasibility(cfg, 0.322, goal)
        assert out.success and out.vector.outcome.relay_id == "g5"


class TestProbeMonotonicity:
    def test_all_infeasible_is_vacuously_monotone(self):
        cfg = study_config()  # bound 0.006, far below any boundary
        report = probe_monotonicity(cfg, AttackGoal(horizon=12), samples=8)
        probe = report.directions[1]
        assert report.monotone and not report.any_feasible
        assert probe.bracket is None

    def test_case_study_bracket_contains_boundary(self):
        cfg = study_config(kappa=60.0)
        goal = AttackGoal(horizon=12)
        boundary = exhaustive_scan_oracle(cfg, goal, 1e-4)
        report = probe_monotonicity(cfg, goal, samples=64)
        probe = report.directions[1]
        assert report.monotone
        lo, hi = probe.bracket
        assert lo <= boundary <= hi

    def test_instant_ls_relay_gives_near_zero_boundary(self):
        loads = (LoadRelay("l", "b", 0.5, 59.9999),)
        cfg = study_config(kappa=60.0, loads=loads)
        report = probe_monotonicity(cfg, AttackGoal(horizon=60), samples=16)
        probe = report.directions[1]
        assert report.monotone
        assert probe.bracket[0] == 0.0

    def test_nonmonotone_detected(self):
        cfg = nonmonotone_config()
        report = probe_monotonicity(cfg, AttackGoal(
            horizon=600, target_kind=TargetKind.ROCOF_ONLY), samples=17)
        assert not report.monotone

    def test_samples_precondition(self):
        with pytest.raises(ValueError):
            probe_monotonicity(study_config(), AttackGoal(horizon=12),
                               samples=1)


def assert_exact_minimum(cfg, goal, out, resolution, options=SimOptions()):
    """*out* replays, is at most the scan's answer at *resolution* and within
    one resolution step of it, and one record decimal lower fails in every
    allowed direction."""
    dp_a = out.vector.dp_a
    replay = feasibility(cfg, dp_a, goal, options)
    assert replay.success and replay.vector.outcome == out.vector.outcome
    assert float(format(dp_a, ".12g")) == dp_a
    lower = float(Decimal(repr(abs(dp_a))).next_minus(Context(prec=12)))
    for direction in goal.directions():
        assert not feasibility(cfg, direction * lower, goal, options).success
    scan = exhaustive_min_attack(cfg, goal, resolution=resolution,
                                 options=options)
    assert scan.success
    assert abs(dp_a) <= abs(scan.vector.dp_a) < abs(dp_a) + resolution


class TestSynthesizeMinAttack:
    def test_zero_capability(self):
        cfg = study_config(toi=0.0)
        out = synthesize_min_attack(cfg, AttackGoal(horizon=12))
        assert out.status is FeasibilityStatus.NO_ATTACK_EXISTS

    def test_unreachable_goal_is_no_attack(self):
        # high inertia and a tiny capability: nothing in range sheds load
        cfg = study_config(h=10.0)  # bound 0.006
        goal = AttackGoal(horizon=60, target_kind=TargetKind.LS_ONLY)
        assert exhaustive_scan_oracle(cfg, goal, 1e-4) is None
        out = synthesize_min_attack(cfg, goal)
        assert out.status is FeasibilityStatus.NO_ATTACK_EXISTS

    def test_case_study_minimum_trips_lowest_relay(self):
        cfg = study_config(kappa=60.0)
        out = synthesize_min_attack(cfg, AttackGoal(horizon=12))
        assert out.success
        v = out.vector
        assert v.dp_a <= 0.322
        assert v.outcome.relay_id == "g4"
        assert v.outcome.kind is EventKind.ROCOF_TRIP
        # the most sensitive relay operates first; the lost generation then
        # steepens the fall and cascades the higher settings
        trips = [e for e in v.trace.events if e.kind is EventKind.ROCOF_TRIP]
        assert trips[0].relay_id == "g4"
        assert trips[0].step < min((e.step for e in trips[1:]), default=10**9)

    def test_agrees_with_exhaustive_oracle(self):
        rng = random.Random(42)
        checked = 0
        for _ in range(10):
            cfg = random_small_config(rng)
            goal = AttackGoal(horizon=60)
            tol = 1e-3
            oracle = exhaustive_scan_oracle(cfg, goal, tol)
            out = synthesize_min_attack(cfg, goal, tolerance=tol)
            if oracle is None:
                assert not out.success
            else:
                assert out.success
                assert abs(out.vector.dp_a - oracle) <= tol + 1e-12
                checked += 1
        assert checked >= 3  # the draw must exercise feasible instances

    def test_capability_respected(self):
        rng = random.Random(5)
        for _ in range(10):
            cfg = random_small_config(rng)
            out = synthesize_min_attack(cfg, AttackGoal(horizon=40),
                                        tolerance=1e-3)
            if out.success:
                assert abs(out.vector.dp_a) <= \
                    capability_bound(cfg.capability) + 1e-12

    def test_certificate_replays_identically(self):
        cfg = study_config(kappa=60.0)
        out = synthesize_min_attack(cfg, AttackGoal(horizon=12))
        replay = feasibility(cfg, out.vector.dp_a, AttackGoal(horizon=12))
        assert replay.success
        assert replay.vector.outcome == out.vector.outcome
        # repr compares every field of every record, bit for bit
        assert repr(replay.vector.trace.records) == \
            repr(out.vector.trace.records)

    def test_either_sign_tie_breaks_positive(self):
        # loads unreachable, single symmetric ROCOF relay: both directions
        # have identical minimal magnitude
        gens = (GeneratorRelay("g", "b", 1.0, 0.5),)
        loads = (LoadRelay("l", "b", 0.5, 1e-9),)
        cfg = study_config(kappa=60.0, generators=gens, loads=loads)
        for target in (TargetKind.ANY, TargetKind.ROCOF_ONLY):
            goal = AttackGoal(horizon=12, target_kind=target, sign=Sign.EITHER)
            for out in (synthesize_min_attack(cfg, goal),
                        exhaustive_min_attack(cfg, goal)):
                assert out.success and out.vector.dp_a > 0

    def test_negative_sign_searches_over_frequency(self):
        gens = (GeneratorRelay("g", "b", 1.0, 0.5),)
        loads = (LoadRelay("l", "b", 0.5, 1e-9),)
        cfg = study_config(kappa=60.0, generators=gens, loads=loads)
        out = synthesize_min_attack(
            cfg, AttackGoal(horizon=12, sign=Sign.NEGATIVE))
        assert out.success and out.vector.dp_a < 0

    def test_nonmonotone_instance_answered_exactly(self):
        # the feasible set is [0.008992, 0.056269] and [0.200296, 0.35]
        cfg = nonmonotone_config()
        goal = AttackGoal(horizon=600, target_kind=TargetKind.ROCOF_ONLY)
        out = synthesize_min_attack(cfg, goal)
        assert out.success and out.vector.dp_a == 0.00899189181221
        assert_exact_minimum(cfg, goal, out, resolution=1e-3)

    def test_gap_narrower_than_the_probe_is_answered_exactly(self):
        # shedding lA near the horizon makes a rebound steep enough to trip
        # gA at step 60 on about [0.01482, 0.01490] and again from about
        # 0.01498; the 17-point probe (spacing 0.002) sees an up-set
        cfg = validate_config(GridConfig(
            GridParams(h_inertia=0.5946544920385339,
                       droop_r=0.7303595585743459,
                       governor_t=0.6441702874234793),
            (GeneratorRelay("gA", "b1", 0.6746155477314216, 0.9815112915367007),
             GeneratorRelay("gB", "b2", 1.005844243656564, 1.0845440462506284)),
            (LoadRelay("lA", "b3", 0.3298253477018722, 59.40300825133899),),
            AttackerCapability(toi=0.07235790415689941,
                               ad=0.42829947024744847, der_total=1.5,
                               kappa=0.684839101903469),
        ))
        goal = AttackGoal(horizon=60, target_kind=TargetKind.SPECIFIC,
                          specific_relay_id="gA")
        assert probe_monotonicity(cfg, goal).monotone
        out = synthesize_min_attack(cfg, goal)
        assert out.success and out.vector.dp_a == 0.0148150418517
        assert_exact_minimum(cfg, goal, out, resolution=1e-4)

    def test_tolerance_precondition(self):
        with pytest.raises(ValueError):
            synthesize_min_attack(study_config(), AttackGoal(horizon=12),
                                  tolerance=0.0)

    @pytest.mark.parametrize("tolerance", [-1e-4, math.nan, math.inf])
    @pytest.mark.parametrize("target", [TargetKind.ANY, TargetKind.ROCOF_ONLY])
    def test_tolerance_must_be_finite_and_positive(self, tolerance, target):
        with pytest.raises(ValueError):
            synthesize_min_attack(
                study_config(), AttackGoal(horizon=12, target_kind=target),
                tolerance=tolerance)


CLOSED_FORM_CASES = list(itertools.product(
    Sign, (0, 5),
    (SimOptions(), SimOptions(literal_accumulation=True),
     SimOptions(literal_signs=True), SimOptions(rescale_inertia=True)),
))


class TestClosedFormAny:
    @pytest.mark.parametrize("case", range(len(CLOSED_FORM_CASES)))
    def test_exact_and_within_one_scan_step(self, case):
        sign, attack_step, options = CLOSED_FORM_CASES[case]
        goal = AttackGoal(horizon=60, sign=sign, attack_step=attack_step)
        rng = random.Random(1000 + case)
        # draw until a grid admits an attack; every refusal on the way must
        # be confirmed by a failing replay at the capability bound
        for _ in range(100):
            cfg = random_small_config(rng)
            out = synthesize_min_attack(cfg, goal, options=options)
            if out.success:
                break
            bound = capability_bound(cfg.capability)
            for direction in goal.directions():
                assert not feasibility(cfg, direction * bound, goal,
                                       options).success
        else:
            pytest.fail("no grid in 100 draws admits an attack")
        dp_a = out.vector.dp_a
        replay = feasibility(cfg, dp_a, goal, options)
        assert replay.success and replay.vector.outcome == out.vector.outcome
        for direction in goal.directions():
            below = direction * 0.999999 * abs(dp_a)
            assert not feasibility(cfg, below, goal, options).success
        scan = exhaustive_min_attack(cfg, goal, resolution=1e-4, options=options)
        assert abs(dp_a) <= abs(scan.vector.dp_a) < abs(dp_a) + 1e-4
        assert float(format(dp_a, ".12g")) == dp_a

    def test_unit_response_matches_the_reference_recursion(self):
        rng = random.Random(808)
        for _ in range(150):
            base = random_small_config(rng)
            params = GridParams(
                h_inertia=rng.uniform(1.0, 10.0),
                droop_r=rng.uniform(0.2, 1.0),
                governor_t=rng.uniform(0.2, 1.0),
                dt=rng.choice((1.0 / 60.0, 0.02, 0.01)),
                rocof_window_m=rng.randint(1, 12))
            cfg = GridConfig(params, base.generators, base.loads,
                             base.capability)
            m = params.rocof_window_m
            goal = AttackGoal(horizon=rng.randint(m, 200),
                              attack_step=rng.randint(0, 30))
            got = frosim.synth._unit_response(cfg, goal)
            # repr tells -0.0 from 0.0, which == does not
            assert repr(got) == repr(reference_unit_response(cfg, goal))

    def _answer(self, sign=Sign.EITHER):
        cfg = study_config(kappa=60.0)
        goal = AttackGoal(horizon=12, sign=sign)
        out = synthesize_min_attack(cfg, goal)
        assert out.success
        return cfg, goal, out.vector.dp_a

    @pytest.mark.parametrize("scale", [0.0, 1.0 - 1e-9])
    def test_bound_below_minimum_is_no_attack(self, scale):
        cfg, goal, dp_a = self._answer()
        bound = capability_bound(cfg.capability)
        capped = with_capability(
            cfg, kappa=cfg.capability.kappa * scale * abs(dp_a) / bound)
        assert capability_bound(capped.capability) < abs(dp_a)
        out = synthesize_min_attack(capped, goal)
        assert out.status is FeasibilityStatus.NO_ATTACK_EXISTS
        bound = capability_bound(capped.capability)
        for direction in goal.directions():
            assert not feasibility(capped, direction * bound, goal).success

    def test_one_replay_on_success(self, monkeypatch):
        replays = count_full_replays(monkeypatch)
        cfg, goal, dp_a = self._answer()
        assert replays == [dp_a]

    def test_low_start_climbs_back_to_the_same_answer(self, monkeypatch):
        # a start below the simulator's boundary (here forced far lower than
        # rounding could put it) must climb and bisect back to the smallest
        # record decimal that replays
        cfg, goal, dp_a = self._answer(Sign.POSITIVE)
        real = frosim.synth._closed_form_minima
        monkeypatch.setattr(
            frosim.synth, "_closed_form_minima",
            lambda *a: {d: x * (1 - 1e-6) for d, x in real(*a).items()})
        out = synthesize_min_attack(cfg, goal)
        assert out.success and out.vector.dp_a == dp_a


def _answer(out):
    """What an answer is, trace included, for comparing two syntheses."""
    if not out.success:
        return out.status
    v = out.vector
    return repr(v.dp_a), v.outcome, repr(v.trace.records)


GOALS_PER_TARGET = [
    AttackGoal(horizon=60, target_kind=target, sign=Sign.EITHER,
               specific_relay_id="g5" if target is TargetKind.SPECIFIC
               else None)
    for target in TargetKind
]


class TestGridConstants:
    """Synthesis reads the kernel's step constants, kept per params."""

    NAN_GENERATOR = GeneratorRelay("gN", "bN", 1.0, math.nan)
    NAN_LOAD = LoadRelay("lN", "bN", 0.5, math.nan)

    @pytest.mark.parametrize("goal", GOALS_PER_TARGET,
                             ids=[t.value for t in TargetKind])
    def test_nan_threshold_relay_changes_no_answer(self, goal):
        # a NaN threshold meets no comparison, so its relay never operates,
        # wherever the roster lists it; validation would reject the grid
        params = GridParams(h_inertia=2.0, droop_r=0.2, governor_t=0.2)
        cap = AttackerCapability(toi=0.02, ad=0.2, der_total=1.5, kappa=60.0)

        def answer(generators, loads):
            return _answer(synthesize_min_attack(
                GridConfig(params, generators, loads, cap), goal))

        expected = answer(C1_GENERATORS, C1_LOADS)
        gen, load = (self.NAN_GENERATOR,), (self.NAN_LOAD,)
        for generators, loads in [
                (gen + C1_GENERATORS, C1_LOADS), (C1_GENERATORS + gen, C1_LOADS),
                (C1_GENERATORS, load + C1_LOADS), (C1_GENERATORS, C1_LOADS + load)]:
            assert answer(generators, loads) == expected
        if goal.target_kind is TargetKind.ANY:
            assert expected[0] == "0.0335807781047"

    def test_configs_sharing_params_keep_their_own_constants(self,
                                                             monkeypatch):
        # the ANY goal's relay-free unit response replaces the constants kept
        # on the shared params between calls
        params = GridParams(h_inertia=2.0, droop_r=0.2, governor_t=0.2)
        cap = AttackerCapability(toi=0.02, ad=0.2, der_total=1.5, kappa=60.0)
        rosters = [
            (C1_GENERATORS, C1_LOADS),
            ((GeneratorRelay("g4", "bus4", 0.5, 0.9),
              GeneratorRelay("g5", "bus5", 1.5, 0.7)),
             (LoadRelay("l1", "bus1", 1.0, 59.7),)),
        ]
        goals = [AttackGoal(horizon=60, target_kind=target, sign=Sign.EITHER)
                 for target in (TargetKind.ANY, TargetKind.ROCOF_ONLY)]
        fresh = {
            (i, goal): _answer(synthesize_min_attack(GridConfig(
                dataclasses.replace(params), *roster, cap), goal))
            for i, roster in enumerate(rosters) for goal in goals}
        assert fresh[0, goals[0]] != fresh[1, goals[0]]
        assert fresh[0, goals[1]] != fresh[1, goals[1]]
        builds = []
        build = frosim.dynamics._build_step_constants

        def counted(params, generators, loads):
            builds.append((generators, loads))
            return build(params, generators, loads)

        monkeypatch.setattr(frosim.dynamics, "_build_step_constants", counted)
        shared = [GridConfig(params, *roster, cap) for roster in rosters]
        for goal, i in itertools.product(goals + goals[::-1], (0, 1, 0)):
            assert _answer(synthesize_min_attack(shared[i], goal)) == fresh[i, goal]
        # each config builds once and then reads the constants kept on it
        assert sorted(map(builds.count, rosters)) == [1, 1]


class TestExhaustiveMinAttack:
    def test_handles_nonmonotone_instance(self):
        cfg = nonmonotone_config()
        goal = AttackGoal(horizon=600, target_kind=TargetKind.ROCOF_ONLY)
        out = exhaustive_min_attack(cfg, goal, resolution=1e-3)
        assert out.success
        # the low-injection rebound window starts near 0.009
        assert out.vector.dp_a < 0.02
        replay = feasibility(cfg, out.vector.dp_a, goal)
        assert replay.vector.outcome == out.vector.outcome

    @pytest.mark.parametrize("resolution", [0.0, -1e-3, math.nan, math.inf])
    def test_resolution_precondition(self, resolution):
        with pytest.raises(ValueError):
            exhaustive_min_attack(study_config(), AttackGoal(horizon=12),
                                  resolution=resolution)

    def test_matches_oracle_on_monotone_instance(self):
        cfg = study_config(kappa=60.0)
        goal = AttackGoal(horizon=12)
        oracle = exhaustive_scan_oracle(cfg, goal, 1e-3)
        out = exhaustive_min_attack(cfg, goal, resolution=1e-3)
        assert out.vector.dp_a == pytest.approx(oracle, abs=1e-12)


def count_full_replays(monkeypatch):
    """The magnitudes of every :func:`feasibility` replay synthesis runs
    from now on, in order."""
    calls = []
    real = frosim.synth.feasibility

    def counted(config, dp_a, goal, options=SimOptions()):
        calls.append(dp_a)
        return real(config, dp_a, goal, options)

    monkeypatch.setattr(frosim.synth, "feasibility", counted)
    return calls


class TestOneFullReplayPerAnswer:
    """Searches decide on verdicts; only the answer is replayed in full."""

    @pytest.mark.parametrize("sign", list(Sign))
    @pytest.mark.parametrize("target", list(TargetKind))
    def test_each_search_certifies_its_answer_once(self, monkeypatch, target,
                                                   sign):
        cfg = study_config(kappa=60.0)
        goal = AttackGoal(horizon=60, target_kind=target, sign=sign,
                          specific_relay_id=(
                              "g5" if target is TargetKind.SPECIFIC else None))
        calls = count_full_replays(monkeypatch)
        exact = synthesize_min_attack(cfg, goal)
        assert exact.success and calls == [exact.vector.dp_a]
        del calls[:]
        scan = exhaustive_min_attack(cfg, goal, resolution=1e-3)
        assert scan.success and calls == [scan.vector.dp_a]

    @pytest.mark.parametrize("target", [TargetKind.ANY, TargetKind.LS_ONLY])
    def test_no_attack_replays_nothing_in_full(self, monkeypatch, target):
        goal = AttackGoal(horizon=60, target_kind=target, sign=Sign.EITHER)
        capped = study_config(kappa=60.0 * 0.03 / 0.36)  # bound 0.03
        calls = count_full_replays(monkeypatch)
        assert not synthesize_min_attack(capped, goal).success
        assert not exhaustive_min_attack(capped, goal, resolution=1e-3).success
        assert calls == []

    @pytest.mark.parametrize("target", [TargetKind.ANY, TargetKind.LS_ONLY])
    def test_shared_memo_keeps_verdicts_and_one_certificate_per_answer(
            self, monkeypatch, target):
        goal = AttackGoal(horizon=60, target_kind=target, sign=Sign.EITHER)
        calls = count_full_replays(monkeypatch)
        replays: dict = {}
        answers = []
        # bounds 0.018 and 0.03 lie below the answer, the others above
        for kappa in (3.0, 5.0, 60.0, 10.0, 30.0, 60.0):
            out = synthesize_min_attack(study_config(kappa=kappa), goal,
                                        _replays=replays)
            answers.append(out.success and out.vector.dp_a)
        assert answers[:2] == [False, False] and len(set(answers[2:])) == 1
        assert calls == answers[2:3]
        verdicts = [v for k, v in replays.items() if k[0] == "verdict"]
        certificates = [v for v in replays.values()
                        if isinstance(v, FeasibilityOutcome)]
        assert len(verdicts) > 1 and all(type(v) is bool for v in verdicts)
        assert [c.vector.dp_a for c in certificates] == answers[2:3]
        assert len(verdicts) + len(certificates) + sum(
            k == "starts" or k[0] == "intervals" for k in replays) == len(replays)


class TestBackendAgreement:
    def test_search_and_exhaustive_agree_on_verdicts(self):
        rng = random.Random(99)
        agree = 0
        for _ in range(8):
            cfg = random_small_config(rng)
            goal = AttackGoal(horizon=40)
            tol = 2e-3
            a = synthesize_min_attack(cfg, goal, tolerance=tol)
            b = exhaustive_min_attack(cfg, goal, resolution=tol)
            assert a.success == b.success
            if a.success:
                assert abs(a.vector.dp_a - b.vector.dp_a) <= tol + 1e-12
            agree += 1
        assert agree >= 5


ALL_OPTIONS = [SimOptions(*flags)
               for flags in itertools.product((False, True), repeat=3)]
INTERVAL_CASES = list(itertools.product(
    range(len(ALL_OPTIONS)),
    (TargetKind.ROCOF_ONLY, TargetKind.LS_ONLY, TargetKind.SPECIFIC),
    Sign, (0, 3),
))


class TestIntervalPass:
    @pytest.mark.parametrize("case", range(len(INTERVAL_CASES)))
    def test_exact_against_the_scan(self, case):
        option, target, sign, attack_step = INTERVAL_CASES[case]
        options = ALL_OPTIONS[option]
        rng = random.Random(2000 + case)
        # draw until a grid admits an attack; every refusal on the way must
        # be confirmed by a failing replay at the capability bound
        for _ in range(100):
            cfg = random_small_config(rng)
            relay_id = rng.choice(["gA", "gB", "lA"])
            goal = AttackGoal(
                horizon=60, target_kind=target, sign=sign,
                attack_step=attack_step,
                specific_relay_id=relay_id if target is TargetKind.SPECIFIC
                else None)
            out = synthesize_min_attack(cfg, goal, options=options)
            if out.success:
                break
            bound = capability_bound(cfg.capability)
            for direction in goal.directions():
                assert not feasibility(cfg, direction * bound, goal,
                                       options).success
        else:
            pytest.fail("no grid in 100 draws admits an attack")
        assert_exact_minimum(cfg, goal, out, resolution=1e-3, options=options)

    @pytest.mark.parametrize("option", range(len(ALL_OPTIONS)))
    def test_intervals_agree_with_replays(self, option):
        # the whole feasible set, not only its minimum, on grids whose reach
        # (ten times the usual) lets several relays operate in turn: each
        # interval end is a boundary of the replayed feasible set, and the
        # middle of each interval and of each gap replays as the pass says
        options = ALL_OPTIONS[option]
        rng = random.Random(3000 + option)
        goals = [AttackGoal(horizon=60, target_kind=TargetKind.ROCOF_ONLY),
                 AttackGoal(horizon=60, target_kind=TargetKind.LS_ONLY)] + [
            AttackGoal(horizon=60, target_kind=TargetKind.SPECIFIC,
                       specific_relay_id=relay) for relay in ("gA", "gB")]
        ends = 0
        for _ in range(16):
            cfg = random_small_config(rng)
            cfg = validate_config(with_capability(
                cfg, kappa=10 * cfg.capability.kappa))
            bound = capability_bound(cfg.capability)
            for goal, direction in itertools.product(goals, (1, -1)):
                intervals, _ = frosim.synth._feasible_intervals(
                    cfg, goal, direction, options)

                def replays(x):
                    return frosim.synth._is_feasible(
                        cfg, direction * x, goal, options)

                edges = [0.0, *(end for iv in intervals for end in iv), bound]
                for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
                    if lo < hi:  # a gap of width 0 at either end of [0, bound]
                        assert replays(0.5 * (lo + hi)) == (i % 2 == 1)
                for lo, hi in intervals:
                    for end, inward in ((lo, 1), (hi, -1)):
                        if 0 < end < bound:
                            assert replays(end + inward * 1e-9 * end)
                            assert not replays(end - inward * 1e-9 * end)
                            ends += 1
        assert ends >= 64

    @pytest.mark.parametrize("case", ["shed", "trip"])
    def test_latched_relays_still_cut_under_accumulation(self, case):
        # with literal accumulation a latched relay re-adds its block while
        # its condition holds, so where that condition changes truth on a
        # piece matters as much as for an unlatched relay: here how often l
        # re-sheds (or gB re-trips) decides which magnitudes trip g (gA)
        # later; a dense replay scan of the window checks every part
        options = SimOptions(literal_accumulation=True)
        if case == "shed":
            cfg = nonmonotone_config()
            goal = AttackGoal(horizon=60, target_kind=TargetKind.ROCOF_ONLY)
            window = (0.13, 0.17, 1e-4)
        else:
            cfg = random_small_config(random.Random(360))
            cfg = validate_config(with_capability(
                cfg, kappa=10 * cfg.capability.kappa))
            goal = AttackGoal(horizon=60, target_kind=TargetKind.SPECIFIC,
                              specific_relay_id="gA")
            window = (0.0443, 0.0449, 1e-6)
        intervals, _ = frosim.synth._feasible_intervals(cfg, goal, 1, options)
        lo, hi, step = window
        assert sum(lo < a < hi or lo < b < hi for a, b in intervals) >= 2
        for k in range(round((hi - lo) / step) + 1):
            x = lo + k * step
            if any(abs(x - end) < 1e-9 for iv in intervals for end in iv):
                continue
            inside = any(a <= x <= b for a, b in intervals)
            assert frosim.synth._is_feasible(cfg, x, goal, options) == inside, x

    @pytest.mark.parametrize("factor", [1 + 5e-12, 1 - 1e-6])
    def test_misplaced_start_walks_back_to_the_same_answer(
            self, monkeypatch, factor):
        # a start some record decimals too high must step down, and one too
        # low (here far lower than a cut point's rounding could put it) must
        # climb and bisect back, to the smallest record decimal that replays
        cfg = study_config(kappa=60.0)
        goal = AttackGoal(horizon=12, target_kind=TargetKind.LS_ONLY)
        exact = synthesize_min_attack(cfg, goal).vector.dp_a
        real = frosim.synth._feasible_intervals

        def misplaced(*args):
            intervals, peak = real(*args)
            return [(lo * factor, hi) for lo, hi in intervals], peak

        monkeypatch.setattr(frosim.synth, "_feasible_intervals", misplaced)
        assert synthesize_min_attack(cfg, goal).vector.dp_a == exact

    def test_one_debug_line_per_answer(self, caplog, monkeypatch):
        cfg = study_config(kappa=60.0)
        rocof = AttackGoal(horizon=12, target_kind=TargetKind.ROCOF_ONLY,
                           sign=Sign.EITHER)
        caplog.set_level(logging.DEBUG, logger="frosim")
        answers = [synthesize_min_attack(cfg, rocof),
                   synthesize_min_attack(cfg, AttackGoal(horizon=12)),
                   exhaustive_min_attack(cfg, rocof, resolution=1e-3)]
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "frosim.synth"]
        assert len(lines) == 3
        interval, closed, scan = lines
        assert "by interval pass, +1: feasible [(" in interval
        assert "-1: feasible [(" in interval and "peak 1 live pieces" in interval
        # each direction is certified from one record decimal below its
        # rounded-up start, which fails, then at the start; the directions'
        # starts tie, so the negative one could still step below the
        # positive answer and is certified too
        assert "certify replays 4, step-down replays 0" in interval
        assert repr(answers[0].vector.dp_a) in interval
        assert "by closed-form starts +1:" in closed
        assert "certify replays 1, step-down replays 0" in closed
        assert "by exhaustive scan at 0.001; scan replays " in scan
        assert repr(answers[2].vector.dp_a) in scan

        # at the default level no line is built
        caplog.clear()
        caplog.set_level(logging.WARNING, logger="frosim")
        monkeypatch.setattr(frosim.synth, "_describe", None)
        again = [synthesize_min_attack(cfg, rocof),
                 exhaustive_min_attack(cfg, rocof, resolution=1e-3)]
        assert [a.vector.dp_a for a in again] == [
            answers[0].vector.dp_a, answers[2].vector.dp_a]
        assert not caplog.records

    def test_feasible_intervals_of_the_holey_grid(self):
        cfg = nonmonotone_config()
        goal = AttackGoal(horizon=600, target_kind=TargetKind.ROCOF_ONLY)
        intervals, peak = frosim.synth._feasible_intervals(
            cfg, goal, 1, SimOptions())
        assert [(round(lo, 6), round(hi, 6)) for lo, hi in intervals] == [
            (0.008992, 0.056269), (0.200296, 0.35)]
        assert 1 < peak < 100
        for lo, hi in intervals:
            assert feasibility(cfg, 0.5 * (lo + hi), goal).success
        for gap in (0.004, 0.1, 0.15):
            assert not feasibility(cfg, gap, goal).success
