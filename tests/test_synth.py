"""Attack synthesis: feasibility oracle, probing, the interval pass for
every goal, certify walks, exhaustive scan."""

import itertools
import logging
import math
import random
import re
from decimal import ROUND_CEILING, Context, Decimal

import pytest

import frosim.dynamics
import frosim.synth
from frosim import (
    AttackerCapability,
    AttackGoal,
    AttackSignal,
    CapabilityExceeded,
    EventKind,
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
    probe_monotonicity,
    synthesize_min_attack,
    validate_config,
    with_capability,
)
from conftest import (C1_GENERATORS, C1_LOADS, random_small_config,
                      relays_disabled_config, study_config, wide_roster_config)
from reference import frequency_step, governor_step, smallest_feasible_start


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
    recursions, steps 0..horizon; the ``delta_f`` of a relay-free
    :func:`frosim.dynamics.simulate` must equal it bit for bit."""
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
        assert not out.success
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

    @pytest.mark.parametrize("samples", [4, 7, 13])
    def test_last_sample_is_the_bound(self, samples):
        # 0.36 * (samples - 1) / (samples - 1) rounds above 0.36, and a
        # replay above the bound raises CapabilityExceeded
        cfg = study_config(kappa=60.0)
        bound = capability_bound(cfg.capability)
        probe = probe_monotonicity(cfg, AttackGoal(horizon=12),
                                   samples=samples).directions[1]
        assert probe.magnitudes[-1] == bound and probe.feasible[-1]

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
        assert not out.success

    def test_unreachable_goal_is_no_attack(self):
        # high inertia and a tiny capability: nothing in range sheds load
        cfg = study_config(h=10.0)  # bound 0.006
        goal = AttackGoal(horizon=60, target_kind=TargetKind.LS_ONLY)
        assert exhaustive_scan_oracle(cfg, goal, 1e-4) is None
        out = synthesize_min_attack(cfg, goal)
        assert not out.success

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


ANY_CASES = list(itertools.product(
    Sign, (0, 5),
    (SimOptions(), SimOptions(literal_accumulation=True),
     SimOptions(literal_signs=True), SimOptions(rescale_inertia=True)),
))


class TestAnyGoal:
    """The ``ANY`` goal, whose start comes from the interval pass as every
    other goal's does."""

    @pytest.mark.parametrize("case", range(len(ANY_CASES)))
    def test_exact_and_within_one_scan_step(self, case):
        sign, attack_step, options = ANY_CASES[case]
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

    def test_relay_free_response_matches_the_reference_recursion(self):
        rng = random.Random(808)
        for _ in range(150):
            base = random_small_config(rng)
            params = GridParams(
                h_inertia=rng.uniform(1.0, 10.0),
                droop_r=rng.uniform(0.2, 1.0),
                governor_t=rng.uniform(0.2, 1.0),
                dt=rng.choice((1.0 / 60.0, 0.02, 0.01)),
                rocof_window_m=rng.randint(1, 12))
            cfg = GridConfig(params, (), (), base.capability)
            m = params.rocof_window_m
            goal = AttackGoal(horizon=rng.randint(m, 200),
                              attack_step=rng.randint(0, 30))
            trace = frosim.dynamics.simulate(
                cfg, AttackSignal(1.0, goal.attack_step), goal.horizon)
            got = [record.delta_f for record in trace.records]
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
        assert not out.success
        bound = capability_bound(capped.capability)
        for direction in goal.directions():
            assert not feasibility(capped, direction * bound, goal).success

    def test_one_replay_on_success(self, monkeypatch):
        # the rounded-up start replays at once, and the record decimal below
        # it fails
        replays = count_replays(monkeypatch)
        cfg, goal, dp_a = self._answer(Sign.POSITIVE)
        lower = float(Context(prec=12).next_minus(Decimal(repr(dp_a))))
        assert [(x, out.success) for x, out in replays] == [
            (dp_a, True), (lower, False)]

    def test_low_start_climbs_back_to_the_same_answer(self, monkeypatch):
        # a start below the simulator's boundary (here forced far lower than
        # rounding could put it) must climb and bisect back to the smallest
        # record decimal that replays
        cfg, goal, dp_a = self._answer(Sign.POSITIVE)
        real = frosim.synth._smallest_feasible_start

        def low(*args):
            start, peak = real(*args)
            return start * (1 - 1e-6), peak

        monkeypatch.setattr(frosim.synth, "_smallest_feasible_start", low)
        out = synthesize_min_attack(cfg, goal)
        assert out.success and out.vector.dp_a == dp_a

    def test_a_replay_one_record_decimal_below_fails(self):
        # the kernel's own boundary lies a few ulps below the pass's start
        # here, so the rounded-up start is one decimal too high
        cfg = validate_config(GridConfig(
            GridParams(3.491897525014603, 0.2948836201927981,
                       0.9674008806010068),
            (GeneratorRelay("gA", "b1", 1.3495631760681355, 1.190130054805705),
             GeneratorRelay("gB", "b2", 0.5000093085093719,
                            0.6751517849079828)),
            (LoadRelay("lA", "b3", 0.8750795189555645, 59.304782247918695),),
            AttackerCapability(0.09292655599433455, 0.9323255238417911, 1.5,
                               0.4571905703996091)))
        goal = AttackGoal(horizon=120, sign=Sign.EITHER)
        out = synthesize_min_attack(cfg, goal)
        assert out.success and out.vector.dp_a == 0.0503416754041
        below = float(Context(prec=12).next_minus(Decimal("0.0503416754041")))
        for direction in goal.directions():
            assert not feasibility(cfg, direction * below, goal).success


def _answer(out):
    """What an answer is, trace included, for comparing two syntheses."""
    if not out.success:
        return None
    v = out.vector
    return repr(v.dp_a), v.outcome, repr(v.trace.records)


GOALS_PER_TARGET = [
    AttackGoal(horizon=60, target_kind=target, sign=Sign.EITHER,
               specific_relay_id="g5" if target is TargetKind.SPECIFIC
               else None)
    for target in TargetKind
]


class TestGridConstants:
    """Synthesis reads the kernel's step constants, kept per config."""

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
        # configs share the params, as does the ANY goal's relay-free unit
        # response between calls, but each steps with its own rosters
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
                params._replace(), *roster, cap), goal))
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


def count_replays(monkeypatch):
    """Every :func:`feasibility` replay synthesis runs from now on, in
    order, as ``(dp_a, outcome)``."""
    calls = []
    real = frosim.synth.feasibility

    def counted(config, dp_a, goal, options=SimOptions()):
        outcome = real(config, dp_a, goal, options)
        calls.append((dp_a, outcome))
        return outcome

    monkeypatch.setattr(frosim.synth, "feasibility", counted)
    return calls


def replayed_once(calls) -> bool:
    """Whether no signed magnitude among *calls* was replayed twice."""
    magnitudes = [repr(dp_a) for dp_a, _ in calls]
    return len(set(magnitudes)) == len(magnitudes)


class TestOneReplayPerMagnitude:
    """Every search replay is a :func:`feasibility` replay, no magnitude is
    replayed twice, and the answer is the search's own replay of it."""

    @pytest.mark.parametrize("sign", list(Sign))
    @pytest.mark.parametrize("target", list(TargetKind))
    def test_answer_is_the_search_replay_of_it(self, monkeypatch, target,
                                               sign):
        cfg = study_config(kappa=60.0)
        goal = AttackGoal(horizon=60, target_kind=target, sign=sign,
                          specific_relay_id=(
                              "g5" if target is TargetKind.SPECIFIC else None))
        calls = count_replays(monkeypatch)
        for search in (lambda: synthesize_min_attack(cfg, goal),
                       lambda: exhaustive_min_attack(cfg, goal,
                                                     resolution=1e-3)):
            del calls[:]
            out = search()
            assert out.success and replayed_once(calls)
            assert [x for x, o in calls if o is out] == [out.vector.dp_a]

    @pytest.mark.parametrize("target", [TargetKind.ANY, TargetKind.LS_ONLY])
    def test_failing_replays_share_the_no_attack_outcome(self, monkeypatch,
                                                         target):
        goal = AttackGoal(horizon=60, target_kind=target, sign=Sign.EITHER)
        capped = study_config(kappa=60.0 * 0.03 / 0.36)  # bound 0.03
        calls = count_replays(monkeypatch)
        exact = synthesize_min_attack(capped, goal)
        scan = exhaustive_min_attack(capped, goal, resolution=1e-3)
        assert not exact.success
        # no failing replay builds a trace or an outcome of its own
        assert calls and all(out is exact for _, out in calls)
        assert scan is exact

    @pytest.mark.parametrize("target", [TargetKind.ANY, TargetKind.LS_ONLY])
    def test_a_group_call_replays_each_magnitude_once(self, monkeypatch,
                                                      target):
        goal = AttackGoal(horizon=60, target_kind=target, sign=Sign.EITHER)
        # bounds 0.018 and 0.03 lie below the answer, the others above
        bounds = [capability_bound(study_config(kappa=kappa).capability)
                  for kappa in (3.0, 5.0, 60.0, 10.0, 30.0, 60.0)]
        calls = count_replays(monkeypatch)
        outcomes = frosim.synth._min_attacks(study_config(kappa=60.0), goal,
                                             bounds, SimOptions())
        assert [out.success for out in outcomes] == [False] * 2 + [True] * 4
        assert all(out is outcomes[2] for out in outcomes[2:])
        assert len(calls) > 1 and replayed_once(calls)
        # the answer is the call's own replay of it
        assert [x for x, out in calls if out is outcomes[2]] == [
            outcomes[2].vector.dp_a]


class TestBackendAgreement:
    def test_search_and_exhaustive_agree_on_verdicts(self):
        rng = random.Random(99)
        verdicts = set()
        for _ in range(8):
            cfg = random_small_config(rng)
            goal = AttackGoal(horizon=40)
            tol = 2e-3
            a = synthesize_min_attack(cfg, goal, tolerance=tol)
            b = exhaustive_min_attack(cfg, goal, resolution=tol)
            assert a.success == b.success
            if a.success:
                assert abs(a.vector.dp_a - b.vector.dp_a) <= tol + 1e-12
            verdicts.add(a.success)
        # both verdicts occur, so each agreement is checked
        assert verdicts == {True, False}


ALL_OPTIONS = [SimOptions(*flags)
               for flags in itertools.product((False, True), repeat=3)]
INTERVAL_CASES = list(itertools.product(
    range(len(ALL_OPTIONS)),
    (TargetKind.ROCOF_ONLY, TargetKind.LS_ONLY, TargetKind.SPECIFIC),
    Sign, (0, 3),
))


def with_bound(config, bound):
    """*config* with capability bound *bound* exactly."""
    return with_capability(config, toi=1.0, ad=1.0, der_total=1.0,
                           kappa=bound)


def group_answers(config, goal, bounds, options=SimOptions()):
    """The outcomes of one group call for *bounds*, on *config* with the
    largest of them as its capability bound."""
    return frosim.synth._min_attacks(with_bound(config, max(bounds)), goal,
                                     list(bounds), options)


def lone_answer(config, goal, bound, options=SimOptions()):
    return synthesize_min_attack(with_bound(config, bound), goal,
                                 options=options)


def assert_lone_answers(config, goal, bounds, outcomes, options=SimOptions()):
    """Each outcome is, by ``repr``, the lone call's under its bound."""
    assert [repr(out) for out in outcomes] == [
        repr(lone_answer(config, goal, bound, options)) for bound in bounds]


class TestAnyGroupBracket:
    """The bounds of one ``ANY`` group call share what its pass and walks
    proved: a bound far below the pass's start replays nothing, as for
    every goal, and a bound at or above an answer walks over replays the
    call already holds."""

    goal = AttackGoal(horizon=12, sign=Sign.EITHER)

    def test_a_bound_at_or_below_a_failure_replays_nothing(self,
                                                           monkeypatch):
        # 0.03 lies below the answer, 0.0335807781047, so the pass over it
        # finds no start: 0.03 is the pass's bound and is replayed, and
        # every bound below it, zeros of both signs included, replays
        # nothing
        cfg = study_config(kappa=60.0)
        bounds = (0.0, 0.02, 0.03, -0.0, 1e-9, 0.03)
        calls = count_replays(monkeypatch)
        outcomes = group_answers(cfg, self.goal, bounds)
        assert sorted(x for x, _ in calls) == [-0.03, 0.03]
        assert not any(out.success for out in outcomes)
        assert_lone_answers(cfg, self.goal, bounds, outcomes)

    def test_a_bound_at_or_above_the_answer_takes_its_outcome(self,
                                                              monkeypatch):
        # the float of the answer lies just below it and walks, but its
        # replay is the answer's; one ulp and a fraction of a record unit
        # above the answer, and bounds far above, take the answer with no
        # replay beyond the largest bound's
        cfg = study_config(kappa=60.0)
        answer = Decimal("0.0335807781047")
        bounds = (0.06, float(answer), 5.0,
                  math.nextafter(float(answer), 1.0),
                  float(answer) * (1 + 1e-14), 0.36, 5.0)
        assert [Decimal(bound) >= answer for bound in bounds] == (
            [True, False] + [True] * 5)
        calls = count_replays(monkeypatch)
        outcomes = group_answers(cfg, self.goal, bounds)
        replayed = sorted(x for x, _ in calls)
        del calls[:]
        lone_answer(cfg, self.goal, 5.0)
        assert replayed == sorted(x for x, _ in calls)
        assert Decimal(repr(outcomes[0].vector.dp_a)) == answer
        assert all(out is outcomes[0] for out in outcomes)
        assert_lone_answers(cfg, self.goal, bounds, outcomes)

    def test_a_misplaced_start_walks_to_each_bound_s_answer(self,
                                                           monkeypatch):
        # a start two record units high replays at once, so each falling
        # bound walks down, from the start or from itself, to the answer
        # that a lone call from the exact start gives
        cfg = study_config(kappa=60.0)
        answer, unit = Decimal("0.0335807781047"), Decimal("1e-13")
        bounds = (float(answer), 0.0, capability_bound(cfg.capability),
                  float(answer - unit), float(answer + unit * Decimal("1.5")))
        exact = [lone_answer(cfg, self.goal, bound) for bound in bounds]
        assert [out.success for out in exact] == [True, False, True, False,
                                                  True]
        real = frosim.synth._smallest_feasible_start

        def misplaced(*args):
            start, peak = real(*args)
            return start * (1 + 5e-12), peak

        monkeypatch.setattr(frosim.synth, "_smallest_feasible_start",
                            misplaced)
        passes = count_passes(monkeypatch)
        outcomes = group_answers(cfg, self.goal, bounds)
        assert [repr(out) for out in outcomes] == [repr(out) for out in exact]
        assert {Decimal(x).quantize(unit, ROUND_CEILING)
                for _, _, x in passes} == {answer + 2 * unit}
        assert sorted(d for d, _, _ in passes) == [-1, 1]

    def test_a_bound_just_below_the_answer_is_its_own_replay(self,
                                                             monkeypatch):
        # between the answer and the record decimal below it, an off-grid
        # bound at or above the kernel's boundary replays; it is then the
        # answer, by its own replay, as a lone call answers it
        cfg = study_config(kappa=60.0)
        answer = Decimal("0.0335807781047")
        lower = Context(prec=12).next_minus(answer)
        replays, fails = (float(lower + (answer - lower) * fraction)
                          for fraction in (Decimal("0.75"), Decimal("0.5")))
        calls = count_replays(monkeypatch)
        lone_answer(cfg, self.goal, 0.36)
        lone = {abs(x) for x, _ in calls}
        del calls[:]
        bounds = (replays, 0.36, fails)
        outcomes = group_answers(cfg, self.goal, bounds)
        # each such bound is replayed, once per direction at most, and
        # nothing else beyond the largest bound's replays
        assert replayed_once(calls)
        assert {abs(x) for x, _ in calls} - lone == {replays, fails}
        assert outcomes[0].vector.dp_a == replays
        assert [out for _, out in calls if out is outcomes[0]] == [
            outcomes[0]]
        assert not outcomes[2].success
        assert_lone_answers(cfg, self.goal, bounds, outcomes)

    def test_one_debug_line_per_distinct_bound(self, caplog):
        cfg = study_config(kappa=60.0)
        caplog.set_level(logging.DEBUG, logger="frosim")
        group_answers(cfg, self.goal,
                      (0.03, 0.36, 0.033580778104675, 0.06, 0.06))
        counts = [int(re.search(r"certify replays (\d+);", r.getMessage())
                      .group(1)) for r in caplog.records
                  if r.name == "frosim.synth"]
        # falling bounds: 0.36 replays each direction's start and the
        # failing decimal below it, and 0.06 walks over those; the bound
        # between the answer and that decimal is replayed in both
        # directions, and 0.03 lies far below the pass's start
        assert counts == [4, 0, 2, 0]

    @pytest.mark.parametrize("option", range(len(ALL_OPTIONS)))
    def test_a_group_call_answers_as_lone_calls(self, option):
        # bounds at the answer, at the decimal below it, between the two,
        # around them and far off, zeros of both signs and repeats, shuffled
        options = ALL_OPTIONS[option]
        rng = random.Random(6000 + option)
        below = Context(prec=12).next_minus
        answers = {False: 0, True: 0}
        for _ in range(30):
            cfg = random_small_config(rng)
            goal = AttackGoal(horizon=rng.choice([12, 60, 120]),
                              sign=rng.choice(list(Sign)),
                              attack_step=rng.choice([0, 3]))
            bound = 4 * capability_bound(cfg.capability)
            full = lone_answer(cfg, goal, bound, options)
            bounds = [bound, 0.0, -0.0, bound * rng.random(),
                      bound * rng.random()]
            if full.success:
                a = Decimal(repr(abs(full.vector.dp_a)))
                bounds += [float(a), float(below(a)),
                           float((a + below(a)) / 2),
                           float(below(a) + (a - below(a)) * 7 / 8),
                           float(a) * (1 - 1e-13), float(a) * (1 + 1e-13),
                           float(a) * (1 - 1e-9), float(a) * (1 + 1e-9)]
            bounds += rng.sample(bounds, 3)
            rng.shuffle(bounds)
            outcomes = group_answers(cfg, goal, bounds, options)
            for b, out in zip(bounds, outcomes):
                lone = lone_answer(cfg, goal, b, options)
                assert repr(out) == repr(lone)
                answers[lone.success] += 1
        assert min(answers.values()) >= 100


def count_passes(monkeypatch):
    """Every interval pass synthesis runs from now on, in order, as
    ``(direction, capability bound, start)``."""
    passes = []
    real = frosim.synth._smallest_feasible_start

    def counted(config, goal, direction, options):
        start, peak = real(config, goal, direction, options)
        passes.append((direction, capability_bound(config.capability), start))
        return start, peak

    monkeypatch.setattr(frosim.synth, "_smallest_feasible_start", counted)
    return passes


class TestOnePassPerDirection:
    """The bounds of one group call share each direction's interval pass,
    run once over the config's own bound: a start found under it is the
    smallest start under every bound at or above it, a bound just below it
    walks from itself, as a lone call whose pass finds no start does, and
    one far below it replays nothing.  No pass runs again."""

    @pytest.mark.parametrize("goal", GOALS_PER_TARGET,
                             ids=[t.value for t in TargetKind])
    def test_one_pass_per_direction_over_the_config_bound(self, monkeypatch,
                                                          goal):
        cfg = study_config(kappa=60.0)
        bounds = (0.06, 0.0, 0.36, 0.018, 0.2, 0.03, 0.04, 0.36)
        passes = count_passes(monkeypatch)
        outcomes = group_answers(cfg, goal, bounds)
        assert sorted((d, b) for d, b, _ in passes) == [(-1, 0.36), (1, 0.36)]
        assert any(out.success for out in outcomes)
        assert not outcomes[1].success
        assert_lone_answers(cfg, goal, bounds, outcomes)

    @pytest.mark.parametrize("target", [TargetKind.ANY, TargetKind.LS_ONLY])
    def test_a_pass_that_finds_no_start_never_runs_again(self, monkeypatch,
                                                         target):
        # 0.03 lies below both goals' starts: a config at 0.03 finds none
        # and answers each of its bounds with no second pass; one at 0.5
        # finds a start, which serves the bounds below it too
        cfg = study_config(kappa=60.0)
        goal = AttackGoal(horizon=60, target_kind=target)
        passes = count_passes(monkeypatch)
        low = group_answers(cfg, goal, (0.03, 0.0, 0.03, 0.02))
        assert passes == [(1, 0.03, math.inf)]
        del passes[:]
        bounds = (0.03, 0.03, 0.36, 0.03, 0.06, 0.5)
        outcomes = group_answers(cfg, goal, bounds)
        assert [(d, b) for d, b, _ in passes] == [(1, 0.5)]
        assert passes[0][2] < 0.06
        assert not any(out.success for out in low)
        assert [out.success for out in outcomes] == [False] * 2 + [True] + [
            False, True, True]
        assert_lone_answers(cfg, goal, (0.03, 0.0, 0.03, 0.02), low)
        assert_lone_answers(cfg, goal, bounds, outcomes)

    @pytest.mark.parametrize("goal", GOALS_PER_TARGET,
                             ids=[t.value for t in TargetKind])
    def test_bounds_at_the_start_one_ulp_above_it_and_zero(self, monkeypatch,
                                                           goal):
        # a bound at the start or one ulp above it may find no start of its
        # own, whose rounded-up start lies at or above the bound; in a group
        # call or lone, the walk then starts from the bound
        cfg = study_config(kappa=60.0)
        starts = [frosim.synth._smallest_feasible_start(
            cfg, goal, d, SimOptions())[0] for d in (1, -1)]
        assert all(0 < x < 0.36 for x in starts)
        # a pass to the start itself finds none: the start is its top
        assert frosim.synth._smallest_feasible_start(
            with_bound(cfg, starts[0]), goal, 1, SimOptions())[0] == math.inf
        bounds = [0.0, 0.36]
        for x in starts:
            bounds += [x, math.nextafter(x, math.inf),
                       math.nextafter(x, 0.0)]
        passes = count_passes(monkeypatch)
        outcomes = group_answers(cfg, goal, bounds)
        assert sorted(d for d, _, _ in passes) == [-1, 1]
        assert_lone_answers(cfg, goal, bounds, outcomes)

    @pytest.mark.parametrize("option", range(len(ALL_OPTIONS)))
    def test_shuffled_bounds_in_one_call_answer_as_lone_calls(self, option):
        # per grid and goal, bounds at each direction's start, one ulp above
        # and below it, at the answer and the decimal below it, far off,
        # zeros of both signs and repeats, shuffled; every target and sign
        options = ALL_OPTIONS[option]
        rng = random.Random(7000 + option)
        below = Context(prec=12).next_minus
        answers = {False: 0, True: 0}
        for _ in range(3):
            cfg = random_small_config(rng)
            horizon = rng.choice([12, 60, 120])
            attack_step = rng.choice([0, 3])
            for target, sign in itertools.product(TargetKind, Sign):
                goal = AttackGoal(
                    horizon=horizon, target_kind=target, sign=sign,
                    attack_step=attack_step,
                    specific_relay_id=rng.choice(["gA", "gB", "lA"])
                    if target is TargetKind.SPECIFIC else None)
                bound = 4 * capability_bound(cfg.capability)
                wide = with_bound(cfg, bound)
                bounds = [bound, 0.0, -0.0, bound * rng.random()]
                for d in goal.directions():
                    x = frosim.synth._smallest_feasible_start(
                        wide, goal, d, options)[0]
                    if x < math.inf:
                        bounds += [x, math.nextafter(x, math.inf),
                                   math.nextafter(x, 0.0)]
                full = lone_answer(cfg, goal, bound, options)
                if full.success:
                    a = Decimal(repr(abs(full.vector.dp_a)))
                    bounds += [float(a), float(below(a)),
                               float((a + below(a)) / 2)]
                bounds += rng.sample(bounds, 2)
                rng.shuffle(bounds)
                outcomes = group_answers(cfg, goal, bounds, options)
                for b, out in zip(bounds, outcomes):
                    lone = lone_answer(cfg, goal, b, options)
                    assert repr(out) == repr(lone)
                    answers[lone.success] += 1
        assert min(answers.values()) >= 60


class TestGroupCall:
    """One call answers a list of capability bounds against one config."""

    @pytest.mark.parametrize("goal", [AttackGoal(horizon=12)]
                             + GOALS_PER_TARGET,
                             ids=["any-positive-12"]
                             + [t.value for t in TargetKind])
    def test_equal_products_with_different_float_bounds(self, monkeypatch,
                                                        goal):
        # ToI x AD of 4% x 100% and 10% x 40% are equal products, but their
        # bounds differ in the last bit
        narrow = study_config(h=8.0, toi=0.04, ad=1.0, kappa=2.0)
        wide = with_capability(narrow, toi=0.1, ad=0.4)
        bounds = [capability_bound(c.capability) for c in (narrow, wide)]
        assert bounds == [0.12, 0.12000000000000002]
        calls = count_replays(monkeypatch)
        outcomes = frosim.synth._min_attacks(wide, goal, bounds, SimOptions())
        replayed = [x for x, _ in calls]
        assert [repr(out) for out in outcomes] == [
            repr(synthesize_min_attack(c, goal)) for c in (narrow, wide)]
        if goal == AttackGoal(horizon=12):
            # the answer, 0.133579713675, lies above both: the pass over
            # the larger bound finds no start, so the smaller replays nothing
            assert replayed == [0.12000000000000002]

    @pytest.mark.parametrize("goal", GOALS_PER_TARGET,
                             ids=[t.value for t in TargetKind])
    def test_a_bound_far_below_the_start_replays_nothing(self, monkeypatch,
                                                         goal):
        # under the rounded-up start times 1 - 1e-9 a bound is no attack
        # with no replay, for every goal; between that and the start it
        # is replayed, as a lone call replays it
        cfg = study_config(kappa=60.0)
        top = capability_bound(cfg.capability)
        start = min(Context(prec=12, rounding=ROUND_CEILING).plus(Decimal(
            frosim.synth._smallest_feasible_start(cfg, goal, d,
                                                  SimOptions())[0]))
                    for d in goal.directions())
        far, near = (float(start * (1 - Decimal(margin)))
                     for margin in ("2e-9", "1e-10"))
        calls = count_replays(monkeypatch)
        group_answers(cfg, goal, (top,))
        top_replays = {x for x, _ in calls}
        del calls[:]
        bounds = (top, far, near)
        outcomes = group_answers(cfg, goal, bounds)
        assert {abs(x) for x, _ in calls if x not in top_replays} == {near}
        assert not outcomes[1].success and not outcomes[2].success
        assert_lone_answers(cfg, goal, bounds, outcomes)

    @pytest.mark.parametrize("goal", GOALS_PER_TARGET,
                             ids=[t.value for t in TargetKind])
    def test_a_bound_above_the_config_s_raises(self, monkeypatch, goal):
        cfg = with_bound(study_config(), 0.03)
        calls = count_replays(monkeypatch)
        passes = count_passes(monkeypatch)
        for bounds in ([0.02, math.nextafter(0.03, 1.0)], [0.36]):
            with pytest.raises(CapabilityExceeded):
                frosim.synth._min_attacks(cfg, goal, bounds, SimOptions())
        assert not calls and not passes


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

    def test_equals_the_reference_pass(self):
        # a quiet piece advances whole and a midpoint skips a roster no
        # relay of which can act, and neither moves a start or a peak: the
        # pass gives the plain pass's (start, peak) by repr on random small
        # grids (half of them at ten times the reach), the case-study grid
        # and a grid whose ROCOF threshold is infinite, under every goal
        # kind, direction and option
        rng = random.Random(32)
        disabled = relays_disabled_config()
        for kind, direction, options in itertools.product(
                TargetKind, (1, -1), ALL_OPTIONS):
            for _ in range(5):
                grid = rng.randrange(3)
                if grid == 0:
                    cfg = random_small_config(rng)
                    cfg = validate_config(with_capability(
                        cfg, kappa=rng.choice((1, 10)) * cfg.capability.kappa))
                elif grid == 1:
                    cfg = study_config(h=rng.uniform(2.0, 10.0),
                                       kappa=rng.uniform(1.0, 20.0))
                else:
                    cfg = disabled
                goal = AttackGoal(
                    horizon=rng.choice((12, 60, 120)), target_kind=kind,
                    attack_step=rng.choice((0, 3)),
                    specific_relay_id=rng.choice(
                        [r.id for r in (*cfg.generators, *cfg.loads)])
                    if kind is TargetKind.SPECIFIC else None)
                assert repr(frosim.synth._smallest_feasible_start(
                    cfg, goal, direction, options)) == repr(
                    smallest_feasible_start(cfg, goal, direction, options))

    @pytest.mark.parametrize("option", range(len(ALL_OPTIONS)))
    def test_start_agrees_with_replays(self, option):
        # on grids whose reach (ten times the usual) lets several relays
        # operate in turn, the smallest start is a boundary of the replayed
        # feasible set: just above it replays, just below it and on an even
        # sample of [0, start) nothing does; with no start nothing in
        # [0, bound] does
        options = ALL_OPTIONS[option]
        rng = random.Random(3000 + option)
        goals = [AttackGoal(horizon=60, target_kind=TargetKind.ROCOF_ONLY),
                 AttackGoal(horizon=60, target_kind=TargetKind.LS_ONLY)] + [
            AttackGoal(horizon=60, target_kind=TargetKind.SPECIFIC,
                       specific_relay_id=relay) for relay in ("gA", "gB")]
        starts = 0
        for _ in range(16):
            cfg = random_small_config(rng)
            cfg = validate_config(with_capability(
                cfg, kappa=10 * cfg.capability.kappa))
            bound = capability_bound(cfg.capability)
            for goal, direction in itertools.product(goals, (1, -1)):
                start, _ = frosim.synth._smallest_feasible_start(
                    cfg, goal, direction, options)

                def replays(x):
                    return feasibility(cfg, direction * x, goal,
                                       options).success

                below = bound if start == math.inf else start
                assert 0 <= below <= bound
                assert not any(replays(below * k / 16) for k in range(16))
                if start == math.inf:
                    assert not replays(bound)
                elif 0 < start < bound:
                    assert replays(start + 1e-9 * start)
                    assert not replays(start - 1e-9 * start)
                    starts += 1
        assert starts >= 32

    @pytest.mark.parametrize("case", ["shed", "trip"])
    def test_latched_relays_still_cut_under_accumulation(self, case):
        # with literal accumulation a latched relay re-adds its block while
        # its condition holds, so where that condition changes truth on a
        # piece matters as much as for an unlatched relay: here how often lA
        # re-sheds (or a generator re-trips) moves the later frequency path,
        # and with it the smallest start; a dense replay scan below the start
        # checks that nothing there is feasible
        cfg = random_small_config(random.Random(15 if case == "shed" else 133))
        cfg = validate_config(with_capability(
            cfg, kappa=10 * cfg.capability.kappa))
        if case == "shed":
            options = SimOptions(literal_accumulation=True)
            goal = AttackGoal(horizon=60, target_kind=TargetKind.ROCOF_ONLY)
            expected = 0.0801058750862
        else:
            options = SimOptions(literal_accumulation=True,
                                 rescale_inertia=True)
            goal = AttackGoal(horizon=60, target_kind=TargetKind.SPECIFIC,
                              specific_relay_id="gA")
            expected = 0.0471435268690
        start, _ = frosim.synth._smallest_feasible_start(cfg, goal, 1, options)
        assert start == pytest.approx(expected, rel=1e-11)

        def replays(x):
            return feasibility(cfg, x, goal, options).success

        assert replays(start + 1e-9 * start)
        below = start - 1e-9 * start
        assert not any(replays(below * k / 400) for k in range(401))

    @pytest.mark.parametrize("factor", [1 + 5e-12, 1 - 1e-6])
    def test_misplaced_start_walks_back_to_the_same_answer(
            self, monkeypatch, caplog, factor):
        # a start some record decimals too high replays at once and must
        # gallop down, and one too low (here far lower than a cut point's
        # rounding could put it) must gallop up; either bisects back to the
        # smallest record decimal that replays
        cfg = study_config(kappa=60.0)
        goal = AttackGoal(horizon=12, target_kind=TargetKind.LS_ONLY)
        exact = synthesize_min_attack(cfg, goal).vector.dp_a
        real = frosim.synth._smallest_feasible_start

        def misplaced(*args):
            start, peak = real(*args)
            return start * factor, peak

        monkeypatch.setattr(frosim.synth, "_smallest_feasible_start",
                            misplaced)
        caplog.set_level(logging.DEBUG, logger="frosim")
        assert synthesize_min_attack(cfg, goal).vector.dp_a == exact
        line, = [r.getMessage() for r in caplog.records
                 if r.name == "frosim.synth"]
        certify = int(re.search(r"certify replays (\d+);", line).group(1))
        if factor > 1:
            # two units high: the start and the decimal below it replay,
            # the gallop's next decimal, two units lower, fails, and the
            # bisection replays the one between
            assert certify == 4
        else:
            # about 3e5 units low: 19 gallop replays up and as many bisecting
            assert 2 < certify <= 40

    @pytest.mark.parametrize("option", range(len(ALL_OPTIONS)))
    def test_the_decimal_below_an_answer_is_a_failed_replay(self,
                                                            monkeypatch,
                                                            option):
        # for every target the search has replayed the record decimal just
        # below its answer, and it failed: the bisection ends on it or the
        # step-down stops at it.  It fails in every other allowed direction
        # too.  Capped between an answer and that decimal, the same search
        # answers the bound itself or nothing, and the decimal below the
        # bound has failed too.
        options = ALL_OPTIONS[option]
        rng = random.Random(4000 + option)
        below = Context(prec=12).next_minus
        calls = count_replays(monkeypatch)

        def lower_failed(cfg, goal, magnitude):
            del calls[:]
            out = synthesize_min_attack(cfg, goal, options=options)
            if out.success:
                dp_a = out.vector.dp_a
                assert abs(dp_a) == float(magnitude or abs(dp_a))
                magnitude = magnitude or Decimal(repr(abs(dp_a)))
                lower = float(below(magnitude))
                replays = {repr(x): replay for x, replay in calls}
                sign = math.copysign(1.0, dp_a)
                assert not replays[repr(sign * lower)].success
                for direction in goal.directions():
                    replay = replays.get(repr(direction * lower))
                    assert not (replay or feasibility(
                        cfg, direction * lower, goal, options)).success
            return out

        def goals():
            for _ in range(60):
                cfg = random_small_config(rng)
                target = rng.choice([TargetKind.ROCOF_ONLY,
                                     TargetKind.LS_ONLY, TargetKind.SPECIFIC])
                yield cfg, AttackGoal(
                    horizon=rng.choice([12, 60, 120]), target_kind=target,
                    sign=rng.choice(list(Sign)),
                    specific_relay_id=rng.choice(["gA", "gB", "lA"])
                    if target is TargetKind.SPECIFIC else None)
            for _ in range(60):
                cfg = random_small_config(rng)
                yield cfg, AttackGoal(horizon=rng.choice([12, 60, 120]),
                                      sign=rng.choice(list(Sign)))

        answers = {False: 0, True: 0}  # by whether the goal is ANY
        capped_answers = {False: 0, True: 0}
        for cfg, goal in goals():
            out = lower_failed(cfg, goal, None)
            if not out.success:
                continue
            any_goal = goal.target_kind is TargetKind.ANY
            answers[any_goal] += 1
            answer = Decimal(repr(abs(out.vector.dp_a)))
            cap = float((below(answer) + answer) / 2)
            capped = validate_config(with_capability(
                cfg, kappa=cfg.capability.kappa * cap
                / capability_bound(cfg.capability)))
            bound = capability_bound(capped.capability)
            assert float(below(answer)) < bound < float(answer)
            capped_answers[any_goal] += lower_failed(
                capped, goal, Decimal(bound)).success
        assert min(answers.values()) >= 10
        assert min(capped_answers.values()) >= 4

    @pytest.mark.parametrize("option", range(len(ALL_OPTIONS)))
    def test_no_answer_falls_below_the_decimal_under_its_start(self, option):
        # synthesize_min_attack skips a direction once the decimal below its
        # rounded-up start cannot beat the best answer so far.  That holds
        # while a start's float error stays below one record unit: the walk
        # from a rounded-up interval-pass start never
        # certifies under the decimal below it, and it replays a few
        # decimals around the start at most.
        options = ALL_OPTIONS[option]
        rng = random.Random(5000 + option)
        rounded_up = Context(prec=12, rounding=ROUND_CEILING).plus
        below = Context(prec=12).next_minus
        certified = 0
        for _ in range(60):
            cfg = random_small_config(rng)
            horizon = rng.choice([12, 60, 120])
            attack_step = rng.choice([0, 3])
            for target in TargetKind:
                goal = AttackGoal(
                    horizon=horizon, target_kind=target, sign=Sign.EITHER,
                    attack_step=attack_step,
                    specific_relay_id=rng.choice(["gA", "gB", "lA"])
                    if target is TargetKind.SPECIFIC else None)
                minima = {d: frosim.synth._smallest_feasible_start(
                    cfg, goal, d, options)[0] for d in (1, -1)}
                for direction, x in minima.items():
                    if x == math.inf:
                        continue
                    start = rounded_up(Decimal(x))
                    memo = frosim.synth._Direction()
                    magnitude = frosim.synth._certify(
                        cfg, goal, direction, start,
                        Decimal(capability_bound(cfg.capability)), options,
                        memo)
                    if magnitude is None:
                        continue
                    assert magnitude >= below(start)
                    assert len(memo.outcomes) <= 4
                    certified += 1
        assert certified >= 80

    @pytest.mark.parametrize("factor", [1 + 1e-7, 1 - 1e-7])
    def test_a_start_far_off_walks_back_in_few_replays(self, monkeypatch,
                                                       factor):
        # a start off by 1e-7 of itself, about 1e5 record units, gallops
        # and bisects back to the unscaled answer, from above as from below;
        # one decimal per replay would take about 1e5 replays
        rng = random.Random(3)
        cases = []
        for _ in range(8):
            cfg = random_small_config(rng)
            for target, sign in itertools.product(
                    TargetKind, (Sign.POSITIVE, Sign.NEGATIVE)):
                goal = AttackGoal(
                    horizon=60, target_kind=target, sign=sign,
                    specific_relay_id="lA"
                    if target is TargetKind.SPECIFIC else None)
                cases.append((cfg, goal, synthesize_min_attack(cfg, goal)))
        real_start = frosim.synth._smallest_feasible_start
        real_replay = frosim.synth.feasibility
        replays = 0

        def scaled_start(*args):
            start, peak = real_start(*args)
            return start * factor, peak

        def counted(*args):
            nonlocal replays
            replays += 1
            assert replays <= 64, "more than 64 replays in one synthesis"
            return real_replay(*args)

        monkeypatch.setattr(frosim.synth, "_smallest_feasible_start",
                            scaled_start)
        monkeypatch.setattr(frosim.synth, "feasibility", counted)
        for cfg, goal, exact in cases:
            replays = 0
            assert _answer(synthesize_min_attack(cfg, goal)) == _answer(exact)
        assert sum(exact.success for _, _, exact in cases) >= 30

    @pytest.mark.parametrize("start", ["0.0999999999989", "0.100000000005"])
    @pytest.mark.parametrize("target", [TargetKind.LS_ONLY, TargetKind.ANY])
    def test_bisection_skips_no_decimal_at_a_power_of_ten(self, target,
                                                          start):
        # across 0.1 a rounded-up midpoint can reach the answer while record
        # decimals between it and the last failure are untried; the
        # bisection then tries the decimal below its answer instead, from a
        # start below the boundary or above 0.1.  Every magnitude on the
        # way is in the memo: those from 0.0999999999997 up replay, the
        # others fail.
        cfg = study_config(kappa=60.0)
        goal = AttackGoal(horizon=12, target_kind=target)
        success = synthesize_min_attack(cfg, goal)
        boundary = Decimal("0.0999999999997")
        decimals = ([Decimal("0.0999999999900") + k * Decimal("1e-13")
                     for k in range(100)]
                    + [Decimal("0.1") + k * Decimal("1e-12") for k in range(100)])
        memo = frosim.synth._Direction()
        memo.outcomes = {float(m): success if m >= boundary
                         else frosim.synth._NO_ATTACK for m in decimals}
        found = frosim.synth._certify(
            cfg, goal, 1, Decimal(start),
            Decimal(capability_bound(cfg.capability)), SimOptions(), memo)
        assert len(memo.outcomes) == len(decimals)
        assert found == boundary

    def test_a_walk_down_ends_at_zero_when_zero_replays(self, monkeypatch):
        # when every magnitude meets the goal, zero included, the gallop
        # down stops at zero, which is the answer, after about 40 replays
        cfg = study_config(kappa=60.0)
        goal = AttackGoal(horizon=12)
        success = synthesize_min_attack(cfg, goal)
        replayed = []

        def always(config, dp_a, *args):
            replayed.append(dp_a)
            assert len(replayed) <= 64, "more than 64 replays"
            return success

        monkeypatch.setattr(frosim.synth, "feasibility", always)
        found = frosim.synth._certify(
            cfg, goal, -1, Decimal("0.0335807781047"),
            Decimal(capability_bound(cfg.capability)), SimOptions(),
            frosim.synth._Direction())
        assert found == 0
        assert replayed[-1] == 0.0 and math.copysign(1.0, replayed[-1]) == -1.0

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
        interval, any_line, scan = lines
        assert "by interval pass, +1: smallest feasible start 0." in interval
        assert "-1: smallest feasible start 0." in interval
        assert "peak 1 live pieces" in interval
        # each direction's rounded-up start replays, and the record decimal
        # below it fails; the directions' starts tie, so the negative one
        # could still walk below the positive answer and is certified too
        assert "certify replays 4;" in interval
        assert repr(answers[0].vector.dp_a) in interval
        assert "by interval pass, +1: smallest feasible start 0." in any_line
        assert "certify replays 2;" in any_line
        assert repr(answers[1].vector.dp_a) in any_line
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

    def test_smallest_start_of_the_holey_grid(self):
        # the pass answers below the hole, and public replays show the hole:
        # small and large injections trip, mid-size ones do not
        cfg = nonmonotone_config()
        goal = AttackGoal(horizon=600, target_kind=TargetKind.ROCOF_ONLY)
        start, peak = frosim.synth._smallest_feasible_start(
            cfg, goal, 1, SimOptions())
        assert round(start, 6) == 0.008992
        assert 1 < peak < 100
        for inside in (0.03, 0.3):
            assert feasibility(cfg, inside, goal).success
        for gap in (0.004, 0.1, 0.15):
            assert not feasibility(cfg, gap, goal).success

    def test_wide_roster_keeps_few_pieces_live(self):
        # 32 generator and 32 load relays with thresholds in the customary
        # bands; a pass that kept every piece above the answer peaked at
        # 2,160 live pieces in the negative direction here
        cfg = wide_roster_config()
        goal = AttackGoal(horizon=600, target_kind=TargetKind.SPECIFIC,
                          sign=Sign.EITHER, specific_relay_id="l31")
        peaks = [frosim.synth._smallest_feasible_start(
            cfg, goal, d, SimOptions())[1] for d in (1, -1)]
        assert peaks[0] <= 250 and peaks[1] <= 50
        out = synthesize_min_attack(cfg, goal)
        assert out.success and out.vector.outcome.relay_id == "l31"
