"""Dynamics engine: recursions, relay evaluation, stepping, traces."""

import dataclasses
import itertools
import math
import pickle
import random
from pathlib import Path

import numpy as np
import pytest

import frosim.dynamics
from frosim import (
    AttackGoal,
    AttackSignal,
    EventKind,
    GeneratorRelay,
    GridConfig,
    GridParams,
    HorizonTooShort,
    LoadRelay,
    NO_ATTACK,
    SimOptions,
    SystemState,
    feasibility,
    initial_state,
    load_config,
    simulate,
    simulate_step,
    with_dynamics,
    write_trace_csv,
)
from frosim.dynamics import (
    TRACE_CSV_HEADER,
    RelayEvent,
    SimTrace,
    StepRecord,
    _same_state,
    _steps,
)
from conftest import (
    C1_GENERATORS,
    C1_LOADS,
    column,
    random_small_config,
    relays_disabled_config,
    study_config,
)
from reference import (
    eval_ls_relays,
    eval_rocof_relays,
    frequency_step,
    governor_step,
    rocof,
)

DT = 1.0 / 60.0
P = GridParams(h_inertia=2.0, droop_r=0.2, governor_t=0.2)


def mkstate(delta_f=0.0, dp_gov=0.0, n=0, history=None):
    return SystemState(
        n=n, delta_f=delta_f, dp_gov=dp_gov, dp_sh_cum=0.0, dp_tg_cum=0.0,
        freq_history=history if history is not None else (delta_f,),
        gen_latches=(False,) * 3, load_latches=(False,) * 4,
    )


class TestGovernorStep:
    def test_equilibrium_fixed_point(self):
        assert governor_step(mkstate(0.0, 0.0), P) == 0.0

    def test_droop_pull(self):
        # (dt/T) * (-df/R) with df = -0.001
        expected = (DT / 0.2) * (0.001 / 0.2)
        assert governor_step(mkstate(-0.001, 0.0), P) == pytest.approx(
            expected, rel=1e-15)
        assert expected == pytest.approx(4.1667e-4, rel=1e-4)

    def test_pure_decay(self):
        assert governor_step(mkstate(0.0, 0.1), P) == pytest.approx(
            0.1 * (1 - 1 / 12), rel=1e-15)


class TestFrequencyStep:
    def test_equilibrium(self):
        assert frequency_step(mkstate(), P, 0.0, 0.0, 0.0) == 0.0

    def test_first_step_of_attack(self):
        got = frequency_step(mkstate(), P, 0.322, 0.0, 0.0)
        expected = (DT / 8.0) * (-2.0 * 0.322)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got * 60 == pytest.approx(-0.0805, rel=1e-12)

    def test_decay_coefficient(self):
        got = frequency_step(mkstate(-0.001), P, 0.0, 0.0, 0.0)
        expected = -0.001 * (1 - DT ** 2 / (4 * 2 * 0.2 * 0.2))
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(-9.99132e-4, rel=1e-6)

    def test_shed_load_raises_frequency(self):
        up = frequency_step(mkstate(), P, 0.0, 0.0, 1.0)
        assert up > 0.0

    def test_tripped_generation_lowers_frequency(self):
        down = frequency_step(mkstate(), P, 0.0, 1.0, 0.0)
        assert down < 0.0

    def test_literal_signs_flip_only_the_shed_term(self):
        shed_literal = frequency_step(mkstate(), P, 0.0, 0.0, 1.0,
                                      literal_signs=True)
        trip_literal = frequency_step(mkstate(), P, 0.0, 1.0, 0.0,
                                      literal_signs=True)
        assert shed_literal < 0.0
        assert trip_literal < 0.0


class TestRocof:
    # windowed slopes from the case-study tables, magnitudes in Hz/s
    C1_WINDOW_EARLY = [60.000, 59.991, 59.983, 59.976, 59.968, 59.960, 59.952]
    C1_WINDOW_LATE = [59.952, 59.944, 59.937, 59.930, 59.922, 59.915, 59.901]

    @staticmethod
    def hz_to_pu(values):
        return [v / 60.0 - 1.0 for v in values]

    def test_tabulated_early_window(self):
        got = rocof(self.hz_to_pu(self.C1_WINDOW_EARLY), P)
        assert got == pytest.approx(-0.480, abs=1e-9)

    def test_tabulated_late_window(self):
        got = rocof(self.hz_to_pu(self.C1_WINDOW_LATE), P)
        assert got == pytest.approx(-0.510, abs=1e-9)

    def test_constant_window_is_flat(self):
        assert rocof([0.01] * 7, P) == 0.0

    def test_short_history_marker(self):
        assert rocof([0.0] * 6, P) is None

    def test_uses_last_window_of_longer_history(self):
        padded = [0.5] * 5 + self.hz_to_pu(self.C1_WINDOW_EARLY)
        assert rocof(padded, P) == pytest.approx(-0.480, abs=1e-9)

    def test_telescoping_identity(self):
        # oracle: mean of per-step increments over the window
        rng = random.Random(3)
        for _ in range(100):
            window = [rng.uniform(-0.02, 0.02) for _ in range(7)]
            increments = [
                (window[k] - window[k - 1]) / DT for k in range(1, 7)
            ]
            oracle = sum(increments) / 6 * 60.0
            assert rocof(window, P) == pytest.approx(oracle, abs=1e-9)


class TestRelayEvaluation:
    def test_ls_above_threshold_no_op(self):
        res = eval_ls_relays(60.0, (False,) * 4, C1_LOADS)
        assert res.increment == 0.0 and not any(res.latches)

    def test_ls_sheds_all_reached_blocks(self):
        res = eval_ls_relays(59.4, (False,) * 4, C1_LOADS)
        assert res.increment == pytest.approx(2.0)
        assert all(res.latches) and len(res.fired) == 4

    def test_ls_threshold_boundary_inclusive(self):
        res = eval_ls_relays(59.5, (False,) * 4, C1_LOADS)
        assert res.increment == pytest.approx(2.0)

    def test_ls_latch_prevents_re_shedding(self):
        res = eval_ls_relays(59.4, (True,) * 4, C1_LOADS)
        assert res.increment == 0.0 and not res.fired

    def test_ls_literal_accumulation_readds(self):
        res = eval_ls_relays(59.4, (True,) * 4, C1_LOADS,
                             literal_accumulation=True)
        assert res.increment == pytest.approx(2.0)
        assert not res.fired  # already operated once

    def test_rocof_trips_only_lowest_threshold(self):
        res = eval_rocof_relays(-0.510, (False,) * 3, C1_GENERATORS)
        assert res.increment == pytest.approx(1.0)
        assert res.latches == (True, False, False)

    def test_rocof_below_threshold(self):
        res = eval_rocof_relays(-0.49, (False,) * 3, C1_GENERATORS)
        assert res.increment == 0.0

    def test_rocof_trips_all_when_steep(self):
        res = eval_rocof_relays(1.3, (False,) * 3, C1_GENERATORS)
        assert res.increment == pytest.approx(3.0)
        assert all(res.latches)

    def test_rocof_none_slope_is_noop(self):
        res = eval_rocof_relays(None, (False,) * 3, C1_GENERATORS)
        assert res.increment == 0.0


class TestSimulateStep:
    def test_equilibrium_is_fixed(self):
        cfg = study_config()
        state = initial_state(cfg)
        nxt, rec = simulate_step(state, cfg, NO_ATTACK)
        assert nxt.n == 1
        assert nxt.delta_f == 0.0 and nxt.dp_gov == 0.0
        assert rec.f_hz == 60.0 and not rec.events

    def test_attack_falls_monotonically_without_early_events(self):
        cfg = study_config()
        state = initial_state(cfg)
        attack = AttackSignal(0.322)
        freqs = []
        for _ in range(6):
            state, rec = simulate_step(state, cfg, attack)
            freqs.append(rec.f_hz)
            assert rec.n < 6 and not rec.events
        assert all(b < a for a, b in zip(freqs, freqs[1:]))

    def test_latches_are_absorbing(self):
        cfg = study_config()
        state = initial_state(cfg)
        attack = AttackSignal(0.322)
        for _ in range(10):
            state, _ = simulate_step(state, cfg, attack)
        assert all(state.gen_latches)
        tripped = state.dp_tg_cum
        for _ in range(10):
            state, rec = simulate_step(state, cfg, attack)
            assert not any(ev.kind is EventKind.ROCOF_TRIP for ev in rec.events)
        assert state.dp_tg_cum == tripped

    def test_accumulators_match_latched_blocks(self):
        cfg = study_config()
        state = initial_state(cfg)
        attack = AttackSignal(0.322)
        prev_sh = prev_tg = 0.0
        for _ in range(40):
            state, _ = simulate_step(state, cfg, attack)
            assert state.dp_sh_cum >= prev_sh and state.dp_tg_cum >= prev_tg
            want_sh = sum(l.p_sh for l, on in
                          zip(cfg.loads, state.load_latches) if on)
            want_tg = sum(g.p_tg for g, on in
                          zip(cfg.generators, state.gen_latches) if on)
            assert state.dp_sh_cum == pytest.approx(want_sh, abs=1e-12)
            assert state.dp_tg_cum == pytest.approx(want_tg, abs=1e-12)
            prev_sh, prev_tg = state.dp_sh_cum, state.dp_tg_cum

    def test_history_window_bounded(self):
        cfg = study_config()
        state = initial_state(cfg)
        for _ in range(20):
            state, _ = simulate_step(state, cfg, AttackSignal(0.01))
            assert len(state.freq_history) <= cfg.params.rocof_window_m + 1


def reference_step(state, config, attack, options=SimOptions()):
    """One step composed from the reference equations, in the documented
    evaluation order; ``simulate_step`` must equal it bit for bit."""
    params = config.params
    f_hz = params.f_nominal * (1.0 + state.delta_f)

    ls = eval_ls_relays(
        f_hz, state.load_latches, config.loads,
        literal_accumulation=options.literal_accumulation,
    )
    dp_sh_next = state.dp_sh_cum + ls.increment

    slope = rocof(state.freq_history, params)
    rc = eval_rocof_relays(
        slope, state.gen_latches, config.generators,
        literal_accumulation=options.literal_accumulation,
    )
    dp_tg_next = state.dp_tg_cum + rc.increment

    events = tuple(
        [RelayEvent(state.n, config.loads[i].id, EventKind.LS_SHED) for i in ls.fired]
        + [RelayEvent(state.n, config.generators[i].id, EventKind.ROCOF_TRIP)
           for i in rc.fired]
    )

    h_effective = None
    if options.rescale_inertia:
        total = sum(g.p_tg for g in config.generators)
        share = (total - dp_tg_next) / total if total > 0 else 1.0
        h_effective = params.h_inertia * max(share, 0.01)

    dp_a_effective = attack.dp_a if state.n >= attack.attack_step else 0.0
    gov_next = governor_step(state, params)
    df_next = frequency_step(
        state, params, dp_a_effective, dp_tg_next, dp_sh_next,
        literal_signs=options.literal_signs, h_effective=h_effective,
    )

    history = state.freq_history + (df_next,)
    if len(history) > params.rocof_window_m + 1:
        history = history[-(params.rocof_window_m + 1):]

    record = StepRecord(
        n=state.n, t_s=state.n * params.dt, delta_f=state.delta_f, f_hz=f_hz,
        rocof_hz_per_s=slope, dp_gov=state.dp_gov, dp_sh_cum=dp_sh_next,
        dp_tg_cum=dp_tg_next, events=events,
    )
    next_state = SystemState(
        n=state.n + 1, delta_f=df_next, dp_gov=gov_next,
        dp_sh_cum=dp_sh_next, dp_tg_cum=dp_tg_next, freq_history=history,
        gen_latches=rc.latches, load_latches=ls.latches,
    )
    return next_state, record


def plain_step(plain, named, cfg, attack, options):
    """Step the kernel from the plain-tuple state *plain*, as the replay
    loop does, and return the next one; both outputs must be plain tuples
    of the values of the *named* ``(state, record)`` of the same step."""
    nxt, rec = simulate_step(plain, cfg, attack, options)
    assert type(nxt) is tuple and type(rec) is tuple
    # repr tells -0.0 from 0.0 and matches NaN, which == does not
    assert repr((nxt, rec)) == repr((tuple(named[0]), tuple(named[1])))
    return nxt


ALL_OPTIONS = [SimOptions(*flags)
               for flags in itertools.product((False, True), repeat=3)]


class TestFusedKernel:
    STEPS = 240

    @staticmethod
    def grids():
        rng = random.Random(505)
        return [study_config()] + [random_small_config(rng) for _ in range(4)]

    @pytest.mark.parametrize("options", ALL_OPTIONS, ids=repr)
    def test_lockstep_with_reference_equations(self, options):
        fired = sustained = 0
        for cfg, attack_step, sign, mag in itertools.product(
                self.grids(), (0, 5), (1, -1), (0.02, 0.3, 1.5)):
            attack = AttackSignal(sign * mag, attack_step)
            ref = got = initial_state(cfg)
            plain = tuple(got)
            for _ in range(self.STEPS):
                ref, ref_rec = reference_step(ref, cfg, attack, options)
                got, rec = simulate_step(got, cfg, attack, options)
                plain = plain_step(plain, (got, rec), cfg, attack, options)
                for name in SystemState._fields:
                    assert getattr(got, name) == getattr(ref, name), name
                for name in StepRecord._fields:
                    assert getattr(rec, name) == getattr(ref_rec, name), name
                # repr also tells -0.0 from 0.0, which == does not
                assert repr((got, rec)) == repr((ref, ref_rec))
                fired += len(rec.events)
            blocks = (sum(l.p_sh for l in cfg.loads)
                      + sum(g.p_tg for g in cfg.generators))
            sustained += got.dp_sh_cum + got.dp_tg_cum > blocks + 1e-9
        assert fired > 0
        # literal accumulation re-adds blocks past their one-time total
        assert bool(sustained) == options.literal_accumulation

    def test_quiet_step_shares_latches_and_records_no_events(self):
        cfg = study_config()
        state = initial_state(cfg)
        nxt, rec = simulate_step(state, cfg, AttackSignal(0.001))
        assert rec.events == ()
        assert nxt.gen_latches is state.gen_latches
        assert nxt.load_latches is state.load_latches


class TestSimulate:
    def test_quiescence(self):
        cfg = study_config()
        trace = simulate(cfg, NO_ATTACK, 2000)
        assert np.all(column(trace, "f_hz") == 60.0)
        assert np.all(column(trace, "dp_gov") == 0.0)
        assert not trace.events and trace.first_event is None

    def test_case_study_attack_trips_lowest_threshold_relay(self):
        cfg = study_config(kappa=60.0)
        trace = simulate(cfg, AttackSignal(0.322), 12)
        trips = [ev for ev in trace.events if ev.kind is EventKind.ROCOF_TRIP]
        assert any(ev.relay_id == "g4" for ev in trips)

    def test_composition_matches_manual_stepping(self):
        cfg = study_config()
        attack = AttackSignal(0.05)
        trace = simulate(cfg, attack, 30)
        f_hz, dp_gov = column(trace, "f_hz"), column(trace, "dp_gov")
        state = initial_state(cfg)
        for i in range(31):
            state, rec = simulate_step(state, cfg, attack)
            assert f_hz[i] == rec.f_hz
            assert dp_gov[i] == rec.dp_gov

    def test_horizon_shorter_than_window_rejected(self):
        with pytest.raises(HorizonTooShort):
            simulate(study_config(), NO_ATTACK, 5)

    def test_droop_steady_state_with_relays_disabled(self):
        # settle time scales with the slow swing-droop pair (~2*H*R), not
        # just the governor lag; simulate long enough for full convergence
        for h, r, t, dp in [(2, 0.2, 0.2, 0.1), (6, 0.6, 0.4, -0.05),
                            (10, 1.0, 1.0, 0.2)]:
            cfg = relays_disabled_config(h=h, r=r, t=t)
            steps = math.ceil(40 * max(2 * h * r, t) / cfg.params.dt)
            trace = simulate(cfg, AttackSignal(dp), steps)
            df_final = column(trace, "f_hz")[-1] / 60.0 - 1.0
            assert abs(df_final + r * dp) <= 1e-6

    def test_determinism(self):
        cfg = study_config()
        a = simulate(cfg, AttackSignal(0.2), 200)
        b = simulate(cfg, AttackSignal(0.2), 200)
        assert np.array_equal(column(a, "f_hz"), column(b, "f_hz"))
        assert a.events == b.events

    def test_attack_step_delays_injection(self):
        cfg = relays_disabled_config()
        f_hz = column(simulate(cfg, AttackSignal(0.1, attack_step=10), 30),
                      "f_hz")
        assert np.all(f_hz[:11] == 60.0)
        assert f_hz[11] < 60.0

    def test_rows_increase_and_events_are_ordered(self):
        cfg = study_config(kappa=60.0)
        trace = simulate(cfg, AttackSignal(0.2), 40)
        assert np.all(np.diff(column(trace, "n")) == 1)
        steps = [ev.step for ev in trace.events]
        assert steps == sorted(steps)


def record_reprs(records):
    # repr tells -0.0 from 0.0, which == does not; a list of them shows the
    # first differing record when they differ
    return [repr(r) for r in records]


def manual_records(cfg, attack, horizon, options=SimOptions()):
    """The records of steps 0..horizon, one ``simulate_step`` call each."""
    state = initial_state(cfg)
    records = []
    for _ in range(horizon + 1):
        state, record = simulate_step(state, cfg, attack, options)
        records.append(record)
    return records


def count_kernel_steps(monkeypatch):
    """Count the ``simulate_step`` calls of every replay from here on."""
    calls = [0]
    kernel = frosim.dynamics.simulate_step

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(frosim.dynamics, "simulate_step", counted)
    return calls


class TestFixedPoint:
    """Once a step leaves the state as it found it, the replay repeats the
    record without stepping; no record may change."""

    HORIZON = 3000
    ATTACKS = (AttackSignal(-0.35), AttackSignal(1.5),
               AttackSignal(-0.0, 500), AttackSignal(0.1, 1500))

    @pytest.mark.parametrize("options", ALL_OPTIONS, ids=repr)
    def test_records_equal_manual_stepping(self, monkeypatch, options):
        shortcuts = 0
        for cfg, attack in itertools.product(
                (study_config(kappa=60.0), relays_disabled_config(h=6.0)),
                self.ATTACKS):
            want = record_reprs(
                manual_records(cfg, attack, self.HORIZON, options))
            steps = count_kernel_steps(monkeypatch)
            assert record_reprs(simulate(
                cfg, attack, self.HORIZON, options).records) == want, attack
            monkeypatch.undo()
            shortcuts += steps[0] < self.HORIZON + 1
        assert shortcuts > 0

    def test_quiescent_grid_waits_for_the_attack(self, monkeypatch):
        cfg = study_config()
        attack = AttackSignal(0.25, attack_step=500)
        want = record_reprs(manual_records(cfg, attack, self.HORIZON))
        steps = count_kernel_steps(monkeypatch)
        trace = simulate(cfg, attack, self.HORIZON)
        assert record_reprs(trace.records) == want
        # flat from step 7 on, yet stepped until the injection settles
        assert 500 < steps[0] < self.HORIZON + 1
        assert trace.records[500].f_hz == 60.0 > trace.records[501].f_hz
        steps[0] = 0
        assert not simulate(cfg, NO_ATTACK, self.HORIZON).events
        assert steps[0] == cfg.params.rocof_window_m + 1

    def test_kernel_steps_on_the_case_study_grid(self, monkeypatch):
        cfg = load_config(Path(__file__).resolve().parent.parent / "demos"
                          / "case_study_grid.json")
        horizon = 40000
        steps = count_kernel_steps(monkeypatch)
        settled = simulate(cfg, AttackSignal(0.25), horizon)
        assert len(settled) == horizon + 1 and steps[0] < 2000
        steps[0] = 0
        # re-added blocks move the totals every step: no fixed point
        simulate(cfg, AttackSignal(0.25), horizon,
                 SimOptions(literal_accumulation=True))
        assert steps[0] == horizon + 1

    def test_weak_replay_stops_stepping_once_settled(self, monkeypatch):
        cfg = study_config(kappa=60.0)
        goal = AttackGoal(horizon=self.HORIZON)
        steps = count_kernel_steps(monkeypatch)
        # too weak to operate any relay: settles, then stops stepping
        assert not feasibility(cfg, 0.001, goal).success
        assert 0 < steps[0] < self.HORIZON + 1

    def test_loop_yields_plain_tuples_and_traces_keep_step_records(
            self, monkeypatch):
        cfg = study_config(kappa=60.0)
        attack = AttackSignal(0.25, attack_step=500)
        steps = count_kernel_steps(monkeypatch)
        records = list(_steps(cfg, attack, self.HORIZON))
        # the fixed-point tail is among them
        assert steps[0] < self.HORIZON + 1 == len(records)
        assert {type(r) for r in records} == {tuple}
        trace = simulate(cfg, attack, self.HORIZON)
        assert {type(r) for r in trace.records} == {StepRecord}
        assert record_reprs(map(tuple, trace.records)) == record_reprs(records)
        goal = AttackGoal(horizon=self.HORIZON)
        winner = feasibility(cfg, 0.322, goal).vector.trace
        assert {type(r) for r in winner.records} == {StepRecord}

    def test_same_state_is_bit_equality_but_for_n(self):
        state = SystemState(
            n=9, delta_f=0.0, dp_gov=0.25, dp_sh_cum=0.0, dp_tg_cum=1.0,
            freq_history=(0.0,) * 7, gen_latches=(True, False, False),
            load_latches=(False,) * 4)
        assert _same_state(state._replace(n=10), state)
        for name, value in [
                ("delta_f", -0.0), ("dp_gov", 0.25000000000000006),
                ("dp_sh_cum", -0.0), ("dp_tg_cum", 2.0),
                ("freq_history", (0.0,) * 6 + (-0.0,)),
                ("freq_history", (0.0,) * 6),
                ("gen_latches", (True, True, False)),
                ("load_latches", (True,) + (False,) * 3)]:
            assert not _same_state(state._replace(**{name: value}), state), name
        nan = state._replace(dp_gov=math.nan)
        assert not _same_state(nan, nan)


def lockstep(cfg, attack, options=SimOptions(), steps=120):
    """Step the kernel and the reference equations side by side, holding
    each state and record to bit equality, and the kernel from a plain-tuple
    state too; return the kernel's records."""
    ref = got = initial_state(cfg)
    plain = tuple(got)
    records = []
    for _ in range(steps):
        ref, ref_rec = reference_step(ref, cfg, attack, options)
        got, rec = simulate_step(got, cfg, attack, options)
        plain = plain_step(plain, (got, rec), cfg, attack, options)
        # repr tells -0.0 from 0.0 and matches NaN, which == does not
        assert repr((got, rec)) == repr((ref, ref_rec)), rec.n
        records.append(rec)
    return records


def unvalidated(cfg, generators, loads):
    return GridConfig(cfg.params, generators, loads, cfg.capability)


class TestRosterSkip:
    """The kernel skips a roster when no relay in it can act; that may
    change no state or record, on a threshold's boundary least of all."""

    ATTACK = AttackSignal(0.3)
    NEVER_TRIPS = (GeneratorRelay("g", "b", 1.0, math.inf),)
    NEVER_SHEDS = (LoadRelay("l", "b", 0.5, 0.0),)

    @classmethod
    def free_run(cls):
        # the relay-free trajectory the boundary thresholds are read from:
        # a grid behaves exactly like it up to its first event
        cfg = study_config()
        return cfg, manual_records(unvalidated(cfg, (), ()), cls.ATTACK, 12)

    @pytest.mark.parametrize("options", ALL_OPTIONS, ids=repr)
    def test_frequency_on_the_highest_ls_threshold(self, options):
        cfg, free = self.free_run()
        on = free[10].f_hz
        assert all(a.f_hz > b.f_hz for a, b in zip(free, free[1:]))
        grid = unvalidated(cfg, self.NEVER_TRIPS, (
            LoadRelay("low", "b", 0.5, on - 0.1), LoadRelay("top", "b", 0.5, on)))
        fired = [r for r in lockstep(grid, self.ATTACK, options) if r.events]
        # f_hz <= threshold operates, equality included
        assert fired[0].f_hz == on
        assert fired[0].events == (RelayEvent(10, "top", EventKind.LS_SHED),)

    @pytest.mark.parametrize("options", ALL_OPTIONS, ids=repr)
    def test_slope_on_the_lowest_rocof_threshold(self, options):
        cfg, free = self.free_run()
        m = cfg.params.rocof_window_m
        on = abs(free[m].rocof_hz_per_s)  # the first slope measured
        grid = unvalidated(cfg, (
            GeneratorRelay("top", "b", 1.0, 2 * on),
            GeneratorRelay("low", "b", 1.0, on)), self.NEVER_SHEDS)
        fired = [r for r in lockstep(grid, self.ATTACK, options) if r.events]
        # |slope| >= threshold operates, equality included
        assert abs(fired[0].rocof_hz_per_s) == on
        assert fired[0].events == (RelayEvent(m, "low", EventKind.ROCOF_TRIP),)

    @pytest.mark.parametrize("options", ALL_OPTIONS, ids=repr)
    def test_empty_rosters_and_nan_thresholds(self, options):
        cfg, free = self.free_run()
        f_on = free[10].f_hz
        s_on = abs(free[cfg.params.rocof_window_m].rocof_hz_per_s)
        nan = math.nan
        rosters = [
            ((), ()),
            ((GeneratorRelay("gn", "b", 1.0, nan),),
             (LoadRelay("ln", "b", 0.5, nan),)),
            # a NaN first: max() and min() would then return the NaN
            ((GeneratorRelay("gn", "b", 1.0, nan),
              GeneratorRelay("g", "b", 1.0, s_on)),
             (LoadRelay("ln", "b", 0.5, nan), LoadRelay("l", "b", 0.5, f_on))),
        ]
        events = []
        for (gens, loads), attack in itertools.product(
                rosters, (self.ATTACK, AttackSignal(-0.3), AttackSignal(nan))):
            records = lockstep(unvalidated(cfg, gens, loads), attack, options)
            events.append({ev.relay_id for r in records for ev in r.events})
        # a NaN threshold never operates; the finite ones beside it do
        assert events[:6] == [set()] * 6
        assert events[6] == {"g", "l"}

    @pytest.mark.parametrize("options", [
        SimOptions(literal_accumulation=True),
        SimOptions(literal_accumulation=True, rescale_inertia=True)], ids=repr)
    def test_literal_accumulation_above_every_threshold(self, options):
        # re-added blocks lift the frequency back above its threshold, with
        # the slope below every ROCOF threshold: the latched relay stops
        # re-adding
        cfg, free = self.free_run()
        on = free[10].f_hz
        grid = unvalidated(
            cfg, (GeneratorRelay("g", "b", 1.0, 100.0),),
            (LoadRelay("l", "b", 0.2, on),))
        records = lockstep(grid, self.ATTACK, options, steps=240)
        shed = [r.n for r in records if r.f_hz <= on]
        assert shed == list(range(10, 10 + len(shed))) and len(shed) > 1
        quiet = records[shed[-1] + 1:]
        assert quiet and all(r.f_hz > on and abs(r.rocof_hz_per_s) < 100.0
                             for r in quiet)
        assert {r.dp_sh_cum for r in quiet} == {records[shed[-1]].dp_sh_cum}


class TestStepConstants:
    """A grid's step constants are built once per (params, rosters) and kept
    on the config and its params; no config may step with another's."""

    ATTACK = AttackSignal(0.3)

    @classmethod
    def step_alike(cls, configs, steps=80, fresh=False):
        """Step every config in turn, each against the reference equations;
        with *fresh*, through a new equal config at every step, so each
        step looks its constants up anew.  Return each one's last state."""
        states = [(initial_state(c), initial_state(c)) for c in configs]
        for _ in range(steps):
            for i, cfg in enumerate(configs):
                if fresh:
                    cfg = GridConfig(cfg.params, cfg.generators, cfg.loads,
                                     cfg.capability)
                ref, got = states[i]
                ref, ref_rec = reference_step(ref, cfg, cls.ATTACK)
                got, rec = simulate_step(got, cfg, cls.ATTACK)
                assert repr((got, rec)) == repr((ref, ref_rec)), (i, rec.n)
                states[i] = ref, got
        return [repr(got) for _, got in states]

    @pytest.mark.parametrize("fresh", [False, True])
    def test_configs_sharing_params_keep_their_rosters(self, fresh):
        cfg = study_config()
        configs = [
            cfg,
            dataclasses.replace(cfg, loads=cfg.loads[:1]),
            dataclasses.replace(cfg, generators=tuple(
                dataclasses.replace(g, p_tg=g.p_tg / 2)
                for g in cfg.generators)),
            unvalidated(cfg, (), ()),  # as the unit response replays it
        ]
        assert all(c.params is cfg.params for c in configs)
        assert len(set(self.step_alike(configs, fresh=fresh))) == len(configs)

    def test_replaced_params(self):
        cfg = study_config()
        simulate(cfg, self.ATTACK, 60)
        heavier = dataclasses.replace(
            cfg, params=dataclasses.replace(cfg.params, h_inertia=6.0))
        slower = with_dynamics(cfg, governor_t=1.0)
        assert heavier.generators is cfg.generators is slower.generators
        assert len(set(self.step_alike([cfg, heavier, slower]))) == 3

    def test_pickled_config(self):
        cfg = study_config()
        records = simulate(cfg, self.ATTACK, 60).records
        for copy in (pickle.loads(pickle.dumps(cfg)),
                     pickle.loads(pickle.dumps(study_config()))):
            assert copy == cfg
            self.step_alike([copy])
            assert repr(simulate(copy, self.ATTACK, 60).records) == repr(records)

    def test_equality_hash_and_repr_unchanged_by_a_replay(self):
        cfg, twin = study_config(), study_config()
        before = (repr(cfg), hash(cfg), repr(cfg.params), hash(cfg.params))
        simulate(cfg, self.ATTACK, 60)
        assert "_step_constants" in vars(cfg)
        assert (repr(cfg), hash(cfg), repr(cfg.params),
                hash(cfg.params)) == before
        assert cfg == twin and twin == cfg and cfg.params == twin.params
        assert dataclasses.astuple(cfg) == dataclasses.astuple(twin)


class TestSimTrace:
    COLUMNS = ("n", "t_s", "delta_f", "f_hz", "rocof_hz_per_s", "dp_gov",
               "dp_sh_cum", "dp_tg_cum")

    @staticmethod
    def trace():
        return simulate(study_config(kappa=60.0), AttackSignal(0.322), 40)

    def test_columns_equal_the_record_fields(self):
        trace = self.trace()
        assert len(trace) == len(trace.records) == 41
        for name in self.COLUMNS:
            fields = [getattr(r, name) for r in trace.records]
            if name == "rocof_hz_per_s":
                assert fields[0] is None and fields[-1] is not None
                fields = [math.nan if x is None else x for x in fields]
            # repr tells -0.0 from 0.0 and shows NaN where a slope is missing
            assert repr(column(trace, name).tolist()) == repr(fields), name
        assert trace.events == tuple(
            ev for r in trace.records for ev in r.events)
        assert trace.first_event == trace.events[0]
        assert trace.first_event.step == 6

    def test_replays_check_the_horizon_first(self):
        cfg = study_config(kappa=60.0)
        for call in (lambda: simulate(cfg, AttackSignal(0.1), 5),
                     lambda: feasibility(cfg, 0.1, AttackGoal(horizon=5))):
            with pytest.raises(HorizonTooShort):
                call()


class TestModeledVariants:
    def test_literal_accumulation_grows_every_step(self):
        cfg = study_config()
        attack = AttackSignal(0.322)
        latched = simulate(cfg, attack, 20)
        literal = simulate(cfg, attack, 20,
                           SimOptions(literal_accumulation=True))
        for field, blocks in (("dp_sh_cum", 2.0), ("dp_tg_cum", 3.0)):
            assert column(latched, field)[-1] <= blocks + 1e-12
            assert column(literal, field)[-1] > column(latched, field)[-1]
        # events still record first operation only
        assert len(literal.events) == len(latched.events)

    def test_literal_signs_make_shedding_depress_frequency(self):
        cfg = study_config()
        attack = AttackSignal(0.322)
        physical = simulate(cfg, attack, 40)
        literal = simulate(cfg, attack, 40, SimOptions(literal_signs=True))
        shed_step = next(ev.step for ev in physical.events
                         if ev.kind is EventKind.LS_SHED)
        assert (column(literal, "f_hz")[shed_step + 2]
                < column(physical, "f_hz")[shed_step + 2])

    def test_rescaled_inertia_accelerates_the_fall(self):
        cfg = study_config()
        attack = AttackSignal(0.322)
        constant = simulate(cfg, attack, 40)
        rescaled = simulate(cfg, attack, 40, SimOptions(rescale_inertia=True))
        trip_step = next(ev.step for ev in constant.events
                         if ev.kind is EventKind.ROCOF_TRIP)
        f_constant = column(constant, "f_hz")
        f_rescaled = column(rescaled, "f_hz")
        assert np.array_equal(f_constant[:trip_step + 1],
                              f_rescaled[:trip_step + 1])
        assert f_rescaled[-1] < f_constant[-1]


class TestScalingProperties:
    def test_pre_event_linearity_and_odd_symmetry(self):
        rng = random.Random(11)
        for _ in range(10):
            cfg = relays_disabled_config(
                h=rng.uniform(2, 10), r=rng.uniform(0.2, 1.0),
                t=rng.uniform(0.2, 1.0))
            a = rng.uniform(0.01, 0.2)
            base = simulate(cfg, AttackSignal(a), 300)
            doubled = simulate(cfg, AttackSignal(2 * a), 300)
            negated = simulate(cfg, AttackSignal(-a), 300)
            # doubling and negating the input are exact float operations, so
            # the stepped deviation matches bitwise
            b = column(base, "delta_f")
            assert np.array_equal(column(doubled, "delta_f"), 2 * b)
            assert np.array_equal(column(negated, "delta_f"), -b)


def reference_write_trace_csv(trace, path):
    """Reference trace writer, indexing the field columns row by row;
    ``write_trace_csv`` must write the same bytes."""
    by_step = {}
    for ev in trace.events:
        by_step.setdefault(ev.step, []).append(ev)
    n, t_s, f_hz, rocof_hz_per_s, dp_gov, dp_sh_cum, dp_tg_cum = (
        column(trace, field) for field in (
            "n", "t_s", "f_hz", "rocof_hz_per_s", "dp_gov", "dp_sh_cum",
            "dp_tg_cum"))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(TRACE_CSV_HEADER + "\n")
        for i in range(len(trace)):
            step = int(n[i])
            rocof_val = rocof_hz_per_s[i]
            evs = ";".join(
                f"{ev.kind.name}:{ev.relay_id}" for ev in by_step.get(step, ())
            )
            fh.write(",".join([
                str(step),
                format(t_s[i], ".12g"),
                format(f_hz[i], ".12g"),
                "" if math.isnan(rocof_val) else format(rocof_val, ".12g"),
                format(dp_gov[i], ".12g"),
                format(dp_sh_cum[i], ".12g"),
                format(dp_tg_cum[i], ".12g"),
                evs,
            ]) + "\n")


class TestTraceCsv:
    @pytest.mark.parametrize("options", ALL_OPTIONS, ids=repr)
    def test_same_bytes_as_the_reference_writer(self, tmp_path, options):
        rng = random.Random(606)
        grids = [study_config(kappa=60.0)] + [
            random_small_config(rng) for _ in range(3)]
        # unvalidated and unstable: the deviation overflows, and the slope
        # turns NaN, within the horizon
        grids.append(GridConfig(
            GridParams(h_inertia=0.001, droop_r=0.01, governor_t=0.01),
            C1_GENERATORS, C1_LOADS, grids[0].capability))
        events = 0
        for i, (cfg, dp_a) in enumerate(itertools.product(
                grids, (0.322, -0.9, 1.5))):
            attack = AttackSignal(dp_a, i % 3)
            trace = simulate(cfg, attack, 150, options)
            events += len(trace.events)
            got, want = tmp_path / f"got{i}.csv", tmp_path / f"want{i}.csv"
            write_trace_csv(simulate(cfg, attack, 150, options), got)
            reference_write_trace_csv(trace, want)
            assert got.read_bytes() == want.read_bytes()
        assert events > 0
        # the last trace, on the unstable grid, ends on a NaN slope
        assert math.isnan(trace.records[-1].rocof_hz_per_s)

        # long traces: past a fixed point, whose repeated records share
        # their field values, and long after the unstable grid's f_hz
        # overflows to inf and then NaN
        repeats = 0
        for i, (cfg, attack) in enumerate([
                (grids[0], AttackSignal(0.322)),
                (grids[0], AttackSignal(-0.0, 500)),
                (grids[1], AttackSignal(-0.9, 1500)),
                (grids[-1], AttackSignal(0.322))]):
            trace = simulate(cfg, attack, 3000, options)
            last, before = trace.records[-1], trace.records[-2]
            repeats += last.f_hz is before.f_hz
            got, want = tmp_path / f"long{i}.csv", tmp_path / f"longref{i}.csv"
            write_trace_csv(trace, got)
            reference_write_trace_csv(trace, want)
            assert got.read_bytes() == want.read_bytes()
        assert repeats > 0
        f_hz = [r.f_hz for r in trace.records]
        assert math.inf in f_hz or -math.inf in f_hz
        assert math.isnan(f_hz[-1])

    def test_shared_values_reuse_only_the_previous_row(self, tmp_path):
        # runs of records sharing their value objects, split by one that
        # does not, and a -0.0 equal to but not the same as 0.0
        a = simulate(study_config(kappa=60.0), AttackSignal(0.322), 12).records
        tail = a[-1][2:]
        rows = [a[-1]] + [StepRecord(n, n * DT, *tail) for n in (13, 14)]
        rows.append(a[-2]._replace(n=15, t_s=15 * DT))
        rows += [StepRecord(16, 16 * DT, *a[-2][2:]),
                 a[-2]._replace(n=17, t_s=17 * DT, dp_gov=-0.0),
                 a[-2]._replace(n=18, t_s=18 * DT, dp_gov=0.0)]
        trace = SimTrace(tuple(rows))
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_trace_csv(trace, got)
        reference_write_trace_csv(trace, want)
        assert got.read_bytes() == want.read_bytes()
        assert got.read_text().splitlines()[-2].split(",")[4] == "-0"

    @pytest.mark.parametrize("options", ALL_OPTIONS, ids=repr)
    def test_streamed_records_at_every_chunk_boundary(
            self, tmp_path, monkeypatch, options):
        # 1,201 rows, past the default-mode fixed point, cut into chunks of
        # every small size and of one below, at and one above the row count
        cfg = study_config(kappa=60.0)
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        for attack in (AttackSignal(0.322), AttackSignal(-0.322, 30)):
            trace = simulate(cfg, attack, 1200, options)
            reference_write_trace_csv(trace, want)
            assert write_trace_csv(trace, got) == (1201, len(trace.events))
            assert got.read_bytes() == want.read_bytes()
            for size in (1, 2, 3, 7, 1200, 1201, 1202):
                monkeypatch.setattr(frosim.dynamics, "_TRACE_CHUNK_ROWS", size)
                counts = write_trace_csv(_steps(cfg, attack, 1200, options), got)
                assert counts == (1201, len(trace.events))
                assert got.read_bytes() == want.read_bytes()

    def test_layout_and_events_column(self, tmp_path):
        cfg = study_config()
        trace = simulate(cfg, AttackSignal(0.322), 10)
        out = tmp_path / "trace.csv"
        write_trace_csv(trace, out)
        lines = out.read_text().splitlines()
        assert lines[0] == TRACE_CSV_HEADER
        assert len(lines) == 12  # header + rows 0..10
        first = lines[1].split(",")
        assert first[0] == "0" and first[3] == ""  # rocof empty before window
        trip_row = lines[7].split(",")
        assert "ROCOF_TRIP:g4" in trip_row[7]
        assert ";" in trip_row[7]  # simultaneous trips joined

    def test_significant_digits(self, tmp_path):
        cfg = study_config()
        trace = simulate(cfg, AttackSignal(0.01), 8)
        out = tmp_path / "trace.csv"
        write_trace_csv(trace, out)
        row = out.read_text().splitlines()[3].split(",")
        # reconstructing the float from the text must be lossless at 12 digits
        assert float(row[2]) == pytest.approx(column(trace, "f_hz")[2],
                                              rel=1e-11)
