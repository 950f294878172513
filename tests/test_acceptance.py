"""Acceptance suite: one test per criterion, each printing a verdict line.

Criterion 4 checks the droop steady state after twenty slow-mode time
constants (derived from the eigenvalues in its docstring) and the exact linear
response after ten governor lags.  Criterion 8 is soft and reports pass/warn
without failing.
"""

import math
import random

import numpy as np
import pytest

from frosim import (
    AttackGoal,
    AttackSignal,
    GridParams,
    SweepMode,
    SweepSpec,
    capability_bound,
    feasibility,
    run_sweep,
    simulate,
    synthesize_min_attack,
    trend_report,
)
from conftest import (
    C1_GENERATORS,
    column,
    random_small_config,
    relays_disabled_config,
    study_config,
)
from reference import eval_rocof_relays, rocof

# Case-study frequency tables (Hz) and the reported slope magnitudes (Hz/s)
# for steps 6..12 at M=6, dt=1/60 s.
C1_FREQ = [60.000, 59.991, 59.983, 59.976, 59.968, 59.960, 59.952,
           59.944, 59.937, 59.930, 59.922, 59.915, 59.901]
C1_ROCOF_MAG = [0.480, 0.470, 0.460, 0.460, 0.460, 0.450, 0.510]
C2_FREQ = [60.000, 59.991, 59.983, 59.974, 59.966, 59.957, 59.951,
           59.941, 59.933, 59.924, 59.916, 59.908, 59.898]
C2_ROCOF_MAG = [0.490, 0.500, 0.500, 0.500, 0.500, 0.490, 0.530]

# Frozen sweep settings for criteria 7 and 8: the calibration factor puts
# mid-grid capability around the mid-grid minimal injections, the horizon is
# the 12-cycle case-study observation window, and the sample count keeps
# bucket-rate sampling noise well inside the two-point slack band.
SWEEP_COUNT = 20000
SWEEP_SEED = 1
SWEEP_KAPPA = 2.0
SWEEP_HORIZON = 12

PARAMS = GridParams(h_inertia=2.0, droop_r=0.2, governor_t=0.2)


def hz_to_pu(values):
    return [v / 60.0 - 1.0 for v in values]


@pytest.fixture(scope="module")
def sweep_outcome():
    spec = SweepSpec(
        base=study_config(kappa=SWEEP_KAPPA),
        goal=AttackGoal(horizon=SWEEP_HORIZON),
        mode=SweepMode.RANDOM,
        count=SWEEP_COUNT,
        seed=SWEEP_SEED,
    )
    records = run_sweep(spec)
    return records, trend_report(records)


def test_criterion_1_rocof_column_reproduction():
    """Feeding the tabulated frequency columns into the slope measurement
    reproduces the tabulated ROCOF columns within 0.01 Hz/s."""
    for freq, mags, label in [(C1_FREQ, C1_ROCOF_MAG, "C1"),
                              (C2_FREQ, C2_ROCOF_MAG, "C2")]:
        window = hz_to_pu(freq)
        for n in range(6, 13):
            got = rocof(window[:n + 1], PARAMS)
            want = mags[n - 6]
            assert abs(abs(got) - want) <= 0.01, (
                f"{label} n={n}: |{got:.4f}| vs {want}"
            )
    print("ACCEPTANCE 1 PASS: both tabulated ROCOF columns reproduced "
          "within 0.01 Hz/s")


def test_criterion_2_trip_logic():
    """A 0.510 Hz/s magnitude against settings {0.5, 0.6, 1.2} trips exactly
    the 0.5 Hz/s relay, removing 1.0 per-unit."""
    res = eval_rocof_relays(-0.510, (False, False, False), C1_GENERATORS)
    assert res.latches == (True, False, False)
    assert res.increment == pytest.approx(1.0, abs=0.0)
    assert len(res.fired) == 1
    print("ACCEPTANCE 2 PASS: 0.510 Hz/s trips only the 0.5 Hz/s relay "
          "(1.0 pu removed)")


def test_criterion_3_quiescence():
    """Zero injection over 10,000 steps: a bit-flat 60.000 Hz trace with
    zero events."""
    trace = simulate(study_config(), AttackSignal(0.0), 10000)
    assert np.all(column(trace, "f_hz") == 60.0)
    assert np.all(column(trace, "delta_f") == 0.0)
    assert np.all(column(trace, "dp_gov") == 0.0)
    assert not trace.events
    print("ACCEPTANCE 3 PASS: 10,000-step zero-injection trace is bit-flat "
          "with zero events")


def test_criterion_4_droop_steady_state_within_ten_governor_lags():
    """A constant injection dp with relays out of reach settles at
    df = -R*dp, and after ten governor lags the trace is the exact linear
    response.

    The coupled frequency/governor pair has eigenvalues
    lambda = (-1/T +/- sqrt(1/T^2 - 2/(H*R*T)))/2.  Its slow mode decays
    with time constant tau_slow = 1/|Re lambda_slow|, which is at least 2*T
    (critical damping) and approaches 2*H*R when overdamped (0.8..20 s over
    the studied grid), so ten governor lags leave a transient of at least
    ~e^-5 of R*|dp|.  Each draw therefore runs ceil(20*tau_slow/dt) steps:
    e^-20 * max R*|dp| is ~4e-10 pu, far below the 1e-6 pu demand.

    At step ceil(10*T/dt) of the same trace, df must equal the closed-form
    solution x* + A^N (x0 - x*), x0 = 0, of the module's governor/frequency
    update equations within 1e-12 pu: the value the model promises after ten
    lags.
    """
    rng = random.Random(2024)
    magnitudes = [0.05, -0.05, 0.2, -0.2]
    worst = 0.0
    worst_case = None
    worst_lag = 0.0
    residuals = []
    for i in range(100):
        h = rng.uniform(2.0, 10.0)
        r = rng.uniform(0.2, 1.0)
        t = rng.uniform(0.2, 1.0)
        dp = magnitudes[i % 4]
        cfg = relays_disabled_config(h=h, r=r, t=t)
        dt = cfg.params.dt

        disc = 1.0 / t**2 - 2.0 / (h * r * t)
        re_slow = (-1.0 / t + math.sqrt(disc)) / 2.0 if disc >= 0 else -0.5 / t
        settle_steps = math.ceil(20.0 / abs(re_slow) / dt)
        lag_steps = math.ceil(10.0 * t / dt)
        delta_f = column(simulate(cfg, AttackSignal(dp), settle_steps),
                         "delta_f")

        residual = abs(delta_f[-1] + r * dp)
        residuals.append(residual)
        if residual > worst:
            worst, worst_case = residual, (h, r, t, dp)

        # state (gov, df): gov' = gov + (dt/T)(-df/R - gov) and
        # df' = (dt/4H)(gov(2 - dt/T) - 2dp - df(dt/(RT) - 4H/dt))
        a = np.array([
            [1.0 - dt / t, -dt / (r * t)],
            [dt * (2.0 - dt / t) / (4.0 * h), 1.0 - dt * dt / (4.0 * h * r * t)],
        ])
        x_star = np.array([dp, -r * dp])
        x_lag = x_star - np.linalg.matrix_power(a, lag_steps) @ x_star
        worst_lag = max(worst_lag, abs(delta_f[lag_steps] - x_lag[1]))

    ok = worst <= 1e-6 and worst_lag <= 1e-12
    line = (f"max residual {worst:.3e} pu after 20*tau_slow at (H,R,T,dp)="
            f"({worst_case[0]:.2f},{worst_case[1]:.2f},"
            f"{worst_case[2]:.2f},{worst_case[3]:+.2f}), "
            f"median {sorted(residuals)[50]:.3e}; "
            f"max ten-lag deviation from closed form {worst_lag:.3e} pu")
    print(f"ACCEPTANCE 4 {'PASS' if ok else 'FAIL'}: {line}")
    assert ok, "droop settling or ten-lag response out of tolerance: " + line


def test_criterion_5_pre_event_linearity_and_odd_symmetry():
    """Scaling the injection scales the pre-event deviation trace within
    1e-12 relative; negating it mirrors the trace."""
    rng = random.Random(77)
    lam = 3.7
    for _ in range(50):
        cfg = study_config(
            h=rng.uniform(2.0, 10.0), r=rng.uniform(0.2, 1.0),
            t=rng.uniform(0.2, 1.0), kappa=60.0,
        )
        a = rng.uniform(0.005, 0.05)
        base = simulate(cfg, AttackSignal(a), 240)
        scaled = simulate(cfg, AttackSignal(lam * a), 240)
        negated = simulate(cfg, AttackSignal(-a), 240)
        cut = min(trace.first_event.step if trace.first_event else 241
                  for trace in (base, scaled, negated))
        # a trip can occur no earlier than the first full window (step 6),
        # so at least six pre-event rows always remain comparable
        assert cut >= 6
        b = column(base, "delta_f")[:cut]
        s = column(scaled, "delta_f")[:cut]
        n = column(negated, "delta_f")[:cut]
        assert np.all(np.abs(s - lam * b) <= 1e-12 * np.abs(lam * b))
        assert np.all(np.abs(n + b) <= 1e-12 * np.abs(b))
    print("ACCEPTANCE 5 PASS: 50 random grids scale linearly and mirror "
          "oddly before the first event (<= 1e-12 relative)")


def test_criterion_6_synthesizer_soundness():
    """Exact synthesis agrees with a plain smallest-first scan at 1e-4
    resolution on 50 random grids, and every success certificate replays
    identically."""
    resolution = 1e-4
    rng = random.Random(314)
    feasible_count = 0
    for _ in range(50):
        cfg = random_small_config(rng)
        goal = AttackGoal(horizon=60)

        # independent oracle: walk the magnitude grid from zero
        bound = capability_bound(cfg.capability)
        oracle = None
        k = 0
        while k * resolution <= bound:
            if feasibility(cfg, k * resolution, goal).success:
                oracle = k * resolution
                break
            k += 1

        out = synthesize_min_attack(cfg, goal, tolerance=resolution)

        if oracle is None:
            assert not out.success, f"search found {out.vector.dp_a}, oracle none"
            continue
        assert out.success, f"oracle found {oracle}, search none"
        assert abs(out.vector.dp_a - oracle) <= resolution + 1e-12
        feasible_count += 1

        replay = feasibility(cfg, out.vector.dp_a, goal)
        assert replay.success
        assert replay.vector.outcome == out.vector.outcome
        assert np.array_equal(column(replay.vector.trace, "delta_f"),
                              column(out.vector.trace, "delta_f"))
    assert feasible_count >= 10
    print(f"ACCEPTANCE 6 PASS: search matches the scan oracle within one "
          f"resolution step on 50 grids ({feasible_count} feasible), all "
          f"certificates replay bit-identically")


def test_criterion_7_trend_reproduction(sweep_outcome):
    """A seeded random sweep reproduces the five expected correlations:
    success counts weakly nonincreasing in H and R, weakly nondecreasing in
    T, ToI, and AD, inside a two-percentage-point slack band."""
    records, report = sweep_outcome
    assert len(records) >= 2000
    assert all(r.status == "ok" for r in records)
    summary = []
    for name, trend in report.parameters.items():
        summary.append(f"{name}={trend.verdict}")
        assert trend.matches_expected, (
            f"{name}: verdict {trend.verdict}, expected {trend.expected}; "
            f"rates={[round(b.success_rate, 4) for b in trend.buckets]}"
        )
    print(f"ACCEPTANCE 7 PASS: {len(records)} combinations "
          f"(seed={SWEEP_SEED}), verdicts " + ", ".join(summary))


def test_criterion_8_attack_type_split_soft(sweep_outcome):
    """Soft check of the inertia/attack-type relationship: low-inertia cells
    should show both trip kinds, high-inertia cells trips only.

    Reported as pass/warn because the split depends on the open capability
    calibration: classifying each combination by its *minimal* winning
    injection makes the trip route strictly cheaper than the shedding route
    at short windows for every inertia value, so shedding rarely labels a
    record even where it is reachable at larger injections.
    """
    _, report = sweep_outcome
    low = [s for s in report.h_type_split if s.h < 4.0]
    high = [s for s in report.h_type_split if s.h >= 4.0]
    low_ok = all(s.rocof > 0 and s.ls > 0 for s in low)
    high_ok = all(s.rocof > 0 and s.ls == 0 for s in high)
    split_text = "; ".join(
        f"H={s.h:g}: rocof={s.rocof}, ls={s.ls}" for s in report.h_type_split
    )
    if low_ok and high_ok:
        print(f"ACCEPTANCE 8 PASS: {split_text}")
    else:
        print(f"ACCEPTANCE 8 WARN: expected both kinds under H=4 and "
              f"trips only at H>=4; measured {split_text}")
    assert high[-1].rocof > 0  # the sweep must at least produce trips
