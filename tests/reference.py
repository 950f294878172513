"""The reference equations of the step kernel, one function per stage.

Composed in the evaluation order of :mod:`frosim.dynamics` (load shedding
against ``f[n]``, ROCOF against the windowed slope, then the governor and
frequency recursions), :func:`eval_ls_relays`, :func:`rocof`,
:func:`eval_rocof_relays`, :func:`governor_step` and :func:`frequency_step`
give the states and records of the fused kernel
:func:`frosim.dynamics.simulate_step` bit for bit.  The tests hold the
kernel to them; the package itself never calls them.

:func:`smallest_feasible_start` is the interval pass of synthesis in its
plain form, which decides every piece at the midpoints of its cuts.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from frosim import (AttackGoal, GeneratorRelay, GridConfig, GridParams,
                    LoadRelay, SimOptions, SystemState)
from frosim.config import capability_bound
from frosim.dynamics import (_H_RESCALE_FLOOR, EventKind, RelayEvent,
                             _check_horizon, _step_constants)


def governor_step(state: SystemState, params: GridParams) -> float:
    """Next governor output: first-order lag toward the droop target."""
    return state.dp_gov + (params.dt / params.governor_t) * (
        -state.delta_f / params.droop_r - state.dp_gov
    )


def frequency_step(
    state: SystemState,
    params: GridParams,
    dp_a_effective: float,
    dp_tg_next: float,
    dp_sh_next: float,
    *,
    literal_signs: bool = False,
    h_effective: Optional[float] = None,
) -> float:
    """Next per-unit frequency deviation.

    ``dp_a_effective`` must already be gated on the attack step (the injection
    magnitude if active at step n, else 0).  ``dp_tg_next`` and ``dp_sh_next``
    are the relay totals after this step's relay evaluation.
    """
    h = params.h_inertia if h_effective is None else h_effective
    dt = params.dt
    shed_term = -dp_sh_next if literal_signs else dp_sh_next
    return (dt / (4.0 * h)) * (
        state.dp_gov * (2.0 - dt / params.governor_t)
        - 2.0 * dp_a_effective
        - state.delta_f * (dt / (params.droop_r * params.governor_t) - 4.0 * h / dt)
        - dp_tg_next
        + shed_term
    )


def rocof(window: Sequence[float], params: GridParams) -> Optional[float]:
    """Windowed frequency slope in Hz/s, or None while history is short.

    *window* is a sequence of per-unit frequency deviations ending at the
    current step.  The M-cycle mean of per-step increments telescopes to
    ``(df[n] - df[n-M]) * f_nominal / (M * dt)``; at least M+1 samples are
    required.
    """
    m = params.rocof_window_m
    if len(window) < m + 1:
        return None
    return (window[-1] - window[-1 - m]) * params.f_nominal / (m * params.dt)


class RelayEvalResult(NamedTuple):
    increment: float
    latches: tuple[bool, ...]
    fired: tuple[int, ...]  # roster indices newly operating this step


def eval_ls_relays(
    f_hz: float,
    latches: tuple[bool, ...],
    loads: Sequence[LoadRelay],
    *,
    literal_accumulation: bool = False,
) -> RelayEvalResult:
    """Operate under-frequency relays against the reconstructed frequency.

    Every relay whose threshold is reached sheds its block once and latches;
    with ``literal_accumulation`` the block is re-added every qualifying step
    (the latch then only marks first operation).
    """
    increment = 0.0
    fired = []
    new_latches = list(latches)
    for i, relay in enumerate(loads):
        if f_hz <= relay.underfreq_threshold:
            if not latches[i]:
                fired.append(i)
                new_latches[i] = True
                increment += relay.p_sh
            elif literal_accumulation:
                increment += relay.p_sh
    return RelayEvalResult(increment, tuple(new_latches), tuple(fired))


def eval_rocof_relays(
    rocof_hz_per_s: Optional[float],
    latches: tuple[bool, ...],
    generators: Sequence[GeneratorRelay],
    *,
    literal_accumulation: bool = False,
) -> RelayEvalResult:
    """Operate ROCOF relays against the windowed slope.

    The comparison is on the slope magnitude: the published trigger is
    one-sided but the studied excursions are falling, so only the magnitude
    reading is consistent with the reported trip behavior.  A ``None`` slope
    (short history) operates nothing.
    """
    if rocof_hz_per_s is None:
        return RelayEvalResult(0.0, latches, ())
    magnitude = abs(rocof_hz_per_s)
    increment = 0.0
    fired = []
    new_latches = list(latches)
    for i, relay in enumerate(generators):
        if magnitude >= relay.rocof_threshold:
            if not latches[i]:
                fired.append(i)
                new_latches[i] = True
                increment += relay.p_tg
            elif literal_accumulation:
                increment += relay.p_tg
    return RelayEvalResult(increment, tuple(new_latches), tuple(fired))


def smallest_feasible_start(
    config: GridConfig,
    goal: AttackGoal,
    direction: int,
    options: SimOptions,
) -> tuple[float, int]:
    """The interval pass with neither the quiet-piece rule nor the roster
    skips at the midpoints: every live piece is cut at each relay
    condition's change points and decided at each sub-piece's midpoint.
    The tests hold :func:`frosim.synth._smallest_feasible_start` to its
    ``(start, peak)``.
    """
    _check_horizon(config, goal.horizon)
    (f_nominal, dt, m, m_dt, droop_r, gain, gov_decay, scale, damping,
     load_roster, _, gen_roster, _, h, dt_rt, total_tg) = _step_constants(config)
    accumulate = options.literal_accumulation
    literal_signs = options.literal_signs
    rescale = options.rescale_inertia
    slope_per_pu = f_nominal / m_dt
    loads = [(thr, thr / f_nominal - 1.0, p_sh,
              goal.matches(RelayEvent(0, relay_id, EventKind.LS_SHED)))
             for thr, p_sh, relay_id in load_roster]
    gens = [(thr, p_tg,
             goal.matches(RelayEvent(0, relay_id, EventKind.ROCOF_TRIP)))
            for thr, p_tg, relay_id in gen_roster]

    first = math.inf
    # (lo, hi, delta_f c0, c1, dp_gov c0, c1, history c0s, c1s, shed total,
    #  tripped total, generator latches, load latches)
    pieces = [(0.0, capability_bound(config.capability), 0.0, 0.0, 0.0, 0.0,
               (0.0,), (0.0,), 0.0, 0.0,
               (False,) * len(gens), (False,) * len(loads))]
    peak = 1
    for n in range(goal.horizon + 1):
        drive = -2.0 * direction if n >= goal.attack_step else 0.0
        advanced = []
        for (lo, hi, d0, d1, g0, g1, w0, w1, sh, tg,
             gen_latches, load_latches) in pieces:
            if lo >= first:
                continue
            windowed = len(w0) > m
            if windowed:
                s0 = (w0[-1] - w0[-1 - m]) * slope_per_pu
                s1 = (w1[-1] - w1[-1 - m]) * slope_per_pu
            cuts = [lo, hi]
            if d1:
                for i, (_, margin, _, _) in enumerate(loads):
                    if accumulate or not load_latches[i]:
                        x = (margin - d0) / d1
                        if lo < x < hi:
                            cuts.append(x)
            if windowed and s1:
                for i, (thr, _, _) in enumerate(gens):
                    if accumulate or not gen_latches[i]:
                        for x in ((thr - s0) / s1, (-thr - s0) / s1):
                            if lo < x < hi:
                                cuts.append(x)
            if len(cuts) > 2:
                cuts = sorted(set(cuts))
            group = None
            for a, b in zip(cuts, cuts[1:]):
                mid = 0.5 * (a + b)
                f_hz = f_nominal * (1.0 + (d0 + d1 * mid))
                ll, shed, met = load_latches, 0.0, False
                for i, (thr, _, p_sh, match) in enumerate(loads):
                    if f_hz <= thr:
                        if not ll[i]:
                            met = met or match
                            ll = ll[:i] + (True,) + ll[i + 1:]
                            shed += p_sh
                        elif accumulate:
                            shed += p_sh
                gl, tripped = gen_latches, 0.0
                if windowed:
                    magnitude = abs(((w0[-1] + w1[-1] * mid)
                                     - (w0[-1 - m] + w1[-1 - m] * mid))
                                    * slope_per_pu)
                    for i, (thr, p_tg, match) in enumerate(gens):
                        if magnitude >= thr:
                            if not gl[i]:
                                met = met or match
                                gl = gl[:i] + (True,) + gl[i + 1:]
                                tripped += p_tg
                            elif accumulate:
                                tripped += p_tg
                if met:
                    first = min(first, a)
                    group = None
                    continue
                key = (sh + shed, tg + tripped, gl, ll)
                if group is not None and group[1] == key:
                    group[0][1] = b
                else:
                    group = ([a, b], key)
                    advanced.append((group[0], key, d0, d1, g0, g1, w0, w1))
        pieces = []
        for ((lo, hi), (sh, tg, gl, ll), d0, d1, g0, g1, w0, w1) in advanced:
            if rescale:
                share = (total_tg - tg) / total_tg if total_tg > 0 else 1.0
                h_rescaled = h * max(share, _H_RESCALE_FLOOR)
                scale = dt / (4.0 * h_rescaled)
                damping = dt_rt - 4.0 * h_rescaled / dt
            nd0 = scale * (g0 * gov_decay - d0 * damping - tg
                           + (-sh if literal_signs else sh))
            nd1 = scale * (g1 * gov_decay + drive - d1 * damping)
            w0, w1 = w0[-m:] + (nd0,), w1[-m:] + (nd1,)
            pieces.append((lo, hi, nd0, nd1,
                           g0 + gain * (-d0 / droop_r - g0),
                           g1 + gain * (-d1 / droop_r - g1),
                           w0, w1, sh, tg, gl, ll))
        peak = max(peak, len(pieces))
        if not pieces:
            break
    return first, peak
