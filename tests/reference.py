"""The reference equations of the step kernel, one function per stage.

Composed in the evaluation order of :mod:`frosim.dynamics` (load shedding
against ``f[n]``, ROCOF against the windowed slope, then the governor and
frequency recursions), :func:`eval_ls_relays`, :func:`rocof`,
:func:`eval_rocof_relays`, :func:`governor_step` and :func:`frequency_step`
give the states and records of the fused kernel
:func:`frosim.dynamics.simulate_step` bit for bit.  The tests hold the
kernel to them; the package itself never calls them.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from frosim import GeneratorRelay, GridParams, LoadRelay, SystemState


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
