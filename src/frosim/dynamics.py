"""Discrete-time frequency dynamics with governor, shedding, and ROCOF relays.

The engine advances two coupled recursions.  The governor integrates a
first-order lag toward its droop target::

    gov[n+1] = gov[n] + (dt/T) * (-df[n]/R - gov[n])

and the frequency deviation (per-unit of nominal) responds to the net power
imbalance seen by the equivalent machine::

    df[n+1] = (dt/4H) * ( gov[n]*(2 - dt/T) - 2*dp_a
                          - df[n]*(dt/(R*T) - 4H/dt)
                          - trip[n+1] -/+ shed[n+1] )

``dp_a`` is the injected setpoint change: it switches on at the attack step
and persists (operator setpoints do not revert on their own).  ``trip`` and
``shed`` are the cumulative relay totals.  By default shed load enters with
the frequency-raising sign and tripped generation with the frequency-lowering
sign, which is the physically correct convention; ``SimOptions.literal_signs``
applies both with the lowering sign instead, for comparison against the
as-published update form.

Per step ``n`` the evaluation order is fixed:

1. reconstruct ``f[n]`` in Hz from ``df[n]``;
2. evaluate load-shedding relays against ``f[n]``;
3. evaluate ROCOF relays against the windowed slope of the last M cycles
   (available once n >= M);
4. advance the governor and frequency recursions using the just-updated
   relay totals;
5. push ``df[n+1]`` into the history window.

:func:`simulate_step` is the fused kernel that every replay runs: one
function with the relay loops and both recursions inlined, which allocates a
new latch tuple or event only when a relay newly operates.  Every replay
steps it through one loop, :func:`_steps`, which yields the step records
from :func:`initial_state` for as long as its caller iterates.
:func:`simulate` keeps them all as a :class:`SimTrace`, and
:func:`write_trace_csv` writes one CSV row per record; the search loops of
:mod:`frosim.synth` stop at the first event that meets their goal.
:func:`eval_ls_relays`, :func:`rocof`, :func:`eval_rocof_relays`,
:func:`governor_step` and :func:`frequency_step` are the reference equations,
one per stage; composed in the order above they give the kernel's states and
records bit for bit, and the tests hold the kernel to that.

Identical inputs produce bit-identical traces.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Optional, Sequence

from .config import GeneratorRelay, GridConfig, GridParams, LoadRelay
from .errors import HorizonTooShort

#: Fraction of the original inertia kept as a floor when inertia rescaling is
#: enabled and every generator has tripped.
_H_RESCALE_FLOOR = 0.01


class EventKind(enum.Enum):
    """What a relay did: tripped a generator or shed a load block."""

    ROCOF_TRIP = "rocof"
    LS_SHED = "ls"

    @property
    def json_name(self) -> str:
        return self.value


class RelayEvent(NamedTuple):
    step: int
    relay_id: str
    kind: EventKind


@dataclass(frozen=True)
class AttackSignal:
    """A single persistent setpoint change of ``dp_a`` per-unit at ``attack_step``."""

    dp_a: float
    attack_step: int = 0

    def __post_init__(self):
        if self.attack_step < 0:
            raise ValueError(f"attack_step must be >= 0, got {self.attack_step}")


#: The do-nothing injection.
NO_ATTACK = AttackSignal(0.0, 0)


@dataclass(frozen=True)
class SimOptions:
    """Behavioral switches for the relay/inertia modeling.

    literal_accumulation -- relays re-add their block every step their trigger
        condition holds, instead of operating once and latching.
    literal_signs -- apply the shed total with the frequency-lowering sign
        (the as-published update) instead of the physical raising sign.
    rescale_inertia -- scale H by the surviving-generation share after trips
        instead of holding it constant.
    """

    literal_accumulation: bool = False
    literal_signs: bool = False
    rescale_inertia: bool = False


DEFAULT_OPTIONS = SimOptions()


class SystemState(NamedTuple):
    """Dynamic state at the start of step ``n``.

    ``freq_history`` holds the last (at most M+1) per-unit frequency
    deviations including the current one.  ``dp_sh_cum`` / ``dp_tg_cum`` are
    the cumulative shed-load and tripped-generation totals; with latching
    enabled they equal the sum of blocks over latched relays.
    """

    n: int
    delta_f: float
    dp_gov: float
    dp_sh_cum: float
    dp_tg_cum: float
    freq_history: tuple[float, ...]
    gen_latches: tuple[bool, ...]
    load_latches: tuple[bool, ...]


def initial_state(config: GridConfig) -> SystemState:
    """Balanced pre-attack grid: zero deviation, idle governor, no latches."""
    return SystemState(
        n=0,
        delta_f=0.0,
        dp_gov=0.0,
        dp_sh_cum=0.0,
        dp_tg_cum=0.0,
        freq_history=(0.0,),
        gen_latches=(False,) * len(config.generators),
        load_latches=(False,) * len(config.loads),
    )


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


class StepRecord(NamedTuple):
    """Observation of step n: the trace row, with post-event relay totals."""

    n: int
    t_s: float
    delta_f: float
    f_hz: float
    rocof_hz_per_s: Optional[float]
    dp_gov: float
    dp_sh_cum: float
    dp_tg_cum: float
    events: tuple[RelayEvent, ...]


_new_tuple = tuple.__new__


def simulate_step(
    state: SystemState,
    config: GridConfig,
    attack: AttackSignal,
    options: SimOptions = DEFAULT_OPTIONS,
) -> tuple[SystemState, StepRecord]:
    """Advance one step; return the successor state and this step's record.

    This is the fused kernel: it follows the module's evaluation order with
    the arithmetic of :func:`eval_ls_relays`, :func:`rocof`,
    :func:`eval_rocof_relays`, :func:`governor_step` and
    :func:`frequency_step` inlined, the same floating-point operations in the
    same order, so its states and records equal theirs bit for bit.  A step
    on which no relay newly operates shares the incoming latch tuples and
    records ``events=()``.
    """
    (n, delta_f, dp_gov, dp_sh_cum, dp_tg_cum,
     history, gen_latches, load_latches) = state
    params = config.params
    f_nominal = params.f_nominal
    dt = params.dt
    m = params.rocof_window_m
    accumulate = options.literal_accumulation
    events = ()

    # 1-2. load shedding against f[n]
    f_hz = f_nominal * (1.0 + delta_f)
    shed = 0.0
    for i, relay in enumerate(config.loads):
        if f_hz <= relay.underfreq_threshold:
            if not load_latches[i]:
                load_latches = load_latches[:i] + (True,) + load_latches[i + 1:]
                events += (RelayEvent(n, relay.id, EventKind.LS_SHED),)
                shed += relay.p_sh
            elif accumulate:
                shed += relay.p_sh
    dp_sh_next = dp_sh_cum + shed

    # 3. ROCOF against the windowed slope, once M+1 samples exist
    tripped = 0.0
    if len(history) < m + 1:
        slope = None
    else:
        slope = (history[-1] - history[-1 - m]) * f_nominal / (m * dt)
        magnitude = abs(slope)
        for i, relay in enumerate(config.generators):
            if magnitude >= relay.rocof_threshold:
                if not gen_latches[i]:
                    gen_latches = gen_latches[:i] + (True,) + gen_latches[i + 1:]
                    events += (RelayEvent(n, relay.id, EventKind.ROCOF_TRIP),)
                    tripped += relay.p_tg
                elif accumulate:
                    tripped += relay.p_tg
    dp_tg_next = dp_tg_cum + tripped

    # 4. governor and frequency recursions on the updated relay totals
    h = params.h_inertia
    if options.rescale_inertia:
        total = sum(g.p_tg for g in config.generators)
        share = (total - dp_tg_next) / total if total > 0 else 1.0
        h = h * max(share, _H_RESCALE_FLOOR)
    governor_t = params.governor_t
    droop_r = params.droop_r
    dp_a = attack.dp_a if n >= attack.attack_step else 0.0
    gov_next = dp_gov + (dt / governor_t) * (-delta_f / droop_r - dp_gov)
    df_next = (dt / (4.0 * h)) * (
        dp_gov * (2.0 - dt / governor_t)
        - 2.0 * dp_a
        - delta_f * (dt / (droop_r * governor_t) - 4.0 * h / dt)
        - dp_tg_next
        + (-dp_sh_next if options.literal_signs else dp_sh_next)
    )

    # 5. keep the last M+1 deviations
    if len(history) > m:
        history = history[-m:] + (df_next,)
    else:
        history = history + (df_next,)

    # tuple.__new__ fills the named tuples without the frame of their
    # generated __new__, as their _make does
    return (
        _new_tuple(SystemState, (n + 1, df_next, gov_next, dp_sh_next,
                                 dp_tg_next, history, gen_latches, load_latches)),
        _new_tuple(StepRecord, (n, n * dt, delta_f, f_hz, slope, dp_gov,
                                dp_sh_next, dp_tg_next, events)),
    )


TRACE_CSV_HEADER = "n,t_s,f_hz,rocof_hz_per_s,dp_gov_pu,dp_sh_cum_pu,dp_tg_cum_pu,events"


@dataclass(frozen=True)
class SimTrace:
    """The step records of one run, with its event log.

    Records cover steps 0..horizon inclusive; ``rocof_hz_per_s`` is ``None``
    while fewer than M+1 frequency samples exist.  Relay totals in a record
    include operations at that record's step.  ``delta_f`` carries the
    per-unit deviation exactly as stepped; ``f_hz`` is its Hz reconstruction.
    """

    records: tuple[StepRecord, ...]

    @cached_property
    def events(self) -> tuple[RelayEvent, ...]:
        return tuple(ev for r in self.records for ev in r.events)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def first_event(self) -> Optional[RelayEvent]:
        return self.events[0] if self.events else None


def _check_horizon(config: GridConfig, horizon: int) -> None:
    m = config.params.rocof_window_m
    if horizon < m:
        raise HorizonTooShort(
            f"horizon {horizon} is shorter than one ROCOF window (M={m})"
        )


def _steps(
    config: GridConfig,
    attack: AttackSignal,
    horizon: int,
    options: SimOptions = DEFAULT_OPTIONS,
) -> Iterator[StepRecord]:
    """The replay loop: the records of steps 0..horizon from the balanced
    equilibrium, one :func:`simulate_step` each, stepped only as far as the
    caller iterates."""
    _check_horizon(config, horizon)
    state = initial_state(config)
    for _ in range(horizon + 1):
        state, record = simulate_step(state, config, attack, options)
        yield record


def simulate(
    config: GridConfig,
    attack: AttackSignal,
    horizon: int,
    options: SimOptions = DEFAULT_OPTIONS,
) -> SimTrace:
    """Run from the balanced equilibrium for *horizon* steps.

    Returns a trace with horizon+1 rows (steps 0..horizon); relays are also
    evaluated on the terminal step so a trip exactly at the horizon is
    recorded.  Raises :class:`HorizonTooShort` when the horizon does not
    cover one full ROCOF window.
    """
    return SimTrace(tuple(_steps(config, attack, horizon, options)))


def write_trace_csv(trace: SimTrace, path) -> None:
    """Write the trace in the stable CSV layout, one row per step record.

    Numbers carry 12 significant digits.  The ROCOF column is empty while the
    measurement window is not yet full; the events column semicolon-joins
    ``KIND:relay_id`` entries for events at that step.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(TRACE_CSV_HEADER + "\n")
        for r in trace.records:
            # an unstable grid that no validation vetted can step into
            # inf - inf, a NaN slope, which is written as missing
            slope = r.rocof_hz_per_s
            slope = "" if slope is None or math.isnan(slope) else f"{slope:.12g}"
            events = ";".join(f"{ev.kind.name}:{ev.relay_id}" for ev in r.events)
            fh.write(f"{r.n},{r.t_s:.12g},{r.f_hz:.12g},{slope},{r.dp_gov:.12g},"
                     f"{r.dp_sh_cum:.12g},{r.dp_tg_cum:.12g},{events}\n")
