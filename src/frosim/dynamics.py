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
new latch tuple or event only when a relay newly operates.  What it reads of
a grid, the recursions' per-grid factors and the rosters as plain tuples
with their highest load-shedding and lowest ROCOF threshold, is built once
per config by :func:`_step_constants` and kept on it; a sweep group runs on
one config, so it builds them once.  These step constants are the one
place a grid's derived quantities are computed: the kernel and the interval
pass of :mod:`frosim.synth` both read them.  A roster whose extreme
threshold the step's frequency or slope does not reach is skipped, and so
is one whose relays have all latched unless ``literal_accumulation`` is on:
no relay in it could operate, so the skip is exact.

Every replay steps the kernel through one loop, :func:`_steps`, which
yields the step records from :func:`initial_state` for as long as its
caller iterates.  The loop carries the state, and yields the records, as
plain tuples in :class:`SystemState` and :class:`StepRecord` field order:
a plain tuple costs a fraction of a named one to build, and most replays
only read a field or two.  Once the injection is on and a step leaves the
state bit for bit as it found it (a settled steady state), the loop stops
stepping and yields that step's record again with only ``n`` and ``t_s``
advanced, which is what stepping on would give.  :func:`simulate` builds
a :class:`StepRecord` of each and keeps them as a :class:`SimTrace`;
:func:`write_trace_csv` writes one CSV row per record of a trace or of the
loop itself, so ``frosim simulate`` streams its records to the file and
holds only a bounded buffer of rows, never the trace.  A search replay of
:mod:`frosim.synth` (:func:`frosim.synth.feasibility`) runs the loop to the
horizon once and builds the trace as :func:`simulate` does only when the
replay meets its goal.
The reference equations, one function per stage, live with the tests in
``tests/reference.py``; composed in the order above they give the kernel's
states and records bit for bit, and the tests hold the kernel to that.

Identical inputs produce bit-identical traces.
"""

from __future__ import annotations

import enum
import math
from functools import cached_property, partial
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

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


class _AttackSignal(NamedTuple):
    dp_a: float
    attack_step: int = 0


class AttackSignal(_AttackSignal):
    """A single persistent setpoint change of ``dp_a`` per-unit at ``attack_step``."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace runs __new__

    def __new__(cls, dp_a, attack_step=0):
        if attack_step < 0:
            raise ValueError(f"attack_step must be >= 0, got {attack_step}")
        return super().__new__(cls, dp_a, attack_step)


#: The do-nothing injection.
NO_ATTACK = AttackSignal(0.0, 0)


class SimOptions(NamedTuple):
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


#: A :class:`StepRecord` of a plain tuple in its field order, without the
#: checks of ``StepRecord._make``, which cost about a third of a record's
#: construction time in a kept trace.
_step_record = partial(tuple.__new__, StepRecord)


def _build_step_constants(params: GridParams,
                          generators: Sequence[GeneratorRelay],
                          loads: Sequence[LoadRelay]) -> tuple:
    """What :func:`simulate_step` reads of a grid, in the order it unpacks
    them: every per-grid factor of its recursions, computed as it would
    compute them, and each roster as ``(threshold, block, id)`` tuples with
    the highest load-shedding and the lowest ROCOF threshold.  It has two
    readers: the kernel, which skips a roster with the extremes, and the
    interval pass of :func:`frosim.synth._smallest_feasible_start` (the
    recursions' factors, R, the total generation, both rosters and both
    extremes).

    A NaN threshold satisfies no comparison, so its relay never operates and
    the extremes leave it out.  The extreme of a roster with no other
    threshold is ``-inf`` (load shedding) or ``inf`` (ROCOF).
    """
    f_nominal, dt, m = params.f_nominal, params.dt, params.rocof_window_m
    h, droop_r, governor_t = params.h_inertia, params.droop_r, params.governor_t
    dt_rt = dt / (droop_r * governor_t)
    load_roster = tuple((ld.underfreq_threshold, ld.p_sh, ld.id)
                        for ld in loads)
    gen_roster = tuple((g.rocof_threshold, g.p_tg, g.id) for g in generators)
    return (
        f_nominal, dt, m, m * dt, droop_r,
        dt / governor_t, 2.0 - dt / governor_t,
        dt / (4.0 * h), dt_rt - 4.0 * h / dt,
        load_roster,
        max((t for t, _, _ in load_roster if t == t), default=-math.inf),
        gen_roster,
        min((t for t, _, _ in gen_roster if t == t), default=math.inf),
        h, dt_rt, sum(g.p_tg for g in generators),
    )


def _step_constants(config: GridConfig) -> tuple:
    """The step constants of *config*, built once and kept on it.

    They are kept in the config's instance ``__dict__``, outside its tuple
    fields: equality, hash and repr never see them.  Configs are immutable,
    so what a kept build was computed from cannot change under it.
    """
    constants = config.__dict__.get("_step_constants")
    if constants is None:
        constants = config._step_constants = _build_step_constants(
            config.params, config.generators, config.loads)
    return constants


def simulate_step(
    state: SystemState,
    config: GridConfig,
    attack: AttackSignal,
    options: SimOptions = DEFAULT_OPTIONS,
) -> tuple[SystemState, StepRecord]:
    """Advance one step; return the successor state and this step's record.

    This is the fused kernel: it follows the module's evaluation order with
    the arithmetic of the reference equations (``tests/reference.py``)
    inlined, the same floating-point operations in the same order, so its
    states and records equal theirs bit for bit.  A step
    on which no relay newly operates shares the incoming latch tuples and
    records ``events=()``.

    Given a :class:`SystemState`, it returns a ``SystemState`` and a
    :class:`StepRecord`.  Given a plain tuple in ``SystemState`` field order,
    as :func:`_steps` carries the state, it returns plain tuples in the same
    field orders, with the same values.  It unpacks *attack* and *options*
    too, which :func:`_steps` passes as plain tuples: they unpack fastest.

    The grid's factors and rosters come from :func:`_step_constants`, built
    once per config and kept on it.  A roster's loop is skipped when no
    relay in it can act: a load relay operates (or, under
    ``literal_accumulation``, re-adds its block) only if ``f_hz <= its
    threshold <= the highest``, a ROCOF relay only if ``|slope| >= its
    threshold >= the lowest``, and without ``literal_accumulation`` a
    latched relay adds nothing, so a roster whose relays have all latched
    is skipped too.  So the skips change nothing, under every option and
    for NaN values.
    """
    (n, delta_f, dp_gov, dp_sh_cum, dp_tg_cum,
     history, gen_latches, load_latches) = state
    dp_a, attack_step = attack
    accumulate, literal_signs, rescale_inertia = options
    try:
        constants = config._step_constants
    except AttributeError:
        constants = _step_constants(config)
    (f_nominal, dt, m, m_dt, droop_r, dt_t, gov_scale, dt_4h, df_scale,
     loads, ls_highest, generators, rocof_lowest,
     h, dt_rt, total_generation) = constants
    events = ()

    # 1-2. load shedding against f[n]
    f_hz = f_nominal * (1.0 + delta_f)
    shed = 0.0
    if f_hz <= ls_highest:
        if accumulate or False in load_latches:
            for i, (threshold, block, relay_id) in enumerate(loads):
                if f_hz <= threshold:
                    if not load_latches[i]:
                        load_latches = (load_latches[:i] + (True,)
                                        + load_latches[i + 1:])
                        events += (RelayEvent(n, relay_id, EventKind.LS_SHED),)
                        shed += block
                    elif accumulate:
                        shed += block
    dp_sh_next = dp_sh_cum + shed

    # 3. ROCOF against the windowed slope, once M+1 samples exist
    tripped = 0.0
    if len(history) <= m:
        slope = None
    else:
        slope = (history[-1] - history[-1 - m]) * f_nominal / m_dt
        # abs() but for the sign of a zero or NaN, which no comparison reads
        magnitude = slope if slope >= 0.0 else -slope
        if magnitude >= rocof_lowest:
            if accumulate or False in gen_latches:
                for i, (threshold, block, relay_id) in enumerate(generators):
                    if magnitude >= threshold:
                        if not gen_latches[i]:
                            gen_latches = (gen_latches[:i] + (True,)
                                           + gen_latches[i + 1:])
                            events += (RelayEvent(n, relay_id,
                                                  EventKind.ROCOF_TRIP),)
                            tripped += block
                        elif accumulate:
                            tripped += block
    dp_tg_next = dp_tg_cum + tripped

    # 4. governor and frequency recursions on the updated relay totals
    dp_a = dp_a if n >= attack_step else 0.0
    gov_next = dp_gov + dt_t * (-delta_f / droop_r - dp_gov)
    if rescale_inertia:
        share = ((total_generation - dp_tg_next) / total_generation
                 if total_generation > 0 else 1.0)
        h = h * max(share, _H_RESCALE_FLOOR)
        dt_4h = dt / (4.0 * h)
        df_scale = dt_rt - 4.0 * h / dt
    df_next = dt_4h * (
        dp_gov * gov_scale
        - 2.0 * dp_a
        - delta_f * df_scale
        - dp_tg_next
        + (-dp_sh_next if literal_signs else dp_sh_next)
    )

    # 5. keep the last M+1 deviations
    history = history[-m:] + (df_next,)

    nxt = (n + 1, df_next, gov_next, dp_sh_next, dp_tg_next, history,
           gen_latches, load_latches)
    record = (n, n * dt, delta_f, f_hz, slope, dp_gov, dp_sh_next, dp_tg_next,
              events)
    if type(state) is tuple:
        return nxt, record
    return SystemState._make(nxt), StepRecord._make(record)


TRACE_CSV_HEADER = "n,t_s,f_hz,rocof_hz_per_s,dp_gov_pu,dp_sh_cum_pu,dp_tg_cum_pu,events"


class _SimTrace(NamedTuple):
    records: tuple[StepRecord, ...]


class SimTrace(_SimTrace):
    """The step records of one run, with its event log.

    Records cover steps 0..horizon inclusive; ``rocof_hz_per_s`` is ``None``
    while fewer than M+1 frequency samples exist.  Relay totals in a record
    include operations at that record's step.  ``delta_f`` carries the
    per-unit deviation exactly as stepped; ``f_hz`` is its Hz reconstruction.
    It has no ``__slots__``: its instance ``__dict__`` caches ``events``.
    """

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


def _same_float(a: float, b: float) -> bool:
    # bit equality: == but for the sign of a zero; NaN matches nothing
    return a == b and (a != 0.0 or math.copysign(1.0, a) == math.copysign(1.0, b))


def _same_state(a: tuple, b: tuple) -> bool:
    """Whether states *a* and *b*, plain or named tuples in
    :class:`SystemState` field order, agree bit for bit in every field but
    ``n``."""
    return (all(map(_same_float, a[1:5], b[1:5]))
            and len(a[5]) == len(b[5])
            and all(map(_same_float, a[5], b[5]))
            and a[6] == b[6] and a[7] == b[7])


def _steps(
    config: GridConfig,
    attack: AttackSignal,
    horizon: int,
    options: SimOptions = DEFAULT_OPTIONS,
) -> Iterator[tuple]:
    """The replay loop: the records of steps 0..horizon from the balanced
    equilibrium, one :func:`simulate_step` each, stepped only as far as the
    caller iterates.  States and records are plain tuples in
    :class:`SystemState` and :class:`StepRecord` field order.

    A step reads ``n`` only through the attack gate and its record's ``n``
    and ``t_s``.  So once the injection is on and a step leaves the rest of
    the state bit for bit as it found it (:func:`_same_state`), every later
    step has that step's record but for ``n`` and ``t_s = n * dt``; the
    loop yields those records, sharing the repeated field values, without
    stepping the kernel.
    """
    _check_horizon(config, horizon)
    state = tuple(initial_state(config))
    attack_step = attack.attack_step
    attack, options = tuple(attack), tuple(options)
    for n in range(horizon + 1):
        nxt, record = simulate_step(state, config, attack, options)
        yield record
        # delta_f alone first: while the state moves, one comparison a step
        if (nxt[1] == state[1] and n >= attack_step
                and _same_state(nxt, state)):
            dt = config.params.dt
            tail = record[2:]
            for k in range(n + 1, horizon + 1):
                yield (k, k * dt) + tail
            return
        state = nxt


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
    return SimTrace(tuple(map(_step_record,
                              _steps(config, attack, horizon, options))))


#: Rows :func:`write_trace_csv` joins into one ``write``: the writer's
#: buffer, so a streamed trace's memory does not grow with its horizon.
_TRACE_CHUNK_ROWS = 4096
_TRACE_ROW = "%d,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%s\n"
_TRACE_ROW_NO_ROCOF = "%d,%.12g,%.12g,,%.12g,%.12g,%.12g,%s\n"


def write_trace_csv(trace: SimTrace | Iterable[tuple],
                    path) -> tuple[int, int]:
    """Write a trace in the stable CSV layout, one row per step record, and
    return the numbers of rows and events written.

    *trace* is a :class:`SimTrace` or any iterable of step records, named or
    plain tuples in :class:`StepRecord` field order, such as :func:`_steps`
    itself, which the writer then steps as it writes: it holds only the
    previous record and up to :data:`_TRACE_CHUNK_ROWS` formatted rows,
    which it joins into one write.

    Numbers carry 12 significant digits.  The ROCOF column is empty while the
    measurement window is not yet full; the events column semicolon-joins
    ``KIND:relay_id`` entries for events at that step.

    A row is one ``%``-format, the same float formatting as ``format(x,
    ".12g")``.  A record whose value fields are the very objects of the
    previous record's, as the records after a fixed point of :func:`_steps`
    are, reuses that row's value text and formats only ``n`` and ``t_s``.
    """
    records = trace.records if isinstance(trace, SimTrace) else trace
    size = _TRACE_CHUNK_ROWS
    rows = n_events = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(TRACE_CSV_HEADER + "\n")
        chunk = []
        prev = row = None
        values = None  # prev's row after its ``n,t_s,``, once a record reuses it
        for r in records:
            (n, t_s, _, f_hz, slope, dp_gov, dp_sh_cum, dp_tg_cum,
             events) = r
            if events:
                n_events += len(events)
            if (prev is not None and f_hz is prev[3] and slope is prev[4]
                    and dp_gov is prev[5] and dp_sh_cum is prev[6]
                    and dp_tg_cum is prev[7] and events is prev[8]):
                if values is None:
                    values = row.split(",", 2)[2]
                row = "%d,%.12g,%s" % (n, t_s, values)
            else:
                values = None
                event_text = (";".join([f"{ev.kind.name}:{ev.relay_id}"
                                        for ev in events])
                              if events else "")
                # an unstable grid that no validation vetted can step into
                # inf - inf, a NaN slope, which is written as missing
                if slope is None or slope != slope:
                    row = _TRACE_ROW_NO_ROCOF % (n, t_s, f_hz, dp_gov, dp_sh_cum,
                                                 dp_tg_cum, event_text)
                else:
                    row = _TRACE_ROW % (n, t_s, f_hz, slope, dp_gov, dp_sh_cum,
                                        dp_tg_cum, event_text)
            chunk.append(row)
            if len(chunk) == size:
                fh.write("".join(chunk))
                rows += size
                chunk.clear()
            prev = r
        fh.write("".join(chunk))
    return rows + len(chunk), n_events
