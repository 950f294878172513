"""Attack synthesis: find setpoint injections that falsely operate a relay.

Feasibility of a candidate injection is decided by replaying it through the
deterministic simulator and checking the event log against the goal.  The
single free variable is the injection magnitude, and every goal finds its
minimum the same way, as a constraint solver finds one model.  Once the
earlier relay outcomes are fixed, every relay condition is linear in the
magnitude, so one pass of the model over intervals of it
(:func:`_smallest_feasible_start`) finds the smallest feasible magnitude
per direction.  ``ROCOF_ONLY``, ``LS_ONLY`` and ``SPECIFIC`` can be met
only after earlier non-matching events have broken linearity, so their
feasible set need not be an up-set in magnitude.  Under ``ANY`` every event
counts, and until the first one the deviation trace is linear and odd in
``dp_a``, so its feasible set is an up-set.

Every goal's answer is the smallest :data:`RECORD_DIGITS`-significant-digit
decimal that replays, so it also replays from a written record, and one
record decimal lower fails in every allowed direction.  The one exception
is a capability bound between the boundary and the next record decimal:
the bound itself replays and is the answer, and a record writes it in
full.  The pass's minimum, rounded up to a record decimal, is certified by
one walk per direction, :func:`_certify`, which gallops away from the
start's verdict and bisects back over record decimals to a failure just
below a success, as a solver's proof that nothing smaller exists.

:func:`exhaustive_min_attack` scans a magnitude grid instead and assumes
nothing.  :func:`probe_monotonicity` samples feasibility on a coarse grid, a
diagnostic that synthesis does not use.

Every search replays a candidate magnitude through :func:`feasibility`, as
a constraint solver answers sat together with the model that witnesses it:
one replay gives the verdict and, on a success, the trace as its
certificate.  The exact search keeps each outcome under its direction and
magnitude, so no magnitude is replayed twice and the answer is the outcome
the search already holds.  A replay depends on the config only through its
dynamics and relays, never on the capability, so :func:`_min_attacks`
answers the capability bounds of a sweep's (H, R, T) group in one call,
over a memo that lives for that call: per direction, one interval pass over
the config's own bound, which never runs again, and every replay.  Distinct
bounds are answered once each, in falling order.  A bound far below the
pass's start replays nothing, for every goal.  Once a direction's walk has
found its start itself, every later bound at or above the start takes it
with no walk; any other bound walks, over replays the memo mostly holds.
:func:`synthesize_min_attack` is its one-bound call.  Every replay steps
through the one loop of :mod:`frosim.dynamics`.
"""

from __future__ import annotations

import enum
import math
import sys
from decimal import ROUND_CEILING, Context, Decimal
from typing import NamedTuple, Optional

from .config import GridConfig, capability_bound
from .dynamics import (
    _H_RESCALE_FLOOR,
    AttackSignal,
    EventKind,
    RelayEvent,
    SimOptions,
    DEFAULT_OPTIONS,
    SimTrace,
    _check_horizon,
    _step_constants,
    _step_record,
    _steps,
)
# Unused here, but bench/tracer.py wraps them under these names.
from .dynamics import initial_state, simulate, simulate_step  # noqa: F401
from .errors import CapabilityExceeded, InvalidParameter

#: Significant digits of a recorded injection magnitude (the sweep records
#: CSV).  Every exact answer is a decimal of this many digits, so the value a
#: record holds is the value that was certified.
RECORD_DIGITS = 12

# Rounds up to a record decimal.
_RECORD = Context(prec=RECORD_DIGITS, rounding=ROUND_CEILING)
# Exact for the sums, halves and unit steps of record decimals, whatever the
# caller's decimal context.
_EXACT = Context(prec=2 * RECORD_DIGITS)
# A start times this lies about 1,000 record units below it, far outside the
# interval pass's error budget.
_FAR = Decimal("0.999999999")


class TargetKind(enum.Enum):
    ANY = "any"
    ROCOF_ONLY = "rocof"
    LS_ONLY = "ls"
    SPECIFIC = "specific"


class Sign(enum.Enum):
    """Direction of the perceived generation change."""

    POSITIVE = "positive"
    NEGATIVE = "negative"
    EITHER = "either"


class _AttackGoal(NamedTuple):
    horizon: int
    target_kind: TargetKind = TargetKind.ANY
    sign: Sign = Sign.POSITIVE
    specific_relay_id: Optional[str] = None
    attack_step: int = 0


class AttackGoal(_AttackGoal):
    """What counts as a successful attack and within how many steps."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace runs __new__

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.target_kind is TargetKind.SPECIFIC and not self.specific_relay_id:
            raise ValueError("SPECIFIC goal requires specific_relay_id")
        if self.attack_step < 0:
            raise ValueError(f"attack_step must be >= 0, got {self.attack_step}")
        return self

    def directions(self) -> tuple[int, ...]:
        if self.sign is Sign.POSITIVE:
            return (1,)
        if self.sign is Sign.NEGATIVE:
            return (-1,)
        return (1, -1)

    def matches(self, event: RelayEvent) -> bool:
        if self.target_kind is TargetKind.ANY:
            return True
        if self.target_kind is TargetKind.ROCOF_ONLY:
            return event.kind is EventKind.ROCOF_TRIP
        if self.target_kind is TargetKind.LS_ONLY:
            return event.kind is EventKind.LS_SHED
        return event.relay_id == self.specific_relay_id


def check_relay_id(config: GridConfig, goal: AttackGoal) -> None:
    """Raise :class:`InvalidParameter` when a ``SPECIFIC`` goal names no
    generator or load relay of *config*; no search could then succeed."""
    if goal.target_kind is TargetKind.SPECIFIC and goal.specific_relay_id not in {
            relay.id for relay in (*config.generators, *config.loads)}:
        raise InvalidParameter("relay_id", "names no relay of the grid",
                               goal.specific_relay_id)


class AttackOutcome(NamedTuple):
    relay_id: str
    kind: EventKind
    trip_step: int


class AttackVector(NamedTuple):
    """A synthesized injection together with its certified effect."""

    dp_a: float
    attack_step: int
    outcome: AttackOutcome
    trace: SimTrace


class FeasibilityOutcome(NamedTuple):
    vector: Optional[AttackVector] = None

    @property
    def success(self) -> bool:
        return self.vector is not None


def _check_capability(config: GridConfig, dp_a: float) -> None:
    bound = capability_bound(config.capability)
    if abs(dp_a) > bound:
        raise CapabilityExceeded(
            f"|dp_a|={abs(dp_a)} exceeds capability bound {bound}"
        )


#: The outcome of every replay that meets no goal, shared.
_NO_ATTACK = FeasibilityOutcome()


def feasibility(
    config: GridConfig,
    dp_a: float,
    goal: AttackGoal,
    options: SimOptions = DEFAULT_OPTIONS,
) -> FeasibilityOutcome:
    """Decide whether injecting *dp_a* meets *goal* within its horizon.

    One replay to the horizon; on a success its trace, as
    :func:`~frosim.dynamics.simulate` builds it, is the certificate.
    Raises :class:`CapabilityExceeded` when the magnitude is outside the
    attacker's bound; that is a caller bug, not an unsuccessful attack.
    """
    _check_capability(config, dp_a)
    records = list(_steps(config, AttackSignal(dp_a, goal.attack_step),
                          goal.horizon, options))
    event = next((ev for record in records if record[8]
                  for ev in record[8] if goal.matches(ev)), None)
    if event is None:
        return _NO_ATTACK
    vector = AttackVector(
        dp_a=dp_a,
        attack_step=goal.attack_step,
        outcome=AttackOutcome(event.relay_id, event.kind, event.step),
        trace=SimTrace(tuple(map(_step_record, records))),
    )
    return FeasibilityOutcome(vector)


def _replayed(config, direction, magnitude, goal, options,
              outcomes: dict) -> FeasibilityOutcome:
    """:func:`feasibility` of ``direction * magnitude`` (a zero keeps the
    direction's sign), replayed only when *outcomes*, one direction's memo,
    lacks *magnitude*.  Replays read neither the capability nor the
    tolerance, so bounds of one config, with the same goal and options,
    may share one memo."""
    outcome = outcomes.get(magnitude)
    if outcome is None:
        outcome = outcomes[magnitude] = feasibility(
            config, direction * magnitude, goal, options)
    return outcome


class DirectionProbe(NamedTuple):
    """Feasibility samples along one injection direction."""

    direction: int
    magnitudes: tuple[float, ...]
    feasible: tuple[bool, ...]
    monotone: bool
    bracket: Optional[tuple[float, float]]  # (largest infeasible, smallest feasible)


class MonotonicityReport(NamedTuple):
    directions: dict[int, DirectionProbe]

    @property
    def monotone(self) -> bool:
        return all(p.monotone for p in self.directions.values())

    @property
    def any_feasible(self) -> bool:
        return any(p.bracket is not None for p in self.directions.values())


def _probe_direction(
    config: GridConfig,
    goal: AttackGoal,
    direction: int,
    samples: int,
    options: SimOptions,
) -> DirectionProbe:
    bound = capability_bound(config.capability)
    # the last sample is the bound itself: bound*i/i can round above it
    magnitudes = tuple(bound * i / (samples - 1)
                       for i in range(samples - 1)) + (bound,)
    feasible = [feasibility(config, direction * mag, goal, options).success
                for mag in magnitudes]
    first = next((i for i, ok in enumerate(feasible) if ok), None)
    monotone = first is None or all(feasible[first:])
    bracket = None
    if first is not None:
        lo = magnitudes[first - 1] if first > 0 else 0.0
        bracket = (lo, magnitudes[first])
    return DirectionProbe(direction, magnitudes, tuple(feasible), monotone, bracket)


def probe_monotonicity(
    config: GridConfig,
    goal: AttackGoal,
    samples: int = 17,
    options: SimOptions = DEFAULT_OPTIONS,
) -> MonotonicityReport:
    """Sample feasibility on evenly spaced magnitudes in [0, capability bound].

    Reports, per direction in the goal, whether the observed success set is an
    up-set (everything above the smallest success also succeeds).  A
    diagnostic: synthesis does not call it, and a gap narrower than the
    sample spacing goes unseen.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    return MonotonicityReport({
        d: _probe_direction(config, goal, d, samples, options)
        for d in goal.directions()
    })


def _check_step(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise InvalidParameter(name, "must be finite and > 0", value)


def _smallest_feasible_start(
    config: GridConfig,
    goal: AttackGoal,
    direction: int,
    options: SimOptions,
) -> tuple[float, int]:
    """The smallest magnitude ``x`` in [0, capability bound] at which
    injecting ``direction * x`` meets *goal*, ``inf`` when none does, with
    the peak number of pieces live at one step.

    One pass of the model over pieces of [0, bound].  On a piece the relay
    totals and latches are fixed values, so the deviation, the governor
    output and the ROCOF history are affine in ``x`` (pairs ``c0 + c1*x``)
    and every relay condition changes truth at most at one point (load
    shedding) or two (ROCOF, ``|slope| >= thr``).  Each step cuts every
    piece at those points and decides each sub-piece's relays at its
    midpoint with the kernel's comparisons and roster skips.  A sub-piece
    where a matching relay newly operates is feasible and leaves the pass;
    the others advance by the kernel's recursions applied to both
    coefficients.  Adjacent sub-pieces of one piece that end the step with
    equal totals and latches advance as one: their futures are the same
    affine functions.  Pieces of different parents never merge, since equal
    latches set at different steps leave different constant terms.  The
    options change only terms that are constant on a piece (the inertia
    rescale, the shed sign, re-accumulation).

    A piece on which no relay can act is *quiet* and advances whole as one
    group, with no cut or decision: at both ends, so on all of it, the
    deviation lies above the highest load-shedding margin and, once the
    window is full, the slope's magnitude below the lowest ROCOF threshold,
    each by 1e-9 times the sum of what its comparisons round (1, the margin
    and the deviation's terms at ``2*hi``; the threshold and the window's
    terms), far above their rounding, a few units of 2**-53 of that sum.  A
    NaN, an infinity or a midpoint that could overflow fails the test.

    The start's error budget: a cut point, it lies a few units of the last
    place from the replayed boundary, so rounded up it is the answer or one
    record unit off.  :func:`_certify` gallops from either side; it and
    :func:`_min_attacks` rely on no replay succeeding below the decimal
    under the start.

    A piece at or above the smallest feasible start so far can only add
    larger starts and is dropped when next visited.  No live piece
    straddles that start and pieces step independently, so the kept ones
    step exactly as if none were dropped; none is cut at it, which would
    move a later midpoint.

    The per-grid factors and the rosters are the kernel's own, from
    :func:`_step_constants`; only ``rescale_inertia`` recomputes ``dt/4H``
    and the damping factor, per piece, from its tripped total.
    """
    _check_horizon(config, goal.horizon)
    (f_nominal, dt, m, m_dt, droop_r, gain, gov_decay, scale, damping,
     load_roster, ls_highest, gen_roster, rocof_lowest, h, dt_rt,
     total_tg) = _step_constants(config)
    accumulate = options.literal_accumulation
    literal_signs = options.literal_signs
    rescale = options.rescale_inertia
    slope_per_pu = f_nominal / m_dt
    ls_margin = ls_highest / f_nominal - 1.0
    ls_slack = 1.0 + abs(ls_margin)
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
            floor = ls_margin + 1e-9 * (ls_slack + abs(d0) + abs(d1) * (hi + hi))
            quiet = d0 + d1 * lo > floor and d0 + d1 * hi > floor
            windowed = len(w0) > m
            if windowed:
                s0 = (w0[-1] - w0[-1 - m]) * slope_per_pu
                s1 = (w1[-1] - w1[-1 - m]) * slope_per_pu
                if quiet:
                    ceiling = rocof_lowest - 1e-9 * (rocof_lowest + (
                        abs(w0[-1]) + abs(w0[-1 - m]) + (hi + hi) * (
                            abs(w1[-1]) + abs(w1[-1 - m]))) * slope_per_pu)
                    quiet = (-ceiling < s0 + s1 * lo < ceiling
                             and -ceiling < s0 + s1 * hi < ceiling)
            if quiet:
                key = (sh + 0.0, tg + 0.0, gen_latches, load_latches)
                advanced.append(((lo, hi), key, d0, d1, g0, g1, w0, w1))
                continue
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
                for i, (thr, _, p_sh, match) in enumerate(
                        loads if f_hz <= ls_highest else ()):
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
                    for i, (thr, p_tg, match) in enumerate(
                            gens if magnitude >= rocof_lowest else ()):
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


class _Direction:
    """One direction's share of a memo: every replay's *outcomes* under
    their unsigned float magnitude, the interval pass's *start*, rounded up
    to a record decimal (``Infinity`` when it found none), and its *peak*
    live pieces.  (A plain class with slots: a search updates it in place,
    and the value types are immutable named tuples.)
    """

    __slots__ = ("outcomes", "start", "peak")

    def __init__(self):
        self.outcomes: dict = {}
        self.start = Decimal("Infinity")
        self.peak = 0


def _certify(config, goal, direction, start: Decimal, bound: Decimal,
             options, memo: _Direction) -> Optional[Decimal]:
    """The certified record decimal from *start* along *direction*, ``None``
    when none replays within the capability bound *bound*.

    *start* is the interval pass's rounded-up minimum, within the error
    budget of :func:`_smallest_feasible_start`.  The walk gallops 1, 2, 4,
    ... units away from the start's verdict: up while replays fail,
    replaying the capability bound itself once past it; down from the
    decimal below the start while replays succeed, to zero at the lowest.
    It then bisects between its last failure and success, never past the
    decimal below the success, so it ends only when the decimal below its
    answer is a failed replay.

    *memo* is the direction's :class:`_Direction`.  :func:`_min_attacks`
    calls this walk for a bound only when it cannot tell the answer without
    one: a bound far below the pass's start never walks, for every goal,
    and once a walk has returned *start* itself, a later bound at or above
    it does not walk either, since it would reread the same two replays.
    """
    def meets(magnitude: Decimal) -> bool:
        return _replayed(config, direction, float(magnitude), goal, options,
                         memo.outcomes).success

    def moved(magnitude: Decimal, units: int) -> Decimal:
        exponent = magnitude.adjusted() - RECORD_DIGITS + 1
        return _RECORD.add(magnitude, Decimal(units).scaleb(exponent, _EXACT))

    failed = found = None
    magnitude, units = min(start, bound), 1
    while found is None:
        if meets(magnitude):
            found = magnitude
        elif magnitude == bound:
            return None
        else:
            failed = magnitude
            magnitude, units = min(moved(failed, units), bound), 2 * units
    magnitude, units = _below(found), -2
    while failed is None and found > 0:
        if meets(magnitude):
            found = magnitude
            magnitude, units = max(moved(found, units), Decimal(0)), 2 * units
        else:
            failed = magnitude
    while failed is not None and _below(found) > failed:
        magnitude = min(_below(found), _RECORD.plus(
            _EXACT.divide(_EXACT.add(failed, found), 2)))
        if meets(magnitude):
            found = magnitude
        else:
            failed = magnitude
    return found


def _below(magnitude: Decimal) -> Decimal:
    """The record decimal one unit below a positive *magnitude*; zero stays."""
    return _RECORD.next_minus(magnitude) if magnitude > 0 else magnitude


def _logger(name: str, level: str):
    """The logger *name* when it is enabled for *level* (``"INFO"`` or
    ``"DEBUG"``), else ``None``.  Only a process that has imported
    :mod:`logging` can have enabled a logger, so this never loads it."""
    logging = sys.modules.get("logging")
    if logging is None:
        return None
    log = logging.getLogger(name)
    return log if log.isEnabledFor(getattr(logging, level)) else None


def _describe(outcome: FeasibilityOutcome) -> str:
    if not outcome.success:
        return "no attack"
    v = outcome.vector
    return (f"dp_a={v.dp_a!r} ({v.outcome.kind.json_name} {v.outcome.relay_id} "
            f"at step {v.outcome.trip_step})")


def synthesize_min_attack(
    config: GridConfig,
    goal: AttackGoal,
    tolerance: float = 1e-4,
    options: SimOptions = DEFAULT_OPTIONS,
) -> FeasibilityOutcome:
    """Find the smallest-magnitude injection meeting *goal*, exactly.

    The answer is the smallest :data:`RECORD_DIGITS`-digit decimal that
    replays, certified by its own :func:`feasibility` replay, and a replay
    one record decimal below it fails in every allowed direction.  Each
    direction starts from its :func:`_smallest_feasible_start` rounded up to
    a record decimal and is certified by one walk, :func:`_certify`: a
    gallop away from the start's verdict, then one bisection.  A direction
    answers no attack only when a replay at or above the capability bound
    fails.  *tolerance* is validated but does not affect the answer; it is
    the resolution of :func:`exhaustive_min_attack`.

    When the goal allows either direction, the starts are certified smallest
    first, and the second only when it could still win: by the pass's error
    budget, its walk certifies nothing below the record decimal under its
    start.  The smaller certified magnitude wins, ties broken toward the
    positive direction.  The search replays each magnitude once and
    returns the outcome of the answer's replay.
    """
    _check_step("tolerance", tolerance)
    return _min_attacks(config, goal, (capability_bound(config.capability),),
                        options)[0]


def _min_attacks(config: GridConfig, goal: AttackGoal, bounds,
                 options: SimOptions) -> list:
    """The outcome :func:`synthesize_min_attack` gives under each capability
    bound in *bounds*, in their order; a bound above *config*'s own raises
    :class:`CapabilityExceeded`.

    No replay reads the capability, so the bounds share one memo for this
    call, a :class:`_Direction` per direction, whose one interval pass runs
    over *config*'s bound: its start is the smallest under every bound at or
    above it.  The distinct bound values are answered in falling order, each
    once, and a direction walks under a bound only when neither rule below
    answers it without a walk:

    - A bound far below the pass's start replays nothing, for every goal:
      below *config*'s bound and ``start * (1 - 1e-9)`` (``start``
      ``Infinity`` when the pass found none), its walk would replay it once
      and fail, by the pass's error budget.  A bound nearer the start walks
      from itself; a lone call never skips, its one bound being its pass's.
    - Once the direction's walk returned its start itself (the start
      replayed and the record decimal below it failed), a later bound at or
      above the start takes the start: its walk would begin at the start
      and reread those two replays.  A walk that returned anything else
      galloped, and each later bound walks again, over replays the memo
      mostly holds.

    *config* must pass :func:`~frosim.config.validate_grid`: then a zero
    injection holds the grid at its bit-flat equilibrium, which meets no
    relay threshold, so a zero bound of either sign is no attack and the
    two share one answer.
    """
    top = capability_bound(config.capability)
    _check_capability(config, max(bounds))
    directions = goal.directions()
    memo = {d: _Direction() for d in directions}
    for d, entry in memo.items():
        start, entry.peak = _smallest_feasible_start(config, goal, d, options)
        entry.start = _RECORD.plus(Decimal(start))
    # (start, -direction, the bound under which the direction skips)
    order = sorted((memo[d].start, -d, _EXACT.multiply(memo[d].start, _FAR))
                   for d in directions)
    log = _logger(__name__, "DEBUG")
    answers = {}
    settled = set()  # the directions whose walk found their start itself
    for b in sorted(set(bounds), reverse=True):
        bound = Decimal(b)
        if log:
            # each replay adds one outcome and nothing else does, so the
            # difference counts the replays this bound ran
            before = sum(len(memo[d].outcomes) for d in directions)
        best = None  # (magnitude, -direction): ties go to the positive one
        for start, rank, far in order:
            # by the pass's error budget nothing under _below(start) replays
            if best is not None and (_below(start), rank) >= best:
                break
            if b < top and bound < far:
                continue
            if -rank in settled and bound >= start:
                # its walk would reread the start's and the decimal below's
                # replays, and find the start again
                magnitude = start
            else:
                magnitude = _certify(config, goal, -rank, start, bound,
                                     options, memo[-rank])
                if magnitude == start:
                    settled.add(-rank)
            if magnitude is not None and (best is None
                                          or (magnitude, rank) < best):
                best = (magnitude, rank)
        outcome = answers[b] = _NO_ATTACK if best is None else _replayed(
            config, -best[1], float(best[0]), goal, options,
            memo[-best[1]].outcomes)
        if log:
            log.debug(
                "synthesis %s/%s by interval pass, %s; certify replays %d; "
                "%s", goal.target_kind.value, goal.sign.value, "; ".join(
                    f"{d:+d}: smallest feasible start {memo[d].start}, "
                    f"peak {memo[d].peak} live pieces" for d in directions),
                sum(len(memo[d].outcomes) for d in directions) - before,
                _describe(outcome))
    return [answers[b] for b in bounds]


def exhaustive_min_attack(
    config: GridConfig,
    goal: AttackGoal,
    resolution: float = 1e-4,
    options: SimOptions = DEFAULT_OPTIONS,
) -> FeasibilityOutcome:
    """Scan every magnitude on a *resolution* grid, smallest first.

    Needs no monotonicity assumption; the first feasible grid point per
    direction is its minimum, and the winner's :func:`feasibility` replay is
    the outcome returned.  The capability bound itself is always tested
    even when it is not a grid multiple.
    """
    _check_step("resolution", resolution)
    bound = capability_bound(config.capability)

    def grid():
        k = 0
        while k * resolution <= bound:
            yield k * resolution
            k += 1
        if bound > (k - 1) * resolution:
            yield bound

    # (magnitude, -direction, outcome): ties go to the positive direction
    found = [(math.inf, 0, _NO_ATTACK)]
    scanned = 0
    for direction in goal.directions():
        for mag in grid():
            scanned += 1
            outcome = feasibility(config, direction * mag, goal, options)
            if outcome.success:
                found.append((mag, -direction, outcome))
                break
    best = min(found, key=lambda c: c[:2])[2]
    log = _logger(__name__, "DEBUG")
    if log:
        log.debug("synthesis %s/%s by exhaustive scan at %r; scan replays %d; "
                  "%s", goal.target_kind.value, goal.sign.value, resolution,
                  scanned, _describe(best))
    return best


def synthesis_result_dict(outcome: FeasibilityOutcome, trace_file: Optional[str]) -> dict:
    """JSON-ready summary of a synthesis outcome."""
    if not outcome.success:
        return {"status": "no_attack"}
    v = outcome.vector
    return {
        "status": "success",
        "dp_a_pu": v.dp_a,
        "attack_step": v.attack_step,
        "relay_id": v.outcome.relay_id,
        "relay_kind": v.outcome.kind.json_name,
        "trip_step": v.outcome.trip_step,
        "trace_file": trace_file,
    }
