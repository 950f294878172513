"""Attack synthesis: find setpoint injections that falsely operate a relay.

Feasibility of a candidate injection is decided by replaying it through the
deterministic simulator and checking the event log against the goal.  The
single free variable is the injection magnitude, and which path finds its
minimum depends on the goal:

- ``ANY`` (any relay operates) is answered in closed form.  Until the first
  relay event the deviation trace is linear and odd in ``dp_a``, and under
  this goal every event counts, so the minimum is the smallest
  threshold-over-coefficient of one relay-free unit response.  The answer is
  the smallest :data:`RECORD_DIGITS`-significant-digit decimal at or above
  that minimum which replays, so it also replays from a written record.
- ``ROCOF_ONLY``, ``LS_ONLY`` and ``SPECIFIC`` can be met only after earlier
  non-matching events have broken linearity.  A coarse probe establishes
  whether the feasible set is an up-set in magnitude, and if so bisection
  pins the minimal feasible magnitude to a tolerance; otherwise the caller is
  told to fall back to the exhaustive scan, which needs no structural
  assumption.

Every answer is the outcome of a :func:`feasibility` replay.  A replay
depends on the config only through its dynamics and relays, never on the
capability, so a sweep's combinations of one (H, R, T) share their replays
through :func:`synthesize_min_attack`'s private memo argument.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from decimal import ROUND_CEILING, Context, Decimal
from typing import Callable, Iterable, NamedTuple, Optional

from .config import GridConfig, capability_bound
from .dynamics import (
    AttackSignal,
    EventKind,
    RelayEvent,
    SimOptions,
    DEFAULT_OPTIONS,
    SimTrace,
    SystemState,
    _check_horizon,
    frequency_step,
    governor_step,
    initial_state,
    simulate,
    simulate_step,
)
from .errors import CapabilityExceeded, InvalidParameter, NonMonotoneFeasibility

#: Significant digits of a recorded injection magnitude (the sweep records
#: CSV).  Closed-form answers are decimals of this many digits, so the value a
#: record holds is the value that was certified.
RECORD_DIGITS = 12

# Rounds up to a record decimal.
_RECORD = Context(prec=RECORD_DIGITS, rounding=ROUND_CEILING)
# Exact for the sums, halves and unit steps of record decimals, whatever the
# caller's decimal context.
_EXACT = Context(prec=2 * RECORD_DIGITS)


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


@dataclass(frozen=True)
class AttackGoal:
    """What counts as a successful attack and within how many steps."""

    horizon: int
    target_kind: TargetKind = TargetKind.ANY
    sign: Sign = Sign.POSITIVE
    specific_relay_id: Optional[str] = None
    attack_step: int = 0

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.target_kind is TargetKind.SPECIFIC and not self.specific_relay_id:
            raise ValueError("SPECIFIC goal requires specific_relay_id")
        if self.attack_step < 0:
            raise ValueError(f"attack_step must be >= 0, got {self.attack_step}")

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


@dataclass(frozen=True)
class AttackVector:
    """A synthesized injection together with its certified effect."""

    dp_a: float
    attack_step: int
    outcome: AttackOutcome
    trace: SimTrace


class FeasibilityStatus(enum.Enum):
    SUCCESS = "success"
    NO_ATTACK_EXISTS = "no_attack"


@dataclass(frozen=True)
class FeasibilityOutcome:
    status: FeasibilityStatus
    vector: Optional[AttackVector] = None

    def __post_init__(self):
        if (self.status is FeasibilityStatus.SUCCESS) != (self.vector is not None):
            raise ValueError("vector must be present exactly on SUCCESS")

    @property
    def success(self) -> bool:
        return self.status is FeasibilityStatus.SUCCESS


def _first_matching(trace: SimTrace, goal: AttackGoal) -> Optional[RelayEvent]:
    for ev in trace.events:
        if goal.matches(ev):
            return ev
    return None


def _check_capability(config: GridConfig, dp_a: float) -> None:
    bound = capability_bound(config.capability)
    if abs(dp_a) > bound:
        raise CapabilityExceeded(
            f"|dp_a|={abs(dp_a)} exceeds capability bound {bound}"
        )


def feasibility(
    config: GridConfig,
    dp_a: float,
    goal: AttackGoal,
    options: SimOptions = DEFAULT_OPTIONS,
) -> FeasibilityOutcome:
    """Decide whether injecting *dp_a* meets *goal* within its horizon.

    Raises :class:`CapabilityExceeded` when the magnitude is outside the
    attacker's bound; that is a caller bug, not an unsuccessful attack.
    """
    _check_capability(config, dp_a)
    trace = simulate(config, AttackSignal(dp_a, goal.attack_step), goal.horizon, options)
    event = _first_matching(trace, goal)
    if event is None:
        return FeasibilityOutcome(FeasibilityStatus.NO_ATTACK_EXISTS)
    vector = AttackVector(
        dp_a=dp_a,
        attack_step=goal.attack_step,
        outcome=AttackOutcome(event.relay_id, event.kind, event.step),
        trace=trace,
    )
    return FeasibilityOutcome(FeasibilityStatus.SUCCESS, vector)


def _is_feasible(
    config: GridConfig,
    dp_a: float,
    goal: AttackGoal,
    options: SimOptions = DEFAULT_OPTIONS,
) -> bool:
    # Same precondition and stepping kernel as simulate(), stopping at the
    # first matching event; used by the search loops where only the verdict
    # is needed.
    _check_horizon(config, goal.horizon)
    state = initial_state(config)
    attack = AttackSignal(dp_a, goal.attack_step)
    for _ in range(goal.horizon + 1):
        state, record = simulate_step(state, config, attack, options)
        for ev in record.events:
            if goal.matches(ev):
                return True
    return False


# A replay memo maps a signed injection magnitude to what replaying it gave:
# the ``feasibility`` outcome and the ``_is_feasible`` verdict under their own
# keys.  Replays read neither the capability nor the tolerance, so calls whose
# configs differ only in capability, with the same goal and options, may
# share one memo.  The key keeps the sign of a zero magnitude.

def _replayed(config, dp_a, goal, options, replays: dict) -> FeasibilityOutcome:
    """:func:`feasibility`, replayed only when *replays* lacks *dp_a*."""
    _check_capability(config, dp_a)
    key = ("outcome", dp_a, math.copysign(1.0, dp_a))
    outcome = replays.get(key)
    if outcome is None:
        outcome = replays[key] = feasibility(config, dp_a, goal, options)
    return outcome


def _verdict(config, dp_a, goal, options, replays: dict) -> bool:
    """:func:`_is_feasible`, replayed only when *replays* lacks *dp_a*."""
    key = ("verdict", dp_a, math.copysign(1.0, dp_a))
    verdict = replays.get(key)
    if verdict is None:
        verdict = replays[key] = _is_feasible(config, dp_a, goal, options)
    return verdict


@dataclass(frozen=True)
class DirectionProbe:
    """Feasibility samples along one injection direction."""

    direction: int
    magnitudes: tuple[float, ...]
    feasible: tuple[bool, ...]
    monotone: bool
    bracket: Optional[tuple[float, float]]  # (largest infeasible, smallest feasible)


@dataclass(frozen=True)
class MonotonicityReport:
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
    replays: dict,
) -> DirectionProbe:
    bound = capability_bound(config.capability)
    magnitudes = tuple(bound * i / (samples - 1) for i in range(samples))
    feasible = [_verdict(config, direction * mag, goal, options, replays)
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
    *,
    _replays: Optional[dict] = None,
) -> MonotonicityReport:
    """Sample feasibility on evenly spaced magnitudes in [0, capability bound].

    Reports, per direction in the goal, whether the observed success set is an
    up-set (everything above the smallest success also succeeds).  Bisection
    is sound only under that structure; relay interactions can in principle
    break it, which is why it is probed per instance rather than assumed.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    replays = {} if _replays is None else _replays
    return MonotonicityReport({
        d: _probe_direction(config, goal, d, samples, options, replays)
        for d in goal.directions()
    })


def _check_step(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise InvalidParameter(name, "must be finite and > 0", value)


def _unit_response(config: GridConfig, goal: AttackGoal) -> list[float]:
    """Relay-free deviation trace, steps 0..horizon, for ``dp_a = 1`` from
    the goal's attack step."""
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


def _closed_form_minima(config: GridConfig, goal: AttackGoal) -> dict[int, float]:
    """Smallest magnitude at which some relay operates, per allowed direction.

    Before the first event the trace at ``dp_a = d*x`` is ``d*x*u`` for the
    relay-free unit response ``u``.  Load-shedding relay ``i`` operates at
    step ``n`` once ``x*(-d*u[n]) >= 1 - threshold_i/f0``, which only a
    falling deviation can meet; ROCOF relay ``j`` once
    ``x*|u[n] - u[n-M]|*f0/(M*dt) >= threshold_j`` for ``n >= M``.  The
    minimum is the smallest threshold over coefficient; ``inf`` when no
    relay can operate within the horizon.  SimOptions act only after a first
    event, so this holds under every option.
    """
    params = config.params
    m = params.rocof_window_m
    u = _unit_response(config, goal)
    ls_margin = min(
        (1.0 - ld.underfreq_threshold / params.f_nominal for ld in config.loads),
        default=math.inf,
    )
    rocof_threshold = min(
        (g.rocof_threshold for g in config.generators), default=math.inf,
    )
    slope_per_pu = params.f_nominal / (m * params.dt)

    def smallest(threshold: float, coefficients: list[float]) -> float:
        return min((threshold / c for c in coefficients if c > 0),
                   default=math.inf)

    rocof_min = smallest(rocof_threshold, [
        abs(u[n] - u[n - m]) * slope_per_pu for n in range(m, len(u))
    ])
    return {
        d: min(rocof_min, smallest(ls_margin, [-d * x for x in u]))
        for d in goal.directions()
    }


def _certify_upward(
    config: GridConfig,
    goal: AttackGoal,
    direction: int,
    start: Decimal,
    options: SimOptions,
    replays: dict,
) -> tuple[FeasibilityOutcome, Decimal]:
    """Certified outcome at the smallest record decimal >= *start* that meets
    *goal* along *direction*, with that magnitude.

    *start* is the rounded-up closed-form minimum and normally replays at
    once.  A failing replay (the simulator's own rounding put the boundary a
    few units above) steps up 1, 2, 4, ... units in the last digit and then
    bisects back over record decimals.  A decimal beyond the capability bound
    is replaced by the bound itself; the outcome is unsuccessful only when
    the bound fails too.
    """
    bound = capability_bound(config.capability)

    def replay(magnitude: Decimal) -> FeasibilityOutcome:
        return _replayed(config, direction * float(magnitude), goal, options,
                         replays)

    failed, magnitude, units = None, start, 1
    while True:
        if magnitude > bound:
            magnitude = Decimal(bound)
            outcome = replay(magnitude)
            if not outcome.success:
                return outcome, magnitude
            break
        outcome = replay(magnitude)
        if outcome.success:
            break
        failed = magnitude
        exponent = failed.adjusted() - RECORD_DIGITS + 1
        step = Decimal(units).scaleb(exponent, _EXACT)
        magnitude, units = _RECORD.add(failed, step), 2 * units
    while failed is not None:
        mid = _RECORD.plus(_EXACT.divide(_EXACT.add(failed, magnitude), 2))
        if mid >= magnitude:
            break
        trial = replay(mid)
        if trial.success:
            magnitude, outcome = mid, trial
        else:
            failed = mid
    return outcome, magnitude


def _smallest_first(
    candidates: Iterable[tuple],
    certify: Callable[..., tuple[FeasibilityOutcome, object]],
) -> FeasibilityOutcome:
    """The certified outcome of the winning ``(magnitude, direction)``
    candidate: the smallest magnitude wins, ties go to the positive direction.

    ``certify(magnitude, direction)`` replays a candidate with
    :func:`feasibility` and returns the outcome with the magnitude it
    certified, which is never below the candidate's; so candidates are
    certified in order only until none left can beat the best so far.
    """
    best, best_key = FeasibilityOutcome(FeasibilityStatus.NO_ATTACK_EXISTS), None
    for magnitude, direction in sorted(candidates, key=lambda c: (c[0], -c[1])):
        if best_key is not None and (magnitude, -direction) >= best_key:
            break
        outcome, magnitude = certify(magnitude, direction)
        key = (magnitude, -direction)
        if outcome.success and (best_key is None or key < best_key):
            best, best_key = outcome, key
    return best


def synthesize_min_attack(
    config: GridConfig,
    goal: AttackGoal,
    tolerance: float = 1e-4,
    probe_samples: int = 17,
    options: SimOptions = DEFAULT_OPTIONS,
    *,
    _replays: Optional[dict] = None,
) -> FeasibilityOutcome:
    """Find the smallest-magnitude injection meeting *goal*.

    An ``ANY`` goal is answered exactly from :func:`_closed_form_minima`: the
    smallest :data:`RECORD_DIGITS`-digit decimal at or above the minimum
    that replays, certified by one :func:`feasibility` replay; *tolerance*
    and *probe_samples* do not affect it.

    Other goals bisect, to *tolerance*, between the largest known-infeasible
    and smallest known-feasible magnitudes, seeded by
    :func:`probe_monotonicity`, and raise :class:`NonMonotoneFeasibility`
    when the success set is seen not to be an up-set: in the probe, or when
    the answer less one *tolerance* still meets the goal in an allowed
    direction (a gap narrower than the probe spacing, which bisection can
    step over); use :func:`exhaustive_min_attack` then.

    When the goal allows either direction both are searched and the smaller
    magnitude wins, ties broken toward the positive direction.

    No magnitude is replayed twice in one call.  *_replays* lets calls share
    that memory: a dict passed to calls with the same goal and options whose
    configs differ only in capability (as the combinations of one (H, R, T)
    in a sweep do).  It then also keeps the ``ANY`` goal's closed-form
    starts, which read no capability.  Every answer is the one an unshared
    call gives.
    """
    _check_step("tolerance", tolerance)
    replays = {} if _replays is None else _replays
    if goal.target_kind is TargetKind.ANY:
        starts = replays.get("starts")
        if starts is None:
            starts = replays["starts"] = [
                (_RECORD.plus(Decimal(x)), d)
                for d, x in _closed_form_minima(config, goal).items()
            ]
        return _smallest_first(starts, lambda m, d: _certify_upward(
            config, goal, d, m, options, replays))
    report = probe_monotonicity(config, goal, probe_samples, options,
                                _replays=replays)
    candidates: list[tuple[float, int]] = []
    for direction, probe in sorted(report.directions.items(), reverse=True):
        if not probe.monotone:
            raise NonMonotoneFeasibility(
                f"feasibility is not an up-set along direction {direction:+d}; "
                "bisection declined"
            )
        if probe.bracket is None:
            continue
        lo, hi = probe.bracket
        while hi - lo > tolerance:
            mid = 0.5 * (lo + hi)
            if _verdict(config, direction * mid, goal, options, replays):
                hi = mid
            else:
                lo = mid
        candidates.append((hi, direction))
    best = _smallest_first(candidates, lambda m, d: (
        _replayed(config, d * m, goal, options, replays), m))
    if best.success:
        below = abs(best.vector.dp_a) - tolerance
        if below > 0 and any(_verdict(config, d * below, goal, options, replays)
                             for d in goal.directions()):
            raise NonMonotoneFeasibility(
                f"the goal is also met at magnitude {below!r}, one tolerance "
                "below the bisected answer; bisection declined"
            )
    return best


def exhaustive_min_attack(
    config: GridConfig,
    goal: AttackGoal,
    resolution: float = 1e-4,
    options: SimOptions = DEFAULT_OPTIONS,
) -> FeasibilityOutcome:
    """Scan every magnitude on a *resolution* grid, smallest first.

    Needs no monotonicity assumption; the first feasible grid point per
    direction is its minimum.  The capability bound itself is always tested
    even when it is not a grid multiple.
    """
    _check_step("resolution", resolution)
    bound = capability_bound(config.capability)
    candidates: list[tuple[float, int]] = []
    for direction in goal.directions():
        k = 0
        found = None
        while True:
            mag = k * resolution
            if mag > bound:
                if bound > (k - 1) * resolution and _is_feasible(
                    config, direction * bound, goal, options
                ):
                    found = bound
                break
            if _is_feasible(config, direction * mag, goal, options):
                found = mag
                break
            k += 1
        if found is not None:
            candidates.append((found, direction))
    return _smallest_first(candidates, lambda m, d: (
        feasibility(config, d * m, goal, options), m))


def synthesis_result_dict(outcome: FeasibilityOutcome, trace_file: Optional[str]) -> dict:
    """JSON-ready summary of a synthesis outcome."""
    if not outcome.success:
        return {"status": FeasibilityStatus.NO_ATTACK_EXISTS.value}
    v = outcome.vector
    return {
        "status": FeasibilityStatus.SUCCESS.value,
        "dp_a_pu": v.dp_a,
        "attack_step": v.attack_step,
        "relay_id": v.outcome.relay_id,
        "relay_kind": v.outcome.kind.json_name,
        "trip_step": v.outcome.trip_step,
        "trace_file": trace_file,
    }
