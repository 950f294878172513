"""Parameter sweeps over (H, R, T, ToI, AD) and trend aggregation.

Each combination instantiates the base grid with its dynamic parameters and
attacker capability, runs minimal-attack synthesis, and records the
outcome.  The work is done once per distinct value, not once per
combination.  A sweep checks each distinct (ToI, AD) and computes its
capability bound once, into one table that every group reads.
Combinations that share (H, R, T) differ only in the capability bound, so
they run together as one group and one task of a process pool: their grid
is validated once, and one :func:`~frosim.synth._min_attacks` call at the
group's largest valid bound answers every bound.  Its memo lives for that
call: one interval pass per direction, which never runs again, and each
distinct bound answered once, so a repeated combination costs no replay
and no walk.  Each distinct outcome is classified once.  A replay reads no
capability, so every record is the one a lone synthesis gives.  A sweep of
fewer than two groups runs serially whatever the worker count, and only a
sweep that starts a pool imports the process-pool modules.  Runs are
reproducible because the random mode draws from a seeded generator and
each record lands in its combination id's slot regardless of how many
workers executed it.  The records CSV writer formats each distinct value
once, and its reader parses each distinct number text once.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
import numbers
import random
from collections import Counter
from functools import partial
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from .config import (
    GridConfig,
    _as_floats,
    _valid_bound,
    is_finite_real,
    validate_grid,
    with_capability,
    with_dynamics,
)
from .dynamics import DEFAULT_OPTIONS, EventKind, _check_horizon
from .errors import FrosimError, InvalidParameter
from .synth import (
    RECORD_DIGITS,
    AttackGoal,
    AttackVector,
    _min_attacks,
    check_relay_id,
)
# Unused here, but bench/tracer.py wraps it under this name.
from .synth import synthesize_min_attack  # noqa: F401

# Default value grids for the five studied parameters.
DEFAULT_H_VALUES = (2.0, 4.0, 6.0, 8.0, 10.0)
DEFAULT_R_VALUES = (0.2, 0.4, 0.6, 0.8, 1.0)
DEFAULT_T_VALUES = (0.2, 0.4, 0.6, 0.8, 1.0)
DEFAULT_TOI_PCT_VALUES = (2.0, 4.0, 6.0, 8.0, 10.0)
DEFAULT_AD_PCT_VALUES = (20.0, 40.0, 60.0, 80.0, 100.0)

SWEEP_CSV_HEADER = (
    "combo_id,h_s,r_pu,t_s,toi_pct,ad_pct,success,attack_type,min_dp_a_pu,"
    "trip_step,status"
)
# Records written before the status column existed; read with status "ok".
_SWEEP_CSV_HEADER_NO_STATUS = SWEEP_CSV_HEADER.rsplit(",", 1)[0]

#: Expected trend direction per parameter: success counts should not rise
#: with inertia or droop, and should not fall with the governor time
#: constant, injection threshold, or attackable-DER share.
EXPECTED_DIRECTIONS = {
    "h_s": "nonincreasing",
    "r_pu": "nonincreasing",
    "t_s": "nondecreasing",
    "toi_pct": "nondecreasing",
    "ad_pct": "nondecreasing",
}


class SweepMode(enum.Enum):
    CARTESIAN = "cartesian"
    RANDOM = "random"


class Combo(NamedTuple):
    h: float
    r: float
    t: float
    toi_pct: float
    ad_pct: float


class AttackType(enum.Enum):
    ROCOF = "ROCOF"
    LS = "LS"
    NONE = "NONE"


class _SweepSpec(NamedTuple):
    base: GridConfig
    goal: AttackGoal
    h_values: tuple[float, ...] = DEFAULT_H_VALUES
    r_values: tuple[float, ...] = DEFAULT_R_VALUES
    t_values: tuple[float, ...] = DEFAULT_T_VALUES
    toi_pct_values: tuple[float, ...] = DEFAULT_TOI_PCT_VALUES
    ad_pct_values: tuple[float, ...] = DEFAULT_AD_PCT_VALUES
    mode: SweepMode = SweepMode.CARTESIAN
    count: Optional[int] = None
    seed: int = 0
    tolerance: float = 1e-4


class SweepSpec(_SweepSpec):
    """What to sweep and how.

    The base config supplies everything not swept: rosters, the DER total
    and calibration factor, step size, window length, and nominal frequency.
    A ``SPECIFIC`` goal must name one of its relays, and the goal's horizon
    must span one ROCOF window of it, since the window length is not swept.
    Swept values, the tolerance and the base config's real fields are
    stored as floats, as a spec file's.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace runs __new__

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        floats = {}
        for name in ("h_values", "r_values", "t_values",
                     "toi_pct_values", "ad_pct_values"):
            vals = getattr(self, name)
            if not (isinstance(vals, Sequence) and all(
                    is_finite_real(v) for v in vals)):
                raise InvalidParameter(
                    name, "must be a list of finite numbers", vals)
            vals = floats[name] = tuple(map(float, vals))
            if not vals:
                raise InvalidParameter(name, "must be nonempty", vals)
        if self.count is not None and not (
                isinstance(self.count, numbers.Integral)
                and not isinstance(self.count, bool)):
            raise InvalidParameter("count", "must be an integer", self.count)
        if self.mode is SweepMode.RANDOM and (self.count is None or self.count < 1):
            raise InvalidParameter("count", "RANDOM mode requires count >= 1",
                                   self.count)
        if not (is_finite_real(self.tolerance) and self.tolerance > 0):
            raise InvalidParameter("tolerance", "must be finite and > 0",
                                   self.tolerance)
        floats["tolerance"] = float(self.tolerance)
        floats["base"] = _as_floats(self.base)
        check_relay_id(self.base, self.goal)
        _check_horizon(self.base, self.goal.horizon)
        return super().__new__(cls, **{**self._asdict(), **floats})


def generate_combinations(spec: SweepSpec) -> list[Combo]:
    """Materialize the parameter tuples, in a reproducible order.

    CARTESIAN yields the full product in lexicographic order of the value
    lists; RANDOM draws ``count`` tuples uniformly with replacement from the
    lists using the spec's seed.
    """
    lists = (spec.h_values, spec.r_values, spec.t_values,
             spec.toi_pct_values, spec.ad_pct_values)
    if spec.mode is SweepMode.CARTESIAN:
        return [Combo(*t) for t in itertools.product(*lists)]
    # rng.choice inlined: one getrandbits(k) rejection loop per value, as
    # random.Random._randbelow_with_getrandbits runs it, draws the same
    bits = random.Random(spec.seed).getrandbits
    sizes = [(values, len(values), len(values).bit_length())
             for values in lists]
    combos = []
    for _ in range(spec.count):
        combo = []
        for values, n, k in sizes:
            r = bits(k)
            while r >= n:
                r = bits(k)
            combo.append(values[r])
        combos.append(tuple.__new__(Combo, combo))
    return combos


class SweepRecord(NamedTuple):
    combo_id: int
    h: float
    r: float
    t: float
    toi_pct: float
    ad_pct: float
    success: bool
    attack_type: AttackType
    min_dp_a: Optional[float] = None
    trip_step: Optional[int] = None
    status: str = "ok"


def classify_attack(vector: Optional[AttackVector]) -> AttackType:
    """Attack type = kind of the first relay event in the winning trace.

    A record's ``trip_step`` is the step of the event that met the goal, so
    under a ``rocof``, ``ls`` or ``specific`` goal the two can name
    different events: an ``ls`` goal met by a shed at step 9, after a ROCOF
    trip at step 6, reads ``ROCOF``.
    """
    if vector is None:
        return AttackType.NONE
    first = vector.trace.first_event
    if first is None:
        return AttackType.NONE
    return AttackType.ROCOF if first.kind is EventKind.ROCOF_TRIP else AttackType.LS


#: A :class:`SweepRecord` of a plain tuple in its field order, without the
#: argument handling of ``SweepRecord(...)``.
_record = partial(tuple.__new__, SweepRecord)


def _no_attack(combo_id: int, combo: Combo, status: str = "ok") -> SweepRecord:
    return _record((combo_id, *combo, False, AttackType.NONE, None, None,
                    status))


def _bound_table(spec: SweepSpec, combos) -> dict:
    """Each distinct (ToI, AD) of *combos*, in percent, mapped to its
    :func:`~frosim.config._valid_bound` and the ToI and AD fractions, or to
    the name of the error that check raised.

    Zeros of either sign share an entry: their bounds differ only in a
    zero's sign, which a group call answers alike, and each record keeps
    its own combination's values."""
    cap = spec.base.capability
    table = dict.fromkeys(map(itemgetter(3, 4), combos))
    for toi_pct, ad_pct in table:
        toi, ad = toi_pct / 100.0, ad_pct / 100.0
        try:
            table[toi_pct, ad_pct] = (
                _valid_bound(toi, ad, cap.der_total, cap.kappa), toi, ad)
        except FrosimError as exc:
            table[toi_pct, ad_pct] = type(exc).__name__
    return table


def _run_group(args) -> list[SweepRecord]:
    """Records of one (H, R, T) group's ``(combo_id, combo)`` items.

    The group validates its grid once and looks each combination's bound up
    in the sweep's table, building no config; one config at the largest
    valid bound answers every valid bound in one
    :func:`~frosim.synth._min_attacks` call.  An invalid grid fails every
    record of the group, as validating each combination's config would.
    """
    spec, group, table = args
    h, r, t = group[0][1][:3]
    try:
        grid = validate_grid(with_dynamics(
            spec.base, h_inertia=h, droop_r=r, governor_t=t))
    except FrosimError as exc:
        return [_no_attack(i, c, type(exc).__name__) for i, c in group]
    records, valid = [], []
    for i, combo in group:
        entry = table[combo[3], combo[4]]
        if type(entry) is str:
            records.append(_no_attack(i, combo, entry))
        else:
            valid.append((entry, i, combo))
    if not valid:
        return records
    _, toi, ad = max(entry for entry, _, _ in valid)
    try:
        outcomes = _min_attacks(with_capability(grid, toi=toi, ad=ad),
                                spec.goal, [entry[0] for entry, _, _ in valid],
                                DEFAULT_OPTIONS)
    except FrosimError as exc:
        return records + [_no_attack(i, c, type(exc).__name__)
                          for _, i, c in valid]
    # equal bounds share one outcome object: each is classified once
    tails = {}
    for (_, i, combo), outcome in zip(valid, outcomes):
        tail = tails.get(id(outcome))
        if tail is None:
            vec = outcome.vector
            tail = tails[id(outcome)] = (
                (True, classify_attack(vec), vec.dp_a,
                 vec.outcome.trip_step, "ok") if outcome.success
                else (False, AttackType.NONE, None, None, "ok"))
        records.append(_record((i, *combo, *tail)))
    return records


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRecord]:
    """Synthesize the minimal attack for every combination.

    The combinations run in (H, R, T) groups, keyed on the three float
    values: a zero H, R or T of either sign fails its grid's validation
    alike, and each record carries its own combination's values.  Each
    distinct (ToI, AD) is checked once, into a table that goes with every
    group.  Each group is answered by one synthesis call over all its
    bounds, which changes no record, and a process pool takes each group as
    one task.
    Per-combination failures are folded into the record's status field;
    the sweep itself never aborts.  Results are ordered by combination id
    no matter how many workers ran them.
    """
    combos = generate_combinations(spec)
    groups: dict = {}
    for i, combo in enumerate(combos):
        key = combo[:3]
        group = groups.get(key)
        if group is None:
            group = groups[key] = []
        group.append((i, combo))
    table = _bound_table(spec, combos)
    tasks = [(spec, group, table) for group in groups.values()]
    if workers <= 1 or len(tasks) < 2:
        parts = map(_run_group, tasks)
    else:
        # imported here: the pool stack (multiprocessing, pickle, socket,
        # subprocess, ...) is loaded only by a sweep that starts a pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_group, tasks, chunksize=max(
                1, len(tasks) // (workers * 8))))
    records: list = [None] * len(combos)
    for part in parts:
        for record in part:
            records[record[0]] = record
    return records


# ---------------------------------------------------------------------------
# Trend aggregation


class TrendBucket(NamedTuple):
    value: float
    records: int
    successes: int

    @property
    def success_rate(self) -> float:
        return self.successes / self.records if self.records else 0.0


class ParameterTrend(NamedTuple):
    parameter: str
    expected: str
    buckets: tuple[TrendBucket, ...]
    verdict: str
    matches_expected: bool


class HTypeSplit(NamedTuple):
    h: float
    rocof: int
    ls: int
    none: int


class TrendReport(NamedTuple):
    """Trend verdicts over the ``ok`` records.

    ``total_records`` counts every record; ``excluded_records`` counts those
    whose synthesis failed (status other than ``ok``), which the buckets and
    the H split leave out.
    """

    total_records: int
    total_successes: int
    slack: float
    parameters: dict[str, ParameterTrend]
    h_type_split: tuple[HTypeSplit, ...] = ()
    excluded_records: int = 0


def _direction_verdict(rates: Sequence[float], slack: float) -> str:
    if len(rates) < 2:
        return "insufficient buckets"
    run_min = run_max = rates[0]
    max_rise = max_fall = 0.0
    for x in rates[1:]:
        max_rise = max(max_rise, x - run_min)
        max_fall = max(max_fall, run_max - x)
        run_min = min(run_min, x)
        run_max = max(run_max, x)
    noninc = max_rise <= slack
    nondec = max_fall <= slack
    if noninc and nondec:
        return "both"
    if noninc:
        return "nonincreasing"
    if nondec:
        return "nondecreasing"
    return "none"


def trend_report(records: Sequence[SweepRecord], slack: float = 0.02) -> TrendReport:
    """Bucket successes by each parameter and judge the trend directions.

    Buckets are the distinct swept values; the verdict uses weak monotonicity
    of bucket success rates with an absolute slack band (default two
    percentage points), since the studied relationships are trends rather
    than strict orderings.  A parameter with fewer than two distinct values
    gets the verdict "insufficient buckets".  Records whose status is not
    ``ok`` failed to synthesize; they are counted as excluded and kept out of
    the buckets, where they would read as "no attack".
    """
    if not records:
        raise InvalidParameter("records", "must be nonempty", 0)
    # one pass over the records, into columns; each count below runs in C
    # and keeps its first-seen key object, as the report prints it
    (_, hs, rs, ts, tois, ads, successes, attack_types,
     _, _, statuses) = zip(*records)
    ok = [status == "ok" for status in statuses]
    won = [good and success for good, success in zip(ok, successes)]
    parameters = {}
    for name, column in zip(EXPECTED_DIRECTIONS, (hs, rs, ts, tois, ads)):
        seen = Counter(itertools.compress(column, ok))
        wins = Counter(itertools.compress(column, won))
        buckets = tuple(TrendBucket(v, n, wins[v])
                        for v, n in sorted(seen.items()))
        rates = [b.success_rate for b in buckets]
        verdict = _direction_verdict(rates, slack)
        expected = EXPECTED_DIRECTIONS[name]
        matches = verdict in (expected, "both")
        parameters[name] = ParameterTrend(name, expected, buckets, verdict, matches)

    types = Counter(itertools.compress(zip(hs, attack_types), ok))
    split = [
        HTypeSplit(h=b.value, rocof=types[b.value, AttackType.ROCOF],
                   ls=types[b.value, AttackType.LS],
                   none=types[b.value, AttackType.NONE])
        for b in parameters["h_s"].buckets
    ]
    return TrendReport(
        total_records=len(records),
        total_successes=sum(map(bool, successes)),
        slack=slack,
        parameters=parameters,
        h_type_split=tuple(split),
        excluded_records=len(records) - sum(ok),
    )


def trend_report_dict(report: TrendReport) -> dict:
    return {
        "total_records": report.total_records,
        "total_successes": report.total_successes,
        "excluded_records": report.excluded_records,
        "slack": report.slack,
        "parameters": {
            name: {
                "expected": p.expected,
                "verdict": p.verdict,
                "matches_expected": p.matches_expected,
                "buckets": [
                    {
                        "value": b.value,
                        "records": b.records,
                        "successes": b.successes,
                        "success_rate": b.success_rate,
                    }
                    for b in p.buckets
                ],
            }
            for name, p in report.parameters.items()
        },
        "h_attack_type_split": [
            {"h_s": s.h, "rocof": s.rocof, "ls": s.ls, "none": s.none}
            for s in report.h_type_split
        ],
    }


# ---------------------------------------------------------------------------
# File formats


_FLOAT = f"%.{RECORD_DIGITS}g"


class _Once(dict):
    """*fn* of each key, called once per distinct key, as the writer's text
    of a value or the reader's value of a text.  A zero key is not kept:
    ``0.0 == -0.0``, so one entry would give both zeros the text of
    whichever came first.  An exception from *fn* leaves no entry."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self.fn(key)
        if key != 0:
            self[key] = value
        return value


def _dp_a_text(x: Optional[float]) -> str:
    if x is None:
        return ""
    # an answer capped by an off-grid bound is the bound itself, which 12
    # digits can round above the bound or below the boundary
    text = _FLOAT % x
    return text if float(text) == x else repr(x)


def write_records_csv(records: Sequence[SweepRecord], path) -> None:
    """Write the records in the stable CSV layout, in one write.

    Each distinct parameter value, attack type and ``min_dp_a`` is
    formatted once.  ``min_dp_a`` is written to
    :data:`~frosim.synth.RECORD_DIGITS` significant digits, or in full when
    those digits do not give back the answer, so every written answer
    replays within its own bound.
    """
    lines = [SWEEP_CSV_HEADER]
    if records:
        (ids, hs, rs, ts, tois, ads, successes, attack_types, dp_as,
         trip_steps, statuses) = zip(*records)
        param = _Once(_FLOAT.__mod__).__getitem__
        lines += map(",".join, zip(
            map(str, ids), map(param, hs), map(param, rs), map(param, ts),
            map(param, tois), map(param, ads),
            ["true" if success else "false" for success in successes],
            map(_Once(attrgetter("value")).__getitem__, attack_types),
            map(_Once(_dp_a_text).__getitem__, dp_as),
            ["" if step is None else str(step) for step in trip_steps],
            map(str, statuses)))
    lines.append("")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines))


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text}")
    return value


_ATTACK_TYPES = {t.value: t for t in AttackType}


def read_records_csv(path) -> list[SweepRecord]:
    """Parse a sweep CSV back into records (for the report stage).

    A file with the older header, which lacks the ``status`` column, reads
    with status ``ok`` on every record.  ``success`` must read ``true`` or
    ``false``, the parameter columns and a ``min_dp_a`` present must be
    finite, and ``status`` must not be blank.  A success names its attack
    type, ``min_dp_a`` and a ``trip_step`` >= 0, and a failure none of them,
    as :func:`write_records_csv` writes them.  Each ``combo_id`` is >= 0
    and names one row, in any order.  A file that is not UTF-8 text or has
    any other malformed row raises :class:`InvalidParameter`.  Each
    distinct number text is parsed and checked once, the first time it
    occurs, so a bad one fails at the first row that holds it.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().split("\n") if ln.strip()]
    except UnicodeDecodeError as exc:
        raise InvalidParameter("records", "not UTF-8 text") from exc
    header = lines[0] if lines else ""
    if header not in (SWEEP_CSV_HEADER, _SWEEP_CSV_HEADER_NO_STATUS):
        raise InvalidParameter("records", "missing or wrong header", header)
    if len(lines) < 2:
        raise InvalidParameter("records", "no data rows", 0)
    has_status = header == SWEEP_CSV_HEADER
    number = _Once(_finite).__getitem__
    records, ids = [], set()
    for ln in lines[1:]:
        parts = ln.split(",")
        status = parts[-1] if has_status else "ok"
        if (len(parts) != 10 + has_status or not status.strip()
                or parts[6] not in ("true", "false")):
            raise InvalidParameter("records", "malformed row", ln)
        success = parts[6] == "true"
        try:
            record = _record((
                int(parts[0]),
                number(parts[1]), number(parts[2]), number(parts[3]),
                number(parts[4]), number(parts[5]),
                success,
                # the enum call only for a miss, for its error text
                _ATTACK_TYPES.get(parts[7]) or AttackType(parts[7]),
                number(parts[8]) if parts[8] else None,
                int(parts[9]) if parts[9] else None,
                status,
            ))
        except (ValueError, KeyError) as exc:
            raise InvalidParameter("records", f"malformed row: {exc}", ln) from exc
        if (record.attack_type is not AttackType.NONE,
                record.min_dp_a is not None,
                record.trip_step is not None) != (success,) * 3:
            raise InvalidParameter(
                "records", "malformed row: a success has an attack type, "
                "min_dp_a and trip_step, a failure none of them", ln)
        if success and record.trip_step < 0:
            raise InvalidParameter("records", "malformed row: trip_step < 0", ln)
        if record.combo_id < 0 or record.combo_id in ids:
            raise InvalidParameter("records", "malformed row: combo_id " + (
                "< 0" if record.combo_id < 0 else "repeated"), ln)
        ids.add(record.combo_id)
        records.append(record)
    return records


def trend_csv_path(csv_dir, name: str) -> Path:
    """The trend CSV of parameter *name* under *csv_dir*."""
    return Path(csv_dir) / f"trend_{name}.csv"


def write_trend_outputs(report: TrendReport, json_path, csv_dir) -> list[Path]:
    """Write the report JSON plus one two-column CSV per parameter."""
    json_path = Path(json_path)
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(trend_report_dict(report), fh, indent=2)
        fh.write("\n")
    written = [json_path]
    csv_dir = Path(csv_dir)
    csv_dir.mkdir(parents=True, exist_ok=True)
    for name, trend in report.parameters.items():
        p = trend_csv_path(csv_dir, name)
        with open(p, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"{name},successes\n")
            for b in trend.buckets:
                fh.write(f"{_FLOAT % b.value},{b.successes}\n")
        written.append(p)
    return written
