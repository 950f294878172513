"""Parameter sweeps over (H, R, T, ToI, AD) and trend aggregation.

Each combination instantiates the base grid with its dynamic parameters and
attacker capability, runs minimal-attack synthesis, and records the outcome.
Combinations that share (H, R, T) differ only in the capability bound, so
they run together and share one replay memo: the ``ANY`` goal's closed-form
starts are computed once per (H, R, T), and a magnitude is replayed once per
(H, R, T) however many bounds reach it.  The memo is dropped when its group
ends.  A replay reads no capability, so every record is the one a lone
synthesis gives.  Runs are reproducible because the random mode draws from a
seeded generator and records are always ordered by combination id
regardless of how many workers executed them.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
import numbers
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from .config import (
    GridConfig,
    is_finite_real,
    validate_config,
    with_capability,
    with_dynamics,
)
from .dynamics import EventKind
from .errors import FrosimError, InvalidParameter
from .synth import (
    RECORD_DIGITS,
    AttackGoal,
    AttackVector,
    check_relay_id,
    synthesize_min_attack,
)

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


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep and how.

    The base config supplies everything not swept: rosters, the DER total
    and calibration factor, step size, window length, and nominal frequency.
    A ``SPECIFIC`` goal must name one of its relays.
    """

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

    def __post_init__(self):
        for name in ("h_values", "r_values", "t_values",
                     "toi_pct_values", "ad_pct_values"):
            vals = getattr(self, name)
            if not (isinstance(vals, Sequence) and all(
                    is_finite_real(v) for v in vals)):
                raise InvalidParameter(
                    name, "must be a list of finite numbers", vals)
            vals = tuple(vals)
            object.__setattr__(self, name, vals)
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
        check_relay_id(self.base, self.goal)


def generate_combinations(spec: SweepSpec) -> list[Combo]:
    """Materialize the parameter tuples, in a reproducible order.

    CARTESIAN yields the full product in lexicographic order of the value
    lists; RANDOM draws ``count`` tuples uniformly with replacement from the
    lists using the spec's seed.
    """
    if spec.mode is SweepMode.CARTESIAN:
        return [Combo(*t) for t in itertools.product(
            spec.h_values, spec.r_values, spec.t_values,
            spec.toi_pct_values, spec.ad_pct_values,
        )]
    rng = random.Random(spec.seed)
    return [
        Combo(
            rng.choice(spec.h_values),
            rng.choice(spec.r_values),
            rng.choice(spec.t_values),
            rng.choice(spec.toi_pct_values),
            rng.choice(spec.ad_pct_values),
        )
        for _ in range(spec.count)
    ]


@dataclass(frozen=True)
class SweepRecord:
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
    """Attack type = kind of the first relay event in the winning trace."""
    if vector is None:
        return AttackType.NONE
    first = vector.trace.first_event
    if first is None:
        return AttackType.NONE
    return AttackType.ROCOF if first.kind is EventKind.ROCOF_TRIP else AttackType.LS


def _run_combo(spec: SweepSpec, combo_id: int, combo: Combo,
               replays: dict) -> SweepRecord:
    try:
        config = with_dynamics(
            spec.base, h_inertia=combo.h, droop_r=combo.r, governor_t=combo.t,
        )
        config = with_capability(
            config, toi=combo.toi_pct / 100.0, ad=combo.ad_pct / 100.0,
        )
        outcome = synthesize_min_attack(
            validate_config(config), spec.goal, spec.tolerance,
            _replays=replays,
        )
    except FrosimError as exc:
        return SweepRecord(
            combo_id, *combo, success=False, attack_type=AttackType.NONE,
            status=type(exc).__name__,
        )
    if not outcome.success:
        return SweepRecord(combo_id, *combo, success=False,
                           attack_type=AttackType.NONE)
    vec = outcome.vector
    return SweepRecord(
        combo_id, *combo,
        success=True,
        attack_type=classify_attack(vec),
        min_dp_a=vec.dp_a,
        trip_step=vec.outcome.trip_step,
    )


def _dynamics(item: tuple[int, Combo]) -> tuple:
    # 2 and 2.0 compare equal, but configs built from them need not step bit
    # for bit alike (integer products are exact), so the types count too.
    h, r, t = item[1][:3]
    return h, r, t, type(h).__name__, type(r).__name__, type(t).__name__


def _run_chunk(args) -> list[SweepRecord]:
    """Records of ``(combo_id, combo)`` items sorted by :func:`_dynamics`;
    each run of one (H, R, T) shares a replay memo."""
    spec, items = args
    records = []
    for _, group in itertools.groupby(items, key=_dynamics):
        replays: dict = {}
        records.extend(_run_combo(spec, i, c, replays) for i, c in group)
    return records


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRecord]:
    """Synthesize the minimal attack for every combination.

    Combinations run sorted (stably) by (H, R, T), and those of one (H, R, T)
    share one replay memo (see the module docstring), which changes no
    record.  A process pool takes contiguous slices of that order, so a
    group's repeats mostly share one worker.  Per-combination failures are
    folded into the record's status field; the sweep itself never aborts.
    Results are ordered by combination id no matter how many workers ran
    them.
    """
    order = sorted(enumerate(generate_combinations(spec)), key=_dynamics)
    if workers <= 1 or len(order) < 2:
        records = _run_chunk((spec, order))
    else:
        chunk = max(1, len(order) // (workers * 8))
        tasks = [(spec, order[start:start + chunk])
                 for start in range(0, len(order), chunk)]
        records = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_run_chunk, tasks):
                records.extend(part)
    records.sort(key=lambda r: r.combo_id)
    return records


# ---------------------------------------------------------------------------
# Trend aggregation


@dataclass(frozen=True)
class TrendBucket:
    value: float
    records: int
    successes: int

    @property
    def success_rate(self) -> float:
        return self.successes / self.records if self.records else 0.0


@dataclass(frozen=True)
class ParameterTrend:
    parameter: str
    expected: str
    buckets: tuple[TrendBucket, ...]
    verdict: str
    matches_expected: bool


@dataclass(frozen=True)
class HTypeSplit:
    h: float
    rocof: int
    ls: int
    none: int


@dataclass(frozen=True)
class TrendReport:
    """Trend verdicts over the ``ok`` records.

    ``total_records`` counts every record; ``excluded_records`` counts those
    whose synthesis failed (status other than ``ok``), which the buckets and
    the H split leave out.
    """

    total_records: int
    total_successes: int
    slack: float
    parameters: dict[str, ParameterTrend]
    h_type_split: tuple[HTypeSplit, ...] = field(default_factory=tuple)
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
    counted = [r for r in records if r.status == "ok"]
    getters = {
        "h_s": lambda r: r.h,
        "r_pu": lambda r: r.r,
        "t_s": lambda r: r.t,
        "toi_pct": lambda r: r.toi_pct,
        "ad_pct": lambda r: r.ad_pct,
    }
    parameters = {}
    for name, get in getters.items():
        grouped: dict[float, list[SweepRecord]] = {}
        for rec in counted:
            grouped.setdefault(get(rec), []).append(rec)
        buckets = tuple(
            TrendBucket(v, len(rs), sum(1 for r in rs if r.success))
            for v, rs in sorted(grouped.items())
        )
        rates = [b.success_rate for b in buckets]
        verdict = _direction_verdict(rates, slack)
        expected = EXPECTED_DIRECTIONS[name]
        matches = verdict in (expected, "both")
        parameters[name] = ParameterTrend(name, expected, buckets, verdict, matches)

    split = []
    for h in sorted({r.h for r in counted}):
        rs = [r for r in counted if r.h == h]
        split.append(HTypeSplit(
            h=h,
            rocof=sum(1 for r in rs if r.attack_type is AttackType.ROCOF),
            ls=sum(1 for r in rs if r.attack_type is AttackType.LS),
            none=sum(1 for r in rs if r.attack_type is AttackType.NONE),
        ))
    return TrendReport(
        total_records=len(records),
        total_successes=sum(1 for r in records if r.success),
        slack=slack,
        parameters=parameters,
        h_type_split=tuple(split),
        excluded_records=len(records) - len(counted),
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


def _fmt(x: float) -> str:
    return format(x, f".{RECORD_DIGITS}g")


def write_records_csv(records: Sequence[SweepRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(SWEEP_CSV_HEADER + "\n")
        for r in records:
            fh.write(",".join([
                str(r.combo_id),
                _fmt(r.h), _fmt(r.r), _fmt(r.t), _fmt(r.toi_pct), _fmt(r.ad_pct),
                "true" if r.success else "false",
                r.attack_type.value,
                "" if r.min_dp_a is None else _fmt(r.min_dp_a),
                "" if r.trip_step is None else str(r.trip_step),
                r.status,
            ]) + "\n")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text}")
    return value


def read_records_csv(path) -> list[SweepRecord]:
    """Parse a sweep CSV back into records (for the report stage).

    A file with the older header, which lacks the ``status`` column, reads
    with status ``ok`` on every record.  ``success`` must read ``true`` or
    ``false``, and the parameter columns and a ``min_dp_a`` present must be
    finite; a file that is not UTF-8 text or has any other malformed row
    raises :class:`InvalidParameter`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise InvalidParameter("records", "not UTF-8 text") from exc
    header = lines[0] if lines else ""
    if header not in (SWEEP_CSV_HEADER, _SWEEP_CSV_HEADER_NO_STATUS):
        raise InvalidParameter("records", "missing or wrong header", header)
    if len(lines) < 2:
        raise InvalidParameter("records", "no data rows", 0)
    has_status = header == SWEEP_CSV_HEADER
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        status = parts[-1] if has_status else "ok"
        if (len(parts) != 10 + has_status or not status
                or parts[6] not in ("true", "false")):
            raise InvalidParameter("records", "malformed row", ln)
        try:
            records.append(SweepRecord(
                combo_id=int(parts[0]),
                h=_finite(parts[1]), r=_finite(parts[2]), t=_finite(parts[3]),
                toi_pct=_finite(parts[4]), ad_pct=_finite(parts[5]),
                success=parts[6] == "true",
                attack_type=AttackType(parts[7]),
                min_dp_a=_finite(parts[8]) if parts[8] else None,
                trip_step=int(parts[9]) if parts[9] else None,
                status=status,
            ))
        except (ValueError, KeyError) as exc:
            raise InvalidParameter("records", f"malformed row: {exc}", ln) from exc
    return records


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
        p = csv_dir / f"trend_{name}.csv"
        with open(p, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"{name},successes\n")
            for b in trend.buckets:
                fh.write(f"{_fmt(b.value)},{b.successes}\n")
        written.append(p)
    return written
