"""The three benchmark workloads.

Each workload is a closed loop with one caller: the next ``frosim`` command
is sent only after the previous one returns.  Commands run in-process through
``frosim.cli.run``, the path the ``frosim`` script takes, and the program
sees only the input files made here from the seed.

A workload provides:

- ``generate()``: write the input files (the benchmark's own work, untimed);
- ``parse()``: parse the inputs with frosim (counted in ``setup_s``);
- ``ops()``: the operations in order, derived from the seed;
- ``execute(op)``: the timed part, the CLI command(s) of one operation;
- ``check(tally, op, outcome, error)``: read the outputs back and verify
  them, untimed, right after the operation; only counts are kept.

Why these three: ``sweep-study`` is where a per-dynamics cache and the
closed-form ANY-goal minimum would do their work (2,000 combinations over 125
distinct dynamics); ``synth-mixed`` gives such a cache nothing to reuse and
never takes the ANY goal, so it carries the bisection and exhaustive-scan
paths; ``trace-long`` runs the step kernel without early exit, with trace
assembly and CSV output, so a kernel tuned for early-exit verdicts is also
measured where it must not lose.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple, Optional

import frosim
import frosim.cli
from frosim import AttackGoal, EventKind, Sign, TargetKind
from frosim.sweep import read_records_csv

#: Search tolerance used by every workload and every output check, per-unit.
TOLERANCE = 1e-4

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS_FILE = BENCH_DIR / "trace_digests.json"


def cli_run(argv) -> int:
    """One ``frosim`` command; an argparse rejection reads as exit 2."""
    try:
        return frosim.cli.run([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


class Tally:
    """Running totals of the checked operations of one run.

    Outputs are checked as soon as they are read back and then dropped, so
    the benchmark's own memory does not grow with the number of operations
    and ``peak_rss_mb`` stays a figure of the program.
    """

    MAX_MESSAGES = 10

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.counts: Counter = Counter()  # workload notes, e.g. exhaustive_ops
        self.units = 0    # units whose (H, R, T) was noted
        self.repeats = 0  # of those, the ones seen earlier in their command

    def fail(self, n: int, *messages: str) -> None:
        self.failed += n
        room = self.MAX_MESSAGES - len(self.messages)
        self.messages += messages[:max(room, 0)]

    def note_dynamics(self, keys) -> None:
        """(H, R, T) of each unit of one command.

        A cache inside one ``frosim`` process can reuse only repeats within
        the command, so only those are counted.
        """
        seen = set()
        for key in keys:
            self.units += 1
            self.repeats += key in seen
            seen.add(key)

    @property
    def repeat_dynamics_share(self) -> float:
        return self.repeats / self.units if self.units else 0.0


def check_answer(config, goal, dp_a, expect) -> Optional[str]:
    """Why a reported minimal injection is wrong, or None when it holds.

    It must meet the goal on replay, agree with what was recorded (*expect*
    returns a complaint about the replayed vector, or None), and no allowed
    direction may meet the goal one tolerance step below its magnitude.
    """
    replay = frosim.feasibility(config, dp_a, goal)
    if not replay.success:
        return f"dp_a={dp_a!r} does not meet the goal on replay"
    complaint = expect(replay.vector)
    if complaint:
        return complaint
    magnitude = abs(dp_a) - TOLERANCE
    if magnitude > 0:
        for direction in goal.directions():
            if frosim.feasibility(config, direction * magnitude, goal).success:
                return (f"dp_a={dp_a!r} is not minimal: "
                        f"{direction * magnitude!r} also meets the goal")
    return None


def check_no_attack(config, goal) -> Optional[str]:
    """Why an exit-1 verdict is wrong, or None when the bound itself fails."""
    bound = frosim.capability_bound(config.capability)
    for direction in goal.directions():
        if frosim.feasibility(config, direction * bound, goal).success:
            return f"no attack reported but dp_a={direction * bound!r} meets the goal"
    return None


# ---------------------------------------------------------------------------
# sweep-study

#: The verdict of a record that passes its checks, shared by all of them.
PASSED = (None, True)


class SweepOp(NamedTuple):
    index: int
    sweep_seed: int


class SweepOutcome(NamedTuple):
    sweep: int
    report: Optional[int]
    sweep_seconds: float


class SweepStudy:
    """``frosim sweep`` on the shipped 2,000-combination spec, then ``report``.

    Every operation draws a new sweep seed, so each sweep covers different
    combinations of the same 125 (H, R, T) cells: about 94% of combinations
    repeat dynamics already seen earlier in their sweep.
    """

    name = "sweep-study"
    unit = "combinations"
    checked = "combinations"

    def __init__(self, root: Path, work: Path, seed: int,
                 count: Optional[int] = None, traced_ops: int = 1):
        self.spec_src = root / "demos" / "sweep_spec.json"
        self.work = work
        self.seed = seed
        self.count = count
        self.traced_ops = traced_ops
        self.records = work / "records.csv"
        self.report = work / "trend.json"
        self.trend_dir = work / "trend"
        # verdict of each distinct record, keyed by the record's hash; about
        # one per combination the spec can draw, so this stays small and
        # bounded however many sweeps run
        self._verdicts: dict[int, tuple[Optional[str], bool]] = {}

    def generate(self) -> None:
        self.spec = self.spec_src
        if self.count is not None:  # a smaller copy of the spec, for the self-test
            data = json.loads(self.spec_src.read_text(encoding="utf-8"))
            data["count"] = self.count
            self.spec = self.work / "sweep_spec.json"
            self.spec.write_text(json.dumps(data), encoding="utf-8")

    def parse(self) -> None:
        data = json.loads(self.spec.read_text(encoding="utf-8"))
        if data.get("tolerance", TOLERANCE) != TOLERANCE:
            raise ValueError(f"{self.spec_src}: tolerance must be {TOLERANCE}")
        self.base = frosim.config_from_dict(data["base_config"])
        g = data["goal"]
        self.goal = AttackGoal(
            horizon=g["horizon"],
            target_kind=TargetKind(g.get("target", "any")),
            sign=Sign(g.get("sign", "positive")),
            specific_relay_id=g.get("relay_id"),
            attack_step=g.get("attack_step", 0),
        )
        self.combos = data["count"]

    def units(self, op) -> int:
        return self.combos

    def ops(self):
        rng = random.Random(f"sweep-study:{self.seed}")
        for i in itertools.count():
            yield SweepOp(i, rng.randrange(1, 2 ** 31))

    def sweep_argv(self, op, out, workers=1):
        return ["sweep", "--spec", self.spec, "--workers", workers,
                "--seed", op.sweep_seed, "--out", out]

    def execute(self, op) -> SweepOutcome:
        t0 = time.perf_counter()
        sweep = cli_run(self.sweep_argv(op, self.records))
        sweep_seconds = time.perf_counter() - t0
        report = None
        if sweep == 0:
            report = cli_run(["report", "--records", self.records,
                              "--out", self.report, "--csv-dir", self.trend_dir])
        return SweepOutcome(sweep, report, sweep_seconds)

    def check(self, tally, op, outcome, error) -> None:
        tally.attempted += self.combos
        if error is None and (outcome.sweep, outcome.report) != (0, 0):
            error = f"exit codes sweep={outcome.sweep} report={outcome.report}"
        if error is None:
            try:
                records = read_records_csv(self.records)
                totals = json.loads(self.report.read_text(encoding="utf-8"))
                totals = (totals["total_records"], totals["total_successes"])
            except Exception as exc:  # unreadable outputs fail the operation
                error = f"reading outputs: {type(exc).__name__}: {exc}"
        if error:
            tally.fail(self.combos, f"op {op.index}: {error}")
            return
        tally.note_dynamics((r.h, r.r, r.t) for r in records)
        tally.counts["successful_combinations"] += sum(r.success for r in records)
        bad = abs(len(records) - self.combos)
        messages = []
        if totals != (len(records), sum(r.success for r in records)):
            bad = self.combos
            messages.append(f"op {op.index}: report totals {totals} "
                            "disagree with the records")
        nonok = 0
        for rec in records:
            complaint, ok = self._verdict(rec)
            nonok += not ok
            if complaint:
                bad += 1
                messages.append(f"op {op.index} combo {rec.combo_id}: {complaint}")
        tally.counts["nonok_records"] += nonok
        tally.fail(min(bad, self.combos), *messages)

    def _verdict(self, rec) -> tuple[Optional[str], bool]:
        """(complaint or None, whether the status is ok), replayed once per
        distinct record: identical combinations must give identical records."""
        key = hash((rec.h, rec.r, rec.t, rec.toi_pct, rec.ad_pct, rec.success,
                    rec.attack_type.value, rec.min_dp_a, rec.trip_step,
                    getattr(rec, "status", "ok")))
        if key not in self._verdicts:
            try:
                verdict = self._verify(rec)
            except frosim.FrosimError as exc:
                verdict = (f"replay raised {exc!r}", True)
            self._verdicts[key] = PASSED if verdict == PASSED else verdict
        return self._verdicts[key]

    def _verify(self, rec) -> tuple[Optional[str], bool]:
        status = getattr(rec, "status", "ok")
        try:
            config = frosim.validate_config(frosim.with_capability(
                frosim.with_dynamics(self.base, h_inertia=rec.h, droop_r=rec.r,
                                     governor_t=rec.t),
                toi=rec.toi_pct / 100.0, ad=rec.ad_pct / 100.0,
            ))
            if status == "ok" and not rec.success:
                # run_sweep folds a combination's FrosimError (for instance
                # NonMonotoneFeasibility) into its status, which the records
                # CSV may not carry: recover it the way run_sweep gets it
                frosim.synthesize_min_attack(config, self.goal, TOLERANCE)
        except frosim.FrosimError as exc:
            if status == "ok":
                status = type(exc).__name__
        if status != "ok":
            return f"status {status}", False
        if not rec.success:
            if rec.attack_type.value != "NONE":
                return f"unsuccessful record with attack type {rec.attack_type.value}", True
            return check_no_attack(config, self.goal), True

        def expect(vector):
            first = vector.trace.first_event
            kind = "ROCOF" if first.kind is EventKind.ROCOF_TRIP else "LS"
            if kind != rec.attack_type.value:
                return f"first event is {kind}, record says {rec.attack_type.value}"
            if vector.outcome.trip_step != rec.trip_step:
                return (f"trip at step {vector.outcome.trip_step}, "
                        f"record says {rec.trip_step}")
            return None

        return check_answer(config, self.goal, rec.min_dp_a, expect), True

    def pool_run(self, op, workers: int) -> tuple[float, bool]:
        """Wall time of *op*'s sweep on a process pool, and whether its records
        file is byte-identical to the serial one, which must be *op*'s."""
        out = self.work / "records_pool.csv"
        t0 = time.perf_counter()
        code = cli_run(self.sweep_argv(op, out, workers))
        seconds = time.perf_counter() - t0
        same = code == 0 and out.read_bytes() == self.records.read_bytes()
        return seconds, same


# ---------------------------------------------------------------------------
# synth-mixed

TARGETS = ("rocof", "ls", "specific")
SIGNS = ("positive", "negative", "either")
GOLDEN = (5 ** 0.5 - 1) / 2


def random_grid(seed: int, index: int, offset: float) -> tuple[dict, str]:
    """Grid config JSON number *index* of a seed, and a relay id for SPECIFIC.

    Low-inertia two-generator, one-load grids in the spirit of the acceptance
    suite's random grids.  A step injection moves frequency at about
    dp_a*f0/(2H) Hz/s, so the weakest ROCOF relay trips near
    dp_a = 2*H*threshold/f0.  That estimate is drawn from a golden-ratio
    sequence with a seeded offset, so every seed sees the same spread of
    exhaustive-scan lengths; the capability bound is 1 to 2 times it, so
    most syntheses find an attack and scans stay short.
    """
    rng = random.Random(f"synth-mixed:{seed}:{index}")
    h = rng.uniform(0.5, 1.0)
    estimate = 0.015 + 0.005 * ((offset + index * GOLDEN) % 1.0)
    thr_a = min(max(estimate * 30.0 / h, 0.5), 1.2)
    estimate = 2.0 * h * thr_a / 60.0
    toi, ad = rng.uniform(0.02, 0.10), rng.uniform(0.2, 1.0)
    bound = estimate * rng.uniform(1.0, 2.0)
    grid = {
        "frequency_nominal_hz": 60.0,
        "dt_s": 1.0 / 60.0,
        "inertia_h_s": h,
        "droop_r_pu": rng.uniform(0.2, 1.0),
        "governor_t_s": rng.uniform(0.2, 1.0),
        "rocof_window_m": 6,
        "generators": [
            {"id": "gA", "bus": "b1", "p_tg_pu": rng.uniform(0.5, 1.5),
             "rocof_thresh_hz_per_s": thr_a},
            {"id": "gB", "bus": "b2", "p_tg_pu": rng.uniform(0.5, 1.5),
             "rocof_thresh_hz_per_s": rng.uniform(thr_a, 1.2)},
        ],
        "loads": [
            {"id": "lA", "bus": "b3", "p_sh_pu": rng.uniform(0.3, 1.0),
             "underfreq_thresh_hz": rng.uniform(59.0, 59.8)},
        ],
        "attacker": {"toi": toi, "ad": ad, "der_total_pu": 1.5,
                     "kappa": bound / (toi * ad * 1.5)},
    }
    return grid, rng.choice(("gA", "gB", "lA"))


class SynthOp(NamedTuple):
    index: int
    config: object  # the grid as the benchmark parsed it, for the check
    target: str
    sign: str
    relay_id: Optional[str]
    exhaustive: bool


class SynthOutcome(NamedTuple):
    code: int
    retried: bool


class SynthMixed:
    """``frosim synthesize --horizon 60`` on a stream of distinct random grids.

    Operation i uses grid i, target ``TARGETS[i % 3]`` and sign
    ``SIGNS[(i // 3) % 3]``, so all nine pairs recur every nine operations;
    every 10th operation passes ``--exhaustive``.  Exit 4 is retried with
    ``--exhaustive`` as part of the same operation.  Set-up makes the first
    *pool* grids; later ones are made between operations and not kept.
    """

    name = "synth-mixed"
    unit = "syntheses"
    checked = "syntheses"

    def __init__(self, root: Path, work: Path, seed: int, pool: int = 800,
                 traced_ops: int = 300):
        self.work = work
        self.seed = seed
        self.pool = pool
        self.traced_ops = traced_ops
        self.grid_dir = work / "grids"
        self.result = work / "result.json"
        self.trace = work / "result.trace.csv"
        self.offset = random.Random(f"synth-mixed:{seed}").random()

    def generate(self) -> None:
        self.grid_dir.mkdir(parents=True, exist_ok=True)
        self.relays = [self._write_grid(i) for i in range(self.pool)]

    def parse(self) -> None:
        self.configs = [frosim.load_config(self.grid_path(i))
                        for i in range(self.pool)]

    def _write_grid(self, i: int) -> str:
        grid, relay = random_grid(self.seed, i, self.offset)
        self.grid_path(i).write_text(json.dumps(grid), encoding="utf-8")
        return relay

    def grid_path(self, i: int) -> Path:
        return self.grid_dir / f"grid{i}.json"

    def units(self, op) -> int:
        return 1

    def ops(self):
        for i in itertools.count():
            if i < self.pool:
                config, relay = self.configs[i], self.relays[i]
            else:
                relay = self._write_grid(i)
                config = frosim.load_config(self.grid_path(i))
            target = TARGETS[i % 3]
            yield SynthOp(i, config, target, SIGNS[(i // 3) % 3],
                          relay if target == "specific" else None,
                          i % 10 == 9)

    def execute(self, op) -> SynthOutcome:
        argv = ["synthesize", "--config", self.grid_path(op.index),
                "--horizon", 60, "--target", op.target, "--sign", op.sign,
                "--tolerance", TOLERANCE, "--out", self.result,
                "--trace-out", self.trace]
        if op.relay_id:
            argv += ["--relay-id", op.relay_id]
        code = cli_run((argv + ["--exhaustive"]) if op.exhaustive else argv)
        if code == 4 and not op.exhaustive:
            return SynthOutcome(cli_run(argv + ["--exhaustive"]), True)
        return SynthOutcome(code, False)

    def goal(self, op) -> AttackGoal:
        return AttackGoal(horizon=60, target_kind=TargetKind(op.target),
                          sign=Sign(op.sign), specific_relay_id=op.relay_id)

    def check(self, tally, op, outcome, error) -> None:
        tally.attempted += 1
        p = op.config.params
        tally.note_dynamics([(p.h_inertia, p.droop_r, p.governor_t)])
        tally.counts["exhaustive_ops"] += op.exhaustive
        tally.counts["exit4_retried"] += bool(outcome and outcome.retried)
        tally.counts["no_attack_ops"] += bool(outcome and outcome.code == 1)
        try:
            complaint = error or self._verify(op, outcome)
        except frosim.FrosimError as exc:
            complaint = f"replay raised {exc!r}"
        except Exception as exc:  # unreadable outputs fail the operation
            complaint = f"reading outputs: {type(exc).__name__}: {exc}"
        if complaint:
            tally.fail(1, f"op {op.index}: {complaint}")

    def _verify(self, op, outcome) -> Optional[str]:
        if outcome.code not in (0, 1):
            return f"exit code {outcome.code}"
        result = json.loads(self.result.read_text(encoding="utf-8"))
        goal = self.goal(op)
        if outcome.code == 1:
            if result.get("status") != "no_attack":
                return f"exit 1 with result {result}"
            return check_no_attack(op.config, goal)
        if result.get("status") != "success":
            return f"exit 0 with result {result}"

        def expect(vector):
            got = (vector.outcome.relay_id, vector.outcome.kind.json_name,
                   vector.outcome.trip_step)
            want = (result["relay_id"], result["relay_kind"], result["trip_step"])
            if got != want:
                return f"replay's first matching event {got}, result says {want}"
            return None

        return check_answer(op.config, goal, result["dp_a_pu"], expect)


# ---------------------------------------------------------------------------
# trace-long

MODES = {
    "default": (),
    "literal-accumulation": ("--literal-accumulation",),
    "literal-signs": ("--literal-signs",),
    "rescale-inertia": ("--rescale-inertia",),
}
HORIZONS = (20000, 30000, 40000)
#: Injection magnitudes, all within the case-study grid's 0.36 pu bound.  The
#: set is finite so every trace the workload can produce has a recorded digest.
DP_A_MAGNITUDES = (0.05, 0.15, 0.25, 0.35)


class TraceOp(NamedTuple):
    index: int
    dp_a: float
    horizon: int
    mode: str


def digest_key(op: TraceOp) -> str:
    return f"{op.mode}|{op.dp_a!r}|{op.horizon}"


class TraceLong:
    """``frosim simulate`` of the case-study grid for tens of thousands of steps.

    Operation i runs switch ``MODES[i % 4]`` and horizon ``HORIZONS[i % 3]``,
    so all twelve pairs recur every 12 operations and any run of operations
    holds the horizons in near-equal numbers (which keeps the latency median
    from moving with the count of operations); ``--dp-a`` is drawn from the
    seed with both signs.
    """

    name = "trace-long"
    unit = "steps"
    checked = "simulations"

    def __init__(self, root: Path, work: Path, seed: int, traced_ops: int = 12):
        self.grid = root / "demos" / "case_study_grid.json"
        self.work = work
        self.seed = seed
        self.traced_ops = traced_ops
        self.out = work / "trace.csv"

    def generate(self) -> None:
        pass  # the input is the shipped case-study grid

    def parse(self) -> None:
        self.config = frosim.load_config(self.grid)
        bound = frosim.capability_bound(self.config.capability)
        if max(DP_A_MAGNITUDES) > bound:
            raise ValueError(f"{self.grid}: capability bound {bound} below "
                             f"the workload's injections")
        self.digests = json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))

    def units(self, op) -> int:
        return op.horizon + 1  # steps 0..horizon

    def ops(self):
        rng = random.Random(f"trace-long:{self.seed}")
        names = list(MODES)
        for i in itertools.count():
            dp_a = rng.choice(DP_A_MAGNITUDES) * rng.choice((1, -1))
            yield TraceOp(i, dp_a, HORIZONS[i % 3], names[i % 4])

    def execute(self, op, out: Optional[Path] = None) -> int:
        return cli_run(["simulate", "--config", self.grid, f"--dp-a={op.dp_a!r}",
                        "--horizon", op.horizon, "--out", out or self.out,
                        *MODES[op.mode]])

    def check(self, tally, op, outcome, error) -> None:
        tally.attempted += 1
        p = self.config.params
        tally.note_dynamics([(p.h_inertia, p.droop_r, p.governor_t)])
        if error is None and outcome != 0:
            error = f"exit code {outcome}"
        if error is None:
            try:
                digest = hashlib.sha256(self.out.read_bytes()).hexdigest()
            except OSError as exc:
                error = f"reading outputs: {exc}"
            else:
                if digest != self.digests.get(digest_key(op)):
                    error = f"trace CSV digest differs for {digest_key(op)}"
        if error:
            tally.fail(1, f"op {op.index}: {error}")


WORKLOADS = {w.name: w for w in (SweepStudy, SynthMixed, TraceLong)}
