"""frosim benchmark: one closed-loop workload per run, in-process, from source.

Run from the repository root:

    python3 bench/run.py --workload sweep-study --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``sweep-study``, ``synth-mixed`` and
``trace-long``.  The program is imported from ``src/`` of the checkout this
file sits in; without it the run stops with exit 2 and prints no result.

``--trace 0`` measures the end-to-end metrics.  Operations run one after
another, each sent when the previous one returned, until their summed
latency reaches ``--seconds``; after each one, outside the timed region, its
outputs are read back and checked and then dropped, keeping only counts.
Every workload reports the same five metrics, each read in the workload's
own terms:

- ``setup_s``: median over ``SETUP_REPEATS`` set-ups of ``import frosim`` in
  a fresh interpreter plus parsing the workload's inputs with frosim
  (writing the input files is the benchmark's own work and is not timed);
- ``peak_rss_mb``: peak resident set size of the benchmark process, read
  after the last operation; what the benchmark keeps does not grow with
  the number of operations, so a faster program does not read as a larger
  one;
- ``units_per_s``: work per second of operation latency, counted in
  combinations (sweep-study), syntheses (synth-mixed) or simulated steps
  (trace-long);
- ``latency_p50_ms`` and ``latency_p95_ms``: latency of one operation, which
  is one sweep plus its report, one synthesis (with its exit-4 retry) or one
  simulation written to CSV.

Times are scaled to a reference host speed (see ``hostspeed.py``): the host
this was written on drifts by up to 2x in CPU speed over seconds, so each
wall time is multiplied by ``REFERENCE_S`` over the time of a fixed
reference loop measured near it, never while the program runs alongside.
The unscaled wall times are printed and stored too, as ``wall_*``.

``--trace 1`` runs a fixed list of operations from the seed twice, untraced
and traced, and reports per-layer metrics from the traced pass plus
the tracing overhead (traced minus untraced latency).  Counts in it repeat
exactly for a given seed.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``failed / attempted``
is the workload's fail share: an exception, an exit code other than 0 or
1, a record whose status is not ``ok``, or an output that fails its check.
Lines before it, starting with ``#``, name each metric with its unit and
give the provenance of the run; the same data and the spans of a traced run
are written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from typing import NamedTuple

import hostspeed
from hostspeed import HostClock, reference_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 21
#: Process-pool size for ``sweep.pool_speedup``: every available core, capped
#: so a large machine does not fork dozens of workers.
POOL_WORKERS = min(len(os.sched_getaffinity(0)), 8)

#: Times ``import frosim`` in a fresh interpreter, with host-speed readings
#: taken in that interpreter just before and after it.
IMPORT_PROBE = ("import time, hostspeed; before = hostspeed.reference_seconds(3); "
                "t = time.perf_counter(); import frosim; "
                "seconds = time.perf_counter() - t; "
                "print(seconds, before, hostspeed.reference_seconds(3))")

#: The workload-specific reading of each end-to-end metric, for the summary.
READINGS = {
    "sweep-study": {"units_per_s": "sweep.combos_per_s",
                    "latency_p50_ms": "sweep+report latency"},
    "synth-mixed": {"latency_p50_ms": "synth.latency_p50_ms",
                    "latency_p95_ms": "synth.latency_p95_ms"},
    "trace-long": {"units_per_s": "trace.steps_per_s"},
}


def import_seconds(work: Path) -> tuple[float, float]:
    """Time of ``import frosim`` in a fresh interpreter, as each CLI call pays
    it: in wall seconds and scaled by readings taken in that interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), str(BENCH),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=work,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, before, after = map(float, proc.stdout.split()[-3:])
    return seconds, hostspeed.scaled(seconds, before, after)


def measure_setup(workload, work: Path) -> tuple[float, float]:
    """Median set-up time, in reference-host seconds and in wall seconds.

    The import is scaled by readings taken in its own interpreter, the parse
    by readings taken here on either side of it: the host's speed moves too
    fast for one reading to serve both.
    """
    workload.generate()
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        imported, imported_scaled = import_seconds(work)
        before = reference_seconds()
        t0 = time.perf_counter()
        workload.parse()
        parsed = time.perf_counter() - t0
        after = reference_seconds()
        raw.append(imported + parsed)
        scaled.append(imported_scaled + hostspeed.scaled(parsed, before, after))
    return statistics.median(scaled), statistics.median(raw)


class Timing(NamedTuple):
    latencies: array  # seconds per operation
    starts: array
    ends: array
    busy: float       # their sum
    units: int        # work done, in the workload's unit
    last: object      # outcome of the last operation


def run_ops(workload, ops, seconds=None, tally=None, tracer=None, clock=None):
    """Run *ops* in a closed loop; stop once latency sums to *seconds*.

    After each operation, untimed, its outputs are checked into *tally*
    (when given) and dropped.  *tracer* is installed for the timed part of
    each operation only.  Time *clock* spends taking readings inside an
    operation is not counted as latency.
    """
    latencies, starts, ends = array("d"), array("d"), array("d")
    busy, units, outcome = 0.0, 0, None
    sink = io.StringIO()  # the CLI's own console output
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for op in ops:
            if seconds is not None and busy >= seconds:
                break
            if clock:
                clock.read_if_due()
            spent = clock.spent if clock else 0.0
            with tracer.active(op.index) if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    outcome, error = workload.execute(op), None
                except Exception as exc:  # one failed operation must not end the run
                    outcome, error = None, f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
            latency = t1 - t0 - ((clock.spent - spent) if clock else 0.0)
            if clock:
                clock.read_if_due()
            busy += latency
            units += workload.units(op)
            latencies.append(latency)
            starts.append(t0)
            ends.append(t1)
            if tally is not None:
                workload.check(tally, op, outcome, error)
            sink.seek(0)
            sink.truncate()
    return Timing(latencies, starts, ends, busy, units, outcome)


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit():
    """The checkout's commit, read from ``.git`` without running git; None
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(frosim, workload: str, seed: int, trace: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "frosim": frosim.__version__,
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def end_to_end(workload, work: Path, seconds: float) -> dict:
    from workloads import Tally

    setup, setup_raw = measure_setup(workload, work)
    tally = Tally()
    with HostClock() as clock:
        run = run_ops(workload, workload.ops(), seconds, tally, clock=clock)
    peak = peak_rss_mb()
    latencies = [x * clock.scale(t0, t1)
                 for x, t0, t1 in zip(run.latencies, run.starts, run.ends)]
    units = run.units
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "messages": tally.messages,
        "metrics": {
            "setup_s": (setup, "s"),
            "peak_rss_mb": (peak, "MB"),
            "units_per_s": (units / sum(latencies), "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_p95_ms": (percentile(latencies, 95) * 1e3, "ms"),
        },
        "info": {
            "operations": len(latencies),
            "units": units,
            "unit": workload.unit,
            "checked": workload.checked,
            "fail_share": tally.failed / tally.attempted,
            "repeat_dynamics_share": tally.repeat_dynamics_share,
            **tally.counts,
            "wall_setup_s": setup_raw,
            "wall_busy_s": run.busy,
            "wall_units_per_s": units / run.busy,
            "wall_latency_p50_ms": statistics.median(run.latencies) * 1e3,
            "wall_latency_p95_ms": percentile(run.latencies, 95) * 1e3,
            "host_reference_ms": statistics.mean(clock.readings) * 1e3,
            "host_readings": len(clock.readings),
        },
        "latencies_ms": [x * 1e3 for x in run.latencies],
    }


def traced(workload, work: Path, points=None) -> dict:
    """Untraced and traced runs of the same fixed operations.

    The two runs alternate operation by operation, each going first on every
    other operation, so both see the same machine state.  The traced run's
    outputs are checked.
    """
    from tracer import TRACE_POINTS, Tracer
    from workloads import Tally

    workload.generate()
    workload.parse()
    ops = list(itertools.islice(workload.ops(), workload.traced_ops))
    tracer = Tracer(points or TRACE_POINTS)
    tally = Tally()
    sweep = workload.unit == "combinations"
    untraced_s, traced_s, serial_s = 0.0, 0.0, 0.0
    for op in ops:
        for plain in ((True, False) if op.index % 2 == 0 else (False, True)):
            if plain:
                run = run_ops(workload, [op])
                untraced_s += run.busy
                if sweep and run.last is not None:
                    serial_s = run.last.sweep_seconds  # of the last op
            else:
                traced_s += run_ops(workload, [op], tally=tally, tracer=tracer).busy
    units = sum(workload.units(op) for op in ops)

    metrics = tracer.metrics(combos=units if sweep else 0)
    metrics["sweep.nonok_records"] = (tally.counts["nonok_records"], "count")
    speedup = 0.0
    if sweep:  # the last operation again, on a process pool
        last = ops[-1]
        with contextlib.redirect_stdout(io.StringIO()):
            pool_s, same = workload.pool_run(last, POOL_WORKERS)
        speedup = serial_s / pool_s
        if not same:
            tally.fail(workload.units(last),
                       f"op {last.index}: --workers {POOL_WORKERS} "
                       "records differ from the serial sweep")
    metrics["sweep.pool_speedup"] = (speedup, "ratio")
    metrics["input.repeat_dynamics_share"] = (tally.repeat_dynamics_share, "share")
    metrics["trace.overhead_ms"] = ((traced_s - untraced_s) * 1e3, "ms")
    tracer.write_spans(work / "spans.jsonl")
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "messages": tally.messages,
        "metrics": metrics,
        "info": {
            "operations": len(ops),
            "units": units,
            "unit": workload.unit,
            "checked": workload.checked,
            "fail_share": tally.failed / tally.attempted,
            "pool_workers": POOL_WORKERS if sweep else None,
            "missing_spans": tracer.missing,
            **tally.counts,
        },
    }


def make_workload(name: str, work: Path, seed: int, **kwargs):
    from workloads import WORKLOADS

    return WORKLOADS[name](ROOT, work, seed, **kwargs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep-study", "synth-mixed", "trace-long"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "frosim" / "__init__.py").is_file():
        print(f"error: no frosim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import frosim

    if Path(frosim.__file__).resolve().parent != (SRC / "frosim").resolve():
        print(f"error: imported frosim from {frosim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = make_workload(args.workload, work, args.seed)
    if args.trace:
        result = traced(workload, work)
    else:
        result = end_to_end(workload, work, args.seconds)
    result["provenance"] = provenance(frosim, args.workload, args.seed, args.trace)
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")

    readings = READINGS[args.workload]
    print(f"# provenance {json.dumps(result['provenance'])}")
    for name, (value, unit) in result["metrics"].items():
        reading = f"  ({readings[name]})" if name in readings else ""
        print(f"# {name} = {value:.6g} {unit}{reading}")
    info = result["info"]
    print(f"# fail_share = {info['fail_share']:.6g} share "
          f"({result['failed']} of {result['attempted']} {info['checked']})")
    for key, value in info.items():
        if key != "fail_share":
            print(f"# {key}: {value}")
    for message in result["messages"][:10]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
