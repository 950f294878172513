"""Self-test of the benchmark, at a tiny size.

Run from the repository root (about a minute):

    python3 bench/selftest.py

Checks that every workload runs its traced procedure with no failed
operation, that the tracer puts every wrapped function back afterwards,
that a trace point whose function no longer exists is reported as missing
and its metrics left out, not reported as 0, and that a sweep combination
whose synthesis raises reads as a failed, non-ok record although the
records CSV has no status column.  Exits non-zero on failure.
"""

import importlib
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import frosim  # noqa: E402
import run  # noqa: E402
from tracer import TRACE_POINTS  # noqa: E402

TINY = {
    "sweep-study": {"count": 30},
    "synth-mixed": {"pool": 10, "traced_ops": 10},  # op 9 is exhaustive
    "trace-long": {"traced_ops": 2},
}


def originals():
    return {(m, a): getattr(importlib.import_module(m), a)
            for m, a, _, _ in TRACE_POINTS}


def check(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def main() -> None:
    work_root = run.OUT / "selftest"
    shutil.rmtree(work_root, ignore_errors=True)
    before = originals()
    for name, kwargs in TINY.items():
        work = work_root / name
        work.mkdir(parents=True)
        result = run.traced(run.make_workload(name, work, seed=1, **kwargs), work)
        check(result["attempted"] >= 1, f"{name}: nothing attempted")
        check(result["failed"] == 0,
              f"{name}: {result['failed']} failed: {result['messages'][:3]}")
        check(not result["info"]["missing_spans"],
              f"{name}: missing spans {result['info']['missing_spans']}")
        check(originals() == before, f"{name}: wrappers left installed")
        steps = result["metrics"]["dynamics.steps"][0]
        check(steps > 0, f"{name}: no kernel steps traced")
        print(f"{name}: ok ({result['attempted']} {result['info']['checked']}, "
              f"{steps} steps traced)")

    # A probe point renamed away must show as missing, not as zero replays.
    points = tuple(
        (m, "probe_monotonicity_gone", n, k) if n == "synth.probe" else (m, a, n, k)
        for m, a, n, k in TRACE_POINTS
    )
    work = work_root / "missing"
    work.mkdir(parents=True)
    wl = run.make_workload("synth-mixed", work, seed=1, pool=3, traced_ops=3)
    result = run.traced(wl, work, points=points)
    missing = result["info"]["missing_spans"]
    check(any("probe_monotonicity_gone" in m for m in missing),
          f"missing point not reported: {missing}")
    for metric in ("synth.probe_ms", "synth.probe_replays"):
        check(metric not in result["metrics"], f"{metric} reported without its span")
    check("synth.bisect_replays" in result["metrics"], "other metrics lost")
    check(originals() == before, "wrappers left installed after a partial install")
    print("missing span: ok (reported as missing, metrics left out)")

    # An unsuccessful record of a combination whose synthesis raises.
    work = work_root / "nonok"
    work.mkdir(parents=True)
    wl = run.make_workload("sweep-study", work, seed=1, count=30)
    wl.generate()
    wl.parse()
    rec = frosim.SweepRecord(0, 2.0, 0.2, 0.2, 2.0, 20.0, success=False,
                             attack_type=frosim.AttackType.NONE)
    real = frosim.synthesize_min_attack

    def non_monotone(*args, **kwargs):
        raise frosim.NonMonotoneFeasibility("forced by the self-test")

    frosim.synthesize_min_attack = non_monotone
    try:
        complaint, ok = wl._verdict(rec)
    finally:
        frosim.synthesize_min_attack = real
    check(not ok and "NonMonotoneFeasibility" in (complaint or ""),
          f"non-ok combination passed: {complaint!r}, ok={ok}")
    print("non-ok record: ok (recovered status fails the record)")
    shutil.rmtree(work_root)
    print("selftest passed")


if __name__ == "__main__":
    main()
