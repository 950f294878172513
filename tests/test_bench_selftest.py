"""The benchmark's self-test: every workload at a tiny size, outputs checked.

Its sweep check replays each recorded answer from the records CSV, so it
catches answers that meet the goal only at more digits than a record keeps.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_trace_point_names_an_attribute():
    """The tracer wraps module attributes by name; a point whose name is
    gone would surface only as a missing span deep inside the self-test."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{attr}" for module, attr, *_ in tracer.TRACE_POINTS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
