"""The benchmark's self-test: every workload at a tiny size, outputs checked.

Its sweep check replays each recorded answer from the records CSV, so it
catches answers that meet the goal only at more digits than a record keeps.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
