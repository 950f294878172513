"""Record the SHA-256 of every trace CSV the trace-long workload can produce.

Run from the repository root when the workload's inputs change, never to make
a failing digest check pass (about a minute):

    python3 bench/record_digests.py

Writes ``bench/trace_digests.json``.
"""

import hashlib
import itertools
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import (  # noqa: E402
    DIGESTS_FILE, DP_A_MAGNITUDES, HORIZONS, MODES, TraceLong, TraceOp, digest_key,
)


def all_trace_ops():
    """Every (dp_a, horizon, mode) the workload can draw."""
    index = itertools.count()
    for mag in DP_A_MAGNITUDES:
        for sign in (1, -1):
            for horizon in HORIZONS:
                for mode in MODES:
                    yield TraceOp(next(index), sign * mag, horizon, mode)


def main() -> None:
    work = ROOT / ".bench_out" / "digests"
    work.mkdir(parents=True, exist_ok=True)
    workload = TraceLong(ROOT, work, seed=0)
    out = work / "digest.csv"
    digests = {}
    for op in all_trace_ops():
        code = workload.execute(op, out)
        if code != 0:
            raise SystemExit(f"simulate exited {code} for {digest_key(op)}")
        digests[digest_key(op)] = hashlib.sha256(out.read_bytes()).hexdigest()
    shutil.rmtree(work)
    with open(DIGESTS_FILE, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} digests written to {DIGESTS_FILE}")


if __name__ == "__main__":
    main()
