"""Byte-level pins of sweep, report and synthesis outputs.

Each case runs one ``frosim`` command on a shipped demo input and compares
the SHA-256 of every file it writes with ``output_digests.json``.  A report
case first runs the serial sweep of its goal and seed, then ``report`` on
its records, and pins the trend JSON and the five ``trend_*.csv`` files.  A
serial sweep case also pins how many times the sweep called
:func:`frosim.synth.feasibility`, the interval pass
:func:`frosim.synth._smallest_feasible_start` and the step-constant build
:func:`frosim.dynamics._build_step_constants`, which a memo that stops
answering bounds without replays, a pass run twice for one group and
direction, or a group that builds its grid's constants twice, changes
although every byte stays the same.  A
synthesis result JSON is hashed with its ``trace_file`` path left out,
since that names a temporary directory.  A change that is meant to alter
an output re-records the file with::

    PYTHONPATH=src python tests/test_output_digests.py
"""

import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

from frosim import dynamics, synth
from frosim.cli import run

DEMOS = Path(__file__).resolve().parent.parent / "demos"
DIGESTS = Path(__file__).resolve().parent / "output_digests.json"

SWEEP_GOALS = {
    "any-positive-12": {"horizon": 12, "target": "any", "sign": "positive"},
    "any-either-60": {"horizon": 60, "target": "any", "sign": "either"},
    "rocof-either-60": {"horizon": 60, "target": "rocof", "sign": "either"},
    "ls-negative-60": {"horizon": 60, "target": "ls", "sign": "negative"},
    "specific-g5-positive-60": {"horizon": 60, "target": "specific",
                                "sign": "positive", "relay_id": "g5"},
}
SWEEP_CASES = [f"sweep/{goal}/seed{seed}"
               for goal in SWEEP_GOALS for seed in (1, 2)]
REPORT_CASES = [f"report/{goal}/seed{seed}"
                for goal in ("any-positive-12", "rocof-either-60",
                             "ls-negative-60")
                for seed in (1, 2)]
SYNTH_CASES = [f"synthesize/{target}-either-60"
               for target in ("any", "rocof", "ls")]
SYNTH_CASES.append("synthesize/rocof-either-60/exhaustive")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sweep(case: str, tmp: Path, workers: int = 1) -> dict:
    _, goal, seed = case.split("/")
    spec = json.loads((DEMOS / "sweep_spec.json").read_text(encoding="utf-8"))
    spec["goal"] = SWEEP_GOALS[goal]
    spec_path = tmp / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    out = tmp / "records.csv"
    counted = {"feasibility": synth, "_smallest_feasible_start": synth,
               "_build_step_constants": dynamics}
    real = {name: getattr(module, name) for name, module in counted.items()}
    calls = dict.fromkeys(counted, 0)

    def counter(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return real[name](*args, **kwargs)
        return call

    # pool workers replay in other processes, so only a serial sweep counts
    if workers == 1:
        for name, module in counted.items():
            setattr(module, name, counter(name))
    try:
        code = run(["sweep", "--spec", str(spec_path), "--out", str(out),
                    "--workers", str(workers),
                    "--seed", seed.removeprefix("seed")])
    finally:
        for name, module in counted.items():
            setattr(module, name, real[name])
    digests = {
        "exit": code,
        "records.csv": _sha256(out.read_bytes()),
        "records.csv.meta.json": _sha256(
            Path(str(out) + ".meta.json").read_bytes()),
    }
    if workers == 1:
        digests["feasibility_calls"] = calls["feasibility"]
        digests["smallest_feasible_start_calls"] = calls[
            "_smallest_feasible_start"]
        digests["step_constant_builds"] = calls["_build_step_constants"]
    return digests


def _report(case: str, tmp: Path) -> dict:
    _sweep(case.replace("report/", "sweep/", 1), tmp)
    out, csv_dir = tmp / "trend.json", tmp / "trend"
    code = run(["report", "--records", str(tmp / "records.csv"),
                "--out", str(out), "--csv-dir", str(csv_dir)])
    digests = {"exit": code, "trend.json": _sha256(out.read_bytes())}
    for path in sorted(csv_dir.iterdir()):
        digests[path.name] = _sha256(path.read_bytes())
    return digests


def _synthesize(case: str, tmp: Path) -> dict:
    target, sign, horizon = case.split("/")[1].split("-")
    out, trace = tmp / "result.json", tmp / "trace.csv"
    argv = ["synthesize", "--config", str(DEMOS / "case_study_grid.json"),
            "--target", target, "--sign", sign, "--horizon", horizon,
            "--out", str(out), "--trace-out", str(trace)]
    if case.endswith("/exhaustive"):
        argv.append("--exhaustive")
    code = run(argv)
    result = json.loads(out.read_text(encoding="utf-8"))
    result.pop("trace_file", None)
    return {
        "exit": code,
        "result.json": _sha256(json.dumps(result, indent=2).encode("utf-8")),
        "trace.csv": _sha256(trace.read_bytes()),
    }


def outputs(case: str, tmp: Path) -> dict:
    if case.startswith("sweep/"):
        return _sweep(case, tmp)
    if case.startswith("report/"):
        return _report(case, tmp)
    return _synthesize(case, tmp)


@pytest.mark.parametrize("case", SWEEP_CASES + REPORT_CASES + SYNTH_CASES)
def test_outputs_match_recorded_digests(case, tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert outputs(case, tmp_path) == recorded[case]


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_pool_records_match_the_serial_digests(case, tmp_path, monkeypatch):
    # the .meta.json names the worker count, so only the records compare;
    # a one-CPU host would refuse --workers 2, which runs a pool anyway
    cpus = os.cpu_count() or 1
    monkeypatch.setattr(os, "cpu_count", lambda: max(2, cpus))
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = _sweep(case, tmp_path, workers=2)
    assert got["exit"] == 0
    assert got["records.csv"] == recorded[case]["records.csv"]


if __name__ == "__main__":
    import tempfile

    digests = {}
    for case in SWEEP_CASES + REPORT_CASES + SYNTH_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            digests[case] = outputs(case, Path(tmp))
        print(case, digests[case]["exit"], file=sys.stderr)
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
