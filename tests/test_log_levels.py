"""What each ``FRO_LOG_LEVEL`` writes to stderr.

At ``info`` and ``debug`` every command writes the lines pinned in
``log_pins.json``: the line count, the first line and a digest of the whole
stderr, with the temporary directory written as ``<tmp>``.  Each command
runs in a fresh interpreter, as a user runs it.  A change that is meant to
alter a line re-records the table with::

    PYTHONPATH=src python tests/test_log_levels.py
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
TABLE = Path(__file__).resolve().parent / "log_pins.json"

SYNTHESIZE = ["synthesize", "--config", "grid.json", "--target", "rocof",
              "--sign", "either", "--horizon", "60", "--out", "result.json"]

#: case: (FRO_LOG_LEVEL, frosim command line)
CASES = {
    "info simulate": ("info", [
        "simulate", "--config", "grid.json", "--dp-a", "0.322",
        "--horizon", "600", "--out", "trace.csv", "--literal-accumulation"]),
    "debug synthesize": ("debug", SYNTHESIZE),
    "debug synthesize --exhaustive": ("debug", SYNTHESIZE + ["--exhaustive"]),
    "debug serial sweep": ("debug", [
        "sweep", "--spec", "spec.json", "--out", "records.csv",
        "--workers", "1"]),
}


def _env(level=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("FRO_LOG_LEVEL", None)
    if level:
        env["FRO_LOG_LEVEL"] = level
    return env


def outcome(case: str, directory: Path) -> dict:
    level, argv = CASES[case]
    directory.mkdir()
    shutil.copy(DEMOS / "case_study_grid.json", directory / "grid.json")
    shutil.copy(DEMOS / "sweep_spec.json", directory / "spec.json")
    proc = subprocess.run(
        [sys.executable, "-m", "frosim.cli", *argv], cwd=directory,
        env=_env(level), capture_output=True, text=True, timeout=300,
    )
    stderr = proc.stderr.replace(str(directory), "<tmp>")
    lines = stderr.splitlines()
    return {"exit": proc.returncode, "lines": len(lines),
            "first": lines[0] if lines else None,
            "sha256": hashlib.sha256(stderr.encode("utf-8")).hexdigest()}


@pytest.mark.parametrize("case", CASES)
def test_stderr_matches_its_pin(case, tmp_path):
    recorded = json.loads(TABLE.read_text(encoding="utf-8"))
    assert outcome(case, tmp_path / "run") == recorded[case]


def test_a_library_caller_that_configures_logging_gets_the_debug_line():
    script = (
        "import frosim, logging\n"
        "logging.basicConfig(level=logging.DEBUG)\n"
        f"config = frosim.load_config({str(DEMOS / 'case_study_grid.json')!r})\n"
        "frosim.synthesize_min_attack(config, frosim.AttackGoal(horizon=12))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr.startswith(
        "DEBUG:frosim.synth:synthesis any/positive by interval pass, "), \
        proc.stderr
    assert proc.stderr.count("\n") == 1


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = {case: outcome(case, Path(tmp) / str(i))
                for i, case in enumerate(CASES)}
    TABLE.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    print(f"{len(pins)} pins written to {TABLE}", file=sys.stderr)
