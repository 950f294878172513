"""frosim needs only the standard library: importing it loads no numpy, and
every CLI command gives the same exit code, printed output and files with
numpy imports blocked as in a normal run."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

# argv: "block" or "normal", then the frosim command line; a None entry in
# sys.modules makes every later `import numpy` raise ImportError
RUN_CLI = """
import sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from frosim.cli import run
sys.exit(run(sys.argv[2:]))
"""

SIMULATE = ["simulate", "--config", "grid.json", "--dp-a", "0.322",
            "--horizon", "600", "--out", "trace.csv"]
SYNTHESIZE = ["synthesize", "--config", "grid.json", "--target", "rocof",
              "--sign", "either", "--horizon", "60", "--out", "result.json"]
SWEEP = ["sweep", "--spec", "spec.json", "--out", "records.csv",
         "--workers", str(min(2, os.cpu_count() or 1))]
REPORT = ["report", "--records", "records.csv", "--out", "report.json"]

# each case is a sequence of frosim command lines run in one directory
CASES = {
    "simulate": [SIMULATE],
    "simulate-switches": [SIMULATE + ["--literal-accumulation",
                                      "--literal-signs", "--rescale-inertia"]],
    "synthesize": [SYNTHESIZE],
    "synthesize-exhaustive": [SYNTHESIZE + ["--exhaustive"]],
    "sweep-report": [SWEEP, REPORT],
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # at the default log level stderr holds only a command's own messages
    env.pop("FRO_LOG_LEVEL", None)
    return env


def test_import_loads_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, frosim, frosim.cli; "
         "assert 'numpy' not in sys.modules, 'numpy was imported'"],
        env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def _run_case(steps, mode, workdir):
    """Run *steps* in *workdir*; return each step's exit code and printed
    output, and the bytes of every file left in the directory."""
    workdir.mkdir()
    shutil.copy(DEMOS / "case_study_grid.json", workdir / "grid.json")
    spec = json.loads((DEMOS / "sweep_spec.json").read_text())
    spec["count"] = 200
    (workdir / "spec.json").write_text(json.dumps(spec))
    runs = []
    for argv in steps:
        proc = subprocess.run(
            [sys.executable, "-c", RUN_CLI, mode, *argv], cwd=workdir,
            env=_env(), capture_output=True, timeout=300,
        )
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return runs, files


@pytest.mark.parametrize("case", CASES)
def test_cli_runs_the_same_without_numpy(case, tmp_path):
    steps = CASES[case]
    normal = _run_case(steps, "normal", tmp_path / "normal")
    blocked = _run_case(steps, "block", tmp_path / "block")
    assert [code for code, _, _ in normal[0]] == [0] * len(steps), normal[0]
    # every step wrote at least one file beside the two inputs
    assert len(normal[1]) >= 2 + len(steps)
    assert blocked == normal
