"""The narrative demos run to completion against the package in ``src/``,
with numpy imports blocked: frosim and its demos need only the standard
library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))

# a None entry in sys.modules makes every later `import numpy` raise
# ImportError
RUN_WITHOUT_NUMPY = ("import runpy, sys; sys.modules['numpy'] = None; "
                     "runpy.run_path(sys.argv[1], run_name='__main__')")


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_NUMPY, str(demo)], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
