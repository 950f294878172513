"""The narrative demos run to completion against the package in ``src/``,
with numpy imports blocked: frosim and its demos need only the standard
library.  They use only frosim's public names."""

import ast
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


def private_frosim_names(source: str) -> list[str]:
    """Underscore names a module imports from frosim, or reads as an
    attribute of a name bound to something of frosim; dunders are public."""
    def private(name):
        return name.startswith("_") and not (
            name.startswith("__") and name.endswith("__"))

    tree = ast.parse(source)
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "frosim":
                    bound.add(alias.asname or alias.name.split(".")[0])
                    found += [p for p in alias.name.split(".") if private(p)]
        elif isinstance(node, ast.ImportFrom) and (
                node.module or "").split(".")[0] == "frosim":
            found += [p for p in node.module.split(".") if private(p)]
            for alias in node.names:
                bound.add(alias.asname or alias.name)
                if private(alias.name):
                    found.append(alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(node.attr)
    return found


def test_the_check_sees_private_names():
    assert sorted(private_frosim_names(
        "from frosim.synth import _a, b as _c, d\n"
        "import frosim.synth as s\n"
        "from frosim import synth\n"
        "import frosim._e\n"
        "s._f; synth._g(); frosim.synth._h; frosim.__version__; x._i\n"
    )) == ["_a", "_e", "_f", "_g", "_h"]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_uses_public_names_only(demo):
    assert private_frosim_names(demo.read_text(encoding="utf-8")) == []
