"""Re-recording of the pin tables.

Each pin test module (:data:`MODULES`) re-records its JSON table when run
as a script, through :func:`rewrite`.  Run as a script with no argument,
this module re-records every table, and with module names, those::

    PYTHONPATH=src python tests/pin_tables.py [test_argv.py ...]

The file name does not start with ``test_``, so pytest does not collect
it.
"""

import json
import runpy
import sys
from pathlib import Path

MODULES = ("test_argv.py", "test_config_errors.py", "test_log_levels.py",
           "test_python_config_errors.py", "test_records_errors.py",
           "test_report_errors.py")


def _flat(pins: dict, depth: int) -> dict:
    """*pins*, a table nested *depth* levels deep, as one level, each name
    joined to its section's with ``: ``."""
    if depth == 1:
        return pins
    return {f"{section}: {name}": pin for section, inner in pins.items()
            for name, pin in _flat(inner, depth - 1).items()}


def rewrite(path: Path, pins: dict, depth: int = 1) -> None:
    """Write *pins* to the table at *path*, one space per indent level, and
    name on stderr each pin that moved, was added or was removed.  A table
    of *depth* 2 holds sections of pins."""
    text = json.dumps(pins, indent=1) + "\n"
    # tuples read back as lists, as the old pins do
    new = _flat(json.loads(text), depth)
    old = (_flat(json.loads(path.read_text(encoding="utf-8")), depth)
           if path.exists() else {})
    for name, pin in new.items():
        if name not in old:
            print(f"added: {name}", file=sys.stderr)
        elif old[name] != pin:
            print(f"moved: {name}", file=sys.stderr)
    for name in old:
        if name not in new:
            print(f"removed: {name}", file=sys.stderr)
    path.write_text(text, encoding="utf-8")
    print(f"{len(new)} pins written to {path}", file=sys.stderr)


if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    for module in sys.argv[1:] or MODULES:
        print(f"== {module}", file=sys.stderr)
        runpy.run_path(str(here / module), run_name="__main__")
