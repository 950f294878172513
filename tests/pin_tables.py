"""Re-recording of the pin tables.

Each pin test module (``test_config_errors.py``, ``test_log_levels.py``,
``test_python_config_errors.py``, ``test_records_errors.py``,
``test_report_argv.py``, ``test_report_errors.py``) re-records its JSON
table when run as a script, through :func:`rewrite`.  The file name does
not start with ``test_``, so pytest does not collect it.
"""

import json
import sys
from pathlib import Path


def rewrite(path: Path, pins: dict) -> None:
    """Write *pins* to the table at *path*, one space per indent level, and
    name on stderr each pin that moved, was added or was removed."""
    text = json.dumps(pins, indent=1) + "\n"
    new = json.loads(text)  # tuples read back as lists, as the old pins do
    old = (json.loads(path.read_text(encoding="utf-8")) if path.exists()
           else {})
    for name, pin in new.items():
        if name not in old:
            print(f"added: {name}", file=sys.stderr)
        elif old[name] != pin:
            print(f"moved: {name}", file=sys.stderr)
    for name in old:
        if name not in new:
            print(f"removed: {name}", file=sys.stderr)
    path.write_text(text, encoding="utf-8")
    print(f"{len(pins)} pins written to {path}", file=sys.stderr)
