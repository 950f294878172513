"""Pins of what ``frosim report`` does with every records-CSV mutant.

The mutants are those of ``test_records_errors.py``: each changes one place
in a small records file written by :func:`frosim.sweep.write_records_csv`.
For each one ``frosim report`` runs in-process, and three things must equal
the pin in ``report_errors.json``: the exit code, the stderr text with the
temporary directory written as ``<tmp>``, and the files left beside the
records, each with a digest of its bytes.  A change that is meant to alter
an outcome re-records the table with::

    PYTHONPATH=src python tests/test_report_errors.py
"""

import contextlib
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

from frosim.cli import EXIT_CONFIG, EXIT_OK, run
from test_records_errors import mutants, written

TABLE = Path(__file__).resolve().parent / "report_errors.json"


def outcome(data: bytes, directory: Path) -> dict:
    """Run ``frosim report`` on *data* in an empty *directory*; leave the
    directory empty again."""
    directory.mkdir()
    records = directory / "records.csv"
    records.write_bytes(data)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        try:
            code = run(["report", "--records", str(records),
                        "--out", str(directory / "report.json")])
        except Exception as exc:  # an escaped exception is part of the pin
            code = f"traceback: {type(exc).__name__}: {exc}"
    records.unlink()
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
             for p in sorted(directory.iterdir())}
    shutil.rmtree(directory)
    return {"exit": code,
            "stderr": stderr.getvalue().replace(str(directory), "<tmp>"),
            "files": files}


def table(directory: Path) -> dict:
    return {name: outcome(data, directory / "run")
            for name, data in mutants(written(directory))}


def test_every_outcome_matches_its_pin(tmp_path):
    recorded = json.loads(TABLE.read_text(encoding="utf-8"))
    got = table(tmp_path)
    assert list(got) == list(recorded)
    assert {name: pin for name, pin in got.items()
            if pin != recorded[name]} == {}


def test_every_pin_keeps_the_exit_code_contract():
    recorded = json.loads(TABLE.read_text(encoding="utf-8"))
    for name, pin in recorded.items():
        # 1 would claim that no attack exists; a string is an escaped
        # exception, which a user would see as a traceback
        assert pin["exit"] in (EXIT_OK, EXIT_CONFIG), (name, pin)
        if pin["exit"] == EXIT_OK:
            assert pin["stderr"] == "", name
            assert "report.json" in pin["files"], name
        else:
            # a failing report writes nothing: no report, no trend CSV
            assert pin["files"] == {}, name
            assert pin["stderr"].startswith("error: records: "), name
            assert pin["stderr"].count("\n") == 1, name
    codes = [pin["exit"] for pin in recorded.values()]
    assert 0 < codes.count(EXIT_OK) < len(codes)


def test_open_questions_are_pinned_as_they_stand():
    """A repeated row would be counted twice, so it exits 2; rows may come
    in any order, so a moved row reports.  A NUL in ``status`` reports,
    each exiting 0; whether it should is an open question, and a change
    that answers it re-records its pins."""
    recorded = json.loads(TABLE.read_text(encoding="utf-8"))
    assert recorded["repeat row 0"]["exit"] == EXIT_CONFIG
    assert "combo_id repeated" in recorded["repeat row 0"]["stderr"]
    for name in ("move row 0", "row 0 status -> NUL"):
        assert recorded[name]["exit"] == EXIT_OK, name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = table(Path(tmp))
    TABLE.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    print(f"{len(pins)} pins written to {TABLE}", file=sys.stderr)
