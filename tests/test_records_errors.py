"""Pins of every records-CSV reading outcome.

Each case changes one place in a small records file written by
:func:`frosim.sweep.write_records_csv`, whose rows hold a ``-0`` beside a
``0`` and repeat a parameter value and an answer: a data cell swapped for
an empty string, ``nan``, ``inf``, ``-1``, ``1e999``, text or a NUL; a row
dropped, repeated or moved to the other end; the header with a BOM, without
one of its columns or with an extra one; the older layout with no status
column; CRLF line ends, no final newline, or one byte that is not UTF-8.
Each outcome is the exception's class and ``str`` from
:func:`frosim.sweep.read_records_csv`, or ``ok`` with a digest of the
``repr`` of the records read, and must equal the one in
``records_errors.json``.  A change that is meant to alter an outcome
re-records the table with::

    PYTHONPATH=src python tests/test_records_errors.py
"""

import hashlib
import json
import sys
from pathlib import Path

from frosim.sweep import (
    SWEEP_CSV_HEADER,
    AttackType,
    SweepRecord,
    read_records_csv,
    trend_report,
    write_records_csv,
)

TABLE = Path(__file__).resolve().parent / "records_errors.json"

#: A zero of each sign in ToI, repeated H, R, T, ToI and AD values, one
#: answer shared by a ROCOF and an LS success, and a failed synthesis.
RECORDS = [
    SweepRecord(0, 2.0, 0.2, 0.2, -0.0, 20.0, False, AttackType.NONE),
    SweepRecord(1, 2.0, 0.2, 0.2, 0.0, 100.0, False, AttackType.NONE),
    SweepRecord(2, 6.0, 0.2, 0.2, 2.0, 100.0, True, AttackType.ROCOF,
                0.0335807781047, 6),
    SweepRecord(3, 6.0, 0.6, 0.2, 2.0, 100.0, True, AttackType.LS,
                0.0335807781047, 9),
    SweepRecord(4, 0.0, 0.2, 0.2, 150.0, 20.0, False, AttackType.NONE,
                status="InvalidParameter"),
]

#: What a data cell is swapped for.
CELLS = {"empty": "", "nan": "nan", "inf": "inf", "-1": "-1",
         "1e999": "1e999", "text": "x", "NUL": "\0"}


def written(directory: Path) -> bytes:
    path = directory / "written.csv"
    write_records_csv(RECORDS, path)
    return path.read_bytes()


def mutants(data: bytes):
    """``(name, file bytes)`` for every single-place change of *data*."""
    header, *rows = data.decode("utf-8").splitlines()
    columns = header.split(",")

    def text(lines, end="\n"):
        return "".join(line + end for line in lines).encode("utf-8")

    for r, row in enumerate(rows):
        cells = row.split(",")
        for c, column in enumerate(columns):
            for name, value in CELLS.items():
                changed = cells[:c] + [value] + cells[c + 1:]
                yield (f"row {r} {column} -> {name}",
                       text([header, *rows[:r], ",".join(changed),
                             *rows[r + 1:]]))
    for r, row in enumerate(rows):
        rest = rows[:r] + rows[r + 1:]
        yield f"drop row {r}", text([header, *rest])
        yield f"repeat row {r}", text([header, *rows[:r + 1], *rows[r:]])
        moved = [*rest, row] if r < len(rows) - 1 else [row, *rest]
        yield f"move row {r}", text([header, *moved])
    yield "header with a BOM", text(["\ufeff" + header, *rows])
    for c, column in enumerate(columns):
        yield (f"header without {column}",
               text([",".join(columns[:c] + columns[c + 1:]), *rows]))
    yield "header with an extra column", text([header + ",extra", *rows])
    yield "every line without status", text(
        [line.rsplit(",", 1)[0] for line in (header, *rows)])
    yield "CRLF line ends", text([header, *rows], "\r\n")
    yield "no final newline", text([header, *rows])[:-1]
    yield "one byte not UTF-8", data.replace(b"InvalidParameter",
                                             b"Invalid\xffParameter")


def outcome(path: Path) -> dict:
    try:
        records = read_records_csv(path)
    except Exception as exc:  # every class is part of the pin
        return {"result": f"{type(exc).__name__}: {exc}"}
    digest = hashlib.sha256(repr(records).encode("utf-8")).hexdigest()
    return {"result": "ok", "records_sha256": digest[:16]}


def table(directory: Path) -> dict:
    pins = {}
    path = directory / "mutant.csv"
    for name, data in mutants(written(directory)):
        path.write_bytes(data)
        pins[name] = outcome(path)
    return pins


def test_the_written_file_reads_back_every_value(tmp_path):
    data = written(tmp_path)
    assert data.startswith(SWEEP_CSV_HEADER.encode("utf-8") + b"\n")
    assert b",-0," in data and b",0," in data
    path = tmp_path / "records.csv"
    path.write_bytes(data)
    assert repr(read_records_csv(path)) == repr(RECORDS)


def test_rows_sorted_by_another_column_report_as_written(tmp_path):
    # each combo_id names one row, but the rows may come in any order
    header, *rows = written(tmp_path).decode("utf-8").splitlines()
    by_ad = sorted(rows, key=lambda row: float(row.split(",")[5]))
    assert by_ad != rows
    path = tmp_path / "records.csv"
    path.write_text("\n".join([header, *by_ad, ""]), encoding="utf-8")
    assert trend_report(read_records_csv(path)) == trend_report(RECORDS)


def test_every_outcome_matches_its_pin(tmp_path):
    recorded = json.loads(TABLE.read_text(encoding="utf-8"))
    got = table(tmp_path)
    assert list(got) == list(recorded)
    assert {name: pin for name, pin in got.items()
            if pin != recorded[name]} == {}


def test_the_table_covers_each_kind_of_mutant():
    recorded = json.loads(TABLE.read_text(encoding="utf-8"))
    for prefix in ("row ", "drop row ", "repeat row ", "move row ",
                   "header with", "header without ", "every line without ",
                   "CRLF", "no final", "one byte"):
        assert any(name.startswith(prefix) for name in recorded), prefix
    results = [pin["result"] for pin in recorded.values()]
    # both kinds of outcome occur, and the errors are told apart
    assert 0 < results.count("ok") < len(results)
    assert len(set(results)) > 100


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = table(Path(tmp))
    TABLE.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    print(f"{len(pins)} pins written to {TABLE}", file=sys.stderr)
