"""Pins of what ``frosim report`` does with every one-place change of its
argv.

Each case starts from ``report --records R --out O --csv-dir D`` in a
directory that holds only the records file ``R`` (the small file of
``test_records_errors.py``), a file ``a_file`` and a directory ``a_dir``.
Each flag is dropped, doubled, or given the empty string, ``a_dir``, a
path under a missing parent or a path under ``a_file``; each output is also
set to ``R``, to the other output or to one of the trend CSVs.  For each
argv ``frosim report`` runs in-process, with the directory as its working
directory, and three things must equal the pin in ``report_argv.json``:
the exit code, the stderr text with the directory written as ``<tmp>``,
and every file and directory left in the directory, each file with a
digest of its bytes.  A change that is meant to alter an outcome
re-records the table with::

    PYTHONPATH=src python tests/test_report_argv.py
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
from pathlib import Path

from frosim.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, run
from frosim.sweep import write_records_csv
from test_records_errors import RECORDS

TABLE = Path(__file__).resolve().parent / "report_argv.json"


def fixtures(directory: Path) -> dict:
    """Make *directory* with the records file, ``a_file`` and ``a_dir``;
    the flags of the unchanged argv, as absolute paths."""
    directory.mkdir()
    write_records_csv(RECORDS, directory / "records.csv")
    (directory / "a_file").write_text("not a directory\n", encoding="utf-8")
    (directory / "a_dir").mkdir()
    return {"--records": str(directory / "records.csv"),
            "--out": str(directory / "report.json"),
            "--csv-dir": str(directory / "trends")}


def argvs(flags: dict):
    """``(name, argv)`` for the unchanged argv and every one-place change
    of it."""
    def argv(flag=None, value=None):
        """The unchanged argv with *flag* set to *value*, or dropped when
        *value* is None."""
        changed = {**flags, flag: value} if flag else flags
        return ["report", *(item for f, v in changed.items()
                            if v is not None for item in (f, v))]

    yield "unchanged", argv()
    here = Path(flags["--records"]).parent
    for flag, value in flags.items():
        yield f"drop {flag}", argv(flag)
        yield f"double {flag}", [*argv(), flag, value]
        name = Path(value).name
        for what, other in (("empty", ""),
                            ("a directory", here / "a_dir"),
                            ("under a missing parent", here / "missing" / name),
                            ("under a file parent", here / "a_file" / name)):
            yield f"{flag} {what}", argv(flag, str(other))
    for flag, other in (("--out", "--records"), ("--out", "--csv-dir"),
                        ("--csv-dir", "--records"), ("--csv-dir", "--out")):
        yield f"{flag} names {other}", argv(flag, flags[other])
    yield "--out names a trend CSV", argv(
        "--out", str(Path(flags["--csv-dir"]) / "trend_h_s.csv"))


def listing(directory: Path) -> dict:
    """Every path under *directory*, relative to it: a directory as
    ``dir``, a file as a digest of its bytes."""
    return {p.relative_to(directory).as_posix():
            "dir" if p.is_dir() else hashlib.sha256(p.read_bytes()).hexdigest()[:16]
            for p in sorted(directory.rglob("*"))}


def outcome(argv, directory: Path) -> dict:
    """Run ``frosim report`` with *argv* in *directory*, then remove it."""
    stderr = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            try:
                code = run(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
            except Exception as exc:  # an escaped exception is part of the pin
                code = f"traceback: {type(exc).__name__}: {exc}"
    finally:
        os.chdir(cwd)
    files = listing(directory)
    shutil.rmtree(directory)
    return {"exit": code,
            "stderr": stderr.getvalue().replace(str(directory), "<tmp>"),
            "files": files}


def table(directory: Path) -> dict:
    run_dir = directory / "run"
    cases = list(argvs(fixtures(run_dir)))
    shutil.rmtree(run_dir)
    pins = {}
    for name, argv in cases:
        fixtures(run_dir)
        pins[name] = outcome(argv, run_dir)
    return pins


def test_every_outcome_matches_its_pin(tmp_path):
    recorded = json.loads(TABLE.read_text(encoding="utf-8"))
    got = table(tmp_path)
    assert list(got) == list(recorded)
    assert {name: pin for name, pin in got.items()
            if pin != recorded[name]} == {}


def test_every_pin_keeps_the_exit_code_contract(tmp_path):
    recorded = json.loads(TABLE.read_text(encoding="utf-8"))
    fixtures(tmp_path / "run")
    inputs = listing(tmp_path / "run")
    for name, pin in recorded.items():
        # 1 would claim that no attack exists; a string is an escaped
        # exception, which a user would see as a traceback
        assert pin["exit"] in (EXIT_OK, EXIT_CONFIG, EXIT_IO), (name, pin)
        if pin["exit"] == EXIT_OK:
            assert pin["stderr"] == "", name
            assert any(path.endswith(".json") for path in pin["files"]), name
        else:
            # a failing report leaves the inputs as they were and nothing else
            assert pin["files"] == inputs, name
            assert pin["stderr"].count("\n") >= 1, name
    assert recorded["unchanged"]["exit"] == EXIT_OK
    for prefix in ("drop ", "double ", "--records ", "--out ", "--csv-dir "):
        assert any(name.startswith(prefix) for name in recorded), prefix
    codes = {pin["exit"] for pin in recorded.values()}
    assert codes == {EXIT_OK, EXIT_CONFIG, EXIT_IO}


if __name__ == "__main__":
    import tempfile

    from pin_tables import rewrite

    with tempfile.TemporaryDirectory() as tmp:
        rewrite(TABLE, table(Path(tmp)))
