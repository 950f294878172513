"""Pins of what each ``frosim`` command does with every one-place change
of its argv.

Each command starts from its unchanged argv (:data:`ARGVS`) in a directory
that holds only the command's input files, a file ``a_file`` and a
directory ``a_dir``.  The mutants come from the flags of
:func:`frosim.cli.build_parser`, so a new flag gets its mutants with no
edit here:

- a flag of the unchanged argv is dropped and doubled, and a switch is set
  and doubled;
- a flag that takes a value is given each of :data:`VALUES`, the
  directory ``a_dir``, a path under a missing parent and a path under
  ``a_file``;
- each output (a path flag whose file does not exist before the run) is set
  to each input (one whose file does) and to each other output, and to the
  paths of :data:`DERIVED`, which the command reads or writes under no flag
  of its own.

A ``--horizon`` is never huge, since ``simulate`` would stream every step;
the one sweep spec has one (H, R, T) group, so no ``--workers`` starts a
process pool.  For each argv the command runs in-process, with the
directory as its working directory, and what it does must equal the pin in
``argv.json``: the exit code, the stderr text with the directory written as
``<tmp>``, every file and directory left in the directory, each file with a
digest of its bytes, and the warnings it raised, if any.  A change that is
meant to alter an outcome re-records the table with::

    PYTHONPATH=src python tests/test_argv.py
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import warnings
from pathlib import Path

from frosim.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NO_ATTACK,
    EXIT_OK,
    build_parser,
    run,
)
from frosim.sweep import write_records_csv
from test_cli import config_dict
from test_records_errors import RECORDS

TABLE = Path(__file__).resolve().parent / "argv.json"

#: Each command's unchanged argv: flag and value, with a path as a
#: :class:`Path` relative to the run directory.
ARGVS = {
    "simulate": {"--config": Path("grid.json"), "--dp-a": "0.3",
                 "--attack-step": "0", "--horizon": "60",
                 "--out": Path("trace.csv")},
    "synthesize": {"--config": Path("grid.json"), "--target": "any",
                   "--sign": "positive", "--horizon": "12",
                   "--attack-step": "0", "--tolerance": "1e-4",
                   "--out": Path("result.json"),
                   "--trace-out": Path("trace.csv")},
    "sweep": {"--spec": Path("spec.json"), "--out": Path("records.csv"),
              "--workers": "1"},
    "report": {"--records": Path("records.csv"),
               "--out": Path("report.json"), "--csv-dir": Path("trends")},
}

#: Each command's input files, by name.
INPUTS = {
    "simulate": ("grid.json",),
    "synthesize": ("grid.json",),
    "sweep": ("spec.json", "grid.json"),
    "report": ("records.csv",),
}

#: Paths an output is also pointed at: what the command derives from its
#: flags or reads under no flag.
DERIVED = {
    "sweep": {"base_config_file": "grid.json"},
    "report": {"a trend CSV": "trends/trend_h_s.csv"},
}

#: The values each flag is given, beside the path-like ones.
VALUES = {"empty": "", "non-numeric": "x", "nan": "nan", "negative": "-1",
          "huge": "1" + "0" * 30}

#: A one-group spec of 30 combinations, whose grid is ``grid.json``.
SPEC = {"base_config_file": "grid.json", "goal": {"horizon": 12},
        "h_s": [2.0], "r_pu": [0.2], "t_s": [0.2],
        "toi_pct": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        "ad_pct": [20.0, 40.0, 60.0, 80.0, 100.0]}


def fixtures(command: str, directory: Path) -> dict:
    """Make *directory* with *command*'s inputs, ``a_file`` and ``a_dir``;
    the flags of its unchanged argv, a path as an absolute one."""
    directory.mkdir()
    files = {"grid.json": json.dumps(config_dict()),
             "spec.json": json.dumps(SPEC)}
    for name in INPUTS[command]:
        if name == "records.csv":
            write_records_csv(RECORDS, directory / name)
        else:
            (directory / name).write_text(files[name], encoding="utf-8")
    (directory / "a_file").write_text("not a directory\n", encoding="utf-8")
    (directory / "a_dir").mkdir()
    return {flag: str(directory / value) if isinstance(value, Path) else value
            for flag, value in ARGVS[command].items()}


def flag_actions(command: str):
    """The actions of *command*'s flags, in the parser's order."""
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[command]._actions if a.dest != "help"]


def argvs(command: str, flags: dict):
    """``(name, argv)`` for *command*'s unchanged argv, *flags*, and every
    one-place change of it."""
    def argv(flag=None, value=None):
        """The unchanged argv with *flag* set to *value*, or dropped when
        *value* is None."""
        changed = {**flags, flag: value} if flag else flags
        return [command, *(item for f, v in changed.items()
                           if v is not None for item in (f, v))]

    yield "unchanged", argv()
    here = Path(next(v for v in flags.values() if os.path.isabs(v))).parent
    for action in flag_actions(command):
        flag = action.option_strings[-1]
        if action.nargs == 0:
            yield f"set {flag}", [*argv(), flag]
            yield f"double {flag}", [*argv(), flag, flag]
            continue
        value = flags.get(flag)
        if value is not None:
            yield f"drop {flag}", argv(flag)
            yield f"double {flag}", [*argv(), flag, value]
        name = Path(value).name if value else action.dest
        for what, other in (
                *VALUES.items(), ("a directory", here / "a_dir"),
                ("under a missing parent", here / "missing" / name),
                ("under a file parent", here / "a_file" / name)):
            if not (flag == "--horizon" and what == "huge"):
                yield f"{flag} {what}", argv(flag, str(other))
    paths = {flag: value for flag, value in flags.items()
             if os.path.isabs(value)}
    outputs = [flag for flag, value in paths.items()
               if not os.path.lexists(value)]
    for flag in outputs:
        for other in paths:
            if other != flag:
                yield f"{flag} names {other}", argv(flag, paths[other])
        for label, name in DERIVED.get(command, {}).items():
            yield f"{flag} names {label}", argv(flag, str(here / name))


def listing(directory: Path) -> dict:
    """Every path under *directory*, relative to it: a directory as
    ``dir``, a file as a digest of its bytes with *directory* written as
    ``<tmp>``, as a result JSON names its trace."""
    def digest(path):
        data = path.read_bytes().replace(str(directory).encode(), b"<tmp>")
        return hashlib.sha256(data).hexdigest()[:16]
    return {p.relative_to(directory).as_posix():
            "dir" if p.is_dir() else digest(p)
            for p in sorted(directory.rglob("*"))}


def outcome(argv, directory: Path) -> dict:
    """Run ``frosim`` with *argv* in *directory*, then remove it."""
    stderr = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
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
    pin = {"exit": code,
           "stderr": stderr.getvalue().replace(str(directory), "<tmp>"),
           "files": files}
    if caught:
        pin["warnings"] = [str(w.message).replace(str(directory), "<tmp>")
                           for w in caught]
    return pin


def table(directory: Path) -> dict:
    """Each command's pins, by mutant name."""
    run_dir = directory / "run"
    pins = {}
    for command in ARGVS:
        cases = list(argvs(command, fixtures(command, run_dir)))
        shutil.rmtree(run_dir)
        pins[command] = {}
        for name, argv in cases:
            fixtures(command, run_dir)
            pins[command][name] = outcome(argv, run_dir)
    return pins


def test_every_outcome_matches_its_pin(tmp_path):
    recorded = json.loads(TABLE.read_text(encoding="utf-8"))
    got = table(tmp_path)
    assert list(got) == list(recorded)
    for command, pins in got.items():
        assert list(pins) == list(recorded[command]), command
        assert {name: pin for name, pin in pins.items()
                if pin != recorded[command][name]} == {}, command


#: The one mutant with no attack to find: the attack starts past the
#: horizon, so no attack exists and the command says so.
NO_ATTACK = {("synthesize", "--attack-step huge")}


def test_every_pin_keeps_the_exit_code_contract(tmp_path):
    recorded = json.loads(TABLE.read_text(encoding="utf-8"))
    assert list(recorded) == list(ARGVS)
    for command, pins in recorded.items():
        fixtures(command, tmp_path / command)
        inputs = listing(tmp_path / command)
        for name, pin in pins.items():
            if (command, name) in NO_ATTACK:
                assert pin["exit"] == EXIT_NO_ATTACK, (command, name)
                continue
            # 1 would claim that no attack exists; a string is an escaped
            # exception, which a user would see as a traceback
            assert pin["exit"] in (EXIT_OK, EXIT_CONFIG, EXIT_IO), (
                command, name, pin)
            if pin["exit"] == EXIT_OK:
                assert pin["stderr"] == "", (command, name)
                assert set(pin["files"]) > set(inputs), (command, name)
            else:
                # a failing command leaves the inputs as they were and
                # nothing else
                assert pin["files"] == inputs, (command, name)
                assert pin["stderr"].count("\n") >= 1, (command, name)
        assert pins["unchanged"]["exit"] == EXIT_OK, command
        for action in flag_actions(command):
            assert any(action.option_strings[-1] in name for name in pins), (
                command, action.option_strings)
        codes = {pin["exit"] for name, pin in pins.items()
                 if (command, name) not in NO_ATTACK}
        assert codes == {EXIT_OK, EXIT_CONFIG, EXIT_IO}, command


def test_each_command_writes_exactly_the_outputs_it_declares(
        tmp_path, monkeypatch):
    # the outputs a command checks are the paths its cleanup removes, so
    # those cannot drift apart from what it writes: on success it creates
    # each declared output that did not exist before, and nothing else
    import frosim.cli

    recorded = json.loads(TABLE.read_text(encoding="utf-8"))
    check = frosim.cli._check_paths
    new = set()

    def spy(inputs, outputs):
        new.update(path for _, path in outputs if not os.path.lexists(path))
        return check(inputs, outputs)
    monkeypatch.setattr(frosim.cli, "_check_paths", spy)
    run_dir = tmp_path / "run"
    for command in ARGVS:
        cases = dict(argvs(command, fixtures(command, run_dir)))
        inputs = set(listing(run_dir))
        shutil.rmtree(run_dir)
        for name, argv in cases.items():
            if name == "unchanged" or name.startswith("drop ") and (
                    recorded[command][name]["exit"] == EXIT_OK):
                new.clear()
                fixtures(command, run_dir)
                pin = outcome(argv, run_dir)
                assert pin["exit"] == EXIT_OK, (command, name)
                assert set(pin["files"]) - inputs == {
                    os.path.relpath(path, run_dir) for path in new}, (
                    command, name)


if __name__ == "__main__":
    import tempfile

    from pin_tables import rewrite

    with tempfile.TemporaryDirectory() as tmp:
        rewrite(TABLE, table(Path(tmp)), depth=2)
