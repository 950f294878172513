"""Malformed inputs: every mutant of a shipped demo input exits 2, and
every drawn numeric flag keeps the exit-code contract.

Each mutant changes one place in ``demos/case_study_grid.json`` or
``demos/sweep_spec.json``: a value replaced by one of another JSON type, a
number replaced by a non-finite one, or a required key dropped.  The exit
code must be 2 ("bad configuration or spec") and nothing may be raised; exit
1 would claim that no attack exists.  The numeric flags ``--dp-a``,
``--tolerance``, ``--horizon``, ``--attack-step`` and ``--workers`` are
drawn from small ranges around their valid bounds: a valid set runs (exit 0,
or 1 for a search), any other exits 2.  A sweep records file whose row
fields contradict each other makes ``report`` exit 2.
"""

import copy
import json
import math
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from frosim.cli import run
from frosim.sweep import SWEEP_CSV_HEADER

DEMOS = Path(__file__).resolve().parent.parent / "demos"
GRID = json.loads((DEMOS / "case_study_grid.json").read_text(encoding="utf-8"))
SPEC = json.loads((DEMOS / "sweep_spec.json").read_text(encoding="utf-8"))

# Keys that have a default: dropping one leaves a valid input.
OPTIONAL_KEYS = {
    "frequency_nominal_hz", "kappa", "target", "sign", "relay_id",
    "attack_step", "mode", "seed", "tolerance",
    "h_s", "r_pu", "t_s", "toi_pct", "ad_pct",
}

# Fixed so the suite's time and its examples do not vary between runs.
FUZZ = settings(max_examples=150, derandomize=True, database=None,
                deadline=None)


def places(node, path=()):
    """Every (path, value) in a parsed JSON document, the root included."""
    yield path, node
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield from places(value, path + (key,))


def json_kind(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}.get(type(value), "null")


ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(-1e3, 1e3), st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
)


@st.composite
def mutants(draw, doc):
    path, old = draw(st.sampled_from(list(places(doc))))
    kinds = ["swap type"]
    if json_kind(old) == "number":
        kinds.append("non-finite")
    if path and isinstance(path[-1], str) and path[-1] not in OPTIONAL_KEYS:
        kinds.append("drop key")
    kind = draw(st.sampled_from(kinds))
    if kind == "swap type":
        new = draw(ANY_VALUE.filter(lambda v: json_kind(v) != json_kind(old)))
    elif kind == "non-finite":
        new = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    if not path:
        return new
    mutant = copy.deepcopy(doc)
    parent = mutant
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop key":
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return mutant


def exit_code(command, flag, doc, *extra):
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "input.json"
        src.write_text(json.dumps(doc), encoding="utf-8")
        extra = extra or (
            ["--horizon", "12"] if command == "synthesize" else ["--workers", "1"])
        return run([command, flag, str(src), *extra,
                    "--out", str(Path(tmp) / "out")])


@FUZZ
@given(mutants(GRID))
def test_malformed_grid_config_exits_2(doc):
    assert exit_code("synthesize", "--config", doc) == 2


@FUZZ
@given(mutants(SPEC))
def test_malformed_sweep_spec_exits_2(doc):
    assert exit_code("sweep", "--spec", doc) == 2


def test_unmutated_inputs_are_valid():
    # the property is about the mutation, not the documents
    assert exit_code("synthesize", "--config", GRID) == 0
    assert exit_code("sweep", "--spec", {**SPEC, "count": 5}) == 0


@pytest.mark.parametrize("command,flag,extra", [
    ("simulate", "--config", ["--dp-a", "0.1", "--horizon", "12"]),
    ("synthesize", "--config", ["--horizon", "12"]),
    ("sweep", "--spec", ["--workers", "1"]),
])
@pytest.mark.parametrize("text", [
    "[" * 200_000 + "]" * 200_000,
    '{"a":' * 200_000 + "1" + "}" * 200_000,
], ids=["arrays", "objects"])
def test_deeply_nested_input_exits_2(command, flag, extra, text, capsys):
    # valid JSON that the parser cannot descend into
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "input.json"
        src.write_text(text, encoding="utf-8")
        out = Path(tmp) / "out"
        assert run([command, flag, str(src), *extra, "--out", str(out)]) == 2
        assert not out.exists()
    assert "nested too deeply" in capsys.readouterr().err


# The case-study grid's ROCOF window; a shorter horizon exits 2.
WINDOW = GRID["rocof_window_m"]
NUMBERS = settings(max_examples=40, derandomize=True, database=None,
                   deadline=None)
MAGNITUDE = st.one_of(
    st.floats(-0.05, 0.05), st.sampled_from([math.nan, math.inf, -math.inf]))
STEPS = st.integers(-2, WINDOW + 6)


def run_flags(command, **flags):
    """Exit code of *command* on the case-study grid with ``--name=value``
    flags; an argparse rejection reads as its exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "input.json"
        src.write_text(json.dumps(GRID), encoding="utf-8")
        argv = [command, "--config", str(src), "--out", str(Path(tmp) / "out")]
        argv += [f"--{name.replace('_', '-')}={value}"
                 for name, value in flags.items()]
        try:
            return run(argv)
        except SystemExit as exc:
            return exc.code


@NUMBERS
@given(MAGNITUDE, st.sampled_from(["", "pu", "hz"]), STEPS, STEPS)
def test_simulate_numeric_flags(dp_a, suffix, horizon, attack_step):
    code = run_flags("simulate", dp_a=f"{dp_a!r}{suffix}", horizon=horizon,
                     attack_step=attack_step)
    valid = math.isfinite(dp_a) and horizon >= WINDOW and attack_step >= 0
    assert code == (0 if valid else 2)


@NUMBERS
@given(st.one_of(st.floats(-1e-3, 1e-2), st.sampled_from(
           [0.0, math.nan, math.inf, -math.inf])),
       st.sampled_from(["", "pu", "hz"]), STEPS, STEPS,
       st.sampled_from(["any", "rocof"]))
def test_synthesize_numeric_flags(tolerance, suffix, horizon, attack_step,
                                  target):
    code = run_flags("synthesize", tolerance=f"{tolerance!r}{suffix}",
                     horizon=horizon, attack_step=attack_step, target=target)
    valid = (0 < tolerance < math.inf and horizon >= WINDOW
             and attack_step >= 0)
    assert code in ((0, 1) if valid else (2,))


@NUMBERS
@given(st.one_of(st.integers(-3, 0),
                 st.integers(1, 50).map(lambda k: (os.cpu_count() or 1) + k)))
def test_sweep_workers_out_of_range(workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    with mock.patch("concurrent.futures.ProcessPoolExecutor", no_pool):
        assert exit_code("sweep", "--spec", {**SPEC, "count": 5},
                         "--workers", str(workers)) == 2


# A sweep record row and its fields, as ``write_records_csv`` writes them.
SUCCESS_ROW = "2,2,0.8,0.2,8,80,true,ROCOF,0.0333949284186,6,ok"
FAILURE_ROW = "0,4,1,0.2,6,20,false,NONE,,,ok"


def report_exit_code(*rows):
    with tempfile.TemporaryDirectory() as tmp:
        records = Path(tmp) / "records.csv"
        records.write_text("\n".join((SWEEP_CSV_HEADER,) + rows) + "\n",
                           encoding="utf-8")
        return run(["report", "--records", str(records),
                    "--out", str(Path(tmp) / "trend.json")])


def with_fields(row, **fields):
    columns = SWEEP_CSV_HEADER.split(",")
    parts = row.split(",")
    for name, value in fields.items():
        parts[columns.index(name)] = value
    return ",".join(parts)


def test_consistent_records_report():
    assert report_exit_code(SUCCESS_ROW, FAILURE_ROW) == 0


@pytest.mark.parametrize("row", [
    with_fields(SUCCESS_ROW, min_dp_a_pu=""),
    with_fields(SUCCESS_ROW, trip_step=""),
    with_fields(SUCCESS_ROW, attack_type="NONE"),
    with_fields(SUCCESS_ROW, trip_step="-1"),
    with_fields(FAILURE_ROW, min_dp_a_pu="0.05"),
    with_fields(FAILURE_ROW, trip_step="6"),
    with_fields(FAILURE_ROW, attack_type="LS"),
    with_fields(FAILURE_ROW, status=" "),
    with_fields(SUCCESS_ROW, status="\t"),
])
def test_contradictory_record_exits_2(row):
    # each row alone is well formed field by field; together its fields
    # say what no sweep writes
    assert report_exit_code(SUCCESS_ROW, row, FAILURE_ROW) == 2


@pytest.mark.parametrize("attack_type", ["FOO", "rocof", ""])
def test_unknown_attack_type_names_itself(attack_type, capsys):
    row = with_fields(SUCCESS_ROW, attack_type=attack_type)
    assert report_exit_code(SUCCESS_ROW, row, FAILURE_ROW) == 2
    assert capsys.readouterr().err == (
        f"error: records: malformed row: {attack_type!r} is not a valid "
        f"AttackType (got {row!r})\n")
