"""Malformed JSON inputs: every mutant of a shipped demo input exits 2.

Each mutant changes one place in ``demos/case_study_grid.json`` or
``demos/sweep_spec.json``: a value replaced by one of another JSON type, a
number replaced by a non-finite one, or a required key dropped.  The exit
code must be 2 ("bad configuration or spec") and nothing may be raised; exit
1 would claim that no attack exists.
"""

import copy
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from frosim.cli import run

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


def exit_code(command, flag, doc):
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "input.json"
        src.write_text(json.dumps(doc), encoding="utf-8")
        extra = ["--horizon", "12"] if command == "synthesize" else ["--workers", "1"]
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
