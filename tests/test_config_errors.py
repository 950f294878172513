"""Pins of every config and spec error message.

Each case changes one place in ``demos/case_study_grid.json``, or in
``demos/sweep_spec.json`` outside its inline ``base_config``: a value
swapped for one of each other JSON kind, a number set to NaN, an
infinity, 0 or -1, or a key dropped.  The grid is read by
:func:`frosim.config.config_from_dict` and the spec, from a file, by
:func:`frosim.cli._spec_from_file`.  Each outcome is the exception's class
and ``str``, or ``ok``, plus the text of every warning raised, and must
equal the one in ``config_errors.json``.  A change that is meant to alter a
message re-records the table with::

    PYTHONPATH=src python tests/test_config_errors.py
"""

import copy
import json
import math
import warnings
from pathlib import Path

import pytest

from frosim.cli import _spec_from_file
from frosim.config import config_from_dict

DEMOS = Path(__file__).resolve().parent.parent / "demos"
TABLE = Path(__file__).resolve().parent / "config_errors.json"
GRID = json.loads((DEMOS / "case_study_grid.json").read_text(encoding="utf-8"))
SPEC = json.loads((DEMOS / "sweep_spec.json").read_text(encoding="utf-8"))

#: One value of each JSON kind.
KINDS = {"null": None, "boolean": True, "number": 1, "string": "x",
         "array": [], "object": {}}
NUMBERS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "0": 0,
           "-1": -1}


def kind(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}.get(type(value),
                                                              "null")


def places(node, path=(), skip=()):
    """Every (path, value) in a parsed JSON document, the root included,
    except the subtrees under a top-level key of *skip*."""
    yield path, node
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        if path or key not in skip:
            yield from places(value, path + (key,))


def spell(path) -> str:
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}"
    return text.lstrip(".") or "<root>"


def mutants(doc, skip=()):
    """``(name, document)`` for every single-place change of *doc*."""
    for path, old in places(doc, skip=skip):
        changes = [(f"swap {spell(path)} -> {name}", value)
                   for name, value in KINDS.items() if name != kind(old)]
        if kind(old) == "number":
            changes += [(f"set {spell(path)} = {name}", value)
                        for name, value in NUMBERS.items()]
        if path and isinstance(path[-1], str):
            changes.append((f"drop {spell(path)}", None))
        for name, value in changes:
            if not path:
                yield name, value
                continue
            mutant = copy.deepcopy(doc)
            parent = mutant
            for key in path[:-1]:
                parent = parent[key]
            if name.startswith("drop "):
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            yield name, mutant


def outcome(read, doc) -> dict:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            read(doc)
            result = "ok"
        except Exception as exc:  # every class is part of the pin
            result = f"{type(exc).__name__}: {exc}"
    return {"result": result, "warnings": [str(w.message) for w in caught]}


def read_spec(doc, directory: Path):
    path = directory / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return _spec_from_file(path)


def table(directory: Path) -> dict:
    pins = {}
    for name, doc in mutants(GRID):
        pins[f"config: {name}"] = outcome(config_from_dict, doc)
    for name, doc in mutants(SPEC, skip=("base_config",)):
        pins[f"spec: {name}"] = outcome(
            lambda d: read_spec(d, directory), doc)
    return pins


def test_every_error_matches_its_pin(tmp_path):
    recorded = json.loads(TABLE.read_text(encoding="utf-8"))
    got = table(tmp_path)
    assert list(got) == list(recorded)
    assert {name: pin for name, pin in got.items()
            if pin != recorded[name]} == {}


def test_the_table_covers_each_kind_of_mutant():
    recorded = json.loads(TABLE.read_text(encoding="utf-8"))
    for prefix in ("config: swap ", "config: set ", "config: drop ",
                   "spec: swap ", "spec: set ", "spec: drop "):
        assert any(name.startswith(prefix) for name in recorded), prefix
    # a pin that every mutant met would hold the messages to nothing
    assert len({pin["result"] for pin in recorded.values()}) > 100


if __name__ == "__main__":
    import tempfile

    from pin_tables import rewrite

    with tempfile.TemporaryDirectory() as tmp:
        pins = table(Path(tmp))
    rewrite(TABLE, pins)
