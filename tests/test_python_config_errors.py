"""Pins of what :func:`frosim.validate_config` does with a config built in
Python.

Each case sets one real field of the case-study grid
(``demos/case_study_grid.json``), as a :class:`~frosim.GridConfig` built
in Python holds it, to ``2``, ``True``, ``"x"``, ``None``, ``2**1100``,
``-2**1100``, ``inf`` or ``nan``.  The fields are the six dynamic
parameters, the block and threshold of each relay, and the four capability
fields.  Each outcome is the exception's class and ``str``, or ``ok`` with
the ``repr`` of the config that validation returns, plus the text of every
warning raised, and must equal the one in ``python_config_errors.json``.
A change that is meant to alter an outcome re-records the table with::

    PYTHONPATH=src python tests/test_python_config_errors.py
"""

import json
import math
import sys
import warnings
from pathlib import Path

from frosim import load_config, validate_config

DEMOS = Path(__file__).resolve().parent.parent / "demos"
TABLE = Path(__file__).resolve().parent / "python_config_errors.json"

#: What a field is set to.
VALUES = {"2": 2, "True": True, "'x'": "x", "None": None,
          "2**1100": 2 ** 1100, "-2**1100": -2 ** 1100, "inf": math.inf,
          "nan": math.nan}


def _set_param(config, name, value):
    return config._replace(params=config.params._replace(**{name: value}))


def _set_relay(config, roster, index, name, value):
    relays = list(getattr(config, roster))
    relays[index] = relays[index]._replace(**{name: value})
    return config._replace(**{roster: relays})


def _set_capability(config, name, value):
    return config._replace(
        capability=config.capability._replace(**{name: value}))


def fields(config):
    """``(name, setter)`` for every real field of *config*, named by its
    Python path; ``setter(value)`` is *config* with that field set."""
    for name in config.params._fields:
        yield name, lambda v, n=name: _set_param(config, n, v)
    for roster, names in (("generators", ("p_tg", "rocof_threshold")),
                          ("loads", ("p_sh", "underfreq_threshold"))):
        for i in range(len(getattr(config, roster))):
            for name in names:
                yield (f"{roster}[{i}].{name}",
                       lambda v, r=roster, i=i, n=name:
                       _set_relay(config, r, i, n, v))
    for name in config.capability._fields:
        yield (f"capability.{name}",
               lambda v, n=name: _set_capability(config, n, v))


def outcome(config) -> dict:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            pin = {"result": "ok", "config": repr(validate_config(config))}
        except Exception as exc:  # every class is part of the pin
            pin = {"result": f"{type(exc).__name__}: {exc}"}
    pin["warnings"] = [str(w.message) for w in caught]
    return pin


def table() -> dict:
    base = load_config(DEMOS / "case_study_grid.json")
    return {f"set {name} = {spelling}": outcome(setter(value))
            for name, setter in fields(base)
            for spelling, value in VALUES.items()}


def test_every_outcome_matches_its_pin():
    recorded = json.loads(TABLE.read_text(encoding="utf-8"))
    got = table()
    assert list(got) == list(recorded)
    assert {name: pin for name, pin in got.items()
            if pin != recorded[name]} == {}


def test_the_table_covers_each_field_and_value():
    recorded = json.loads(TABLE.read_text(encoding="utf-8"))
    assert len(recorded) == 24 * len(VALUES)
    for field in ("h_inertia", "rocof_window_m", "f_nominal",
                  "generators[2].rocof_threshold", "loads[3].p_sh",
                  "capability.kappa"):
        for spelling in VALUES:
            assert f"set {field} = {spelling}" in recorded
    results = [pin["result"] for pin in recorded.values()]
    assert 0 < results.count("ok") < len(results)


if __name__ == "__main__":
    pins = table()
    TABLE.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    print(f"{len(pins)} pins written to {TABLE}", file=sys.stderr)
