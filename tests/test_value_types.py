"""The public value types: their reprs, pickling, immutability and the
checks their constructors run.

Each type is built from the shipped case-study grid, and its ``repr`` is
compared with ``value_reprs.json``.  A change that is meant to alter a
repr re-records the file with::

    PYTHONPATH=src python tests/test_value_types.py
"""

import json
import pickle
import sys
from pathlib import Path

import pytest

from frosim import (
    AttackGoal,
    AttackSignal,
    GridConfig,
    InvalidParameter,
    Sign,
    SimOptions,
    SweepSpec,
    TargetKind,
    load_config,
    probe_monotonicity,
    run_sweep,
    simulate,
    synthesize_min_attack,
    trend_report,
)

DEMOS = Path(__file__).resolve().parent.parent / "demos"
REPRS = Path(__file__).resolve().parent / "value_reprs.json"


def instances() -> dict:
    """One value of each public value type, under the type's name."""
    config = load_config(DEMOS / "case_study_grid.json")
    goal = AttackGoal(12, TargetKind.ROCOF_ONLY, Sign.EITHER)
    outcome = synthesize_min_attack(config, AttackGoal(horizon=12))
    probe = probe_monotonicity(config, goal, samples=3)
    spec = SweepSpec(config, AttackGoal(horizon=12), h_values=(2.0, 6.0),
                     r_values=(0.2,), t_values=(0.2,),
                     toi_pct_values=(2.0, 10.0), ad_pct_values=(100.0,))
    report = trend_report(run_sweep(spec))
    return {
        "GridParams": config.params,
        "GeneratorRelay": config.generators[0],
        "LoadRelay": config.loads[0],
        "AttackerCapability": config.capability,
        "GridConfig": config,
        "AttackSignal": AttackSignal(0.322, 3),
        "SimOptions": SimOptions(rescale_inertia=True),
        "SimTrace": simulate(config, AttackSignal(0.322), 8),
        "AttackGoal": goal,
        "AttackVector": outcome.vector,
        "FeasibilityOutcome": outcome,
        "DirectionProbe": probe.directions[-1],
        "MonotonicityReport": probe,
        "SweepSpec": spec,
        "TrendBucket": report.parameters["h_s"].buckets[0],
        "ParameterTrend": report.parameters["h_s"],
        "HTypeSplit": report.h_type_split[0],
        "TrendReport": report,
    }


VALUES = instances()


@pytest.mark.parametrize("name", VALUES)
def test_repr_matches_the_recorded_text(name):
    recorded = json.loads(REPRS.read_text(encoding="utf-8"))
    assert type(VALUES[name]).__name__ == name
    assert repr(VALUES[name]) == recorded[name]


@pytest.mark.parametrize("name", VALUES)
def test_pickle_round_trip_gives_an_equal_value(name):
    value = VALUES[name]
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert copy == value
    assert repr(copy) == repr(value)


@pytest.mark.parametrize("name", VALUES)
def test_fields_cannot_be_assigned(name):
    value = VALUES[name]
    for field in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)


def test_replace_runs_the_constructor_checks():
    goal = VALUES["AttackGoal"]
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        goal._replace(horizon=0)
    with pytest.raises(ValueError, match="requires specific_relay_id"):
        goal._replace(target_kind=TargetKind.SPECIFIC)
    with pytest.raises(ValueError, match="attack_step must be >= 0"):
        VALUES["AttackSignal"]._replace(attack_step=-1)
    spec = VALUES["SweepSpec"]
    replaced = spec._replace(h_values=[2, 6], tolerance=1)
    assert replaced.h_values == (2.0, 6.0)
    assert all(type(v) is float for v in replaced.h_values)
    assert type(replaced.tolerance) is float
    with pytest.raises(InvalidParameter, match="h_values: must be nonempty"):
        spec._replace(h_values=[])
    with pytest.raises(InvalidParameter, match="relay_id"):
        spec._replace(goal=AttackGoal(12, TargetKind.SPECIFIC,
                                      specific_relay_id="nosuch"))


def test_grid_config_stores_lists_as_tuples():
    config = VALUES["GridConfig"]
    built = GridConfig(config.params, list(config.generators),
                       list(config.loads), config.capability)
    replaced = config._replace(generators=list(config.generators[:1]),
                               loads=list(config.loads))
    for value in (built, replaced):
        assert type(value.generators) is tuple and type(value.loads) is tuple
    assert built == config
    assert replaced.generators == config.generators[:1]


if __name__ == "__main__":
    reprs = {name: repr(value) for name, value in VALUES.items()}
    REPRS.write_text(json.dumps(reprs, indent=2) + "\n", encoding="utf-8")
    print(f"{len(reprs)} reprs, {sum(map(len, reprs.values()))} characters",
          file=sys.stderr)
