"""Shared builders for the test suite."""

import math
import random

import numpy as np
import pytest

from frosim import (
    AttackerCapability,
    GeneratorRelay,
    GridConfig,
    GridParams,
    LoadRelay,
    validate_config,
)

# Case-study grid: three 1.0 pu generators with ROCOF relays at 0.5/0.6/1.2
# Hz/s, four 0.5 pu load blocks shedding at 59.5 Hz, 1.5 pu of DER output
# reachable by the attacker.
C1_GENERATORS = (
    GeneratorRelay("g4", "bus4", 1.0, 0.5),
    GeneratorRelay("g5", "bus5", 1.0, 0.6),
    GeneratorRelay("g1", "bus1", 1.0, 1.2),
)
C1_LOADS = tuple(
    LoadRelay(f"l{i}", f"bus{i}", 0.5, 59.5) for i in range(1, 5)
)


def column(trace, field):
    """One field of every step record of *trace* as an array, with a
    ``None`` (ROCOF before the window fills) read as NaN."""
    values = [getattr(r, field) for r in trace.records]
    return np.array([math.nan if v is None else v for v in values])


def study_config(h=2.0, r=0.2, t=0.2, toi=0.02, ad=0.2, kappa=1.0,
                 dt=1.0 / 60.0, m=6, generators=C1_GENERATORS, loads=C1_LOADS):
    """The case-study grid with overridable dynamics and capability."""
    return validate_config(GridConfig(
        params=GridParams(h_inertia=h, droop_r=r, governor_t=t, dt=dt,
                          rocof_window_m=m),
        generators=generators,
        loads=loads,
        capability=AttackerCapability(toi=toi, ad=ad, der_total=1.5,
                                      kappa=kappa),
    ))


def relays_disabled_config(h=2.0, r=0.2, t=0.2, **kw):
    """Same grid with thresholds pushed out of reach."""
    gens = (GeneratorRelay("g", "b", 1.0, float("inf")),)
    loads = (LoadRelay("l", "b", 0.5, 1e-9),)
    with pytest.warns(UserWarning):
        return study_config(h=h, r=r, t=t, generators=gens, loads=loads, **kw)


def random_small_config(rng: random.Random):
    """A modest random grid for search/oracle agreement checks.

    Capability is kept small so exhaustive scans at 1e-4 resolution stay
    cheap, and thresholds are drawn so the feasibility boundary usually
    falls inside the capability interval.
    """
    h = rng.uniform(1.0, 4.0)
    gens = (
        GeneratorRelay("gA", "b1", rng.uniform(0.5, 1.5),
                       rng.uniform(0.5, 1.2)),
        GeneratorRelay("gB", "b2", rng.uniform(0.5, 1.5),
                       rng.uniform(0.5, 1.2)),
    )
    loads = (
        LoadRelay("lA", "b3", rng.uniform(0.3, 1.0),
                  rng.uniform(59.0, 59.8)),
    )
    return validate_config(GridConfig(
        params=GridParams(
            h_inertia=h,
            droop_r=rng.uniform(0.2, 1.0),
            governor_t=rng.uniform(0.2, 1.0),
        ),
        generators=gens,
        loads=loads,
        capability=AttackerCapability(
            toi=rng.uniform(0.02, 0.10), ad=rng.uniform(0.2, 1.0),
            der_total=1.5, kappa=rng.uniform(0.3, 1.0),
        ),
    ))
