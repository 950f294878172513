"""Find the weakest injection that still causes a false relay operation.

Shows the layers of the synthesizer: the exact closed-form answer for the
"any relay" goal, the exact interval pass for goals that name a relay kind,
and the replay certificate.  Ends with a grid whose feasible set has a hole,
shown by replays across the capability range; the interval pass answers it
exactly, and the exhaustive scan, which assumes nothing, agrees.
"""

import warnings
from decimal import Context, Decimal

from frosim import (
    AttackerCapability,
    AttackGoal,
    GeneratorRelay,
    GridConfig,
    GridParams,
    LoadRelay,
    TargetKind,
    capability_bound,
    exhaustive_min_attack,
    feasibility,
    synthesize_min_attack,
    validate_config,
)

config = validate_config(GridConfig(
    params=GridParams(h_inertia=2.0, droop_r=0.2, governor_t=0.2),
    generators=[
        GeneratorRelay("g4", "bus4", 1.0, 0.5),
        GeneratorRelay("g5", "bus5", 1.0, 0.6),
        GeneratorRelay("g1", "bus1", 1.0, 1.2),
    ],
    loads=[LoadRelay(f"l{i}", f"bus{i}", 0.5, 59.5) for i in range(1, 5)],
    capability=AttackerCapability(toi=0.02, ad=0.2, der_total=1.5, kappa=60.0),
))
goal = AttackGoal(horizon=12)


def record_below(dp_a):
    """The 12-significant-digit decimal one unit below *dp_a*."""
    return float(Context(prec=12).next_minus(Decimal(repr(dp_a))))


print("=" * 64)
print("1. The minimal injection: closed form")
print("=" * 64)
print(f"capability bound: {capability_bound(config.capability):.3f} pu")
# Any relay counts: the pre-event trace is linear in dp_a, so one relay-free
# unit response gives the exact minimum.  Its replay certifies the answer,
# and a replay one record decimal lower must fail.
outcome = synthesize_min_attack(config, goal)
vec = outcome.vector
print(f"any relay, closed form: {vec.dp_a!r} pu")
print(f"first false operation: {vec.outcome.kind.name} on "
      f"{vec.outcome.relay_id} at step {vec.outcome.trip_step}")
replay = feasibility(config, vec.dp_a, goal)
print(f"certificate replay reproduces the outcome: "
      f"{replay.vector.outcome == vec.outcome}")
lower = record_below(vec.dp_a)
print(f"one record decimal lower, {lower!r} pu, meets the goal: "
      f"{feasibility(config, lower, goal).success}")


def show_replays(grid, goal, samples=36):
    """One replay per evenly spaced magnitude in [0, capability bound]."""
    bound = capability_bound(grid.capability)
    marks = "".join(
        "#" if feasibility(grid, bound * k / (samples - 1), goal).success
        else "." for k in range(samples))
    print(f"replays over [0, {bound:.3f}] pu (# meets the goal): {marks}")


print()
print("=" * 64)
print("2. A goal that names the relay kind: the interval pass")
print("=" * 64)
# Within 12 steps load is shed only after the ROCOF trips have steepened the
# fall, which breaks linearity.  With the earlier relay outcomes fixed, every
# relay condition is linear in the magnitude again, so one pass over
# intervals of it finds the smallest feasible magnitude, as a constraint
# solver would.
ls_goal = AttackGoal(horizon=12, target_kind=TargetKind.LS_ONLY)
exact = synthesize_min_attack(config, ls_goal)
print(f"load shedding only, exact: {exact.vector.dp_a!r} pu "
      f"sheds {exact.vector.outcome.relay_id} at step "
      f"{exact.vector.outcome.trip_step}")
# the answer is a 12-significant-digit decimal; one unit lower fails
lower = record_below(exact.vector.dp_a)
print(f"one record decimal lower, {lower!r} pu, meets the goal: "
      f"{feasibility(config, lower, ls_goal).success}")

print()
print("=" * 64)
print("3. A feasible set with a hole")
print("=" * 64)
# One high ROCOF setting plus a large shed block: small injections drift to
# 59.5 Hz, the 0.5 pu shed snaps frequency back up fast enough to trip the
# relay on the rebound; mid-size injections do neither.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    holey = validate_config(GridConfig(
        params=GridParams(h_inertia=2.0, droop_r=1.0, governor_t=0.2),
        generators=[GeneratorRelay("g", "bus1", 1.0, 3.0)],
        loads=[LoadRelay("l", "bus2", 0.5, 59.5)],
        capability=AttackerCapability(toi=1.0, ad=1.0, der_total=1.5,
                                      kappa=0.35 / 1.5),
    ))
holey_goal = AttackGoal(horizon=600, target_kind=TargetKind.ROCOF_ONLY)
show_replays(holey, holey_goal)
answer = synthesize_min_attack(holey, holey_goal)
print(f"exact minimum: {answer.vector.dp_a!r} pu trips "
      f"{answer.vector.outcome.relay_id} at step "
      f"{answer.vector.outcome.trip_step}")
scan = exhaustive_min_attack(holey, holey_goal, resolution=1e-3)
print(f"exhaustive scan at 1e-3 agrees: {scan.vector.dp_a:.4f} pu")
