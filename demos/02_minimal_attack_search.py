"""Find the weakest injection that still causes a false relay operation.

Shows the layers of the synthesizer: the monotonicity probe, the exact
closed-form answer for the "any relay" goal, the bisection search the probe
seeds for goals that name a relay kind, and the replay certificate.  Ends
with a grid whose feasible set has a hole, where bisection refuses and the
exhaustive scan takes over.
"""

import warnings

from frosim import (
    AttackerCapability,
    AttackGoal,
    GeneratorRelay,
    GridConfig,
    GridParams,
    LoadRelay,
    NonMonotoneFeasibility,
    TargetKind,
    capability_bound,
    exhaustive_min_attack,
    feasibility,
    probe_monotonicity,
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

print("=" * 64)
print("1. Probe feasibility over the capability interval")
print("=" * 64)
bound = capability_bound(config.capability)
print(f"capability bound: {bound:.3f} pu")
report = probe_monotonicity(config, goal, samples=17)
probe = report.directions[1]
marks = "".join("#" if ok else "." for ok in probe.feasible)
print(f"feasible pattern over [0, bound]: {marks}")
print(f"up-set (monotone): {probe.monotone}, "
      f"boundary bracket: {probe.bracket}")

print()
print("=" * 64)
print("2. The minimal injection: closed form, then bisection")
print("=" * 64)
# Any relay counts: the pre-event trace is linear in dp_a, so one relay-free
# unit response gives the exact minimum, certified by one replay.
outcome = synthesize_min_attack(config, goal)
vec = outcome.vector
print(f"any relay, closed form: {vec.dp_a!r} pu")
print(f"first false operation: {vec.outcome.kind.name} on "
      f"{vec.outcome.relay_id} at step {vec.outcome.trip_step}")
replay = feasibility(config, vec.dp_a, goal)
print(f"certificate replay reproduces the outcome: "
      f"{replay.vector.outcome == vec.outcome}")

# A goal that names the relay kind may be met only after other relays have
# operated, so it is searched: bisection inside the probe's bracket, to the
# tolerance.
rocof_goal = AttackGoal(horizon=12, target_kind=TargetKind.ROCOF_ONLY)
bracket = probe_monotonicity(config, rocof_goal).directions[1].bracket
print(f"ROCOF trips only, probe bracket: "
      f"({bracket[0]:.6f}, {bracket[1]:.6f}) pu")
bisected = synthesize_min_attack(config, rocof_goal, tolerance=1e-4)
print(f"ROCOF trips only, bisected to 1e-4: {bisected.vector.dp_a:.6f} pu "
      f"trips {bisected.vector.outcome.relay_id}")

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
probe = probe_monotonicity(holey, holey_goal, samples=17).directions[1]
marks = "".join("#" if ok else "." for ok in probe.feasible)
print(f"feasible pattern: {marks}  (up-set: {probe.monotone})")
try:
    synthesize_min_attack(holey, holey_goal)
except NonMonotoneFeasibility as exc:
    print(f"bisection refused: {exc}")
fallback = exhaustive_min_attack(holey, holey_goal, resolution=1e-3)
print(f"exhaustive scan finds the rebound route: "
      f"{fallback.vector.dp_a:.4f} pu trips {fallback.vector.outcome.relay_id} "
      f"at step {fallback.vector.outcome.trip_step}")
