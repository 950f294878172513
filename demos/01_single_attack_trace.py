"""Walk through one falsified-setpoint run on the five-bus study grid.

A positive injection makes the control center believe generation is
abundant; it lowers the real setpoints and frequency starts falling.  The
script prints the first cycles of the trace, the relay events, and then
cross-checks the droop steady state with relays out of the way.
"""

import math
import warnings

from frosim import (
    AttackerCapability,
    AttackSignal,
    GeneratorRelay,
    GridConfig,
    GridParams,
    LoadRelay,
    simulate,
    validate_config,
)

# Three 1.0 pu generators with staggered ROCOF settings, four 0.5 pu load
# blocks shedding at 59.5 Hz, 1.5 pu of DER measurements reachable by the
# attacker.
config = validate_config(GridConfig(
    params=GridParams(h_inertia=2.0, droop_r=0.2, governor_t=0.2),
    generators=[
        GeneratorRelay("g4", "bus4", p_tg=1.0, rocof_threshold=0.5),
        GeneratorRelay("g5", "bus5", p_tg=1.0, rocof_threshold=0.6),
        GeneratorRelay("g1", "bus1", p_tg=1.0, rocof_threshold=1.2),
    ],
    loads=[
        LoadRelay(f"l{i}", f"bus{i}", p_sh=0.5, underfreq_threshold=59.5)
        for i in range(1, 5)
    ],
    capability=AttackerCapability(toi=0.02, ad=0.2, der_total=1.5, kappa=60.0),
))

print("=" * 64)
print("Injection of 0.322 pu at step 0, stepped one cycle at a time")
print("=" * 64)
trace = simulate(config, AttackSignal(dp_a=0.322, attack_step=0), horizon=20)

print(f"{'n':>3} {'t (s)':>7} {'f (Hz)':>9} {'slope (Hz/s)':>13}  events")
events_by_step = {}
for ev in trace.events:
    events_by_step.setdefault(ev.step, []).append(ev)
for rec in trace.records[:13]:
    slope = rec.rocof_hz_per_s  # None until the slope window fills
    slope_text = "-" if slope is None else f"{slope:+.3f}"
    evs = ", ".join(f"{e.kind.name}:{e.relay_id}"
                    for e in events_by_step.get(rec.n, []))
    print(f"{rec.n:>3} {rec.t_s:>7.4f} {rec.f_hz:>9.4f} "
          f"{slope_text:>13}  {evs}")

print()
print("Relay event log:")
for ev in trace.events:
    print(f"  step {ev.step:>3}: {ev.kind.name:>10} {ev.relay_id}")
last = trace.records[-1]
print(f"Tripped generation: {last.dp_tg_cum:.2f} pu, "
      f"shed load: {last.dp_sh_cum:.2f} pu")

print()
print("=" * 64)
print("Droop cross-check with relays out of reach")
print("=" * 64)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # the unreachable setting is deliberate
    quiet = validate_config(GridConfig(
        params=config.params,
        generators=[GeneratorRelay("g", "b", 1.0, float("inf"))],
        loads=[LoadRelay("l", "b", 0.5, 1e-9)],
        capability=config.capability,
    ))
dp = 0.1
r = quiet.params.droop_r
# the slow swing-droop pair settles on the 2*H*R timescale
steps = math.ceil(40 * max(2 * quiet.params.h_inertia * r,
                           quiet.params.governor_t) / quiet.params.dt)
settle = simulate(quiet, AttackSignal(dp), steps)
print(f"injection {dp} pu, droop {r}: expected deviation {-r * dp:+.4f} pu, "
      f"simulated {settle.records[-1].delta_f:+.10f} pu after {steps} steps")
