"""The carrier protocol: two-scale coupling as plain membrane rules.

Run with:  python3 demos/03_carrier_coupling.py
"""

from mmsim import (
    CouplingSpec,
    EngineOptions,
    carrier_cycle_length,
    couple,
    cycle_end_step,
    generate_carrier_protocol,
    render_tree,
    rule_text,
    run,
)

# This unit has no micro rules, so the carrier needs no wait phase between
# delivery and pickup: the protocol is its 17 fixed rules, and a cycle is
# 10 steps.  (The bone study's two micro levels add two waits: 19 rules,
# 12 steps.)
spec = CouplingSpec()
micro = ()
rules = generate_carrier_protocol(spec, micro)
print(f"the protocol compiles to {len(rules)} ordinary rules:")
for rule in rules:
    print(" ", rule_text(rule))
print()

# Compose a minimal unit: a tissue patch with 4 payload tokens, an empty
# micro membrane, and a carrier with one cycle token.  No micro rules here,
# so delivery is a no-op and everything comes back unchanged.
cycles = 1
model = couple([(spec, micro, 4, None)], cycles)

print("phase walk of one round trip (4 payload tokens, no micro dynamics):")
# The last round trip's deposit step, then the halting step.
trace = run(model, EngineOptions(seed=0), max_steps=cycle_end_step(cycles, micro) + 2)
for step_ in trace.steps:
    fired = ", ".join(f"{a.rule}x{a.count}" if a.count > 1 else a.rule
                      for a in step_.applied) or "(halted)"
    carrier = step_.state["V"]
    phase = next(s for s in carrier if s.startswith("p"))
    print(f"  step {step_.index:2d}  phase {phase:>3}  T={step_.state['T']}  {fired}")
print()
print("final tree:")
print(render_tree(trace.final.skin))
print()
# Round trip 1 ends in step cycle_end_step(1), counted from step 0.
cycle = carrier_cycle_length(micro)
extra = cycle_end_step(1, micro) + 1 - cycle
print(f"a steady-state macro-cycle takes {cycle} steps;")
print(f"the first one pays {extra} extra steps to leave the coupling membrane.")
