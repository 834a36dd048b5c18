"""Maximal parallelism, seeded nondeterminism, and the exhaustive oracle.

Run with:  python3 demos/02_maximal_steps.py
"""

from mmsim import EngineOptions, parse_model, run
from mmsim.oracle import canonical_form, oracle_successors

# Maximality in action: the step cannot stop while an instance could still
# fire, so a single send-in rule drains all ten tokens in one step.
drain = parse_model("[skin: c*10 [V: ]] rule load: send-in V: c -> cl")
drained = run(drain, EngineOptions(seed=0), max_steps=1)
print("one step of the drain model:")
for a in drained.steps[0].applied:
    print(f"  {a.rule} fired {a.count} times")
print("  state:", drained.steps[0].state)
print()

# When several maximal choices exist, the seed decides, reproducibly.
choice = parse_model("[skin: a*3] rule r1: in skin: a -> b rule r2: in skin: a -> c")
print("competing rules over a*3, across seeds:")
for seed in range(6):
    trace = run(choice, EngineOptions(seed=seed), max_steps=1)
    print(f"  seed {seed}: {trace.steps[0].state['skin']}")
rerun = run(choice, EngineOptions(seed=3), max_steps=1)
assert rerun == run(choice, EngineOptions(seed=3), max_steps=1)
print("  (same seed, same trace, always)")
print()

# The oracle enumerates every maximal outcome, so any engine result must
# be one of them; here all four splits of three tokens show up.
successors = oracle_successors(choice.config, choice.rules)
print(f"the oracle finds {len(successors)} maximal outcomes:")
for canon in sorted(successors):
    print("  skin holds:", dict(canon[1]))
assert canonical_form(drained.final) in oracle_successors(drain.config, drain.rules)
