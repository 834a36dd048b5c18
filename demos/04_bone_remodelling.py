"""The bone remodelling case study: density trajectories per cycle.

Run with:  python3 demos/04_bone_remodelling.py
"""

from mmsim import BoneParams, EngineOptions, build_bone_model, density_series, run, transit_total


def run_to_halt(p: BoneParams):
    return run(build_bone_model(p), EngineOptions(seed=0), p.run_steps)


def study(title: str, **params):
    p = BoneParams(**params)
    trace = run_to_halt(p)
    series = density_series(trace, 1, p.capacity)
    bar = {cycle: "#" * round(40 * density) for cycle, density in series}
    print(f"{title}  (oc={p.oc}, ob={p.ob}, cycles={p.cycles})")
    print(f"  start   {p.density:5.3f} {'#' * round(40 * p.density)}")
    for cycle, density in series:
        print(f"  cycle {cycle} {density:5.3f} {bar[cycle]}")
    totals = {transit_total(s.state, 1) for s in trace.steps}
    print(f"  tokens conserved on every step: {totals == {round(p.density * p.capacity)}}")
    print()


# One osteoclast removes one mineral token, one osteoblast refills one
# resorbed slot; both are consumed on use, so the stocks are budgets.
study("net resorption      ", density=0.5, oc=3, ob=1, cycles=1)
study("balanced remodelling", density=0.5, oc=4, ob=4, cycles=4)
study("resorption only     ", density=0.8, oc=3, ob=0, cycles=4)
study("inert micro scale   ", density=0.5, oc=0, ob=0, cycles=3)

# Units evolve independently: same parameters give the same trajectory in
# a composed multi-unit model.
p = BoneParams(density=0.5, oc=3, ob=1, cycles=2, units=3)
trace = run_to_halt(p)
print("three units, composed in one model:")
for unit in range(1, p.units + 1):
    print(f"  unit {unit}:", density_series(trace, unit, p.capacity))
