"""Seeded generator for the ``churn_dense`` model.

The model is built so that almost every rule binding is live on every
step and the mover-lock rejects about half of the candidates.  Each
property below is chosen for that reason:

* 12 ``room`` membranes, each holding one ``core`` and one ``seed``, and
  24 ``cell`` membranes spread over the skin and the rooms.  A seed that
  enters its core makes the tree three levels deep below the skin, so
  endo and exo moves happen at two depths in the same step.
* The four move rules consume and give back a private ``m`` token that
  every cell and seed holds, so only the mover-lock limits them: each room
  (host of ``enter`` and ``leave``) and each core (host of ``bury`` and
  ``dig``) takes part in one move per step while every cell in the skin
  is a candidate for every room.  That gives about 22 moves per step and
  rejects about half of all candidates, so selection, the lock and move
  application carry the cost rather than enumeration.
* Every cell starts with ``a`` and ``b``, every seed with ``s`` and ``t``,
  and the rewrite rules only swap them, so no flip rule ever runs dry and
  the model never halts: a run lasts exactly ``--max-steps`` steps.
* ``pump``/``vent`` move ``x``/``y`` across cell walls in both directions,
  covering ``send-in`` and ``send-out``; the cells of one room compete for
  its ``x``, so multiplicities are limited by resources as well.
* ``leave`` carries a promoter, so the promoter check runs on every step.
* Every symbol is consumed by some rule and every label is present
  initially, so ``lint()`` reports nothing.

The seed decides only where the cells start, the symbol counts and
whether each seed starts inside its core.  The sizes stay fixed, so every
seed gives about the same work per step.
"""

from __future__ import annotations

import random

ROOMS = 12
CELLS = 24

RULES = """\
rule flip_ab: in cell: a -> b
rule flip_ba: in cell: b -> a
rule enter: endo cell into room: m -> m
rule leave: exo cell from room: m -> m if b
rule sprout: in seed: s -> t
rule wilt: in seed: t -> s
rule bury: endo seed into core: m -> m
rule dig: exo seed from core: m -> m
rule pump: send-in cell: x -> y
rule vent: send-out cell: y -> x
"""


def churn_model(seed: int) -> str:
    """Model text of the churn workload; equal seeds give equal text."""
    rng = random.Random(seed)

    def cell() -> str:
        return f"[cell: a*{rng.randint(1, 3)}, b*{rng.randint(1, 3)}, m, y*{rng.randint(1, 3)}]"

    # A home of ROOMS means the cell starts in the skin, after the rooms.
    homes = [rng.randrange(ROOMS + 1) for _ in range(CELLS)]
    lines = [f"# churn_dense, seed {seed}: {ROOMS} rooms, {CELLS} cells",
             f"[skin: x*{rng.randint(4, 12)}"]
    for room in range(ROOMS):
        lines.append(f"  [room: x*{rng.randint(1, 6)}")
        seed_text = f"[seed: m, s*{rng.randint(1, 3)}, t*{rng.randint(1, 2)}]"
        if rng.random() < 0.5:
            lines.append(f"    [core: {seed_text}]")
        else:
            lines.append("    [core: ]")
            lines.append(f"    {seed_text}")
        lines.extend(f"    {cell()}" for home in homes if home == room)
        lines.append("  ]")
    lines.extend(f"  {cell()}" for home in homes if home == ROOMS)
    lines.append("]")
    return "\n".join(lines) + "\n" + RULES
