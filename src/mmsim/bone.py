"""Two-scale bone remodelling built on the carrier coupling protocol.

Bone tissue is modelled as patches whose mineralisation density in [0, 1]
is encoded as a token count out of a capacity ``D``: a patch at density
0.5 with D = 20 holds ten ``c`` tokens.  Remodelling happens at the cell
scale inside BMU ("bone multicellular unit") membranes stocked with
consumable actor tokens:

    resorption   _oc, _cb -> _f     an osteoclast token removes one
                                    delivered mineral token, leaving a
                                    free slot
    formation    _ob, _f  -> _cn    an osteoblast token fills a free slot
                                    with new mineral

Each tissue patch T_i is paired with a coupling membrane CU_i holding its
BMU_i and a carrier V_i.  The carrier drains the patch's tokens, delivers
them to the BMU, waits one step per level of the rules above (resorption,
then formation), picks up what is left plus what was formed, and deposits
the result back in the patch; one round trip per cycle token.  Because
formation needs a free slot, net growth is capped by prior resorption
within the run.

Every carrier advances exactly one phase per step until it parks: each
phase has one rule that advances it, and a carrier's moves lock only its
own unit's membranes, so the mover-lock never refuses one.  All units
therefore end round trip k in the same step,
``mmsim.coupling.cycle_end_step(k, micro_rules(spec))``, which is where
:class:`DensitySampler` reads the densities.

Everything here returns plain models and rules; serialization is
``mmsim.parser``'s job and execution is ``mmsim.engine``'s.
"""

from __future__ import annotations

from typing import Iterable

from .core import MAX_COUNT, Model, Rule, Trace, TraceStep, _Record, _require_int, _set, rewrite
from .coupling import CouplingSpec, _bag, carrier_cycle_length, couple, cycle_end_step

__all__ = [
    "BoneParams",
    "encode_density",
    "decode_density",
    "micro_rules",
    "build_bone_model",
    "unit_spec",
    "DensitySampler",
    "density_series",
    "transit_total",
    "OSTEOCLAST",
    "OSTEOBLAST",
    "FREE_SLOT",
]

OSTEOCLAST = "_oc"
OSTEOBLAST = "_ob"
FREE_SLOT = "_f"


def _check_density(density: float) -> None:
    if isinstance(density, bool) or not isinstance(density, (int, float)):
        raise ValueError(f"density must be an int or a float, got {density!r}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be within [0, 1], got {density}")


class BoneParams(_Record):
    """Build parameters for an n-unit bone model.

    ``capacity`` is the token count representing full mineralisation;
    ``density`` is the initial mineralisation of every tissue unit;
    ``oc``/``ob`` stock each BMU with osteoclast/osteoblast tokens;
    ``cycles`` is the number of carrier round trips per unit.
    """

    __slots__ = ("capacity", "density", "oc", "ob", "cycles", "units")

    def __init__(self, capacity: int = 20, density: float = 0.5, oc: int = 0, ob: int = 0,
                 cycles: int = 1, units: int = 1) -> None:
        # Each count but units becomes an object count (the payload is at
        # most ``capacity``), and no count may exceed MAX_COUNT.
        _require_int("capacity", capacity, 1, MAX_COUNT)
        _check_density(density)
        for name, value in (("oc", oc), ("ob", ob), ("cycles", cycles)):
            _require_int(name, value, 0, MAX_COUNT)
        _require_int("units", units, 1)
        _set(self, "capacity", capacity)
        _set(self, "density", density)
        _set(self, "oc", oc)
        _set(self, "ob", ob)
        _set(self, "cycles", cycles)
        _set(self, "units", units)

    @property
    def run_steps(self) -> int:
        """The most steps a run of this model takes: through the last round
        trip's deposit step, then the halting step.  A last round trip that
        brings nothing back halts in its deposit step, and with no round
        trip the carrier never leaves, so step 0 halts."""
        return cycle_end_step(self.cycles, micro_rules(CouplingSpec())) + 2 if self.cycles else 1


def encode_density(density: float, capacity: int) -> int:
    """Token count for a density, rounding ties away from zero.  The density
    is the decimal its ``repr`` prints, multiplied exactly: 0.58 of 25
    tokens is 14.5, which rounds to 15."""
    _require_int("capacity", capacity, 1)
    _check_density(density)
    digits, _, exponent = repr(float(density)).partition("e")
    whole, _, fraction = digits.partition(".")
    scale = 10 ** (len(fraction) - int(exponent or 0))
    return (2 * int(whole + fraction) * capacity + scale) // (2 * scale)


def decode_density(tokens: int, capacity: int) -> float:
    """Density for a token count; inverse of encode on the 1/capacity grid."""
    _require_int("capacity", capacity, 1)
    _require_int("tokens", tokens, 0, capacity)
    return tokens / capacity


def micro_rules(spec: CouplingSpec) -> tuple[Rule, Rule]:
    """The BMU-scale resorption and formation rules of the unit *spec*.

    Both actor tokens are consumed on use, so ``oc``/``ob`` stocks bound
    the total remodelling work a unit can do across all cycles.
    """
    bmu = spec.micro_label
    return (
        rewrite(f"{bmu}_resorb", bmu, _bag(OSTEOCLAST, spec.cargo_delivered), _bag(FREE_SLOT)),
        rewrite(f"{bmu}_form", bmu, _bag(OSTEOBLAST, FREE_SLOT), _bag(spec.cargo_remodelled)),
    )


def unit_spec(unit: int) -> CouplingSpec:
    """The coupling spec of tissue unit *unit* (1-based)."""
    return CouplingSpec(macro_label=f"T{unit}", micro_label=f"BMU{unit}",
                        coupling_label=f"CU{unit}", carrier_label=f"V{unit}")


def build_bone_model(params: BoneParams) -> Model:
    """Compose ``params.units`` independent tissue/BMU pairs into one model.

    Units share symbol names but no labels, and every rule is anchored to
    unit-indexed labels, so no token can ever flow between units.
    """
    tokens = encode_density(params.density, params.capacity)
    bmu_stock = {sym: n for sym, n in ((OSTEOCLAST, params.oc), (OSTEOBLAST, params.ob)) if n}
    specs = map(unit_spec, range(1, params.units + 1))
    return couple([(spec, micro_rules(spec), tokens, bmu_stock) for spec in specs], params.cycles)


class DensitySampler:
    """Per-cycle tissue densities of several units, read from a stream of
    trace steps in one pass.

    Every carrier starts in p0 at step 0 and advances exactly one phase per
    step, so round trip k of every unit ends in the same step,
    ``cycle_end_step(k, micro_rules(spec))``, whether or not it carries
    anything back; the sample is the tissue's payload count right after
    that step.  Feed the steps of a run in order, from step 0, to
    :meth:`add`; ``series[unit]`` then holds ``(cycle, density)`` for every
    cycle completed so far.
    """

    def __init__(self, units: Iterable[int], capacity: int):
        self.capacity = capacity
        self.series: dict[int, list[tuple[int, float]]] = {}
        self._specs: dict[int, CouplingSpec] = {}
        self._cycles = 0  # round trips completed so far
        micro = micro_rules(CouplingSpec())  # the schedule is derived once per run
        self._first_end, self._cycle_length = cycle_end_step(1, micro), carrier_cycle_length(micro)
        for unit in units:
            self._specs[unit] = unit_spec(unit)
            self.series[unit] = []

    def add(self, step: TraceStep) -> None:
        """Read the next step of the run."""
        state = step.state
        if step.index == 0:
            for unit, spec in self._specs.items():
                if spec.macro_label not in state:
                    raise ValueError(f"unit {unit} out of range for this trace")
        if step.index != self._first_end + self._cycles * self._cycle_length:
            return
        self._cycles += 1
        for unit, spec in self._specs.items():
            tokens = state.get(spec.macro_label, {}).get(spec.payload_symbol, 0)
            self.series[unit].append((self._cycles, decode_density(tokens, self.capacity)))


def density_series(trace: Trace, unit: int, capacity: int) -> list[tuple[int, float]]:
    """Per-cycle tissue density of one unit, sampled at each deposit step
    (see :class:`DensitySampler`).  Runs cut off by a step bound yield
    samples only for the cycles they completed.
    """
    sampler = DensitySampler((unit,), capacity)
    for step in trace.steps:
        sampler.add(step)
    return sampler.series[unit]


def transit_total(state: dict[str, dict[str, int]], unit: int) -> int:
    """Payload-or-slot token total of one unit in a trace state snapshot.

    Sums the payload symbol and every cargo form plus free slots over the
    unit's four labels; the carrier protocol and the micro rules each
    preserve this number, so it is constant over every run.
    """
    spec = unit_spec(unit)
    symbols = {spec.payload_symbol, *spec.cargo_symbols, FREE_SLOT}
    labels = (spec.macro_label, spec.micro_label, spec.coupling_label, spec.carrier_label)
    return sum(state.get(label, {}).get(sym, 0) for label in labels for sym in symbols)
