"""Compile a two-scale exchange protocol into plain membrane rules.

Macro-scale state is a count of payload tokens inside a tissue-like
membrane.  A carrier membrane shuttles that state to a micro-scale
membrane and back, implemented entirely as ordinary rewrite, endo, exo,
send-in and send-out rules: the engine runs the composed model with no
coupling-specific hooks or external scheduling.

Phase tokens ``p0 .. p13`` inside the carrier gate every leg of the round
trip, and direction-distinct cargo symbols keep deliveries and pickups
from racing.  One full round trip, with the default labels
(tissue ``T``, micro ``BMU``, coupling ``CU``, carrier ``V``, payload ``c``):

    depart        exo V from CU, paying one cycle token   p0 -> p1
    enter tissue  endo V into T                           p1 -> p2
    drain         send-in all c as _cl   (one step)       p2 -> p3
    travel        exo V from T                            p3 -> p4
                  endo V into CU                          p4 -> p5
                  endo V into BMU                         p5 -> p6
    deliver       send-out all _cl as _cb (one step)      p6 -> p7
    wait          micro dynamics act on _cb               p7 -> p8
    wait          and on what they produced               p8 -> p9
    pickup        send-in _cb and _cn as _cr (one step)   p9 -> p10
    travel back   exo V from BMU                          p10 -> p11
                  exo V from CU                           p11 -> p12
                  endo V into T                           p12 -> p13
    deposit       send-out all _cr as c                   p13, and
    restart       consume one cycle token                 p13 -> p2

Because departure and every restart consume one cycle token, a model
seeded with ``cycles`` tokens performs exactly that many round trips and
then halts with the carrier parked (in p13 inside the tissue, or in p0 if
no cycle token was ever available).  The macro count is read destructively
(drain) and written back (deposit); between the two it lives in the
carrier and the micro membrane.

Micro-scale dynamics themselves are not generated here; they are whatever
rules the micro model provides for the delivered ``_cb`` tokens (see
``mmsim.bone`` for the remodelling example).  The two wait steps give such
two-stage micro dynamics room to finish before pickup.
"""

from __future__ import annotations

from .core import (Multiset, Rule, _Record, _set, endo, exo, is_reserved_symbol, is_symbol,
                   rewrite, send_in, send_out)

__all__ = ["CouplingSpec", "generate_carrier_protocol", "carrier_cycle_length",
           "cycle_end_step"]

_PHASE_COUNT = 14
_DRAIN_PHASE = 2

_PHASE_SYMBOLS = tuple(f"p{i}" for i in range(_PHASE_COUNT))
# Multisets are immutable, so every spec hands out the same phase tokens.
_PHASES = tuple(Multiset({sym: 1}) for sym in _PHASE_SYMBOLS)


class CouplingSpec(_Record):
    """Labels and symbols for one macro/micro unit.

    User-chosen names must stay outside the reserved namespace: generated
    cargo symbols start with an underscore and phase tokens are ``p0`` ..
    ``p13``, so user symbols may not start with ``_`` or collide with a
    generated name.
    """

    __slots__ = ("macro_label", "micro_label", "coupling_label", "carrier_label",
                 "payload_symbol", "cycle_symbol")

    def __init__(self, macro_label: str = "T", micro_label: str = "BMU",
                 coupling_label: str = "CU", carrier_label: str = "V",
                 payload_symbol: str = "c", cycle_symbol: str = "cyc") -> None:
        _set(self, "macro_label", macro_label)
        _set(self, "micro_label", micro_label)
        _set(self, "coupling_label", coupling_label)
        _set(self, "carrier_label", carrier_label)
        _set(self, "payload_symbol", payload_symbol)
        _set(self, "cycle_symbol", cycle_symbol)
        labels = (self.macro_label, self.micro_label, self.coupling_label, self.carrier_label)
        user_symbols = labels + (self.payload_symbol, self.cycle_symbol)
        for name in user_symbols:
            if not is_symbol(name):
                raise ValueError(f"invalid name {name!r}")
            if is_reserved_symbol(name):
                raise ValueError(
                    f"{name!r} collides with the reserved '_' prefix for generated symbols")
        if len(set(labels)) != len(labels):
            raise ValueError(f"membrane labels must be pairwise distinct, got {labels}")
        if self.payload_symbol == self.cycle_symbol:
            raise ValueError("payload and cycle symbols must differ")
        generated = set(self.phase_symbols) | set(self.cargo_symbols)
        clash = generated.intersection(user_symbols)
        if clash:
            raise ValueError(f"user names collide with generated symbols: {sorted(clash)}")

    @property
    def cargo_loaded(self) -> str:
        return f"_{self.payload_symbol}l"

    @property
    def cargo_delivered(self) -> str:
        return f"_{self.payload_symbol}b"

    @property
    def cargo_remodelled(self) -> str:
        """Produced by the micro model for freshly formed payload."""
        return f"_{self.payload_symbol}n"

    @property
    def cargo_returning(self) -> str:
        return f"_{self.payload_symbol}r"

    @property
    def cargo_symbols(self) -> tuple[str, str, str, str]:
        return (self.cargo_loaded, self.cargo_delivered,
                self.cargo_remodelled, self.cargo_returning)

    @property
    def phase_symbols(self) -> tuple[str, ...]:
        return _PHASE_SYMBOLS

    def rule_id(self, name: str) -> str:
        return f"{self.carrier_label}_{name}"


def generate_carrier_protocol(spec: CouplingSpec) -> tuple[Rule, ...]:
    """The fixed 19-rule carrier protocol for one unit.

    All rules are anchored to the four labels of *spec*; composing several
    units with distinct labels yields independent protocols.
    """
    V, T, CU, BMU = (spec.carrier_label, spec.macro_label,
                     spec.coupling_label, spec.micro_label)
    p = _PHASES
    cyc = Multiset({spec.cycle_symbol: 1})
    payload = Multiset({spec.payload_symbol: 1})
    loaded = Multiset({spec.cargo_loaded: 1})
    delivered = Multiset({spec.cargo_delivered: 1})
    remodelled = Multiset({spec.cargo_remodelled: 1})
    returning = Multiset({spec.cargo_returning: 1})
    rid = spec.rule_id

    return (
        exo(rid("depart"), V, CU, p[0] + cyc, p[1]),
        endo(rid("enter_tissue"), V, T, p[1], p[_DRAIN_PHASE]),
        send_in(rid("drain"), V, payload, loaded, promoter=p[_DRAIN_PHASE]),
        rewrite(rid("drain_done"), V, p[_DRAIN_PHASE], p[3]),
        exo(rid("exit_tissue"), V, T, p[3], p[4]),
        endo(rid("enter_coupling"), V, CU, p[4], p[5]),
        endo(rid("enter_micro"), V, BMU, p[5], p[6]),
        send_out(rid("deliver"), V, loaded, delivered, promoter=p[6]),
        rewrite(rid("deliver_done"), V, p[6], p[7]),
        rewrite(rid("wait_resorb"), V, p[7], p[8]),
        rewrite(rid("wait_form"), V, p[8], p[9]),
        send_in(rid("pickup_kept"), V, delivered, returning, promoter=p[9]),
        send_in(rid("pickup_new"), V, remodelled, returning, promoter=p[9]),
        rewrite(rid("pickup_done"), V, p[9], p[10]),
        exo(rid("exit_micro"), V, BMU, p[10], p[11]),
        exo(rid("exit_coupling"), V, CU, p[11], p[12]),
        endo(rid("reenter_tissue"), V, T, p[12], p[13]),
        send_out(rid("deposit"), V, returning, payload, promoter=p[13]),
        rewrite(rid("restart"), V, p[13] + cyc, p[_DRAIN_PHASE]),
    )


def carrier_cycle_length() -> int:
    """Engine steps of one steady-state macro-cycle (p2 back to p2)."""
    return _PHASE_COUNT - _DRAIN_PHASE


def cycle_end_step(k: int) -> int:
    """Index of the step in which round trip *k* (counting from 1) deposits.

    The carrier departs from p0 in step 0 and advances one phase per step;
    restart takes it from the last phase back to the drain phase.  The step
    after the last round trip is the halting step.
    """
    return _DRAIN_PHASE + k * carrier_cycle_length() - 1
