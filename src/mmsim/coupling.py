"""Compile a two-scale exchange protocol into plain membrane rules.

Macro-scale state is a count of payload tokens inside a tissue-like
membrane.  A carrier membrane shuttles that state to a micro-scale
membrane and back, implemented entirely as ordinary rewrite, endo, exo,
send-in and send-out rules: the engine runs the composed model with no
coupling-specific hooks or external scheduling.

The carrier walks a phase table, one phase per step: in phase ``i`` it
holds the token ``p<i>``, which promotes the phase's transfers, and one
rule advances it.  Direction-distinct cargo symbols keep deliveries and
pickups from racing.  With the bone's two micro levels and the default
labels (tissue ``T``, micro ``BMU``, coupling ``CU``, carrier ``V``,
payload ``c``), one round trip walks ``p0 .. p13``:

    depart        exo V from CU, paying one cycle token   p0 -> p1
    enter tissue  endo V into T                           p1 -> p2
    drain         send-in all c as _cl   (one step)       p2 -> p3
    travel        exo V from T                            p3 -> p4
                  endo V into CU                          p4 -> p5
                  endo V into BMU                         p5 -> p6
    deliver       send-out all _cl as _cb (one step)      p6 -> p7
    wait          level 1: BMU_resorb acts on _cb         p7 -> p8
    wait          level 2: BMU_form acts on its product   p8 -> p9
    pickup        send-in _cb and _cn as _cr (one step)   p9 -> p10
    travel back   exo V from BMU                          p10 -> p11
                  exo V from CU                           p11 -> p12
                  endo V into T                           p12 -> p13
    deposit       send-out all _cr as c                   p13, and
    restart       consume one cycle token                 p13 -> p2

Because departure and every restart consume one cycle token, a model
seeded with ``cycles`` tokens performs exactly that many round trips and
then halts with the carrier parked (in the last phase inside the tissue,
or in p0 if no cycle token was ever available).  The macro count is read
destructively (drain) and written back (deposit); between the two it
lives in the carrier and the micro membrane.

Micro dynamics are the unit's ``in <micro label>`` rewrites (see
``mmsim.bone``), with one wait phase per level.  A micro rule's level is
one more than the highest level of the micro rules that make a symbol it
consumes or reads as a promoter.  Only the delivery feeds level 1, so by
maximality and induction a level-d rule is dead d steps after it, and the
micro membrane is quiescent at pickup.  Cyclic micro rules are rejected.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Mapping, Sequence

from .core import (Multiset, Rule, RuleForm, _Record, _require_int, _set, build_configuration,
                   check_symbol, endo, exo, rewrite, send_in, send_out)
from .parser import Model

__all__ = ["CouplingSpec", "generate_carrier_protocol", "couple", "carrier_cycle_length",
           "cycle_end_step"]


@cache  # multisets are immutable, so every unit shares each distinct rule side
def _bag(*symbols: str) -> Multiset:
    """The multiset of *symbols*, one of each."""
    return Multiset(dict.fromkeys(symbols, 1))


def _phase(index: int) -> Multiset:
    return _bag(f"p{index}")


class CouplingSpec(_Record):
    """Labels and symbols for one macro/micro unit.

    User-chosen names must stay outside the reserved namespace: generated
    cargo symbols start with an underscore and phase tokens are ``p`` and
    digits, as many as the micro rules need, so user names may not start
    with ``_`` (which covers every cargo symbol) or look like a phase token.
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
            check_symbol(name)
            if name.startswith("_"):
                raise ValueError(
                    f"{name!r} collides with the reserved '_' prefix for generated symbols")
        if len(set(labels)) != len(labels):
            raise ValueError(f"membrane labels must be pairwise distinct, got {labels}")
        if self.payload_symbol == self.cycle_symbol:
            raise ValueError("payload and cycle symbols must differ")
        clash = {name for name in user_symbols if name[0] == "p" and name[1:].isdigit()}
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

    def rule_id(self, name: str) -> str:
        return f"{self.carrier_label}_{name}"


def _wait_names(micro: Iterable[Rule], label: str | None = None) -> list[str]:
    """Wait rule names for *micro*, ``in`` rewrites of *label* (by default the
    first rule's): per level, ``wait_`` and its first rule id, without the
    ``<label>_`` prefix unless that leaves another micro rule's id.  A level
    holds the rules fed only by earlier ones."""
    rules = list(micro)
    label = label or (rules[0].subject if rules else None)
    for rule in rules:
        if rule.form is not RuleForm.REWRITE or rule.subject != label:
            raise ValueError(f"micro rule {rule.id!r} is not an 'in {label}' rewrite")
    needs = [{*rule.consumed, *(rule.promoter or ())} for rule in rules]
    producers = [{i for i, q in enumerate(rules) if s.intersection(q.produced)} for s in needs]
    ids, left, names = {rule.id for rule in rules}, range(len(rules)), []
    while left:
        level = [i for i in left if producers[i].isdisjoint(left)]
        if not level:
            raise ValueError(f"micro rules fed by a cycle: {[rules[i].id for i in left]}")
        first = rules[level[0]].id
        short = first.removeprefix(f"{label}_")
        names.append("wait_" + (first if short in ids else short))
        left = [i for i in left if i not in level]
    return names


def _phase_table(spec: CouplingSpec, waits: Iterable[str]) -> tuple[tuple, int]:
    """The carrier's phases in order, and the drain phase's position.  A
    phase lists the transfers it promotes, ``(name, make, consumed,
    produced)``, then the rule that advances it, ``(name, make, *host)``."""
    T, CU, BMU = spec.macro_label, spec.coupling_label, spec.micro_label
    c, cl, cb, cn, cr = map(_bag, (spec.payload_symbol, *spec.cargo_symbols))
    lead_in = ((("depart", exo, CU),), (("enter_tissue", endo, T),))
    cycle = (
        (("drain", send_in, c, cl), ("drain_done", rewrite)),
        (("exit_tissue", exo, T),),
        (("enter_coupling", endo, CU),),
        (("enter_micro", endo, BMU),),
        (("deliver", send_out, cl, cb), ("deliver_done", rewrite)),
        *(((name, rewrite),) for name in waits),
        (("pickup_kept", send_in, cb, cr), ("pickup_new", send_in, cn, cr),
         ("pickup_done", rewrite)),
        (("exit_micro", exo, BMU),),
        (("exit_coupling", exo, CU),),
        (("reenter_tissue", endo, T),),
        (("deposit", send_out, cr, c), ("restart", rewrite)),
    )
    return lead_in + cycle, len(lead_in)


def generate_carrier_protocol(spec: CouplingSpec, micro: Iterable[Rule]) -> tuple[Rule, ...]:
    """The carrier protocol of the unit *spec* with micro rules *micro*: 17
    rules plus one wait rule per micro level, all anchored to the unit's
    four labels.  Micro rules that are not ``in`` rewrites of the micro
    label, or that feed each other in a cycle, raise ``ValueError``."""
    table, drain = _phase_table(spec, _wait_names(micro, spec.micro_label))
    V, last = spec.carrier_label, len(table) - 1
    rules: list[Rule] = []
    for index, (*transfers, (name, make, *host)) in enumerate(table):
        phase = _phase(index)
        rules += (send(spec.rule_id(transfer), V, consumed, produced, promoter=phase)
                  for transfer, send, consumed, produced in transfers)
        # Departure (out of the first phase) and restart (out of the last) pay a cycle token.
        paid = _bag(f"p{index}", spec.cycle_symbol) if index in (0, last) else phase
        following = _phase(index + 1 if index < last else drain)
        rules.append(make(spec.rule_id(name), V, *host, paid, following))
    return tuple(rules)


def couple(units: Iterable[tuple[CouplingSpec, Sequence[Rule], int, Mapping[str, int] | None]],
           cycles: int) -> Model:
    """One model of *units*, each ``(spec, micro rules, payload tokens, micro
    stock)``.  Each macro membrane holds its payload beside its coupling
    membrane, which holds the micro membrane with its stock and the carrier,
    parked in the first phase with *cycles* cycle tokens.  The rules are,
    unit by unit, the carrier protocol and then the micro rules."""
    skin: list[tuple] = []
    rules: list[Rule] = []
    for spec, micro, payload, stock in units:
        carrier = {**_phase(0), spec.cycle_symbol: cycles} if cycles else _phase(0)
        skin += [(spec.macro_label, {spec.payload_symbol: payload} if payload else None, ()),
                 (spec.coupling_label, None,
                  ((spec.micro_label, stock, ()), (spec.carrier_label, carrier, ())))]
        rules += generate_carrier_protocol(spec, micro) + tuple(micro)
    return Model(build_configuration(("skin", None, skin)), tuple(rules))


def carrier_cycle_length(micro: Iterable[Rule] = ()) -> int:
    """Engine steps of one steady-state macro-cycle (drain phase back to
    drain phase) of a unit with micro rules *micro*: 10 + their levels."""
    table, drain = _phase_table(CouplingSpec(), _wait_names(micro))
    return len(table) - drain


def cycle_end_step(k: int, micro: Iterable[Rule] = ()) -> int:
    """The step in which round trip *k* (from 1) of a unit with micro rules
    *micro* deposits: the carrier leaves the first phase in step 0 and moves
    one phase per step.  The step after the last round trip halts."""
    _require_int("k", k, 0)
    table, drain = _phase_table(CouplingSpec(), _wait_names(micro))
    return drain + k * (len(table) - drain) - 1
