"""Maximally parallel, seed-reproducible step semantics.

One step of a membrane system:

1. Enumerate every individually applicable rule instance: each binding of a
   rule to concrete membranes whose consumed multiset fits the relevant
   pre-step contents and whose promoter (if any) is present in the subject.
2. Select a *maximal* multiset of instances: the chosen instances are
   jointly applicable (their combined consumption fits every membrane's
   pre-step contents, and no membrane takes part in more than one endo/exo
   move, as subject or as host), and no further applicable instance can be
   added.  Selection shuffles the instance list with the seeded generator
   and then adds greedily, so a given seed always reproduces the same
   choice; the distribution over maximal multisets is *not* uniform.
3. Apply the effects: all consumptions are charged against the pre-step
   state, productions are added, and membrane moves are carried out with
   their targets resolved against the pre-step tree.  Membrane ids never
   change, no rule creates or destroys membranes.

The mover-lock in (2) is what makes (3) well defined: because a membrane is
in at most one structural role per step, the post-step parent assignment
can be shown to be cycle-free.

A run steps one flat, id-indexed state in place; immutable
:class:`Configuration` values are built only where the API hands one out.
If no instance is applicable the step reports ``halted`` and leaves the
state unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    MAX_COUNT,
    Configuration,
    Membrane,
    Multiset,
    Rule,
    RuleForm,
    RuleInstance,
    iter_membranes,
)
from .parser import Model
from .rng import RNG_ALGORITHM, SplitMix64

__all__ = [
    "EngineError",
    "InstanceBoundExceeded",
    "CountOverflow",
    "SelfCheckViolation",
    "EngineOptions",
    "StepResult",
    "AppliedRule",
    "TraceStep",
    "Trace",
    "enumerate_instances",
    "step",
    "run",
    "label_totals",
]


class EngineError(RuntimeError):
    pass


class InstanceBoundExceeded(EngineError):
    """More candidate applications than the configured safety bound."""


class CountOverflow(EngineError):
    """A step would raise an object count above ``MAX_COUNT``."""


class SelfCheckViolation(EngineError):
    """A post-step maximality or validity assertion failed (engine bug)."""


@dataclass(frozen=True)
class EngineOptions:
    seed: int = 0
    max_instances_per_step: int = 1_000_000
    self_check: bool = True

    def __post_init__(self) -> None:
        if self.max_instances_per_step < 1:
            raise ValueError("max_instances_per_step must be >= 1")


@dataclass(frozen=True)
class StepResult:
    """Outcome of one step. ``halted`` implies the configuration is the
    input object and ``applied`` is empty."""

    config: Configuration
    applied: tuple[tuple[RuleInstance, int], ...]
    halted: bool


@dataclass(frozen=True)
class AppliedRule:
    """One applied instance in a trace, with its multiplicity."""

    rule: str
    subject: int
    host: int | None
    count: int


@dataclass(frozen=True)
class TraceStep:
    index: int
    applied: tuple[AppliedRule, ...]
    halted: bool
    # Post-step object totals aggregated per membrane label.
    state: dict[str, dict[str, int]]


@dataclass(frozen=True)
class Trace:
    """Seeded, replayable record of a run."""

    seed: int
    rng: str
    steps: tuple[TraceStep, ...]
    final: Configuration

    @property
    def halted(self) -> bool:
        return bool(self.steps) and self.steps[-1].halted


# ---------------------------------------------------------------------------
# The flat state a run steps in place

class _State:
    """A membrane tree as id-indexed dicts; contents hold positive counts.

    Labels never change, so ``by_label`` (ids in increasing order) is built
    once and stays valid for the whole run.
    """

    def __init__(self, config: Configuration):
        self.skin = config.skin.id
        self.labels: dict[int, str] = {}
        self.parent: dict[int, int | None] = {self.skin: None}
        self.children: dict[int, list[int]] = {}
        self.contents: dict[int, dict[str, int]] = {}
        by_label: dict[str, list[int]] = {}
        for m in iter_membranes(config.skin):
            self.labels[m.id] = m.label
            self.children[m.id] = [c.id for c in m.children]
            self.contents[m.id] = dict(m.contents.items())
            for c in m.children:
                self.parent[c.id] = m.id
            by_label.setdefault(m.label, []).append(m.id)
        self.by_label = {label: sorted(ids) for label, ids in by_label.items()}

    def config(self) -> Configuration:
        def build(mid: int) -> Membrane:
            return Membrane(mid, self.labels[mid], Multiset(self.contents[mid]),
                            tuple(build(c) for c in self.children[mid]))

        return Configuration(build(self.skin))


def _fits(counts: dict[str, int], need: Multiset) -> bool:
    # Hot loops read the multiset's dict directly; Multiset.items() sorts.
    return all(counts.get(sym, 0) >= n for sym, n in need._counts.items())


# ---------------------------------------------------------------------------
# Instance enumeration

def _enumerate(state: _State, rules: Sequence[Rule]) -> list[RuleInstance]:
    """Applicable instances in rule order, then subject id, then host id."""
    labels, parent, contents = state.labels, state.parent, state.contents
    out: list[RuleInstance] = []
    for rule in rules:
        form, consumed = rule.form, rule.consumed
        for sid in state.by_label.get(rule.subject, ()):
            here = contents[sid]
            if rule.promoter is not None and not _fits(here, rule.promoter):
                continue
            pid = parent[sid]
            if form is RuleForm.REWRITE:
                if _fits(here, consumed):
                    out.append(RuleInstance(rule, sid, parent_id=pid))
            elif pid is None:
                continue
            elif form is RuleForm.ENDO:
                if _fits(here, consumed):
                    for hid in sorted(state.children[pid]):
                        if hid != sid and labels[hid] == rule.host:
                            out.append(RuleInstance(rule, sid, host_id=hid, parent_id=pid))
            elif form is RuleForm.EXO:
                # The subject leaves its parent and becomes the parent's
                # sibling; the root has no siblings, so exo out of the skin
                # is never applicable.
                if (labels[pid] == rule.host and parent[pid] is not None
                        and _fits(here, consumed)):
                    out.append(RuleInstance(rule, sid, host_id=pid, parent_id=pid))
            elif form is RuleForm.SEND_IN:
                if _fits(contents[pid], consumed):
                    out.append(RuleInstance(rule, sid, parent_id=pid))
            elif _fits(here, consumed):  # SEND_OUT
                out.append(RuleInstance(rule, sid, parent_id=pid))
    return out


def enumerate_instances(config: Configuration, rules: Sequence[Rule]) -> list[RuleInstance]:
    """Every individually applicable binding of the rules to the tree.

    Order is deterministic: rule order, then subject id, then host id.
    """
    return _enumerate(_State(config), rules)


# ---------------------------------------------------------------------------
# Maximal selection

class _Selection:
    """Mutable accounting while building a maximal instance multiset."""

    def __init__(self, state: _State, limit: int):
        self.residual = {mid: dict(counts) for mid, counts in state.contents.items()}
        self.locked: set[int] = set()
        self.total = 0
        self.limit = limit

    def addable(self, inst: RuleInstance) -> int:
        """How many more copies of *inst* fit right now."""
        if inst.rule.moves_membrane and not self.locked.isdisjoint(inst.structural_ids):
            return 0
        left = self.residual[inst.consumes_from]
        k = min(left.get(sym, 0) // n for sym, n in inst.rule.consumed._counts.items())
        return min(k, 1) if inst.rule.moves_membrane else k

    def take(self, inst: RuleInstance, k: int) -> None:
        self.total += k
        if self.total > self.limit:
            raise InstanceBoundExceeded(
                f"step would apply more than {self.limit} instances; runaway model?")
        left = self.residual[inst.consumes_from]
        for sym, n in inst.rule.consumed._counts.items():
            left[sym] -= k * n
        self.locked.update(inst.structural_ids)


def _select_maximal(state: _State, instances: list[RuleInstance], rng: SplitMix64,
                    options: EngineOptions) -> tuple[_Selection, list[int]]:
    """Multiplicity per instance of a maximal multiset, chosen greedily in
    seeded-shuffle order."""
    order = list(range(len(instances)))
    rng.shuffle(order)
    sel = _Selection(state, options.max_instances_per_step)
    counts = [0] * len(instances)
    # One pass is maximal: residuals only shrink and locks only grow, so an
    # instance that does not fit when visited never fits later.
    for i in order:
        k = sel.addable(instances[i])
        if k > 0:
            sel.take(instances[i], k)
            counts[i] = k
    return sel, counts


# ---------------------------------------------------------------------------
# Effect application and the self-check

def _apply(state: _State, applied: Sequence[tuple[RuleInstance, int]]) -> None:
    contents, parent, children = state.contents, state.parent, state.children
    moves: list[tuple[int, int]] = []
    for inst, k in applied:
        rule = inst.rule
        src = contents[inst.consumes_from]
        for sym, n in rule.consumed.items():
            left = src.get(sym, 0) - k * n
            if left < 0:
                raise EngineError(
                    f"internal underflow applying {rule.id!r}: joint check missed it")
            if left:
                src[sym] = left
            else:
                del src[sym]
        dst = contents[inst.produces_into]
        for sym, n in rule.produced.items():
            total = dst.get(sym, 0) + k * n
            if total > MAX_COUNT:
                raise CountOverflow(
                    f"rule {rule.id!r} would raise the count of {sym!r} above {MAX_COUNT}")
            dst[sym] = total
        if rule.moves_membrane:
            # EXO leaves the host for the host's parent; every target is read
            # before any move below changes a parent.
            target = inst.host_id if rule.form is RuleForm.ENDO else parent[inst.host_id]
            moves.append((inst.subject_id, target))

    for child, new_parent in moves:
        children[parent[child]].remove(child)
        children[new_parent].append(child)
        parent[child] = new_parent


def _structural_violations(state: _State) -> list[str]:
    """Every membrane must be reachable from the skin exactly once, and no
    stored count may be <= 0.  An empty list means the state is valid."""
    violations: list[str] = []
    seen: set[int] = set()
    stack = [state.skin]
    while stack:
        mid = stack.pop()
        if mid in seen:
            violations.append(f"shared-membrane: membrane id {mid} reachable twice")
            continue
        seen.add(mid)
        for sym, n in state.contents[mid].items():
            if n <= 0:
                violations.append(f"zero-count: membrane {mid} stores {sym}*{n}")
        stack.extend(state.children[mid])
    for mid in sorted(state.labels.keys() - seen):
        violations.append(f"detached: membrane {mid} is not reachable from the skin")
    return violations


def _check_step(state: _State, instances: list[RuleInstance], sel: _Selection) -> None:
    """The self-check: one maximality rescan and one structural check."""
    leftover = sum(1 for inst in instances if sel.addable(inst) > 0)
    if leftover:
        raise SelfCheckViolation(f"step is not maximal: {leftover} instances still addable")
    violations = _structural_violations(state)
    if violations:
        raise SelfCheckViolation(f"post-step configuration invalid: {violations}")


# ---------------------------------------------------------------------------
# The step relation and runs

def _step(state: _State, rules: Sequence[Rule], rng: SplitMix64,
          options: EngineOptions) -> tuple[tuple[RuleInstance, int], ...]:
    """Advance *state* by one step in place; returns the applied instances
    with their multiplicities, empty when the step halts."""
    instances = _enumerate(state, rules)
    if len(instances) > options.max_instances_per_step:
        raise InstanceBoundExceeded(
            f"{len(instances)} candidate instances exceed the bound "
            f"{options.max_instances_per_step}")
    if not instances:
        return ()
    sel, counts = _select_maximal(state, instances, rng, options)
    applied = tuple((inst, k) for inst, k in zip(instances, counts) if k)
    _apply(state, applied)
    if options.self_check:
        _check_step(state, instances, sel)
    return applied


def step(config: Configuration, rules: Sequence[Rule], rng: SplitMix64,
         options: EngineOptions = EngineOptions()) -> StepResult:
    """One maximally parallel step; halts when nothing is applicable."""
    state = _State(config)
    applied = _step(state, rules, rng, options)
    if not applied:
        return StepResult(config, (), True)
    return StepResult(state.config(), applied, False)


def _totals(state: _State) -> dict[str, dict[str, int]]:
    totals: dict[str, dict[str, int]] = {}
    for label, ids in state.by_label.items():
        agg: dict[str, int] = {}
        for mid in ids:
            for sym, n in state.contents[mid].items():
                agg[sym] = agg.get(sym, 0) + n
        # Sorted, so the order does not depend on which rules touched a count.
        totals[label] = dict(sorted(agg.items()))
    return totals


def label_totals(config: Configuration) -> dict[str, dict[str, int]]:
    """Object counts of the whole tree, aggregated per membrane label."""
    return _totals(_State(config))


def _summarize(applied: tuple[tuple[RuleInstance, int], ...]) -> tuple[AppliedRule, ...]:
    return tuple(AppliedRule(inst.rule.id, inst.subject_id, inst.host_id, k)
                 for inst, k in applied)


def run(model: Model, options: EngineOptions = EngineOptions(),
        max_steps: int = 10_000) -> Trace:
    """Run a model until it halts or *max_steps* steps were taken.

    The generator is seeded from ``options.seed`` and threaded through all
    steps, so equal inputs give equal traces.  The final, empty ``halted``
    step is recorded in the trace when the run reaches it.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    rng = SplitMix64(options.seed)
    state = _State(model.config)
    steps: list[TraceStep] = []
    for index in range(max_steps):
        applied = _step(state, model.rules, rng, options)
        steps.append(TraceStep(index, _summarize(applied), not applied, _totals(state)))
        if not applied:
            break
    return Trace(options.seed, RNG_ALGORITHM, tuple(steps), state.config())
