"""Maximally parallel, seed-reproducible step semantics.

One step of a membrane system:

1. Enumerate every individually applicable rule instance: each binding of a
   rule to concrete membranes whose consumed multiset fits the relevant
   pre-step contents and whose promoter is present in the subject.
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

What a step costs
-----------------
A rule set is compiled once into a rule table: rules grouped by subject
label, each with one *key symbol* that must be present for the rule to
apply.  A rule is keyed in the membrane it consumes from: a ``send-in``
rule on a symbol it consumes from the parent, every other rule on a
symbol the subject must hold (a consumed or promoter symbol).  The key is
the rarest such symbol: the one that the fewest of the label's rules
consume, then promote.  Enumeration rejects a rule with that one dict
lookup before it runs the full fit test.  In the carrier protocol the phase
tokens become the keys, so only the one to three rules of the current
phase pass the lookup.  The table of the last rule set is cached,
so the public per-step calls below reuse it rather than recompile.

A run steps one flat, id-indexed state in place; immutable
:class:`Configuration` values are built only where the API hands one out.
The state keeps running per-label object totals: effect application
updates them as it changes counts, and each step hands out its own copy of
the label totals.  Selection and the maximality rescan are each one loop
over the flat candidate tuples built at enumeration (subject, host,
source membrane, rule entry), with the residual counts and the locked
membranes in a plain dict and set; there is no selection object and no
call per candidate.  A candidate with a host is an endo/exo move, and its
subject and host are the membranes the mover-lock takes.  Selection
copies a membrane's counts only when an instance first consumes from it,
and its seeded shuffle mixes the generator's draws in blocks
(:meth:`SplitMix64.shuffle`).  The step compares rule forms against the
module constants of :mod:`mmsim.core`: on Python 3.11 a ``RuleForm.X``
read goes through the enum metaclass's ``__getattr__``, about 15 times
the cost of a global.

A run's :class:`AppliedRule` records are shared: each distinct (rule,
subject, host, multiplicity) gets one, so an entry of ``TraceStep.applied``
may be the same object as one of an earlier step.  The cache starts over
when a step begins with more than 4096 records in it, which keeps it under
1 MB.

If no instance is applicable the step reports ``halted`` and leaves the
state unchanged.  Otherwise it rescans its candidates for maximality; and as
only the endo/exo moves change the tree, only a step that moved a membrane
walks it (each membrane reached once from the skin, none past ``MAX_DEPTH``).

A run is a stream: :func:`iter_steps` yields each :class:`TraceStep` as it
is made, and :func:`run` collects the same stream into a :class:`Trace`.
A consumer that keeps only what it needs of each step runs in memory that
grows with the model, not with the number of steps.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Sequence

from .core import (
    _ENDO,
    _EXO,
    _REWRITE,
    _SEND_IN,
    _SEND_OUT,
    MAX_COUNT,
    MAX_DEPTH,
    MAX_INSTANCES,
    _require_int,
    _wrap,
    AppliedRule,
    Configuration,
    EngineOptions,
    Membrane,
    Model,
    Rule,
    RuleInstance,
    StepResult,
    Trace,
    TraceStep,
    iter_membranes,
)
from .rng import RNG_ALGORITHM, SplitMix64

__all__ = [
    "EngineError",
    "InstanceBoundExceeded",
    "CountOverflow",
    "DepthExceeded",
    "SelfCheckViolation",
    "enumerate_instances",
    "step",
    "iter_steps",
    "run",
    "label_totals",
]

class EngineError(RuntimeError):
    """A step could not be carried out.  ``step`` is the index of the
    failing step when a run raised it, else ``None``."""

    step: int | None = None


class InstanceBoundExceeded(EngineError):
    """More applicable instances in one step than ``MAX_INSTANCES``."""


class CountOverflow(EngineError):
    """An object count, or a label's total of one symbol, would exceed
    ``MAX_COUNT``."""


class DepthExceeded(EngineError):
    """An endo move nested a membrane deeper than ``MAX_DEPTH``."""


class SelfCheckViolation(EngineError):
    """A post-step maximality or validity assertion failed (engine bug)."""


# ---------------------------------------------------------------------------
# The rule table a run compiles once

class _Entry:
    """One rule as the enumerator and effect application read it, its
    multisets as their sorted ``(symbol, count)`` pairs."""

    __slots__ = ("index", "rule", "form", "host", "consumed", "produced", "promoter")

    def __init__(self, index: int, rule: Rule):
        self.index = index
        self.rule = rule
        self.form = rule.form
        self.host = rule.host
        self.consumed, self.produced, self.promoter = (
            ms.items() for ms in (rule.consumed, rule.produced, rule.promoter))


class _Table:
    """A rule set grouped by subject label.  Each group is
    ``(label, own, via_parent)``: lists of ``(key symbol, entry)`` pairs,
    keyed in the subject and, for the send-in rules, in its parent."""

    def __init__(self, rules: tuple[Rule, ...]):
        by_label: dict[str, list[_Entry]] = {}
        for index, rule in enumerate(rules):
            by_label.setdefault(rule.subject, []).append(_Entry(index, rule))
        self.groups: list[tuple[str, list[tuple[str, _Entry]], list[tuple[str, _Entry]]]] = []
        for label, entries in by_label.items():
            # Rarest first: a symbol that many of the label's rules consume
            # is a shared stock and likely present, a phase token is not.
            consumers = Counter(sym for e in entries for sym, _ in e.consumed)
            promoters = Counter(sym for e in entries for sym, _ in e.promoter)

            def rarity(sym: str) -> tuple[int, int, str]:
                return consumers[sym], promoters[sym], sym

            own: list[tuple[str, _Entry]] = []
            via_parent: list[tuple[str, _Entry]] = []
            for e in entries:
                # Keyed in the membrane the rule consumes from.
                symbols = [sym for sym, _ in e.consumed]
                if e.form is _SEND_IN:
                    via_parent.append((min(symbols, key=rarity), e))
                else:
                    symbols += [sym for sym, _ in e.promoter]
                    own.append((min(symbols, key=rarity), e))
            self.groups.append((label, own, via_parent))


# The public per-step calls take a plain rule sequence, which cannot carry
# its table, so the last table compiled is kept here with the rules it was
# compiled from.  Equal rule sets give equal tables, so whichever caller
# filled the slot, no result changes; two threads racing only compile twice.
_compiled: tuple[tuple[Rule, ...], _Table] | None = None


def _compile(rules: Sequence[Rule]) -> _Table:
    """The rule table of *rules*; the last one compiled is reused."""
    global _compiled
    key = tuple(rules)
    cached = _compiled
    if cached is None or cached[0] != key:
        cached = _compiled = (key, _Table(key))
    return cached[1]


# ---------------------------------------------------------------------------
# The flat state a run steps in place

class _State:
    """A membrane tree as id-indexed dicts; contents hold positive counts.

    Labels never change, so ``by_label`` (ids in increasing order) is built
    once and stays valid for the whole run.  ``totals`` holds the running
    object totals per label; each step hands out its own copy of them.
    """

    def __init__(self, config: Configuration):
        self.skin = config.skin.id
        self.labels: dict[int, str] = {}
        self.parent: dict[int, int | None] = {self.skin: None}
        self.children: dict[int, list[int]] = {}
        self.contents: dict[int, dict[str, int]] = {}
        self.totals: dict[str, dict[str, int]] = {}
        by_label: dict[str, list[int]] = {}
        for m in iter_membranes(config.skin):
            counts = m.contents._counts
            self.labels[m.id] = m.label
            self.children[m.id] = [c.id for c in m.children]
            self.contents[m.id] = dict(counts)
            for c in m.children:
                self.parent[c.id] = m.id
            by_label.setdefault(m.label, []).append(m.id)
            total = self.totals.setdefault(m.label, {})
            for sym, n in counts.items():
                n += total.get(sym, 0)
                if n > MAX_COUNT:
                    raise CountOverflow(
                        f"label {m.label!r} holds more than {MAX_COUNT} of {sym!r} in all")
                total[sym] = n
        self.by_label = {label: sorted(ids) for label, ids in by_label.items()}

    def config(self) -> Configuration:
        # Counts stay in [1, MAX_COUNT] by _apply's own checks: no re-check.
        def build(mid: int) -> Membrane:
            return Membrane(mid, self.labels[mid], _wrap(dict(self.contents[mid])),
                            tuple(build(c) for c in self.children[mid]))

        return Configuration(build(self.skin))


def _fits(counts: dict[str, int], need: tuple[tuple[str, int], ...]) -> bool:
    for sym, n in need:
        if counts.get(sym, 0) < n:
            return False
    return True


# ---------------------------------------------------------------------------
# Instance enumeration
#
# A candidate is a tuple
#     (rule index, subject id, host id, source id, entry)
# where the source is the membrane ``entry.consumed`` is charged to and the
# host is None unless the candidate is an endo/exo move.  Tuples sort by
# rule index, then subject id, then host id, and no two candidates share
# those three.

def _enumerate(state: _State, table: _Table) -> list[tuple]:
    """Applicable candidates in rule order, then subject id, then host id."""
    labels, parent, contents = state.labels, state.parent, state.contents
    out: list[tuple] = []
    for label, own, via_parent in table.groups:
        for sid in state.by_label.get(label, ()):
            here = contents[sid]
            pid = parent[sid]
            for key, e in own:  # every rule that consumes from the subject
                if key not in here or not _fits(here, e.promoter) or not _fits(here, e.consumed):
                    continue
                form = e.form
                if form is _REWRITE:
                    out.append((e.index, sid, None, sid, e))
                elif pid is None:
                    continue
                elif form is _ENDO:
                    for hid in state.children[pid]:
                        if hid != sid and labels[hid] == e.host:
                            out.append((e.index, sid, hid, sid, e))
                elif form is _EXO:
                    # The subject leaves its parent and becomes the parent's
                    # sibling; the root has no siblings, so exo out of the
                    # skin is never applicable.
                    if labels[pid] == e.host and parent[pid] is not None:
                        out.append((e.index, sid, pid, sid, e))
                else:  # SEND_OUT
                    out.append((e.index, sid, None, sid, e))
            if via_parent and pid is not None:
                there = contents[pid]
                for key, e in via_parent:  # send-in rules
                    if key in there and _fits(here, e.promoter) and _fits(there, e.consumed):
                        out.append((e.index, sid, None, pid, e))
    out.sort()
    return out


def _instance(cand: tuple) -> RuleInstance:
    _, sid, hid, _, e = cand
    return RuleInstance(e.rule, sid, host_id=hid)


def enumerate_instances(config: Configuration, rules: Sequence[Rule]) -> list[RuleInstance]:
    """Every individually applicable binding of the rules to the tree.

    Order is deterministic: rule order, then subject id, then host id.
    """
    return [_instance(c) for c in _enumerate(_State(config), _compile(rules))]


# ---------------------------------------------------------------------------
# Maximal selection

def _select_maximal(state: _State, candidates: list[tuple], rng: SplitMix64
                    ) -> tuple[dict[int, dict[str, int]], set[int], list[int]]:
    """A maximal multiset chosen greedily in seeded-shuffle order.

    Returns ``(residual, locked, counts)``: ``residual`` holds a copy of
    the counts of every membrane consumed from, ``locked`` the membranes of
    the chosen moves, and ``counts`` the multiplicity of each candidate.
    A source's counts are copied at the first visit to one of its
    candidates past the lock test; that visit always consumes, since every
    candidate fits the pre-step counts of its source.  The rescan reads the
    pre-step contents of every other membrane, so the state must not
    change before it.
    """
    order = list(range(len(candidates)))
    rng.shuffle(order)
    contents = state.contents
    residual: dict[int, dict[str, int]] = {}
    locked: set[int] = set()
    counts = [0] * len(candidates)
    # One pass is maximal: residuals only shrink and locks only grow, so an
    # instance that does not fit when visited never fits later.
    for i in order:
        _, sid, hid, source, e = candidates[i]
        if hid is not None and (sid in locked or hid in locked):
            continue
        left = residual.get(source)
        if left is None:
            left = residual[source] = dict(contents[source])
        k = 0
        for sym, n in e.consumed:
            q = left.get(sym, 0) // n
            if not q:
                k = 0
                break
            if not k or q < k:
                k = q
        if not k:
            continue
        if hid is not None:
            k = 1
            locked.update((sid, hid))
        for sym, n in e.consumed:
            left[sym] -= k * n
        counts[i] = k
    return residual, locked, counts


# ---------------------------------------------------------------------------
# Effect application and the step's checks

def _apply(state: _State, applied: Sequence[tuple[tuple, int]]) -> bool:
    """Apply *applied* in place; returns whether a membrane moved."""
    contents, parent, children = state.contents, state.parent, state.children
    labels, totals = state.labels, state.totals
    # Every consumption is charged before any production, so totals only
    # grow in the second loop and its overflow check sees no transient peak.
    for (_, _, _, source, e), k in applied:
        src = contents[source]
        total = totals[labels[source]]
        for sym, n in e.consumed:
            kn = k * n
            left = src.get(sym, 0) - kn
            if left < 0:
                raise SelfCheckViolation(
                    f"internal underflow applying {e.rule.id!r}: joint check missed it")
            if left:
                src[sym] = left
            else:
                del src[sym]
            left = total[sym] - kn
            if left:
                total[sym] = left
            else:
                del total[sym]
    moves: list[tuple[int, int]] = []
    for (_, sid, hid, _, e), k in applied:
        if e.produced:
            sink = parent[sid] if e.form is _SEND_OUT else sid
            dst = contents[sink]
            label = labels[sink]
            total = totals[label]
            for sym, n in e.produced:
                kn = k * n
                # A membrane's count never exceeds its label's total, so
                # bounding the total bounds both.
                count = total.get(sym, 0) + kn
                if count > MAX_COUNT:
                    raise CountOverflow(
                        f"rule {e.rule.id!r} would raise the total of {sym!r} in "
                        f"label {label!r} above {MAX_COUNT}")
                total[sym] = count
                dst[sym] = dst.get(sym, 0) + kn
        if hid is not None:
            # EXO leaves the host for the host's parent.  Targets, like
            # send-out sinks, are read before any move below changes a parent.
            moves.append((sid, hid if e.form is _ENDO else parent[hid]))

    for child, new_parent in moves:
        children[parent[child]].remove(child)
        children[new_parent].append(child)
        parent[child] = new_parent
    return bool(moves)


def _structural_violations(state: _State) -> list[str]:
    """Every membrane must be reachable from the skin exactly once.  An
    empty list means the state is valid.  The walk goes down level by level
    and raises :class:`DepthExceeded` on a membrane deeper than
    ``MAX_DEPTH``, which only an endo move can nest."""
    violations: list[str] = []
    seen: set[int] = set()
    level = [state.skin]
    depth = 1
    while level:
        if depth > MAX_DEPTH:
            raise DepthExceeded(
                f"an endo move nests membrane {min(level)} deeper than {MAX_DEPTH} levels")
        below: list[int] = []
        for mid in level:
            if mid in seen:
                violations.append(f"shared-membrane: membrane id {mid} reachable twice")
                continue
            seen.add(mid)
            below.extend(state.children[mid])
        level = below
        depth += 1
    for mid in sorted(state.labels.keys() - seen):
        violations.append(f"detached: membrane {mid} is not reachable from the skin")
    return violations


def _check_maximal(candidates: list[tuple], contents: dict[int, dict[str, int]],
                   residual: dict[int, dict[str, int]], locked: set[int]) -> None:
    """The maximality rescan of every candidate against what selection
    left; runs before the effects are applied, while *contents* still holds
    the pre-step counts."""
    leftover = 0
    for _, sid, hid, source, e in candidates:
        if hid is not None and (sid in locked or hid in locked):
            continue
        left = residual.get(source)
        if left is None:
            left = contents[source]
        for sym, n in e.consumed:
            if left.get(sym, 0) < n:
                break
        else:
            leftover += 1
    if leftover:
        raise SelfCheckViolation(f"step is not maximal: {leftover} instances still addable")


# ---------------------------------------------------------------------------
# The step relation and runs

def _step(state: _State, table: _Table, rng: SplitMix64) -> list[tuple[tuple, int]]:
    """Advance *state* by one step in place; returns the applied candidates
    with their multiplicities, empty when the step halts.  Maximality is
    checked in every step that applies anything, the tree only after a move."""
    candidates = _enumerate(state, table)
    if len(candidates) > MAX_INSTANCES:
        raise InstanceBoundExceeded(
            f"{len(candidates)} candidate instances exceed the bound {MAX_INSTANCES}")
    if not candidates:
        return []
    residual, locked, counts = _select_maximal(state, candidates, rng)
    _check_maximal(candidates, state.contents, residual, locked)
    applied = [(cand, k) for cand, k in zip(candidates, counts) if k]
    if _apply(state, applied):
        violations = _structural_violations(state)
        if violations:
            raise SelfCheckViolation(f"post-step configuration invalid: {violations}")
    return applied


def step(config: Configuration, rules: Sequence[Rule], rng: SplitMix64,
         options: EngineOptions = EngineOptions()) -> StepResult:
    """One maximally parallel step; halts when nothing is applicable.
    It draws from *rng* and reads nothing from *options*."""
    state = _State(config)
    applied = _step(state, _compile(rules), rng)
    if not applied:
        return StepResult(config, (), True)
    return StepResult(state.config(), tuple((_instance(c), k) for c, k in applied), False)


def _totals(state: _State) -> dict[str, dict[str, int]]:
    """A fresh copy of the running per-label totals."""
    return {label: dict(total) for label, total in state.totals.items()}


def label_totals(config: Configuration) -> dict[str, dict[str, int]]:
    """Object counts of the whole tree, aggregated per membrane label."""
    return _totals(_State(config))


# A run shares one AppliedRule per (rule index, subject, host, count) from
# a cache that starts over once a step begins with more than this many, so
# a run's memory still does not grow with its steps.
_SHARED_RECORDS = 4096


def _steps(state: _State, rules: tuple[Rule, ...], options: EngineOptions,
           max_steps: int) -> Iterator[TraceStep]:
    """The run's step loop: steps *state* in place and yields each step."""
    table = _compile(rules)
    rng = SplitMix64(options.seed)
    shared: dict[tuple, AppliedRule] = {}
    for index in range(max_steps):
        try:
            applied = _step(state, table, rng)
        except EngineError as exc:
            exc.step = index
            raise
        if len(shared) > _SHARED_RECORDS:
            shared.clear()
        summary = []
        for (i, sid, hid, _, e), k in applied:
            key = i, sid, hid, k
            record = shared.get(key)
            if record is None:
                record = shared[key] = AppliedRule(e.rule.id, sid, hid, k)
            summary.append(record)
        yield TraceStep(index, tuple(summary), not applied, _totals(state))
        if not applied:
            return


def _start(model: Model, options: EngineOptions, max_steps: int) -> _State:
    if not isinstance(options, EngineOptions):
        raise ValueError(f"options must be an EngineOptions, got {options!r}")
    _require_int("max_steps", max_steps, 0)
    return _State(model.config)


def iter_steps(model: Model, options: EngineOptions = EngineOptions(),
               max_steps: int = 10_000) -> Iterator[TraceStep]:
    """The steps of :func:`run`, each yielded as soon as it is made.

    Bad arguments and a model whose label totals already exceed
    ``MAX_COUNT`` raise here, before the first step; an
    :class:`EngineError` raised by a step carries that step's index and
    ends the stream.
    """
    return _steps(_start(model, options, max_steps), model.rules, options, max_steps)


def run(model: Model, options: EngineOptions = EngineOptions(),
        max_steps: int = 10_000) -> Trace:
    """Run a model until it halts or *max_steps* steps were taken.

    The generator is seeded from ``options.seed`` and threaded through all
    steps, so equal inputs give equal traces.  The final, empty ``halted``
    step is recorded in the trace when the run reaches it.  An
    :class:`EngineError` raised by a step carries that step's index.
    """
    state = _start(model, options, max_steps)
    steps = tuple(_steps(state, model.rules, options, max_steps))
    return Trace(options.seed, RNG_ALGORITHM, steps, state.config())
