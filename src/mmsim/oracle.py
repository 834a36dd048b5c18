"""Exhaustive successor enumeration for small systems.

This is the engine's independent check: it recomputes, from scratch and by
plain search, the set of *all* configurations reachable in one maximally
parallel step, and reports them in a canonical form with membrane ids
erased.  It deliberately shares no selection or application code with
``mmsim.engine``; both sides only read the same value types.

Bindings are found through an index of membrane ids by label.  The search
walks them once, branching on each one's multiplicity given what the branch
has left.  One backward pass first marks each binding that a later one
contends with, for a lock membrane or a (source, symbol) pair; an
uncontested binding is only tried at full multiplicity, which keeps
independent bindings from exploding the tree.  Inputs with more applicable
bindings than ``bound`` are rejected.
"""

from __future__ import annotations

from .core import _ENDO, _EXO, _REWRITE, _SEND_IN, _SEND_OUT, Configuration, Rule, iter_membranes

__all__ = ["OracleBoundExceeded", "canonical_form", "oracle_successors"]

Canon = tuple  # (label, ((sym, count), ...), (child canon, ...))


class OracleBoundExceeded(ValueError):
    pass


def canonical_form(config: Configuration) -> Canon:
    """Nested-tuple form of a configuration: labels, contents and shape,
    ids erased, children sorted."""
    net = _Net(config)
    return _canon(net.labels, net.contents, net.children, net.root)


def _canon(labels: dict[int, str], contents: dict[int, dict[str, int]],
           children: dict[int, list[int]], mid: int) -> Canon:
    """The canonical form of the flat subtree at *mid*; zero counts are
    dropped."""
    items = tuple(sorted((s, n) for s, n in contents[mid].items() if n))
    kids = tuple(sorted(_canon(labels, contents, children, c) for c in children[mid]))
    return (labels[mid], items, kids)


class _Net:
    """A flat, dict-based snapshot of a configuration, ids indexed by label."""

    def __init__(self, config: Configuration):
        self.labels: dict[int, str] = {}
        self.by_label: dict[str, list[int]] = {}
        self.contents: dict[int, dict[str, int]] = {}
        self.children: dict[int, list[int]] = {}
        self.root = config.skin.id
        self.parent: dict[int, int | None] = {self.root: None}
        for m in iter_membranes(config.skin):
            self.labels[m.id] = m.label
            self.by_label.setdefault(m.label, []).append(m.id)
            self.contents[m.id] = dict(m.contents.items())
            self.children[m.id] = [c.id for c in m.children]
            for c in m.children:
                self.parent[c.id] = m.id


class _Binding:
    """One applicable (rule, membranes) binding, with flat consumption data.
    A binding with a host moves its subject and locks both membranes."""

    def __init__(self, rule: Rule, subject: int, host: int | None, source: int, sink: int):
        self.rule = rule
        self.subject = subject
        self.host = host
        self.source = source  # membrane the consumption is charged to
        self.sink = sink      # membrane the production lands in
        self.needs = rule.consumed.items()  # (symbol, count) pairs to charge
        self.moves = host is not None
        self.locks = frozenset((subject, host)) if self.moves else frozenset()


def _holds(contents: dict[str, int], multiset) -> bool:
    return all(contents.get(s, 0) >= n for s, n in multiset.items())


def _bindings(net: _Net, rules) -> list[_Binding]:
    out: list[_Binding] = []
    for rule in rules:
        form = rule.form
        for mid in net.by_label.get(rule.subject, ()):
            parent = net.parent[mid]
            if parent is None and form is not _REWRITE:
                continue
            source = parent if form is _SEND_IN else mid
            if not (_holds(net.contents[source], rule.consumed)
                    and _holds(net.contents[mid], rule.promoter)):
                continue
            if form is _ENDO:
                hosts = [s for s in net.children[parent]
                         if s != mid and net.labels[s] == rule.host]
            elif form is _EXO:
                exits = net.labels[parent] == rule.host and net.parent[parent] is not None
                hosts = [parent] if exits else []
            else:
                hosts = [None]
            sink = parent if form is _SEND_OUT else mid
            out.extend(_Binding(rule, mid, host, source, sink) for host in hosts)
    return out


def _max_copies(b: _Binding, residual, locked) -> int:
    if not locked.isdisjoint(b.locks):
        return 0
    k = min(residual[b.source].get(s, 0) // n for s, n in b.needs)
    return min(k, 1) if b.moves else k


def _successor(net: _Net, counts: list[int], bindings: list[_Binding]) -> Canon:
    contents = {mid: dict(c) for mid, c in net.contents.items()}
    children = {mid: list(c) for mid, c in net.children.items()}
    for b, k in zip(bindings, counts):
        for s, n in b.needs:
            contents[b.source][s] -= k * n
        for s, n in b.rule.produced.items():
            contents[b.sink][s] = contents[b.sink].get(s, 0) + k * n
        # Moves resolve against the pre-step tree: the mover-lock moves each
        # subject at most once and never moves a host.
        if k and b.moves:
            target = b.host if b.rule.form is _ENDO else net.parent[b.host]
            children[net.parent[b.subject]].remove(b.subject)
            children[target].append(b.subject)
    return _canon(net.labels, contents, children, net.root)


def oracle_successors(config: Configuration, rules, bound: int = 64) -> set[Canon]:
    """All one-step successors under maximal parallelism, in canonical form.

    Raises :class:`OracleBoundExceeded` when more than *bound* instances
    are individually applicable.
    """
    net = _Net(config)
    bindings = _bindings(net, rules)
    if len(bindings) > bound:
        raise OracleBoundExceeded(
            f"{len(bindings)} applicable instances exceed the oracle bound {bound}")

    # Whether any later binding contends for a lock membrane or a (source,
    # symbol) pair; if none does, only full multiplicity can be maximal.
    contested = [False] * len(bindings)
    claimed: set = set()
    for i in reversed(range(len(bindings))):
        b = bindings[i]
        claims = b.locks | {(b.source, s) for s, _ in b.needs}
        contested[i] = not claimed.isdisjoint(claims)
        claimed |= claims

    successors: set[Canon] = set()
    counts = [0] * len(bindings)
    residual = {mid: dict(c) for mid, c in net.contents.items()}
    locked: set[int] = set()

    def search(i: int) -> None:
        if i == len(bindings):
            if not any(_max_copies(b, residual, locked) for b in bindings):
                successors.add(_successor(net, counts, bindings))
            return
        b = bindings[i]
        top = _max_copies(b, residual, locked)
        for k in range(top, (0 if contested[i] else top) - 1, -1):
            counts[i] = k
            for s, n in b.needs:
                residual[b.source][s] -= k * n
            if k:
                locked.update(b.locks)
            search(i + 1)
            if k:
                locked.difference_update(b.locks)
            for s, n in b.needs:
                residual[b.source][s] += k * n
        counts[i] = 0

    search(0)
    return successors
