"""Exhaustive successor enumeration for small systems.

This is the engine's independent check: it recomputes, from scratch and by
plain search, the set of *all* configurations reachable in one maximally
parallel step, and reports them in a canonical form with membrane ids
erased.  It deliberately shares no selection or application code with
``mmsim.engine``; both sides only read the same value types.

The search walks the instance list once, branching on the multiplicity of
each instance given the resources the branch has left.  A branch that
leaves slack no later instance could ever consume is pruned to the full
multiplicity, which keeps independent instances from exploding the tree.
Inputs with more applicable instances than ``bound`` are rejected.
"""

from __future__ import annotations

from .core import Configuration, Rule, RuleForm, iter_membranes

__all__ = ["OracleBoundExceeded", "canonical_form", "oracle_successors"]

Canon = tuple  # (label, ((sym, count), ...), (child canon, ...))

# The forms as module constants, in definition order: on Python 3.11 each
# ``RuleForm.X`` read goes through the enum metaclass's ``__getattr__``.
_REWRITE, _ENDO, _EXO, _SEND_IN, _SEND_OUT = RuleForm


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
    """A flat, dict-based snapshot of a configuration."""

    def __init__(self, config: Configuration):
        self.labels: dict[int, str] = {}
        self.contents: dict[int, dict[str, int]] = {}
        self.children: dict[int, list[int]] = {}
        self.root = config.skin.id
        self.parent: dict[int, int | None] = {self.root: None}
        for m in iter_membranes(config.skin):
            self.labels[m.id] = m.label
            self.contents[m.id] = dict(m.contents.items())
            self.children[m.id] = [c.id for c in m.children]
            for c in m.children:
                self.parent[c.id] = m.id


class _Binding:
    """One applicable (rule, membranes) binding, with flat consumption data."""

    def __init__(self, rule: Rule, subject: int, host: int | None, source: int, sink: int):
        self.rule = rule
        self.subject = subject
        self.host = host
        self.source = source  # membrane the consumption is charged to
        self.sink = sink      # membrane the production lands in
        self.needs = dict(rule.consumed.items())
        self.moves = rule.form in (_ENDO, _EXO)
        self.locks = frozenset((subject, host)) if self.moves else frozenset()


def _bindings(net: _Net, rules) -> list[_Binding]:
    out: list[_Binding] = []
    for rule in rules:
        for mid, label in net.labels.items():
            if label != rule.subject:
                continue
            contents = net.contents[mid]
            if rule.promoter is not None and any(
                    contents.get(s, 0) < n for s, n in rule.promoter.items()):
                continue
            parent = net.parent[mid]
            form = rule.form
            fits_self = all(contents.get(s, 0) >= n for s, n in rule.consumed.items())
            if form is _REWRITE and fits_self:
                out.append(_Binding(rule, mid, None, mid, mid))
            elif form is _ENDO and parent is not None and fits_self:
                for sib in net.children[parent]:
                    if sib != mid and net.labels[sib] == rule.host:
                        out.append(_Binding(rule, mid, sib, mid, mid))
            elif form is _EXO and parent is not None and fits_self:
                if net.labels[parent] == rule.host and net.parent[parent] is not None:
                    out.append(_Binding(rule, mid, parent, mid, mid))
            elif form is _SEND_IN and parent is not None:
                if all(net.contents[parent].get(s, 0) >= n for s, n in rule.consumed.items()):
                    out.append(_Binding(rule, mid, None, parent, mid))
            elif form is _SEND_OUT and parent is not None and fits_self:
                out.append(_Binding(rule, mid, None, mid, parent))
    return out


def _max_copies(b: _Binding, residual, locked) -> int:
    if b.moves:
        if not locked.isdisjoint(b.locks):
            return 0
        fits = all(residual[b.source].get(s, 0) >= n for s, n in b.needs.items())
        return 1 if fits else 0
    return min(residual[b.source].get(s, 0) // n for s, n in b.needs.items())


def _successor(net: _Net, counts: list[int], bindings: list[_Binding]) -> Canon:
    contents = {mid: dict(c) for mid, c in net.contents.items()}
    children = {mid: list(c) for mid, c in net.children.items()}
    parent = dict(net.parent)
    for b, k in zip(bindings, counts):
        if k == 0:
            continue
        src = contents[b.source]
        for s, n in b.needs.items():
            src[s] -= k * n
        dst = contents[b.sink]
        for s, n in b.rule.produced.items():
            dst[s] = dst.get(s, 0) + k * n
    # Moves second, targets resolved against the pre-step tree (net.parent).
    for b, k in zip(bindings, counts):
        if k == 0 or not b.moves:
            continue
        target = b.host if b.rule.form is _ENDO else net.parent[b.host]
        children[parent[b.subject]].remove(b.subject)
        children[target].append(b.subject)
        parent[b.subject] = target
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
    if not bindings:
        return {_canon(net.labels, net.contents, net.children, net.root)}

    # For each binding, whether any later binding competes for the same
    # resources or locks; if none does, only full multiplicity can be maximal.
    contested = []
    for i, b in enumerate(bindings):
        clash = False
        for later in bindings[i + 1:]:
            if b.locks & later.locks:
                clash = True
                break
            if later.source == b.source and set(later.needs) & set(b.needs):
                clash = True
                break
        contested.append(clash)

    successors: set[Canon] = set()
    counts = [0] * len(bindings)
    residual = {mid: dict(c) for mid, c in net.contents.items()}
    locked: set[int] = set()

    def search(i: int) -> None:
        if i == len(bindings):
            if all(_max_copies(b, residual, locked) == 0 for b in bindings):
                successors.add(_successor(net, counts, bindings))
            return
        b = bindings[i]
        top = _max_copies(b, residual, locked)
        lowest = top if (top and not contested[i]) else 0
        for k in range(top, lowest - 1, -1):
            counts[i] = k
            for s, n in b.needs.items():
                residual[b.source][s] -= k * n
            if k and b.moves:
                locked.update(b.locks)
            search(i + 1)
            if k and b.moves:
                locked.difference_update(b.locks)
            for s, n in b.needs.items():
                residual[b.source][s] += k * n
        counts[i] = 0

    search(0)
    return successors
