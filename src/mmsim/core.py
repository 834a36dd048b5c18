"""The value types of mobile membrane systems: every one the package
shares, the run records included.

A system state (:class:`Configuration`) is a finite tree of labelled
membranes, each holding a :class:`Multiset` of symbol tokens.  Dynamics are
expressed by :class:`Rule` values of five forms:

* ``in`` (rewrite)  - replace objects inside a membrane with a given label
* ``endo``          - a membrane consumes trigger objects and moves inside a
                      sibling membrane, carrying its whole subtree
* ``exo``           - a membrane consumes trigger objects and moves out of
                      its parent, becoming the parent's sibling
* ``send-in``       - objects cross the wall from a parent into a child
* ``send-out``      - objects cross the wall from a child into its parent

A rule may carry a promoter multiset: the rule applies only where the
promoter is present in the subject membrane, but the promoter is never
consumed.  A rule without one has the promoter ``EMPTY``.

A :class:`Model` is a configuration with its rules.  A run takes
:class:`EngineOptions` and records each step as a :class:`TraceStep` of
:class:`AppliedRule` values, all of them in a :class:`Trace`; one step
alone gives a :class:`StepResult`.  All types here are immutable records
(a trace step's ``state`` is a plain dict, the step's own copy), so
configurations and rules can be shared freely between threads.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping
from enum import Enum
from operator import attrgetter

__all__ = [
    "MAX_COUNT",
    "MAX_DEPTH",
    "MAX_INSTANCES",
    "KEYWORDS",
    "is_symbol",
    "check_symbol",
    "Multiset",
    "EMPTY",
    "as_multiset",
    "RuleForm",
    "Rule",
    "rewrite",
    "endo",
    "exo",
    "send_in",
    "send_out",
    "RuleInstance",
    "Membrane",
    "InvalidConfigurationError",
    "Configuration",
    "iter_membranes",
    "validate",
    "structural_violations",
    "build_configuration",
    "render_tree",
    "Model",
    "EngineOptions",
    "StepResult",
    "AppliedRule",
    "TraceStep",
    "Trace",
]

# Counts are kept inside the signed 64-bit range so serialized traces stay
# exact in every JSON reader; exceeding it raises instead of wrapping.
MAX_COUNT = (1 << 63) - 1

# Membranes nest at most this many levels, the skin being level 1.  Model
# text, Configuration and the engine's moves keep to it, so the recursive
# tree code (record equality, hash and repr among it) fits Python's stack.
MAX_DEPTH = 128

# A step may have at most this many applicable instances (distinct bindings).
MAX_INSTANCES = 1_000_000

# Symbols and membrane labels: optional leading underscores, then a letter,
# then letters/digits/underscores.  A leading underscore marks the reserved
# namespace used for machine-generated symbols (see mmsim.coupling).  The
# parser's lexer matches identifiers with the same pattern.
_SYMBOL_PATTERN = r"_*[A-Za-z][A-Za-z0-9_]*"
_SYMBOL_RE = re.compile(rf"\A{_SYMBOL_PATTERN}\Z")

# The words of the model grammar.  No symbol, label or rule id may be one,
# so that every serialized model parses back.
KEYWORDS = frozenset({"rule", "in", "endo", "into", "exo", "from", "if"})


def is_symbol(name: object) -> bool:
    """True if *name* is a well-formed symbol or label token and no keyword."""
    return (isinstance(name, str) and _SYMBOL_RE.match(name) is not None
            and name not in KEYWORDS)


def check_symbol(name: object) -> None:
    if not is_symbol(name):
        raise ValueError(f"invalid symbol {name!r}")


def _require_int(name: str, value: object, least: int | None = None,
                 most: int | None = None) -> None:
    """Raise ``ValueError`` unless *value* is an int, not a bool, at least
    *least* and, given *most* (which needs *least*), at most *most*."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if most is not None and not least <= value <= most:
        raise ValueError(f"{name} must be within [{least}, {most}]")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")


class Multiset(Mapping):
    """An immutable finite multiset of symbols.

    Lookup of an absent symbol returns 0 (like ``collections.Counter``).
    :meth:`items` is the ``(symbol, count)`` pairs in symbol order, sorted
    once; iteration, hashing and rendering read it.  Counts are >= 1.
    """

    __slots__ = ("_counts", "_items")

    def __init__(self, entries: Mapping[str, int] | Iterable[tuple[str, int]] | None = None):
        counts: dict[str, int] = {}
        if entries is not None:
            items = entries.items() if isinstance(entries, Mapping) else entries
            for sym, n in items:
                check_symbol(sym)
                name = f"count for {sym!r}"
                _require_int(name, n, 1)
                counts[sym] = counts.get(sym, 0) + n
                _require_int(name, counts[sym], 1, MAX_COUNT)
        self._counts = counts
        self._items: tuple[tuple[str, int], ...] | None = None

    def __getitem__(self, sym: str) -> int:
        return self._counts.get(sym, 0)

    def items(self) -> tuple[tuple[str, int], ...]:
        if self._items is None:
            counts = self._counts
            self._items = tuple(sorted(counts.items()))
        return self._items

    def __iter__(self) -> Iterator[str]:
        return (sym for sym, _ in self.items())

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, sym: object) -> bool:
        return sym in self._counts

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Multiset):
            return self._counts == other._counts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.items())

    def __str__(self) -> str:
        return ", ".join(s if n == 1 else f"{s}*{n}" for s, n in self.items())

    def __repr__(self) -> str:
        return f"Multiset({{{', '.join(f'{s!r}: {n}' for s, n in self.items())}}})"


def _wrap(counts: dict[str, int]) -> Multiset:
    # Internal constructor for already-validated count dicts.
    ms = Multiset.__new__(Multiset)
    ms._counts = counts
    ms._items = None
    return ms


EMPTY = Multiset()


def as_multiset(value: Multiset | Mapping[str, int] | Iterable[tuple[str, int]] | None) -> Multiset:
    """Coerce dict-like values (or None) to a Multiset."""
    if value is None:
        return EMPTY
    if isinstance(value, Multiset):
        return value
    return Multiset(value)


class RuleForm(Enum):
    REWRITE = "in"
    ENDO = "endo"
    EXO = "exo"
    SEND_IN = "send-in"
    SEND_OUT = "send-out"


# The forms as module constants, in definition order: on Python 3.11 each
# ``RuleForm.X`` read goes through the enum metaclass's ``__getattr__`` and
# costs about 15 global reads.
_REWRITE, _ENDO, _EXO, _SEND_IN, _SEND_OUT = RuleForm
_MOVE_FORMS = (_ENDO, _EXO)

# Sets a field of a record: records refuse ``setattr`` once built.  Each
# field gets its own call; a fill that loops over the slots is about twice
# as slow per record, and the step paths build records on every step.
_set = object.__setattr__


class _Record:
    """Base of the immutable record types.

    A subclass names its fields, in constructor order, in ``__slots__``
    and stores them with ``object.__setattr__`` in its own ``__init__``.
    A record equals only a record of the same class with equal fields,
    hashes its fields, prints as ``Name(field=value, ...)``, copies and
    pickles by calling its class on its fields, and refuses assignment and
    deletion.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        get = attrgetter(*cls.__slots__)
        # The field values as a tuple; attrgetter of one name returns the
        # bare value.
        cls._values = staticmethod(get if len(cls.__slots__) > 1
                                   else lambda record: (get(record),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Rule(_Record):
    """One rewriting or movement rule, anchored to membrane labels.

    ``subject`` is the label the rule binds to: the rewritten membrane for
    ``in``, the moving membrane for ``endo``/``exo``, and the child whose
    wall is crossed for ``send-in``/``send-out``.  ``host`` names the
    movement target (endo) or the membrane being exited (exo) and must be
    absent for the other forms.  ``consumed`` must be non-empty: there are
    no spontaneous rules.  ``promoter`` is ``EMPTY`` when the rule has
    none; ``None`` is taken for it.
    """

    __slots__ = ("id", "form", "subject", "consumed", "produced", "host", "promoter")

    def __init__(self, id: str, form: RuleForm, subject: str, consumed: Multiset,
                 produced: Multiset, host: str | None = None,
                 promoter: Multiset | None = EMPTY) -> None:
        check_symbol(id)
        if not isinstance(form, RuleForm):
            raise ValueError(f"rule {id!r}: form must be a RuleForm, got {form!r}")
        check_symbol(subject)
        consumed = as_multiset(consumed)
        produced = as_multiset(produced)
        if not consumed:
            raise ValueError(f"rule {id!r}: consumed multiset must be non-empty")
        if form in _MOVE_FORMS:
            if host is None:
                raise ValueError(f"rule {id!r}: {form.value} requires a host label")
            check_symbol(host)
        elif host is not None:
            raise ValueError(f"rule {id!r}: {form.value} does not take a host label")
        promoter = as_multiset(promoter)
        _set(self, "id", id)
        _set(self, "form", form)
        _set(self, "subject", subject)
        _set(self, "consumed", consumed)
        _set(self, "produced", produced)
        _set(self, "host", host)
        _set(self, "promoter", promoter)

    @property
    def moves_membrane(self) -> bool:
        return self.form in _MOVE_FORMS


def rewrite(rule_id: str, subject: str, consumed, produced, promoter=None) -> Rule:
    return Rule(rule_id, RuleForm.REWRITE, subject, consumed, produced, promoter=promoter)


def endo(rule_id: str, subject: str, host: str, consumed, produced, promoter=None) -> Rule:
    return Rule(rule_id, RuleForm.ENDO, subject, consumed, produced, host, promoter)


def exo(rule_id: str, subject: str, host: str, consumed, produced, promoter=None) -> Rule:
    return Rule(rule_id, RuleForm.EXO, subject, consumed, produced, host, promoter)


def send_in(rule_id: str, subject: str, consumed, produced, promoter=None) -> Rule:
    return Rule(rule_id, RuleForm.SEND_IN, subject, consumed, produced, promoter=promoter)


def send_out(rule_id: str, subject: str, consumed, produced, promoter=None) -> Rule:
    return Rule(rule_id, RuleForm.SEND_OUT, subject, consumed, produced, promoter=promoter)


class RuleInstance(_Record):
    """A rule bound to concrete membrane ids; the unit of step selection."""

    __slots__ = ("rule", "subject_id", "host_id")

    def __init__(self, rule: Rule, subject_id: int, host_id: int | None = None) -> None:
        _set(self, "rule", rule)
        _set(self, "subject_id", subject_id)
        _set(self, "host_id", host_id)


class Membrane(_Record):
    """A labelled compartment: objects plus nested child membranes.

    Ids must be unique across a whole configuration (checked by
    :class:`Configuration`).  Child order carries no meaning; it is kept
    stable only so serializations and traces are deterministic.
    """

    __slots__ = ("id", "label", "contents", "children")

    def __init__(self, id: int, label: str, contents: Multiset = EMPTY,
                 children: tuple["Membrane", ...] = ()) -> None:
        _require_int("membrane id", id, 0)
        check_symbol(label)
        _set(self, "id", id)
        _set(self, "label", label)
        _set(self, "contents", as_multiset(contents))
        _set(self, "children", tuple(children))


class InvalidConfigurationError(ValueError):
    def __init__(self, violations: list[str]):
        super().__init__("invalid configuration: " + "; ".join(violations))
        self.violations = violations


class Configuration(_Record):
    """A rooted tree of membranes; the skin is the root."""

    __slots__ = ("skin",)

    def __init__(self, skin: Membrane) -> None:
        violations = structural_violations(skin)
        if violations:
            raise InvalidConfigurationError(violations)
        _set(self, "skin", skin)


def iter_membranes(root: Membrane) -> Iterator[Membrane]:
    """Pre-order walk, children in stored order."""
    stack = [root]
    while stack:
        m = stack.pop()
        yield m
        stack.extend(reversed(m.children))


def structural_violations(root: Membrane) -> list[str]:
    """All faults that only a whole membrane tree can have: duplicate ids,
    a membrane object reachable twice, and nesting deeper than
    ``MAX_DEPTH`` levels (the walk does not descend past it).  Labels and
    counts are checked by the ``Membrane`` and ``Multiset`` constructors.
    An empty list means the tree is valid.
    """
    violations: list[str] = []
    seen_ids: set[int] = set()
    seen_objects: set[int] = set()
    stack = [(root, 1)]
    while stack:
        m, level = stack.pop()
        if level > MAX_DEPTH:
            violations.append(f"too-deep: membrane {m.id} nests deeper than {MAX_DEPTH} levels")
            continue
        if id(m) in seen_objects:
            violations.append(f"shared-membrane: membrane id {m.id} reachable twice")
            continue
        seen_objects.add(id(m))
        if m.id in seen_ids:
            violations.append(f"duplicate-id: {m.id}")
        seen_ids.add(m.id)
        stack.extend((c, level + 1) for c in reversed(m.children))
    return violations


def validate(config: Configuration) -> list[str]:
    """Structural violations of a configuration.  The ``Configuration``
    constructor has already rejected any violation, so for every existing
    configuration this returns ``[]``."""
    return structural_violations(config.skin)


NestedTree = tuple  # (label, contents-mapping-or-None, [child trees])


def build_configuration(tree: NestedTree) -> Configuration:
    """Build a configuration from nested ``(label, contents, children)``
    tuples, assigning ids in pre-order starting at 0.  A tree nesting
    deeper than ``MAX_DEPTH`` raises ``ValueError``."""
    counter = 0

    def build(node: NestedTree, level: int) -> Membrane:
        nonlocal counter
        if level > MAX_DEPTH:
            raise ValueError(f"membranes nest deeper than {MAX_DEPTH} levels")
        label, contents, children = node
        mid = counter
        counter += 1
        return Membrane(mid, label, contents, [build(c, level + 1) for c in children])

    return Configuration(build(tree, 1))


def render_tree(root: Membrane, indent: str = "") -> str:
    """A small indented rendering of a membrane tree, for demos and logs."""
    body = str(root.contents)
    lines = [f"{indent}{root.label}#{root.id} {{{body}}}"]
    for child in root.children:
        lines.append(render_tree(child, indent + "  "))
    return "\n".join(lines)


class Model(_Record):
    """A membrane structure plus its rule set."""

    __slots__ = ("config", "rules")

    def __init__(self, config: Configuration, rules: tuple[Rule, ...] = ()) -> None:
        if not isinstance(config, Configuration):
            raise ValueError(f"model config must be a Configuration, got {config!r}")
        rules = tuple(rules)
        seen: set[str] = set()
        for rule in rules:
            if not isinstance(rule, Rule):
                raise ValueError(f"model rules must be Rule values, got {rule!r}")
            if rule.id in seen:
                raise ValueError(f"duplicate rule id {rule.id!r}")
            seen.add(rule.id)
        _set(self, "config", config)
        _set(self, "rules", rules)


class EngineOptions(_Record):
    __slots__ = ("seed",)

    def __init__(self, seed: int = 0) -> None:
        _require_int("seed", seed)
        if not 0 <= seed < (1 << 64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        _set(self, "seed", seed)


class StepResult(_Record):
    """Outcome of one step. ``halted`` implies the configuration is the
    input object and ``applied`` is empty."""

    __slots__ = ("config", "applied", "halted")

    def __init__(self, config: Configuration, applied: tuple[tuple[RuleInstance, int], ...],
                 halted: bool) -> None:
        _set(self, "config", config)
        _set(self, "applied", applied)
        _set(self, "halted", halted)


class AppliedRule(_Record):
    """One applied instance in a trace, with its multiplicity."""

    __slots__ = ("rule", "subject", "host", "count")

    def __init__(self, rule: str, subject: int, host: int | None, count: int) -> None:
        _set(self, "rule", rule)
        _set(self, "subject", subject)
        _set(self, "host", host)
        _set(self, "count", count)


class TraceStep(_Record):
    """One step of a run.  ``state`` holds the step's own copy of the
    post-step object totals aggregated per membrane label."""

    __slots__ = ("index", "applied", "halted", "state")

    def __init__(self, index: int, applied: tuple[AppliedRule, ...], halted: bool,
                 state: dict[str, dict[str, int]]) -> None:
        _set(self, "index", index)
        _set(self, "applied", applied)
        _set(self, "halted", halted)
        _set(self, "state", state)


class Trace(_Record):
    """Seeded, replayable record of a run."""

    __slots__ = ("seed", "rng", "steps", "final")

    def __init__(self, seed: int, rng: str, steps: tuple[TraceStep, ...],
                 final: Configuration) -> None:
        _set(self, "seed", seed)
        _set(self, "rng", rng)
        _set(self, "steps", steps)
        _set(self, "final", final)

    @property
    def halted(self) -> bool:
        return bool(self.steps) and self.steps[-1].halted
