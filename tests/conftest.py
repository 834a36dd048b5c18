"""Shared fixtures: corpus access, seeded random-system generators, the
chained-step loop and the protocol-sized bone run."""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import lru_cache
from pathlib import Path

import pytest

from mmsim.bone import BoneParams, build_bone_model
from mmsim.core import Configuration, Membrane, Multiset, Rule, RuleForm
from mmsim.engine import EngineOptions, StepResult, Trace, run, step
from mmsim.rng import SplitMix64

CORPUS = Path(__file__).parent / "corpus"

LABEL_POOL = ("L0", "L1", "L2")
SYMBOL_POOL = ("s0", "s1", "s2", "s3", "s4", "s5")


@pytest.fixture
def corpus_valid() -> list[Path]:
    return sorted((CORPUS / "valid").glob("*.mm"))


@pytest.fixture
def corpus_invalid() -> list[Path]:
    return sorted((CORPUS / "invalid").glob("*.mm"))


def chained_steps(config: Configuration, rules: Sequence[Rule], rng: SplitMix64,
                  steps: int) -> Iterator[tuple[Configuration, StepResult]]:
    """Up to *steps* chained ``step()`` calls from *config*, each yielded as
    ``(configuration before, result)``; the halting step is the last."""
    for _ in range(steps):
        result = step(config, rules, rng)
        yield config, result
        if result.halted:
            return
        config = result.config


@lru_cache(maxsize=None)
def bone_run(seed: int = 0, **params) -> tuple[Trace, BoneParams]:
    """The bone model of *params* run for the steps ``mmsim bone`` runs,
    ``BoneParams.run_steps``."""
    p = BoneParams(**params)
    return run(build_bone_model(p), EngineOptions(seed=seed), p.run_steps), p


def _tree(labels: list[str], parents: list[int | None],
          contents: list[dict[str, int]]) -> Configuration:
    """The configuration whose membrane *i* has ``labels[i]``, ``contents[i]``
    and parent ``parents[i]`` (``None`` for the skin, membrane 0)."""
    children: dict[int, list[int]] = {i: [] for i in range(len(labels))}
    for i in range(1, len(labels)):
        children[parents[i]].append(i)

    def build(i: int) -> Membrane:
        return Membrane(i, labels[i], Multiset(contents[i]),
                        tuple(build(c) for c in children[i]))

    return Configuration(build(0))


def random_system(seed: int) -> tuple[Configuration, list[Rule]]:
    """A pseudo-random small system: at most 3 membranes, 4 rules,
    6 symbols, and per-symbol counts at most 3.

    Rule anchors and trigger symbols are biased towards labels and symbols
    actually present, so most generated systems have live steps while some
    bindings still miss on purpose.
    """
    rng = SplitMix64(seed)

    def pick(pool):
        return pool[rng.below(len(pool))]

    n_membranes = 1 + rng.below(3)
    labels = [pick(LABEL_POOL) for _ in range(n_membranes)]
    parents = [None] + [rng.below(i) for i in range(1, n_membranes)]
    contents: list[dict[str, int]] = []
    present_symbols: list[str] = []
    for _ in range(n_membranes):
        picks: dict[str, int] = {}
        for _ in range(1 + rng.below(3)):
            sym = pick(SYMBOL_POOL)
            picks[sym] = min(3, picks.get(sym, 0) + 1 + rng.below(3))
        contents.append(picks)
        present_symbols.extend(picks)
    config = _tree(labels, parents, contents)

    def rule_label() -> str:
        return pick(labels) if rng.below(4) else pick(LABEL_POOL)

    def rule_symbol() -> str:
        return pick(present_symbols) if rng.below(4) else pick(SYMBOL_POOL)

    def multiset(max_entries: int, max_count: int, min_entries: int = 0) -> Multiset:
        n = min_entries + rng.below(max_entries - min_entries + 1)
        picks: dict[str, int] = {}
        for _ in range(n):
            picks[rule_symbol()] = 1 + rng.below(max_count)
        return Multiset(picks)

    forms = (RuleForm.REWRITE, RuleForm.ENDO, RuleForm.EXO, RuleForm.SEND_IN,
             RuleForm.SEND_OUT)
    rules: list[Rule] = []
    for r in range(1 + rng.below(4)):
        form = pick(forms)
        host = rule_label() if form in (RuleForm.ENDO, RuleForm.EXO) else None
        consumed = multiset(2, 2, min_entries=1)
        produced = multiset(2, 2)
        promoter = multiset(1, 1, min_entries=1) if rng.below(4) == 0 else None
        rules.append(Rule(f"r{r}", form, rule_label(), consumed, produced,
                          host=host, promoter=promoter))
    return config, rules


def random_deep_system(seed: int) -> tuple[Configuration, list[Rule]]:
    """A pseudo-random deeper system: 4 to 6 membranes, a chain at least
    three membranes deep below the skin, labels below the skin drawn from
    ``LABEL_POOL`` (so most systems repeat one), and 3 to 6 rules of which
    about half move a membrane.

    Each rule is anchored on a concrete membrane: it consumes a symbol
    that membrane (or, for ``send-in``, its parent) holds, endo hosts are
    labels of its siblings and exo hosts the label of its parent.  Move
    rules give back what they consume, so moves at different depths keep
    firing in the same step for several steps.
    """
    rng = SplitMix64(seed)

    def pick(pool):
        return pool[rng.below(len(pool))]

    n_membranes = 4 + rng.below(3)
    labels = ["skin"] + [pick(LABEL_POOL) for _ in range(n_membranes - 1)]
    # Membranes 0..3 form a chain; each later one hangs under any earlier one.
    parents = [None, 0, 1, 2] + [rng.below(i) for i in range(4, n_membranes)]
    symbols = SYMBOL_POOL[:4]
    contents = []
    for _ in range(n_membranes):
        picks: dict[str, int] = {}
        for _ in range(1 + rng.below(2)):
            picks[pick(symbols)] = 1 + rng.below(2)
        contents.append(picks)
    config = _tree(labels, parents, contents)

    forms = (RuleForm.ENDO, RuleForm.EXO, RuleForm.ENDO, RuleForm.EXO,
             RuleForm.REWRITE, RuleForm.SEND_IN, RuleForm.SEND_OUT)
    rules: list[Rule] = []
    for r in range(3 + rng.below(4)):
        form = pick(forms)
        anchor = 1 + rng.below(n_membranes - 1)
        parent = parents[anchor]
        source = parent if form is RuleForm.SEND_IN else anchor
        consumed = Multiset({pick(sorted(contents[source])): 1})
        host = None
        if form is RuleForm.ENDO:
            siblings = [c for c in range(1, n_membranes)
                        if parents[c] == parent and c != anchor]
            host = labels[pick(siblings)] if siblings else pick(LABEL_POOL)
        elif form is RuleForm.EXO:
            host = labels[parent]
        if host is not None:
            produced = consumed
        else:
            produced = Multiset({pick(symbols): 1} if rng.below(3) else {})
        promoter = Multiset({pick(symbols): 1}) if rng.below(5) == 0 else None
        rules.append(Rule(f"r{r}", form, labels[anchor], consumed, produced,
                          host=host, promoter=promoter))
    return config, rules


MICRO_STOCK = ("_s0", "_s1", "_s2")


def random_micro_rules(seed: int, label: str, delivered: str,
                       remodelled: str) -> tuple[list[Rule], int]:
    """A pseudo-random acyclic set of ``in label`` rewrites of 1 to 4 levels,
    and its number of levels.

    A level-1 rule consumes or promotes, at random, *delivered*; a rule of
    level d > 1 does so with a symbol made by a rule of level d - 1.  Each
    may read stock symbols (``MICRO_STOCK``), *delivered* or lower-level
    products besides.  Each rule makes its own symbol and, at random,
    *remodelled*, which no micro rule reads.
    """
    rng = SplitMix64(seed)

    def pick(pool):
        return pool[rng.below(len(pool))]

    levels = 1 + rng.below(4)
    pool = [delivered, *MICRO_STOCK]
    rules: list[Rule] = []
    made: list[str] = []
    for level in range(1, levels + 1):
        pool += made  # the products of all lower levels
        previous, made = made, []
        for j in range(1 + rng.below(2)):
            link = pick(previous) if previous else delivered
            consumed: dict[str, int] = {}
            promoter: dict[str, int] = {}
            (consumed if rng.below(2) else promoter)[link] = 1
            for _ in range(rng.below(3)):
                sym = pick(pool)
                if sym not in consumed and sym not in promoter:
                    (consumed if rng.below(2) else promoter)[sym] = 1
            if not consumed:  # a rule must consume something
                stock = pick(MICRO_STOCK)
                consumed[stock] = 1
                promoter.pop(stock, None)
            own = f"_m{level}{j}"
            produced = {own: 1, remodelled: 1} if rng.below(2) else {own: 1}
            rules.append(Rule(f"{label}_r{level}{j}", RuleForm.REWRITE, label,
                              Multiset(consumed), Multiset(produced),
                              promoter=Multiset(promoter) or None))
            made.append(own)
    return rules, levels
