"""The exhaustive oracle, and engine agreement on deep random systems
(release criterion 1 covers the small ones)."""

from __future__ import annotations

import itertools
import time
from collections import Counter

import pytest

from mmsim import engine, oracle
from mmsim.bone import BoneParams, build_bone_model
from mmsim.core import RuleForm, build_configuration, rewrite, send_in
from mmsim.oracle import OracleBoundExceeded, canonical_form, oracle_successors
from mmsim.rng import SplitMix64

from conftest import chained_steps, random_deep_system, random_system


def test_single_enabled_instance_single_successor():
    cfg = build_configuration(("skin", {"a": 1}, []))
    succ = oracle_successors(cfg, [rewrite("r", "skin", {"a": 1}, {"b": 1})])
    assert succ == {("skin", (("b", 1),), ())}


def test_binary_choice_two_successors():
    cfg = build_configuration(("skin", {"a": 1}, []))
    rules = [rewrite("r1", "skin", {"a": 1}, {"b": 1}),
             rewrite("r2", "skin", {"a": 1}, {"c": 1})]
    succ = oracle_successors(cfg, rules)
    assert succ == {("skin", (("b", 1),), ()), ("skin", (("c", 1),), ())}


def test_halting_config_maps_to_itself():
    cfg = build_configuration(("skin", {"a": 1}, []))
    assert oracle_successors(cfg, []) == {canonical_form(cfg)}


def test_partial_multiplicities_enumerated():
    # Two rules compete for three tokens: maximal splits are (3,0),(2,1),(1,2),(0,3).
    cfg = build_configuration(("skin", {"a": 3}, []))
    rules = [rewrite("r1", "skin", {"a": 1}, {"b": 1}),
             rewrite("r2", "skin", {"a": 1}, {"c": 1})]
    succ = oracle_successors(cfg, rules)
    assert len(succ) == 4


def test_canonical_form_sorts_children():
    a = build_configuration(("skin", {}, [("x", {"m": 1}, []), ("y", {}, [])]))
    b = build_configuration(("skin", {}, [("y", {}, []), ("x", {"m": 1}, [])]))
    assert canonical_form(a) == canonical_form(b)


def test_bound_rejects_large_inputs():
    cfg = build_configuration(("skin", {"c": 3}, [("V", {}, [])]))
    with pytest.raises(OracleBoundExceeded):
        oracle_successors(cfg, [send_in("mv", "V", {"c": 1}, {"d": 1})], bound=0)


def test_engine_step_is_oracle_member_on_deep_random_systems():
    """The deeper tier: 4-6 membranes, depth >= 3, repeated labels.  Each
    system is followed for up to five steps under a raised oracle bound
    and a time box, and some steps must move membranes by endo and exo at
    once."""
    deadline = time.monotonic() + 5.0
    checked = both_moves = 0
    for seed in range(600):
        if time.monotonic() > deadline:
            break
        config, rules = random_deep_system(seed)
        for before, result in chained_steps(config, rules, SplitMix64(seed), 5):
            successors = oracle_successors(before, rules, bound=256)
            assert canonical_form(result.config) in successors, f"seed {seed}"
            checked += 1
            forms = {inst.rule.form for inst, _ in result.applied}
            both_moves += {RuleForm.ENDO, RuleForm.EXO} <= forms
    assert checked >= 300 and both_moves >= 3


class _Order:
    """A stand-in generator whose shuffle puts the list in a given order."""

    def __init__(self, perm: tuple[int, ...]):
        self.perm = perm

    def shuffle(self, items: list) -> None:
        items[:] = [items[i] for i in self.perm]


def test_every_selection_order_gives_an_oracle_successor():
    """Selection reads the seed only through the order its shuffle returns,
    and every order has positive probability, so stepping a system under
    every order checks every seed at once.  Greedy selection reaches no
    successor outside the oracle's set, but not every one in it: the
    successors that no order reaches are pinned at their counts."""
    systems = successors = gap_systems = gap = 0
    for make, seeds in ((random_system, 1500), (random_deep_system, 500)):
        for seed in range(seeds):
            config, rules = make(seed)
            table = engine._compile(rules)
            n = len(engine._enumerate(engine._State(config), table))
            if not 1 <= n <= 6:
                continue
            try:
                expected = oracle_successors(config, rules)
            except OracleBoundExceeded:
                continue
            # Equal selections give equal successors: one form per selection.
            forms = {}
            for perm in itertools.permutations(range(n)):
                state = engine._State(config)
                applied = tuple(engine._step(state, table, _Order(perm)))
                if applied not in forms:
                    forms[applied] = canonical_form(state.config())
            reached = set(forms.values())
            assert reached <= expected, (make.__name__, seed)
            systems += 1
            successors += len(expected)
            gap += len(expected - reached)
            gap_systems += reached != expected
    assert (systems, successors) == (916, 1458)
    assert (gap_systems, gap) == (47, 113)


def test_binding_needs_are_the_rules_consumed_pairs():
    model = build_bone_model(BoneParams(units=50, cycles=10, oc=3, ob=1))
    bindings = oracle._bindings(oracle._Net(model.config), model.rules)
    assert bindings
    for b in bindings:
        assert b.needs is b.rule.consumed.items()


def unpruned_successors(config, rules) -> set:
    """Every maximal count vector over the oracle's bindings, found by
    trying each vector up to each binding's own fit, with no pruning."""
    net = oracle._Net(config)
    bindings = oracle._bindings(net, rules)

    def own_fit(b) -> int:
        fit = min(net.contents[b.source][s] // n for s, n in b.needs)
        return min(fit, 1) if b.moves else fit

    def valid(counts) -> bool:
        used = Counter()
        for b, k in zip(bindings, counts):
            for s, n in b.needs:
                used[b.source, s] += k * n
        locks = [m for b, k in zip(bindings, counts) if k and b.moves for m in b.locks]
        return (all(used[key] <= net.contents[key[0]][key[1]] for key in used)
                and len(locks) == len(set(locks))
                and all(k <= 1 for b, k in zip(bindings, counts) if b.moves))

    def maximal(counts) -> bool:
        return not any(valid(counts[:i] + (k + 1,) + counts[i + 1:])
                       for i, k in enumerate(counts))

    vectors = itertools.product(*(range(own_fit(b) + 1) for b in bindings))
    return {oracle._successor(net, list(counts), bindings)
            for counts in vectors if valid(counts) and maximal(counts)}


def test_pruned_search_equals_unpruned_enumeration():
    """The oracle's pruning (uncontested bindings at full multiplicity, the
    mover-lock applied as it goes) loses and adds no maximal outcome."""
    checked = 0
    for make, seeds in ((random_system, 1000), (random_deep_system, 300)):
        for seed in range(seeds):
            config, rules = make(seed)
            for before, _ in chained_steps(config, rules, SplitMix64(seed), 4):
                if len(oracle._bindings(oracle._Net(before), rules)) > 8:
                    continue
                assert oracle_successors(before, rules) == unpruned_successors(before, rules), \
                    (make.__name__, seed)
                checked += 1
    assert checked > 2000
