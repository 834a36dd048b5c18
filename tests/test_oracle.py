"""The exhaustive oracle, and engine agreement on deep random systems
(release criterion 1 covers the small ones)."""

from __future__ import annotations

import time

import pytest

from mmsim.core import RuleForm, build_configuration, rewrite, send_in
from mmsim.oracle import OracleBoundExceeded, canonical_form, oracle_successors
from mmsim.rng import SplitMix64

from conftest import chained_steps, random_deep_system


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
