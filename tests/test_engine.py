"""Step semantics: enumeration, joint applicability, maximality, self-check, runs."""

from __future__ import annotations

import pytest

from mmsim import engine
from mmsim.core import (
    build_configuration,
    endo,
    exo,
    rewrite,
    send_in,
    structurally_equal,
    total_objects,
    validate,
)
from mmsim.engine import (
    EngineOptions,
    InstanceBoundExceeded,
    SelfCheckViolation,
    enumerate_instances,
    label_totals,
    run,
    step,
)
from mmsim.oracle import canonical_form, oracle_successors
from mmsim.parser import Model, parse_model
from mmsim.rng import SplitMix64

from conftest import random_system


def drain_model() -> Model:
    return parse_model("[skin: c*10 [V: ]] rule load: send-in V: c -> cl")


class TestEnumerate:
    def test_single_endo_binding(self):
        cfg = build_configuration(("skin", {}, [("V", {"p0": 1}, []), ("CU", {}, [])]))
        rules = [endo("e", "V", "CU", {"p0": 1}, {"p1": 1})]
        assert len(enumerate_instances(cfg, rules)) == 1

    def test_unmet_trigger(self):
        cfg = build_configuration(("skin", {}, [("V", {}, []), ("CU", {}, [])]))
        rules = [endo("e", "V", "CU", {"p0": 1}, {"p1": 1})]
        assert enumerate_instances(cfg, rules) == []

    def test_two_host_bindings(self):
        cfg = build_configuration(
            ("skin", {}, [("V", {"p0": 1}, []), ("CU", {}, []), ("CU", {}, [])]))
        rules = [endo("e", "V", "CU", {"p0": 1}, {"p1": 1})]
        instances = enumerate_instances(cfg, rules)
        assert [(i.subject_id, i.host_id) for i in instances] == [(1, 2), (1, 3)]

    def test_promoter_gates_instance(self):
        cfg = build_configuration(("skin", {"c": 3}, [("V", {}, [])]))
        rules = [send_in("load", "V", {"c": 1}, {"cl": 1}, promoter={"go": 1})]
        assert enumerate_instances(cfg, rules) == []
        cfg2 = build_configuration(("skin", {"c": 3}, [("V", {"go": 1}, [])]))
        assert len(enumerate_instances(cfg2, rules)) == 1

    def test_exo_out_of_root_is_inapplicable(self):
        cfg = build_configuration(("skin", {}, [("T", {"x": 1}, [])]))
        rules = [exo("out", "T", "skin", {"x": 1}, {"x": 1})]
        assert enumerate_instances(cfg, rules) == []

    def test_order_is_rule_then_subject_then_host(self):
        cfg = build_configuration(
            ("skin", {"a": 1}, [("V", {"a": 1}, []), ("V", {"a": 1}, [])]))
        rules = [rewrite("r2", "V", {"a": 1}, {}, promoter=None),
                 rewrite("r1", "skin", {"a": 1}, {})]
        instances = enumerate_instances(cfg, rules)
        assert [(i.rule.id, i.subject_id) for i in instances] == [
            ("r2", 1), ("r2", 2), ("r1", 0)]


class TestJointApplicability:
    def test_resources_suffice(self):
        cfg = build_configuration(("skin", {"c": 2}, []))
        result = step(cfg, [rewrite("r", "skin", {"c": 1}, {})], SplitMix64(0))
        assert [(i.rule.id, k) for i, k in result.applied] == [("r", 2)]

    def test_resource_conflict(self):
        cfg = build_configuration(("skin", {"c": 1}, []))
        result = step(cfg, [rewrite("r", "skin", {"c": 1}, {})], SplitMix64(0))
        assert [(i.rule.id, k) for i, k in result.applied] == [("r", 1)]

    def test_mover_lock(self):
        cfg = build_configuration(
            ("root", {}, [("skin", {}, [("T", {"x": 1}, []), ("V", {"p": 1}, [])])]))
        rules = [endo("m1", "V", "T", {"p": 1}, {"p": 1}),
                 exo("m2", "T", "skin", {"x": 1}, {"x": 1})]
        assert len(enumerate_instances(cfg, rules)) == 2
        for seed in range(8):
            result = step(cfg, rules, SplitMix64(seed))
            assert len(result.applied) == 1 and result.applied[0][1] == 1
            assert canonical_form(result.config) in oracle_successors(cfg, rules)


class TestSelfCheck:
    @staticmethod
    def flat_state():
        cfg = build_configuration(
            ("skin", {"a": 1}, [("A", {}, [("B", {}, [])]), ("C", {}, [])]))
        return engine._State(cfg)

    def test_valid_state_has_no_violations(self):
        assert engine._structural_violations(self.flat_state()) == []

    def test_detached_cycle_reported(self):
        state = self.flat_state()
        # A (1) and B (2) become each other's child, cut off from the skin.
        state.children[0].remove(1)
        state.children[2].append(1)
        violations = engine._structural_violations(state)
        assert [v for v in violations if v.startswith("detached")] == [
            "detached: membrane 1 is not reachable from the skin",
            "detached: membrane 2 is not reachable from the skin"]

    def test_membrane_under_two_parents_reported(self):
        state = self.flat_state()
        state.children[3].append(2)
        violations = engine._structural_violations(state)
        assert violations == ["shared-membrane: membrane id 2 reachable twice"]

    def test_non_positive_count_reported(self):
        state = self.flat_state()
        state.contents[0]["a"] = 0
        assert engine._structural_violations(state) == ["zero-count: membrane 0 stores a*0"]

    def test_non_maximal_selection_reported(self):
        cfg = build_configuration(("skin", {"c": 2}, []))
        state = engine._State(cfg)
        instances = engine._enumerate(state, [rewrite("r", "skin", {"c": 1}, {})])
        unused = engine._Selection(state, limit=10)
        with pytest.raises(SelfCheckViolation, match="not maximal"):
            engine._check_step(state, instances, unused)

    def test_disabled_self_check_runs_no_check(self, monkeypatch):
        model = drain_model()
        expected = run(model, EngineOptions(seed=2), max_steps=10)

        def fail(*args):
            raise AssertionError("self-check ran")

        monkeypatch.setattr(engine, "_check_step", fail)
        monkeypatch.setattr(engine, "_structural_violations", fail)
        assert run(model, EngineOptions(seed=2, self_check=False), max_steps=10) == expected
        with pytest.raises(AssertionError, match="self-check ran"):
            run(model, EngineOptions(seed=2), max_steps=10)


class TestStep:
    def test_drain_fires_maximally(self):
        model = drain_model()
        result = step(model.config, model.rules, SplitMix64(0))
        assert [(i.rule.id, k) for i, k in result.applied] == [("load", 10)]
        assert label_totals(result.config) == {"skin": {}, "V": {"cl": 10}}
        assert canonical_form(result.config) in oracle_successors(model.config, model.rules)

    def test_halted_without_rules(self):
        cfg = build_configuration(("skin", {"c": 1}, []))
        result = step(cfg, [], SplitMix64(0))
        assert result.halted and result.config is cfg and result.applied == ()

    def test_single_endo_moves_subtree(self):
        cfg = build_configuration(("skin", {}, [("V", {"p0": 1}, []), ("CU", {}, [])]))
        result = step(cfg, [endo("e", "V", "CU", {"p0": 1}, {"p1": 1})], SplitMix64(0))
        expected = build_configuration(("skin", {}, [("CU", {}, [("V", {"p1": 1}, [])])]))
        assert structurally_equal(result.config, expected)
        # ids are preserved across the move
        assert result.config.by_id[1].label == "V"

    def test_rewrite_can_fire_while_subject_moves(self):
        cfg = build_configuration(("skin", {}, [("V", {"p0": 1, "x": 1}, []), ("CU", {}, [])]))
        rules = [endo("e", "V", "CU", {"p0": 1}, {"p1": 1}),
                 rewrite("w", "V", {"x": 1}, {"y": 1})]
        result = step(cfg, rules, SplitMix64(0))
        assert {i.rule.id for i, _ in result.applied} == {"e", "w"}
        assert label_totals(result.config)["V"] == {"p1": 1, "y": 1}

    def test_instance_bound_enforced(self):
        model = drain_model()
        with pytest.raises(InstanceBoundExceeded):
            step(model.config, model.rules, SplitMix64(0),
                 EngineOptions(max_instances_per_step=5))

    def test_conservation_under_pure_transfer(self):
        model = parse_model(
            "[skin: c*10 [V: ]] rule load: send-in V: c -> cl rule unload: send-out V: cl -> c")
        config = model.config
        rng = SplitMix64(4)
        for _ in range(20):
            result = step(config, model.rules, rng)
            assert total_objects(result.config) == 10
            config = result.config

    def test_structure_preserved_on_random_systems(self):
        for seed in range(40):
            config, rules = random_system(seed)
            count = len(config.by_id)
            rng = SplitMix64(seed)
            for _ in range(3):
                result = step(config, rules, rng)
                assert validate(result.config) == []
                assert len(result.config.by_id) == count
                assert sorted(m.label for m in result.config.by_id.values()) == \
                    sorted(m.label for m in config.by_id.values())
                if result.halted:
                    break
                config = result.config


class TestRun:
    def test_max_steps_zero(self):
        trace = run(drain_model(), max_steps=0)
        assert trace.steps == () and not trace.halted
        assert structurally_equal(trace.final, drain_model().config)

    def test_trace_indices_consecutive(self):
        trace = run(drain_model(), max_steps=5)
        assert [s.index for s in trace.steps] == list(range(len(trace.steps)))

    def test_same_seed_same_trace(self):
        model = drain_model()
        a = run(model, EngineOptions(seed=11), max_steps=50)
        b = run(model, EngineOptions(seed=11), max_steps=50)
        assert a == b

    def test_halting_run_records_halted_tail(self):
        model = parse_model("[skin: a*3] rule burn: in skin: a -> ()")
        trace = run(model, max_steps=50)
        assert trace.halted
        assert trace.steps[-1].applied == ()
        assert [s.halted for s in trace.steps] == [False, True]

    def test_halting_monotone(self):
        model = parse_model("[skin: a*3] rule burn: in skin: a -> ()")
        trace = run(model, max_steps=50)
        rng = SplitMix64(0)
        again = step(trace.final, model.rules, rng)
        assert again.halted and again.config is trace.final

    def test_run_builds_one_configuration(self, monkeypatch):
        built = []
        to_config = engine._State.config
        monkeypatch.setattr(engine._State, "config",
                            lambda state: built.append(1) or to_config(state))
        trace = run(drain_model(), max_steps=10)
        assert len(trace.steps) == 2 and len(built) == 1  # only Trace.final

    def test_seeds_can_pick_different_maximal_sets(self):
        model = parse_model(
            "[skin: a] rule r1: in skin: a -> b rule r2: in skin: a -> c")
        outcomes = {run(model, EngineOptions(seed=s), max_steps=3).steps[0].state["skin"].popitem()[0]
                    for s in range(16)}
        assert outcomes == {"b", "c"}
