"""Step semantics: enumeration, joint applicability, maximality, self-check, runs."""

from __future__ import annotations

import json

import pytest

from mmsim import engine, oracle
from mmsim.bone import BoneParams, build_bone_model
from mmsim.core import (
    MAX_COUNT,
    MAX_DEPTH,
    Multiset,
    build_configuration,
    endo,
    exo,
    iter_membranes,
    rewrite,
    send_in,
)
from mmsim.engine import (
    CountOverflow,
    DepthExceeded,
    EngineOptions,
    InstanceBoundExceeded,
    SelfCheckViolation,
    enumerate_instances,
    iter_steps,
    label_totals,
    run,
    step,
)
from mmsim.oracle import canonical_form, oracle_successors
from mmsim.parser import Model, parse_model, serialize_model
from mmsim.rng import RNG_ALGORITHM, SplitMix64
from mmsim.tracefile import trace_lines

from conftest import chained_steps, random_deep_system, random_system


def drain_model() -> Model:
    return parse_model("[skin: c*10 [V: ]] rule load: send-in V: c -> cl")


def random_states(steps: int = 3, deep_seeds: int = 200):
    """``(config, rules)`` for both random-system tiers, at the start and
    after each of up to *steps* chained steps: seeds 0..199 of the small
    tier and the first *deep_seeds* of the deep one."""
    for make, seeds in ((random_system, 200), (random_deep_system, deep_seeds)):
        for seed in range(seeds):
            config, rules = make(seed)
            for before, _ in chained_steps(config, rules, SplitMix64(seed), steps + 1):
                yield before, rules


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
        # The promoter is present but the parent lacks the key symbol c.
        cfg3 = build_configuration(("skin", {}, [("V", {"go": 1}, [])]))
        assert enumerate_instances(cfg3, rules) == []

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


    def test_matches_oracle_bindings_on_random_systems(self):
        # The deep tier runs to more seeds: its repeated labels at depth >= 3
        # are where one rule binds several membranes through the label index.
        checked = repeated = 0
        for config, rules in random_states(deep_seeds=800):
            bindings = oracle._bindings(oracle._Net(config), rules)
            instances = enumerate_instances(config, rules)
            got = [(i.rule.id, i.subject_id, i.host_id) for i in instances]
            assert len(set(got)) == len(got)
            assert set(got) == {(b.rule.id, b.subject, b.host) for b in bindings}
            checked += 1
            subjects = {(b.rule.id, b.subject) for b in bindings}
            repeated += len(subjects) > len({rule_id for rule_id, _ in subjects})
        assert checked > 2000 and repeated > 400

    def test_rule_table_compiled_once_per_rule_set(self, monkeypatch):
        compiled = []
        table = engine._Table
        monkeypatch.setattr(engine, "_Table", lambda rules: compiled.append(1) or table(rules))
        model = drain_model()
        for _ in range(3):
            enumerate_instances(model.config, model.rules)
            step(model.config, model.rules, SplitMix64(0))
        assert len(compiled) == 1
        rules = list(model.rules)
        rules.append(rewrite("burn", "V", {"cl": 1}, {}))
        enumerate_instances(model.config, rules)
        assert len(compiled) == 2
        # A list changed in place is a new rule set, not a stale table.
        rules.pop()
        assert len(enumerate_instances(model.config, rules)) == 1
        assert len(compiled) == 3

    def test_rules_with_equal_bodies_share_their_item_tuples(self):
        rules = build_bone_model(BoneParams(units=3, oc=3, ob=1)).rules
        entries = {e.rule.id: e for _, own, via_parent in engine._compile(rules).groups
                   for _, e in own + via_parent}
        first = [rule_id for rule_id in entries if rule_id.split("_")[0].endswith("1")]
        assert len(first) == 21
        for rule_id in first:
            a, b = entries[rule_id], entries[rule_id.replace("1_", "3_", 1)]
            assert a.consumed is b.consumed and a.produced is b.produced
            assert a.promoter is b.promoter

    def test_entries_read_their_rules_pairs(self):
        rules = build_bone_model(BoneParams(units=50, cycles=10, oc=3, ob=1)).rules
        entries = [e for _, own, via_parent in engine._Table(tuple(rules)).groups
                   for _, e in own + via_parent]
        assert len(entries) == len(rules)
        for e in entries:
            assert e.consumed is e.rule.consumed.items()
            assert e.produced is e.rule.produced.items()
            assert e.promoter is e.rule.promoter.items()

    def test_key_symbol_is_in_the_membrane_the_rule_consumes_from(self):
        table = engine._Table((
            send_in("plain", "V", {"c": 1}, {}),
            send_in("gated", "V", {"c": 1}, {}, promoter={"go": 1}),
            rewrite("restart", "V", {"cyc": 1, "p13": 1}, {}),
            rewrite("depart", "V", {"cyc": 1, "p0": 1}, {}),
        ))
        [(label, own, via_parent)] = table.groups
        assert label == "V"
        assert [(key, e.rule.id) for key, e in own] == [("p13", "restart"), ("p0", "depart")]
        assert [(key, e.rule.id) for key, e in via_parent] == [("c", "plain"), ("c", "gated")]


class TestSelect:
    def test_residual_holds_exactly_the_sources_consumed_from(self):
        checked = 0
        for seed, (config, rules) in enumerate(random_states()):
            state = engine._State(config)
            candidates = engine._enumerate(state, engine._compile(rules))
            if not candidates:
                continue
            residual, _, counts = engine._select_maximal(state, candidates, SplitMix64(seed))
            assert residual.keys() == {c[3] for c, k in zip(candidates, counts) if k}
            checked += 1
        assert checked > 400


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
        assert engine._check_tree(self.flat_state()) is None

    def test_detached_cycle_reported(self):
        state = self.flat_state()
        # A (1) and B (2) become each other's child, cut off from the skin;
        # the check names the smaller of the two.
        state.children[0].remove(1)
        state.children[2].append(1)
        with pytest.raises(SelfCheckViolation) as failure:
            engine._check_tree(state)
        assert str(failure.value) == "post-step tree: membrane 1 is not reachable from the skin"

    def test_membrane_under_two_parents_reported(self):
        state = self.flat_state()
        state.children[3].append(2)
        with pytest.raises(SelfCheckViolation) as failure:
            engine._check_tree(state)
        assert str(failure.value) == "post-step tree: membrane 2 is reachable twice"

    @staticmethod
    def rescan(tree, rules, residual, locked):
        state = engine._State(build_configuration(tree))
        candidates = engine._enumerate(state, engine._compile(rules))
        engine._check_maximal(candidates, state.contents, residual, locked)

    DRAIN = ("skin", {"c": 2}, [])
    DRAIN_RULES = [rewrite("r", "skin", {"c": 1}, {})]

    def test_non_maximal_selection_reported(self):
        with pytest.raises(SelfCheckViolation) as failure:
            self.rescan(self.DRAIN, self.DRAIN_RULES, {}, set())
        assert str(failure.value) == "step is not maximal: rule 'r' still applies to membrane 0"

    def test_residual_that_fits_one_more_copy_reported(self):
        with pytest.raises(SelfCheckViolation) as failure:
            self.rescan(self.DRAIN, self.DRAIN_RULES, {0: {"c": 1}}, set())
        assert str(failure.value) == "step is not maximal: rule 'r' still applies to membrane 0"

    MOVE = ("skin", {}, [("V", {"p0": 1}, []), ("CU", {}, [])])
    MOVE_RULES = [endo("e", "V", "CU", {"p0": 1}, {"p1": 1})]

    def test_move_with_free_lock_pair_reported(self):
        with pytest.raises(SelfCheckViolation) as failure:
            self.rescan(self.MOVE, self.MOVE_RULES, {}, {0})
        assert str(failure.value) == "step is not maximal: rule 'e' still applies to membrane 1"

    def test_move_with_locked_subject_accepted(self):
        self.rescan(self.MOVE, self.MOVE_RULES, {}, {1})

    def test_checks_run_once_per_step(self, monkeypatch):
        # One token n is spent per step: steps 0..4 apply, step 5 halts.
        # V enters CU in step 0 and leaves it in step 1; no later step moves.
        model = parse_model("[skin: t, n*5 [V: p0] [CU: ]] rule r: in skin: t, n -> t "
                            "rule e: endo V into CU: p0 -> p1 rule x: exo V from CU: p1 -> p2")
        expected = run(model, max_steps=10)
        calls = {"_check_maximal": 0, "_check_tree": 0}

        def counting(name):
            real = getattr(engine, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(engine, name, wrapper)

        for name in calls:
            counting(name)
        trace = run(model, max_steps=10)
        assert trace == expected
        applying = sum(not s.halted for s in trace.steps)
        moving = sum(any(a.rule in ("e", "x") for a in s.applied) for s in trace.steps)
        assert (applying, moving) == (5, 2) and trace.halted
        assert calls == {"_check_maximal": applying, "_check_tree": moving}

    def test_fault_made_by_a_move_ends_the_run(self, monkeypatch):
        # A and B each move into the other; the mover-lock lets only one
        # go, so forcing both cuts both off from the skin.
        model = parse_model("[skin: [A: go] [B: go]] "
                            "rule a: endo A into B: go -> go rule b: endo B into A: go -> go")
        real = engine._select_maximal

        def both(state, candidates, rng):
            residual, locked, _ = real(state, candidates, rng)
            return residual, locked, [1] * len(candidates)

        monkeypatch.setattr(engine, "_select_maximal", both)
        with pytest.raises(SelfCheckViolation) as failure:
            run(model, max_steps=10)
        assert str(failure.value) == "post-step tree: membrane 1 is not reachable from the skin"
        assert failure.value.step == 0

    @staticmethod
    def chain_state(depth: int):
        """The flat state of a chain of *depth* membranes."""
        tree = ("a", {}, [])
        for _ in range(depth - 1):
            tree = ("a", {}, [tree])
        return engine._State(build_configuration(tree))

    @staticmethod
    def attach(state, parent: int, mid: int) -> None:
        state.labels[mid] = "a"
        state.contents[mid] = {}
        state.children[mid] = []
        state.children[parent].append(mid)
        state.parent[mid] = parent

    def test_chain_at_max_depth_is_valid(self):
        assert engine._check_tree(self.chain_state(MAX_DEPTH)) is None

    def test_chain_past_max_depth_raises_depth_exceeded(self):
        state = self.chain_state(MAX_DEPTH)
        deepest = max(state.labels)
        self.attach(state, deepest, 500)
        self.attach(state, deepest, 300)
        with pytest.raises(DepthExceeded) as failure:
            engine._check_tree(state)
        assert str(failure.value) == (
            f"an endo move nests membrane 300 deeper than {MAX_DEPTH} levels")

    def test_underflow_in_apply_is_a_check_violation(self, monkeypatch):
        real = engine._select_maximal

        def doubled(state, candidates, rng):
            residual, locked, counts = real(state, candidates, rng)
            return residual, locked, [2 * k for k in counts]

        monkeypatch.setattr(engine, "_select_maximal", doubled)
        with pytest.raises(SelfCheckViolation, match="internal underflow applying 'load'") as failure:
            run(drain_model(), max_steps=10)
        assert failure.value.step == 0
        assert failure.traceback[-1].name == "_apply"


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
        assert serialize_model(Model(result.config)) == serialize_model(Model(expected))
        # ids are preserved across the move
        assert {m.id: m.label for m in iter_membranes(result.config.skin)}[1] == "V"

    @pytest.mark.parametrize("text, label, totals", [
        pytest.param("[skin: [V: p0, x] [CU: ]] rule e: endo V into CU: p0 -> p1 "
                     "rule w: in V: x -> y", "V", {"p1": 1, "y": 1}, id="rewrite"),
        # A send-out delivers into the mover's pre-step parent.
        pytest.param("[skin: [V: p0, y] [CU: ]] rule e: endo V into CU: p0 -> p1 "
                     "rule w: send-out V: y -> z", "skin", {"z": 1}, id="endo-send-out"),
        pytest.param("[skin: [CU: [V: p0, y]]] rule e: exo V from CU: p0 -> p1 "
                     "rule w: send-out V: y -> z", "CU", {"z": 1}, id="exo-send-out"),
    ])
    def test_rewrite_can_fire_while_subject_moves(self, text, label, totals):
        model = parse_model(text)
        result = step(model.config, model.rules, SplitMix64(0))
        assert {i.rule.id for i, _ in result.applied} == {"e", "w"}
        assert label_totals(result.config)[label] == totals
        assert canonical_form(result.config) in oracle_successors(model.config, model.rules)

    def test_instance_bound_enforced(self, monkeypatch):
        # Six distinct instances, one per V; a multiplicity is not counted.
        model = parse_model("[skin: c*10 [V:] [V:] [V:] [V:] [V:] [V:]] "
                            "rule load: send-in V: c -> cl")
        monkeypatch.setattr(engine, "MAX_INSTANCES", 5)
        with pytest.raises(InstanceBoundExceeded):
            step(model.config, model.rules, SplitMix64(0))

    def test_conservation_under_pure_transfer(self):
        model = parse_model(
            "[skin: c*10 [V: ]] rule load: send-in V: c -> cl rule unload: send-out V: cl -> c")
        for _, result in chained_steps(model.config, model.rules, SplitMix64(4), 20):
            totals = label_totals(result.config).values()
            assert sum(n for counts in totals for n in counts.values()) == 10

    def test_structure_preserved_on_random_systems(self):
        for seed in range(40):
            config, rules = random_system(seed)
            count = len(list(iter_membranes(config.skin)))
            for before, result in chained_steps(config, rules, SplitMix64(seed), 3):
                assert len(list(iter_membranes(result.config.skin))) == count
                assert sorted(m.label for m in iter_membranes(result.config.skin)) == \
                    sorted(m.label for m in iter_membranes(before.skin))


class TestRun:
    def test_max_steps_zero(self):
        trace = run(drain_model(), max_steps=0)
        assert trace.steps == () and not trace.halted
        assert trace.final == drain_model().config

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
        built, checked = [], []
        to_config = engine._State.config
        monkeypatch.setattr(engine._State, "config",
                            lambda state: built.append(1) or to_config(state))
        model = drain_model()
        check = Multiset.__init__
        monkeypatch.setattr(Multiset, "__init__",
                            lambda ms, *args: checked.append(1) or check(ms, *args))
        trace = run(model, max_steps=10)
        assert len(trace.steps) == 2 and len(built) == 1  # only Trace.final
        assert checked == []  # the engine bounded every count it hands out

    @staticmethod
    def assert_run_is_chained_steps(model: Model, seed: int, max_steps: int) -> None:
        options = EngineOptions(seed=seed)
        trace = run(model, options, max_steps)
        chained = chained_steps(model.config, model.rules, SplitMix64(seed), max_steps)
        for recorded, (_, result) in zip(trace.steps, chained, strict=True):
            applied = tuple(engine.AppliedRule(i.rule.id, i.subject_id, i.host_id, k)
                            for i, k in result.applied)
            assert recorded.applied == applied
            assert recorded.halted == result.halted
            assert recorded.state == label_totals(result.config)
        assert trace.final == result.config
        assert tuple(iter_steps(model, options, max_steps)) == trace.steps

    def test_run_equals_chained_steps_on_random_systems(self):
        for make in (random_system, random_deep_system):
            for seed in range(200):
                config, rules = make(seed)
                self.assert_run_is_chained_steps(Model(config, tuple(rules)), seed, 6)

    def test_run_equals_chained_steps_on_corpus(self, corpus_valid):
        assert corpus_valid
        for path in corpus_valid:
            model = parse_model(path.read_bytes())
            for seed in (0, 3, 7):
                self.assert_run_is_chained_steps(model, seed, 200)

    def test_failure_carries_step_index(self, monkeypatch):
        # Step 1 binds h to each of the six V membranes.
        model = parse_model("[skin: a [V:] [V:] [V:] [V:] [V:] [V:]] "
                            "rule g: in skin: a -> b rule h: send-in V: b -> c")
        monkeypatch.setattr(engine, "MAX_INSTANCES", 5)
        with pytest.raises(InstanceBoundExceeded) as failure:
            run(model)
        assert failure.value.step == 1
        with pytest.raises(InstanceBoundExceeded) as failure:
            step(run(model, max_steps=1).final, model.rules, SplitMix64(0))
        assert failure.value.step is None

    def test_iter_steps_checks_arguments_before_the_first_step(self):
        with pytest.raises(ValueError, match="max_steps"):
            iter_steps(drain_model(), max_steps=-1)

    @pytest.mark.parametrize("max_steps", [2.5, True, "3"])
    def test_max_steps_must_be_an_int(self, max_steps):
        with pytest.raises(ValueError, match="max_steps must be an int"):
            iter_steps(drain_model(), max_steps=max_steps)
        with pytest.raises(ValueError, match="max_steps must be an int"):
            run(drain_model(), max_steps=max_steps)

    def test_label_total_overflow_at_start(self):
        model = parse_model(f"[skin: [A: a*{MAX_COUNT}] [A: a]]")
        with pytest.raises(CountOverflow, match="'A'.*'a'") as failure:
            label_totals(model.config)
        assert failure.value.step is None
        with pytest.raises(CountOverflow):
            iter_steps(model)
        with pytest.raises(CountOverflow):
            run(model, max_steps=0)

    def test_total_overflow_check_sees_the_whole_step(self):
        # p is applied before q, and the label total of b would pass
        # MAX_COUNT in between if q's consumption were charged after p's
        # production; the post-step total is exactly MAX_COUNT.
        model = parse_model(f"[skin: [A: b*{MAX_COUNT - 1}, x] [A: a]] "
                            "rule p: in A: a -> b*2 rule q: in A: x, b -> y")
        first = run(model, max_steps=1).steps[0]
        assert [a.rule for a in first.applied] == ["p", "q"]
        assert first.state["A"] == {"b": MAX_COUNT, "y": 1}

    def test_mutating_a_step_state_leaves_later_steps_alone(self):
        model = parse_model("[skin: a*3 [V: x] [W: y]] rule burn: in skin: a -> b")
        steps = iter_steps(model, max_steps=2)
        first = next(steps)
        first.state["V"]["x"] = 99
        second = next(steps)
        assert second.state == {"skin": {"b": 3}, "V": {"x": 1}, "W": {"y": 1}}
        line = list(trace_lines(0, RNG_ALGORITHM, "", [second]))[1]
        assert json.loads(line)["state"]["V"] == {"x": 1}

    def test_shared_records_start_over_past_the_ceiling(self, monkeypatch, corpus_valid):
        models = [build_bone_model(BoneParams(units=3, cycles=4, oc=3, ob=1))]
        models += [parse_model(path.read_bytes()) for path in corpus_valid]
        options = EngineOptions(seed=3)
        expected = [run(model, options, 200).steps for model in models]
        records = [a for made in expected[0] for a in made.applied]
        assert len({id(a) for a in records}) < len(records)  # shared between steps
        monkeypatch.setattr(engine, "_SHARED_RECORDS", 8)
        cleared = False
        for model, reference in zip(models, expected):
            steps = iter_steps(model, options, 200)
            kept, held = [], 0
            for made in steps:
                shared = steps.gi_frame.f_locals["shared"]
                assert len(shared) <= 8 + len(made.applied)
                cleared |= len(shared) < held
                held = len(shared)
                kept.append(made)
            assert (list(trace_lines(3, RNG_ALGORITHM, "", kept))
                    == list(trace_lines(3, RNG_ALGORITHM, "", reference)))
        assert cleared

    def test_seeds_can_pick_different_maximal_sets(self):
        model = parse_model(
            "[skin: a] rule r1: in skin: a -> b rule r2: in skin: a -> c")
        outcomes = {run(model, EngineOptions(seed=s), max_steps=3).steps[0].state["skin"].popitem()[0]
                    for s in range(16)}
        assert outcomes == {"b", "c"}


class TestOptions:
    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_must_be_unsigned_64_bit(self, seed):
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            EngineOptions(seed=seed)

    @pytest.mark.parametrize("value", [1.5, True, False, "1", None])
    @pytest.mark.parametrize("field", ["seed"])
    def test_fields_must_be_ints(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            EngineOptions(**{field: value})

    @pytest.mark.parametrize("options", [None, 5])
    def test_runs_check_options_before_the_first_step(self, options):
        with pytest.raises(ValueError, match="options must be an EngineOptions"):
            iter_steps(drain_model(), options)
        with pytest.raises(ValueError, match="options must be an EngineOptions"):
            run(drain_model(), options)

    def test_seed_range_ends_are_accepted(self):
        assert EngineOptions(seed=0).seed == 0
        assert EngineOptions(seed=(1 << 64) - 1).seed == (1 << 64) - 1
