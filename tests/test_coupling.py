"""The carrier protocol: shape, timing, independence of composed units."""

from __future__ import annotations

import re

import pytest

from mmsim.bone import micro_rules, unit_spec
from mmsim.core import MAX_COUNT, rewrite, send_out
from mmsim.coupling import (
    CouplingSpec,
    carrier_cycle_length,
    couple,
    cycle_end_step,
    generate_carrier_protocol,
)
from mmsim.engine import EngineOptions, Trace, run
from mmsim.oracle import canonical_form, oracle_successors
from mmsim.rng import SplitMix64

from conftest import MICRO_STOCK, bone_run, chained_steps, random_micro_rules

# The bone's micro rules: two levels, so two wait phases.
BONE_MICRO = micro_rules(CouplingSpec())


class TestSpec:
    def test_defaults_are_consistent(self):
        spec = CouplingSpec()
        assert spec.cargo_symbols == ("_cl", "_cb", "_cn", "_cr")
        rules = {r.id: r for r in generate_carrier_protocol(spec, BONE_MICRO)}
        assert rules["V_depart"].consumed["p0"] == 1 and rules["V_restart"].consumed["p13"] == 1

    @pytest.mark.parametrize("name", ["_c", "_cl", "_cb"])
    def test_reserved_prefix_collision(self, name):
        with pytest.raises(ValueError, match="reserved '_' prefix"):
            CouplingSpec(payload_symbol=name)

    def test_generated_name_collision(self):
        for name in ("p3", "p14", "p20"):
            with pytest.raises(ValueError):
                CouplingSpec(payload_symbol=name)

    @pytest.mark.parametrize("name", ["", "1x", "rule", None])
    def test_names_are_checked_as_symbols(self, name):
        with pytest.raises(ValueError, match=f"invalid symbol {name!r}"):
            CouplingSpec(carrier_label=name)

    def test_payload_and_cycle_symbols_differ(self):
        with pytest.raises(ValueError, match="payload and cycle symbols must differ"):
            CouplingSpec(payload_symbol="x", cycle_symbol="x")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            CouplingSpec(macro_label="X", micro_label="X")


class TestProtocol:
    def test_emits_nineteen_rules_over_the_four_labels(self):
        spec = CouplingSpec()
        rules = generate_carrier_protocol(spec, BONE_MICRO)
        assert len(rules) == 19
        labels = {r.subject for r in rules} | {r.host for r in rules if r.host}
        assert labels == {"T", "BMU", "CU", "V"}
        assert len({r.id for r in rules}) == 19

    def test_every_produced_symbol_is_generated_or_payload(self):
        spec = CouplingSpec()
        allowed = {f"p{i}" for i in range(14)} | set(spec.cargo_symbols) | {
            spec.payload_symbol, spec.cycle_symbol}
        for rule in generate_carrier_protocol(spec, BONE_MICRO):
            assert set(rule.consumed) <= allowed
            assert set(rule.produced) <= allowed

    def test_departure_and_restart_each_pay_one_cycle_token(self):
        spec = CouplingSpec()
        rules = {r.id: r for r in generate_carrier_protocol(spec, BONE_MICRO)}
        assert rules["V_depart"].consumed["cyc"] == 1
        assert rules["V_restart"].consumed["cyc"] == 1
        others = [r for r in rules.values() if r.id not in ("V_depart", "V_restart")]
        assert all(r.consumed["cyc"] == 0 for r in others)


def drain_steps(trace: Trace, unit: int = 1) -> list[int]:
    marker = f"V{unit}_drain_done"
    return [s.index for s in trace.steps if any(a.rule == marker for a in s.applied)]


class TestTiming:
    def test_first_cycle_lead_in(self):
        drains = drain_steps(bone_run(oc=3, ob=1, cycles=2)[0])
        # round trip k + 1 drains in the step after round trip k deposits;
        # for the first one, k = 0 stands for the lead-in
        assert drains[0] == cycle_end_step(0) + 1

    @pytest.mark.parametrize("cycles", [1, 2, 3])
    def test_total_run_length(self, cycles):
        trace, _ = bone_run(oc=3, ob=1, cycles=cycles)
        assert trace.halted
        # the last deposit step, then the recorded halting step
        assert len(trace.steps) == cycle_end_step(cycles, BONE_MICRO) + 2

    @pytest.mark.parametrize("units", [1, 2, 3])
    @pytest.mark.parametrize("oc,ob", [(0, 0), (3, 1), (1, 5)])
    @pytest.mark.parametrize("density", [0.0, 0.5, 1.0])
    def test_cli_step_bound_reaches_halt(self, density, oc, ob, units):
        # bone_run takes the steps ``mmsim bone`` takes, and the run halts
        # in the last of them, or in the deposit step before it when the
        # last round trip brings nothing back to the tissue.
        for cycles in range(4):
            for seed in range(5):
                trace, p = bone_run(seed, density=density, oc=oc, ob=ob, cycles=cycles,
                                    units=units)
                early = cycles > 0 and not trace.steps[-1].state["T1"].get("c")
                assert trace.halted and len(trace.steps) == p.run_steps - early, (cycles, seed)

    @pytest.mark.parametrize("units", [1, 2, 3])
    @pytest.mark.parametrize("oc,ob", [(0, 0), (3, 1), (1, 5)])
    @pytest.mark.parametrize("density", [0.0, 0.5, 1.0])
    def test_round_trips_end_at_cycle_end_step(self, density, oc, ob, units):
        # The schedule the density sampler reads, checked against the rules
        # that fire: deposit and restart fire only in the steps
        # cycle_end_step(k), and the carrier holds the last phase before each.
        last_phase = "p13"
        for cycles in range(5):
            ends = {cycle_end_step(k, BONE_MICRO) for k in range(1, cycles + 1)}
            for seed in range(5):
                trace, _ = bone_run(seed, density=density, oc=oc, ob=ob, cycles=cycles,
                                    units=units)
                for unit in range(1, units + 1):
                    landing = {f"V{unit}_deposit", f"V{unit}_restart"}
                    fired = {s.index for s in trace.steps
                             if any(a.rule in landing for a in s.applied)}
                    assert fired <= ends, (cycles, seed, unit)
                    # every round trip but the last restarts
                    assert {cycle_end_step(k, BONE_MICRO) for k in range(1, cycles)} <= fired
                    for end in ends:
                        assert trace.steps[end - 1].state[f"V{unit}"].get(last_phase) == 1

    def test_no_cycle_tokens_means_carrier_never_leaves(self):
        trace, _ = bone_run(oc=3, ob=1, cycles=0)
        assert trace.halted and len(trace.steps) == 1
        assert trace.steps[0].state["V1"] == {"p0": 1}
        assert trace.steps[0].state["T1"] == {"c": 10}

    def test_phase_exclusivity_every_step(self):
        trace, _ = bone_run(oc=3, ob=1, cycles=3)
        phases = {f"p{i}" for i in range(14)}
        for step in trace.steps:
            carrier = step.state["V1"]
            assert sum(n for sym, n in carrier.items() if sym in phases) == 1

    @pytest.mark.parametrize("k", [-1, True, 1.5, "1", None])
    def test_cycle_end_step_rejects_a_bad_round_trip(self, k):
        with pytest.raises(ValueError, match="k must be"):
            cycle_end_step(k)


class TestComposition:
    @pytest.mark.parametrize("cycles,payload,message", [
        (-1, 10, f"cycles must be within [0, {MAX_COUNT}]"),
        (True, 10, "cycles must be an int, got True"),
        (2.0, 10, "cycles must be an int, got 2.0"),
        (1, -2, f"payload must be within [0, {MAX_COUNT}]"),
        (1, 1.5, "payload must be an int, got 1.5"),
    ], ids=["cycles-negative", "cycles-bool", "cycles-float", "payload-negative", "payload-float"])
    def test_cycles_and_payload_are_checked_by_name(self, cycles, payload, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            couple([(CouplingSpec(), BONE_MICRO, payload, None)], cycles)

    def test_two_units_embed_the_single_unit_trace(self):
        single, _ = bone_run(5, oc=3, ob=1, cycles=2)
        double, _ = bone_run(9, oc=3, ob=1, cycles=2, units=2)
        unit_labels = {"T1", "CU1", "BMU1", "V1"}
        assert len(single.steps) == len(double.steps)
        for mine, theirs in zip(single.steps, double.steps):
            assert {a for a in mine.applied} == {
                a for a in theirs.applied if a.rule.startswith(("V1_", "BMU1_"))}
            assert {k: v for k, v in theirs.state.items() if k in unit_labels} == {
                k: v for k, v in mine.state.items() if k != "skin"}

    def test_halting_configuration_reached_with_micro_halting(self):
        trace, _ = bone_run(cycles=1)
        assert trace.halted
        assert trace.steps[-1].state["V1"] == {"p13": 1}

    def test_units_with_different_schedules_match_their_solo_runs(self):
        # A 12-step and a 13-step cycle: the units drift apart, and each
        # still runs as it would alone, then rests once its solo run halts.
        units = [(unit_spec(1), micro_rules(unit_spec(1)), 10, {"_oc": 3, "_ob": 1}),
                 (unit_spec(2), two_stage_formation(unit_spec(2)), 10, {"_oc": 2, "_ob": 3})]
        ends = [cycle_end_step(3, micro) + 2 for _, micro, _, _ in units]
        assert ends == [39, 42]
        composed = run(couple(units, 3), EngineOptions(seed=4), max(ends))
        solos = [run(couple([unit], 3), EngineOptions(seed=7), end)
                 for unit, end in zip(units, ends)]
        assert all(solo.halted for solo in solos) and [len(solo.steps) for solo in solos] == ends
        assert composed.halted and len(composed.steps) == 42
        for (spec, *_), solo in zip(units, solos):
            labels = {spec.macro_label, spec.micro_label, spec.coupling_label, spec.carrier_label}
            own = (f"{spec.carrier_label}_", f"{spec.micro_label}_")
            for index, theirs in enumerate(composed.steps):
                mine = solo.steps[min(index, len(solo.steps) - 1)]
                assert {k: v for k, v in theirs.state.items() if k in labels} == {
                    k: v for k, v in mine.state.items() if k != "skin"}, (spec, index)
                assert sorted((a.rule, a.count) for a in theirs.applied
                              if a.rule.startswith(own)) == sorted(
                    (a.rule, a.count) for a in mine.applied), (spec, index)


def two_stage_formation(spec: CouplingSpec) -> tuple:
    """The bone's micro rules with formation split into two stages: three
    micro levels."""
    bmu = spec.micro_label
    return (
        rewrite(f"{bmu}_resorb", bmu, {"_oc": 1, "_cb": 1}, {"_f": 1}),
        rewrite(f"{bmu}_form", bmu, {"_ob": 1, "_f": 1}, {"_g": 1}),
        rewrite(f"{bmu}_grow", bmu, {"_g": 1}, {"_cn": 1}),
    )


class TestMicroLevels:
    def test_one_wait_per_level_named_after_its_first_rule(self):
        spec = unit_spec(1)
        waits = [r.id for r in generate_carrier_protocol(spec, two_stage_formation(spec))
                 if "_wait_" in r.id]
        assert waits == ["V1_wait_resorb", "V1_wait_form", "V1_wait_grow"]
        assert [r.id for r in generate_carrier_protocol(spec, micro_rules(spec))
                if "_wait_" in r.id] == ["V1_wait_resorb", "V1_wait_form"]

    def test_wait_ids_stay_distinct_when_a_prefix_is_dropped(self):
        # Without its prefix, level 1's BMU_x would name level 2's x.
        spec = CouplingSpec()
        micro = (rewrite("BMU_x", "BMU", {"_oc": 1, "_cb": 1}, {"_f": 1}),
                 rewrite("x", "BMU", {"_ob": 1, "_f": 1}, {"_cn": 1}))
        model = couple([(spec, micro, 2, {"_oc": 1, "_ob": 1})], cycles=1)
        waits = [r.id for r in model.rules if "_wait_" in r.id]
        assert waits == ["V_wait_BMU_x", "V_wait_x"]

    def test_schedule_follows_the_levels(self):
        spec = CouplingSpec()
        assert carrier_cycle_length() == 10 and cycle_end_step(1) == 11
        assert carrier_cycle_length(BONE_MICRO) == 12 and cycle_end_step(1, BONE_MICRO) == 13
        micro = two_stage_formation(spec)
        assert carrier_cycle_length(micro) == 13 and cycle_end_step(1, micro) == 14
        assert len(generate_carrier_protocol(spec, micro)) == 20
        assert len(generate_carrier_protocol(spec, ())) == 17

    def test_two_stage_formation_comes_back_whole(self):
        spec = unit_spec(1)
        micro = two_stage_formation(spec)
        model = couple([(spec, micro, 10, {"_oc": 3, "_ob": 3})], cycles=1)
        end = cycle_end_step(1, micro) + 2
        trace = run(model, EngineOptions(seed=0), end)
        assert trace.halted and len(trace.steps) == end == 16
        final = trace.steps[-1].state
        assert final["T1"] == {"c": 10}  # density 0.5 at capacity 20
        assert final.get("BMU1", {}) == {}

    @pytest.mark.parametrize("loop", [
        rewrite("BMU_back", "BMU", {"_cn": 1}, {"_g": 1}),
        rewrite("BMU_x", "BMU", {"_x": 1}, {"_x": 1}),
        rewrite("BMU_y", "BMU", {"_oc": 1}, {"_y": 1}, promoter={"_y": 1}),
    ])
    def test_cyclic_micro_rules_rejected(self, loop):
        spec = CouplingSpec()
        micro = two_stage_formation(spec) + (loop,)
        with pytest.raises(ValueError, match="fed by a cycle.*BMU_"):
            generate_carrier_protocol(spec, micro)
        with pytest.raises(ValueError, match="cycle"):
            carrier_cycle_length(micro)

    @pytest.mark.parametrize("stray", [
        send_out("BMU_leak", "BMU", {"_cb": 1}, {"_cb": 1}),
        rewrite("T_decay", "T", {"c": 1}, {}),
    ])
    def test_micro_rules_must_be_micro_rewrites(self, stray):
        spec = CouplingSpec()
        with pytest.raises(ValueError, match="is not an 'in BMU' rewrite"):
            generate_carrier_protocol(spec, micro_rules(spec) + (stray,))

    @pytest.mark.parametrize("seed", range(40))
    def test_micro_membrane_quiescent_at_pickup(self, seed):
        # Against the oracle: in the step that picks up, no instance of a
        # micro rule is applicable any more.
        spec = CouplingSpec()
        micro, levels = random_micro_rules(seed, spec.micro_label, spec.cargo_delivered,
                                           spec.cargo_remodelled)
        assert carrier_cycle_length(micro) == 10 + levels
        rng = SplitMix64(seed)
        stock = {sym: 1 + rng.below(3) for sym in MICRO_STOCK}
        model = couple([(spec, micro, 1 + rng.below(4), stock)], cycles=2)
        pickups = 0
        for before, result in chained_steps(model.config, model.rules, rng,
                                            cycle_end_step(2, micro) + 2):
            if any(instance.rule.id == "V_pickup_done" for instance, _ in result.applied):
                pickups += 1
                assert oracle_successors(before, micro) == {canonical_form(before)}
        assert result.halted and pickups == 2
