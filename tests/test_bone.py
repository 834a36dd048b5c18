"""Density encoding, BMU micro dynamics, and the composed bone model."""

from __future__ import annotations

import pytest

from mmsim.bone import (
    BoneParams,
    build_bone_model,
    decode_density,
    density_series,
    encode_density,
    micro_rules,
)
from mmsim.core import build_configuration
from mmsim.coupling import CouplingSpec
from mmsim.engine import label_totals, run, step
from mmsim.oracle import canonical_form, oracle_successors
from mmsim.parser import lint, parse_model, serialize_model
from mmsim.rng import SplitMix64

from conftest import bone_run, chained_steps


class TestDensityCodec:
    @pytest.mark.parametrize("density,capacity,tokens", [
        (0.0, 20, 0), (0.0, 7, 0),
        (1.0, 20, 20),
        (0.5, 20, 10),
        (0.125, 20, 3),   # 2.5 rounds away from zero
        (0.33, 20, 7),
        (1.0, 1, 1),
    ])
    def test_encode(self, density, capacity, tokens):
        assert encode_density(density, capacity) == tokens

    def test_encode_domain_error(self):
        with pytest.raises(ValueError):
            encode_density(1.5, 20)
        with pytest.raises(ValueError):
            encode_density(-0.1, 20)
        with pytest.raises(ValueError, match="capacity must be an int"):
            encode_density(0.5, True)
        with pytest.raises(ValueError, match="capacity must be an int"):
            encode_density(0.5, 20.0)
        with pytest.raises(ValueError, match="density must be an int or a float"):
            encode_density(True, 20)
        with pytest.raises(ValueError, match="density must be an int or a float"):
            encode_density("0.5", 20)

    def test_decode(self):
        assert decode_density(8, 20) == 0.4
        assert decode_density(0, 20) == 0.0

    def test_decode_domain_error(self):
        with pytest.raises(ValueError):
            decode_density(21, 20)
        with pytest.raises(ValueError):
            decode_density(-1, 20)
        with pytest.raises(ValueError, match="tokens must be an int"):
            decode_density(True, 20)
        with pytest.raises(ValueError, match="tokens must be an int"):
            decode_density(2.0, 20)
        with pytest.raises(ValueError, match="capacity must be an int"):
            decode_density(1, True)

    def test_round_trip_on_grid(self):
        for tokens in range(21):
            assert encode_density(decode_density(tokens, 20), 20) == tokens


class TestMicroRules:
    def test_hand_simulated_two_steps(self):
        cfg = build_configuration(
            ("skin", {}, [("BMU", {"_oc": 3, "_cb": 10, "_ob": 1}, [])]))
        rules = list(micro_rules(CouplingSpec()))
        steps = list(chained_steps(cfg, rules, SplitMix64(0), 2))
        assert [label_totals(result.config)["BMU"] for _, result in steps] == [
            {"_cb": 7, "_f": 3, "_ob": 1}, {"_cb": 7, "_f": 2, "_cn": 1}]
        for before, result in steps:
            assert canonical_form(result.config) in oracle_successors(before, rules)

    def test_formation_requires_prior_resorption(self):
        cfg = build_configuration(("skin", {}, [("BMU", {"_ob": 5, "_cb": 4}, [])]))
        result = step(cfg, list(micro_rules(CouplingSpec())), SplitMix64(0))
        assert result.halted  # no free slots, no osteoclasts: nothing fires


class TestBuild:
    def test_structure_and_validity(self):
        model = build_bone_model(BoneParams(oc=2, ob=1, cycles=3, units=2))
        assert lint(model) == []
        skin = model.config.skin
        assert [m.label for m in skin.children] == ["T1", "CU1", "T2", "CU2"]
        assert len(model.rules) == 2 * 21
        expected = build_configuration(
            ("skin", {}, [
                ("T1", {"c": 10}, []),
                ("CU1", {}, [("BMU1", {"_oc": 2, "_ob": 1}, []),
                             ("V1", {"p0": 1, "cyc": 3}, [])]),
                ("T2", {"c": 10}, []),
                ("CU2", {}, [("BMU2", {"_oc": 2, "_ob": 1}, []),
                             ("V2", {"p0": 1, "cyc": 3}, [])]),
            ]))
        assert model.config == expected  # ids included: both number in pre-order

    def test_units_share_their_rule_sides(self):
        # Every unit's rules are built from the same bodies, so a model
        # holds one multiset per distinct body whatever its size.
        def side_objects(units: int) -> int:
            rules = build_bone_model(BoneParams(units=units, oc=3, ob=1)).rules
            return len({id(side) for r in rules
                        for side in (r.consumed, r.produced, r.promoter) if side is not None})

        assert side_objects(5) == side_objects(1)

    def test_zero_stocks_omit_entries(self):
        model = build_bone_model(BoneParams(density=0.0, oc=0, ob=0, cycles=0))
        state = label_totals(model.config)
        assert state["T1"] == {} and state["BMU1"] == {} and state["V1"] == {"p0": 1}

    def test_serialized_model_matches_committed_fixture(self, corpus_valid):
        fixture = next(p for p in corpus_valid if p.name == "bone_default.mm")
        model = build_bone_model(BoneParams(oc=3, ob=1, cycles=1))
        assert serialize_model(model) == fixture.read_text()
        reparsed = parse_model(fixture.read_bytes())
        assert reparsed.config == model.config
        assert reparsed.rules == model.rules


class TestRemodelling:
    def test_no_osteoclasts_constant(self):
        trace, p = bone_run(oc=0, ob=5, cycles=3)
        assert [d for _, d in density_series(trace, 1, p.capacity)] == [0.5] * 3

    def test_total_resorption(self):
        trace, p = bone_run(oc=10, ob=0, cycles=1)
        assert density_series(trace, 1, p.capacity) == [(1, 0.0)]

    def test_cycles_zero_density_unchanged(self):
        trace, p = bone_run(oc=3, ob=1, cycles=0)
        assert trace.halted
        assert trace.steps[-1].state["T1"] == {"c": 10}
        assert density_series(trace, 1, p.capacity) == []

    def test_deposited_change_bounded_by_oc_per_cycle(self):
        trace, p = bone_run(oc=2, ob=1, cycles=4)
        series = [int(round(d * p.capacity)) for _, d in density_series(trace, 1, p.capacity)]
        previous = 10
        for count in series:
            assert previous - 2 <= count <= previous
            previous = count


class TestDensitySeries:
    def test_empty_trace(self):
        model = build_bone_model(BoneParams(oc=1, ob=1, cycles=1))
        trace = run(model, max_steps=0)
        assert density_series(trace, 1, 20) == []

    def test_unit_out_of_range(self):
        trace, p = bone_run(oc=1, ob=1, cycles=1)
        with pytest.raises(ValueError):
            density_series(trace, 2, p.capacity)

    def test_truncated_run_yields_completed_cycles_only(self):
        model = build_bone_model(BoneParams(oc=0, ob=0, cycles=3))
        trace = run(model, max_steps=20)  # one full cycle plus a partial one
        assert density_series(trace, 1, 20) == [(1, 0.5)]

    def test_multi_unit_series_match_single_unit_runs(self):
        multi, p = bone_run(oc=3, ob=1, cycles=2, units=3, seed=13)
        single, _ = bone_run(oc=3, ob=1, cycles=2, units=1, seed=99)
        reference = density_series(single, 1, p.capacity)
        for unit in (1, 2, 3):
            assert density_series(multi, unit, p.capacity) == reference


class TestParams:
    @pytest.mark.parametrize("bad", [
        dict(capacity=0), dict(density=1.5), dict(density=-0.2),
        dict(oc=-1), dict(ob=-1), dict(cycles=-1), dict(units=0),
        dict(units=2.5), dict(capacity=2.5), dict(units=True), dict(capacity=True),
        dict(oc=True), dict(ob=1.0), dict(cycles="1"), dict(density="0.5"),
        dict(density=True), dict(density=None),
    ])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            BoneParams(**bad)
