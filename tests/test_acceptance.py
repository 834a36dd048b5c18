"""Acceptance suite: one test per release criterion, at fixed tolerances.

Every test prints a ``[PASS]``/``[FAIL]`` line for its criterion (visible
with ``pytest -s`` or in failure output).  Numeric expectations are token
arithmetic and are asserted exactly; the only tolerances here are the two
wall-clock budgets, asserted as stated.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

from mmsim.bone import density_series, micro_rules, transit_total, unit_spec
from mmsim.cli import main
from mmsim.coupling import CouplingSpec, carrier_cycle_length
from mmsim.engine import EngineOptions, run
from mmsim.oracle import OracleBoundExceeded, canonical_form, oracle_successors
from mmsim.parser import ParseError, Model, parse_model, serialize_model
from mmsim.rng import SplitMix64

from conftest import bone_run, chained_steps, random_system

CORPUS = Path(__file__).parent / "corpus"
BONE_FILE = CORPUS / "valid" / "bone_default.mm"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


BONE_CASES = (
    dict(oc=3, ob=1, cycles=1),
    dict(oc=3, ob=3, cycles=2),
    dict(oc=4, ob=0, cycles=3),
    dict(oc=10, ob=0, cycles=1),
    dict(oc=3, ob=1, cycles=3, units=2),
    dict(oc=0, ob=0, cycles=2),
    dict(oc=3, ob=1, cycles=0),
)


def test_criterion_1_oracle_equivalence():
    with criterion(1, "engine steps match the exhaustive oracle on 100+ small systems"):
        started = time.monotonic()
        systems_checked = 0
        steps_checked = 0
        seed = 0
        while systems_checked < 120 and seed < 2000:
            seed += 1
            config, rules = random_system(seed)
            nontrivial = False
            for before, result in chained_steps(config, rules, SplitMix64(seed * 31 + 7), 3):
                try:
                    successors = oracle_successors(before, rules, bound=64)
                except OracleBoundExceeded:
                    break
                assert canonical_form(result.config) in successors, f"seed {seed}"
                steps_checked += 1
                nontrivial = nontrivial or not result.halted
            if nontrivial:
                systems_checked += 1
        elapsed = time.monotonic() - started
        assert systems_checked >= 100, systems_checked
        assert steps_checked >= systems_checked
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_2_maximality_checks():
    with criterion(2, "10,000+ self-checked steps with zero violations"):
        total = 0
        # Long bone runs (the engine re-verifies every step).
        for params in (dict(oc=3, ob=1, cycles=450),
                       dict(oc=2, ob=2, cycles=420, units=2)):
            trace, _ = bone_run(**params)
            assert trace.halted
            total += len(trace.steps)
        # Corpus models, stepped under the same assertions.
        for path in sorted((CORPUS / "valid").glob("*.mm")):
            model = parse_model(path.read_bytes())
            trace = run(model, EngineOptions(seed=5), max_steps=60)
            total += len(trace.steps)
        # Random small systems.
        for seed in range(120):
            config, rules = random_system(seed)
            total += sum(1 for _ in chained_steps(config, rules, SplitMix64(seed), 4))
        assert total >= 10_000, total


def test_criterion_3_determinism(tmp_path, capsys):
    with criterion(3, "byte-identical replays; confluent bone model across seeds"):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["run", str(BONE_FILE), "--seed", "42", "--trace", str(a)]) == 0
        assert main(["run", str(BONE_FILE), "--seed", "42", "--trace", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

        model = parse_model(BONE_FILE.read_bytes())
        finals = {canonical_form(run(model, EngineOptions(seed=s), max_steps=100).final)
                  for s in range(10)}
        assert len(finals) == 1


def test_criterion_4_bone_arithmetic():
    with criterion(4, "reference remodelling arithmetic, each run under 1s"):
        started = time.monotonic()
        trace, p = bone_run(oc=3, ob=1, cycles=1)
        assert trace.halted
        assert density_series(trace, 1, p.capacity) == [(1, 0.4)]
        assert trace.steps[-1].state["T1"] == {"c": 8}
        assert time.monotonic() - started < 1.0

        started = time.monotonic()
        trace, p = bone_run(oc=3, ob=3, cycles=2)
        assert trace.halted
        assert density_series(trace, 1, p.capacity) == [(1, 0.5), (2, 0.5)]
        assert time.monotonic() - started < 1.0

        started = time.monotonic()
        trace, p = bone_run(oc=4, ob=0, cycles=3)
        assert trace.halted
        series = [d for _, d in density_series(trace, 1, p.capacity)]
        assert series and all(later <= earlier for earlier, later in zip(series, series[1:]))
        assert time.monotonic() - started < 1.0


def test_criterion_5_conservation():
    with criterion(5, "per-unit payload+slot total constant on every step, exactly"):
        for params in BONE_CASES:
            trace, p = bone_run(**params)
            expected = 10  # encode(0.5, 20) mineral tokens, free slots start at 0
            for unit in range(1, params.get("units", 1) + 1):
                for trace_step in trace.steps:
                    assert transit_total(trace_step.state, unit) == expected, (params, unit)


def test_criterion_6_protocol_timing():
    with criterion(6, "measured macro-cycle length equals the frozen constant"):
        trace, _ = bone_run(oc=3, ob=3, cycles=4)
        drains = [s.index for s in trace.steps
                  if any(a.rule == "V1_drain_done" for a in s.applied)]
        assert len(drains) == 4
        gaps = {later - earlier for earlier, later in zip(drains, drains[1:])}
        micro = micro_rules(CouplingSpec())
        assert gaps == {carrier_cycle_length(micro)}
        assert carrier_cycle_length(micro) == 12


def test_criterion_7_parser_round_trip_and_fuzz():
    with criterion(7, "round-trip idempotence on the corpus; 10,000 fuzz inputs"):
        corpus_texts = []
        for path in sorted((CORPUS / "valid").glob("*.mm")):
            first = parse_model(path.read_bytes())
            text = serialize_model(first)
            second = parse_model(text)
            assert serialize_model(second) == text, path.name
            corpus_texts.append(text.encode())

        rng = SplitMix64(2024)
        outcomes = {"ok": 0, "error": 0}
        for i in range(10_000):
            if i % 2 == 0:
                data = bytes(rng.below(256) for _ in range(rng.below(64)))
            else:
                base = bytearray(corpus_texts[rng.below(len(corpus_texts))])
                for _ in range(1 + rng.below(6)):
                    base[rng.below(len(base))] = rng.below(256)
                data = bytes(base)
            try:
                result = parse_model(data)
            except ParseError as err:
                assert err.line >= 1 and err.column >= 1
                outcomes["error"] += 1
            else:
                assert isinstance(result, Model)
                outcomes["ok"] += 1
        assert sum(outcomes.values()) == 10_000
        assert outcomes["error"] > 0


def test_criterion_8_drain_completeness():
    with criterion(8, "the step after the drain phase leaves zero tissue payload"):
        drains_seen = 0
        for params in BONE_CASES:
            trace, _ = bone_run(**params)
            for unit in range(1, params.get("units", 1) + 1):
                spec = unit_spec(unit)
                for i, trace_step in enumerate(trace.steps[:-1]):
                    carrier = trace_step.state.get(spec.carrier_label, {})
                    if carrier.get("p2", 0):
                        after = trace.steps[i + 1].state[spec.macro_label]
                        assert after.get(spec.payload_symbol, 0) == 0, (params, unit, i)
                        drains_seen += 1
        assert drains_seen > 0
