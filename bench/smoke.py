"""Smoke check of the benchmark at tiny sizes, with no timing bound.

    python3 bench/smoke.py

Runs every workload in both modes on tiny inputs and fails unless every
metric named in ``BENCHMARK.json`` is produced with its unit, every
correctness check passes, and the checks do catch a wrong trace.
"""

from __future__ import annotations

import json
from contextlib import closing

import run
from churn import churn_model


def check_definition() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.SIZES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def check_churn_generator() -> None:
    texts = {churn_model(seed) for seed in range(5)}
    assert len(texts) == 5, "the seed must change the churn model"
    for seed in range(5):
        text = churn_model(seed)
        assert text == churn_model(seed), "churn model must depend only on the seed"
        assert run.mm.lint(run.mm.parse_model(text)) == []


def check_workloads() -> None:
    for name in run.SIZES:
        for traced, units in ((False, run.END_TO_END_UNITS), (True, run.PER_LAYER_UNITS)):
            result = run.measure(name, seed=7, seconds=0, traced=traced, tiny=True)
            assert result.attempted >= 1 and result.failed == 0, (name, traced, result)
            assert {k: u for k, (_, u, _) in result.metrics.items()} == units, (name, traced)
            for metric, (value, _, n) in result.metrics.items():
                assert value > 0 and n >= 1, (name, metric, value, n)
            line = json.loads(result.line())
            assert line["correct"] is True and set(line) == {"correct", "attempted", "failed",
                                                               "metrics"}
            print(f"ok {name} {'per_layer' if traced else 'end_to_end'}: "
                  f"{result.attempted} attempted")


def check_failures_are_counted() -> None:
    with run.work_dir() as work, closing(run.Spawner(work)) as spawner:
        for name in run.SIZES:
            case = run.prepare(name, seed=7, work=work, tiny=True)
            assert run.run_job(case.full, spawner)[0], name
            good = case.full.trace
            case.full.trace = good.replace(b'"halted":false', b'"halted":true', 1)
            assert not run.run_job(case.full, spawner)[0], f"{name}: a wrong trace passed"
            case.full.trace = good
            case.full.args.append("--no-such-flag")
            assert not run.run_job(case.full, spawner)[0], f"{name}: a failing exit passed"


if __name__ == "__main__":
    check_definition()
    check_churn_generator()
    check_workloads()
    check_failures_are_counted()
    print("smoke ok")
