"""End-to-end and per-layer benchmark of the mmsim command line.

One run measures one workload for a fixed time and prints, as its last
line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``::

    python3 bench/run.py --workload bone_wide --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the ``mmsim`` CLI as a child process, one at a time,
and reports the end-to-end metrics (``wall_s``, ``setup_s``,
``instances_per_s``, ``peak_rss_mb``).  ``--trace 1`` drives the step loop
in process, times the calls into each module and reports the per-layer
metrics.  ``--all`` runs every workload in both modes and prints every
metric with its unit and sample count; ``--compare OLD NEW`` prints the
per-metric deltas between two files written by ``--all --out``.

The program is taken from ``src/`` of the checkout this file sits in, so
the benchmark needs no install step.  Every CLI run is checked against an
in-process reference; a mismatch counts as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import closing, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Full size and the tiny size of the smoke check: (units, cycles) for the
# bone workloads, steps for churn_dense.
SIZES = {"bone_wide": (50, 10), "bone_long": (1, 500), "churn_dense": 300}
TINY_SIZES = {"bone_wide": (3, 2), "bone_long": (1, 6), "churn_dense": 12}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "instances_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "engine.run_s": "s",
    "engine.enumerate_s": "s",
    "engine.step_s": "s",
    "engine.step_self_s": "s",
    "engine.per_step_s": "s",
    "engine.label_totals_s": "s",
    "engine.steps": "count",
    "engine.scanned": "count",
    "engine.candidates": "count",
    "engine.enumerate_yield": "ratio",
    "engine.applied": "count",
    "engine.select_yield": "ratio",
    "engine.multiplicity": "count",
    "engine.moves": "count",
    "core.validate_s": "s",
    "core.membranes": "count",
    "tracefile.dump_s": "s",
    "tracefile.model_hash_s": "s",
    "tracefile.bytes": "bytes",
    "parser.parse_s": "s",
    "parser.serialize_s": "s",
    "parser.model_bytes": "bytes",
    "bone.build_s": "s",
    "bone.density_series_s": "s",
    "cli.import_s": "s",
    "trace.overhead": "ratio",
}
# Counts that must repeat exactly between repeats of the traced run.
EXACT_COUNTS = ("engine.steps", "engine.scanned", "engine.candidates", "engine.applied",
                "engine.multiplicity", "engine.moves", "tracefile.bytes", "parser.model_bytes")

# Cheap CLI calls are repeated so that their median rests on more samples.
SETUP_RUNS_PER_WALL_RUN = 2
IMPORT_RUNS_PER_REPEAT = 3
MIN_SAMPLES = 3


def _import_mmsim():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "mmsim" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'mmsim'} not found; run from an mmsim checkout")
    sys.path.insert(0, str(SRC))
    import mmsim

    if Path(mmsim.__file__).resolve().parent != SRC / "mmsim":
        raise SystemExit(f"error: imported mmsim from {mmsim.__file__}, not {SRC}")
    return mmsim


mm = _import_mmsim()
from churn import churn_model  # noqa: E402  (bench/ is on sys.path as the script dir)


# ---------------------------------------------------------------------------
# Workload inputs and their in-process references

@dataclass
class Job:
    """One CLI invocation with the outputs it must produce."""

    args: list[str]
    trace_path: Path
    trace: bytes
    stdout_ok: Callable[[str], bool]


@dataclass
class Case:
    """A workload prepared for one seed: the model, the full and set-up
    CLI jobs, and the distinct instances its trace applies."""

    name: str
    seed: int
    model: object
    max_steps: int
    full: Job
    setup: Job
    instances: int
    model_text: str | None  # churn_dense's file text; None for the bone study
    bone: object  # BoneParams of the study the bone layer is timed on
    bone_trace: object  # its in-process Trace
    rows: list  # the density CSV rows expected from bone_trace
    reference: object  # the in-process Trace of the full run
    valid: bool  # the reference itself passed its checks


def _trace_bytes(trace, model) -> bytes:
    return mm.dump_trace(trace, mm.model_hash(model), 1).encode("utf-8")


def _bone_rows(trace, params) -> list[tuple[int, int, float]]:
    return [(unit, cycle, density)
            for unit in range(1, params.units + 1)
            for cycle, density in mm.density_series(trace, unit, params.capacity)]


def _csv_ok(expected_rows: list[tuple[int, int, float]]) -> Callable[[str], bool]:
    def check(stdout: str) -> bool:
        lines = stdout.splitlines()
        if not lines or lines[0] != "unit,cycle,density":
            return False
        try:
            rows = [(int(u), int(c), float(d)) for u, c, d in (ln.split(",") for ln in lines[1:])]
        except ValueError:
            return False
        return rows == expected_rows
    return check


def _summary_ok(trace) -> Callable[[str], bool]:
    """``mmsim run`` prints ``steps=N halted=B state={...}``."""
    state = trace.steps[-1].state if trace.steps else mm.label_totals(trace.final)
    expected = (f"steps={len(trace.steps)}", f"halted={'true' if trace.halted else 'false'}")

    def check(stdout: str) -> bool:
        parts = stdout.strip().split(" ", 2)
        if len(parts) != 3 or tuple(parts[:2]) != expected or not parts[2].startswith("state="):
            return False
        try:
            return json.loads(parts[2][len("state="):]) == state
        except ValueError:
            return False
    return check


def _bone_steps(params) -> int:
    """A step bound far above what the bone study needs to halt."""
    return 10 * (params.cycles + 1) * mm.carrier_cycle_length()


def _transit_constant(trace, units: int) -> bool:
    """The carrier protocol and micro rules preserve each unit's payload."""
    for unit in range(1, units + 1):
        if len({mm.transit_total(s.state, unit) for s in trace.steps}) > 1:
            return False
    return True


def prepare(name: str, seed: int, work: Path, tiny: bool = False) -> Case:
    size = (TINY_SIZES if tiny else SIZES)[name]
    options = mm.EngineOptions(seed=seed)
    full_trace, setup_trace = work / "full.jsonl", work / "setup.jsonl"
    if name == "churn_dense":
        text = churn_model(seed)
        model_path = work / "churn.mm"
        model_path.write_text(text, encoding="utf-8")
        model = mm.parse_model(text)
        reference = mm.run(model, options, size)
        setup_ref = mm.run(model, options, 0)
        common = ["run", str(model_path), "--seed", str(seed)]
        full = Job(common + ["--max-steps", str(size), "--trace", str(full_trace)], full_trace,
                   _trace_bytes(reference, model), _summary_ok(reference))
        setup = Job(common + ["--max-steps", "0", "--trace", str(setup_trace)], setup_trace,
                    _trace_bytes(setup_ref, model), _summary_ok(setup_ref))
        valid = mm.lint(model) == [] and not reference.halted and len(reference.steps) == size
        max_steps = size
        # churn_dense runs no bone code; the bone layer is timed on the
        # 1-unit x 10-cycle study (123 steps) so that every workload reports it.
        bone = mm.BoneParams(oc=3, ob=1, cycles=10, units=1)
        bone_trace = mm.run(mm.build_bone_model(bone), options, _bone_steps(bone))
        rows = _bone_rows(bone_trace, bone)
    else:
        units, cycles = size
        bone = mm.BoneParams(oc=3, ob=1, cycles=cycles, units=units)
        setup_params = mm.BoneParams(oc=3, ob=1, cycles=0, units=units)
        model, text = mm.build_bone_model(bone), None
        setup_model = mm.build_bone_model(setup_params)
        max_steps = _bone_steps(bone)
        reference = mm.run(model, options, max_steps)
        setup_ref = mm.run(setup_model, options, _bone_steps(setup_params))
        common = ["bone", "--units", str(units), "--oc", str(bone.oc), "--ob", str(bone.ob),
                  "--seed", str(seed)]
        rows = _bone_rows(reference, bone)
        full = Job(common + ["--cycles", str(cycles), "--trace", str(full_trace)], full_trace,
                   _trace_bytes(reference, model), _csv_ok(rows))
        setup = Job(common + ["--cycles", "0", "--trace", str(setup_trace)], setup_trace,
                    _trace_bytes(setup_ref, setup_model),
                    _csv_ok(_bone_rows(setup_ref, setup_params)))
        valid = (reference.halted and len(rows) == units * cycles
                 and _transit_constant(reference, units))
        bone_trace = reference
    instances = sum(len(s.applied) for s in reference.steps)
    return Case(name, seed, model, max_steps, full, setup, instances, text, bone, bone_trace,
                rows, reference, valid)


# ---------------------------------------------------------------------------
# End-to-end: the CLI as a child process

class Spawner:
    """Runs children one at a time through ``spawn.py``, which keeps their
    peak RSS free of this process's memory; see that file."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawn.py"))], cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str]) -> tuple[int, float, float, str]:
        """Exit code, wall seconds, peak RSS in MB and stdout of one child."""
        out_path = self.work / "stdout.txt"
        request = {"argv": argv, "stdout": str(out_path), "stderr": str(self.work / "stderr.txt")}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawn.py exited unexpectedly")
        answer = json.loads(reply)
        return (answer["code"], answer["wall_s"], answer["maxrss_kb"] / 1024.0,
                out_path.read_text(encoding="utf-8"))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def run_job(job: Job, spawner: Spawner) -> tuple[bool, float, float]:
    """Run a CLI job and check its exit code, trace bytes and stdout."""
    job.trace_path.unlink(missing_ok=True)
    code, wall, rss, stdout = spawner.run([sys.executable, "-m", "mmsim.cli", *job.args])
    ok = (code == 0 and job.trace_path.is_file()
          and job.trace_path.read_bytes() == job.trace and job.stdout_ok(stdout))
    return ok, wall, rss


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str, int]]  # name -> (value, unit, samples)

    def line(self) -> str:
        return json.dumps({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in self.metrics.items()},
        })


def measure_end_to_end(case: Case, seconds: float, spawner: Spawner) -> Result:
    walls, rates, rsses, setups = [], [], [], []
    attempted = failed = 0

    def attempt(job: Job) -> tuple[float, float]:
        nonlocal attempted, failed
        ok, wall, rss = run_job(job, spawner)
        attempted += 1
        failed += not (ok and case.valid)
        return wall, rss

    # Warm-up: compile bytecode and fill the file cache before timing.
    attempt(case.setup)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(walls) < MIN_SAMPLES:
        wall, rss = attempt(case.full)
        walls.append(wall)
        rates.append(case.instances / wall)
        rsses.append(rss)
        for _ in range(SETUP_RUNS_PER_WALL_RUN):
            setups.append(attempt(case.setup)[0])
    samples = {"wall_s": walls, "setup_s": setups, "instances_per_s": rates, "peak_rss_mb": rsses}
    return Result(attempted, failed, {
        name: (statistics.median(values), END_TO_END_UNITS[name], len(values))
        for name, values in samples.items()})


# ---------------------------------------------------------------------------
# Per-layer: the step loop driven in process

class Timer:
    """Accumulates wall time per layer name."""

    def __init__(self) -> None:
        self.total: Counter[str] = Counter()

    def __call__(self, name: str, fn, *args):
        start = time.perf_counter()
        value = fn(*args)
        self.total[name] += time.perf_counter() - start
        return value


def traced_run(case: Case, timer: Timer, counts: Counter):
    """``engine.run`` rebuilt from public calls, each one timed.

    Enumeration and validation are called once more beside ``step``, which
    runs them internally, so their share of the step can be read off.
    """
    model, rules = case.model, case.model.rules
    options = mm.EngineOptions(seed=case.seed)
    rng = mm.SplitMix64(options.seed)
    config = model.config
    steps = []
    for index in range(case.max_steps):
        labels = Counter(m.label for m in mm.iter_membranes(config.skin))
        counts["engine.scanned"] += sum(labels[rule.subject] for rule in rules)
        candidates = timer("engine.enumerate_s", mm.enumerate_instances, config, rules)
        result = timer("engine.step_s", mm.step, config, rules, rng, options)
        timer("core.validate_s", mm.validate, result.config)
        config = result.config
        state = timer("engine.label_totals_s", mm.label_totals, config)
        counts["engine.candidates"] += len(candidates)
        counts["engine.applied"] += len(result.applied)
        counts["engine.multiplicity"] += sum(k for _, k in result.applied)
        counts["engine.moves"] += sum(inst.rule.moves_membrane for inst, _ in result.applied)
        applied = tuple(mm.engine.AppliedRule(inst.rule.id, inst.subject_id, inst.host_id, k)
                        for inst, k in result.applied)
        steps.append(mm.TraceStep(index, applied, result.halted, state))
        if result.halted:
            break
    counts["engine.steps"] = len(steps)
    return mm.Trace(options.seed, mm.RNG_ALGORITHM, tuple(steps), config)


def _import_seconds(spawner: Spawner) -> float:
    code, wall, _, _ = spawner.run([sys.executable, "-c", "import mmsim.cli"])
    if code != 0:
        raise RuntimeError("python -c 'import mmsim.cli' failed")
    return wall


def traced_repeat(case: Case) -> tuple[bool, dict[str, float], Counter]:
    """One pass over every layer on the workload's inputs."""
    timer, counts = Timer(), Counter()
    ok = case.valid
    text = case.model_text
    if text is None:
        # The bone CLI never parses; parse the model's canonical text, which
        # is what ``mmsim run`` does with a model written by ``--emit-model``.
        text = mm.serialize_model(case.model)
    counts["parser.model_bytes"] = len(text.encode("utf-8"))
    timer("parser.parse_s", mm.parse_model, text)
    timer("parser.serialize_s", mm.serialize_model, case.model)
    timer("bone.build_s", mm.build_bone_model, case.bone)

    start = time.perf_counter()
    trace = traced_run(case, timer, counts)
    loop_s = time.perf_counter() - start
    options = mm.EngineOptions(seed=case.seed)
    untraced = timer("engine.run_s", mm.run, case.model, options, case.max_steps)
    ok = ok and trace.steps == untraced.steps == case.reference.steps

    digest = timer("tracefile.model_hash_s", mm.model_hash, case.model)
    dumped = timer("tracefile.dump_s", mm.dump_trace, untraced, digest, 1).encode("utf-8")
    counts["tracefile.bytes"] = len(dumped)
    ok = ok and dumped == case.full.trace

    bone_trace = case.bone_trace if case.name == "churn_dense" else untraced
    rows = timer("bone.density_series_s", _bone_rows, bone_trace, case.bone)
    ok = ok and rows == case.rows

    times = dict(timer.total)
    times["trace.overhead"] = loop_s / times["engine.run_s"]
    return ok, times, counts


def measure_per_layer(case: Case, seconds: float, spawner: Spawner) -> Result:
    samples: dict[str, list[float]] = {}
    imports: list[float] = []
    first: Counter | None = None
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or attempted < MIN_SAMPLES:
        ok, times, counts = traced_repeat(case)
        first = first if first is not None else counts
        attempted += 1
        failed += not (ok and all(counts[k] == first[k] for k in EXACT_COUNTS))
        for name, value in times.items():
            samples.setdefault(name, []).append(value)
        imports.extend(_import_seconds(spawner) for _ in range(IMPORT_RUNS_PER_REPEAT))

    n = attempted
    med = {name: statistics.median(values) for name, values in samples.items()}
    metrics = {name: (value, PER_LAYER_UNITS[name], n) for name, value in med.items()}
    step_self = [s - e for s, e in zip(samples["engine.step_s"], samples["engine.enumerate_s"])]
    metrics["engine.step_self_s"] = (statistics.median(step_self), "s", n)
    metrics["engine.per_step_s"] = (med["engine.step_s"] / first["engine.steps"], "s", n)
    for name in EXACT_COUNTS:
        metrics[name] = (first[name], PER_LAYER_UNITS[name], n)
    metrics["core.membranes"] = (sum(1 for _ in mm.iter_membranes(case.model.config.skin)),
                                 "count", n)
    metrics["engine.enumerate_yield"] = (
        first["engine.candidates"] / first["engine.scanned"], "ratio", n)
    metrics["engine.select_yield"] = (
        first["engine.applied"] / first["engine.candidates"], "ratio", n)
    metrics["cli.import_s"] = (statistics.median(imports), "s", len(imports))
    ordered = {name: metrics[name] for name in PER_LAYER_UNITS}
    return Result(attempted, failed, ordered)


# ---------------------------------------------------------------------------
# Entry points

@contextmanager
def work_dir():
    """A scratch directory inside the checkout, removed afterwards."""
    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass


def measure(name: str, seed: int, seconds: float, traced: bool, tiny: bool = False) -> Result:
    with work_dir() as work, closing(Spawner(work)) as spawner:
        case = prepare(name, seed, work, tiny)
        return (measure_per_layer if traced else measure_end_to_end)(case, seconds, spawner)


def print_metrics(result: Result, prefix: str = "") -> None:
    for name, (value, unit, n) in result.metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"{prefix}{name:26s} {shown} {unit:6s} n={n}")
    print(f"{prefix}attempted={result.attempted} failed={result.failed}")


def run_all(seed: int, seconds: float, out: str | None) -> int:
    results: dict[str, dict] = {}
    failed = 0
    for name in SIZES:
        results[name] = {}
        for mode, traced in (("end_to_end", False), ("per_layer", True)):
            result = measure(name, seed, seconds, traced)
            print(f"{name} {mode}")
            print_metrics(result, "  ")
            failed += result.failed
            results[name][mode] = {
                "attempted": result.attempted, "failed": result.failed,
                "metrics": {k: {"value": v, "unit": u, "n": n}
                            for k, (v, u, n) in result.metrics.items()},
            }
    if out is not None:
        doc = {"python": platform.python_version(), "nproc": os.cpu_count(), "seed": seed,
               "seconds": seconds, "workloads": results}
        Path(out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if failed else 0


def compare(old_path: str, new_path: str) -> int:
    old = json.loads(Path(old_path).read_text(encoding="utf-8"))["workloads"]
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))["workloads"]
    for mode in ("end_to_end", "per_layer"):
        print(f"{mode}: change of new ({new_path}) against old ({old_path})")
        for name in new:
            if name not in old:
                continue
            cells = []
            for metric, entry in new[name][mode]["metrics"].items():
                before = old[name][mode]["metrics"].get(metric, {}).get("value")
                if before:
                    cells.append(f"{metric}={100.0 * (entry['value'] - before) / before:+.1f}%")
            print(f"  {name:12s} " + " ".join(cells))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload in both modes, printed as a table")
    parser.add_argument("--out", help="with --all: write the results to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="print per-metric deltas between two --all result files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.all:
        return run_all(args.seed, args.seconds, args.out)
    if args.workload is None:
        parser.error("one of --workload, --all or --compare is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_metrics(result)
    print(result.line())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
