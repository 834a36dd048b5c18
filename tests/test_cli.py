"""Exit codes, trace files, and CSV output of the command line interface."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import mmsim
from mmsim.bone import BoneParams, build_bone_model, density_series
from mmsim.cli import _build_argparser, main
from mmsim.core import MAX_COUNT, MAX_DEPTH
from mmsim.engine import AppliedRule, TraceStep
from mmsim.parser import parse_model, serialize_model
from mmsim.tracefile import model_hash, trace_lines

from conftest import bone_run

ROOT = Path(__file__).parent.parent
CORPUS = Path(__file__).parent / "corpus"
BONE = CORPUS / "valid" / "bone_default.mm"


class TestValidate:
    def test_bundled_bone_model_is_clean(self, capsys):
        assert main(["validate", str(BONE)]) == 0
        out = capsys.readouterr()
        assert out.out == "" and out.err == ""

    def test_syntax_error_reports_line(self, capsys):
        assert main(["validate", str(CORPUS / "invalid" / "zero_count.mm")]) == 1
        assert ":3:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", str(CORPUS / "nope.mm")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("text,where", [
        ("[s: a*99999999999999999999]\n", "1:7"),
        ("[s: a*9223372036854775807, a]\n", "1:28"),
    ], ids=["count-token", "repeated-symbol"])
    def test_count_above_max_count_is_one_error_line(self, command, text, where, tmp_path,
                                                     capsys):
        model = tmp_path / "big.mm"
        model.write_text(text)
        assert main([command, str(model)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.count("\n") == 1 and out.err.startswith(f"{model}:{where}: error: ")

    def test_lint_findings_fail_validation(self, capsys):
        assert main(["validate", str(CORPUS / "valid" / "warn.mm")]) == 1
        err = capsys.readouterr().err
        assert "warning" in err and "self-entry" in err


class TestRun:
    def test_summary_line(self, capsys):
        assert main(["run", str(BONE), "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("steps=15 halted=true ")
        assert '"T1":{"c":8}' in out

    def test_confluent_across_seeds(self, capsys):
        lines = set()
        for seed in range(10):
            assert main(["run", str(BONE), "--seed", str(seed)]) == 0
            lines.add(capsys.readouterr().out)
        assert len(lines) == 1

    def test_max_steps_zero(self, capsys):
        assert main(["run", str(BONE), "--max-steps", "0"]) == 0
        assert capsys.readouterr().out.startswith("steps=0 halted=false")

    def test_trace_file_is_jsonl_and_replayable(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(["run", str(BONE), "--trace", str(trace)]) == 0
        capsys.readouterr()
        lines = trace.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["seed"] == 0 and header["rng"] == "splitmix64/fisher-yates"
        assert len(header["model_hash"]) == 64
        records = [json.loads(line) for line in lines[1:]]
        assert [r["step"] for r in records] == list(range(15))
        assert records[-1]["halted"] is True
        assert all("state" in r for r in records)  # default snapshot_every=1

    def test_same_invocation_byte_identical_traces(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["run", str(BONE), "--seed", "7", "--trace", str(a)]) == 0
        assert main(["run", str(BONE), "--seed", "7", "--trace", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_snapshot_every_thins_states(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["run", str(BONE), "--trace", str(trace),
                     "--snapshot-every", "4"]) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in trace.read_text().splitlines()[1:]]
        with_state = [r["step"] for r in records if "state" in r]
        assert with_state == [0, 4, 8, 12, 14]  # every 4th plus the final step

    @pytest.mark.parametrize("every", [1.5, True, "2"])
    def test_snapshot_every_must_be_an_int(self, every):
        with pytest.raises(ValueError, match="snapshot_every must be an int"):
            list(trace_lines(0, "rng", "", [], every))

    def test_rule_ids_are_escaped_as_json_dumps_escapes_them(self):
        ids = ['a"b', "r\u00e9gle", "back\\slash"]
        applied = tuple(AppliedRule(rule, 1, None, 1) for rule in ids)
        line = list(trace_lines(0, "r", "", [TraceStep(0, applied, False, {})]))[1]
        for rule in ids:
            assert f'"rule":{json.dumps(rule)},' in line
        assert [a["rule"] for a in json.loads(line)["applied"]] == ids

    @pytest.mark.parametrize("every", [0, 1.5])
    def test_snapshot_every_is_checked_at_the_call(self, every):
        # Like iter_steps, a bad argument raises before any line is pulled.
        with pytest.raises(ValueError, match="snapshot_every"):
            trace_lines(0, "r", "", [], every)

    def test_parse_error_exit_one(self, capsys):
        assert main(["run", str(CORPUS / "invalid" / "bad_token.mm")]) == 1
        capsys.readouterr()

    def test_missing_file_exit_two(self, capsys):
        assert main(["run", str(CORPUS / "ghost.mm")]) == 2
        capsys.readouterr()

    def test_count_overflow_is_one_error_line(self, tmp_path, capsys):
        model = tmp_path / "overflow.mm"
        model.write_text("[s: a*2]\nrule g: in s: a -> b*5000000000000000000\n")
        assert main(["run", str(model)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.count("\n") == 1 and out.err.startswith("error: step 0: ")
        assert "'g'" in out.err and "'b'" in out.err

    def test_overflow_names_a_later_step(self, tmp_path, capsys):
        model = tmp_path / "late.mm"
        model.write_text("[s: a*2]\nrule g: in s: a -> b\n"
                         "rule h: in s: b -> c*5000000000000000000\n")
        assert main(["run", str(model)]) == 1
        out = capsys.readouterr()
        assert out.err.count("\n") == 1 and out.err.startswith("error: step 1: ")

    def test_runaway_growth_ends_in_one_count_overflow_line(self, tmp_path, capsys):
        model = tmp_path / "double.mm"
        model.write_text("[skin: a]\nrule g: in skin: a -> a*2\n")
        assert main(["run", str(model)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"error: step 62: rule 'g' would raise the total of 'a' in "
                           f"label 'skin' above {MAX_COUNT}\n")

    def test_large_multiplicity_is_one_instance(self, tmp_path, capsys):
        # Two million copies of one binding are one applicable instance.
        model = tmp_path / "many.mm"
        model.write_text("[skin: a*2000000]\nrule r: in skin: a -> b\n")
        assert main(["run", str(model)]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert out.out == 'steps=2 halted=true state={"skin":{"b":2000000}}\n'

    @pytest.mark.parametrize("max_steps", ["0", "10"])
    def test_label_total_overflow_at_start_is_one_error_line(self, max_steps, tmp_path, capsys):
        model = tmp_path / "totals.mm"
        model.write_text("[skin: [A: a*5000000000000000000] [A: a*5000000000000000000]]\n")
        assert main(["run", str(model), "--max-steps", max_steps]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.count("\n") == 1 and out.err.startswith("error: label 'A' ")
        assert "'a'" in out.err

    def test_label_total_overflow_in_a_step_is_one_error_line(self, tmp_path, capsys):
        model = tmp_path / "growth.mm"
        model.write_text("[skin: [A: a, b*4611686018427387903] [A: b*4611686018427387903]]\n"
                         "rule g: in A: a -> a, b\n")
        assert main(["run", str(model)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.count("\n") == 1 and out.err.startswith("error: step 1: ")
        assert "'g'" in out.err and "'b'" in out.err and "'A'" in out.err

    @pytest.mark.parametrize("rules,snapshot_every,failing_step", [
        ("rule g: in s: a -> b\nrule h: in s: b -> c*5000000000000000000\n", "1", 1),
        ("rule g: in s: a -> b\nrule h: in s: b -> c\n"
         "rule k: in s: c -> d*5000000000000000000\n", "2", 2),
    ], ids=["step-1", "step-2-snapshot-every-2"])
    def test_failed_run_keeps_partial_trace(self, rules, snapshot_every, failing_step,
                                            tmp_path, capsys):
        model, trace = tmp_path / "late.mm", tmp_path / "late.jsonl"
        model.write_text("[s: a*2]\n" + rules)
        assert main(["run", str(model), "--trace", str(trace),
                     "--snapshot-every", snapshot_every]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: step {failing_step}: ")
        lines = trace.read_text().splitlines()
        assert json.loads(lines[0])["seed"] == 0
        records = [json.loads(line) for line in lines[1:]]
        assert [r["step"] for r in records] == list(range(failing_step))
        assert "state" in records[-1]  # the last line always carries its state

    @pytest.mark.parametrize("flags,message", [
        (["--max-steps", "-1"], "max-steps must be >= 0"),
        (["--max-steps", "-1", "--trace"], "max-steps must be >= 0"),
        (["--snapshot-every", "0"], "snapshot-every must be >= 1"),
        (["--snapshot-every", "0", "--trace"], "snapshot-every must be >= 1"),
    ], ids=["max-steps", "max-steps-trace", "snapshot-every", "snapshot-every-trace"])
    def test_bad_step_flag_is_one_error_line(self, flags, message, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        if flags[-1] == "--trace":
            flags = [*flags, str(trace)]
        assert main(["run", str(BONE), *flags]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {message}\n"
        assert not trace.exists()

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_seed_outside_unsigned_64_bits_is_one_error_line(self, seed, capsys):
        assert main(["run", str(BONE), "--seed", seed]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: seed must be an unsigned 64-bit integer\n"


class TestBone:
    def test_reference_row(self, capsys):
        assert main(["bone", "--density", "0.5", "--capacity", "20",
                     "--oc", "3", "--ob", "1", "--cycles", "1"]) == 0
        assert capsys.readouterr().out == "unit,cycle,density\n1,1,0.4\n"

    def test_large_capacity_row(self, capsys):
        assert main(["bone", "--capacity", "2000000", "--density", "1", "--cycles", "1",
                     "--oc", "3", "--ob", "1"]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert out.out == "unit,cycle,density\n1,1,0.999999\n"

    def test_inert_micro_three_rows(self, capsys):
        assert main(["bone", "--oc", "0", "--ob", "0", "--cycles", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["unit,cycle,density", "1,1,0.5", "1,2,0.5", "1,3,0.5"]

    def test_density_domain_error(self, capsys):
        assert main(["bone", "--density", "1.5"]) == 1
        assert "density" in capsys.readouterr().err

    def test_units_rows_grouped_by_unit(self, capsys):
        assert main(["bone", "--units", "2", "--oc", "2", "--ob", "2",
                     "--cycles", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["unit,cycle,density",
                       "1,1,0.5", "1,2,0.5", "2,1,0.5", "2,2,0.5"]

    def test_emit_model_validates_clean(self, tmp_path, capsys):
        emitted = tmp_path / "bone.mm"
        assert main(["bone", "--oc", "3", "--ob", "1", "--cycles", "1",
                     "--emit-model", str(emitted)]) == 0
        capsys.readouterr()
        assert main(["validate", str(emitted)]) == 0
        assert emitted.read_text() == BONE.read_text()

    @pytest.mark.parametrize("seed", ["0", "3"])
    def test_emitted_model_replays_byte_for_byte(self, seed, tmp_path, capsys):
        flags = ["--units", "3", "--cycles", "4", "--oc", "3", "--ob", "1", "--seed", seed]
        emitted, bone_trace, run_trace = (tmp_path / n for n in ("bone.mm", "b.jsonl", "r.jsonl"))
        assert main(["bone", *flags, "--emit-model", str(emitted), "--trace", str(bone_trace)]) == 0
        assert main(["run", str(emitted), "--seed", seed, "--trace", str(run_trace)]) == 0
        capsys.readouterr()
        assert run_trace.read_bytes() == bone_trace.read_bytes()

    def test_trace_written(self, tmp_path, capsys):
        trace = tmp_path / "bone.jsonl"
        assert main(["bone", "--oc", "1", "--ob", "1", "--trace", str(trace)]) == 0
        capsys.readouterr()
        # The header, then every step of the run.
        lines = trace.read_text().splitlines()
        assert len(lines) == BoneParams(oc=1, ob=1).run_steps + 1

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_seed_outside_unsigned_64_bits_is_one_error_line(self, seed, tmp_path, capsys):
        trace = tmp_path / "bone.jsonl"
        assert main(["bone", "--seed", seed, "--trace", str(trace)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: seed must be an unsigned 64-bit integer\n"
        assert not trace.exists()

    # A huge but valid --cycles is left out: that run would not end.
    @pytest.mark.parametrize("flags,domain", [
        (["--cycles", str(MAX_COUNT + 1)], "cycles must be within [0, "),
        (["--capacity", str(1 << 64), "--density", "1"], "capacity must be within [1, "),
        (["--oc", str(MAX_COUNT + 1)], "oc must be within [0, "),
        (["--ob", str(MAX_COUNT + 1)], "ob must be within [0, "),
    ], ids=["cycles", "capacity", "oc", "ob"])
    def test_count_above_max_count_is_one_error_line(self, flags, domain, capsys):
        assert main(["bone", *flags]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {domain}{MAX_COUNT}]\n"

    @pytest.mark.parametrize("density,oc,ob", [(0.5, 2, 1), (0.0, 0, 0), (1.0, 3, 0)])
    def test_csv_equals_density_series_of_each_unit(self, density, oc, ob, capsys):
        assert main(["bone", "--units", "3", "--cycles", "3", "--density", str(density),
                     "--oc", str(oc), "--ob", str(ob)]) == 0
        rows = capsys.readouterr().out.splitlines()
        trace, params = bone_run(density=density, oc=oc, ob=ob, cycles=3, units=3)
        expected = [f"{unit},{cycle},{d}" for unit in (1, 2, 3)
                    for cycle, d in density_series(trace, unit, params.capacity)]
        assert rows == ["unit,cycle,density", *expected] and len(expected) == 9

    def test_trace_memory_does_not_grow_with_cycles(self, tmp_path, capsys):
        def peak(cycles: int) -> int:
            tracemalloc.start()
            try:
                assert main(["bone", "--cycles", str(cycles), "--oc", "3", "--ob", "1",
                             "--trace", str(tmp_path / f"{cycles}.jsonl")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # compiles the rule table outside the measured runs
        short, long = peak(40), peak(400)
        capsys.readouterr()
        assert long - short < 1 << 20

    def test_bad_flag_value_is_domain_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bone", "--cycles", "many"])
        assert exit_info.value.code == 1
        capsys.readouterr()


@pytest.mark.parametrize("command", [["run", str(BONE)], ["bone"]])
def test_unwritable_trace_path_is_one_io_error_line(command, tmp_path, capsys):
    trace = tmp_path / "no-such-dir" / "t.jsonl"
    assert main([*command, "--trace", str(trace)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and out.err.startswith(f"{trace}: error: ")


def test_readme_synopsis_lists_every_flag():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n+```\n(.*?)^```", readme, re.M | re.S).group(1)
    documented: dict[str, set[str]] = {}
    for line in block.splitlines():
        usage = line.split("#")[0]
        if usage.startswith("mmsim "):
            flags = documented.setdefault(usage.split()[1], set())
        flags.update(re.findall(r"--[a-z][a-z-]*", usage))
    sub = next(a for a in _build_argparser()._actions
               if isinstance(a, argparse._SubParsersAction))
    accepted = {name: {o for o in parser._option_string_actions
                       if o.startswith("--") and o != "--help"}
                for name, parser in sub.choices.items()}
    assert documented == accepted


def test_readme_python_api_and_bone_example_hold(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    api = re.search(r"^## Python API\n+```python\n(.*?)^```", readme, re.M | re.S).group(1)
    exec(api, {})  # imports every name the block lists
    example = re.search(r"^```sh\n\$ mmsim (bone [^\n]*)\n(.*?)^```", readme, re.M | re.S)
    assert main(example.group(1).split()) == 0
    assert capsys.readouterr().out == example.group(2)


def nested_chain(depth: int) -> str:
    """``[a: x [a: x ... ]]``: *depth* membranes, each inside the last."""
    return "[a: x " * depth + "]" * depth + "\n"


@pytest.mark.parametrize("command", ["validate", "run"])
def test_nesting_past_max_depth_is_one_error_line(command, tmp_path, capsys):
    model = tmp_path / "deep.mm"
    model.write_text(nested_chain(1200))
    assert main([command, str(model)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    # The '[' that opens level MAX_DEPTH + 1.
    column = MAX_DEPTH * len("[a: x ") + 1
    assert out.err == (f"{model}:1:{column}: error: "
                       f"membranes nest deeper than {MAX_DEPTH} levels\n")


@pytest.mark.parametrize("command", [["validate"], ["run", "--trace"]])
def test_nesting_at_max_depth_runs(command, tmp_path, capsys):
    model, trace = tmp_path / "deep.mm", tmp_path / "deep.jsonl"
    model.write_text(nested_chain(MAX_DEPTH))
    argv = [command[0], str(model), *command[1:]]
    if command[-1] == "--trace":
        argv.append(str(trace))
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.err == ""
    if command[0] == "run":
        assert out.out == f'steps=1 halted=true state={{"a":{{"x":{MAX_DEPTH}}}}}\n'
        assert len(trace.read_text().splitlines()) == 2


def _python(*args: str, env: dict[str, str | None] | None = None,
            **kwargs) -> subprocess.CompletedProcess:
    """Run this interpreter on *args* with the package's sources importable
    and the variables in *env* set, or removed where the value is None."""
    src = str(Path(mmsim.__file__).resolve().parent.parent)
    env = {name: value for name, value in {**os.environ, **(env or {})}.items()
           if value is not None}
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *args], env=env, text=True, timeout=120, **kwargs)


def test_cli_import_loads_no_dataclasses_oracle_or_hashlib():
    # Every CLI process pays for what `import mmsim.cli` loads; hashlib
    # loads the OpenSSL binding, and the density codec needs neither
    # decimal nor fractions.
    code = ("import sys; before = set(sys.modules); import mmsim.cli; "
            "print(sorted({'array', 'dataclasses', 'decimal', 'fractions', 'mmsim.oracle',"
            " 'hashlib', '_hashlib'}"
            " & (sys.modules.keys() - before)))")
    out = _python("-c", code, capture_output=True, check=True)
    assert out.stdout == "[]\n"


_HASHED_MODELS = """
import json, sys
from pathlib import Path
from mmsim.bone import BoneParams, build_bone_model
from mmsim.parser import parse_model
from mmsim.tracefile import model_hash
models = [parse_model(p.read_bytes()) for p in sorted(Path(sys.argv[1]).glob("*.mm"))]
models.append(build_bone_model(BoneParams(units=3)))
print(json.dumps({"hashlib": "hashlib" in sys.modules,
                  "digests": [model_hash(m) for m in models]}))
"""


def test_model_hash_is_the_sha256_of_the_serialization():
    models = [parse_model(p.read_bytes()) for p in sorted((CORPUS / "valid").glob("*.mm"))]
    models.append(build_bone_model(BoneParams(units=3)))
    expected = [hashlib.sha256(serialize_model(m).encode("utf-8")).hexdigest()
                for m in models]
    assert [model_hash(m) for m in models] == expected
    # Again with neither built-in SHA-256 module importable, so the
    # hashlib fallback does the hashing.
    blocked = "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
    out = _python("-c", blocked + _HASHED_MODELS, str(CORPUS / "valid"),
                  capture_output=True, check=True)
    assert json.loads(out.stdout) == {"hashlib": True, "digests": expected}


@pytest.mark.parametrize("argv", [
    ["run", str(CORPUS / "valid" / "minimal.mm")],
    # Over 8 KiB of CSV, so a print meets the closed pipe before the flush.
    ["bone", "--units", "50", "--cycles", "20"],
    # Buffered help text meets the closed pipe only when argparse exits.
    ["bone", "--help"],
])
def test_closed_stdout_is_one_io_error_line(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        # An empty PYTHONUNBUFFERED keeps stdout block-buffered, the default.
        out = _python("-m", "mmsim.cli", *argv, env={"PYTHONUNBUFFERED": ""},
                      stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr and "Exception ignored" not in out.stderr
    assert sum("error:" in line for line in out.stderr.splitlines()) == 1


MINIMAL = str(CORPUS / "valid" / "minimal.mm")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv,name", [
    (["bone"], "<stdout>"),
    (["run", MINIMAL], "<stdout>"),
    (["run", MINIMAL, "--trace", "/dev/full"], "/dev/full"),
    (["bone", "--trace", "/dev/full"], "/dev/full"),
    (["bone", "--emit-model", "/dev/full"], "/dev/full"),
])
def test_failed_write_is_one_io_error_line(argv, name):
    # A full device fails the write itself, which names no file.  An empty
    # PYTHONUNBUFFERED keeps stdout block-buffered, the default.
    with open("/dev/full", "w") as full:
        out = _python("-m", "mmsim.cli", *argv, env={"PYTHONUNBUFFERED": ""},
                      stdout=full if name == "<stdout>" else subprocess.DEVNULL,
                      stderr=subprocess.PIPE)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr and "Exception ignored" not in out.stderr
    assert out.stderr == f"{name}: error: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", None])
def test_help_to_full_device_is_one_io_error_line(unbuffered):
    # Unbuffered, the help text fails in argparse's own write, which
    # argparse would drop; block-buffered, it fails at the flush before exit.
    with open("/dev/full", "w") as full:
        out = _python("-m", "mmsim.cli", "bone", "--help",
                      env={"PYTHONUNBUFFERED": unbuffered}, stdout=full, stderr=subprocess.PIPE)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert out.stderr == "<stdout>: error: No space left on device\n"
