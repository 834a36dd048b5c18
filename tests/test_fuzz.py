"""Grammar-aware fuzzing of the command line.

Model text is generated from the grammar in ``mmsim.parser``: counts at and
past ``MAX_COUNT``, long digit runs and leading zeros, nesting up to and
past ``MAX_DEPTH``, wide sibling lists, every rule form with and without a
promoter, ``()``, and keywords in name positions, sometimes with one token
dropped.  Flag vectors for ``run`` and ``bone`` include out-of-range
values.  Every case goes through ``cli.main`` in process at a fixed seed
and must end in an exit status, with no traceback and at most one
``error:`` line.  Step counts and sizes are kept small so every case
finishes quickly.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from mmsim.cli import main
from mmsim.core import MAX_COUNT, MAX_DEPTH
from mmsim.parser import KEYWORDS
from mmsim.rng import SplitMix64

SEED = 2026
MODEL_CASES = 800
BONE_CASES = 300

LABELS = ("skin", "a", "V", "CU", "T")
SYMBOLS = ("x", "y", "go", "p0", "_f")
NAME_KEYWORDS = (*sorted(KEYWORDS), "send-in", "send-out")
COUNTS = ("1", "2", "7", "0003", "0" * 30 + "5", str(MAX_COUNT))
BAD_COUNTS = ("0", "000", str(MAX_COUNT + 1), "9" * 40)
RULE_FORMS = ("in", "endo", "exo", "send-in", "send-out")


class _Generator:
    """Model text and flag vectors drawn from one seeded generator."""

    def __init__(self, seed: int):
        self.rng = SplitMix64(seed)

    def below(self, n: int) -> int:
        return self.rng.below(n)

    def pick(self, pool):
        return pool[self.below(len(pool))]

    def chance(self, percent: int) -> bool:
        return self.below(100) < percent

    def name(self, pool) -> str:
        return self.pick(NAME_KEYWORDS) if self.chance(1) else self.pick(pool)

    def contents(self) -> str:
        items = []
        for _ in range(1 + self.below(3)):
            item = self.name(SYMBOLS)
            if self.chance(50):
                item += "*" + self.pick(BAD_COUNTS if self.chance(1) else COUNTS)
            items.append(item)
        return ", ".join(items)

    def membrane(self, depth: int) -> str:
        head = "[" + self.name(LABELS)
        if self.chance(70):
            head += ": " + (self.contents() if self.chance(80) else "")
        children = []
        if depth < 4:
            for _ in range(self.below(3)):
                children.append(self.membrane(depth + 1))
        return " ".join([head, *children, "]"])

    def structure(self) -> str:
        shape = self.below(10)
        if shape == 0:  # two chains up to, or just past, the depth limit
            depth = MAX_DEPTH + self.pick((-3, -2, -1, 0))
            label = self.name(LABELS)
            chain = f"[{label}: x " * depth + "]" * depth
            # Moves nest one chain in the other, past the limit.
            return f"[skin: {chain} {chain}]\nrule mv: endo {label} into {label}: x -> x"
        if shape == 1:  # a wide sibling list
            siblings = " ".join(self.membrane(3) for _ in range(20 + self.below(40)))
            return f"[skin: x {siblings}]"
        return self.membrane(1)

    def rule(self, index: int) -> str:
        form = self.pick(RULE_FORMS)
        subject = self.name(LABELS)
        if form == "endo":
            body = f"endo {subject} into {self.name(LABELS)}"
        elif form == "exo":
            body = f"exo {subject} from {self.name(LABELS)}"
        else:
            body = f"{form} {subject}"
        rhs = "()" if self.chance(20) else self.contents()
        text = f"rule {self.name((f'r{index}',))}: {body}: {self.contents()} -> {rhs}"
        if self.chance(30):
            text += f" if {self.contents()}"
        return text

    def model(self) -> str:
        parts = [self.structure(), *(self.rule(i) for i in range(self.below(5)))]
        text = "\n".join(parts) + "\n"
        if self.chance(8):  # one token dropped
            tokens = text.split(" ")
            del tokens[self.below(len(tokens))]
            text = " ".join(tokens)
        return text

    def flags(self, options: dict[str, tuple[tuple, tuple]]) -> list[str]:
        """Each flag present at even odds, with one of its good values or,
        rarely, one of its bad ones."""
        argv: list[str] = []
        for flag, (good, bad) in options.items():
            if self.chance(50):
                argv += [flag, self.pick(bad if bad and self.chance(8) else good)]
        return argv


def _check(argv: list[str], what: str, capsys) -> None:
    try:
        status = main(argv)
    except SystemExit as exc:  # argparse usage errors
        status = exc.code
    except Exception as exc:
        pytest.fail(f"{argv} on {what} raised {exc!r}")
    out = capsys.readouterr()
    assert status in (0, 1, 2), (argv, what, status)
    assert "Traceback" not in out.out + out.err, (argv, what)
    errors = [line for line in out.err.splitlines() if "error:" in line]
    assert len(errors) <= 1, (argv, what, errors)


def _paths(tmp_path: Path) -> tuple[str, str]:
    """A writable file path and one in a directory that does not exist."""
    return str(tmp_path / "out"), str(tmp_path / "missing" / "out")


def test_generated_models_through_cli(tmp_path, capsys):
    gen = _Generator(SEED)
    writable, unwritable = _paths(tmp_path)
    run_flags = {
        "--seed": (("0", "5", str((1 << 64) - 1)), ("-1", str(1 << 64))),
        "--trace": ((writable,), (unwritable,)),
        "--snapshot-every": (("1", "3"), ("-1", "0", "x")),
    }
    model = tmp_path / "model.mm"
    for _ in range(MODEL_CASES):
        text = gen.model()
        model.write_text(text)
        if gen.chance(25):
            argv = ["validate", str(model)]
        else:
            # Always bounded: a generated model need not halt.
            steps = "-1" if gen.chance(5) else gen.pick(("0", "1", "3", "20", "20"))
            argv = ["run", str(model), "--max-steps", steps, *gen.flags(run_flags)]
        _check(argv, text[:300], capsys)


def test_generated_bone_flags_through_cli(tmp_path, capsys):
    gen = _Generator(SEED)
    writable, unwritable = _paths(tmp_path)
    counts = (("0", "3", str(MAX_COUNT)), ("-1", str(MAX_COUNT + 1)))
    bone_flags = {
        "--units": (("1", "3"), ("-1", "0", "two")),
        "--density": (("0", "0.5", "1"), ("-0.1", "1.5", "nan", "inf", "dense")),
        "--capacity": (("1", "20", "2000000", str(MAX_COUNT)), ("-1", "0", str(MAX_COUNT + 1))),
        "--oc": counts,
        "--ob": counts,
        "--cycles": (("0", "1", "2"), ("-1", str(MAX_COUNT + 1))),
        "--seed": (("0", "5", str((1 << 64) - 1)), ("-1", str(1 << 64))),
        "--emit-model": ((writable + ".mm",), (unwritable,)),
        "--trace": ((writable + ".jsonl",), (unwritable,)),
    }
    for _ in range(BONE_CASES):
        argv = ["bone", *gen.flags(bone_flags)]
        _check(argv, "bone", capsys)
