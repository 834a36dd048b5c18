"""A catalogue of hand-made mutants that the test suite must kill.

Each mutant is one exact text replacement in one module of ``src/mmsim``,
with the test files that must catch it and a line on what it breaks.  Run

    python tests/mutants.py

to apply each mutant, alone, to a temporary copy of ``src``, ``tests``,
``demos`` and ``README.md``, and run ``python -m pytest -x -q -p
no:cacheprovider`` on the mutant's test files against that copy.  A mutant is killed when a test fails.  The runner
first runs every listed test file on the unmutated copy, which must pass.
It exits 1 if that baseline fails or any mutant is not killed, and writes
nothing into the checkout.

An anchor must occur exactly once in its file (``tests/test_mutants.py``
asserts it), so a change that rewrites mutated code has to restate the
mutant here rather than lose it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str                # module file under src/mmsim
    anchor: str              # exact text, present once in the file
    replacement: str
    tests: tuple[str, ...]   # test files under tests/, run in this order
    breaks: str


STEP = ("test_engine.py", "test_oracle.py", "test_acceptance.py", "test_golden.py")
ORACLE = ("test_oracle.py", "test_acceptance.py")
RNG = ("test_rng.py", "test_golden.py")
BONE = ("test_coupling.py", "test_cli.py", "test_bone.py")

MUTANTS = (
    # The engine's step.
    Mutant("engine-no-mover-lock", "engine.py",
           "            locked.update((sid, hid))", "            pass", STEP,
           "a membrane can take part in two moves of one step"),
    Mutant("engine-exo-lands-in-host", "engine.py",
           "moves.append((sid, hid if e.form is _ENDO else parent[hid]))",
           "moves.append((sid, hid))", STEP,
           "an exo move leaves its subject inside the membrane it exits"),
    Mutant("engine-send-out-keeps-product", "engine.py",
           "sink = parent[sid] if e.form is _SEND_OUT else sid", "sink = sid", STEP,
           "a send-out delivers into its subject, not the subject's parent"),
    Mutant("engine-send-in-promoter-ignored", "engine.py",
           "_fits(here, e.promoter) and _fits(there, e.consumed)", "_fits(there, e.consumed)",
           STEP, "a send-in rule applies without its promoter"),
    Mutant("engine-send-in-promoter-in-parent", "engine.py",
           "_fits(here, e.promoter) and _fits(there, e.consumed)",
           "_fits(there, e.promoter) and _fits(there, e.consumed)", STEP,
           "a send-in rule reads its promoter in the parent, not the subject"),
    Mutant("engine-move-full-multiplicity", "engine.py",
           "            k = 1\n            locked.update", "            locked.update", STEP,
           "a move consumes its trigger as many times as it fits"),
    Mutant("engine-shuffle-skipped", "engine.py",
           "    rng.shuffle(order)", "    pass", STEP,
           "selection follows rule order instead of the seeded shuffle"),
    # The oracle's search.
    Mutant("oracle-no-maximality-filter", "oracle.py",
           "if not any(_max_copies(b, residual, locked) for b in bindings):", "if True:",
           ORACLE, "the oracle accepts successors that could still add an instance"),
    Mutant("oracle-nothing-contested", "oracle.py",
           "contested[i] = not claimed.isdisjoint(claims)", "contested[i] = False", ORACLE,
           "the oracle tries every binding at full multiplicity only"),
    Mutant("oracle-move-several-copies", "oracle.py",
           "return min(k, 1) if b.moves else k", "return k", ORACLE,
           "the oracle lets a move take several copies"),
    Mutant("oracle-no-mover-lock", "oracle.py",
           "if not locked.isdisjoint(b.locks):", "if False:", ORACLE,
           "the oracle lets a membrane take part in two moves"),
    Mutant("oracle-locks-not-contested", "oracle.py",
           "claims = b.locks | {(b.source, s) for s, _ in b.needs}",
           "claims = {(b.source, s) for s, _ in b.needs}", ORACLE,
           "two moves sharing only a membrane are not seen to compete"),
    # The block shuffle and the shared records.
    Mutant("rng-no-block-fallback", "rng.py",
           "if max(draws) >= _TWO64 - n:", "if False:", RNG,
           "a block keeps a draw that below() would reject"),
    Mutant("rng-fallback-advances-first", "rng.py",
           "            if max(draws) >= _TWO64 - n:\n                break",
           "            if max(draws) >= _TWO64 - n:\n"
           "                state = (state + _ADVANCE) & MASK64\n                break",
           RNG, "a rejected block's draws are skipped, not redrawn one by one"),
    Mutant("engine-records-never-cleared", "engine.py",
           "            shared.clear()", "            pass", STEP,
           "a run's shared records grow with its steps"),
    Mutant("engine-record-key-without-count", "engine.py",
           "key = i, sid, hid, k", "key = i, sid, hid", STEP,
           "a record of one multiplicity is reused for another"),
    Mutant("engine-record-key-without-host", "engine.py",
           "key = i, sid, hid, k", "key = i, sid, k", STEP,
           "a record of one host is reused for another"),
    # The lane decode and a bone run's length.
    Mutant("rng-lane-word-order", "rng.py", '"Q8x"', '"8xQ"', RNG,
           "each lane's high word is read instead of its draw"),
    Mutant("rng-big-endian-decode", "rng.py", 'struct.Struct("<"', 'struct.Struct(">"', RNG,
           "the lanes are decoded in the wrong byte order"),
    Mutant("bone-run-one-step-short", "bone.py",
           "micro_rules(CouplingSpec())) + 2", "micro_rules(CouplingSpec())) + 1", BONE,
           "a bone run stops before its halting step"),
    Mutant("bone-run-one-step-long", "bone.py",
           "micro_rules(CouplingSpec())) + 2", "micro_rules(CouplingSpec())) + 3", BONE,
           "a bone run's bound is one step past its halt"),
    # The step's self-checks.
    Mutant("check-rescan-never-raises", "engine.py",
           'raise SelfCheckViolation(\n                f"step is not maximal: rule {e.rule.id!r} '
           'still applies to membrane {sid}")', "pass", STEP,
           "a step that could add an instance passes the rescan"),
    Mutant("check-tree-skipped-after-move", "engine.py",
           "    if _apply(state, applied):\n        _check_tree(state)\n",
           "    _apply(state, applied)\n", STEP,
           "no step walks the tree, so a bad move goes unseen"),
    Mutant("check-tree-reached-twice-passes", "engine.py",
           'raise SelfCheckViolation(f"post-step tree: membrane {mid} is reachable twice")',
           "continue", STEP, "a membrane under two parents passes the tree check"),
    Mutant("check-tree-detached-passes", "engine.py",
           "if len(seen) < len(state.labels):", "if False:", STEP,
           "a membrane cut off from the skin passes the tree check"),
    Mutant("check-tree-depth-off-by-one", "engine.py",
           "if depth > MAX_DEPTH:", "if depth > MAX_DEPTH + 1:", STEP,
           "an endo move may nest one level past MAX_DEPTH"),
)

# Files and directories the copy does not take from the checkout.
_SKIP = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")


def _pytest(work: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(work / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *(f"tests/{name}" for name in tests)]
    return subprocess.run(command, cwd=work, env=env, capture_output=True, text=True,
                          timeout=600)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mmsim-mutants-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "demos"):
            shutil.copytree(ROOT / part, work / part, ignore=_SKIP)
        shutil.copy2(ROOT / "README.md", work)
        start = time.perf_counter()
        baseline = _pytest(work, tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests)))
        if baseline.returncode != 0:
            print(baseline.stdout + baseline.stderr)
            print("the unmutated suite does not pass; no mutant was run")
            return 1
        print(f"baseline passes ({time.perf_counter() - start:.1f} s)")
        survivors = []
        for m in MUTANTS:
            path = work / "src" / "mmsim" / m.file
            original = path.read_text(encoding="utf-8")
            if original.count(m.anchor) != 1:
                print(f"{m.name}: anchor occurs {original.count(m.anchor)} times in {m.file}")
                survivors.append(m.name)
                continue
            path.write_text(original.replace(m.anchor, m.replacement), encoding="utf-8")
            start = time.perf_counter()
            try:
                result = _pytest(work, m.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            took = time.perf_counter() - start
            failed = re.search(r"^FAILED (\S+)", result.stdout, re.MULTILINE)
            if result.returncode == 1 and failed:
                print(f"{m.name}: killed by {failed.group(1)} ({took:.1f} s)")
            else:
                print(f"{m.name}: SURVIVED, pytest exit {result.returncode} ({took:.1f} s); "
                      f"it breaks: {m.breaks}")
                survivors.append(m.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
