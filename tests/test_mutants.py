"""The mutant catalogue still points at code that exists.

Running the mutants is ``python tests/mutants.py``; this only checks that
every entry can be applied, so that rewriting mutated code fails here
until its mutants are restated."""

from __future__ import annotations

from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT

TESTS = Path(__file__).parent


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_anchor_occurs_once(mutant):
    source = (ROOT / "src" / "mmsim" / mutant.file).read_text(encoding="utf-8")
    assert source.count(mutant.anchor) == 1
    assert mutant.replacement != mutant.anchor
    assert mutant.tests and all((TESTS / name).is_file() for name in mutant.tests)
