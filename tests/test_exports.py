"""Every exported name resolves, so a stale export of a deleted name fails."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import mmsim

MODULES = sorted(f"mmsim.{info.name}" for info in pkgutil.iter_modules(mmsim.__path__))

# The modules the package re-exports, in the order it imports them.
REEXPORTED = ("core", "engine", "parser", "coupling", "bone", "rng", "tracefile")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__, name
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []


def test_package_exports_are_the_modules_all():
    modules = [importlib.import_module(f"mmsim.{name}") for name in REEXPORTED]
    assert mmsim.__all__ == [export for module in modules for export in module.__all__]
    assert len(set(mmsim.__all__)) == len(mmsim.__all__)
    for module in modules:
        for export in module.__all__:
            assert getattr(mmsim, export) is getattr(module, export), export
    # The CLI would load the oracle with the package otherwise.
    oracle = importlib.import_module("mmsim.oracle")
    cli = importlib.import_module("mmsim.cli")
    assert not set(mmsim.__all__) & (set(oracle.__all__) | set(cli.__all__))
    assert "oracle" not in mmsim.__all__ and "cli" not in mmsim.__all__
