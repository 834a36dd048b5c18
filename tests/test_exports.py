"""Every exported name resolves, so a stale export of a deleted name fails,
and each module imports only the package modules its layer allows."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

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


# The package modules each module imports.  Values live in core, so the
# engine, the coupling compiler and the bone study never read model text.
LAYERS = {
    "__init__": set(REEXPORTED),
    "core": set(),
    "rng": {"core"},
    "parser": {"core"},
    "oracle": {"core"},
    "coupling": {"core"},
    "engine": {"core", "rng"},
    "bone": {"core", "coupling"},
    "tracefile": {"core", "engine", "parser"},
    "cli": set(REEXPORTED) - {"coupling"},
}


def _package_imports(path: Path) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else (a.name for a in node.names))
    return found


def test_each_module_imports_only_its_layer():
    paths = sorted(Path(mmsim.__file__).parent.glob("*.py"))
    assert {path.stem: _package_imports(path) for path in paths} == LAYERS


@pytest.mark.parametrize("name", ["Model", "EngineOptions", "StepResult", "AppliedRule",
                                  "TraceStep", "Trace"])
def test_value_types_are_the_ones_in_core(name):
    value_type = getattr(mmsim.core, name)
    assert getattr(mmsim, name) is value_type
    assert name in mmsim.core.__all__
    module = mmsim.parser if name == "Model" else mmsim.engine
    assert getattr(module, name) is value_type
