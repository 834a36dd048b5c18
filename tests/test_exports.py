"""Every exported name resolves, so a stale export of a deleted name fails."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mmsim

MODULES = sorted(f"mmsim.{info.name}" for info in pkgutil.iter_modules(mmsim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__, name
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []


def test_package_reexports_resolve_and_are_public():
    # Each name the package imports from a submodule is in that module's __all__.
    tree = ast.parse(Path(mmsim.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"mmsim.{node.module}")
        for alias in node.names:
            assert hasattr(mmsim, alias.name), alias.name
            assert alias.name in module.__all__, (node.module, alias.name)
