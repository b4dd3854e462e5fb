"""Every exported name resolves, so a deleted definition leaves no stale export."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import couplformer
from couplformer import autograd, tensor

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(couplformer.__path__) if info.name != "__main__"
)


def test_package_exports_resolve():
    missing = [name for name in couplformer.__all__ if not hasattr(couplformer, name)]
    assert missing == []
    assert len(set(couplformer.__all__)) == len(couplformer.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"couplformer.{module}")
    exported = getattr(mod, "__all__", [])
    missing = [name for name in exported if not hasattr(mod, name)]
    assert missing == []
    assert len(set(exported)) == len(exported)


def test_tensor_and_autograd_share_no_name():
    """Each op has one home: the value type's module defines no autograd op."""
    assert sorted(set(tensor.__all__) & set(autograd.__all__)) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_module_binds_a_top_level_definition_twice(module):
    """A second ``def`` or ``class`` of a name silently replaces the first (no linter runs here)."""
    source = Path(couplformer.__path__[0], f"{module}.py").read_text()
    names = Counter(
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    )
    assert [name for name, count in names.items() if count > 1] == []
