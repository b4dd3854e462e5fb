"""Every exported name resolves, so a deleted definition leaves no stale export."""

import importlib
import pkgutil

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
