"""Every exported name resolves, so a deleted definition leaves no stale export.

Importing stays light: the package root re-exports nothing, so a module loads
only the modules it needs, and none loads a module that only one rarely used
function needs.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import couplformer
from couplformer import autograd, tensor

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(couplformer.__path__) if info.name != "__main__"
)


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


def _fresh_interpreter(script: str) -> str:
    """Run ``script`` in a new interpreter that imports this checkout's package; return its stdout."""
    package_root = Path(couplformer.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(package_root), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_leaves_scipy_ndimage_unloaded():
    """``render_digits`` imports scipy.ndimage itself; at start-up it would cost every process about 0.06 s.

    The CLI imports every module but ``__main__``, so nothing else needs checking.
    """
    assert _fresh_interpreter("import sys, couplformer.cli; print('scipy.ndimage' in sys.modules)") == "False"


def test_import_starts_no_thread():
    """Worker threads exist only inside ``train.train_loop`` and ``train.evaluate``; importing every module starts none."""
    assert _fresh_interpreter("import threading, couplformer.cli; print(threading.active_count())") == "1"


def test_importing_one_module_loads_only_its_dependencies():
    """The value type's module needs no other: importing it loads just the package and itself."""
    script = "import sys, couplformer.tensor; print(sorted(m for m in sys.modules if m.startswith('couplformer')))"
    assert _fresh_interpreter(script) == str(["couplformer", "couplformer.tensor"])
