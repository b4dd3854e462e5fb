"""The quick demos run to completion against the current package API.

Each runs in a fresh interpreter that imports the same ``couplformer`` as
these tests.  ``train_tiny_classifier.py`` is left out: it trains for tens
of seconds.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import couplformer
from couplformer import autograd as ag

DEMOS = Path(__file__).resolve().parents[1] / "demos"
PACKAGE_ROOT = Path(couplformer.__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name", ["coupled_attention", "gradient_checking", "kronecker_identity", "memory_accounting"]
)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(PACKAGE_ROOT), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if name == "memory_accounting":
        # The whole-model ordering behind the paper's memory claim; the values are printed, not gated.
        peaks = dict(re.findall(r"56x56 image, +(\w+):.*training peak ([\d.]+) MiB", proc.stdout))
        assert float(peaks["coupled"]) < float(peaks["standard"]), proc.stdout
        # At the benchmark's two image sizes, each mechanism names the vjp during which its backward peaks.
        binding = re.findall(r"(\d+)x\d+ image, +(\w+): backward peak [\d.]+ MiB during (\w+) vjp", proc.stdout)
        assert sorted((size, kind) for size, kind, _ in binding) == [
            ("112", "coupled"), ("112", "standard"), ("28", "coupled"), ("28", "standard")
        ], proc.stdout
        assert all(callable(getattr(ag, op, None)) for *_, op in binding), binding
