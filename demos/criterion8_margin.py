"""Criterion 8's training matrix with early stop off: how far each arm clears the 0.90 bar.

Acceptance criterion 8 (tests/test_acceptance.py) trains 12 arms, both
attention kinds by 2 and 4 heads by seeds 0-2, on the same rendered digits,
and each arm stops at the first epoch whose train accuracy (the running mean
over the epoch) reaches 0.90.  So its "min best train acc" shows only where
the first crossing landed.  This script runs the same 12 arms through the
CLI with ``target_train_acc`` unset, so every arm trains all 5 epochs, and
prints per arm the first epoch (1-based) with train acc >= 0.90 ("-" if
none) and the epoch-5 train acc.  It takes several minutes; nothing in the
test suite runs it.

    PYTHONPATH=src python demos/criterion8_margin.py
"""

import contextlib
import io
import tempfile
from pathlib import Path

from couplformer.attention import KINDS
from couplformer.cli import main
from couplformer.train import write_digit_idx

# Criterion 8's settings (``_SMOKE_SETS`` in tests/test_acceptance.py), early stop off.
SETTINGS = ["epochs=5", "batch_size=8", "lr=3e-3", "limit_train=2000", "val_size=200", "target_train_acc="]
BAR = 0.90


def train_accuracies(out: Path, data: Path, kind: str, heads: int, seed: int) -> list[float]:
    args = ["train", "--data", str(data), "--out", str(out), "--seed", str(seed)]
    for kv in SETTINGS + [f"attention_kind={kind}", f"heads={heads}"]:
        args += ["--set", kv]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    if code != 0:
        raise SystemExit(f"{out.name}: couplformer train exited {code}")
    rows = (out / "metrics.csv").read_text().strip().splitlines()[1:]
    return [float(row.split(",")[4]) for row in rows]


def cell(accs: list[float]) -> str:
    first = next((epoch for epoch, acc in enumerate(accs, 1) if acc >= BAR), None)
    return f"{'-' if first is None else first}, {accs[-1]:.3f}"


with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    write_digit_idx(root / "data", 3000, 500, seed=0)
    print("| arm | seed 0 | seed 1 | seed 2 |")
    print("|-----|--------|--------|--------|")
    for kind in KINDS:
        for heads in (2, 4):
            cells = [
                cell(train_accuracies(root / f"{kind}-h{heads}-s{seed}", root / "data", kind, heads, seed))
                for seed in (0, 1, 2)
            ]
            print(f"| {kind} h{heads} | " + " | ".join(cells) + " |", flush=True)
