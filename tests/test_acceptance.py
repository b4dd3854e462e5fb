"""Acceptance gate: ten behavioural criteria, one printed verdict line each.

Every criterion prints exactly one ``[PASS]``/``[FAIL]`` line (kept visible
in the run summary by ``-rA``) and then asserts, so a red criterion fails
the suite rather than hiding in a log.  Criteria 1-3 and 5, and the
attention-block half of 6, run ``couplformer verify``'s suites from
:mod:`couplformer.verify` at seed 0, the command's default, with the same
thresholds.  Oracles are deliberately independent of the implementation:
``np.kron``, ``np.linalg``, element laws and central differences, never the
package's own fast paths.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import couplformer.autograd as ag
from couplformer.attention import KINDS
from couplformer.bench import analytic_cost, default_sweep_config, measured_cost
from couplformer.cli import main
from couplformer.model import CouplformerModel, ModelConfig, StemStage, model_forward
from couplformer.tensor import Tensor
from couplformer.verify import SUITES


def _verdict(ok: bool, number: int, name: str, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:>2} ({name}): {detail}"
    print(line)
    assert ok, line


def _softmax_rows(s: np.ndarray) -> np.ndarray:
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _run_suite(name: str, tol: float) -> tuple[float, int, float]:
    """Verify suite ``name`` at seed 0, its default: worst error, cases, seconds."""
    start = time.perf_counter()
    worst, threshold, cases = SUITES[name](0)
    assert threshold == tol, f"verify suite {name}: threshold {threshold}, gate documents {tol}"
    return worst, cases, time.perf_counter() - start


def _suite_criterion(number, title, name, measure, tol, budget=math.inf):
    worst, cases, elapsed = _run_suite(name, tol)
    limits = f"tol {tol:.0e}" + (f", budget {budget:.0f}s" if budget < math.inf else "")
    _verdict(
        worst <= tol and elapsed < budget, number, title,
        f"{measure} {worst:.2e} over {cases} cases in {elapsed:.2f}s ({limits})",
    )


# --------------------------------------------------------------------------
# criteria 1-5: exact algebra
# --------------------------------------------------------------------------


def test_criterion_01_lemma1_exactness():
    _suite_criterion(1, "factored application exactness", "lemma1", "max rel err", 1e-12, 5.0)


def test_criterion_02_fast_path_equals_explicit_oracle():
    _suite_criterion(2, "fast path vs explicit oracle", "fastpath", "max |diff|", 1e-10, 30.0)


def test_criterion_03_kron_element_law():
    _suite_criterion(3, "element law of the factored map", "kron", "max |diff|", 1e-14)


def test_criterion_04_row_stochasticity():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(50):
        h, w = rng.integers(1, 11, size=2)
        sa = _softmax_rows(rng.standard_normal((h, h)))
        sb = _softmax_rows(rng.standard_normal((w, w)))
        sums = np.kron(sa, sb).sum(axis=1)
        worst = max(worst, np.abs(sums - 1.0).max())
    ok = worst <= 1e-12
    _verdict(
        ok, 4, "row-stochastic factored map",
        f"max |row sum - 1| {worst:.2e} over 50 cases (tol 1e-12)",
    )


def test_criterion_05_rank_multiplicativity():
    _suite_criterion(5, "rank multiplies under the factored map", "rank", "max rank gap", 0.0)


# --------------------------------------------------------------------------
# criterion 6: gradients against finite differences
# --------------------------------------------------------------------------


def test_criterion_06_gradient_correctness():
    block_worst, block_cases, elapsed = _run_suite("grad", 1e-5)
    rng = np.random.default_rng(106)
    start = time.perf_counter()
    config = ModelConfig(
        img_size=(8, 8),
        in_channels=1,
        conv_stem=(StemStage(8), StemStage(16)),
        embed_dim=16,
        depth=2,
        heads=2,
        num_classes=10,
    )
    model = CouplformerModel(config, seed=0)
    model_worst = 0.0
    for _ in range(5):
        image = Tensor(rng.standard_normal((1, 8, 8)))
        target = int(rng.integers(0, 10))
        err = ag.fd_check(
            lambda v: ag.cross_entropy(model_forward(v, model), target), image
        )
        model_worst = max(model_worst, err)

    elapsed += time.perf_counter() - start
    ok = block_worst <= 1e-5 and model_worst <= 1e-4 and elapsed < 300.0
    _verdict(
        ok, 6, "analytic gradients match finite differences",
        f"attention block {block_worst:.2e} over {block_cases} cases (tol 1e-5), "
        f"2-block d=16 model {model_worst:.2e} over 5 inputs (tol 1e-4), "
        f"in {elapsed:.1f}s (budget 300s)",
    )


# --------------------------------------------------------------------------
# criterion 7: score-storage accounting
# --------------------------------------------------------------------------


def test_criterion_07_storage_accounting():
    mismatches = []
    geometries = [
        (7, 7, 1), (7, 7, 4), (14, 14, 1), (14, 14, 2),
        (4, 6, 2), (3, 5, 1), (8, 8, 4), (16, 16, 4),
    ]
    for h, w, heads in geometries:
        config = replace(default_sweep_config(), heads=heads, img_size=(4 * h, 4 * w))
        assert config.token_grid() == (h, w)
        for kind in KINDS:
            report = measured_cost(config, kind)
            if report.measured_peak_elements != report.score_elements:
                mismatches.append((h, w, heads, kind))

    cfg14 = replace(default_sweep_config(), heads=1, img_size=(56, 56))
    std14 = measured_cost(cfg14, "standard").measured_peak_elements
    cpl14 = measured_cost(cfg14, "coupled_fast").measured_peak_elements
    ratio_ok = std14 == 38416 and cpl14 == 392 and std14 == 98 * cpl14

    std_prev = cpl_prev = None
    trend_ok = True
    for size in (32, 64, 128, 256):
        cfg = replace(default_sweep_config(), img_size=(size, size))
        std = analytic_cost("standard", cfg.geometry()).score_elements
        cpl = analytic_cost("coupled_fast", cfg.geometry()).score_elements
        if std_prev is not None and (std != 16 * std_prev or cpl != 4 * cpl_prev):
            trend_ok = False
        std_prev, cpl_prev = std, cpl

    ok = not mismatches and ratio_ok and trend_ok
    _verdict(
        ok, 7, "score storage: measured equals analytic",
        f"8 geometries exact ({'ok' if not mismatches else mismatches}); "
        f"14x14 single head {std14}/{cpl14} = {std14 // cpl14}x; "
        f"doubling trend x16 (full) vs x4 (factored) over 32..256: {trend_ok}",
    )


# --------------------------------------------------------------------------
# criteria 8-10: training smoke, ablation switch, determinism
# --------------------------------------------------------------------------

_SMOKE_SETS = [
    "epochs=5",
    "batch_size=8",
    "lr=3e-3",
    "limit_train=2000",
    "val_size=200",
    "target_train_acc=0.9",
]


def _run_arm(out_dir, data_dir, seed, *extra_sets):
    args = ["train", "--data", str(data_dir), "--out", str(out_dir), "--seed", str(seed)]
    for kv in _SMOKE_SETS + list(extra_sets):
        args += ["--set", kv]
    start = time.perf_counter()
    code = main(args)
    elapsed = time.perf_counter() - start
    assert code == 0, f"training run {out_dir} exited {code}"
    rows = []
    lines = (out_dir / "metrics.csv").read_text().strip().splitlines()
    for line in lines[1:]:
        epoch, step, lr, train_loss, train_acc, val_acc = line.split(",")
        rows.append(
            {
                "epoch": int(epoch),
                "train_loss": float(train_loss),
                "train_acc": float(train_acc),
                "val_acc": float(val_acc),
            }
        )
    return {"rows": rows, "elapsed": elapsed, "out": out_dir}


@pytest.fixture(scope="module")
def smoke_matrix(tmp_path_factory, digit_dir):
    """Train the criterion-8 matrix once; criteria 8-10 all read from it."""
    root = tmp_path_factory.mktemp("smoke")
    arms = {}
    for kind in ("coupled_fast", "standard"):
        for heads in (2, 4):
            for seed in (0, 1, 2):
                name = f"{kind}-h{heads}-s{seed}"
                arms[name] = _run_arm(
                    root / name, digit_dir, seed,
                    f"attention_kind={kind}", f"heads={heads}",
                )
    arms["nopos"] = _run_arm(
        root / "nopos", digit_dir, 0, "pos_embedding=none", "heads=4"
    )
    arms["repeat"] = _run_arm(
        root / "repeat", digit_dir, 0, "attention_kind=coupled_fast", "heads=4"
    )
    return arms


@pytest.mark.slow
def test_criterion_08_training_smoke(smoke_matrix):
    bad = []
    worst_acc, slowest = 1.0, 0.0
    for name, arm in smoke_matrix.items():
        if name in ("nopos", "repeat"):
            continue
        rows = arm["rows"]
        best_acc = max(r["train_acc"] for r in rows)
        first_loss = rows[0]["train_loss"] if len(rows) > 1 else math.log(10.0)
        decreased = rows[-1]["train_loss"] < first_loss
        worst_acc = min(worst_acc, best_acc)
        slowest = max(slowest, arm["elapsed"])
        if best_acc < 0.9 or not decreased or len(rows) > 5 or arm["elapsed"] >= 600:
            bad.append(f"{name}: acc {best_acc:.3f}, decreased={decreased}")
    ok = not bad
    _verdict(
        ok, 8, "tiny classifier trains on a 2000-sample subset",
        f"12 arms (both mechanisms, heads 2/4, seeds 0/1/2): min best train acc "
        f"{worst_acc:.3f} (bar 0.90), loss decreased everywhere, slowest run "
        f"{slowest:.0f}s (budget 600s)" if ok else "; ".join(bad),
    )


@pytest.mark.slow
def test_criterion_09_position_embedding_ablation(smoke_matrix):
    with_pos = max(r["train_acc"] for r in smoke_matrix["coupled_fast-h4-s0"]["rows"])
    without = max(r["train_acc"] for r in smoke_matrix["nopos"]["rows"])
    ok = with_pos >= 0.9 and without >= 0.9
    _verdict(
        ok, 9, "position-embedding switch",
        f"learnable {with_pos:.3f}, none {without:.3f} (both need >= 0.90; no gap asserted)",
    )


@pytest.mark.slow
def test_criterion_10_byte_identical_metrics(smoke_matrix):
    first = (smoke_matrix["coupled_fast-h4-s0"]["out"] / "metrics.csv").read_bytes()
    second = (smoke_matrix["repeat"]["out"] / "metrics.csv").read_bytes()
    ok = first == second
    _verdict(
        ok, 10, "repeat run is byte-identical",
        f"metrics CSV {len(first)} bytes, identical={ok}",
    )
