"""Print the score-storage and FLOP tables behind the efficiency claim.

Standard attention keeps heads * (hw)^2 score elements alive; the coupled
mechanism keeps heads * (h^2 + w^2).  Double the image side and the former
grows 16x while the latter grows 4x.  Every analytic number printed here is
also cross-checked against an instrumented forward pass.  Last, the whole
model's measured memory: the traced heap peak of one training step of
configs/tiny.cfg's model, beside each mechanism's score elements.
"""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np

from couplformer.attention import AttentionGeometry
from couplformer.bench import analytic_cost, default_sweep_config, measured_cost, storage_ratio
from couplformer.cli import build_model_config, resolve_config
from couplformer.model import CouplformerModel
from couplformer.train import TrainConfig, train_loop

config = default_sweep_config(embed_dim=64, heads=4)

print(f"{'image':>6} {'grid':>8} {'standard':>12} {'coupled':>10} {'ratio':>8} {'flops std':>12} {'flops cpl':>12}")
prev_std = prev_cpl = None
for size in (32, 64, 128, 256):
    cfg = dataclasses.replace(config, img_size=(size, size))
    h, w = cfg.token_grid()
    std = analytic_cost("standard", cfg.geometry())
    cpl = analytic_cost("coupled", cfg.geometry())
    growth = ""
    if prev_std is not None:
        growth = f"  (x{std.score_elements / prev_std:.0f} vs x{cpl.score_elements / prev_cpl:.0f})"
    print(
        f"{size:>6} {f'{h}x{w}':>8} {std.score_elements:>12,} {cpl.score_elements:>10,} "
        f"{std.score_elements / cpl.score_elements:>7.1f}x {std.flops_total:>12.3g} {cpl.flops_total:>12.3g}{growth}"
    )
    prev_std, prev_cpl = std.score_elements, cpl.score_elements

print(f"\nstorage ratio formula at 56x56 grid: {storage_ratio(AttentionGeometry(h=56, w=56, d=64, heads=4)):.6f}")

# measured peaks from an actual instrumented forward pass, small enough to run
small = dataclasses.replace(config, img_size=(28, 28))
for mechanism in ("standard", "coupled"):
    report = measured_cost(small, mechanism)
    print(
        f"28x28 image, {mechanism:>8}: analytic {report.score_elements:>6}, "
        f"measured {report.measured_peak_elements:>6}, match={report.measured_matches}"
    )

# measured whole-model memory: one optimizer step of tiny.cfg's model on 56x56
# images (a 14x14 token grid), batch 2, with the heap traced over train_loop
tiny_cfg = Path(__file__).resolve().parents[1] / "configs" / "tiny.cfg"
images = np.random.default_rng(0).standard_normal((2, 1, 56, 56))
labels = np.array([3, 7])
for kind, mechanism in (("standard", "standard"), ("coupled_fast", "coupled")):
    cfg = build_model_config(resolve_config(str(tiny_cfg), ["img_size=56", f"attention_kind={kind}"]))
    model = CouplformerModel(cfg, seed=0)
    tracemalloc.start()
    train_loop(model, images, labels, images[:0], labels[:0], TrainConfig(epochs=1, batch_size=2))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    elements = analytic_cost(mechanism, cfg.geometry()).score_elements
    print(
        f"56x56 image, {mechanism:>8}: score elements per block {elements:>7,}, "
        f"one-step training peak {peak / 2**20:.2f} MiB"
    )
