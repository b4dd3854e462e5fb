"""Cost accounting for the attention kinds: storage elements and FLOPs.

Counts are reported in score-tensor elements and FLOPs (one multiply-add =
two FLOPs), never bytes or wall-clock time — element counts are exact and
independent of framework or hardware.  ``measured_cost`` re-derives the
storage numbers by instrumenting a real forward pass and must agree with
the closed forms to the integer.

Per attention call with an h x w token grid and per-head width d_head,
one closed form per key of :data:`couplformer.attention.KINDS`:

============  =========================  ====================================
kind          score elements             FLOPs (scores; apply is equal)
============  =========================  ====================================
standard      heads * (hw)^2             2 * heads * (hw)^2 * d_head
coupled_fast  heads * (h^2 + w^2)        2 * heads * (h^2 w + w^2 h) * d_head
============  =========================  ====================================

The storage ratio coupled/standard is (h^2 + w^2) / (hw)^2: quadratic-in-L
cost drops to linear.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from . import tensor as T
from .attention import KINDS, AttentionGeometry
from .autograd import no_grad
from .model import CouplformerModel, ModelConfig, StemStage

__all__ = [
    "SWEEP_HEADER",
    "CostReport",
    "analytic_cost",
    "storage_ratio",
    "measured_cost",
    "sweep",
    "render_sweep_csv",
    "default_sweep_config",
]

SWEEP_HEADER = "kind,H,W,h,w,d,heads,score_elements,flops_scores,flops_apply,params"

# Per head on an h x w grid: (score elements, scoring multiply-adds per d_head channel).
_CLOSED_FORMS = {
    "standard": lambda h, w: ((h * w) ** 2, (h * w) ** 2),
    "coupled_fast": lambda h, w: (h * h + w * w, h * h * w + w * w * h),
}


@dataclass(frozen=True)
class CostReport:
    kind: str
    geometry: AttentionGeometry
    score_elements: int
    flops_scores: int
    flops_apply: int
    params: int
    measured_peak_elements: int | None = None

    @property
    def flops_total(self) -> int:
        return self.flops_scores + self.flops_apply

    @property
    def measured_matches(self) -> bool:
        return self.measured_peak_elements == self.score_elements


def analytic_cost(kind: str, geometry: AttentionGeometry) -> CostReport:
    """Closed-form per-call cost of one attention block of ``kind`` at this geometry."""
    if kind not in KINDS:
        raise ValueError(f"unknown attention kind {kind!r}; expected one of {sorted(KINDS)}")
    elements, macs = _CLOSED_FORMS[kind](geometry.h, geometry.w)
    flops = 2 * geometry.heads * macs * geometry.d_head
    return CostReport(
        kind=kind,
        geometry=geometry,
        score_elements=geometry.heads * elements,
        flops_scores=flops,
        flops_apply=flops,
        params=4 * geometry.d * geometry.d,
    )


def storage_ratio(geometry: AttentionGeometry) -> float:
    """coupled / standard score-storage ratio: (h^2 + w^2) / (hw)^2."""
    h, w = geometry.h, geometry.w
    return (h * h + w * w) / (h * w) ** 2


def measured_cost(config: ModelConfig, kind: str) -> CostReport:
    """Run one instrumented forward pass of ``kind`` and attach the measured peak.

    The peak is the largest number of score elements live in any single
    attention call.  The analytic fields come from ``analytic_cost`` so the
    caller can compare the two directly.
    """
    analytic = analytic_cost(kind, config.geometry())
    model = CouplformerModel(replace(config, attention_kind=kind), seed=0)
    image = T.zeros((config.in_channels, *config.img_size))
    with T.ScoreTracker() as tracker, no_grad():
        model.forward(image)
    if not tracker.block_totals:
        raise RuntimeError("score instrumentation captured nothing: no attention blocks ran")
    return replace(analytic, measured_peak_elements=tracker.peak_elements)


def default_sweep_config() -> ModelConfig:
    """Two-stage pooled stem (token grid = image size / 4), d = 64 and 4 heads: the sweep's model."""
    return ModelConfig(
        img_size=(32, 32),
        in_channels=1,
        conv_stem=(StemStage(out_channels=32), StemStage(out_channels=64)),
        embed_dim=64,
        depth=1,
        heads=4,
        num_classes=10,
    )


def sweep(image_sizes: Iterable[int]) -> list[tuple[int, CostReport]]:
    """Analytic cost of :func:`default_sweep_config`'s attention at each square image size.

    One (size, report) row per size and kind: sizes as given, and at each
    size the kinds in ``KINDS`` order.
    """
    config = default_sweep_config()
    rows = []
    for size in map(int, image_sizes):
        geometry = replace(config, img_size=(size, size)).geometry()
        rows += [(size, analytic_cost(kind, geometry)) for kind in KINDS]
    return rows


def render_sweep_csv(rows: list[tuple[int, CostReport]]) -> str:
    """Format :func:`sweep` rows as CSV, one line per row in the same order."""
    lines = [SWEEP_HEADER]
    for size, report in rows:
        g = report.geometry
        lines.append(
            f"{report.kind},{size},{size},{g.h},{g.w},{g.d},{g.heads},"
            f"{report.score_elements},{report.flops_scores},{report.flops_apply},{report.params}"
        )
    return "\n".join(lines) + "\n"
