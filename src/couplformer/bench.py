"""Cost accounting for attention mechanisms: storage elements and FLOPs.

Counts are reported in score-tensor elements and FLOPs (one multiply-add =
two FLOPs), never bytes or wall-clock time — element counts are exact and
independent of framework or hardware.  ``measured_cost`` re-derives the
storage numbers by instrumenting a real forward pass and must agree with
the closed forms to the integer.

Per attention call with an h x w token grid and per-head width d_head:

==========  =========================  ==============================
mechanism   score elements             FLOPs (scores; apply is equal)
==========  =========================  ==============================
standard    heads * (hw)^2             2 * heads * (hw)^2 * d_head
coupled     heads * (h^2 + w^2)        2 * heads * (h^2 w + w^2 h) * d_head
==========  =========================  ==============================

The storage ratio coupled/standard is (h^2 + w^2) / (hw)^2: quadratic-in-L
cost drops to linear.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from . import tensor as T
from .attention import AttentionGeometry
from .autograd import no_grad
from .model import CouplformerModel, ModelConfig, StemStage

__all__ = [
    "MECHANISMS",
    "SWEEP_HEADER",
    "CostReport",
    "analytic_cost",
    "storage_ratio",
    "measured_cost",
    "sweep",
    "render_sweep_csv",
    "default_sweep_config",
]

MECHANISMS = ("standard", "coupled")

SWEEP_HEADER = "mechanism,H,W,h,w,d,heads,score_elements,flops_scores,flops_apply,params"


@dataclass(frozen=True)
class CostReport:
    mechanism: str
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


def analytic_cost(mechanism: str, geometry: AttentionGeometry) -> CostReport:
    """Closed-form per-call cost of one attention block at this geometry."""
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}: expected one of {MECHANISMS}")
    h, w, heads, dh = geometry.h, geometry.w, geometry.heads, geometry.d_head
    L = h * w
    if mechanism == "standard":
        score_elements = heads * L * L
        flops = 2 * heads * L * L * dh
    else:
        score_elements = heads * (h * h + w * w)
        flops = 2 * heads * (h * h * w + w * w * h) * dh
    return CostReport(
        mechanism=mechanism,
        geometry=geometry,
        score_elements=score_elements,
        flops_scores=flops,
        flops_apply=flops,
        params=4 * geometry.d * geometry.d,
    )


def storage_ratio(geometry: AttentionGeometry) -> float:
    """coupled / standard score-storage ratio: (h^2 + w^2) / (hw)^2."""
    h, w = geometry.h, geometry.w
    return (h * h + w * w) / (h * w) ** 2


def measured_cost(config: ModelConfig, mechanism: str) -> CostReport:
    """Run one instrumented forward pass and attach the measured peak.

    The peak is the largest number of score elements live in any single
    attention call.  The analytic fields come from ``analytic_cost`` so the
    caller can compare the two directly.
    """
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}: expected one of {MECHANISMS}")
    kind = "standard" if mechanism == "standard" else "coupled_fast"
    model = CouplformerModel(replace(config, attention_kind=kind), seed=0)
    image = T.zeros((config.in_channels, *config.img_size))
    with T.ScoreTracker() as tracker, no_grad():
        model.forward(image)
    if not tracker.block_totals:
        raise RuntimeError("score instrumentation captured nothing: no attention blocks ran")
    analytic = analytic_cost(mechanism, config.geometry())
    return replace(analytic, measured_peak_elements=tracker.peak_elements)


def default_sweep_config(embed_dim: int = 64, heads: int = 4) -> ModelConfig:
    """Two-stage pooled stem (token grid = image size / 4) used by the sweep."""
    return ModelConfig(
        img_size=(32, 32),
        in_channels=1,
        conv_stem=(StemStage(out_channels=32), StemStage(out_channels=embed_dim)),
        embed_dim=embed_dim,
        depth=1,
        heads=heads,
        num_classes=10,
    )


def sweep(
    image_sizes: Iterable[int],
    config: ModelConfig | None = None,
    mechanism: str = "both",
) -> list[CostReport]:
    """Analytic cost at each image size with the stem held fixed.

    Emits reports in deterministic order: sizes as given, ``standard`` before
    ``coupled`` at each size when both are requested.
    """
    if config is None:
        config = default_sweep_config()
    if mechanism == "both":
        mechanisms = MECHANISMS
    elif mechanism in MECHANISMS:
        mechanisms = (mechanism,)
    else:
        raise ValueError(f"unknown mechanism {mechanism!r}: expected 'both' or one of {MECHANISMS}")
    reports = []
    for size in image_sizes:
        sized = replace(config, img_size=(int(size), int(size)))
        geometry = sized.geometry()
        for mech in mechanisms:
            reports.append(analytic_cost(mech, geometry))
    return reports


def render_sweep_csv(reports: list[CostReport], image_sizes: Iterable[int], mechanism: str = "both") -> str:
    """Format sweep reports as CSV; row order matches ``sweep`` output."""
    n_mech = 2 if mechanism == "both" else 1
    sizes = [int(s) for s in image_sizes]
    if len(reports) != n_mech * len(sizes):
        raise ValueError(
            f"report count {len(reports)} does not match {len(sizes)} sizes x {n_mech} mechanisms"
        )
    lines = [SWEEP_HEADER]
    for i, report in enumerate(reports):
        size = sizes[i // n_mech]
        g = report.geometry
        lines.append(
            f"{report.mechanism},{size},{size},{g.h},{g.w},{g.d},{g.heads},"
            f"{report.score_elements},{report.flops_scores},{report.flops_apply},{report.params}"
        )
    return "\n".join(lines) + "\n"
