import json
import re
from pathlib import Path

import numpy as np
import pytest

from couplformer import bench
from couplformer.attention import KINDS, AttentionGeometry
from couplformer.bench import (
    SWEEP_HEADER,
    analytic_cost,
    default_sweep_config,
    measured_cost,
    render_sweep_csv,
    storage_ratio,
    sweep,
)
from couplformer.model import ModelConfig, StemStage


def g(h, w, d=8, heads=1):
    return AttentionGeometry(h=h, w=w, d=d, heads=heads)


# -- analytic counts -------------------------------------------------------


def test_score_elements_closed_forms():
    geo = g(14, 14, d=16, heads=1)
    std = analytic_cost("standard", geo)
    cpl = analytic_cost("coupled_fast", geo)
    assert std.score_elements == 38416  # (14*14)^2
    assert cpl.score_elements == 392  # 14^2 + 14^2
    assert std.score_elements == 98 * cpl.score_elements


def test_score_elements_scale_with_heads():
    geo = g(7, 7, d=8, heads=4)
    assert analytic_cost("standard", geo).score_elements == 4 * 49 * 49
    assert analytic_cost("coupled_fast", geo).score_elements == 4 * (49 + 49)


def test_degenerate_single_token_grid():
    geo = g(1, 1, d=4, heads=2)
    assert analytic_cost("standard", geo).score_elements == 2  # one per head
    # The factored map stores a 1x1 A and a 1x1 B per head, so two elements.
    assert analytic_cost("coupled_fast", geo).score_elements == 4


def test_flops_counts_follow_mac_convention():
    """One multiply-add = 2 FLOPs, scores and apply symmetric in both paths."""
    geo = g(5, 3, d=8, heads=2)  # d_head = 4
    L = 15
    std = analytic_cost("standard", geo)
    assert std.flops_scores == 2 * 2 * L * L * 4
    assert std.flops_apply == std.flops_scores
    cpl = analytic_cost("coupled_fast", geo)
    assert cpl.flops_scores == 2 * 2 * (5 * 5 * 3 + 3 * 3 * 5) * 4
    assert cpl.flops_apply == cpl.flops_scores
    assert std.flops_total == std.flops_scores + std.flops_apply


def test_coupled_flops_beat_standard_beyond_trivial_grids():
    for side in (4, 8, 16, 32):
        geo = g(side, side, d=32, heads=4)
        assert analytic_cost("coupled_fast", geo).flops_total < analytic_cost("standard", geo).flops_total


def test_params_are_mechanism_independent():
    geo = g(6, 6, d=24, heads=4)
    assert analytic_cost("standard", geo).params == 4 * 24 * 24
    assert analytic_cost("coupled_fast", geo).params == 4 * 24 * 24


@pytest.mark.parametrize("name", ["fused", "coupled", "coupled_explicit"])
def test_analytic_cost_rejects_a_name_outside_kinds(name):
    with pytest.raises(ValueError, match=re.escape(str(sorted(KINDS)))):
        analytic_cost(name, g(2, 2))


def test_storage_ratio_formula_and_trend():
    geo = g(14, 14)
    assert storage_ratio(geo) == pytest.approx((14**2 + 14**2) / (14 * 14) ** 2)
    ratios = [storage_ratio(g(s, s)) for s in (8, 16, 32, 64, 128)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1e-3


def test_storage_ratio_matches_report_counts():
    for h, w in [(3, 9), (10, 4), (14, 14)]:
        geo = g(h, w, d=8, heads=2)
        reports = {kind: analytic_cost(kind, geo) for kind in KINDS}
        got = reports["coupled_fast"].score_elements / reports["standard"].score_elements
        assert got == pytest.approx(storage_ratio(geo))


# -- instrumented measurement ----------------------------------------------


def _cfg(img=28, stem=(8, 16), d=16, heads=2, depth=2):
    stages = tuple(StemStage(c) for c in stem[:-1]) + (StemStage(d),)
    return ModelConfig(
        img_size=(img, img),
        in_channels=1,
        conv_stem=stages,
        embed_dim=d,
        depth=depth,
        heads=heads,
        num_classes=10,
    )


def test_bench_has_a_closed_form_for_exactly_the_kinds():
    """A kind added to attention.KINDS needs its closed form here, and its measured storage must equal it."""
    assert sorted(bench._CLOSED_FORMS) == sorted(KINDS)
    cfg = _cfg()
    for kind in KINDS:
        report = measured_cost(cfg, kind)
        assert report.measured_peak_elements == report.score_elements
        assert report.measured_matches


def test_measured_coupled_against_spelled_out_example():
    cfg = _cfg(img=28, d=16, heads=4)
    assert cfg.token_grid() == (7, 7)
    assert measured_cost(cfg, "coupled_fast").measured_peak_elements == 4 * (49 + 49)
    assert measured_cost(cfg, "standard").measured_peak_elements == 4 * 49 * 49


@pytest.mark.parametrize(
    "img,d,heads,depth",
    [(16, 8, 1, 1), (16, 8, 2, 2), (20, 16, 4, 1), (28, 16, 2, 3)],
)
def test_measured_matches_across_geometries(img, d, heads, depth):
    cfg = _cfg(img=img, d=d, heads=heads, depth=depth)
    for kind in KINDS:
        assert measured_cost(cfg, kind).measured_matches


@pytest.mark.parametrize("name", ["quantum", "coupled_explicit"])
def test_measured_cost_rejects_a_name_outside_kinds(name):
    with pytest.raises(ValueError, match=re.escape(str(sorted(KINDS)))):
        measured_cost(_cfg(), name)


# -- sweep -----------------------------------------------------------------


def test_sweep_row_count_and_order():
    rows = sweep([32, 64])
    assert [(size, r.kind) for size, r in rows] == [
        (32, "standard"), (32, "coupled_fast"), (64, "standard"), (64, "coupled_fast")
    ]


def test_sweep_default_stem_quarters_the_image():
    cfg = default_sweep_config()
    assert (cfg.embed_dim, cfg.heads) == (64, 4)
    for size, report in sweep([32, 64]):
        assert (report.geometry.h, report.geometry.w) == (size // 4, size // 4)


def test_sweep_scaling_laws_over_doublings():
    """Image-side doubling: standard storage x16, coupled x4."""
    rows = sweep([32, 64, 128, 256])
    std = [r for _, r in rows if r.kind == "standard"]
    cpl = [r for _, r in rows if r.kind == "coupled_fast"]
    assert len(std) == len(cpl) == 4
    for a, b in zip(std, std[1:]):
        assert b.score_elements == 16 * a.score_elements
    for a, b in zip(cpl, cpl[1:]):
        assert b.score_elements == 4 * a.score_elements


def test_sweep_csv_format():
    sizes = [32, 64]
    text = render_sweep_csv(sweep(sizes))
    lines = text.strip().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "standard" and first[1] == "32" and first[2] == "32"
    assert all(len(line.split(",")) == 11 for line in lines[1:])
    assert [line.split(",")[0] for line in lines[1:]] == ["standard", "coupled_fast"] * 2
    # params identical across kinds at each size
    for std_line, cpl_line in zip(lines[1::2], lines[2::2]):
        assert std_line.split(",")[-1] == cpl_line.split(",")[-1]


# -- the committed benchmark record ----------------------------------------


def test_perfbench_record_names_commits_and_benchmark_metrics():
    """Each entry of BENCH_perfbench.json names its change and parent by commit id,
    and reports only workloads and metrics that BENCHMARK.json defines."""
    root = Path(__file__).resolve().parents[1]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    entries = json.loads((root / "BENCH_perfbench.json").read_text())["entries"]
    workloads = {w["name"] for w in spec["workloads"]}
    # "failed" holds the failed share of operations, which the benchmark reports beside its metrics.
    metrics = {m["name"] for m in spec["end_to_end"]} | {"failed"}
    assert entries
    for entry in entries:
        for key in ("change", "parent"):
            assert re.fullmatch(r"[0-9a-f]{7,40}", entry[key]), (entry["title"], key, entry[key])
        assert entry["workloads"] and set(entry["workloads"]) <= workloads, entry["title"]
        for name, results in entry["workloads"].items():
            assert results and set(results) <= metrics, (entry["title"], name, sorted(results))
