"""The benchmark's checks pass on the program's outputs and fail on wrong ones.

    python3 -m pytest perfbench/test_reference.py
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import reference as ref  # noqa: E402
from tracer import Tracer  # noqa: E402

from couplformer import autograd as ag  # noqa: E402
from couplformer.model import CouplformerModel, ModelConfig, StemStage  # noqa: E402
from couplformer.tensor import ScoreTracker, Tensor  # noqa: E402
from couplformer.train import load_dataset  # noqa: E402


def make_model(kind: str, img: int = 28) -> CouplformerModel:
    config = ModelConfig(
        img_size=(img, img), in_channels=1,
        conv_stem=(StemStage(out_channels=16), StemStage(out_channels=32)),
        embed_dim=32, depth=2, heads=4, num_classes=10, attention_kind=kind,
    )
    model = CouplformerModel(config, seed=5)
    # Move every parameter off its initial value so the attention maps are
    # far from uniform and a wrong map changes the logits.
    rng = np.random.default_rng(7)
    for var in model.parameters().values():
        var.assign(Tensor(var.value.data + rng.normal(0.0, 0.1, var.value.shape)))
    return model


def arch_of(model: CouplformerModel) -> ref.Arch:
    c = model.config
    return ref.Arch(grid=c.token_grid(), heads=c.heads, depth=c.depth, kind=c.attention_kind)


def params_of(model: CouplformerModel) -> dict:
    return {name: var.value.data for name, var in model.parameters().items()}


def images(n: int, img: int = 28, seed: int = 3) -> tuple[np.ndarray, np.ndarray]:
    x, y = inputs.render(n, img, np.random.default_rng(seed))
    return ((x / 255.0 - 0.1307) / 0.3081)[:, None], y.astype(np.int64)


def program_logits(model, xs) -> np.ndarray:
    return np.array([model.forward(Tensor(x)).value.data for x in xs])


@pytest.fixture(scope="module", params=["coupled_fast", "standard"])
def case(request):
    model = make_model(request.param)
    xs, ys = images(3)
    return SimpleNamespace(model=model, arch=arch_of(model), params=params_of(model), xs=xs, ys=ys,
                           logits=program_logits(model, xs))


def test_logit_check_passes_on_program_and_fails_on_perturbed_logits(case):
    reference = ref.forward(case.params, case.arch, case.xs)
    assert ref.check_logits(case.logits, reference)[0]
    wrong = case.logits.copy()
    wrong[1, 4] += 1e-2
    assert not ref.check_logits(wrong, reference)[0]
    assert not ref.check_logits(case.logits[:, :9], reference)[0]


def test_swapped_row_and_column_factors_fail_the_logit_check():
    model = make_model("coupled_fast")
    xs, _ = images(2)
    swapped = ref.forward(params_of(model), arch_of(model), xs, coupling=lambda a, b: np.kron(b, a))
    assert not ref.check_logits(program_logits(model, xs), swapped)[0]


def test_reference_of_the_other_mechanism_fails_the_logit_check(case):
    other = "coupled_fast" if case.arch.kind == "standard" else "standard"
    reference = ref.forward(case.params, ref.Arch(**{**case.arch.__dict__, "kind": other}), case.xs)
    assert not ref.check_logits(case.logits, reference)[0]


def test_score_element_check_fails_on_a_wrong_count(case):
    with ScoreTracker() as tracker:
        case.model.forward(Tensor(case.xs[0]))
    totals = list(tracker.block_totals)
    assert ref.check_score_elements(totals, case.arch)[0]
    assert not ref.check_score_elements([totals[0] + 1, totals[1]], case.arch)[0]
    assert not ref.check_score_elements(totals[:1], case.arch)[0]
    other = "coupled_fast" if case.arch.kind == "standard" else "standard"
    assert not ref.check_score_elements(totals, ref.Arch(**{**case.arch.__dict__, "kind": other}))[0]


def test_gradient_check_passes_on_backward_and_fails_on_a_scaled_gradient(case):
    variables = case.model.parameters()
    for var in variables.values():
        var.clear_grad()
    ag.backward(ag.cross_entropy(case.model.forward(Tensor(case.xs[0])), int(case.ys[0])))
    analytic, central, scales = [], [], []
    for name in ("stem.0.weight", "blocks.0.attn.w_q", "blocks.1.attn.w_k", "blocks.1.ffn.w1", "head.weight"):
        g = variables[name].grad.data.ravel()
        j = int(np.argmax(np.abs(g)))
        analytic.append(g[j])
        central.append(ref.central_difference(case.params, case.arch, case.xs[0], int(case.ys[0]), name, j))
        scales.append(np.abs(g).max())
    assert ref.check_gradients(analytic, central, scales)[0]
    assert not ref.check_gradients(np.array(analytic) * 1.05, central, scales)[0]
    assert not ref.check_gradients([np.nan, *analytic[1:]], central, scales)[0]


def test_training_check_needs_a_finite_falling_loss():
    rows = [{"train_loss": v} for v in (2.3, 2.1, 1.9)]
    assert ref.check_training(rows)[0]
    assert not ref.check_training(rows[::-1])[0]
    assert not ref.check_training(rows[:1])[0]
    assert not ref.check_training([{"train_loss": 2.3}, {"train_loss": float("nan")}])[0]


def test_reload_check_is_exact(case):
    assert ref.check_reload(case.logits, case.logits.copy())[0]
    moved = case.logits.copy()
    moved[0, 0] = np.nextafter(moved[0, 0], np.inf)
    assert not ref.check_reload(case.logits, moved)[0]


def test_evaluation_check_fails_on_a_wrong_loss_or_accuracy(case):
    reference = ref.forward(case.params, case.arch, case.xs)
    loss = float(ref.cross_entropy(reference, case.ys).mean())
    acc = float(np.mean(reference.argmax(axis=1) == case.ys))
    assert ref.check_evaluation(loss, acc, reference, case.ys)[0]
    assert not ref.check_evaluation(loss * 1.01, acc, reference, case.ys)[0]
    assert not ref.check_evaluation(loss, acc + 1 / 3, reference, case.ys)[0]


def test_tolerances_admit_float32_compute(case):
    """A float32 forward, standing in for a float32 program, passes every logit check."""
    reference = ref.forward(case.params, case.arch, case.xs)
    p32 = {name: v.astype(np.float32) for name, v in case.params.items()}
    logits32 = ref.forward(p32, case.arch, case.xs.astype(np.float32))
    assert logits32.dtype == np.float32
    assert ref.check_logits(logits32, reference)[0]
    loss32 = float(ref.cross_entropy(logits32.astype(np.float64), case.ys).mean())
    acc32 = float(np.mean(logits32.argmax(axis=1) == case.ys))
    assert ref.check_evaluation(loss32, acc32, reference, case.ys)[0]


def test_inputs_follow_the_seed_and_load_through_the_program(tmp_path):
    files = {"train": (50, 10), "test": (8, 8)}
    inputs.make_inputs(tmp_path / "a", 28, files, seed=4)
    inputs.make_inputs(tmp_path / "b", 28, files, seed=4)
    inputs.make_inputs(tmp_path / "c", 28, files, seed=5)
    name = inputs.FILE_NAMES["train_images"]
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()
    train_x, train_y, test_x, test_y = load_dataset(tmp_path / "a")
    assert train_x.shape == (50, 1, 28, 28) and test_x.shape == (8, 1, 28, 28)
    assert set(np.unique(train_y)) <= set(range(10))


def test_tracer_self_time_and_missing_spans():
    owner = SimpleNamespace(inner=lambda: sum(range(1000)), outer=None, unused=lambda: None)
    owner.outer = lambda: owner.inner() + owner.inner()
    tracer = Tracer()
    for name in ("inner", "outer", "unused"):
        tracer.wrap(owner, name, name)
    with tracer.span("root"):
        owner.outer()
    tracer.unwrap_all()
    names = [s.name for s in tracer.spans]
    assert names == ["root", "outer", "inner", "inner"]
    own = tracer.self_times()
    outer = tracer.spans[1]
    inner = sum(s.end - s.start for s in tracer.spans[2:])
    assert own[1] == pytest.approx(outer.end - outer.start - inner)
    assert tracer.ancestors(3) == {"root", "outer"}
    assert tracer.missing() == ["unused"]
    assert owner.unused() is None and not hasattr(owner.unused, "__wrapped__")
