from pathlib import Path

import numpy as np
import pytest
from conftest import damaged
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from couplformer import autograd as ag
from couplformer import tensor as T
from couplformer.attention import KINDS, coupled_attention_explicit
from couplformer.cli import build_model_config, resolve_config
from couplformer.model import (
    CheckpointError,
    CouplformerModel,
    ModelConfig,
    StemStage,
    conv_stem_forward,
    encoder_block_forward,
    sequence_pool,
)
from couplformer.tensor import NonFiniteError, ShapeError, Tensor


def tiny_config(**overrides):
    base = dict(
        img_size=(28, 28),
        in_channels=1,
        conv_stem=(StemStage(8), StemStage(16)),
        embed_dim=16,
        depth=2,
        heads=2,
        num_classes=10,
    )
    base.update(overrides)
    return ModelConfig(**base)


# -- config / geometry -----------------------------------------------------


def test_token_grid_arithmetic():
    # 28 -> conv(same) 28 -> pool 14 -> conv 14 -> pool 7
    assert tiny_config().token_grid() == (7, 7)
    # every stage halves the grid, rounding up
    cfg = tiny_config(conv_stem=(StemStage(16),), img_size=(8, 8))
    assert cfg.token_grid() == (4, 4)
    cfg = tiny_config(conv_stem=(StemStage(8), StemStage(8), StemStage(16)), img_size=(28, 9))
    assert cfg.token_grid() == (4, 2)
    # non-square images give non-square grids
    cfg = tiny_config(img_size=(28, 56))
    assert cfg.token_grid() == (7, 14)


def test_config_validation_errors():
    with pytest.raises(ShapeError):
        tiny_config(conv_stem=(StemStage(8), StemStage(12)))  # last != embed_dim
    with pytest.raises(ShapeError):
        tiny_config(embed_dim=15, conv_stem=(StemStage(8), StemStage(15)), heads=2)
    with pytest.raises(ValueError):
        tiny_config(pos_embedding="fourier")
    for kind in ("linear", "coupled_explicit"):
        with pytest.raises(ValueError):
            tiny_config(attention_kind=kind)
    for bad in (dict(heads=0), dict(num_classes=0), dict(in_channels=0), dict(mlp_ratio=0), dict(depth=-1)):
        with pytest.raises(ValueError, match="config"):
            tiny_config(**bad)
    for bad in (dict(out_channels=0), dict(out_channels=-4)):
        with pytest.raises(ValueError, match="stem stage"):
            StemStage(**bad)
    # Same-padding keeps every extent >= 1: a tiny image degenerates to one token.
    assert tiny_config(img_size=(2, 2)).token_grid() == (1, 1)


def test_geometry_reflects_config():
    g = tiny_config().geometry()
    assert (g.h, g.w, g.d, g.heads) == (7, 7, 16, 2)


# -- parameters ------------------------------------------------------------


def test_param_count_closed_form():
    cfg = tiny_config()
    model = CouplformerModel(cfg, seed=0)
    d, L = 16, 49
    stem = (8 * 1 * 9 + 8) + (16 * 8 * 9 + 16)
    block = 2 * d + 4 * d * d + 2 * d + (d * 2 * d + 2 * d) + (2 * d * d + d)
    expected = stem + L * d + cfg.depth * block + 2 * d + d + (d * 10 + 10)
    assert model.param_count() == expected
    assert model.param_count() == sum(v.value.size for v in model.parameters().values())


def test_parameter_names_are_stable_and_ordered():
    model = CouplformerModel(tiny_config(), seed=0)
    names = list(model.parameters())
    assert names[0] == "stem.0.weight"
    assert "pos_embedding" in names
    assert names[-1] == "head.bias"
    assert names.index("blocks.0.ln1.gamma") < names.index("blocks.1.ln1.gamma")


def test_init_is_deterministic_per_seed():
    a = CouplformerModel(tiny_config(), seed=5)
    b = CouplformerModel(tiny_config(), seed=5)
    c = CouplformerModel(tiny_config(), seed=6)
    for (name, va), vb in zip(a.parameters().items(), b.parameters().values()):
        np.testing.assert_array_equal(va.value.data, vb.value.data, err_msg=name)
    assert np.any(a.parameters()["head.weight"].value.data != c.parameters()["head.weight"].value.data)


def test_pos_embedding_none_drops_table():
    model = CouplformerModel(tiny_config(pos_embedding="none"), seed=0)
    assert model.pos_embedding is None
    assert "pos_embedding" not in model.parameters()


def test_pos_modes_agree_at_initialization():
    """The table is zero-initialized, so both modes start as the same function."""
    x = Tensor(np.random.default_rng(0).standard_normal((1, 28, 28)))
    with ag.no_grad():
        with_pos = CouplformerModel(tiny_config(), seed=3).forward(x).value.data
        without = CouplformerModel(tiny_config(pos_embedding="none"), seed=3).forward(x).value.data
    np.testing.assert_allclose(with_pos, without, atol=1e-12)


# -- forward pieces --------------------------------------------------------


def test_stem_output_is_raster_ordered():
    """Token i of the stem output is feature column (y, x) with i = x + y*w."""
    cfg = tiny_config(img_size=(8, 8), conv_stem=(StemStage(16),))
    model = CouplformerModel(cfg, seed=1)
    x = ag.constant(Tensor(np.random.default_rng(2).standard_normal((1, 8, 8))))
    with ag.no_grad():
        tokens = conv_stem_forward(x, model.stem).value.data
        pooled = ag.maxpool2d(ag.relu(ag.conv2d(x, *model.stem[0]))).value.data
    assert tokens.shape == (16, 16) and pooled.shape == (16, 4, 4)
    for y in range(4):
        for xx in range(4):
            np.testing.assert_array_equal(tokens[xx + y * 4], pooled[:, y, xx])


def test_sequence_pool_weights_sum_to_one():
    """Pooled output lies in the convex hull of token embeddings."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((10, 6))
    g = rng.standard_normal((6, 1))
    with ag.no_grad():
        pooled = sequence_pool(ag.constant(Tensor(x)), ag.constant(Tensor(g))).value.data
    scores = (x @ g).reshape(-1)
    alpha = np.exp(scores - scores.max())
    alpha /= alpha.sum()
    np.testing.assert_allclose(pooled, alpha @ x, atol=1e-12)


def test_encoder_block_residual_keeps_input_term():
    """Zeroing the block's output projections reduces it to the identity."""
    model = CouplformerModel(tiny_config(depth=1), seed=4)
    block = model.blocks[0]
    block.attn.w_o.assign(Tensor(np.zeros((16, 16))))
    block.ffn_w2.assign(Tensor(np.zeros((32, 16))))
    x = np.random.default_rng(5).standard_normal((49, 16))
    with ag.no_grad():
        out = encoder_block_forward(ag.constant(Tensor(x)), block, "coupled_fast").value.data
    np.testing.assert_allclose(out, x, atol=1e-12)


def test_forward_shapes_and_determinism():
    model = CouplformerModel(tiny_config(), seed=0)
    x = Tensor(np.random.default_rng(6).standard_normal((1, 28, 28)))
    with ag.no_grad():
        l1 = model.forward(x).value.data
        l2 = model.forward(x).value.data
    assert l1.shape == (10,)
    np.testing.assert_array_equal(l1, l2)


def test_forward_rejects_wrong_image_shape():
    model = CouplformerModel(tiny_config(), seed=0)
    with pytest.raises(ShapeError):
        model.forward(Tensor(np.zeros((1, 27, 28))))
    with pytest.raises(ShapeError):
        model.forward(Tensor(np.zeros((3, 28, 28))))
    with pytest.raises(ShapeError):
        model.forward(Tensor(np.zeros((2, 3, 28, 28))))
    for rank in ((28, 28), (1, 2, 1, 28, 28)):
        with pytest.raises(ShapeError, match="batch"):
            model.forward(Tensor(np.zeros(rank)))


def _perturbed_model(config, seed):
    """A model whose zero-initialized tables and biases are not zero."""
    model = CouplformerModel(config, seed=seed)
    rng = np.random.default_rng(seed)
    for var in model.parameters().values():
        var.assign(Tensor(var.value.data + rng.normal(0.0, 0.05, var.shape)))
    return model


# The production kinds, and the explicit oracle run under the coupled_fast name.
MODEL_KINDS = sorted([*KINDS, "coupled_explicit"])


def _attention_kind(monkeypatch, kind):
    """The attention_kind to build ``kind``'s model with, swapping the explicit oracle in for coupled_fast."""
    if kind == "coupled_explicit":
        monkeypatch.setitem(KINDS, "coupled_fast", coupled_attention_explicit)
        return "coupled_fast"
    return kind


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_batch_forward_equals_stacked_single_images(monkeypatch, kind):
    model = _perturbed_model(tiny_config(attention_kind=_attention_kind(monkeypatch, kind), img_size=(16, 12)), seed=11)
    x = np.random.default_rng(12).standard_normal((3, 1, 16, 12))
    with ag.no_grad():
        batched = model.forward(Tensor(x)).value.data
        singles = np.array([model.forward(Tensor(image)).value.data for image in x])
    assert batched.shape == (3, 10)
    np.testing.assert_allclose(batched, singles, rtol=0, atol=1e-12)


def test_batch_gradient_is_mean_of_single_image_gradients():
    model = _perturbed_model(tiny_config(depth=1, img_size=(12, 12)), seed=13)
    x = np.random.default_rng(14).standard_normal((2, 1, 12, 12))
    y = np.array([3, 7])
    params = model.parameters()

    def grads(images, targets):
        for var in params.values():
            var.clear_grad()
        ag.backward(ag.cross_entropy(model.forward(Tensor(images)), targets))
        return {name: var.grad.data for name, var in params.items()}

    batched = grads(x, y)
    singles = [grads(x[i], int(y[i])) for i in range(2)]
    for name in params:
        np.testing.assert_allclose(batched[name], (singles[0][name] + singles[1][name]) / 2, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_score_tracker_counts_every_image_of_a_batch(monkeypatch, kind):
    """One block of a B-image forward records B x heads x (h^2 + w^2), or B x heads x (hw)^2."""
    model = CouplformerModel(tiny_config(attention_kind=_attention_kind(monkeypatch, kind), img_size=(16, 12)), seed=0)
    h, w, heads = 4, 3, 2
    coupled, standard = heads * (h * h + w * w), heads * (h * w) ** 2
    per_image = {"coupled_fast": coupled, "standard": standard, "coupled_explicit": coupled + standard}[kind]
    x = np.zeros((5, 1, 16, 12))
    with T.ScoreTracker() as one, ag.no_grad():
        model.forward(Tensor(x[0]))
    with T.ScoreTracker() as five, ag.no_grad():
        model.forward(Tensor(x))
    assert one.block_totals == [per_image, per_image]
    assert five.block_totals == [5 * per_image, 5 * per_image]


def _graph_nodes(root):
    """Nodes reachable from ``root`` through recorded parents, leaves and root included."""
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


@pytest.mark.parametrize("kind", ["coupled_fast", "standard"])
def test_tiny_training_sample_graph_has_59_nodes(kind):
    """configs/tiny.cfg's model: each stem stage is one node, and so is each pre-norm sublayer: the
    attention mix with its layer norm and its q, k, v and out projections, and the FFN with its
    layer norm, for either mechanism."""
    tiny_cfg = Path(__file__).resolve().parents[1] / "configs" / "tiny.cfg"
    model = CouplformerModel(build_model_config(resolve_config(str(tiny_cfg), [f"attention_kind={kind}"])))
    loss = ag.cross_entropy(model.forward(Tensor(np.zeros((1, 28, 28)))), 3)
    assert _graph_nodes(loss) == 59


def _closure_values(fn, seen):
    """Everything a vjp's closure cells hold, through nested functions and containers."""
    stack = [fn]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        yield item
        if callable(item) and getattr(item, "__closure__", None):
            stack.extend(cell.cell_contents for cell in item.__closure__)
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())


@pytest.mark.parametrize("kind", ["coupled_fast", "standard"])
def test_no_vjp_closure_holds_a_var(kind):
    """A Var in a closure would keep its value, and the graph's, alive until backward."""
    tiny_cfg = Path(__file__).resolve().parents[1] / "configs" / "tiny.cfg"
    model = CouplformerModel(build_model_config(resolve_config(str(tiny_cfg), [f"attention_kind={kind}"])))
    loss = ag.cross_entropy(model.forward(Tensor(np.zeros((1, 28, 28)))), 3)
    nodes, stack, seen, held = {id(loss._op)}, [loss._op], set(), []
    while stack:
        node = stack.pop()
        if node._parents:  # a recorded op, not a leaf
            held += [node._vjp.__qualname__ for v in _closure_values(node._vjp, seen) if isinstance(v, ag.Var)]
        for parent in node._parents:
            if id(parent) not in nodes:
                nodes.add(id(parent))
                stack.append(parent)
    assert len(nodes) == 59 and held == []


@pytest.mark.parametrize("kind", ["coupled_fast", "standard"])
@pytest.mark.parametrize("defect", ["one NaN pixel", "all NaN", "one +inf pixel"])
def test_non_finite_pixels_reach_attention_and_raise(defect, kind):
    """The stem's ReLU keeps NaN, so attention's softmax names it instead of logits coming out finite."""
    tiny_cfg = Path(__file__).resolve().parents[1] / "configs" / "tiny.cfg"
    model = CouplformerModel(build_model_config(resolve_config(str(tiny_cfg), [f"attention_kind={kind}"])))
    x = np.random.default_rng(24).standard_normal((1, 28, 28))
    if defect == "all NaN":
        x[:] = np.nan
    else:
        x[0, 13, 9] = np.nan if defect == "one NaN pixel" else np.inf
    with np.errstate(invalid="ignore"):  # inf - inf inside the stem's GEMM
        with pytest.raises(NonFiniteError):
            model.forward(Tensor(x))
        with ag.no_grad(), pytest.raises(NonFiniteError):
            model.forward(Tensor(np.stack([np.zeros_like(x), x])))


def test_attention_kinds_give_matching_outputs(monkeypatch):
    """standard != coupled, but coupled fast == coupled explicit."""
    x = Tensor(np.random.default_rng(7).standard_normal((1, 28, 28)))
    with ag.no_grad():
        fast = CouplformerModel(tiny_config(attention_kind="coupled_fast"), seed=8).forward(x)
        standard = CouplformerModel(tiny_config(attention_kind="standard"), seed=8).forward(x)
        explicit = CouplformerModel(
            tiny_config(attention_kind=_attention_kind(monkeypatch, "coupled_explicit")), seed=8
        ).forward(x)
    np.testing.assert_allclose(fast.value.data, explicit.value.data, atol=1e-10)
    assert np.max(np.abs(fast.value.data - standard.value.data)) > 1e-8


def test_model_gradients_flow_to_every_parameter():
    model = CouplformerModel(tiny_config(depth=1), seed=9)
    x = Tensor(np.random.default_rng(10).standard_normal((1, 28, 28)))
    loss = ag.cross_entropy(model.forward(x), 3)
    ag.backward(loss)
    for name, var in model.parameters().items():
        assert var.grad is not None, name
        assert np.all(np.isfinite(var.grad.data)), name


def test_fd_whole_model_gradient():
    """End-to-end cross-entropy gradient against central differences."""
    cfg = ModelConfig(
        img_size=(8, 8),
        in_channels=1,
        conv_stem=(StemStage(8),),
        embed_dim=8,
        depth=1,
        heads=2,
        num_classes=3,
    )
    model = CouplformerModel(cfg, seed=11)
    x = Tensor(np.random.default_rng(12).standard_normal((1, 8, 8)))
    assert ag.fd_check(lambda v: ag.cross_entropy(model.forward(v), 1), x) <= 1e-4


# -- checkpointing ---------------------------------------------------------


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    model = CouplformerModel(tiny_config(), seed=13)
    model.save(tmp_path / "ckpt")
    clone = CouplformerModel.load(tmp_path / "ckpt", tiny_config())
    for (name, a), b in zip(model.parameters().items(), clone.parameters().values()):
        np.testing.assert_array_equal(a.value.data, b.value.data, err_msg=name)
    x = Tensor(np.random.default_rng(14).standard_normal((1, 28, 28)))
    with ag.no_grad():
        np.testing.assert_array_equal(
            model.forward(x).value.data, clone.forward(x).value.data
        )


def test_checkpoint_manifest_lists_every_parameter(tmp_path):
    model = CouplformerModel(tiny_config(), seed=15)
    model.save(tmp_path / "ckpt")
    manifest = (tmp_path / "ckpt" / "manifest.txt").read_text().splitlines()
    names = [line.split()[0] for line in manifest if line.strip()]
    assert names == list(model.parameters())
    entry = dict(zip(names, manifest))
    assert entry["head.weight"].split()[1:] == ["16", "10"]


def test_checkpoint_geometry_mismatch_is_detected(tmp_path):
    CouplformerModel(tiny_config(), seed=16).save(tmp_path / "ckpt")
    with pytest.raises(CheckpointError):
        CouplformerModel.load(tmp_path / "ckpt", tiny_config(embed_dim=32, conv_stem=(StemStage(8), StemStage(32))))
    with pytest.raises(CheckpointError):
        CouplformerModel.load(tmp_path / "ckpt", tiny_config(pos_embedding="none"))


def test_checkpoint_corrupt_payload_is_detected(tmp_path):
    model = CouplformerModel(tiny_config(), seed=17)
    model.save(tmp_path / "ckpt")
    blob = (tmp_path / "ckpt" / "tensors.bin").read_bytes()
    (tmp_path / "ckpt" / "tensors.bin").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ValueError):
        CouplformerModel.load(tmp_path / "ckpt", tiny_config())


@pytest.mark.parametrize(
    "defect", ["bad magic", "truncated header", "truncated payload", "forged extent", "trailing record"]
)
def test_checkpoint_defects_raise_checkpoint_error(tmp_path, tensors_bin_defects, defect):
    CouplformerModel(tiny_config(), seed=18).save(tmp_path / "ckpt")
    path = tmp_path / "ckpt" / "tensors.bin"
    path.write_bytes(tensors_bin_defects[defect](path.read_bytes()))
    live = CouplformerModel(tiny_config(), seed=2)
    before = {name: var.value.data.copy() for name, var in live.parameters().items()}
    with pytest.raises(CheckpointError, match="checkpoint"):
        live.load_state(tmp_path / "ckpt")
    for name, var in live.parameters().items():  # a rejected checkpoint assigns nothing
        np.testing.assert_array_equal(var.value.data, before[name], err_msg=name)


@pytest.mark.parametrize("failing_write", [1, 2])
def test_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch, failing_write):
    first = CouplformerModel(tiny_config(), seed=20)
    first.save(tmp_path / "ckpt")
    write_bytes = Path.write_bytes
    calls = []

    def disk_full(path, data):  # one file of the next save is cut short
        calls.append(path)
        if len(calls) == failing_write:
            write_bytes(path, data[: len(data) // 2])
            raise OSError("No space left on device")
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", disk_full)
    with pytest.raises(OSError):
        CouplformerModel(tiny_config(), seed=21).save(tmp_path / "ckpt")
    monkeypatch.undo()
    clone = CouplformerModel.load(tmp_path / "ckpt", tiny_config())
    for (name, a), b in zip(first.parameters().items(), clone.parameters().values()):
        np.testing.assert_array_equal(a.value.data, b.value.data, err_msg=name)


def test_checkpoint_malformed_manifest_raises_checkpoint_error(tmp_path):
    CouplformerModel(tiny_config(), seed=19).save(tmp_path / "ckpt")
    path = tmp_path / "ckpt" / "manifest.txt"
    path.write_text(path.read_text().replace("stem.0.weight 8", "stem.0.weight eight"))
    with pytest.raises(CheckpointError, match="manifest"):
        CouplformerModel.load(tmp_path / "ckpt", tiny_config())


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["tensors.bin", "manifest.txt"]), st.data())
def test_fuzzed_checkpoint_loads_or_raises_checkpoint_error(tmp_path, name, data):
    """A truncated or byte-flipped checkpoint file loads, or raises CheckpointError and assigns nothing."""
    cfg = ModelConfig(img_size=(4, 4), in_channels=1, conv_stem=(StemStage(4),), embed_dim=4, depth=1, heads=1, num_classes=2)
    CouplformerModel(cfg, seed=21).save(tmp_path / "ckpt")
    path = tmp_path / "ckpt" / name
    path.write_bytes(damaged(path.read_bytes(), data))
    model = CouplformerModel(cfg, seed=22)
    before = {k: v.value.data.copy() for k, v in model.parameters().items()}
    try:
        model.load_state(tmp_path / "ckpt")
    except CheckpointError:
        for k, v in model.parameters().items():
            np.testing.assert_array_equal(v.value.data, before[k], err_msg=k)
