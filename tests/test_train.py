import ctypes
import gzip
import math
import os
import struct
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from conftest import damaged, synthetic_two_class
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from couplformer import tensor as T
from couplformer import train
from couplformer.cli import build_model_config, resolve_config
from couplformer.model import CouplformerModel, ModelConfig, StemStage
from couplformer.tensor import NonFiniteError, ShapeError, Tensor
from couplformer.train import (
    METRICS_HEADER,
    MNIST_MEAN,
    MNIST_STD,
    AdamW,
    DataFormatError,
    ImageSet,
    TrainConfig,
    adamw_step,
    evaluate,
    load_dataset,
    load_idx,
    lr_at,
    mnist_paths,
    normalize_images,
    read_idx_images,
    read_idx_labels,
    render_digits,
    split_indices,
    subset_indices,
    train_loop,
    write_digit_idx,
    write_idx_images,
    write_idx_labels,
)
from couplformer import autograd as ag


def two_class_config():
    return ModelConfig(
        img_size=(16, 16),
        in_channels=1,
        conv_stem=(StemStage(8), StemStage(16)),
        embed_dim=16,
        depth=1,
        heads=2,
        num_classes=2,
    )


# -- learning-rate schedule ------------------------------------------------


def test_lr_warmup_is_linear():
    base = 1e-3
    got = [lr_at(s, 100, 10, base) for s in range(10)]
    want = [base * (s + 1) / 10 for s in range(10)]
    np.testing.assert_allclose(got, want)


def test_lr_peaks_after_warmup_then_cosine_decays_to_zero():
    base = 2e-3
    assert lr_at(10, 110, 10, base) == pytest.approx(base)
    mid = lr_at(60, 110, 10, base)
    assert mid == pytest.approx(base * 0.5, rel=1e-12)
    assert lr_at(109, 110, 10, base) < 1e-3 * base + 1e-12
    tail = [lr_at(s, 110, 10, base) for s in range(10, 110)]
    assert all(a >= b for a, b in zip(tail, tail[1:]))


def test_lr_defends_degenerate_inputs():
    assert lr_at(0, 5, 0, 1.0) == 1.0  # no warmup: straight to cosine peak
    with pytest.raises(ValueError):
        lr_at(0, 0, 0, 1.0)


def test_warmup_epochs_scale_with_short_runs():
    assert TrainConfig(epochs=5).resolved_warmup() == 1
    assert TrainConfig(epochs=10).resolved_warmup() == 2
    assert TrainConfig(epochs=100).resolved_warmup() == 10
    assert TrainConfig(epochs=2).resolved_warmup() == 1


# -- AdamW -----------------------------------------------------------------


def test_adamw_decay_is_decoupled():
    """With zero gradient the parameter only shrinks by lr * wd * value."""
    value = np.array([2.0, -4.0])
    zeros = np.zeros(2)
    new, m, v = adamw_step(value, zeros, zeros, zeros, step=1, lr=0.1, weight_decay=0.5)
    np.testing.assert_allclose(new, value * (1 - 0.1 * 0.5))
    np.testing.assert_allclose(m, zeros)
    np.testing.assert_allclose(v, zeros)


def test_adamw_first_step_is_normalized_gradient():
    """Bias correction makes step one roughly -lr * sign(g)."""
    g = np.array([3.0, -0.25])
    zeros = np.zeros(2)
    new, _, _ = adamw_step(zeros.copy(), g, zeros, zeros, step=1, lr=0.01)
    np.testing.assert_allclose(new, -0.01 * np.sign(g), atol=1e-6)


def test_adamw_two_steps_match_hand_rolled_recurrence():
    rng = np.random.default_rng(0)
    value = rng.standard_normal(4)
    g1, g2 = rng.standard_normal(4), rng.standard_normal(4)
    lr, b1, b2, eps, wd = 0.05, 0.9, 0.999, 1e-8, 0.1

    v1, m, v = adamw_step(value, g1, np.zeros(4), np.zeros(4), 1, lr, wd)
    v2, _, _ = adamw_step(v1, g2, m, v, 2, lr, wd)

    p = value.copy()
    mm = np.zeros(4)
    vv = np.zeros(4)
    for t, g in ((1, g1), (2, g2)):
        p = p - lr * wd * p
        mm = b1 * mm + (1 - b1) * g
        vv = b2 * vv + (1 - b2) * g * g
        p = p - lr * (mm / (1 - b1**t)) / (np.sqrt(vv / (1 - b2**t)) + eps)
    np.testing.assert_allclose(v2, p, atol=1e-12)


def test_adamw_class_matches_functional_form():
    rng = np.random.default_rng(1)
    start = rng.standard_normal((3, 2))
    grad = rng.standard_normal((3, 2))
    p = ag.parameter(Tensor(start))
    p._grad = grad.copy()
    opt = AdamW({"p": p}, weight_decay=0.2)
    opt.step(lr=0.03)
    want, _, _ = adamw_step(
        start, grad, np.zeros_like(grad), np.zeros_like(grad), 1, 0.03, weight_decay=0.2
    )
    np.testing.assert_allclose(p.value.data, want, atol=1e-15)


def test_adamw_skips_params_without_grads():
    p = ag.parameter(Tensor(np.ones(2)))
    opt = AdamW({"p": p})
    opt.step(lr=0.1)
    np.testing.assert_array_equal(p.value.data, np.ones(2))


def test_adamw_names_non_finite_gradient():
    p = ag.parameter(Tensor(np.ones(2)))
    p._grad = np.array([1.0, np.nan])
    opt = AdamW({"blocks.0.attn.w_q": p})
    with pytest.raises(NonFiniteError, match="blocks.0.attn.w_q"):
        opt.step(lr=0.1)


def test_adamw_clear_grads():
    p = ag.parameter(Tensor(np.ones(2)))
    p._grad = np.ones(2)
    AdamW({"p": p}).clear_grads()
    assert p.grad is None


# -- IDX files -------------------------------------------------------------


def test_idx_image_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    images = rng.integers(0, 256, size=(7, 5, 4), dtype=np.uint8)
    path = tmp_path / "imgs"
    write_idx_images(path, images)
    np.testing.assert_array_equal(read_idx_images(path), images)
    raw = path.read_bytes()
    assert raw[:4] == struct.pack(">I", 0x00000803)
    assert struct.unpack(">III", raw[4:16]) == (7, 5, 4)


def test_idx_label_round_trip(tmp_path):
    labels = np.arange(10, dtype=np.uint8)
    path = tmp_path / "labels"
    write_idx_labels(path, labels)
    np.testing.assert_array_equal(read_idx_labels(path), labels)
    assert path.read_bytes()[:4] == struct.pack(">I", 0x00000801)


def test_idx_writers_refuse_values_a_uint8_cast_would_change(tmp_path):
    """A cast wrote float pixels of 0.7 as 0 and labels 300 and -1 as 44 and 255, with no warning."""
    for write, bad in (
        (write_idx_images, np.full((2, 3, 3), 0.7)),
        (write_idx_images, np.full((2, 3, 3), 256)),
        (write_idx_images, np.full((2, 3, 3), -1, dtype=np.int8)),
        (write_idx_labels, np.array([1, 300])),
        (write_idx_labels, np.array([-1, 2])),
        (write_idx_labels, np.array([1.0, 2.0])),
    ):
        with pytest.raises(DataFormatError, match="integers|0, 255"):
            write(tmp_path / "out", bad)
    write_idx_labels(tmp_path / "labs", np.array([0, 255], dtype=np.int64))  # in range: written as is
    np.testing.assert_array_equal(read_idx_labels(tmp_path / "labs"), [0, 255])


def test_idx_gzip_transparency(tmp_path):
    images = np.full((2, 3, 3), 9, dtype=np.uint8)
    plain = tmp_path / "imgs"
    write_idx_images(plain, images)
    gz = tmp_path / "imgs.gz"
    gz.write_bytes(gzip.compress(plain.read_bytes()))
    np.testing.assert_array_equal(read_idx_images(gz), images)


def test_gzipped_idx_read_keeps_one_copy_of_the_payload(tmp_path):
    """The traced peak of reading a gzipped 6 MiB payload stays under 1.3 times the payload.

    A stream's read() to the end joins its decompressed chunks into a second copy: a peak of about twice.
    """
    images = (np.arange(8000 * 28 * 28) % 251).astype(np.uint8).reshape(8000, 28, 28)
    plain = tmp_path / "imgs"
    write_idx_images(plain, images)
    gz = tmp_path / "imgs.gz"
    gz.write_bytes(gzip.compress(plain.read_bytes(), compresslevel=1))
    tracemalloc.start()
    try:
        got = read_idx_images(gz)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got, images)
    assert peak < 1.3 * images.nbytes, peak / images.nbytes


def test_idx_bad_magic(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(struct.pack(">IIII", 0x00000801, 1, 2, 2) + bytes(4))
    with pytest.raises(DataFormatError, match="magic"):
        read_idx_images(path)
    lab = tmp_path / "badlab"
    lab.write_bytes(struct.pack(">II", 0x00000803, 1) + bytes(1))
    with pytest.raises(DataFormatError, match="magic"):
        read_idx_labels(lab)


def test_idx_truncation_and_trailing(tmp_path):
    """Images and labels, plain and gzipped: a short payload or a byte over is a DataFormatError."""
    write_idx_images(tmp_path / "imgs", np.zeros((3, 2, 2), dtype=np.uint8))
    write_idx_labels(tmp_path / "labs", np.arange(3, dtype=np.uint8))
    for name, read in (("imgs", read_idx_images), ("labs", read_idx_labels)):
        raw = (tmp_path / name).read_bytes()
        for blob, match in ((raw[:-1], "truncated"), (raw[:-3], "truncated"), (raw + b"\x00", "trailing")):
            for compress in (False, True):
                path = tmp_path / f"{name}.bad"
                path.write_bytes(gzip.compress(blob) if compress else blob)
                with pytest.raises(DataFormatError, match=match):
                    read(path)


def test_idx_forged_extents_are_format_errors_without_allocating(tmp_path):
    """Headers that promise 2^63, 10^12 and 2^32 - 1 bytes, plain and gzipped, under a 2 GiB address-space cap.

    A reader that reads the header's count at once raises OverflowError or MemoryError here.
    """
    pytest.importorskip("resource")
    headers = {
        "huge_images": struct.pack(">IIII", 0x00000803, 2**31, 2**16, 2**16),
        "big_images": struct.pack(">IIII", 0x00000803, 10**6, 1000, 1000),
        "labels": struct.pack(">II", 0x00000801, 2**32 - 1),
    }
    paths = []
    for name, header in headers.items():
        raw = header + bytes(range(64))
        for path, blob in ((tmp_path / name, raw), (tmp_path / f"{name}.gz", gzip.compress(raw))):
            path.write_bytes(blob)
            paths.append(str(path))
    script = textwrap.dedent(
        f"""
        import resource
        from couplformer.train import read_idx_images, read_idx_labels
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        cap = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        for path in {paths!r}:
            read = read_idx_labels if "labels" in path else read_idx_images
            try:
                read(path)
                print("loaded")
            except Exception as exc:
                print(type(exc).__name__, str(exc).startswith("truncated IDX file"))
        """
    )
    package_root = Path(train.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(package_root), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["DataFormatError True"] * len(paths)


def test_corrupt_gzip_stream_is_a_format_error(tmp_path):
    write_idx_images(tmp_path / "imgs", np.zeros((3, 4, 4), dtype=np.uint8))
    packed = gzip.compress((tmp_path / "imgs").read_bytes())
    broken = bytearray(packed)
    broken[-8] ^= 0xFF  # the CRC
    for blob in (packed[:-9], bytes(broken)):
        (tmp_path / "imgs.gz").write_bytes(blob)
        with pytest.raises(DataFormatError, match="gzip"):
            read_idx_images(tmp_path / "imgs.gz")


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["imgs", "labs"]), st.booleans(), st.data())
def test_fuzzed_idx_pair_loads_or_raises_format_error(tmp_path, name, compress, data):
    """A truncated or byte-flipped image or label file, plain or gzipped, loads a matched pair or raises DataFormatError."""
    write_idx_images(tmp_path / "imgs", np.arange(48, dtype=np.uint8).reshape(3, 4, 4))
    write_idx_labels(tmp_path / "labs", np.arange(3, dtype=np.uint8))
    blob = (tmp_path / name).read_bytes()
    if compress:
        blob = gzip.compress(blob, mtime=0)
    (tmp_path / name).write_bytes(damaged(blob, data))
    try:
        images, labels = load_idx(tmp_path / "imgs", tmp_path / "labs")
    except DataFormatError:
        return
    assert images.ndim == 3 and images.shape[0] == labels.shape[0]


def test_load_idx_count_mismatch(tmp_path):
    write_idx_images(tmp_path / "i", np.zeros((3, 2, 2), dtype=np.uint8))
    write_idx_labels(tmp_path / "l", np.zeros(4, dtype=np.uint8))
    with pytest.raises(DataFormatError, match="mismatch"):
        load_idx(tmp_path / "i", tmp_path / "l")


def test_normalize_images_statistics():
    images = np.array([[[0, 255]]], dtype=np.uint8)
    out = normalize_images(images)
    assert out.shape == (1, 1, 1, 2)
    np.testing.assert_allclose(out[0, 0, 0, 0], (0.0 - 0.1307) / 0.3081)
    np.testing.assert_allclose(out[0, 0, 0, 1], (1.0 - 0.1307) / 0.3081)


def test_normalize_images_every_pixel_value_exact():
    pixels = np.arange(256, dtype=np.uint8).reshape(1, 16, 16)
    want = (pixels.astype(np.float64) / 255.0 - MNIST_MEAN) / MNIST_STD
    np.testing.assert_array_equal(normalize_images(pixels)[:, 0], want)
    with pytest.raises(DataFormatError, match="uint8"):
        normalize_images(pixels.astype(np.float64))


def test_mnist_paths_and_load_dataset(tmp_path):
    write_digit_idx(tmp_path, n_train=20, n_test=10, seed=1)
    paths = mnist_paths(tmp_path)
    assert paths["train_images"].name == "train-images-idx3-ubyte"
    tx, ty, ex, ey = load_dataset(tmp_path)
    assert tx.shape == (20, 1, 28, 28) and ex.shape == (10, 1, 28, 28)
    assert ty.dtype == np.int64 and set(ty) <= set(range(10))
    with pytest.raises(FileNotFoundError):
        mnist_paths(tmp_path / "nope")


def test_image_set_indexing_normalizes_just_the_selected_images():
    pixels = np.random.default_rng(14).integers(0, 256, size=(9, 5, 4), dtype=np.uint8)
    images, eager = ImageSet(pixels), normalize_images(pixels)
    assert images.shape == (9, 1, 5, 4) and len(images) == 9
    cases = [3, -1, np.int64(-9), slice(2, 7), slice(None, None, -2), np.array([0, 4, 8]),
             np.array([7, 1, 1, 3]), np.array([], dtype=np.int64)]
    for index in cases:
        got, want = images[index], eager[index]
        assert type(got) is np.ndarray and got.dtype == np.float64 and got.flags.c_contiguous
        assert got.shape == want.shape, index
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    with pytest.raises(TypeError, match="first axis"):
        images[0, 0]
    with pytest.raises(DataFormatError, match="uint8"):
        ImageSet(pixels.astype(np.int16))


def test_load_dataset_peak_stays_near_the_uint8_payload(digit_dir):
    """Nothing is normalized before it is indexed: normalizing every image on load traced about 9 times the payload."""
    tracemalloc.start()
    try:
        tx, _, ex, _ = load_dataset(digit_dir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    payload = math.prod(tx.shape) + math.prod(ex.shape)
    assert peak < 1.3 * payload, peak / payload


# -- splits and synthetic data ---------------------------------------------


def test_split_indices_partition_and_determinism():
    tr1, va1 = split_indices(100, 0.2, seed=3)
    tr2, va2 = split_indices(100, 0.2, seed=3)
    np.testing.assert_array_equal(tr1, tr2)
    np.testing.assert_array_equal(va1, va2)
    assert len(va1) == 20 and len(tr1) == 80
    assert set(tr1) | set(va1) == set(range(100))
    assert set(tr1) & set(va1) == set()
    tr3, va3 = split_indices(100, 25, seed=3)  # absolute count form
    with pytest.raises(ValueError, match="whole"):
        split_indices(100, 2.5, seed=3)
    assert len(va3) == 25 and len(tr3) == 75


def test_subset_indices_behaviour():
    np.testing.assert_array_equal(subset_indices(10, None, 0), np.arange(10))
    np.testing.assert_array_equal(subset_indices(10, 99, 0), np.arange(10))
    sub = subset_indices(1000, 10, seed=4)
    assert len(sub) == 10 and len(set(sub)) == 10
    np.testing.assert_array_equal(sub, subset_indices(1000, 10, seed=4))
    assert list(sub) != list(range(10))  # actually shuffled


def test_synthetic_two_class_is_separable_by_half():
    x, y = synthetic_two_class(50, (16, 16), seed=5)
    assert x.shape == (50, 1, 16, 16)
    top = x[:, 0, :8].mean(axis=(1, 2))
    bottom = x[:, 0, 8:].mean(axis=(1, 2))
    np.testing.assert_array_equal(y == 1, bottom > top)


def test_render_digits_is_deterministic_uint8():
    x1, y1 = render_digits(12, seed=6)
    x2, y2 = render_digits(12, seed=6)
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(y1, y2)
    assert x1.dtype == np.uint8 and x1.shape == (12, 28, 28)
    assert set(y1) <= set(range(10))
    assert x1.max() > 100  # digits are actually drawn


def _render_digits_image_by_image(n, img_size, seed):
    """The renderer as it first was: one canvas, one blur and one noise draw per loop pass."""
    from scipy.ndimage import gaussian_filter

    rng = np.random.default_rng((seed, 0x676C79))
    h, w = img_size
    labels = rng.integers(0, 10, size=n)
    images = np.zeros((n, h, w), dtype=np.float64)
    scale = max(1, min(h // 9, w // 7))
    for i, lab in enumerate(labels):
        glyph = np.kron(train._glyph_array(int(lab)), np.ones((scale, scale)))
        gh, gw = glyph.shape
        top = (h - gh) // 2 + int(rng.integers(-2, 3))
        left = (w - gw) // 2 + int(rng.integers(-2, 3))
        top = int(np.clip(top, 0, h - gh))
        left = int(np.clip(left, 0, w - gw))
        canvas = np.zeros((h, w))
        canvas[top : top + gh, left : left + gw] = glyph * rng.uniform(0.65, 1.0)
        canvas = gaussian_filter(canvas, sigma=0.7)
        canvas += rng.normal(0.0, 0.04, size=(h, w))
        images[i] = np.clip(canvas, 0.0, 1.0)
    return np.round(images * 255.0).astype(np.uint8), labels.astype(np.int64)


@pytest.mark.parametrize("img_size", [(28, 28), (112, 112), (9, 7), (30, 20)])
@pytest.mark.parametrize("seed", [0, 1, 6, 41])
def test_render_digits_is_bytewise_the_image_by_image_loop(img_size, seed):
    n = 300 if img_size == (28, 28) else 40
    x, y = render_digits(n, img_size, seed=seed)
    ref_x, ref_y = _render_digits_image_by_image(n, img_size, seed)
    assert x.tobytes() == ref_x.tobytes()
    np.testing.assert_array_equal(y, ref_y)


def test_render_digits_rejects_a_canvas_smaller_than_a_glyph():
    with pytest.raises(ValueError, match="does not fit"):
        render_digits(2, (6, 28))


# -- training loop ---------------------------------------------------------


def _fit_two_class(seed, **config_overrides):
    x, y = synthetic_two_class(120, (16, 16), seed=7)
    model = CouplformerModel(two_class_config(), seed=seed)
    config = TrainConfig(epochs=4, batch_size=20, lr=3e-3, seed=seed, **config_overrides)
    result = train_loop(model, x[:100], y[:100], x[100:], y[100:], config)
    return model, result


def test_train_loop_learns_separable_data():
    _, result = _fit_two_class(seed=0)
    assert result.final_train_acc >= 0.99
    assert result.final_val_acc >= 0.95
    assert result.history[-1]["train_loss"] < result.history[0]["train_loss"]


def test_train_loop_metrics_csv_shape(tmp_path):
    x, y = synthetic_two_class(40, (16, 16), seed=8)
    model = CouplformerModel(two_class_config(), seed=1)
    train_loop(
        model,
        x[:30],
        y[:30],
        x[30:],
        y[30:],
        TrainConfig(epochs=3, batch_size=10, lr=1e-3),
        metrics_path=tmp_path / "metrics.csv",
    )
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == METRICS_HEADER == "epoch,step,lr,train_loss,train_acc,val_acc"
    assert len(lines) == 4  # header + one row per epoch
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "3"  # 3 steps/epoch at batch 10


def test_train_loop_is_byte_deterministic(tmp_path):
    for name in ("a", "b"):
        x, y = synthetic_two_class(40, (16, 16), seed=9)
        model = CouplformerModel(two_class_config(), seed=2)
        train_loop(
            model,
            x[:30],
            y[:30],
            x[30:],
            y[30:],
            TrainConfig(epochs=2, batch_size=10, lr=1e-3, seed=2),
            metrics_path=tmp_path / f"{name}.csv",
        )
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_train_loop_checkpoint_matches_final_model(tmp_path):
    x, y = synthetic_two_class(40, (16, 16), seed=10)
    model = CouplformerModel(two_class_config(), seed=3)
    result = train_loop(
        model,
        x[:30],
        y[:30],
        x[30:],
        y[30:],
        TrainConfig(epochs=2, batch_size=10, lr=1e-3),
        checkpoint_dir=tmp_path / "ckpt",
    )
    clone = CouplformerModel.load(tmp_path / "ckpt", two_class_config())
    loss, acc = evaluate(clone, x[30:], y[30:])
    assert acc == pytest.approx(result.final_val_acc, abs=1e-12)


def test_train_loop_early_stop():
    _, result = _fit_two_class(seed=4, target_train_acc=0.5)
    assert result.stopped_early
    assert len(result.history) < 4
    assert result.final_train_acc >= 0.5


def test_train_loop_rejects_empty_dataset():
    model = CouplformerModel(two_class_config(), seed=0)
    empty = np.zeros((0, 1, 16, 16))
    with pytest.raises(ValueError):
        train_loop(model, empty, np.zeros(0, dtype=int), empty, np.zeros(0, dtype=int), TrainConfig(epochs=1))


@pytest.mark.parametrize("images, labels", [(10, 20), (10, 8)])
def test_train_loop_rejects_a_label_count_unlike_the_image_count_before_touching_the_model(images, labels):
    model = CouplformerModel(two_class_config(), seed=3)
    before = {name: p.value.data.copy() for name, p in model.parameters().items()}
    x, y = synthetic_two_class(20, (16, 16), seed=3)
    with pytest.raises(ShapeError, match=f"{images} train images but {labels} labels"):
        train_loop(model, x[:images], y[:labels], x[:2], y[:2], TrainConfig(epochs=1, batch_size=4))
    with pytest.raises(ShapeError, match=f"{images} validation images but {labels} labels"):
        train_loop(model, x[:4], y[:4], x[:images], y[:labels], TrainConfig(epochs=1, batch_size=4))
    assert all(np.array_equal(p.value.data, before[name]) for name, p in model.parameters().items())


@pytest.mark.parametrize("images, labels", [(40, 45), (10, 20), (10, 8), (0, 3)])
def test_evaluate_rejects_a_label_count_unlike_the_image_count(images, labels):
    model = CouplformerModel(two_class_config(), seed=5)
    x, y = synthetic_two_class(45, (16, 16), seed=11)
    with pytest.raises(ShapeError, match=f"evaluate: {images} images but {labels} labels"):
        evaluate(model, x[:images], y[:labels])


def test_evaluate_counts_hits():
    model = CouplformerModel(two_class_config(), seed=5)
    x, y = synthetic_two_class(10, (16, 16), seed=11)
    loss, acc = evaluate(model, x, y)
    assert 0.0 <= acc <= 1.0
    assert np.isfinite(loss)


def test_evaluate_no_images():
    model = CouplformerModel(two_class_config(), seed=5)
    x, y = synthetic_two_class(4, (16, 16), seed=11)
    assert evaluate(model, x[:0], y[:0]) == (0.0, 0.0)


def test_evaluate_over_several_chunks_matches_image_by_image():
    config = ModelConfig(
        img_size=(32, 32), in_channels=1, conv_stem=(StemStage(8), StemStage(16)),
        embed_dim=16, depth=1, heads=2, num_classes=2,
    )
    x, y = synthetic_two_class(70, (32, 32), seed=12)
    assert x.shape[0] > train._EVAL_PIXELS // (32 * 32)  # several forwards, the last one short
    model = CouplformerModel(config, seed=6)
    loss, acc = evaluate(model, x, y)
    with ag.no_grad():
        logits = [model.forward(Tensor(image)) for image in x]
        losses = [ag.cross_entropy(z, int(t)).item() for z, t in zip(logits, y)]
    assert abs(loss - np.mean(losses)) <= 1e-12
    assert acc == sum(int(np.argmax(z.value.data)) == t for z, t in zip(logits, y)) / len(y)
    assert 0.0 < acc < 1.0  # an untrained model: the accuracy check is not vacuous


def _serial_evaluate(model, images, labels):
    """The single-threaded chunk loop that evaluate ran before its chunks went to worker threads."""
    n = images.shape[0]
    chunk = max(1, train._EVAL_PIXELS // math.prod(images.shape[1:]))
    total, hits = 0.0, 0
    with ag.no_grad():
        for start in range(0, n, chunk):
            x, y = images[start : start + chunk], np.asarray(labels[start : start + chunk])
            logits = model.forward(Tensor(x))
            total += ag.cross_entropy(logits, y).item() * y.shape[0]
            hits += int(np.sum(np.argmax(logits.value.data, axis=1) == y))
    return total / n, hits / n


def _bits(loss, acc):
    return np.array([loss, acc], dtype=np.float64).view(np.uint64).tolist()


_EVAL_CONFIG = dict(
    img_size=(32, 32), in_channels=1, conv_stem=(StemStage(8), StemStage(16)),
    embed_dim=16, depth=1, heads=2, num_classes=10,
)
_EVAL_CHUNK = train._EVAL_PIXELS // (32 * 32)


def _eval_case(kind, chunks, as_image_set, seed=30):
    """A 32-px model and (images, labels) that evaluate splits into ``chunks`` forwards, the last one short."""
    model = CouplformerModel(ModelConfig(**_EVAL_CONFIG, attention_kind=kind), seed=7)
    n = (chunks - 1) * _EVAL_CHUNK + 3
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(n, 32, 32), dtype=np.uint8)
    images = ImageSet(pixels) if as_image_set else normalize_images(pixels)
    return model, images, rng.integers(0, 10, size=n)


def _forward_threads(monkeypatch, model):
    """Record the thread of every forward that ``model`` runs."""
    threads, inner = [], model.forward

    def forward(x):
        threads.append(threading.get_ident())
        return inner(x)

    monkeypatch.setattr(model, "forward", forward)
    return threads


@pytest.mark.parametrize("cpus", [None, 1, 4])
@pytest.mark.parametrize("as_image_set", [False, True], ids=["array", "image_set"])
@pytest.mark.parametrize("chunks", [1, 2, 5])
@pytest.mark.parametrize("kind", ["coupled_fast", "standard"])
def test_evaluate_is_bitwise_the_serial_loop_for_any_worker_count(monkeypatch, kind, chunks, as_image_set, cpus):
    """Chunks on worker threads, summed in chunk order: the serial loop's bits, every time.

    ``cpus`` stands for the usable CPUs: None is this machine, 1 is the
    inline path, and 4 gives more workers than this machine may have cores.
    """
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    model, images, labels = _eval_case(kind, chunks, as_image_set)
    expected = _bits(*_serial_evaluate(model, images, labels))
    threads = _forward_threads(monkeypatch, model)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(20):
            assert _bits(*evaluate(model, images, labels)) == expected
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) == 20 * chunks
    workers = min(chunks, cpus or train._usable_cpus())
    assert (set(threads) == {threading.get_ident()}) == (workers == 1)


class _LogitsFromPixels:
    """A stand-in model whose logits for an image are (0, its first pixel), so each image's loss is softplus(pixel)."""

    def forward(self, x):
        return ag.constant(np.stack([np.zeros(x.shape[0]), x.data[:, 0, 0, 0]], axis=1))


@pytest.mark.parametrize("cpus", [2, 3])
def test_evaluate_adds_the_chunks_in_chunk_order(monkeypatch, cpus):
    """Chunk losses 4 ln 2, 4e16, 4 ln 2, 4 ln 2: added worker by worker, they give other bits."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    size = 64
    chunk = train._EVAL_PIXELS // (size * size)
    images = np.zeros((4 * chunk, 1, size, size))
    images[chunk : 2 * chunk] = 1e16
    labels = np.zeros(4 * chunk, dtype=np.int64)
    losses = [chunk * math.log(2), chunk * 1e16, chunk * math.log(2), chunk * math.log(2)]
    assert sum(losses) != sum(x for w in range(cpus) for x in losses[w::cpus])  # the case tells the orders apart
    loss, acc = evaluate(_LogitsFromPixels(), images, labels)
    expected = _serial_evaluate(_LogitsFromPixels(), images, labels)
    assert _bits(loss, acc) == _bits(*expected)
    assert loss == sum(losses) / images.shape[0]


def test_evaluate_leaves_no_thread_running():
    model, images, labels = _eval_case("coupled_fast", 5, as_image_set=True)
    before = threading.active_count()
    evaluate(model, images, labels)
    assert threading.active_count() == before


@pytest.mark.parametrize("chunks", [1, 5])
def test_evaluate_forwards_record_no_graph(monkeypatch, chunks):
    """Grad recording is on in the caller; each chunk's forward still runs without a graph."""
    model, images, labels = _eval_case("coupled_fast", chunks, as_image_set=False)
    logits, inner = [], model.forward
    monkeypatch.setattr(model, "forward", lambda x: logits.append(inner(x)) or logits[-1])
    evaluate(model, images, labels)
    assert len(logits) == chunks
    assert all(z._parents == () and not z.requires_grad for z in logits)


@pytest.mark.parametrize("chunks", [1, 5])
def test_evaluate_raises_non_finite_from_a_worker(chunks):
    model, images, labels = _eval_case("standard", chunks, as_image_set=False)
    images[-1, 0, 13, 9] = np.nan  # in the last chunk, a worker's when there are several
    with pytest.raises(NonFiniteError):
        evaluate(model, images, labels)


@pytest.mark.parametrize("chunks", [1, 5])
def test_score_tracker_does_not_see_evaluate(chunks):
    """Each forward runs in a fresh context, inline or on a worker, so the caller's tracker records nothing."""
    model, images, labels = _eval_case("coupled_fast", chunks, as_image_set=True)
    with T.ScoreTracker() as tracker:
        evaluate(model, images, labels)
    assert tracker.block_totals == []


def _os_threads() -> int | None:
    """Threads of this process as the OS counts them (Linux), else None."""
    try:
        return len(os.listdir("/proc/self/task"))
    except FileNotFoundError:
        return None


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_no_thread_outlives_train_loop(monkeypatch, cpus):
    """The epochs run with one worker per usable CPU; the threads have ended, in the OS too, when train_loop returns.

    Four validation chunks give every worker a piece, so each worker's
    thread has started by the first epoch's end.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    model, images, labels = _eval_case("coupled_fast", 4, as_image_set=False)
    before, os_before, during = threading.active_count(), _os_threads(), []
    train_loop(
        model, images[:8], labels[:8], images, labels,
        TrainConfig(epochs=2, batch_size=4, seed=0), log=lambda row: during.append(threading.active_count()),
    )
    assert during == [before + cpus - 1] * 2
    assert threading.active_count() == before
    assert _os_threads() == os_before


_GRID28_STANDARD = ModelConfig(
    img_size=(112, 112), in_channels=1, conv_stem=(StemStage(16), StemStage(32)),
    embed_dim=32, depth=2, heads=4, num_classes=10, attention_kind="standard",
)


@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize("in_train_scope", [False, True], ids=["alone", "in_train_scope"])
def test_evaluate_never_nests_worker_threads(monkeypatch, cpus, in_train_scope):
    """At 112 px each standard mix could split its rows, but inside evaluate's chunk forwards it deals nothing.

    Every softmax pass runs on the thread of the forward it belongs to, and
    no more threads run than usable CPUs, with evaluate alone or inside
    the scope that train_loop opens.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    model = CouplformerModel(_GRID28_STANDARD, seed=0)
    rng = np.random.default_rng(24)
    x, y = rng.standard_normal((4, 1, 112, 112)), rng.integers(0, 10, 4)
    assert train._EVAL_PIXELS // (112 * 112) == 1  # four chunks
    forwarding, passes = set(), []
    inner_forward, inner_softmax = model.forward, ag._softmax

    def forward(images):
        forwarding.add(threading.get_ident())
        try:
            return inner_forward(images)
        finally:
            forwarding.discard(threading.get_ident())

    def softmax(arr, out):
        if arr.shape == (392, 784):  # half a map; the sequence pool's softmax is not one
            passes.append((threading.get_ident() in forwarding, threading.get_ident(), threading.active_count()))
        return inner_softmax(arr, out)

    monkeypatch.setattr(model, "forward", forward)
    monkeypatch.setattr(ag, "_softmax", softmax)
    before = threading.active_count()
    if in_train_scope:
        with ag.workers(train._usable_cpus()):
            evaluate(model, x, y)
    else:
        evaluate(model, x, y)
    assert len(passes) == 4 * 2 * 4 * 2  # chunks, blocks, heads, row halves
    assert all(inside for inside, _, _ in passes)
    assert len({thread for _, thread, _ in passes}) <= cpus
    assert max(count for _, _, count in passes) <= before + cpus - 1


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_training_sample_is_bitwise_the_same_for_any_worker_count(monkeypatch, cpus):
    """A 112-px standard model's logits and every parameter gradient, with its mixes' row halves on workers or not."""
    model = CouplformerModel(_GRID28_STANDARD, seed=0)
    image = Tensor(np.random.default_rng(25).standard_normal((1, 112, 112)))

    def sample() -> list[bytes]:
        model_params = model.parameters()
        for p in model_params.values():
            p.clear_grad()
        logits = model.forward(image)
        ag.backward(ag.cross_entropy(logits, 3))
        return [logits.value.data.tobytes(), *(p._grad.tobytes() for p in model_params.values())]

    want = sample()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    with ag.workers(train._usable_cpus()):
        assert sample() == want


def test_train_config_rejects_non_positive_epochs_and_batch_size():
    for bad in (dict(epochs=0), dict(epochs=-1), dict(epochs=2, batch_size=0), dict(epochs=2, batch_size=-8)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


# -- memory: one graph alive ----------------------------------------------


def _tiny_model(*overrides: str):
    tiny_cfg = Path(__file__).resolve().parents[1] / "configs" / "tiny.cfg"
    return CouplformerModel(build_model_config(resolve_config(str(tiny_cfg), list(overrides))), seed=0)


def _traced_now() -> int:
    return tracemalloc.get_traced_memory()[0]


def _graph_bytes(model, image: Tensor) -> int:
    """Heap one training sample's graph holds: its forward and loss, traced."""
    tracemalloc.start()
    try:
        base = _traced_now()
        loss = ag.cross_entropy(model.forward(image), 3)
        held = _traced_now() - base
        del loss
    finally:
        tracemalloc.stop()
    return held


def test_backward_leaves_only_parameter_gradients_on_the_heap():
    model = _tiny_model("img_size=48")  # a 12x12 token grid: tiny.cfg's 28-px graph is under 0.5 MB
    image = Tensor(np.random.default_rng(20).standard_normal((1, 48, 48)))
    graph = _graph_bytes(model, image)
    assert graph > 512 << 10  # about 0.7 MB, 20x the slack below
    tracemalloc.start()
    try:
        base = _traced_now()
        logits = model.forward(image)
        loss = ag.cross_entropy(logits, 3)
        ag.backward(loss)
        held = _traced_now() - base
    finally:
        tracemalloc.stop()
    grads = sum(p._grad.nbytes for p in model.parameters().values())
    assert logits.shape == (10,) and loss.item() > 0  # both still referenced
    assert held <= grads + (32 << 10), (held, grads, graph)


def test_one_training_step_peaks_with_one_sample_graph(monkeypatch):
    """A training step holds one sample's graph at a time, never two.

    Each sample's backward consumes its graph before the next sample's
    forward: once that forward has returned, no node of an earlier sample
    that still holds its vjp, and so its activations, is alive.  The only
    earlier nodes left are the two that train_loop still names until it
    rebinds them, the last sample's logits and loss, both consumed.
    """
    model = _tiny_model()
    x, y = np.random.default_rng(21).standard_normal((4, 1, 28, 28)), np.arange(4)
    samples: list[list[weakref.ref]] = []
    left: list[list[bool]] = []  # per forward: whether each earlier node alive after it is consumed

    class Tracked(ag._Node):  # without __slots__ of its own, it takes weak references
        def __init__(self, *args) -> None:
            super().__init__(*args)
            samples[-1].append(weakref.ref(self))

    def forward(image):
        samples.append([])
        logits = model_forward(image)
        alive = [node for refs in samples[:-1] for ref in refs if (node := ref()) is not None]
        left.append([node._vjp is ag._consumed and node._parents == () for node in alive])
        return logits

    model_forward = model.forward
    monkeypatch.setattr(ag, "_Node", Tracked)
    monkeypatch.setattr(model, "forward", forward)
    train_loop(model, x, y, x[:0], y[:0], TrainConfig(epochs=1, batch_size=4, seed=0))
    assert [len(refs) for refs in samples] == [25] * 4  # the forward's 23 op nodes, the loss and its scale
    assert left == [[], [True, True], [True, True], [True, True]]


def _libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):  # no handle on the C library, as on Windows
        return False


@pytest.mark.skipif(not _libc_has_mallopt(), reason="needs glibc's mallopt")
@pytest.mark.parametrize("kind", ["coupled_fast", "standard"])
def test_training_keeps_its_heap_pages_between_samples(kind):
    """After a warm-up run, a 28x28-token sample faults no fresh pages in.

    Both malloc settings count: without the raised trim threshold both
    models' samples fault their pages back in, and without the raised mmap
    threshold the standard model's still do.
    """
    resource = pytest.importorskip("resource")
    config = ModelConfig(
        img_size=(112, 112),
        in_channels=1,
        conv_stem=(StemStage(16), StemStage(32)),
        embed_dim=32,
        depth=2,
        heads=4,
        num_classes=10,
        attention_kind=kind,
    )
    rng = np.random.default_rng(22)
    x, y = rng.standard_normal((8, 1, 112, 112)), rng.integers(0, 10, 8)
    train_config = TrainConfig(epochs=1, batch_size=4, seed=0)
    train_loop(CouplformerModel(config, seed=0), x, y, x[:0], y[:0], train_config)
    model = CouplformerModel(config, seed=1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train_loop(model, x, y, x[:0], y[:0], train_config)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / 8 < 20, faults


@pytest.mark.skipif(not _libc_has_mallopt(), reason="needs glibc's mallopt")
def test_evaluate_keeps_its_heap_pages_between_calls():
    """A second evaluate of the 112-px standard model faults no fresh pages in.

    It runs in a fresh interpreter, as ``couplformer eval`` does: a
    train_loop anywhere in this process would already have set malloc's
    process-wide thresholds.
    """
    script = textwrap.dedent(
        """
        import resource
        import numpy as np
        from couplformer.model import CouplformerModel, ModelConfig, StemStage
        from couplformer.train import evaluate

        config = ModelConfig(
            img_size=(112, 112), in_channels=1, conv_stem=(StemStage(16), StemStage(32)),
            embed_dim=32, depth=2, heads=4, num_classes=10, attention_kind="standard",
        )
        rng = np.random.default_rng(23)
        x, y = rng.standard_normal((4, 1, 112, 112)), rng.integers(0, 10, 4)
        model = CouplformerModel(config, seed=0)
        evaluate(model, x, y)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        evaluate(model, x, y)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
    )
    package_root = Path(train.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(package_root), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults = int(proc.stdout)
    assert faults / 4 < 20, faults
