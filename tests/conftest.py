import struct

import numpy as np
import pytest
from hypothesis import strategies as st

from couplformer import autograd as ag
from couplformer import tensor as T
from couplformer.train import write_digit_idx

# Ways to damage a checkpoint's tensors.bin; the first record is stem.0.weight,
# rank 4, so bytes 5..13 hold its first extent.
TENSORS_BIN_DEFECTS = {
    "bad magic": lambda blob: b"NOPE" + blob[4:],
    "truncated header": lambda blob: blob[:9],
    "truncated payload": lambda blob: blob[: len(blob) // 2],
    "forged extent": lambda blob: blob[:5] + struct.pack("<Q", 2**37) + blob[13:],
    "trailing record": lambda blob: blob + T.to_bytes(T.ones((3,))),
}


def damaged(blob: bytes, data) -> bytes:
    """``blob`` cut short, or with one byte xor-ed by a non-zero mask, as drawn from hypothesis ``data``."""
    at = data.draw(st.integers(0, len(blob) - 1))
    if data.draw(st.booleans()):
        return blob[:at]
    out = bytearray(blob)
    out[at] ^= data.draw(st.integers(1, 255))
    return bytes(out)


# The single ops that the fused nodes replace, kept as links of the composed
# chains that pin ag.conv_relu_pool and ag.feedforward bit for bit.  Each is
# built on the fused op's own private kernels.


def relu(x):
    """max(x, 0), branch-free: a NaN stays NaN."""
    out = np.maximum(x.value.data, 0.0)
    return ag._node(out, (x,), lambda g: (g * (out > 0),))


def gelu(x):
    """x * Phi(x)."""
    arr = x.value.data
    cdf = ag._gelu_cdf(arr)
    return ag._node(arr * cdf, (x,), lambda g: (ag._gelu_grad(g, arr, cdf),))


def conv2d(x, weight, bias):
    """The stem's 3x3 stride-1 convolution of (C, H, W) or (B, C, H, W) by an (O, C, 3, 3) kernel, keeping H and W."""
    out, parents, conv_vjp = ag._conv("conv2d", x, weight, bias)
    rows = out.shape[0]
    return ag._node(
        ag._from_channel_major(out, x.value.data), parents, lambda g: conv_vjp(ag._channel_major(g).reshape(rows, -1))
    )


def maxpool2d(x):
    """The stem's 3x3/2 max pool with padding 1; each output's gradient goes to its window's first maximum."""
    arr = x.value.data
    ag._check_images("maxpool2d", arr)
    out, first = ag._pool(arr, ag._recording((x,)))
    shape = arr.shape
    return ag._node(out, (x,), lambda g: (ag._pool_scatter(g, first, shape),))


def synthetic_two_class(n: int, img_size: tuple[int, int] = (16, 16), seed: int = 0):
    """Linearly separable toy set: class 0 lights the top half, class 1 the bottom."""
    rng = np.random.default_rng((seed, 0x32636C))
    h, w = img_size
    labels = rng.integers(0, 2, size=n)
    images = rng.normal(0.0, 0.15, size=(n, 1, h, w))
    half = h // 2
    for i, lab in enumerate(labels):
        rows = slice(0, half) if lab == 0 else slice(half, h)
        images[i, 0, rows, :] += 1.0
    return images, labels.astype(np.int64)


@pytest.fixture(scope="session")
def digit_dir(tmp_path_factory):
    """Rendered ten-digit IDX dataset shared by training/CLI/acceptance tests."""
    root = tmp_path_factory.mktemp("digits")
    write_digit_idx(root, n_train=3000, n_test=500, seed=0)
    return root


@pytest.fixture
def tensors_bin_defects():
    """Defect name -> function returning a damaged copy of a tensors.bin blob."""
    return TENSORS_BIN_DEFECTS
