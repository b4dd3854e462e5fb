"""Gradient checks: every differentiable op against central finite differences.

The oracle is ``fd_check`` itself trivial code apart; where an op has a
simple closed-form derivative (matmul, softmax) we also compare against a
hand-written formula so the finite-difference harness is not the only
witness.
"""

import os
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import conv2d, gelu, maxpool2d, relu

from couplformer import autograd as ag
from couplformer import tensor as T
from couplformer import train
from couplformer.autograd import GraphError, Var
from couplformer.tensor import NonFiniteError, ShapeError, Tensor

TOL = 1e-5


def _r(seed, *shape):
    return Tensor(np.random.default_rng(seed).standard_normal(shape))


def _probed(op, shape, seed):
    """Scalar loss sum(op(v) * P) for a fixed random probe P of the output shape.

    A plain sum gives every output the same weight, so it hides a vjp that
    routes gradient entries to the wrong input cells.
    """
    probe = ag.constant(Tensor(np.random.default_rng((seed, 0x7072)).standard_normal(shape)))
    return lambda v: ag.sum_all(ag.mul(op(v), probe))


# -- graph mechanics -------------------------------------------------------


def test_backward_accumulates_over_reuse():
    x = ag.parameter(Tensor(np.array([2.0, 3.0])))
    y = ag.add(x, x)  # dy/dx = 2
    ag.backward(ag.sum_all(y))
    np.testing.assert_allclose(x.grad.data, [2.0, 2.0])


def test_backward_requires_scalar():
    x = ag.parameter(_r(0, 3))
    with pytest.raises(GraphError):
        ag.backward(relu(x))


def test_backward_twice_is_an_error():
    x = ag.parameter(_r(1, 2))
    loss = ag.sum_all(ag.mul(x, x))
    ag.backward(loss)
    with pytest.raises(GraphError):
        ag.backward(loss)


def test_backward_through_a_consumed_node_is_an_error():
    """A second graph reaching into a consumed one is refused before any gradient moves."""
    x = ag.parameter(Tensor(np.array([1.0, 2.0])))
    y = ag.mul(x, x)
    ag.backward(ag.sum_all(y))
    with pytest.raises(GraphError):
        ag.backward(ag.sum_all(ag.scale(y, 2.0)))
    np.testing.assert_array_equal(x.grad.data, [2.0, 4.0])


def test_recorded_matmul_add_chain_keeps_no_matmul_output():
    """A node holds its parents' nodes, not their values: only vjp closures keep arrays."""
    x, w, b = ag.parameter(_r(30, 4, 3)), ag.parameter(_r(31, 3, 5)), ag.parameter(_r(32, 5))
    product = ag.matmul(x, w)
    kept = weakref.ref(product.value.data)
    out = ag.add(product, b)  # add's vjp reads no operand
    del product
    assert kept() is None
    ag.backward(ag.sum_all(out))
    np.testing.assert_allclose(x.grad.data, np.ones((4, 5)) @ w.value.data.T)
    np.testing.assert_allclose(b.grad.data, np.full(5, 4.0))


def test_backward_frees_intermediate_grads():
    x = ag.parameter(Tensor(np.array([1.0, -2.0, 3.0])))
    y = ag.mul(x, x)
    z = ag.scale(y, 0.5)
    loss = ag.sum_all(z)
    ag.backward(loss)
    assert y.grad is None and z.grad is None and loss.grad is None
    np.testing.assert_array_equal(x.grad.data, [1.0, -2.0, 3.0])  # d(x^2 / 2)/dx
    with pytest.raises(GraphError):
        ag.backward(loss)


def test_constants_get_no_grad():
    c = ag.constant(Tensor(np.ones(2)))
    x = ag.parameter(Tensor(np.ones(2)))
    ag.backward(ag.sum_all(ag.mul(c, x)))
    assert c.grad is None
    assert x.grad is not None


def test_no_grad_blocks_recording():
    x = ag.parameter(_r(2, 3))
    with ag.no_grad():
        y = ag.scale(x, 2.0)
    assert not y.requires_grad
    z = ag.scale(x, 2.0)
    assert z.requires_grad


def test_no_grad_in_one_thread_leaves_another_recording():
    x = ag.parameter(_r(2, 3))
    entered, release, inside = threading.Event(), threading.Event(), []

    def hold():
        with ag.no_grad():
            inside.append(ag.scale(x, 2.0))
            entered.set()
            release.wait(10)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert entered.wait(10)
        recorded = ag.scale(x, 2.0)
    finally:
        release.set()
        holder.join(10)
    assert not holder.is_alive()
    assert recorded.requires_grad and recorded._op is not None
    assert not inside[0].requires_grad


def test_detach_and_clear_grad():
    x = ag.parameter(Tensor(np.array([1.0])))
    ag.backward(ag.sum_all(ag.scale(x, 3.0)))
    assert x.grad is not None
    x.clear_grad()
    assert x.grad is None


def test_assign_updates_leaf_in_place():
    x = ag.parameter(Tensor(np.zeros(2)))
    x.assign(Tensor(np.array([5.0, 6.0])))
    np.testing.assert_array_equal(x.value.data, [5.0, 6.0])
    y = ag.constant(Tensor(np.ones(2)))
    node = ag.add(x, x)
    with pytest.raises(GraphError):
        node.assign(y.value)  # only leaves may be reassigned


def test_gradient_accumulates_across_backward_calls():
    x = ag.parameter(Tensor(np.array([1.0, 2.0])))
    ag.backward(ag.sum_all(ag.scale(x, 1.0)))
    ag.backward(ag.sum_all(ag.scale(x, 1.0)))
    np.testing.assert_allclose(x.grad.data, [2.0, 2.0])


def test_backward_of_a_leaf_accumulates_into_its_gradient():
    x = ag.parameter(Tensor(np.array([2.0])))
    ag.backward(ag.scale(x, 3.0))
    ag.backward(x)
    np.testing.assert_array_equal(x.grad.data, [4.0])


def test_diamond_graph_gradient():
    """f = sum((x + x) * x) = 2 sum(x^2); df/dx = 4x."""
    v = np.array([1.5, -2.0, 0.5])
    x = ag.parameter(Tensor(v))
    ag.backward(ag.sum_all(ag.mul(ag.add(x, x), x)))
    np.testing.assert_allclose(x.grad.data, 4 * v, atol=1e-12)


# -- per-op finite-difference checks ---------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_fd_elementwise_ops(seed):
    x = _r(seed, 4, 3)
    assert ag.fd_check(lambda v: ag.sum_all(relu(v)), x) <= TOL
    assert ag.fd_check(lambda v: ag.sum_all(gelu(v)), x) <= TOL
    assert ag.fd_check(lambda v: ag.sum_all(ag.mul(v, v)), x) <= TOL
    assert ag.fd_check(lambda v: ag.sum_all(ag.scale(v, -1.7)), x) <= TOL


@pytest.mark.parametrize("seed", range(10))
def test_fd_matmul_both_sides(seed):
    rng = np.random.default_rng((seed, 77))
    a = Tensor(rng.standard_normal((3, 4)))
    b = Tensor(rng.standard_normal((4, 2)))
    assert ag.fd_check(lambda v: ag.sum_all(ag.matmul(v, ag.constant(b))), a) <= TOL
    assert ag.fd_check(lambda v: ag.sum_all(ag.matmul(ag.constant(a), v)), b) <= TOL
    # A shared 2-D right operand under a (2, 3, 4) left one: one GEMM over all rows.
    stack = Tensor(rng.standard_normal((2, 3, 4)))
    assert ag.fd_check(_probed(lambda v: ag.matmul(v, ag.constant(b)), (2, 3, 2), seed), stack) <= TOL
    assert ag.fd_check(_probed(lambda v: ag.matmul(ag.constant(stack), v), (2, 3, 2), seed), b) <= TOL


def test_matmul_gradient_closed_form():
    """d/dA sum(A @ B) = ones @ B.T — checked without finite differences."""
    rng = np.random.default_rng(5)
    a = ag.parameter(Tensor(rng.standard_normal((3, 4))))
    b = ag.parameter(Tensor(rng.standard_normal((4, 2))))
    ag.backward(ag.sum_all(ag.matmul(a, b)))
    ones = np.ones((3, 2))
    np.testing.assert_allclose(a.grad.data, ones @ b.value.data.T, atol=1e-12)
    np.testing.assert_allclose(b.grad.data, a.value.data.T @ ones, atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_fd_shape_ops(seed):
    x = _r(seed, 2, 3, 4)
    assert ag.fd_check(_probed(lambda v: ag.permute(v, (2, 0, 1)), (4, 2, 3), seed), x) <= TOL
    assert ag.fd_check(_probed(lambda v: ag.reshape(v, (6, 4)), (6, 4), seed), x) <= TOL
    flat = _r(seed + 100, 5, 2)
    assert ag.fd_check(_probed(lambda v: ag.permute(v, (1, 0)), (2, 5), seed), flat) <= TOL


@pytest.mark.parametrize("seed", range(10))
def test_fd_softmax_weighted(seed):
    """Weight the softmax so its gradient is not the trivial zero field."""
    rng = np.random.default_rng((seed, 3))
    w = ag.constant(Tensor(rng.standard_normal((3, 5))))
    x = Tensor(rng.standard_normal((3, 5)))
    assert ag.fd_check(lambda v: ag.sum_all(ag.mul(ag.softmax_rows(v), w)), x) <= TOL


def test_softmax_gradient_closed_form():
    """vjp is s * (g - sum(g * s)); compare against the Jacobian built row by row."""
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 4))
    g = rng.standard_normal((2, 4))
    var = ag.parameter(Tensor(x))
    out = ag.softmax_rows(var)
    ag.backward(ag.sum_all(ag.mul(out, ag.constant(Tensor(g)))))
    s = np.exp(x - x.max(axis=1, keepdims=True))
    s /= s.sum(axis=1, keepdims=True)
    want = np.zeros_like(x)
    for r in range(2):
        jac = np.diag(s[r]) - np.outer(s[r], s[r])
        want[r] = jac @ g[r]
    np.testing.assert_allclose(var.grad.data, want, atol=1e-12)


def _one_shot_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("shape", [(784, 784), (2, 400, 400), (3, 5), (7,)])
def test_blocked_softmax_is_bitwise_the_one_shot_expression(shape):
    """Row blocks change no bit of the softmax or its gradient, in place or out of place."""
    rng = np.random.default_rng(31)
    x, g = rng.standard_normal(shape) * 4.0, rng.standard_normal(shape)
    if shape[-1] > 100:  # several blocks, and a ragged last one, even for the in-place softmax's largest
        rows, per_block = x.size // shape[-1], ag._BLOCK_BYTES // (8 * shape[-1])
        assert rows > per_block and rows % per_block
    want = _one_shot_softmax(x)
    want_grad = want * (g - (g * want).sum(axis=-1, keepdims=True))
    buf = x.copy()
    assert ag._softmax(buf, buf) is buf and buf.tobytes() == want.tobytes()
    out = np.empty(shape)
    assert ag._softmax(x, out) is out and out.tobytes() == want.tobytes()
    buf = g.copy()
    assert ag._softmax_grad(buf, want, buf) is buf and buf.tobytes() == want_grad.tobytes()
    out = np.empty(shape)
    assert ag._softmax_grad(g, want, out) is out and out.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("in_place", [True, False])
def test_blocked_softmax_checks_the_last_block(bad, in_place):
    """The only non-finite value sits in the last row, in the ragged last block."""
    x = np.random.default_rng(32).standard_normal((784, 784))
    x[-1, 5] = bad
    with pytest.raises(NonFiniteError):
        ag._softmax(x, x if in_place else np.empty(x.shape))


def test_softmax_rows_leaves_its_input_and_incoming_gradient_alone():
    rng = np.random.default_rng(33)
    x = ag.parameter(Tensor(rng.standard_normal((2, 400, 400))))
    seen = x.value.data.copy()
    s = ag.softmax_rows(x)
    g = rng.standard_normal(s.shape)
    sent = g.copy()
    (dx,) = s._op._vjp(g)
    assert x.value.data.tobytes() == seen.tobytes() and g.tobytes() == sent.tobytes()
    assert dx.tobytes() == (s.value.data * (sent - (sent * s.value.data).sum(axis=-1, keepdims=True))).tobytes()
    # A strided input's rows are summed in C order, as the output holds them.
    t = ag.softmax_rows(ag.permute(x, (0, 2, 1)))
    assert t.value.data.tobytes() == _one_shot_softmax(np.ascontiguousarray(seen.transpose(0, 2, 1))).tobytes()


@pytest.mark.parametrize("seed", range(10))
def test_fd_concat_and_bias(seed):
    rng = np.random.default_rng((seed, 4))
    x = ag.constant(Tensor(rng.standard_normal((4, 3))))
    bias = Tensor(rng.standard_normal(3))
    assert ag.fd_check(lambda v: ag.sum_all(ag.add(x, v)), bias) <= TOL
    assert ag.fd_check(lambda v: ag.sum_all(ag.add(v, ag.constant(bias))), x.value) <= TOL
    # A (4, 3) table added to each entry of a (2, 4, 3) batch, as the position embedding is.
    batch = ag.constant(Tensor(rng.standard_normal((2, 4, 3))))
    assert ag.fd_check(_probed(lambda v: ag.add(batch, v), (2, 4, 3), seed), x.value) <= TOL
    for bad in (np.ones((3, 4)), np.ones((1, 2, 4, 3)), np.float64(1.0)):
        with pytest.raises(ShapeError):
            ag.add(batch, ag.constant(Tensor(bad)))


@pytest.mark.parametrize("seed", range(10))
def test_fd_layernorm_all_inputs(seed):
    rng = np.random.default_rng((seed, 5))
    x = Tensor(rng.standard_normal((4, 6)))
    gamma = Tensor(rng.standard_normal(6))
    beta = Tensor(rng.standard_normal(6))
    w = ag.constant(Tensor(rng.standard_normal((4, 6))))  # break symmetry

    def loss_wrt_x(v):
        return ag.sum_all(ag.mul(ag.layernorm(v, ag.constant(gamma), ag.constant(beta)), w))

    def loss_wrt_gamma(v):
        return ag.sum_all(ag.mul(ag.layernorm(ag.constant(x), v, ag.constant(beta)), w))

    def loss_wrt_beta(v):
        return ag.sum_all(ag.mul(ag.layernorm(ag.constant(x), ag.constant(gamma), v), w))

    assert ag.fd_check(loss_wrt_x, x) <= TOL
    assert ag.fd_check(loss_wrt_gamma, gamma) <= TOL
    assert ag.fd_check(loss_wrt_beta, beta) <= TOL


@pytest.mark.parametrize("seed", range(10))
def test_fd_conv2d(seed):
    """One image (C, H, W) and a batch of two (2, C, H, W), square and not."""
    rng = np.random.default_rng((seed, 6))
    w = Tensor(rng.standard_normal((3, 2, 3, 3)))
    b = Tensor(rng.standard_normal(3))
    side = 5 - seed % 2
    for batch in ((), (2,)):
        x = Tensor(rng.standard_normal((*batch, 2, side, 5)))
        out = (*batch, 3, side, 5)
        assert ag.fd_check(_probed(lambda v: conv2d(v, ag.constant(w), ag.constant(b)), out, seed), x) <= TOL
        assert ag.fd_check(_probed(lambda v: conv2d(ag.constant(x), v, ag.constant(b)), out, seed), w) <= TOL
        assert ag.fd_check(_probed(lambda v: conv2d(ag.constant(x), ag.constant(w), v), out, seed), b) <= TOL


def test_conv2d_batch_equals_stacked_images():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((3, 2, 6, 5))
    w, b = ag.constant(Tensor(rng.standard_normal((4, 2, 3, 3)))), ag.constant(Tensor(rng.standard_normal(4)))
    batched = conv2d(ag.constant(Tensor(x)), w, b).value.data
    for i in range(3):
        np.testing.assert_allclose(batched[i], conv2d(ag.constant(Tensor(x[i])), w, b).value.data, rtol=0, atol=1e-12)
    for bad in ((6, 5), (1, 3, 2, 6, 5)):
        with pytest.raises(ShapeError):
            conv2d(ag.constant(Tensor(np.ones(bad))), w, b)
    for kernel in ((4, 3, 3, 3), (4, 2, 5, 5), (4, 2, 3)):  # a channel mismatch, a 5x5 kernel, a rank-3 kernel
        with pytest.raises(ShapeError, match="kernel"):
            conv2d(ag.constant(Tensor(x)), ag.constant(Tensor(np.ones(kernel))), b)


def test_conv2d_matches_direct_convolution():
    """Compare against an explicit stride-1 sliding-window sum over the zero-padded image."""
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 6, 5))
    w = rng.standard_normal((1, 2, 3, 3))
    out = conv2d(ag.constant(Tensor(x)), ag.constant(Tensor(w)), ag.constant(Tensor(np.zeros(1)))).value.data
    assert out.shape == (1, 6, 5)
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    for oy in range(out.shape[1]):
        for ox in range(out.shape[2]):
            patch = padded[:, oy : oy + 3, ox : ox + 3]
            assert abs(out[0, oy, ox] - np.sum(patch * w[0])) < 1e-12


def test_relu_keeps_nan_and_zeroes_the_rest():
    x = ag.parameter(Tensor(np.array([np.nan, -np.inf, -1.0, -0.0, 0.0, 2.0, np.inf])))
    out = relu(x)
    want = np.array([np.nan, 0.0, 0.0, 0.0, 0.0, 2.0, np.inf])
    np.testing.assert_array_equal(out.value.data, want)
    assert not np.signbit(out.value.data).any()
    ag.backward(ag.sum_all(ag.mul(out, ag.constant(Tensor(np.full(7, -3.0))))))
    np.testing.assert_array_equal(x.grad.data, [-0.0, -0.0, -0.0, -0.0, -0.0, -3.0, -3.0])


def _stage_chain(x, w, b):
    """The composed stem stage that :func:`ag.conv_relu_pool` fuses."""
    return maxpool2d(relu(conv2d(x, w, b)))


@pytest.mark.parametrize("in_ch", [1, 2])
@pytest.mark.parametrize("batch", [(), (3,)])
def test_conv_relu_pool_is_bitwise_the_composed_chain(batch, in_ch):
    """Output and the gradients of x, weight and bias, sign bits included.

    One input channel is the stem's first stage on an image.  A block of
    zero pixels makes every conv output there equal its channel's bias:
    tied positive windows in channel 0, all-negative (all-zero after ReLU)
    windows in channel 1.
    """
    rng = np.random.default_rng((17, in_ch, 1, len(batch)))
    image = rng.standard_normal((*batch, in_ch, 13, 12))
    image[..., 1:12, 2:11] = 0.0
    w, b = rng.standard_normal((3, in_ch, 3, 3)), np.array([0.5, -0.5, 0.25])
    results = []
    for op in (_stage_chain, ag.conv_relu_pool):
        params = [ag.parameter(Tensor(t)) for t in (image, w, b)]
        out = op(*params)
        probe = np.random.default_rng(3).standard_normal(out.shape)
        ag.backward(ag.sum_all(ag.mul(out, ag.constant(Tensor(probe)))))
        results.append([out.value.data] + [p.grad.data for p in params])
    fused_out = results[1][0]
    assert np.any(fused_out[..., 0, :, :] == 0.5) and np.any(fused_out[..., 1, :, :] == 0.0)
    for composed, fused in zip(*results):
        assert composed.shape == fused.shape
        assert np.array_equal(composed.view(np.uint64), fused.view(np.uint64))


@pytest.mark.parametrize("seed", range(2))
def test_fd_conv_relu_pool(seed):
    """Each input against central differences, one image and a batch of two."""
    rng = np.random.default_rng((seed, 20))
    w, b = Tensor(rng.standard_normal((3, 2, 3, 3))), Tensor(rng.standard_normal(3))
    stage = ag.conv_relu_pool
    for batch in ((), (2,)):
        x = Tensor(rng.standard_normal((*batch, 2, 6, 5)))
        out = stage(*map(ag.constant, (x, w, b))).shape
        assert ag.fd_check(_probed(lambda v: stage(v, ag.constant(w), ag.constant(b)), out, seed), x) <= TOL
        assert ag.fd_check(_probed(lambda v: stage(ag.constant(x), v, ag.constant(b)), out, seed), w) <= TOL
        assert ag.fd_check(_probed(lambda v: stage(ag.constant(x), ag.constant(w), v), out, seed), b) <= TOL


def _ffn_chain(x, gamma, beta, w1, b1, w2, b2):
    """The composed pre-norm feed-forward sublayer that :func:`ag.feedforward` fuses."""
    return ag.add(ag.matmul(gelu(ag.add(ag.matmul(ag.layernorm(x, gamma, beta), w1), b1)), w2), b2)


def _ffn_arrays(rng, lead, d=4, hidden=8, out=5):
    """Rows, the norm's scale and offset (away from 1 and 0), and the FFN's weights and biases."""
    gamma, beta = 1.0 + 0.3 * rng.standard_normal(d), 0.2 * rng.standard_normal(d)
    shapes = ((d, hidden), (hidden,), (hidden, out), (out,))
    return [rng.standard_normal((*lead, d)), gamma, beta] + [rng.standard_normal(shape) for shape in shapes]


@pytest.mark.parametrize("lead", [(7,), (3, 7)], ids=["rows", "batch3"])
def test_feedforward_is_bitwise_the_composed_chain(lead):
    """Output and the gradients of x, gamma, beta, w1, b1, w2 and b2, sign bits included."""
    rng = np.random.default_rng((19, len(lead)))
    arrays = _ffn_arrays(rng, lead)
    probe = ag.constant(Tensor(rng.standard_normal((*lead, 5))))
    results = []
    for op in (_ffn_chain, ag.feedforward):
        params = [ag.parameter(Tensor(a)) for a in arrays]
        out = op(*params)
        ag.backward(ag.sum_all(ag.mul(out, probe)))
        results.append([out.value.data] + [p.grad.data for p in params])
    for composed, fused in zip(*results):
        assert composed.shape == fused.shape
        assert np.array_equal(composed.view(np.uint64), fused.view(np.uint64))


@pytest.mark.parametrize("seed", range(3))
def test_fd_feedforward(seed):
    """Each of the seven inputs against central differences, for token rows and a batch of two."""
    rng = np.random.default_rng((seed, 21))
    for lead in ((5,), (2, 5)):
        arrays = [Tensor(a) for a in _ffn_arrays(rng, lead)]
        for i, arr in enumerate(arrays):

            def op(v, i=i):
                return ag.feedforward(*(v if j == i else ag.constant(t) for j, t in enumerate(arrays)))

            assert ag.fd_check(_probed(op, (*lead, 5), seed), arr) <= TOL


def test_feedforward_shape_errors():
    x, gamma, beta, w1, b1, w2, b2 = (ag.constant(Tensor(a)) for a in _ffn_arrays(np.random.default_rng(0), (3,)))
    for args in (
        (b1, gamma, beta, w1, b1, w2, b2), (x, gamma, beta, w1, b2, w2, b2), (x, gamma, beta, w1, b1, w1, b2),
        (x, gamma, beta, w1, b1, w2, b1), (x, b1, beta, w1, b1, w2, b2), (x, gamma, b2, w1, b1, w2, b2),
    ):
        with pytest.raises(ShapeError):
            ag.feedforward(*args)


@pytest.mark.parametrize("seed", range(10))
def test_fd_maxpool(seed):
    """One image (C, H, W) and a batch of two (2, C, H, W)."""
    # Distinct values keep argmax away from ties, where the derivative is undefined.
    rng = np.random.default_rng((seed, 8))
    for batch in ((), (2,)):
        shape = (*batch, 2, 6, 5)
        base = rng.permutation(int(np.prod(shape))).astype(np.float64).reshape(shape)
        x = Tensor(base + rng.uniform(-0.2, 0.2, size=base.shape))
        assert ag.fd_check(_probed(maxpool2d, (*batch, 2, 3, 3), seed), x) <= TOL


def _maxpool_grad_oracle(x, g, kernel=3, stride=2, padding=1):
    """Loops: each output's gradient goes to the first maximal cell in (dy, dx) order."""
    c, h, w = x.shape
    padded = np.full((c, h + 2 * padding, w + 2 * padding), -np.inf)
    padded[:, padding : padding + h, padding : padding + w] = x
    grad = np.zeros_like(padded)
    for ch in range(c):
        for oy in range(g.shape[1]):
            for ox in range(g.shape[2]):
                cells = [(stride * oy + dy, stride * ox + dx) for dy in range(kernel) for dx in range(kernel)]
                best = max(padded[ch][cell] for cell in cells)
                first = next(cell for cell in cells if padded[ch][cell] == best)
                grad[ch][first] += g[ch, oy, ox]
    return grad[:, padding : padding + h, padding : padding + w]


@pytest.mark.parametrize("case", ["relu_zeros", "rounded", "neg_inf_border", "constant"])
def test_maxpool_ties_go_to_the_first_maximal_cell(case):
    rng = np.random.default_rng(16)
    x = rng.standard_normal((2, 3, 6, 7))
    if case == "relu_zeros":
        x = np.maximum(x - 1.0, 0.0)  # post-ReLU: whole windows of zeros
    elif case == "rounded":
        x = np.round(x)
    elif case == "neg_inf_border":
        x[..., 0, :] = -np.inf  # border cells tie with the -inf padding
        x[..., :, 0] = -np.inf
        x[..., :2, :2] = -np.inf  # a whole -inf window: its first cell is padding
    else:
        x = np.full(x.shape, 0.5)
    g = rng.integers(1, 1000, size=(2, 3, 3, 4)).astype(np.float64)  # integer sums: exact in any order
    var = ag.parameter(Tensor(x))
    out = maxpool2d(var)
    ag.backward(ag.sum_all(ag.mul(out, ag.constant(Tensor(g)))))
    ties = [np.sum(out.value.data == v) for v in (0.0, -np.inf)]
    assert case != "relu_zeros" or ties[0] > 0
    assert case != "neg_inf_border" or ties[1] > 0
    for i in range(2):
        np.testing.assert_array_equal(var.grad.data[i], _maxpool_grad_oracle(x[i], g[i]))
        single = maxpool2d(ag.constant(Tensor(x[i]))).value.data
        np.testing.assert_array_equal(out.value.data[i], single)


def test_maxpool_gradient_adds_in_window_offset_order():
    """A cell chosen by four windows sums their gradients in (dy, dx) order, bit for bit.

    The oracle is one scatter pass per window offset; float sums of three or
    more terms depend on their order.
    """
    rng = np.random.default_rng(19)
    x = rng.uniform(0.0, 1.0, size=(2, 3, 11, 11))
    x[..., 1::4, 1::4] += 10.0  # each of these is the maximum of four windows
    g = rng.standard_normal((2, 3, 6, 6))
    var = ag.parameter(Tensor(x))
    ag.backward(ag.sum_all(ag.mul(maxpool2d(var), ag.constant(Tensor(g)))))
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), constant_values=-np.inf)
    out = maxpool2d(ag.constant(Tensor(x))).value.data
    want = np.zeros_like(padded)
    free = np.ones(out.shape, dtype=bool)
    for dy in range(3):
        for dx in range(3):
            cells = (..., slice(dy, dy + 12, 2), slice(dx, dx + 12, 2))
            hit = (padded[cells] == out) & free
            free &= ~hit
            want[cells] += g * hit
    assert np.array_equal(var.grad.data, want[..., 1:12, 1:12])


def test_maxpool_values_against_loops():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((1, 5, 5))
    out = maxpool2d(ag.constant(Tensor(x))).value.data
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1)), constant_values=-np.inf)
    for oy in range(out.shape[1]):
        for ox in range(out.shape[2]):
            want = padded[0, 2 * oy : 2 * oy + 3, 2 * ox : 2 * ox + 3].max()
            assert out[0, oy, ox] == want


@pytest.mark.parametrize("seed", range(10))
def test_fd_cross_entropy(seed):
    rng = np.random.default_rng((seed, 9))
    logits = Tensor(rng.standard_normal(7) * 3.0)
    target = int(rng.integers(0, 7))
    assert ag.fd_check(lambda v: ag.cross_entropy(v, target), logits) <= TOL


@pytest.mark.parametrize("seed", range(5))
def test_cross_entropy_batch_is_mean_of_single_calls(seed):
    rng = np.random.default_rng((seed, 9))
    z = rng.standard_normal((4, 6))
    t = rng.integers(0, 6, size=4)
    batched = ag.cross_entropy(ag.constant(Tensor(z)), t).item()
    singles = [ag.cross_entropy(ag.constant(Tensor(z[i])), int(t[i])).item() for i in range(4)]
    assert abs(batched - np.mean(singles)) <= 1e-12
    assert ag.fd_check(lambda v: ag.cross_entropy(v, t), Tensor(z)) <= TOL


def test_cross_entropy_matches_logsumexp():
    logits = np.array([2.0, -1.0, 0.5])
    var = ag.constant(Tensor(logits))
    got = ag.cross_entropy(var, 2).item()
    want = float(np.log(np.sum(np.exp(logits))) - logits[2])
    assert abs(got - want) < 1e-12


def test_cross_entropy_is_stable_at_large_logits():
    logits = ag.constant(Tensor(np.array([1e4, 0.0])))
    assert np.isfinite(ag.cross_entropy(logits, 0).item())


def test_cross_entropy_takes_only_an_integer_target_for_1d_logits():
    """A float or bool target is a ShapeError, as in the batched form, not a truncated class."""
    logits = ag.constant(Tensor(np.random.default_rng(21).standard_normal(5) * 3.0))
    for target in (3, np.int64(3), np.uint8(3)):
        assert ag.cross_entropy(logits, target).item().hex() == "0x1.ea3cfc8eaeea0p-2"
    for target in (2.7, np.float64(3.0), True, np.bool_(True), "3", None):
        with pytest.raises(ShapeError):
            ag.cross_entropy(logits, target)


@pytest.mark.parametrize("seed", range(10))
def test_fd_kron(seed):
    rng = np.random.default_rng((seed, 10))
    a = Tensor(rng.standard_normal((3, 3)))
    b = Tensor(rng.standard_normal((2, 2)))
    w = ag.constant(Tensor(rng.standard_normal((6, 6))))
    assert ag.fd_check(lambda v: ag.sum_all(ag.mul(ag.kron(v, ag.constant(b)), w)), a) <= TOL
    assert ag.fd_check(lambda v: ag.sum_all(ag.mul(ag.kron(ag.constant(a), v), w)), b) <= TOL
    # One product per head when both factors carry a leading batch axis.
    a3 = Tensor(rng.standard_normal((2, 3, 3)))
    b3 = Tensor(rng.standard_normal((2, 2, 2)))
    w3 = ag.constant(Tensor(rng.standard_normal((2, 6, 6))))
    assert ag.fd_check(lambda v: ag.sum_all(ag.mul(ag.kron(v, ag.constant(b3)), w3)), a3) <= TOL
    assert ag.fd_check(lambda v: ag.sum_all(ag.mul(ag.kron(ag.constant(a3), v), w3)), b3) <= TOL


@pytest.mark.parametrize("seed", range(5))
def test_fd_apply_factored_map(seed):
    """Each of the three inputs, with h != w, several heads and channels."""
    rng = np.random.default_rng((seed, 12))
    heads, h, w, c = 2, 3, 4, 2
    a = Tensor(rng.standard_normal((heads, h, h)))
    b = Tensor(rng.standard_normal((heads, w, w)))
    v = Tensor(rng.standard_normal((heads, h, w, c)))
    weight = ag.constant(Tensor(rng.standard_normal((heads, h, w, c))))

    def loss(a, b, v):
        return ag.sum_all(ag.mul(ag.apply_factored_map(a, b, v), weight))

    A, B, V = (ag.constant(t) for t in (a, b, v))
    assert ag.fd_check(lambda x: loss(x, B, V), a) <= TOL
    assert ag.fd_check(lambda x: loss(A, x, V), b) <= TOL
    assert ag.fd_check(lambda x: loss(A, B, x), v) <= TOL


def _fd_mix(mix, seed, lead, tokens, d):
    """Check the token rows, the norm's scale and offset and each projection of ``mix`` against central differences."""
    rng = np.random.default_rng((seed, 13, len(lead)))
    shape = (*lead, tokens, d)
    norm = [1.0 + 0.3 * rng.standard_normal(d), 0.2 * rng.standard_normal(d)]
    arrays = [rng.standard_normal(shape), *norm] + [rng.standard_normal((d, d)) / np.sqrt(d) for _ in range(4)]
    arrays = [Tensor(a) for a in arrays]
    for i, arr in enumerate(arrays):

        def op(v, i=i):
            return mix(*(v if j == i else ag.constant(t) for j, t in enumerate(arrays)))

        assert ag.fd_check(_probed(op, shape, seed), arr) <= TOL


@pytest.mark.parametrize("seed", range(5))
def test_fd_softmax_attention(seed):
    """The rows, gamma, beta and w_q, w_k, w_v and w_o on a 1x5 grid with two heads, for one image and a batch of two."""
    for lead in ((), (2,)):
        _fd_mix(lambda x, *w: ag.softmax_attention(x, *w, 2, 1, 5), seed, lead, 5, 6)


@pytest.mark.parametrize("seed", range(5))
def test_fd_coupling_attention(seed):
    """The rows, gamma, beta and the four projections on a 3x4 grid with two heads, for one image and a batch of two."""
    for lead in ((), (2,)):
        _fd_mix(lambda x, *w: ag.coupling_attention(x, *w, 2, 3, 4), seed, lead, 12, 4)


def test_softmax_attention_matches_per_head_formula():
    rng = np.random.default_rng(14)
    heads, dh = 3, 2
    x = rng.standard_normal((6, heads * dh))
    gamma, beta = 1.0 + 0.3 * rng.standard_normal(heads * dh), 0.2 * rng.standard_normal(heads * dh)
    weights = [rng.standard_normal((heads * dh, heads * dh)) for _ in range(4)]
    centered = x - x.mean(axis=1, keepdims=True)
    normed = gamma * centered / np.sqrt((centered**2).mean(axis=1, keepdims=True) + 1e-5) + beta
    q, k, v = (normed @ w for w in weights[:3])
    norm = [ag.constant(Tensor(t)) for t in (gamma, beta)]
    ws = [ag.constant(Tensor(w)) for w in weights]
    with ag.no_grad():
        got = ag.softmax_attention(ag.constant(Tensor(x)), *norm, *ws, heads, 2, 3).value.data
    merged = np.empty_like(x)
    for n in range(heads):
        cols = slice(n * dh, (n + 1) * dh)
        s = np.exp(q[:, cols] @ k[:, cols].T / np.sqrt(dh))
        merged[:, cols] = (s / s.sum(axis=1, keepdims=True)) @ v[:, cols]
    np.testing.assert_allclose(got, merged @ weights[3], atol=1e-12)
    with pytest.raises(ShapeError):
        ag.softmax_attention(ag.constant(Tensor(x)), *norm, ws[0], ag.constant(Tensor(weights[1][:5])), *ws[2:], heads, 2, 3)
    with pytest.raises(ShapeError):
        ag.softmax_attention(ag.constant(Tensor(x[None, None])), *norm, *ws, heads, 2, 3)
    with pytest.raises(ShapeError):
        ag.softmax_attention(ag.constant(Tensor(x)), *norm, *ws, 4, 2, 3)


def _kept_bytes(op, *args):
    """Bytes the op's result holds on to beyond its own value: recorded vjp state.

    A first, untraced call takes the one-time allocations of a fresh process
    (the interpreter's and numpy's lazy caches), which no result holds.
    """
    op(*args)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = op(*args)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return kept - out.value.data.nbytes, out


def test_no_grad_keeps_no_attention_maps_and_no_pool_choice():
    rng = np.random.default_rng(18)
    image = ag.parameter(Tensor(rng.standard_normal((2, 4, 64, 64))))
    weight, bias = ag.parameter(Tensor(rng.standard_normal((8, 4, 3, 3)))), ag.parameter(T.zeros((8,)))
    rows = ag.parameter(Tensor(rng.standard_normal((64, 8))))
    norm = (ag.parameter(T.ones((8,))), ag.parameter(T.zeros((8,))))
    proj = ag.parameter(Tensor(rng.standard_normal((8, 8)) / 8))
    ffn = [ag.parameter(Tensor(rng.standard_normal(shape))) for shape in ((8, 16), (16,), (16, 8), (8,))]
    ops = {
        "pool": (maxpool2d, image),
        "stem stage": (ag.conv_relu_pool, image, weight, bias),
        "standard": (ag.softmax_attention, rows, *norm, proj, proj, proj, proj, 2, 8, 8),
        "coupled": (ag.coupling_attention, rows, *norm, proj, proj, proj, proj, 2, 8, 8),
        "feedforward": (ag.feedforward, rows, *norm, *ffn),
    }
    for name, (op, *args) in ops.items():
        with ag.no_grad():
            kept, out = _kept_bytes(op, *args)
        assert out._op is None and kept < 1024, name
    # Recorded: the pool keeps one byte per output for its choice, the standard mix its maps.
    kept, out = _kept_bytes(maxpool2d, image)
    assert out.value.size <= kept < 2 * out.value.size
    # A stem stage keeps no columns, conv output or mask: beyond its output, its pool's choice.
    kept, out = _kept_bytes(ag.conv_relu_pool, image, weight, bias)
    assert out.value.size <= kept <= 2 * out.value.size
    kept, _ = _kept_bytes(*ops["standard"])
    assert kept >= 2 * 64 * 64 * 8


def test_pre_norm_nodes_keep_xhat_and_inv_std_but_no_normalized_rows():
    """Each norm's node keeps its layer norm's x-hat and 1/sigma, from which its vjp rebuilds LN(x), and not LN(x).

    At L = 256 and d = 16 the normalized rows are 32 KiB.  Beyond x-hat and
    1/sigma, the final norm keeps nothing, the FFN its pre-activation and
    Phi, the coupled mix softmax(A) and softmax(B) on a 16x16 grid (no q,
    k, v or merged rows) and the standard mix each head's map and the
    merged rows, for w_o.
    """
    L, d, heads = 256, 16, 2
    rng = np.random.default_rng(39)
    rows = ag.parameter(Tensor(rng.standard_normal((L, d))))
    norm = [ag.parameter(Tensor(a)) for a in (1.0 + 0.3 * rng.standard_normal(d), 0.2 * rng.standard_normal(d))]
    proj = [ag.parameter(Tensor(rng.standard_normal((d, d)) / d)) for _ in range(4)]
    ffn = [ag.parameter(Tensor(rng.standard_normal(shape))) for shape in ((d, 2 * d), (2 * d,), (2 * d, d), (d,))]
    one_rows = L * d * 8
    norm_state = one_rows + L * 8
    cases = {
        "layernorm": ((ag.layernorm, rows, *norm), 0),
        "feedforward": ((ag.feedforward, rows, *norm, *ffn), 2 * L * 2 * d * 8),
        "coupled": ((ag.coupling_attention, rows, *norm, *proj, heads, 16, 16), 2 * heads * 16 * 16 * 8),
        "standard": ((ag.softmax_attention, rows, *norm, *proj, heads, 16, 16), heads * L * L * 8 + one_rows),
    }
    for name, ((op, *args), own) in cases.items():
        kept, _ = _kept_bytes(op, *args)
        assert norm_state + own <= kept < norm_state + own + one_rows // 2, (name, kept)


def test_standard_mix_holds_at_most_one_transient_map():
    """At L = 784 the forward softmaxes each head's scores in place, and the vjp the fresh g . v^T.

    So beyond the maps it keeps, the mix holds one (L, L) array at a time:
    none past the kept ones in a recorded forward, one in a forward without
    a graph and one in the vjp.
    """
    L, d, heads = 784, 8, 2
    rng = np.random.default_rng(34)
    rows = ag.parameter(Tensor(rng.standard_normal((L, d))))
    norm = (ag.parameter(T.ones((d,))), ag.parameter(T.zeros((d,))))
    proj = ag.parameter(Tensor(rng.standard_normal((d, d)) / d))
    args, one_map = (rows, *norm, proj, proj, proj, proj, heads, 28, 28), L * L * 8
    ag.softmax_attention(*args)  # the one-time allocations of a fresh process

    def traced(step):  # bytes held after the step and its peak, both over the start
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = step()
        now, peak = tracemalloc.get_traced_memory()
        return result, now - base, peak - base

    tracemalloc.start()
    try:
        with ag.no_grad():
            _, _, eval_peak = traced(lambda: ag.softmax_attention(*args))
        out, kept, fwd_peak = traced(lambda: ag.softmax_attention(*args))
        _, _, vjp_peak = traced(lambda: out._op._vjp(np.ones(out.shape)))
    finally:
        tracemalloc.stop()
    assert heads * one_map <= kept < (heads + 0.5) * one_map
    assert eval_peak < 1.5 * one_map
    assert fwd_peak < kept + 0.5 * one_map
    assert vjp_peak < 1.5 * one_map


def _vjp_peak(make):
    """The traced heap peak of a fresh node's vjp, over the heap before it, after one untraced run of both."""
    out = make()
    out._op._vjp(np.ones(out.shape))
    out = make()
    g = np.ones(out.shape)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out._op._vjp(g)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _sublayer_operands(L, d, seed):
    rng = np.random.default_rng(seed)
    rows = ag.parameter(Tensor(rng.standard_normal((L, d))))
    norm = [ag.parameter(Tensor(a)) for a in (1.0 + 0.3 * rng.standard_normal(d), 0.2 * rng.standard_normal(d))]
    proj = [ag.parameter(Tensor(rng.standard_normal((d, d)) / d)) for _ in range(4)]
    ffn = [ag.parameter(Tensor(rng.standard_normal(s) / 8)) for s in ((d, 2 * d), (2 * d,), (2 * d, d), (d,))]
    return rows, norm, proj, ffn


def test_feedforward_vjp_holds_at_most_two_hidden_sized_arrays():
    """At grid28's L = 784, d = 32 the vjp frees gelu's rebuilt output before the hidden gradient is made.

    gelu's gradient then takes one buffer beside it, and the normalized
    rows are rebuilt only once the pre-activation's gradient is done.
    """
    L, d = 784, 32
    rows, norm, _, ffn = _sublayer_operands(L, d, seed=40)
    hidden = L * 2 * d * 8
    assert _vjp_peak(lambda: ag.feedforward(rows, *norm, *ffn)) < 2.5 * hidden


def test_coupled_vjp_holds_a_bounded_number_of_token_arrays():
    """At grid28's 28x28 grid, d = 32 and four heads the vjp holds fewer than eight (L, d) arrays at once.

    Each operand copy is freed once used, and dq, dk and dv each go back
    to rows before the next is made.
    """
    L, d = 784, 32
    rows, norm, proj, _ = _sublayer_operands(L, d, seed=41)
    assert _vjp_peak(lambda: ag.coupling_attention(rows, *norm, *proj, 4, 28, 28)) < 8 * L * d * 8


def test_stem_vjp_holds_at_most_half_the_im2col_columns(monkeypatch):
    """The 112-px stem's second stage rebuilds its columns, and makes their gradient, half the input channels at a time.

    So no (C*9, H*W) array of the whole stage is made, and the vjp's peak,
    the scattered output gradient and the input's gradient included, stays
    below one whole set of columns.
    """
    rng = np.random.default_rng(42)
    x = ag.parameter(Tensor(rng.standard_normal((16, 56, 56))))
    weight, bias = ag.parameter(Tensor(rng.standard_normal((32, 16, 3, 3)))), ag.parameter(T.zeros((32,)))
    cols = 16 * 9 * 56 * 56 * 8
    assert _vjp_peak(lambda: ag.conv_relu_pool(x, weight, bias)) < 0.9 * cols
    out = ag.conv_relu_pool(x, weight, bias)
    channels, grad_cols, im2col, col2im = [], [], ag._im2col, ag._col2im

    def counted_im2col(images, rows=slice(None)):
        channels.append(images.shape[0])
        return im2col(images, rows)

    def counted_col2im(grads, shape):
        grad_cols.append(grads.nbytes)
        return col2im(grads, shape)

    monkeypatch.setattr(ag, "_im2col", counted_im2col)
    monkeypatch.setattr(ag, "_col2im", counted_col2im)
    out._op._vjp(np.ones(out.shape))
    assert channels == [8, 8] and grad_cols == [cols // 2, cols // 2]


def test_row_blocks_count_an_array_once_however_many_views_pass_it():
    """Two view objects of one (784, 784) map get the blocks of one; a second array makes them smaller."""
    p, q = np.zeros((784, 784)), np.zeros((784, 784))
    rows = [len(block[0]) for block in ag._row_blocks((p, p), buffers=1)]
    assert [len(block[0]) for block in ag._row_blocks((p[:], p[:]), buffers=1)] == rows
    assert max(len(block[0]) for block in ag._row_blocks((p, q), buffers=1)) < rows[0]


def test_pool_scatter_drops_a_nan_window_whose_first_maximum_is_padding():
    """On a 5x5 input the last window's offset (2, 2) lies on padding, and a NaN in that window equals no cell.

    So its first-maximum offset runs to the last, (2, 2).  Its gradient
    goes nowhere, as a padded input's would, and nothing is written out of
    range; every other window's gradient lands as before.
    """
    x = np.arange(50, dtype=np.float64).reshape(2, 5, 5)
    x[1, 4, 4] = np.nan
    g = np.random.default_rng(43).standard_normal((2, 3, 3))
    out, first = ag._pool(x, record=True)
    assert np.isnan(out[1, 2, 2]) and first[1, 2, 2] == 8
    grad = ag._pool_scatter(g, first, x.shape)
    kept = g.copy()
    kept[1, 2, 2] = 0.0
    assert grad.shape == x.shape
    np.testing.assert_array_equal(grad, _maxpool_grad_oracle(np.nan_to_num(x, nan=-1.0), kept))


# -- the standard mix's row halves on worker threads -------------------------


def _whole_map_mix(x, y, z, g):
    """The mix and its vjp with each head's whole (L, L) map at once: the oracle of the row halves."""
    out, dq, dk, dv = np.empty(z.shape), np.empty(x.shape), np.empty(y.shape), np.empty(z.shape)
    for n in range(x.shape[0]):
        p = _one_shot_softmax(x[n] @ y[n].T)
        out[n] = p @ z[n]
        dv[n] = p.T @ g[n]
        ds = g[n] @ z[n].T
        ds = p * (ds - (ds * p).sum(axis=-1, keepdims=True))
        dq[n] = ds @ y[n]
        dk[n] = ds.T @ x[n]
    return out, dq, dk, dv


def _mix_operands(L, seed, heads=2, d_head=8):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((heads, L, d_head)) for _ in range(4)]


def _softmax_threads(monkeypatch):
    """Record the thread and row count of every softmax pass of a map."""
    calls, inner = [], ag._softmax

    def softmax(arr, out):
        calls.append((threading.get_ident(), arr.shape[0]))
        return inner(arr, out)

    monkeypatch.setattr(ag, "_softmax", softmax)
    return calls


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_standard_mix_halves_are_bitwise_the_whole_map(monkeypatch, cpus):
    """At L = 784 each head's rows go in two halves, to two workers when the scope has them: the whole map's bits."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    L = 784
    assert ag._row_halves(L, L * 8) == (slice(0, L // 2), slice(L // 2, L))
    x, y, z, g = _mix_operands(L, seed=35)
    want = [a.tobytes() for a in _whole_map_mix(x, y, z, g)]
    calls = _softmax_threads(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ag.workers(train._usable_cpus()):
            for _ in range(3):
                out, vjp = ag._softmax_heads(x, y, z, keep=True)
                assert [a.tobytes() for a in (out, *vjp(g, x, y, z))] == want
    finally:
        sys.setswitchinterval(interval)
    assert {rows for _, rows in calls} == {L // 2}
    assert len({thread for thread, _ in calls}) == min(cpus, 2)


def test_standard_mix_below_the_split_runs_whole_in_the_calling_thread(monkeypatch):
    """At L = 400 a half's GEMMs are below OpenBLAS's small-matrix bound: one whole part, no worker."""
    L = 400
    assert ag._row_halves(L, L * 8) == (slice(None),)
    x, y, z, g = _mix_operands(L, seed=36)
    want = [a.tobytes() for a in _whole_map_mix(x, y, z, g)]
    calls = _softmax_threads(monkeypatch)
    with ag.workers(2):
        out, vjp = ag._softmax_heads(x, y, z, keep=True)
        assert [a.tobytes() for a in (out, *vjp(g, x, y, z))] == want
    assert calls == [(threading.get_ident(), L)] * 2


@pytest.mark.parametrize("half", [0, 1])
def test_standard_mix_raises_non_finite_once_both_halves_stopped(monkeypatch, half):
    """A NaN in one half's scores raises NonFiniteError from that half's thread, after the other half ended."""
    L = 784
    x, y, z, _ = _mix_operands(L, seed=37)
    x[0, half * (L // 2) + 5, 3] = np.nan
    events, inner = [], ag._softmax

    def softmax(arr, out):
        try:
            inner(arr, out)
        except NonFiniteError:
            events.append(("raised", threading.get_ident()))
            raise
        events.append(("ended", threading.get_ident()))
        return out

    monkeypatch.setattr(ag, "_softmax", softmax)
    with ag.workers(2):
        with pytest.raises(NonFiniteError):
            ag._softmax_heads(x, y, z, keep=False)
        seen = list(events)
    caller = threading.get_ident()
    # Half 0 runs in the calling thread, half 1 on the worker; the first head's two halves are all that ran.
    assert len(seen) == 2
    assert dict((kind, thread == caller) for kind, thread in seen) == {"raised": half == 0, "ended": half == 1}


def test_standard_mix_on_workers_holds_at_most_one_transient_map():
    """With the halves on two threads the mix still holds one (L, L) array beyond its maps, and an idle worker none.

    The vjp is given copies of x, y and z: a worker that kept its last part
    would keep one of them alive.
    """
    x, y, z, g = _mix_operands(784, seed=38)
    one_map = 784 * 784 * 8
    with ag.workers(2):
        ag._softmax_heads(x, y, z, keep=True)[1](g, x, y, z)  # the one-time allocations of a fresh thread
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out, vjp = ag._softmax_heads(x, y, z, keep=True)
            kept, fwd_peak = (t - base for t in tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            grads = vjp(g, x.copy(), y.copy(), z.copy())
            vjp_peak = tracemalloc.get_traced_memory()[1] - base - kept
            del vjp
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
    assert fwd_peak < kept + 0.5 * one_map
    assert vjp_peak < 1.5 * one_map
    assert held < sum(a.nbytes for a in (out, *grads)) + (32 << 10), held


def test_gelu_matches_exact_definition():
    from scipy.special import erf

    x = np.linspace(-3, 3, 31)
    got = gelu(ag.constant(Tensor(x))).value.data
    want = 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
    np.testing.assert_allclose(got, want, atol=1e-14)


# -- error paths -----------------------------------------------------------


def test_op_shape_errors_surface():
    x = ag.constant(Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        ag.matmul(x, x)
    with pytest.raises(ShapeError):
        ag.add(x, ag.constant(Tensor(np.ones((3, 2)))))
    with pytest.raises(ShapeError):
        ag.cross_entropy(x, 0)
    with pytest.raises(ValueError):
        ag.cross_entropy(ag.constant(Tensor(np.ones(3))), 5)
    for targets in (np.array([0, 1, 2]), np.array([0.0, 1.0]), np.array([[0], [1]])):
        with pytest.raises(ShapeError):
            ag.cross_entropy(x, targets)
    with pytest.raises(ShapeError):  # an empty batch has no mean loss
        ag.cross_entropy(ag.constant(Tensor(np.ones((0, 3)))), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        ag.cross_entropy(x, np.array([0, 3]))
    with pytest.raises(ShapeError):
        ag.cross_entropy(ag.constant(Tensor(np.ones((2, 2, 3)))), np.array([0, 1]))


def test_fd_check_rejects_non_scalar_function():
    with pytest.raises(GraphError):
        ag.fd_check(lambda v: relu(v), Tensor(np.ones(3)))


def test_fd_check_rejects_non_finite_loss():
    def f(v):
        return ag.cross_entropy(ag.scale(v, np.inf), 0)

    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteError):
            ag.fd_check(f, Tensor(np.ones(2)))
