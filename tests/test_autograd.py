"""Gradient checks: every differentiable op against central finite differences.

The oracle is ``fd_check`` itself trivial code apart; where an op has a
simple closed-form derivative (matmul, softmax) we also compare against a
hand-written formula so the finite-difference harness is not the only
witness.
"""

import tracemalloc

import numpy as np
import pytest

from couplformer import autograd as ag
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
        ag.backward(ag.relu(x))


def test_backward_twice_is_an_error():
    x = ag.parameter(_r(1, 2))
    loss = ag.sum_all(ag.mul(x, x))
    ag.backward(loss)
    with pytest.raises(GraphError):
        ag.backward(loss)


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
    assert ag.fd_check(lambda v: ag.sum_all(ag.relu(v)), x) <= TOL
    assert ag.fd_check(lambda v: ag.sum_all(ag.gelu(v)), x) <= TOL
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
    """One image (C, H, W) and a batch of two (2, C, H, W), at stride 1 or 2."""
    rng = np.random.default_rng((seed, 6))
    w = Tensor(rng.standard_normal((3, 2, 3, 3)))
    b = Tensor(rng.standard_normal(3))
    stride = 1 + seed % 2
    side = 5 if stride == 1 else 3
    for batch in ((), (2,)):
        x = Tensor(rng.standard_normal((*batch, 2, 5, 5)))
        out = (*batch, 3, side, side)

        def conv(x, w, b):
            return ag.conv2d(x, w, b, stride=stride)

        assert ag.fd_check(_probed(lambda v: conv(v, ag.constant(w), ag.constant(b)), out, seed), x) <= TOL
        assert ag.fd_check(_probed(lambda v: conv(ag.constant(x), v, ag.constant(b)), out, seed), w) <= TOL
        assert ag.fd_check(_probed(lambda v: conv(ag.constant(x), ag.constant(w), v), out, seed), b) <= TOL


def test_conv2d_batch_equals_stacked_images():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((3, 2, 6, 5))
    w, b = ag.constant(Tensor(rng.standard_normal((4, 2, 3, 3)))), ag.constant(Tensor(rng.standard_normal(4)))
    batched = ag.conv2d(ag.constant(Tensor(x)), w, b, stride=2).value.data
    for i in range(3):
        np.testing.assert_allclose(batched[i], ag.conv2d(ag.constant(Tensor(x[i])), w, b, stride=2).value.data, rtol=0, atol=1e-12)
    for bad in ((6, 5), (1, 3, 2, 6, 5)):
        with pytest.raises(ShapeError):
            ag.conv2d(ag.constant(Tensor(np.ones(bad))), w, b)


def test_conv2d_matches_direct_convolution():
    """Compare against an explicit sliding-window sum at stride 2."""
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 6, 6))
    w = rng.standard_normal((1, 2, 3, 3))
    out = ag.conv2d(ag.constant(Tensor(x)), ag.constant(Tensor(w)), stride=2).value.data
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    for oy in range(out.shape[1]):
        for ox in range(out.shape[2]):
            patch = padded[:, 2 * oy : 2 * oy + 3, 2 * ox : 2 * ox + 3]
            assert abs(out[0, oy, ox] - np.sum(patch * w[0])) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_fd_maxpool(seed):
    """One image (C, H, W) and a batch of two (2, C, H, W)."""
    # Distinct values keep argmax away from ties, where the derivative is undefined.
    rng = np.random.default_rng((seed, 8))
    for batch in ((), (2,)):
        shape = (*batch, 2, 6, 5)
        base = rng.permutation(int(np.prod(shape))).astype(np.float64).reshape(shape)
        x = Tensor(base + rng.uniform(-0.2, 0.2, size=base.shape))
        assert ag.fd_check(_probed(ag.maxpool2d, (*batch, 2, 3, 3), seed), x) <= TOL


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
    out = ag.maxpool2d(var)
    ag.backward(ag.sum_all(ag.mul(out, ag.constant(Tensor(g)))))
    ties = [np.sum(out.value.data == v) for v in (0.0, -np.inf)]
    assert case != "relu_zeros" or ties[0] > 0
    assert case != "neg_inf_border" or ties[1] > 0
    for i in range(2):
        np.testing.assert_array_equal(var.grad.data[i], _maxpool_grad_oracle(x[i], g[i]))
        single = ag.maxpool2d(ag.constant(Tensor(x[i]))).value.data
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
    ag.backward(ag.sum_all(ag.mul(ag.maxpool2d(var), ag.constant(Tensor(g)))))
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), constant_values=-np.inf)
    out = ag.maxpool2d(ag.constant(Tensor(x))).value.data
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
    out = ag.maxpool2d(ag.constant(Tensor(x)), kernel=3, stride=2, padding=1).value.data
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


@pytest.mark.parametrize("seed", range(5))
def test_fd_softmax_attention(seed):
    """Each of the three inputs, with several heads, for one image and a batch of two."""
    rng = np.random.default_rng((seed, 13))
    for lead in ((), (2,)):
        shape = (*lead, 5, 6)  # 5 tokens, 2 heads of width 3
        q, k, v = (Tensor(rng.standard_normal(shape)) for _ in range(3))
        weight = ag.constant(Tensor(rng.standard_normal(shape)))

        def loss(q, k, v):
            return ag.sum_all(ag.mul(ag.softmax_attention(q, k, v, 2), weight))

        Q, K, V = (ag.constant(t) for t in (q, k, v))
        assert ag.fd_check(lambda x: loss(x, K, V), q) <= TOL
        assert ag.fd_check(lambda x: loss(Q, x, V), k) <= TOL
        assert ag.fd_check(lambda x: loss(Q, K, x), v) <= TOL


@pytest.mark.parametrize("seed", range(5))
def test_fd_coupling_attention(seed):
    """Each of q, k and v on a 3x4 grid with two heads, for one image and a batch of two."""
    rng = np.random.default_rng((seed, 17))
    for lead in ((), (2,)):
        shape = (*lead, 12, 4)
        q, k, v = (Tensor(rng.standard_normal(shape)) for _ in range(3))
        weight = ag.constant(Tensor(rng.standard_normal(shape)))

        def loss(q, k, v):
            return ag.sum_all(ag.mul(ag.coupling_attention(q, k, v, 2, 3, 4), weight))

        Q, K, V = (ag.constant(t) for t in (q, k, v))
        assert ag.fd_check(lambda x: loss(x, K, V), q) <= TOL
        assert ag.fd_check(lambda x: loss(Q, x, V), k) <= TOL
        assert ag.fd_check(lambda x: loss(Q, K, x), v) <= TOL


def test_softmax_attention_matches_per_head_formula():
    rng = np.random.default_rng(14)
    heads, dh = 3, 2
    q, k, v = (rng.standard_normal((6, heads * dh)) for _ in range(3))
    with ag.no_grad():
        got = ag.softmax_attention(*(ag.constant(Tensor(t)) for t in (q, k, v)), heads).value.data
    for n in range(heads):
        cols = slice(n * dh, (n + 1) * dh)
        s = np.exp(q[:, cols] @ k[:, cols].T / np.sqrt(dh))
        np.testing.assert_allclose(got[:, cols], (s / s.sum(axis=1, keepdims=True)) @ v[:, cols], atol=1e-12)
    with pytest.raises(ShapeError):
        ag.softmax_attention(*(ag.constant(Tensor(t)) for t in (q, k[:5], v)), heads)
    with pytest.raises(ShapeError):
        ag.softmax_attention(*(ag.constant(Tensor(t)) for t in (q, k, v[None])), heads)
    with pytest.raises(ShapeError):
        ag.softmax_attention(*(ag.constant(Tensor(t)) for t in (q, k, v)), 4)


def _kept_bytes(op, *args):
    """Bytes the op's result holds on to beyond its own value: recorded vjp state."""
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
    rows = ag.parameter(Tensor(rng.standard_normal((64, 8))))
    ops = {
        "pool": (ag.maxpool2d, image),
        "standard": (ag.softmax_attention, rows, rows, rows, 2),
        "coupled": (ag.coupling_attention, rows, rows, rows, 2, 8, 8),
    }
    for name, (op, *args) in ops.items():
        with ag.no_grad():
            kept, out = _kept_bytes(op, *args)
        assert out._vjp is None and kept < 1024, name
    # Recorded: the pool keeps one byte per output for its choice, the standard mix its maps.
    kept, out = _kept_bytes(ag.maxpool2d, image)
    assert out.value.size <= kept < 2 * out.value.size
    kept, _ = _kept_bytes(ag.softmax_attention, rows, rows, rows, 2)
    assert kept >= 2 * 64 * 64 * 8


def test_gelu_matches_exact_definition():
    from scipy.special import erf

    x = np.linspace(-3, 3, 31)
    got = ag.gelu(ag.constant(Tensor(x))).value.data
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
        ag.fd_check(lambda v: ag.relu(v), Tensor(np.ones(3)))


def test_fd_check_rejects_non_finite_loss():
    def f(v):
        return ag.cross_entropy(ag.scale(v, np.inf), 0)

    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteError):
            ag.fd_check(f, Tensor(np.ones(2)))
