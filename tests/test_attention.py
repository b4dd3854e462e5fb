"""Attention mechanisms against hand-rolled oracles.

The standard path is compared to a per-element loop implementation, the
coupled fast path both to the explicit Kronecker construction and through
the gradient, so the two routes are genuinely independent witnesses.
"""

import math

import numpy as np
import pytest

from couplformer import autograd as ag
from couplformer import tensor as T
from couplformer.attention import (
    EXPLICIT_TOKEN_LIMIT,
    KINDS,
    AttentionGeometry,
    CouplingAttentionParams,
    _merge_heads,
    _scores,
    _split_heads,
    attention_forward,
    coupled_attention_explicit,
    coupled_attention_fast,
    coupling_scores,
    standard_attention,
    trunc_normal,
)
from couplformer.tensor import ShapeError, Tensor


def _params(geometry, seed, std=0.5):
    rng = np.random.default_rng((seed, 0xA77))
    return CouplingAttentionParams.initialize(geometry, rng, std=std)


def _tokens(geometry, seed):
    rng = np.random.default_rng((seed, 0x70C))
    return rng.standard_normal((geometry.tokens, geometry.d))


def _norm_arrays(d, seed):
    """A pre-norm's scale and offset, away from 1 and 0."""
    rng = np.random.default_rng((seed, 0x1A))
    return 1.0 + 0.3 * rng.standard_normal(d), 0.2 * rng.standard_normal(d)


def _norm(geometry, seed):
    return tuple(ag.constant(Tensor(a)) for a in _norm_arrays(geometry.d, seed))


def _np_layernorm(x, gamma, beta, eps=1e-5):
    centered = x - x.mean(axis=-1, keepdims=True)
    return gamma * centered / np.sqrt((centered**2).mean(axis=-1, keepdims=True) + eps) + beta


def _np_softmax_rows(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# -- geometry --------------------------------------------------------------


def test_geometry_validation():
    g = AttentionGeometry(h=3, w=5, d=8, heads=2)
    assert g.tokens == 15 and g.d_head == 4
    with pytest.raises(ShapeError):
        AttentionGeometry(h=0, w=5, d=8, heads=2)
    with pytest.raises(ShapeError):
        AttentionGeometry(h=3, w=5, d=8, heads=3)


def test_trunc_normal_is_bounded_and_deterministic():
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    t1 = trunc_normal(rng1, (200, 200), std=0.02)
    t2 = trunc_normal(rng2, (200, 200), std=0.02)
    np.testing.assert_array_equal(t1.data, t2.data)
    assert np.max(np.abs(t1.data)) <= 0.04 + 1e-12
    assert abs(float(t1.data.mean())) < 1e-3
    assert 0.015 < float(t1.data.std()) < 0.025


# -- standard attention vs loop oracle -------------------------------------


def _standard_oracle(x, norm, params):
    g = params.geometry
    L, dh = g.tokens, g.d_head
    x = _np_layernorm(x, *norm)
    q = x @ params.w_q.value.data
    k = x @ params.w_k.value.data
    v = x @ params.w_v.value.data
    heads_out = []
    for n in range(g.heads):
        qh, kh, vh = (m[:, n * dh : (n + 1) * dh] for m in (q, k, v))
        scores = np.empty((L, L))
        for i in range(L):
            for j in range(L):
                scores[i, j] = float(qh[i] @ kh[j]) / math.sqrt(dh)
        heads_out.append(_np_softmax_rows(scores) @ vh)
    return np.concatenate(heads_out, axis=1) @ params.w_o.value.data


@pytest.mark.parametrize("seed", range(5))
def test_standard_attention_against_loops(seed):
    rng = np.random.default_rng(seed)
    g = AttentionGeometry(
        h=int(rng.integers(1, 5)),
        w=int(rng.integers(1, 5)),
        d=8,
        heads=int(rng.choice([1, 2, 4])),
    )
    params, norm = _params(g, seed), _norm_arrays(g.d, seed)
    x = _tokens(g, seed)
    with ag.no_grad():
        got = standard_attention(ag.constant(Tensor(x)), tuple(map(ag.constant, map(Tensor, norm))), params).value.data
    np.testing.assert_allclose(got, _standard_oracle(x, norm, params), atol=1e-10)


# -- coupling scores -------------------------------------------------------


def _coupling_oracle(q, k):
    """Loop version of the row/column alignment scores."""
    heads, h, w, dh = q.shape
    a = np.zeros((heads, h, h))
    b = np.zeros((heads, w, w))
    for n in range(heads):
        for y1 in range(h):
            for y2 in range(h):
                a[n, y1, y2] = np.sum(q[n, y1] * k[n, y2]) / math.sqrt(w * dh)
        for x1 in range(w):
            for x2 in range(w):
                b[n, x1, x2] = np.sum(q[n, :, x1] * k[n, :, x2]) / math.sqrt(h * dh)
    return a, b


@pytest.mark.parametrize("seed", range(5))
def test_coupling_scores_closed_form(seed):
    rng = np.random.default_rng((seed, 1))
    heads, h, w, dh = 2, 3, 4, 5
    q = rng.standard_normal((heads, h, w, dh))
    k = rng.standard_normal((heads, h, w, dh))
    a, b = coupling_scores(Tensor(q), Tensor(k))
    oa, ob = _coupling_oracle(q, k)
    np.testing.assert_allclose(a.data, oa, atol=1e-12)
    np.testing.assert_allclose(b.data, ob, atol=1e-12)


def test_coupling_scores_shape_errors():
    q = Tensor(np.ones((2, 3, 4, 5)))
    with pytest.raises(ShapeError):
        coupling_scores(q, Tensor(np.ones((2, 3, 4, 6))))
    with pytest.raises(ShapeError):
        coupling_scores(Tensor(np.ones((3, 4, 5))), Tensor(np.ones((3, 4, 5))))


# -- factored application --------------------------------------------------


def _factored_case(seed, heads, h, w, dh):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((heads, h, h))
    b = rng.standard_normal((heads, w, w))
    v = rng.standard_normal((heads, h, w, dh))
    with ag.no_grad():
        got = ag.apply_factored_map(
            ag.constant(Tensor(a)), ag.constant(Tensor(b)), ag.constant(Tensor(v))
        ).value.data
    return a, b, v, got


@pytest.mark.parametrize("seed", range(5))
def test_apply_factored_map_channelwise(seed):
    """Each head's channel grid goes through a . X . b^T; checked one by one."""
    heads, h, w, dh = 2, 3, 5, 4
    a, b, v, got = _factored_case((seed, 2), heads, h, w, dh)
    assert got.shape == (heads, h, w, dh)
    for n in range(heads):
        for c in range(dh):
            np.testing.assert_allclose(got[n, :, :, c], a[n] @ v[n, :, :, c] @ b[n].T, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_apply_factored_map_equals_kron_product(seed):
    heads, h, w, dh = 3, 4, 3, 2
    a, b, v, got = _factored_case((seed, 3), heads, h, w, dh)
    for n in range(heads):
        for c in range(dh):
            want = np.kron(a[n], b[n]) @ v[n, :, :, c].reshape(-1)
            np.testing.assert_allclose(got[n, :, :, c].reshape(-1), want, atol=1e-12)


def test_apply_factored_map_shape_errors():
    a, b, v = (ag.constant(T.zeros(s)) for s in ((2, 3, 3), (2, 4, 4), (2, 3, 4, 5)))
    with pytest.raises(ShapeError):
        ag.apply_factored_map(b, a, v)
    with pytest.raises(ShapeError):
        ag.apply_factored_map(a, b, ag.constant(T.zeros((2, 12, 5))))
    with pytest.raises(ShapeError):
        ag.apply_factored_map(a, ag.constant(T.zeros((1, 4, 4))), v)


# -- fused mixes against the composed chain --------------------------------


def _composed_coupled(x, gamma, beta, w_q, w_k, w_v, w_o, g):
    """The coupled sublayer as separate nodes: layernorm, projections, split, scores, softmaxes, Lemma 1, merge, w_o."""
    lead = x.shape[:-2]
    normed = ag.layernorm(x, gamma, beta)
    q, k, v = (_split_heads(ag.matmul(normed, w), g) for w in (w_q, w_k, w_v))
    a, b = _scores(q, k)
    mixed = ag.apply_factored_map(ag.softmax_rows(a), ag.softmax_rows(b), v)
    return ag.matmul(_merge_heads(mixed, g, lead), w_o)


def _composed_standard(x, gamma, beta, w_q, w_k, w_v, w_o, g):
    """The standard sublayer as separate nodes: layernorm, projections, split, scale q, the heads' node, merge, w_o."""
    lead = x.shape[:-2]
    n = math.prod(lead) * g.heads
    normed = ag.layernorm(x, gamma, beta)
    q, k, v = (ag.reshape(_split_heads(ag.matmul(normed, w), g), (n, g.tokens, g.d_head)) for w in (w_q, w_k, w_v))
    q = ag.scale(q, 1.0 / math.sqrt(g.d_head))
    operands = [t.value.data for t in (q, k, v)]
    out, vjp = ag._softmax_heads(*operands, keep=True)
    mixed = ag._node(out, (q, k, v), lambda grad: vjp(grad, *operands))
    return ag.matmul(_merge_heads(ag.reshape(mixed, (n, g.h, g.w, g.d_head)), g, lead), w_o)


FUSED_AND_COMPOSED = {
    "coupled": (lambda x, *w, g: ag.coupling_attention(x, *w, g.heads, g.h, g.w), _composed_coupled),
    "standard": (lambda x, *w, g: ag.softmax_attention(x, *w, g.heads), _composed_standard),
}


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


@pytest.mark.parametrize("lead", [(), (3,)], ids=["image", "batch3"])
@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("mix", sorted(FUSED_AND_COMPOSED))
def test_fused_mix_is_bitwise_the_composed_chain(mix, heads, lead):
    """Forward and the gradients of x, gamma, beta, w_q, w_k, w_v and w_o against the composed sublayer.

    Compared as uint64 bits, sign bits included.
    """
    g = AttentionGeometry(h=3, w=5, d=4 * heads, heads=heads)
    rng = np.random.default_rng((heads, len(lead), 0xF05))
    arrays = [rng.standard_normal((*lead, g.tokens, g.d)), *_norm_arrays(g.d, heads)]
    arrays += [rng.standard_normal((g.d, g.d)) for _ in range(4)]
    probe = ag.constant(Tensor(rng.standard_normal((*lead, g.tokens, g.d))))
    results = []
    for op in FUSED_AND_COMPOSED[mix]:
        params = [ag.parameter(Tensor(a)) for a in arrays]
        out = op(*params, g=g)
        ag.backward(ag.sum_all(ag.mul(out, probe)))
        results.append([out.value.data] + [p.grad.data for p in params])
    assert results[0][0].shape == (*lead, g.tokens, g.d)
    for got, want in zip(*results):
        assert got.shape == want.shape and np.array_equal(_bits(got), _bits(want))


def test_fused_mix_shape_errors():
    rows, w = ag.constant(T.zeros((12, 8))), ag.constant(T.zeros((8, 8)))
    norm = (ag.constant(T.ones((8,))), ag.constant(T.zeros((8,))))
    with pytest.raises(ShapeError, match="L = 15"):
        ag.coupling_attention(rows, *norm, w, w, w, w, 2, 3, 5)
    with pytest.raises(ShapeError):
        ag.coupling_attention(rows, *norm, w, w, ag.constant(T.zeros((8, 4))), w, 2, 3, 4)
    with pytest.raises(ShapeError):  # the projections take d = 8 columns, not 12
        ag.coupling_attention(rows, *norm, *(ag.constant(T.zeros((12, 8))),) * 4, 2, 3, 4)
    with pytest.raises(ShapeError):  # the norm's scale and offset have d = 8 entries
        ag.coupling_attention(rows, ag.constant(T.ones((12,))), norm[1], w, w, w, w, 2, 3, 4)
    for heads in (0, 3):
        with pytest.raises(ShapeError):
            ag.softmax_attention(rows, *norm, w, w, w, w, heads)
    with pytest.raises(ShapeError):
        ag.softmax_attention(ag.constant(T.zeros((1, 2, 12, 8))), *norm, w, w, w, w, 2)
    with pytest.raises(ShapeError):
        ag.softmax_attention(rows, norm[0], ag.constant(T.zeros((7,))), w, w, w, w, 2)


# -- fast path vs explicit oracle ------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_fast_equals_explicit(seed):
    rng = np.random.default_rng((seed, 5))
    g = AttentionGeometry(
        h=int(rng.integers(1, 9)),
        w=int(rng.integers(1, 9)),
        d=int(rng.choice([4, 8])),
        heads=int(rng.choice([1, 2, 4])),
    )
    params = _params(g, seed)
    norm = _norm(g, seed)
    x = ag.constant(Tensor(_tokens(g, seed)))
    with ag.no_grad():
        fast = coupled_attention_fast(x, norm, params).value.data
        explicit = coupled_attention_explicit(x, norm, params).value.data
    np.testing.assert_allclose(fast, explicit, atol=1e-10)


def test_fast_and_explicit_agree_on_gradients():
    """Same loss through both routes must give the same input gradient."""
    g = AttentionGeometry(h=3, w=4, d=8, heads=2)
    params = _params(g, 1)
    norm = _norm(g, 1)
    base = _tokens(g, 11)
    x1 = ag.parameter(Tensor(base))
    ag.backward(ag.sum_all(coupled_attention_fast(x1, norm, params)))
    x2 = ag.parameter(Tensor(base))
    ag.backward(ag.sum_all(coupled_attention_explicit(x2, norm, params)))
    np.testing.assert_allclose(x1.grad.data, x2.grad.data, atol=1e-9)


def test_coupled_rows_are_stochastic():
    """softmax(A) kron softmax(B) is row-stochastic even though softmax is split."""
    rng = np.random.default_rng(12)
    for _ in range(10):
        h, w = rng.integers(1, 7, size=2)
        sa = _np_softmax_rows(rng.standard_normal((h, h)))
        sb = _np_softmax_rows(rng.standard_normal((w, w)))
        rows = np.kron(sa, sb).sum(axis=1)
        np.testing.assert_allclose(rows, np.ones(h * w), atol=1e-12)


def test_explicit_oracle_refuses_large_grids():
    heads = 1
    g = AttentionGeometry(h=17, w=16, d=1, heads=heads)
    assert g.tokens > EXPLICIT_TOKEN_LIMIT
    params = _params(g, 0)
    norm = _norm(g, 0)
    x = ag.constant(Tensor(np.zeros((g.tokens, 1))))
    with pytest.raises(ShapeError):
        coupled_attention_explicit(x, norm, params)


# -- dispatch and input validation -----------------------------------------


def test_attention_forward_dispatch():
    g = AttentionGeometry(h=2, w=3, d=4, heads=2)
    params = _params(g, 2)
    norm = _norm(g, 2)
    x = ag.constant(Tensor(_tokens(g, 13)))
    with ag.no_grad():
        for kind in KINDS:
            out = attention_forward(x, norm, params, kind)
            assert out.value.shape == (6, 4)
    for name in ("quadratic", "coupled_explicit"):  # the explicit oracle is called directly, not by kind
        with pytest.raises(ValueError):
            attention_forward(x, norm, params, name)


def test_attention_rejects_wrong_token_shape():
    g = AttentionGeometry(h=2, w=3, d=4, heads=2)
    params = _params(g, 3)
    norm = _norm(g, 3)
    bad = ag.constant(Tensor(np.zeros((5, 4))))
    with pytest.raises(ShapeError):
        coupled_attention_fast(bad, norm, params)
    with pytest.raises(ShapeError):
        standard_attention(bad, norm, params)


def test_params_shape_validation():
    g = AttentionGeometry(h=2, w=2, d=4, heads=2)
    good = ag.parameter(T.zeros((4, 4)))
    with pytest.raises(ShapeError):
        CouplingAttentionParams(g, good, good, good, ag.parameter(T.zeros((4, 3))))
    with pytest.raises(ShapeError):
        CouplingAttentionParams(g, ag.parameter(T.zeros((3, 4))), good, good, good)


# -- score storage accounting ----------------------------------------------


@pytest.mark.parametrize(
    "h,w,heads,d", [(2, 3, 1, 4), (4, 4, 2, 8), (7, 7, 4, 8), (3, 6, 2, 4)]
)
def test_score_storage_per_mechanism(h, w, heads, d):
    g = AttentionGeometry(h=h, w=w, d=d, heads=heads)
    params = _params(g, 7)
    norm = _norm(g, 7)
    x = ag.constant(Tensor(_tokens(g, 7)))
    L = h * w

    with T.ScoreTracker() as tr_std, ag.no_grad():
        standard_attention(x, norm, params)
    assert tr_std.block_totals == [heads * L * L]

    with T.ScoreTracker() as tr_fast, ag.no_grad():
        coupled_attention_fast(x, norm, params)
    assert tr_fast.block_totals == [heads * (h * h + w * w)]

    with T.ScoreTracker() as tr_exp, ag.no_grad():
        coupled_attention_explicit(x, norm, params)
    assert tr_exp.block_totals == [heads * (h * h + w * w) + heads * L * L]


def test_score_blocks_accumulate_per_call():
    g = AttentionGeometry(h=2, w=2, d=4, heads=1)
    params = _params(g, 8)
    norm = _norm(g, 8)
    x = ag.constant(Tensor(_tokens(g, 8)))
    with T.ScoreTracker() as tracker, ag.no_grad():
        coupled_attention_fast(x, norm, params)
        coupled_attention_fast(x, norm, params)
    assert tracker.block_totals == [8, 8]
    assert tracker.peak_elements == 8
    assert tracker.total_elements == 16


# -- gradient sanity on the full block -------------------------------------


@pytest.mark.parametrize("kind", ["standard", "coupled_fast"])
def test_fd_attention_block(kind):
    g = AttentionGeometry(h=2, w=3, d=4, heads=2)
    params = _params(g, 9, std=0.3)
    norm = _norm(g, 9)
    x = Tensor(_tokens(g, 21))

    def f(v):
        return ag.sum_all(attention_forward(v, norm, params, kind))

    assert ag.fd_check(f, x) <= 1e-5
