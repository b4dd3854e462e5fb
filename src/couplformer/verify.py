"""Verification suites: ``SUITES`` maps a name to ``fn(seed) -> (worst, threshold, cases)``.

A suite passes when ``worst <= threshold``.  ``couplformer verify`` runs them
at any ``--seed``; acceptance criteria 1-3, 5 and 6 run them at seed 0.  No
oracle shares code with what it checks: ``np.kron`` (``lemma1``), the explicit
Kronecker map (``fastpath``), the element law (``kron``), ``np.linalg.svd``
(``rank``) and central differences through a random probe (``grad``).
"""

import numpy as np

from . import autograd as ag
from . import tensor as T
from .attention import (
    AttentionGeometry,
    CouplingAttentionParams,
    coupled_attention_explicit,
    coupled_attention_fast,
)

__all__ = ["SUITES"]


def lemma1(seed: int) -> tuple[float, float, int]:
    """(A (x) B) . row(X) == row(A . X . B^T), one head and one channel per case."""
    rng = np.random.default_rng((seed, 0x6C656D))
    worst, cases = 0.0, 200
    for _ in range(cases):
        h = int(rng.integers(1, 11))
        w = int(rng.integers(1, 11))
        a = rng.standard_normal((h, h))
        b = rng.standard_normal((w, w))
        x = rng.standard_normal((h, w))
        got = ag.apply_factored_map(  # constants: no graph is recorded
            ag.constant(a[None]), ag.constant(b[None]), ag.constant(x[None, :, :, None])
        ).value.data.reshape(-1)
        want = np.kron(a, b) @ x.reshape(-1)
        worst = max(worst, np.abs(got - want).max() / max(1e-30, np.abs(want).max()))
    return float(worst), 1e-12, cases


def fastpath(seed: int) -> tuple[float, float, int]:
    """Fast path == explicit Kronecker map on random blocks."""
    rng = np.random.default_rng((seed, 0x666173))
    worst, cases = 0.0, 50
    for _ in range(cases):
        h = int(rng.integers(1, 9))
        w = int(rng.integers(1, 9))
        heads = int(rng.choice([1, 2, 4]))
        d = heads * int(rng.choice([2, 4]))
        geometry = AttentionGeometry(h=h, w=w, d=d, heads=heads)
        params = CouplingAttentionParams.initialize(geometry, rng, std=0.5)
        x = ag.constant(T.Tensor(rng.standard_normal((h * w, d))))
        with ag.no_grad():
            fast = coupled_attention_fast(x, params).value.data
            explicit = coupled_attention_explicit(x, params).value.data
        worst = max(worst, np.abs(fast - explicit).max())
    return float(worst), 1e-10, cases


def kron(seed: int) -> tuple[float, float, int]:
    """Element law: kron(A, B)[i, j] == A[i//w, j//w] * B[i%w, j%w], exhaustively."""
    rng = np.random.default_rng((seed, 0x6B726F))
    worst, cases = 0.0, 0
    for h in range(1, 7):
        for w in range(1, 7):
            a = rng.standard_normal((h, h))
            b = rng.standard_normal((w, w))
            k = ag.kron(ag.constant(a), ag.constant(b)).value.data
            for i in range(h * w):
                for j in range(h * w):
                    direct = a[i // w, j // w] * b[i % w, j % w]
                    worst = max(worst, abs(k[i, j] - direct))
            cases += 1
    return float(worst), 1e-14, cases


def rank(seed: int) -> tuple[float, float, int]:
    """rank(A (x) B) == rank(A) * rank(B) for constructed low-rank factors."""
    rng = np.random.default_rng((seed, 0x726E6B))
    worst, cases = 0.0, 50
    for _ in range(cases):
        h = int(rng.integers(6, 11))
        w = int(rng.integers(6, 11))
        ra = int(rng.integers(1, min(5, h) + 1))
        rb = int(rng.integers(1, min(5, w) + 1))
        a = rng.standard_normal((h, ra)) @ rng.standard_normal((ra, h))
        b = rng.standard_normal((w, rb)) @ rng.standard_normal((rb, w))
        sv = np.linalg.svd(ag.kron(ag.constant(a), ag.constant(b)).value.data, compute_uv=False)
        numerical_rank = int(np.sum(sv > 1e-8 * sv[0]))
        worst = max(worst, float(abs(numerical_rank - ra * rb)))
    return worst, 0.0, cases


def grad(seed: int) -> tuple[float, float, int]:
    """Gradients of sum(out * probe) w.r.t. 5 inputs, then w_q, of one coupled block."""
    rng = np.random.default_rng((seed, 0x677264))
    g = AttentionGeometry(h=3, w=4, d=8, heads=2)
    params = CouplingAttentionParams.initialize(g, rng, std=0.3)

    def draw():
        return T.Tensor(rng.standard_normal((g.tokens, g.d)))

    def loss(x, w_q, probe):
        p = CouplingAttentionParams(g, w_q, params.w_k, params.w_v, params.w_o)
        return ag.sum_all(ag.mul(coupled_attention_fast(x, p), ag.constant(probe)))

    worst = 0.0
    for _ in range(5):
        probe, x = draw(), draw()
        worst = max(worst, ag.fd_check(lambda v: loss(v, params.w_q, probe), x))
    probe, x = draw(), ag.constant(draw())
    worst = max(worst, ag.fd_check(lambda w: loss(x, w, probe), params.w_q))
    return worst, 1e-5, 6


SUITES = {"lemma1": lemma1, "fastpath": fastpath, "kron": kron, "rank": rank, "grad": grad}
