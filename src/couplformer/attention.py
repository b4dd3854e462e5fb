"""Coupling attention: Kronecker-factored attention maps over a token grid.

Tokens come from raster-scanning an h-by-w feature map (index ``i = x + y*w``).
Where standard attention scores every token pair against every other through
an (hw)-by-(hw) map, the coupled mechanism builds one h-by-h matrix ``A`` of
alignment scores between grid rows and one w-by-w matrix ``B`` between grid
columns, and uses ``softmax(A) (x) softmax(B)`` as the attention map.  The
product never has to be materialized: because ``(A (x) B) . row(X) equals
row(A . X . B^T)`` (the paper's Lemma 1), applying the map costs two small
matrix products per channel.  The identity has one implementation, the
array helper behind :func:`couplformer.autograd.apply_factored_map`; the
``lemma1`` verify suite and the acceptance gate check that op against
``np.kron``.  :func:`coupled_attention_explicit` materializes the Kronecker
product anyway and exists purely as the brute-force oracle for
:func:`coupled_attention_fast`.

Every mechanism is the encoder's pre-norm attention sublayer: it
layer-norms the tokens by the block's ``norm`` (gamma, beta), projects q,
k and v, mixes the projected token rows and projects out; only the mix
differs.  Each kind in :data:`KINDS` is its fused op, one graph node whose
heads are an array axis, with the one signature ``(x, gamma, beta, w_q,
w_k, w_v, w_o, heads, h, w)``; :func:`attention_forward` unpacks the norm,
the weights and the geometry and calls it.  The op validates its operands
and opens its block in the active score tracker.  The coupled kind is
:func:`couplformer.autograd.coupling_attention`, which scores all heads
with one batched matmul per factor and applies the map through Lemma 1,
forming no (hw)^2 map in its forward or its backward.  The standard kind
is :func:`couplformer.autograd.softmax_attention`.  The explicit oracle is
no kind: it keeps the composed chain of separate nodes (:func:`ag.layernorm
<couplformer.autograd.layernorm>`, :func:`ag.matmul
<couplformer.autograd.matmul>` projections, :func:`_split_heads`,
:func:`_scores`, softmaxes, the Kronecker map, :func:`_merge_heads`, the
out projection), so it shares no mixing code with the fast path.

Score matrices carry per-head normalization 1/sqrt(w*d_head) for ``A`` and
1/sqrt(h*d_head) for ``B``, matching the dot-product length the way standard
attention scales by 1/sqrt(d_head).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import tensor as T
from .autograd import Var
from .tensor import ShapeError, Tensor

__all__ = [
    "AttentionGeometry",
    "CouplingAttentionParams",
    "trunc_normal",
    "standard_attention",
    "coupling_scores",
    "coupled_attention_explicit",
    "coupled_attention_fast",
    "KINDS",
    "attention_forward",
    "EXPLICIT_TOKEN_LIMIT",
]

# The explicit oracle materializes an (hw)^2 map; refuse production shapes.
EXPLICIT_TOKEN_LIMIT = 256


def trunc_normal(
    rng: np.random.Generator, shape: tuple[int, ...], std: float = 0.02
) -> Tensor:
    """Normal(0, std) samples redrawn until within two standard deviations."""
    out = rng.normal(0.0, std, size=shape)
    bound = 2.0 * std
    bad = np.abs(out) > bound
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > bound
    return Tensor._wrap(out)


@dataclass(frozen=True)
class AttentionGeometry:
    """Token-grid and embedding geometry shared by every attention variant."""

    h: int
    w: int
    d: int
    heads: int

    def __post_init__(self) -> None:
        if self.h < 1 or self.w < 1:
            raise ShapeError(f"geometry: grid {self.h}x{self.w} must be at least 1x1")
        if self.d < 1 or self.heads < 1:
            raise ShapeError(f"geometry: d={self.d}, heads={self.heads} must be positive")
        if self.d % self.heads != 0:
            raise ShapeError(f"geometry: d={self.d} not divisible by heads={self.heads}")

    @property
    def tokens(self) -> int:
        return self.h * self.w

    @property
    def d_head(self) -> int:
        return self.d // self.heads


class CouplingAttentionParams:
    """Projection weights for one attention block (either mechanism): four square d-by-d matrices."""

    def __init__(self, geometry: AttentionGeometry, w_q: Var, w_k: Var, w_v: Var, w_o: Var) -> None:
        d = geometry.d
        for name, w in (("w_q", w_q), ("w_k", w_k), ("w_v", w_v), ("w_o", w_o)):
            if w.value.shape != (d, d):
                raise ShapeError(f"{name}: expected ({d}, {d}), got {w.value.shape}")
        self.geometry = geometry
        self.w_q, self.w_k, self.w_v, self.w_o = w_q, w_k, w_v, w_o

    @classmethod
    def initialize(
        cls, geometry: AttentionGeometry, rng: np.random.Generator, std: float = 0.02
    ) -> "CouplingAttentionParams":
        d = geometry.d
        return cls(geometry, *(ag.parameter(trunc_normal(rng, (d, d), std)) for _ in range(4)))

    def parameters(self) -> dict[str, Var]:
        return {"w_q": self.w_q, "w_k": self.w_k, "w_v": self.w_v, "w_o": self.w_o}


def standard_attention(x: Var, norm: tuple[Var, Var], params: CouplingAttentionParams) -> Var:
    """Full pairwise attention of LN(x): per head softmax(Q K^T / sqrt(d_head)) V, then w_o."""
    return attention_forward(x, norm, params, "standard")


def coupling_scores(q: Tensor, k: Tensor) -> tuple[Tensor, Tensor]:
    """Row/column alignment scores from projected tokens in grid layout.

    ``q`` and ``k`` have shape (heads, h, w, d_head).  Returns
    A of shape (heads, h, h) with A[n, y1, y2] the dot product of grid rows
    y1 of q and y2 of k, scaled by 1/sqrt(w*d_head); and B of shape
    (heads, w, w) built the same way from grid columns, scaled by
    1/sqrt(h*d_head).  These are the scores :func:`coupled_attention_fast`
    computes.
    """
    if q.ndim != 4 or q.shape != k.shape:
        raise ShapeError(
            f"coupling_scores: expected matching (heads, h, w, d_head), got {q.shape} and {k.shape}"
        )
    a, b, _ = ag._coupling_scores(q.data, k.data)
    return Tensor._wrap(a), Tensor._wrap(b)


def coupled_attention_fast(x: Var, norm: tuple[Var, Var], params: CouplingAttentionParams) -> Var:
    """Coupled attention of LN(x) via the factored application; the production path.

    Per head only the h-by-h and w-by-w score matrices are materialized
    (h^2 + w^2 score elements instead of (hw)^2), and the output equals
    :func:`coupled_attention_explicit` up to float round-off.
    """
    return attention_forward(x, norm, params, "coupled_fast")


def _split_heads(t: Var, g: AttentionGeometry) -> Var:
    """Raster tokens (h*w, d) -> per-head grids (heads, h, w, d_head).

    A batch (B, h*w, d) becomes (B*heads, h, w, d_head), image-major.
    """
    lead = t.shape[:-2]
    k = len(lead)
    grids = ag.reshape(t, (*lead, g.h, g.w, g.heads, g.d_head))
    grids = ag.permute(grids, (*range(k), k + 2, k, k + 1, k + 3))
    return ag.reshape(grids, (math.prod(lead) * g.heads, g.h, g.w, g.d_head)) if lead else grids


def _merge_heads(t: Var, g: AttentionGeometry, lead: tuple[int, ...]) -> Var:
    """Inverse of :func:`_split_heads`: heads side by side in each token row."""
    if lead:
        t = ag.reshape(t, (*lead, g.heads, g.h, g.w, g.d_head))
    k = len(lead)
    return ag.reshape(ag.permute(t, (*range(k), k + 1, k + 2, k, k + 3)), (*lead, g.tokens, g.d))


def _scores(q: Var, k: Var) -> tuple[Var, Var]:
    """Differentiable row/column scores of all heads, one batched matmul each."""
    heads, h, w, dh = q.shape
    qa = ag.reshape(q, (heads, h, w * dh))
    ka = ag.permute(ag.reshape(k, (heads, h, w * dh)), (0, 2, 1))
    qb = ag.reshape(ag.permute(q, (0, 2, 1, 3)), (heads, w, h * dh))
    kb = ag.reshape(ag.permute(k, (0, 1, 3, 2)), (heads, h * dh, w))
    a = ag.scale(ag.matmul(qa, ka), 1.0 / math.sqrt(w * dh))
    b = ag.scale(ag.matmul(qb, kb), 1.0 / math.sqrt(h * dh))
    return a, b


def coupled_attention_explicit(x: Var, norm: tuple[Var, Var], params: CouplingAttentionParams) -> Var:
    """Brute-force oracle: layer-norm as a node of its own, materialize softmax(A) (x) softmax(B) and apply it.

    Small shapes only; this keeps the full (hw)-by-(hw) map per head and is
    the reference the fast path is checked against.
    """
    g = params.geometry
    if g.tokens > EXPLICIT_TOKEN_LIMIT:
        raise ShapeError(
            f"explicit oracle limited to {EXPLICIT_TOKEN_LIMIT} tokens, got {g.tokens}"
        )
    weights = params.w_q, params.w_k, params.w_v, params.w_o
    ag._check_rows("coupled_attention_explicit", x, weights, g.heads, g.tokens)  # and opens the score block
    lead = x.shape[:-2]
    x = ag.layernorm(x, *norm)
    q, k, v = (_split_heads(ag.matmul(x, w), g) for w in weights[:3])
    a, b = _scores(q, k)
    T.note_score_tensor(a.value.data)
    T.note_score_tensor(b.value.data)
    full_map = ag.kron(ag.softmax_rows(a), ag.softmax_rows(b))
    T.note_score_tensor(full_map.value.data)
    # Raster-ordered token rows make each head's v the stack of row(X_c) columns.
    heads, h, w, dh = v.shape
    mixed = ag.reshape(ag.matmul(full_map, ag.reshape(v, (heads, h * w, dh))), v.shape)
    return ag.matmul(_merge_heads(mixed, g, lead), params.w_o)


# The one registry of attention mechanisms and their names: ModelConfig
# validates against it and bench keeps one closed form per key.  The explicit
# oracle is no kind; verify and the tests call it directly.
KINDS = {
    "standard": ag.softmax_attention,
    "coupled_fast": ag.coupling_attention,
}


def attention_forward(x: Var, norm: tuple[Var, Var], params: CouplingAttentionParams, kind: str) -> Var:
    """The pre-norm attention sublayer of ``kind`` on tokens ``x``, normed by ``norm``'s (gamma, beta)."""
    try:
        op = KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown attention kind {kind!r}; expected one of {sorted(KINDS)}")
    g = params.geometry
    return op(x, *norm, params.w_q, params.w_k, params.w_v, params.w_o, g.heads, g.h, g.w)
