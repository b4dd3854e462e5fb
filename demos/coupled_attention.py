"""Run the coupled attention block both ways and watch them agree.

The fast path applies the two softmaxed factor maps directly to the value
grid.  The explicit path builds the full (hw) x (hw) attention matrix and is
only there as an oracle for small grids.
"""

import numpy as np

from couplformer.attention import (
    AttentionGeometry,
    CouplingAttentionParams,
    coupled_attention_explicit,
    coupled_attention_fast,
    coupling_scores,
    standard_attention,
)
from couplformer.autograd import Var, constant
from couplformer.tensor import ScoreTracker, Tensor


def softmax(s):
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def main():
    rng = np.random.default_rng(0)
    geom = AttentionGeometry(h=7, w=7, d=32, heads=4)
    params = CouplingAttentionParams.initialize(geom, rng)
    tokens = Var(Tensor(rng.standard_normal((49, 32))), requires_grad=False)
    norm = (constant(Tensor(np.ones(32))), constant(Tensor(np.zeros(32))))  # the pre-norm's scale and offset

    fast = coupled_attention_fast(tokens, norm, params)
    explicit = coupled_attention_explicit(tokens, norm, params)
    gap = np.max(np.abs(fast.value.data - explicit.value.data))
    print(f"output shape                 : {fast.value.shape}")
    print(f"fast vs explicit, max |diff| : {gap:.3e}")

    # the factored map is still a proper attention map: rows sum to one
    q = tokens.value.data @ params.w_q.value.data
    k = tokens.value.data @ params.w_k.value.data
    to_grid = lambda m: m.reshape(geom.h, geom.w, geom.heads, geom.d_head).transpose(2, 0, 1, 3)
    a, b = coupling_scores(Tensor(to_grid(q)), Tensor(to_grid(k)))
    full_map = np.kron(softmax(a.data[0]), softmax(b.data[0]))
    sums = full_map.sum(axis=1)
    print(f"row sums of SM(A) kron SM(B) : {sums.min():.12f} .. {sums.max():.12f}")

    # score storage is where the two mechanisms part ways
    with ScoreTracker() as coupled_tracker:
        coupled_attention_fast(tokens, norm, params)
    with ScoreTracker() as standard_tracker:
        standard_attention(tokens, norm, params)
    print(f"coupled peak score elements  : {coupled_tracker.peak_elements}")
    print(f"standard peak score elements : {standard_tracker.peak_elements}")
    ratio = standard_tracker.peak_elements / coupled_tracker.peak_elements
    print(f"ratio                        : {ratio:.1f}x")


if __name__ == "__main__":
    main()
