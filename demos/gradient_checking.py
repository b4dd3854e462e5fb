"""Finite-difference spot checks of the analytic gradients.

Every operator in the autograd layer carries its own hand-written backward
rule; this script compares a handful of them (and a full attention block)
against central differences.  Anything above ~1e-5 would mean a broken rule.
"""

import numpy as np

import couplformer.autograd as ag
from couplformer.attention import AttentionGeometry, CouplingAttentionParams, coupled_attention_fast
from couplformer.tensor import Tensor

rng = np.random.default_rng(11)


def report(name, fn, x):
    err = ag.fd_check(fn, x)
    print(f"{name:<28} max rel err {err:.3e}")


x = Tensor(rng.standard_normal((5, 4)))
w = Tensor(rng.standard_normal((4, 6)))
# a fixed probe keeps each loss a non-degenerate pure function of its input
# (summing softmax or layernorm outputs directly would be constant in x)
probe54 = Tensor(rng.standard_normal((5, 4)))
gamma = ag.parameter(Tensor(np.ones(4)))
beta = ag.parameter(Tensor(np.zeros(4)))

report("matmul (left argument)", lambda v: ag.sum_all(ag.matmul(v, ag.constant(w))), x)
report("softmax rows", lambda v: ag.sum_all(ag.mul(ag.softmax_rows(v), ag.constant(probe54))), x)
report("layernorm", lambda v: ag.sum_all(ag.mul(ag.layernorm(v, gamma, beta), ag.constant(probe54))), x)
report("gelu", lambda v: ag.sum_all(ag.gelu(v)), x)

geom = AttentionGeometry(h=4, w=3, d=8, heads=2)
params = CouplingAttentionParams.initialize(geom, rng)
tokens = Tensor(rng.standard_normal((12, 8)))
probe = Tensor(rng.standard_normal((12, 8)))
norm = (ag.constant(Tensor(np.ones(8))), ag.constant(Tensor(np.zeros(8))))  # the block's pre-norm


def block_loss(v):
    return ag.sum_all(ag.mul(coupled_attention_fast(v, norm, params), ag.constant(probe)))


report("coupled attention block", block_loss, tokens)

# and through a projection weight rather than the input
def weight_loss(wq):
    shadow = CouplingAttentionParams(geom, wq, params.w_k, params.w_v, params.w_o)
    return ag.sum_all(ag.mul(coupled_attention_fast(ag.constant(tokens), norm, shadow), ag.constant(probe)))


report("w_q through the block", weight_loss, params.w_q.value)
