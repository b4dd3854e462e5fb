"""Reverse-mode automatic differentiation over tensor operations.

A :class:`Var` wraps a :class:`~couplformer.tensor.Tensor` value and, for an
op's output, the op's recorded node: its parents' nodes (a leaf is its own
node), a vector-Jacobian callback and a gradient slot, but no value.  So an
output the caller drops is freed unless a vjp closure, which never holds a
``Var``, reads it.  The graph is a DAG; :func:`backward` visits each node
once in reverse topological order and accumulates gradients additively into
every parent that requires them.  It consumes the graph as it goes: a node
releases its parents and its vjp, and so the activations the vjp kept, once
its gradient is passed on.  A graph thus supports one backward; leaves keep
accumulating across graphs.

Each op is the one home of its forward: it validates its operand shapes,
raising :class:`~couplformer.tensor.ShapeError` on mismatch, computes the
value on the raw arrays and hands it to :func:`_node`, which wraps it once.
Ops on :func:`constant` operands serve as the plain-tensor kernels.  Nothing
broadcasts implicitly except a shared right operand: the 2-D right operand of
:func:`matmul` and a right operand of :func:`add` shaped like the left one's
trailing axes apply to every leading index.  The image ops take one
image (C, H, W) or a batch (B, C, H, W): :func:`conv2d` is one GEMM over the
whole batch's im2col columns, and :func:`cross_entropy` takes (B, classes)
logits with B integer targets and returns their mean.
:func:`conv_relu_pool` is a whole conv stem stage (stride-1 same-padded
convolution, ReLU, max pool) in one node that keeps only its output and the
pool's one-byte choices; it shares its im2col, scatter and pool steps with
:func:`conv2d` and :func:`maxpool2d`, and its vjp recomputes the im2col
columns.  ReLU is ``np.maximum(x, 0)``: branch-free, and a NaN stays NaN.
Whether ops record a graph (:func:`no_grad`) is per thread.
Each attention mechanism's token mix is one op on projected (L, d) or
(B, L, d) token rows: :func:`softmax_attention` and :func:`coupling_attention`
split the heads, score, softmax, apply the map and merge the heads inside one
forward and one hand-written vjp.  :func:`_factored_map`, behind both
:func:`coupling_attention` and :func:`apply_factored_map`, is the package's
one implementation of the Kronecker identity
(A (x) B) . row(X) = row(A . X . B^T), the paper's Lemma 1.
:func:`fd_check` is the central-difference oracle of the ``grad``
suite in :mod:`couplformer.verify`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from . import tensor as T
from .tensor import NonFiniteError, ShapeError, Tensor

__all__ = [
    "Var",
    "GraphError",
    "backward",
    "fd_check",
    "no_grad",
    "constant",
    "parameter",
    "add",
    "mul",
    "scale",
    "matmul",
    "permute",
    "reshape",
    "softmax_rows",
    "softmax_attention",
    "coupling_attention",
    "relu",
    "gelu",
    "layernorm",
    "conv2d",
    "maxpool2d",
    "conv_relu_pool",
    "sum_all",
    "cross_entropy",
    "kron",
    "apply_factored_map",
]


class GraphError(RuntimeError):
    """Misuse of the recorded graph (non-scalar backward, repeated backward)."""


# A context variable, not a module global: each thread (and asyncio task) has its own.
_grad_enabled: ContextVar[bool] = ContextVar("couplformer_grad_enabled", default=True)


@contextmanager
def no_grad():
    """Disable graph recording inside the block, in this thread only; ops return detached leaves."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class _Node:
    """A recorded op: its parents' nodes, its vjp, a gradient slot and the walk's visit mark."""

    __slots__ = ("_parents", "_vjp", "_grad", "_mark")
    requires_grad = True

    def __init__(self, parents: tuple, vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> None:
        self._parents, self._vjp, self._grad, self._mark = parents, vjp, None, None


class Var:
    """Autograd-tracked tensor: a value and, for a recorded op's output, the op's node."""

    __slots__ = ("value", "requires_grad", "_grad", "_op")

    def __init__(self, value, requires_grad: bool = False, op: _Node | None = None) -> None:
        self.value = value if isinstance(value, Tensor) else Tensor(value)
        self.requires_grad = bool(requires_grad)
        self._grad: np.ndarray | None = None
        self._op = op  # None for a leaf, which is its own node

    @property
    def _parents(self) -> tuple:
        """The recorded op's parents as nodes (a leaf parent is itself); empty for a leaf."""
        return () if self._op is None else self._op._parents

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def grad(self) -> Tensor | None:
        return None if self._grad is None else Tensor._wrap(self._grad)

    def clear_grad(self) -> None:
        self._grad = None

    def item(self) -> float:
        return self.value.item()

    def assign(self, value: Tensor) -> None:
        """Replace the value of a leaf in place (optimizer updates)."""
        if self._op is not None:
            raise GraphError("assign() is only valid on leaf variables")
        if value.shape != self.value.shape:
            raise ShapeError(f"assign: shape {value.shape} != {self.value.shape}")
        self.value = value

    def __repr__(self) -> str:
        return f"Var(shape={self.value.shape}, requires_grad={self.requires_grad})"


def constant(values) -> Var:
    return Var(values, requires_grad=False)


def parameter(values) -> Var:
    return Var(values, requires_grad=True)


def _recording(parents: tuple[Var, ...]) -> bool:
    """Whether an op on ``parents`` records a graph node (and so needs its vjp state)."""
    return _grad_enabled.get() and any(p.requires_grad for p in parents)


def _node(out: np.ndarray, parents: tuple[Var, ...], vjp) -> Var:
    """Wrap a freshly computed forward value; record its node, over its parents' nodes, if needed."""
    if _recording(parents):
        return Var(Tensor._wrap(out), True, _Node(tuple(p._op or p for p in parents), vjp))
    return Var(Tensor._wrap(out))


def _consumed(grad):
    """The vjp slot of a node that a backward has already passed through."""
    raise AssertionError("a consumed node's vjp is never called")


def backward(loss: Var) -> None:
    """Accumulate d(loss)/d(node) into every reachable leaf that requires it.

    The graph is consumed: each node drops its parents and its vjp (and with
    them the activations the vjp kept) as soon as its gradient has been
    passed on, so a graph supports one backward.  Reaching a consumed node
    raises :class:`GraphError` before any gradient moves.
    """
    if loss.value.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    if not loss.requires_grad:
        return
    if loss._op is None:  # a leaf: d(loss)/d(loss) = 1 accumulates like any gradient
        ones = np.ones_like(loss.value.data)
        loss._grad = ones if loss._grad is None else loss._grad + ones
        return

    # Iterative post-order DFS over the recorded nodes; graphs can be deep
    # for large batches.  A node may be pushed again before its first visit.
    # The marks are fresh per walk, so an aborted walk leaves nothing stale.
    seen, placed = object(), object()
    order: list[_Node] = []
    stack: list[_Node] = [loss._op]
    while stack:
        node = stack[-1]
        if node._mark is seen:
            node._mark = placed
            order.append(stack.pop())
        elif node._mark is placed:
            stack.pop()
        else:
            if node._vjp is _consumed:
                raise GraphError("backward already ran through this node; rebuild the graph first")
            node._mark = seen
            for parent in node._parents:
                if isinstance(parent, _Node) and parent._mark is not placed:
                    stack.append(parent)

    loss._op._grad = np.ones_like(loss.value.data)
    while order:
        node = order.pop()
        # An intermediate gradient is dead once passed on; only leaves keep theirs.
        grad, parents, vjp = node._grad, node._parents, node._vjp
        node._grad, node._parents, node._vjp = None, (), _consumed
        if grad is None:
            continue
        for parent, contrib in zip(parents, vjp(grad)):
            if contrib is None or not parent.requires_grad:
                continue
            if parent._grad is None:
                # No copy: no vjp writes into its incoming gradient, and sums are out of place.
                parent._grad = np.asarray(contrib, dtype=np.float64)
            else:
                parent._grad = parent._grad + contrib


# --------------------------------------------------------------------------
# Differentiable wrappers.
# --------------------------------------------------------------------------


def add(a: Var, b: Var) -> Var:
    """Elementwise sum; ``b`` may match only the trailing axes of ``a``.

    Such a ``b`` is added at every leading index: a 1-D bias to every row,
    an (L, d) position table to every image of a (B, L, d) batch.  Its
    gradient sums over the leading axes.
    """
    x, y = a.value.data, b.value.data
    lead = x.ndim - y.ndim
    if lead < 0 or (lead and y.ndim == 0) or x.shape[lead:] != y.shape:
        raise ShapeError(f"add: shapes disagree, {x.shape} vs {y.shape}")
    axes = tuple(range(lead))
    return _node(x + y, (a, b), lambda g: (g, g.sum(axis=axes) if axes else g))


def mul(a: Var, b: Var) -> Var:
    x, y = a.value.data, b.value.data
    if x.shape != y.shape:
        raise ShapeError(f"mul: shapes disagree, {x.shape} vs {y.shape}")
    return _node(x * y, (a, b), lambda g: (g * y, g * x))


def scale(x: Var, c: float) -> Var:
    c = float(c)
    return _node(x.value.data * c, (x,), lambda g: (g * c,))


def matmul(a: Var, b: Var) -> Var:
    """Matrix product: batched 3-D by 3-D with equal batch extent, or N-D by 2-D.

    A 2-D right operand is shared by every leading index of the left one:
    the rows of all of them go through one GEMM.
    """
    x, y = a.value.data, b.value.data
    if x.ndim == 3 and y.ndim == 3:
        if x.shape[0] != y.shape[0]:
            raise ShapeError(f"matmul: batch extents disagree, {x.shape} @ {y.shape}")
        lhs = x
    elif x.ndim >= 2 and y.ndim == 2:
        lhs = x.reshape(-1, x.shape[-1])
    else:
        raise ShapeError(f"matmul: expected N-D by 2-D or batched 3-D operands, got {x.shape} @ {y.shape}")
    if x.shape[-1] != y.shape[-2]:
        raise ShapeError(f"matmul: inner dims disagree, {x.shape} @ {y.shape}")
    shape = x.shape

    def vjp(g: np.ndarray):
        g = g.reshape(*lhs.shape[:-1], y.shape[-1])
        return (
            np.matmul(g, y.swapaxes(-1, -2)).reshape(shape),
            np.matmul(lhs.swapaxes(-1, -2), g),
        )

    return _node(np.matmul(lhs, y).reshape(*x.shape[:-1], y.shape[-1]), (a, b), vjp)


def permute(x: Var, axes: Sequence[int]) -> Var:
    axes = tuple(int(a) for a in axes)
    arr = x.value.data
    if sorted(axes) != list(range(arr.ndim)):
        raise ShapeError(f"permute: axes {axes} invalid for shape {arr.shape}")
    inverse = tuple(int(i) for i in np.argsort(axes))
    return _node(arr.transpose(axes), (x,), lambda g: (g.transpose(inverse),))


def reshape(x: Var, shape: Sequence[int]) -> Var:
    arr = x.value.data
    target = tuple(int(s) for s in shape)
    if math.prod(target) != arr.size:
        raise ShapeError(f"reshape: cannot view {arr.size} elements as {target}")
    original = arr.shape
    return _node(arr.reshape(target), (x,), lambda g: (g.reshape(original),))


def _softmax(arr: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, with max subtraction for stability."""
    top = arr.max(axis=-1, keepdims=True)
    # NaN and +inf reach the row maxima, -inf the minimum: no full-size mask.
    if not (np.isfinite(top).all() and np.isfinite(arr.min(initial=0.0))):
        raise NonFiniteError("softmax_rows: input contains non-finite values")
    e = arr - top
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_grad(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Jacobian-vector form per row, s * (g - <g, s>), in one new buffer."""
    out = g * s
    dot = out.sum(axis=-1, keepdims=True)
    np.subtract(g, dot, out=out)
    out *= s
    return out


def softmax_rows(x: Var) -> Var:
    arr = x.value.data
    if arr.ndim < 1:
        raise ShapeError("softmax_rows: expected at least 1-D input")
    s = _softmax(arr)
    return _node(s, (x,), lambda g: (_softmax_grad(g, s),))


def _to_heads(rows: np.ndarray, heads: int, grid: tuple[int, ...]) -> np.ndarray:
    """View (*lead, L, d) token rows as (prod(lead)*heads, *grid, d_head) head arrays.

    Head-major and image-major: head n of image i is entry i*heads + n.  A
    view where numpy can make one (always without a batch), a copy otherwise.
    """
    *lead, L, d = rows.shape
    k = len(lead)
    t = rows.reshape(*lead, L, heads, d // heads).transpose(*range(k), k + 1, k, k + 2)
    return t.reshape(-1, *grid, d // heads)


def _to_rows(t: np.ndarray, lead: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`_to_heads`: heads side by side in each token row."""
    n, *grid, dh = t.shape
    heads = n // math.prod(lead)
    k = len(lead)
    rows = t.reshape(*lead, heads, math.prod(grid), dh).transpose(*range(k), k + 1, k, k + 2)
    return rows.reshape(*lead, math.prod(grid), heads * dh)


def _check_rows(op: str, q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int, tokens: int | None = None) -> None:
    if not (
        q.ndim in (2, 3) and q.shape == k.shape == v.shape and heads >= 1 and q.shape[-1] % heads == 0
        and tokens in (None, q.shape[-2])
    ):
        length = "" if tokens is None else f" and L = {tokens}"
        raise ShapeError(
            f"{op}: expected matching (L, d) or (B, L, d) token rows, {heads} heads dividing d{length}, "
            f"got {q.shape}, {k.shape} and {v.shape}"
        )


def _softmax_heads(x: np.ndarray, y: np.ndarray, z: np.ndarray, keep: bool):
    """softmax(x[n] . y[n]^T) . z[n] for every head n of (heads, L, c) arrays, and its vjp.

    The heads are taken one at a time so that each (L, L) map is still in
    cache when it multiplies z and, in the vjp, when it meets the incoming
    gradient.  Only the maps are kept for the vjp, and only when ``keep``:
    otherwise each map dies with its head.  Each head's scores are reported
    to the active score tracker.
    """
    maps, out = [], np.empty(z.shape)
    for n in range(x.shape[0]):
        scores = np.matmul(x[n], y[n].T)
        T.note_score_tensor(scores)
        p = _softmax(scores)
        out[n] = np.matmul(p, z[n])
        if keep:
            maps.append(p)

    def vjp(g: np.ndarray):
        dq, dk, dv = np.empty(x.shape), np.empty(y.shape), np.empty(z.shape)
        for n, p in enumerate(maps):
            dv[n] = np.matmul(p.T, g[n])
            ds = _softmax_grad(np.matmul(g[n], z[n].T), p)
            dq[n] = np.matmul(ds, y[n])
            dk[n] = np.matmul(ds.T, x[n])
        return (dq, dk, dv)

    return out, vjp


def softmax_attention(q: Var, k: Var, v: Var, heads: int) -> Var:
    """Standard attention of projected token rows: per head softmax(q k^T / sqrt(d_head)) v.

    ``q``, ``k`` and ``v`` are (L, d) or (B, L, d) token rows whose d
    columns hold ``heads`` heads side by side; the result has the same
    layout.  One graph node splits the heads, scales q, mixes each head
    with :func:`_softmax_heads` and merges the heads, and its vjp runs the
    same steps backwards.
    """
    _check_rows("softmax_attention", q.value.data, k.value.data, v.value.data, heads)
    lead, L = v.shape[:-2], v.shape[-2]
    scale_q = 1.0 / math.sqrt(v.shape[-1] // heads)
    # C-contiguous heads: a matmul on a strided view can round differently.
    x = np.ascontiguousarray(_to_heads(q.value.data, heads, (L,))) * scale_q
    y, z = (np.ascontiguousarray(_to_heads(t.value.data, heads, (L,))) for t in (k, v))
    out, heads_vjp = _softmax_heads(x, y, z, keep=_recording((q, k, v)))

    def vjp(g: np.ndarray):
        dq, dk, dv = heads_vjp(_to_heads(g, heads, (L,)))
        return (_to_rows(dq * scale_q, lead), _to_rows(dk, lead), _to_rows(dv, lead))

    return _node(_to_rows(out, lead), (q, k, v), vjp)


def _coupling_scores(q: np.ndarray, k: np.ndarray):
    """Row and column scores of (heads, h, w, d_head) grids, and their vjp.

    A[n] (heads, h, h) holds the dot products of grid rows of q[n] and
    k[n], scaled by 1/sqrt(w*d_head); B[n] (heads, w, w) those of grid
    columns, scaled by 1/sqrt(h*d_head).  The vjp maps the gradients of A
    and B to those of q and k.  Each operand is the C-contiguous copy that
    a separate permute node would make, so the products round exactly as
    the composed chain's do.  The vjp keeps only ``q`` and ``k`` and
    rebuilds the transposed copies from them.
    """
    heads, h, w, dh = q.shape
    scale_a, scale_b = 1.0 / math.sqrt(w * dh), 1.0 / math.sqrt(h * dh)

    def operands():
        qa = q.reshape(heads, h, w * dh)
        ka = np.ascontiguousarray(k.reshape(heads, h, w * dh).transpose(0, 2, 1))
        qb = np.ascontiguousarray(q.transpose(0, 2, 1, 3)).reshape(heads, w, h * dh)
        kb = np.ascontiguousarray(k.transpose(0, 1, 3, 2)).reshape(heads, h * dh, w)
        return qa, ka, qb, kb

    def vjp(ga: np.ndarray, gb: np.ndarray):
        qa, ka, qb, kb = operands()
        ga, gb = ga * scale_a, gb * scale_b
        dq = np.matmul(gb, kb.swapaxes(1, 2)).reshape(heads, w, h, dh).transpose(0, 2, 1, 3)
        dq = dq + np.matmul(ga, ka.swapaxes(1, 2)).reshape(q.shape)
        dk = np.matmul(qb.swapaxes(1, 2), gb).reshape(heads, h, dh, w).transpose(0, 1, 3, 2)
        dk = dk + np.matmul(qa.swapaxes(1, 2), ga).transpose(0, 2, 1).reshape(q.shape)
        return dq, dk

    qa, ka, qb, kb = operands()
    return np.matmul(qa, ka) * scale_a, np.matmul(qb, kb) * scale_b, vjp


def coupling_attention(q: Var, k: Var, v: Var, heads: int, h: int, w: int) -> Var:
    """Coupled attention of projected token rows over an h-by-w grid, one graph node.

    ``q``, ``k`` and ``v`` are (h*w, d) or (B, h*w, d) raster token rows
    whose d columns hold ``heads`` heads side by side.  Per head it forms
    the row scores A and column scores B (:func:`_coupling_scores`), applies
    softmax(A) (x) softmax(B) to v through Lemma 1 (the helper behind
    :func:`apply_factored_map`) and merges the heads back into rows.  Its
    vjp runs the same steps backwards; neither direction forms an (hw)^2
    map.  A and B are reported to the active score tracker.
    """
    _check_rows("coupling_attention", q.value.data, k.value.data, v.value.data, heads, h * w)
    lead = v.shape[:-2]
    qg, kg, vg = (np.ascontiguousarray(_to_heads(t.value.data, heads, (h, w))) for t in (q, k, v))
    a, b, scores_vjp = _coupling_scores(qg, kg)
    T.note_score_tensor(a)
    T.note_score_tensor(b)
    sa, sb = _softmax(a), _softmax(b)
    out, map_vjp = _factored_map(sa, sb, vg)

    def vjp(g: np.ndarray):
        da, db, dv = map_vjp(_to_heads(g, heads, (h, w)))
        dq, dk = scores_vjp(_softmax_grad(da, sa), _softmax_grad(db, sb))
        return (_to_rows(dq, lead), _to_rows(dk, lead), _to_rows(dv, lead))

    return _node(_to_rows(out, lead), (q, k, v), vjp)


def relu(x: Var) -> Var:
    """max(x, 0), called only as a link of :func:`conv_relu_pool`'s composed-chain oracle."""
    # Branch-free, and NaN stays NaN: np.where on a random-sign mask branches.
    out = np.maximum(x.value.data, 0.0)
    return _node(out, (x,), lambda g: (g * (out > 0),))


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Var) -> Var:
    arr = x.value.data
    cdf = 0.5 * (1.0 + erf(arr * _INV_SQRT2))
    out = arr * cdf

    def vjp(g: np.ndarray):
        pdf = np.exp(-0.5 * arr * arr) * _INV_SQRT_2PI
        return (g * (cdf + arr * pdf),)

    return _node(out, (x,), vjp)


def layernorm(x: Var, gamma: Var, beta: Var, eps: float = 1e-5) -> Var:
    arr = x.value.data
    gval, bval = gamma.value.data, beta.value.data
    d = arr.shape[-1]
    if gval.shape != (d,) or bval.shape != (d,):
        raise ShapeError(
            f"layernorm: scale/offset must have shape ({d},), got {gval.shape}/{bval.shape}"
        )
    mean = arr.mean(axis=-1, keepdims=True)
    centered = arr - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = gval * xhat + bval

    def vjp(g: np.ndarray):
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=lead) if lead else g * xhat
        dbeta = g.sum(axis=lead) if lead else g
        dxhat = g * gval
        dx = inv_std * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return (dx, dgamma, dbeta)

    return _node(out, (x, gamma, beta), vjp)


def _check_images(op: str, arr: np.ndarray) -> None:
    if arr.ndim not in (3, 4):
        raise ShapeError(f"{op}: expected (C,H,W) or (B,C,H,W), got {arr.shape}")


def _windows(offset: int, stride: int, count: int) -> slice:
    """The ``count`` strided positions a window offset reads along one axis."""
    return slice(offset, offset + stride * count, stride)


def _channel_major(arr: np.ndarray) -> np.ndarray:
    """View (C, H, W) or (B, C, H, W) images as a (C, B, H, W) array."""
    return arr.reshape(-1, *arr.shape[-3:]).transpose(1, 0, 2, 3)


def _im2col(images: np.ndarray, kernel: int, stride: int, padding: int, h_out: int, w_out: int) -> np.ndarray:
    """The (C*k*k, B*h_out*w_out) im2col columns of (C, B, H, W) images, zero-padded.

    Channel-major: each window offset is one strided copy into the columns.
    """
    c, n, h, w = images.shape
    padded = np.zeros((c, n, h + 2 * padding, w + 2 * padding))
    padded[:, :, padding : padding + h, padding : padding + w] = images
    cols = np.empty((c, kernel, kernel, n, h_out, w_out))
    for dy in range(kernel):
        for dx in range(kernel):
            cols[:, dy, dx] = padded[:, :, _windows(dy, stride, h_out), _windows(dx, stride, w_out)]
    return cols.reshape(c * kernel * kernel, n * h_out * w_out)


def _col2im(grad_cols: np.ndarray, shape, kernel: int, stride: int, padding: int, h_out: int, w_out: int) -> np.ndarray:
    """Adjoint of :func:`_im2col`: add column gradients back onto (C, B, H, W) images of ``shape``."""
    c, n, h, w = shape
    grad_cols = grad_cols.reshape(c, kernel, kernel, n, h_out, w_out)
    grad_padded = np.zeros((c, n, h + 2 * padding, w + 2 * padding))
    for dy in range(kernel):
        for dx in range(kernel):
            grad_padded[:, :, _windows(dy, stride, h_out), _windows(dx, stride, w_out)] += grad_cols[:, dy, dx]
    return grad_padded[:, :, padding : padding + h, padding : padding + w]


def _conv(op: str, x: Var, weight: Var, bias: Var | None, stride: int, padding: int | None):
    """Validate a convolution and run it as one GEMM over the whole batch's im2col columns.

    Returns the (O, B, h_out, w_out) channel-major output, the bias added in
    place, the node's parents and its vjp.  The vjp takes the output gradient as an
    (O, B*h_out*w_out) array and rebuilds the columns from ``x`` instead of
    keeping them: it holds nothing that ``x`` and ``weight`` do not, and
    reads no ``Var`` (one would keep its value alive), only flags and shapes.
    """
    arr, w = x.value.data, weight.value.data
    _check_images(op, arr)
    if w.ndim != 4:
        raise ShapeError(f"{op}: expected an (O,C,k,k) kernel, got {w.shape}")
    out_ch, in_ch, kernel, kernel2 = w.shape
    if kernel != kernel2:
        raise ShapeError(f"{op}: non-square kernel {w.shape}")
    images = _channel_major(arr)  # one image is a batch of one
    c, n, h, wth = images.shape
    if in_ch != c:
        raise ShapeError(f"{op}: channel mismatch, input {c} vs kernel {in_ch}")
    if padding is None:
        padding = kernel // 2
    stride = int(stride)
    h_out = (h + 2 * padding - kernel) // stride + 1
    w_out = (wth + 2 * padding - kernel) // stride + 1
    if h_out <= 0 or w_out <= 0:
        raise ShapeError(f"{op}: output collapses to {h_out}x{w_out} for input {arr.shape}")
    if bias is not None and bias.value.shape != (out_ch,):
        raise ShapeError(f"{op}: bias shape {bias.value.shape} != ({out_ch},)")

    flat_w = w.reshape(out_ch, c * kernel * kernel)
    out = (flat_w @ _im2col(images, kernel, stride, padding, h_out, w_out)).reshape(out_ch, n, h_out, w_out)
    if bias is not None:
        out += bias.value.data[:, None, None, None]
    x_shape, grad_x_needed, has_bias = arr.shape, x.requires_grad, bias is not None

    def vjp(g: np.ndarray):
        cols = _im2col(images, kernel, stride, padding, h_out, w_out)
        grads = [None, (g @ cols.T).reshape(w.shape)]
        del cols  # before the input's gradient: the two never need to be live together
        if grad_x_needed:  # never for the image itself
            grad_x = _col2im(flat_w.T @ g, images.shape, kernel, stride, padding, h_out, w_out)
            grads[0] = grad_x.transpose(1, 0, 2, 3).reshape(x_shape)
        if has_bias:
            # Each image's sum, then the images in sequence: the (B, O) column sum's order.
            per_image = g.reshape(out_ch, n, h_out * w_out).sum(axis=2)
            grads.append(np.ascontiguousarray(per_image.T).sum(axis=0))
        return grads

    return out, ((x, weight) if bias is None else (x, weight, bias)), vjp


def _from_channel_major(arr: np.ndarray, like: np.ndarray) -> np.ndarray:
    """(C, B, H, W) back to the (C, H, W) or (B, C, H, W) layout of ``like``."""
    return arr.transpose(1, 0, 2, 3).reshape(*like.shape[:-3], *arr.shape[:1], *arr.shape[2:])


def conv2d(x: Var, weight: Var, bias: Var | None = None, stride: int = 1, padding: int | None = None) -> Var:
    """2-D convolution of (C, H, W) or (B, C, H, W) by weight (O, C, k, k).

    The im2col columns of the whole batch are laid side by side, so the
    forward and each half of the vjp are one GEMM whatever the batch size.
    Nothing in the package calls it: it is a link of the composed chain that
    pins :func:`conv_relu_pool` bit for bit.
    """
    out, parents, conv_vjp = _conv("conv2d", x, weight, bias, stride, padding)
    rows = out.shape[0]
    return _node(
        _from_channel_major(out, x.value.data), parents, lambda g: conv_vjp(_channel_major(g).reshape(rows, -1))
    )


def _pool(op: str, arr: np.ndarray, kernel: int, stride: int, padding: int, record: bool):
    """Max pool over the last two axes, and each output's first-maximum window offset.

    The forward keeps a running maximum over the strided window offsets,
    first across columns, then across rows.  The offset, one byte per
    output, names the first cell of the window in (dy, dx) order that
    equals the maximum; it is computed only when ``record`` (else None).
    """
    h, w = arr.shape[-2:]
    h_out = (h + 2 * padding - kernel) // stride + 1
    w_out = (w + 2 * padding - kernel) // stride + 1
    if h_out <= 0 or w_out <= 0:
        raise ShapeError(f"{op}: output collapses to {h_out}x{w_out} for input {arr.shape}")
    if kernel * kernel > 256:
        raise ShapeError(f"{op}: a {kernel}x{kernel} window has more offsets than a byte indexes")
    padded = np.full((*arr.shape[:-2], h + 2 * padding, w + 2 * padding), -np.inf)
    padded[..., padding : padding + h, padding : padding + w] = arr
    # np.maximum keeps its second operand on a tie, so the running maximum
    # stays the first in (dy, dx) order, down to the sign of a zero.
    across = padded[..., _windows(0, stride, w_out)].copy()
    for dx in range(1, kernel):
        np.maximum(padded[..., _windows(dx, stride, w_out)], across, out=across)
    out = across[..., _windows(0, stride, h_out), :].copy()
    for dy in range(1, kernel):
        np.maximum(across[..., _windows(dy, stride, h_out), :], out, out=out)
    if not record:
        return out, None
    # The first maximum's offset counts the leading offsets whose cell differs from it.
    first = np.zeros(out.shape, dtype=np.uint8)
    pending = np.ones(out.shape, dtype=bool)
    for offset in range(kernel * kernel - 1):
        dy, dx = divmod(offset, kernel)
        pending &= padded[..., _windows(dy, stride, h_out), _windows(dx, stride, w_out)] != out
        first += pending
    return out, first


def _pool_scatter(g: np.ndarray, first: np.ndarray, shape, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Gradient of a max pool's input of ``shape``: each output's ``g`` to its first maximum."""
    *lead, h, w = shape
    hp, wp = h + 2 * padding, w + 2 * padding
    h_out, w_out = first.shape[-2:]
    corner = (  # flat padded index of each window's first cell
        np.arange(math.prod(lead))[:, None, None] * (hp * wp)
        + np.arange(h_out)[:, None] * (stride * wp)
        + np.arange(w_out) * stride
    )
    at_offset = np.add.outer(np.arange(kernel) * wp, np.arange(kernel)).reshape(-1)
    cells = (corner + at_offset[first.reshape(corner.shape)]).reshape(-1)
    # Outputs in reverse raster order add to each cell in (dy, dx) order,
    # the order of a scatter pass per offset.
    grad = np.bincount(cells[::-1], weights=g.reshape(-1)[::-1], minlength=math.prod(lead) * hp * wp)
    return grad.reshape(*lead, hp, wp)[..., padding : padding + h, padding : padding + w]


def maxpool2d(x: Var, kernel: int = 3, stride: int = 2, padding: int = 1) -> Var:
    """Max pooling of (C, H, W) or (B, C, H, W) over its last two axes; padded cells hold -inf.

    Each output's gradient goes to the first cell of its window in (dy, dx)
    order that equals it, so ties are broken the same way every time.  When
    a graph is recorded, the forward stores that cell's window offset, one
    byte per output, and the vjp is one scatter (:func:`_pool_scatter`).
    Nothing in the package calls it: it is a link of the composed chain that
    pins :func:`conv_relu_pool` bit for bit.
    """
    arr = x.value.data
    _check_images("maxpool2d", arr)
    out, first = _pool("maxpool2d", arr, kernel, stride, padding, _recording((x,)))
    shape = arr.shape
    return _node(out, (x,), lambda g: (_pool_scatter(g, first, shape, kernel, stride, padding),))


def conv_relu_pool(x: Var, weight: Var, bias: Var | None = None, pool: bool = True) -> Var:
    """One conv stem stage as one graph node: :func:`conv2d`, ReLU, then (``pool``) a 3x3/2 max pool.

    The convolution has stride 1 and same padding (``k // 2``).  Bit for bit
    the chain ``conv2d(x, weight, bias)`` -> :func:`relu` ->
    ``maxpool2d(x, 3, 2, 1)``, forward and vjp.  The forward is one im2col
    GEMM, the bias and the ReLU applied in place, and the running-max pool
    on the GEMM's (O, B, H, W) layout.  The node keeps its output and, with
    ``pool``, the first-maximum offset bytes, nothing more: its vjp masks the
    output gradient by output > 0 (a window's chosen cell is positive
    exactly when its maximum is), scatters it to the chosen cells, and
    rebuilds the im2col columns from ``x`` for the two GEMMs.
    """
    conv, parents, conv_vjp = _conv("conv_relu_pool", x, weight, bias, 1, None)
    np.maximum(conv, 0.0, out=conv)
    full_shape = conv.shape
    first = None
    if pool:
        conv, first = _pool("conv_relu_pool", conv, 3, 2, 1, _recording(parents))
    out = np.ascontiguousarray(_from_channel_major(conv, x.value.data))

    def vjp(g: np.ndarray):
        g = _channel_major(g * (out > 0))
        if pool:
            g = _pool_scatter(g, first, full_shape, 3, 2, 1)
        return conv_vjp(g.reshape(full_shape[0], -1))

    return _node(out, parents, vjp)


def sum_all(x: Var) -> Var:
    arr = x.value.data
    shape = arr.shape
    return _node(arr.sum(), (x,), lambda g: (np.broadcast_to(g, shape).copy(),))


def cross_entropy(logits: Var, target) -> Var:
    """Negative log likelihood of the target classes under softmax of the logits.

    1-D logits take one integer ``target``; (B, classes) logits take B
    integer targets and give the mean of their B losses.
    """
    z = logits.value.data
    if z.ndim == 1:
        targets = np.array([int(target)])
    elif z.ndim == 2:
        targets = np.asarray(target)
        if targets.shape != z.shape[:1] or not targets.size or targets.dtype.kind not in "iu":
            raise ShapeError(f"cross_entropy: {z.shape} logits need {z.shape[0]} integer targets, at least one")
    else:
        raise ShapeError(f"cross_entropy: expected 1-D or (B, classes) logits, got {z.shape}")
    classes = z.shape[-1]
    if not (targets.min() >= 0 and targets.max() < classes):
        bad = targets[(targets < 0) | (targets >= classes)][0]
        raise ValueError(f"cross_entropy: target {bad} out of range for {classes} classes")
    rows = z.reshape(-1, classes)
    n = rows.shape[0]
    m = rows.max(axis=1)
    sums = np.exp(rows - m[:, None]).sum(axis=1)
    lse = m + [math.log(s) for s in sums]  # libm per row: a batch of one matches the 1-D call
    picked = np.arange(n), targets
    loss = (lse - rows[picked]).sum() / n

    def vjp(g: np.ndarray):
        p = np.exp(rows - lse[:, None])
        p[picked] -= 1.0
        return (((float(g) / n) * p).reshape(z.shape),)

    return _node(loss, (logits,), vjp)


def kron(a: Var, b: Var) -> Var:
    """Kronecker product: block matrix with block (i, j) equal to a[i, j] * b.

    Element law: out[i, j] == a[i // p, j // q] * b[i % p, j % q] for
    a of shape (m, n), b of shape (p, q).  Like :func:`matmul`, 3-D operands
    with equal leading extent give one product per batch entry.
    """
    x, y = a.value.data, b.value.data
    batched = x.ndim == 3 and y.ndim == 3 and x.shape[0] == y.shape[0]
    if not (x.ndim == 2 and y.ndim == 2) and not batched:
        raise ShapeError(f"kron: expected 2-D or batched 3-D operands, got {x.shape} and {y.shape}")
    *lead, m, n = x.shape
    p, q = y.shape[-2:]
    out = (x[..., :, None, :, None] * y[..., None, :, None, :]).reshape(*lead, m * p, n * q)

    def vjp(g: np.ndarray):
        blocks = g.reshape(*lead, m, p, n, q)
        return (
            np.einsum("...arbs,...rs->...ab", blocks, y),
            np.einsum("...arbs,...ab->...rs", blocks, x),
        )

    return _node(out, (a, b), vjp)


def _factored_map(a: np.ndarray, b: np.ndarray, v: np.ndarray):
    """Lemma 1 on arrays: a[n] . X . b[n]^T for every channel grid X of head n, and its vjp.

    ``a`` (heads, h, h), ``b`` (heads, w, w), ``v`` (heads, h, w, c).  The
    package's one implementation of the identity, behind both
    :func:`apply_factored_map` and :func:`coupling_attention`.  Forward and
    vjp are batched matmuls over h-by-h and w-by-w factors; the vjp takes
    the output gradient and returns those of a, b and v.
    """
    heads, h, w, c = v.shape
    rows = (heads, h, w * c)  # channel grids side by side: a acts on the left
    left = np.matmul(a, v.reshape(rows)).reshape(v.shape)  # a . X
    out = np.matmul(b[:, None], left)  # (a . X) . b^T, one (w, c) slab per grid row

    def vjp(g: np.ndarray):
        gb = np.matmul(b.swapaxes(1, 2)[:, None], g).reshape(rows)  # G . b
        da = np.matmul(gb, v.reshape(rows).swapaxes(1, 2))
        # db[i, j] sums G[y, i, c] * (a . X)[y, j, c] over grid rows y and channels c.
        db = np.matmul(
            g.transpose(0, 2, 1, 3).reshape(heads, w, h * c),
            left.transpose(0, 1, 3, 2).reshape(heads, h * c, w),
        )
        dv = np.matmul(a.swapaxes(1, 2), gb).reshape(v.shape)
        return (da, db, dv)

    return out, vjp


def apply_factored_map(a: Var, b: Var, v: Var) -> Var:
    """Apply ``a[n] (x) b[n]`` to every channel of grid tokens, never forming it.

    ``a`` is (heads, h, h), ``b`` is (heads, w, w) and ``v`` is
    (heads, h, w, c).  Each head's channel grid X (h by w) becomes
    a[n] . X . b[n]^T, which by the row-vectorization identity is
    (a[n] (x) b[n]) . row(X); :func:`_factored_map` computes it.
    """
    x, y, z = a.value.data, b.value.data, v.value.data
    heads, h, w, c = z.shape if z.ndim == 4 else (-1,) * 4
    if x.shape != (heads, h, h) or y.shape != (heads, w, w):
        raise ShapeError(
            f"apply_factored_map: expected (heads, h, h), (heads, w, w) and (heads, h, w, c), "
            f"got {x.shape}, {y.shape} and {z.shape}"
        )
    out, vjp = _factored_map(x, y, z)
    return _node(out, (a, b, v), vjp)


# --------------------------------------------------------------------------
# Finite-difference oracle.
# --------------------------------------------------------------------------


def fd_check(f: Callable[[Var], Var], x, eps: float = 1e-5) -> float:
    """Max relative error between the recorded gradient and central differences.

    ``f`` must be a pure scalar-valued function of its argument, given as a
    ``Var``, ``Tensor``, or array; the error at each coordinate is
    |analytic - central| / (|central| + 1e-12), and the maximum over
    coordinates is returned.  Weight a tensor output by a fixed random probe
    before summing: a plain sum hides a vjp that permutes equal gradient entries.
    """
    if isinstance(x, Var):
        x = x.value
    elif not isinstance(x, Tensor):
        x = Tensor(x)
    probe = Var(x, requires_grad=True)
    out = f(probe)
    if out.value.size != 1:
        raise GraphError(f"fd_check: f must return a scalar, got shape {out.value.shape}")
    if not math.isfinite(out.item()):
        raise NonFiniteError("fd_check: f(x) is not finite")
    backward(out)
    analytic = (
        np.zeros_like(x.data) if probe._grad is None else probe._grad.reshape(x.shape)
    )

    base = np.array(x.data)
    flat = base.reshape(-1)
    numeric = np.empty_like(flat)
    with no_grad():
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            hi = f(Var(Tensor._wrap(base.copy()))).item()
            flat[i] = saved - eps
            lo = f(Var(Tensor._wrap(base.copy()))).item()
            flat[i] = saved
            numeric[i] = (hi - lo) / (2.0 * eps)
    numeric = numeric.reshape(x.shape)
    return float(np.max(np.abs(analytic - numeric) / (np.abs(numeric) + 1e-12)))
