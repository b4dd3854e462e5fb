"""Reverse-mode automatic differentiation over tensor operations.

A :class:`Var` wraps a :class:`~couplformer.tensor.Tensor` value together with
a gradient slot and, for non-leaf nodes, the recorded parents and a
vector-Jacobian callback.  The recorded graph is a DAG; :func:`backward`
visits each node exactly once in reverse topological order and accumulates
gradients additively into every parent that requires them.

Each op is the one home of its forward: it validates its operand shapes,
raising :class:`~couplformer.tensor.ShapeError` on mismatch (nothing
broadcasts implicitly), computes the value on the raw arrays and hands it to
:func:`_node`, which wraps it once.  Ops on :func:`constant` operands serve
as the plain-tensor kernels.  :func:`apply_factored_map` is the package's one
implementation of the Kronecker identity (A (x) B) . row(X) = row(A . X . B^T),
the paper's Lemma 1.  :func:`fd_check` is the central-difference oracle of
the ``grad`` suite in :mod:`couplformer.verify`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
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
    "relu",
    "gelu",
    "add_bias_rows",
    "layernorm",
    "conv2d",
    "maxpool2d",
    "sum_all",
    "cross_entropy",
    "kron",
    "apply_factored_map",
]


class GraphError(RuntimeError):
    """Misuse of the recorded graph (non-scalar backward, repeated backward)."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block; ops return detached leaves."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


class Var:
    """Autograd-tracked tensor node."""

    __slots__ = ("value", "requires_grad", "_grad", "_parents", "_vjp", "_done")

    def __init__(self, value, requires_grad: bool = False) -> None:
        self.value = value if isinstance(value, Tensor) else Tensor(value)
        self.requires_grad = bool(requires_grad)
        self._grad: np.ndarray | None = None
        self._parents: tuple[Var, ...] = ()
        self._vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None
        self._done = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def grad(self) -> Tensor | None:
        return None if self._grad is None else Tensor._wrap(self._grad)

    def clear_grad(self) -> None:
        self._grad = None
        self._done = False

    def item(self) -> float:
        return self.value.item()

    def assign(self, value: Tensor) -> None:
        """Replace the value of a leaf in place (optimizer updates)."""
        if self._parents:
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


def _node(out: np.ndarray, parents: tuple[Var, ...], vjp) -> Var:
    """Wrap a freshly computed forward value; record the graph edge if needed."""
    value = Tensor._wrap(out)
    if _grad_enabled and any(p.requires_grad for p in parents):
        node = Var(value, requires_grad=True)
        node._parents = parents
        node._vjp = vjp
        return node
    return Var(value, requires_grad=False)


def backward(loss: Var) -> None:
    """Accumulate d(loss)/d(node) into every reachable node that requires it."""
    if loss.value.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    if loss._done:
        raise GraphError("backward already ran for this node; rebuild the graph first")
    if not loss.requires_grad:
        loss._done = True
        return

    # Iterative post-order DFS; graphs can be deep for large batches.
    topo: list[Var] = []
    state: dict[int, int] = {}
    stack: list[Var] = [loss]
    while stack:
        node = stack[-1]
        key = id(node)
        if state.get(key, 0) == 0:
            state[key] = 1
            for parent in node._parents:
                if state.get(id(parent), 0) == 0 and parent.requires_grad:
                    stack.append(parent)
        else:
            stack.pop()
            if state[key] == 1:
                state[key] = 2
                topo.append(node)

    loss._grad = np.ones_like(loss.value.data)
    for node in reversed(topo):
        if node._vjp is None or node._grad is None:
            continue
        # An intermediate gradient is dead once passed on; only leaves keep theirs.
        grad, node._grad = node._grad, None
        for parent, contrib in zip(node._parents, node._vjp(grad)):
            if contrib is None or not parent.requires_grad:
                continue
            if parent._grad is None:
                # No copy: no vjp writes into its incoming gradient, and sums are out of place.
                parent._grad = np.asarray(contrib, dtype=np.float64)
            else:
                parent._grad = parent._grad + contrib
    loss._done = True


# --------------------------------------------------------------------------
# Differentiable wrappers.
# --------------------------------------------------------------------------


def add(a: Var, b: Var) -> Var:
    x, y = a.value.data, b.value.data
    if x.shape != y.shape:
        raise ShapeError(f"add: shapes disagree, {x.shape} vs {y.shape}")
    return _node(x + y, (a, b), lambda g: (g, g))


def mul(a: Var, b: Var) -> Var:
    x, y = a.value.data, b.value.data
    if x.shape != y.shape:
        raise ShapeError(f"mul: shapes disagree, {x.shape} vs {y.shape}")
    return _node(x * y, (a, b), lambda g: (g * y, g * x))


def scale(x: Var, c: float) -> Var:
    c = float(c)
    return _node(x.value.data * c, (x,), lambda g: (g * c,))


def matmul(a: Var, b: Var) -> Var:
    """Matrix product, 2-D by 2-D; or batched 3-D by 3-D with equal batch extent."""
    x, y = a.value.data, b.value.data
    if x.ndim == 2 and y.ndim == 2:
        if x.shape[1] != y.shape[0]:
            raise ShapeError(f"matmul: inner dims disagree, {x.shape} @ {y.shape}")
    elif x.ndim == 3 and y.ndim == 3:
        if x.shape[0] != y.shape[0]:
            raise ShapeError(f"matmul: batch extents disagree, {x.shape} @ {y.shape}")
        if x.shape[2] != y.shape[1]:
            raise ShapeError(f"matmul: inner dims disagree, {x.shape} @ {y.shape}")
    else:
        raise ShapeError(f"matmul: expected 2-D or batched 3-D operands, got {x.shape} @ {y.shape}")

    def vjp(g: np.ndarray):
        return (
            np.matmul(g, y.swapaxes(-1, -2)),
            np.matmul(x.swapaxes(-1, -2), g),
        )

    return _node(np.matmul(x, y), (a, b), vjp)


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


def softmax_attention(q: Var, k: Var, v: Var) -> Var:
    """softmax(q[n] . k[n]^T) . v[n] for every head n of (heads, L, c) operands.

    The heads are taken one at a time so that each (L, L) map is still in
    cache when it multiplies v and, in the vjp, when it meets the incoming
    gradient; only the maps are kept for the vjp.  Each head's scores are
    reported to the active score tracker.
    """
    x, y, z = q.value.data, k.value.data, v.value.data
    if x.ndim != 3 or y.shape != x.shape or z.ndim != 3 or z.shape[:2] != x.shape[:2]:
        raise ShapeError(
            f"softmax_attention: expected (heads, L, c) operands, got {x.shape}, {y.shape} and {z.shape}"
        )
    maps, out = [], np.empty(z.shape)
    for n in range(x.shape[0]):
        scores = np.matmul(x[n], y[n].T)
        T.note_score_tensor(scores)
        maps.append(_softmax(scores))
        out[n] = np.matmul(maps[n], z[n])

    def vjp(g: np.ndarray):
        dq, dk, dv = np.empty(x.shape), np.empty(y.shape), np.empty(z.shape)
        for n, p in enumerate(maps):
            dv[n] = np.matmul(p.T, g[n])
            ds = _softmax_grad(np.matmul(g[n], z[n].T), p)
            dq[n] = np.matmul(ds, y[n])
            dk[n] = np.matmul(ds.T, x[n])
        return (dq, dk, dv)

    return _node(out, (q, k, v), vjp)


def relu(x: Var) -> Var:
    arr = x.value.data
    mask = arr > 0
    return _node(np.where(mask, arr, 0.0), (x,), lambda g: (g * mask,))


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


def _im2col(padded: np.ndarray, kernel: int, stride: int, h_out: int, w_out: int) -> np.ndarray:
    c = padded.shape[0]
    cols = np.empty((c, kernel, kernel, h_out, w_out))
    for dy in range(kernel):
        for dx in range(kernel):
            cols[:, dy, dx] = padded[:, dy : dy + stride * h_out : stride, dx : dx + stride * w_out : stride]
    return cols


def conv2d(x: Var, weight: Var, bias: Var | None = None, stride: int = 1, padding: int | None = None) -> Var:
    """2-D convolution on one sample: x is (C, H, W), weight is (O, C, k, k)."""
    arr = x.value.data
    w = weight.value.data
    if arr.ndim != 3 or w.ndim != 4:
        raise ShapeError(f"conv2d: expected (C,H,W) and (O,C,k,k), got {arr.shape} and {w.shape}")
    out_ch, in_ch, kernel, kernel2 = w.shape
    if kernel != kernel2:
        raise ShapeError(f"conv2d: non-square kernel {w.shape}")
    if in_ch != arr.shape[0]:
        raise ShapeError(f"conv2d: channel mismatch, input {arr.shape[0]} vs kernel {in_ch}")
    if padding is None:
        padding = kernel // 2
    stride = int(stride)
    c, h, wth = arr.shape
    h_out = (h + 2 * padding - kernel) // stride + 1
    w_out = (wth + 2 * padding - kernel) // stride + 1
    if h_out <= 0 or w_out <= 0:
        raise ShapeError(f"conv2d: output collapses to {h_out}x{w_out} for input {arr.shape}")

    padded = np.pad(arr, ((0, 0), (padding, padding), (padding, padding)))
    cols = _im2col(padded, kernel, stride, h_out, w_out)
    flat_cols = cols.reshape(c * kernel * kernel, h_out * w_out)
    flat_w = w.reshape(out_ch, c * kernel * kernel)
    out = (flat_w @ flat_cols).reshape(out_ch, h_out, w_out)

    bval = None
    if bias is not None:
        bval = bias.value.data
        if bval.shape != (out_ch,):
            raise ShapeError(f"conv2d: bias shape {bval.shape} != ({out_ch},)")
        out = out + bval[:, None, None]

    def vjp(g: np.ndarray):
        gflat = g.reshape(out_ch, h_out * w_out)
        grad_w = (gflat @ flat_cols.T).reshape(w.shape)
        grad_cols = (flat_w.T @ gflat).reshape(c, kernel, kernel, h_out, w_out)
        grad_padded = np.zeros_like(padded)
        for dy in range(kernel):
            for dx in range(kernel):
                grad_padded[:, dy : dy + stride * h_out : stride, dx : dx + stride * w_out : stride] += grad_cols[:, dy, dx]
        grad_x = grad_padded[:, padding : padding + h, padding : padding + wth]
        if bias is None:
            return (grad_x, grad_w)
        return (grad_x, grad_w, g.sum(axis=(1, 2)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _node(out, parents, vjp)


def maxpool2d(x: Var, kernel: int = 3, stride: int = 2, padding: int = 1) -> Var:
    """Max pooling on one sample (C, H, W); padded cells hold -inf."""
    arr = x.value.data
    if arr.ndim != 3:
        raise ShapeError(f"maxpool2d: expected (C,H,W), got {arr.shape}")
    c, h, w = arr.shape
    h_out = (h + 2 * padding - kernel) // stride + 1
    w_out = (w + 2 * padding - kernel) // stride + 1
    if h_out <= 0 or w_out <= 0:
        raise ShapeError(f"maxpool2d: output collapses to {h_out}x{w_out} for input {arr.shape}")
    padded = np.full((c, h + 2 * padding, w + 2 * padding), -np.inf)
    padded[:, padding : padding + h, padding : padding + w] = arr
    windows = np.stack(
        [
            padded[:, dy : dy + stride * h_out : stride, dx : dx + stride * w_out : stride]
            for dy in range(kernel)
            for dx in range(kernel)
        ]
    )
    choice = windows.argmax(axis=0)  # first max wins: deterministic tie-break
    out = np.take_along_axis(windows, choice[None], axis=0)[0]

    def vjp(g: np.ndarray):
        grad_padded = np.zeros_like(padded)
        for j in range(kernel * kernel):
            dy, dx = divmod(j, kernel)
            view = grad_padded[:, dy : dy + stride * h_out : stride, dx : dx + stride * w_out : stride]
            view += g * (choice == j)
        return (grad_padded[:, padding : padding + h, padding : padding + w],)

    return _node(out, (x,), vjp)


def add_bias_rows(x: Var, bias: Var) -> Var:
    """Add a 1-D bias vector to every row of a 2-D operand."""
    arr, b = x.value.data, bias.value.data
    if arr.ndim != 2 or b.shape != (arr.shape[1],):
        raise ShapeError(f"add_bias_rows: shapes disagree, {arr.shape} and {b.shape}")
    return _node(arr + b, (x, bias), lambda g: (g, g.sum(axis=0)))


def sum_all(x: Var) -> Var:
    arr = x.value.data
    shape = arr.shape
    return _node(arr.sum(), (x,), lambda g: (np.broadcast_to(g, shape).copy(),))


def cross_entropy(logits: Var, target: int) -> Var:
    """Negative log likelihood of class ``target`` under softmax of 1-D logits."""
    z = logits.value.data
    if z.ndim != 1:
        raise ShapeError(f"cross_entropy: expected 1-D logits, got {z.shape}")
    target = int(target)
    if not 0 <= target < z.shape[0]:
        raise ValueError(f"cross_entropy: target {target} out of range for {z.shape[0]} classes")
    m = z.max()
    shifted = z - m
    lse = m + math.log(np.exp(shifted).sum())
    loss = lse - z[target]

    def vjp(g: np.ndarray):
        p = np.exp(z - lse)
        p[target] -= 1.0
        return (float(g) * p,)

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


def apply_factored_map(a: Var, b: Var, v: Var) -> Var:
    """Apply ``a[n] (x) b[n]`` to every channel of grid tokens, never forming it.

    ``a`` is (heads, h, h), ``b`` is (heads, w, w) and ``v`` is
    (heads, h, w, c).  Each head's channel grid X (h by w) becomes
    a[n] . X . b[n]^T, which by the row-vectorization identity is
    (a[n] (x) b[n]) . row(X).  Forward and vjp are batched matmuls over
    h-by-h and w-by-w factors; the (hw)^2 map exists in neither.
    """
    x, y, z = a.value.data, b.value.data, v.value.data
    heads, h, w, c = z.shape if z.ndim == 4 else (-1,) * 4
    if x.shape != (heads, h, h) or y.shape != (heads, w, w):
        raise ShapeError(
            f"apply_factored_map: expected (heads, h, h), (heads, w, w) and (heads, h, w, c), "
            f"got {x.shape}, {y.shape} and {z.shape}"
        )
    rows = (heads, h, w * c)  # channel grids side by side: a acts on the left
    left = np.matmul(x, z.reshape(rows)).reshape(z.shape)  # a . X
    out = np.matmul(y[:, None], left)  # (a . X) . b^T, one (w, c) slab per grid row

    def vjp(g: np.ndarray):
        gb = np.matmul(y.swapaxes(1, 2)[:, None], g).reshape(rows)  # G . b
        da = np.matmul(gb, z.reshape(rows).swapaxes(1, 2))
        # db[i, j] sums G[y, i, c] * (a . X)[y, j, c] over grid rows y and channels c.
        db = np.matmul(
            g.transpose(0, 2, 1, 3).reshape(heads, w, h * c),
            left.transpose(0, 1, 3, 2).reshape(heads, h * c, w),
        )
        dv = np.matmul(x.swapaxes(1, 2), gb).reshape(z.shape)
        return (da, db, dv)

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
