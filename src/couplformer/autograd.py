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
image (C, H, W) or a batch (B, C, H, W) and have one geometry, the CCT
tokenizer's: :func:`conv2d` is a 3x3 stride-1 convolution padded to keep H
and W, one GEMM over the whole batch's im2col columns, and
:func:`maxpool2d` a 3x3 max pool with stride 2 and padding 1
(:func:`pooled_size`).  :func:`cross_entropy` takes (B, classes) logits with
B integer targets and returns their mean.  :func:`conv_relu_pool` is a
whole conv stem stage (convolution, ReLU, pool) in one node that
keeps only its output and the pool's one-byte choices; it shares its
im2col, scatter and pool steps with :func:`conv2d` and :func:`maxpool2d`,
and its vjp recomputes the im2col columns.  ReLU is ``np.maximum(x, 0)``:
branch-free, and a NaN stays NaN.
Whether ops record a graph (:func:`no_grad`) is per thread, and so is
the worker scope (:func:`workers`) that an op may deal independent pieces
of its work to: :func:`softmax_attention` deals each head's rows in two
fixed halves, forward and vjp, and keeps the whole map's bits.
Each pre-norm sublayer of the encoder is one op on (L, d) or (B, L, d)
token rows (:func:`_pre_norm`): :func:`softmax_attention` and
:func:`coupling_attention` layer-norm the rows, project, split the heads,
score, softmax, apply the map, merge the heads and project out inside one
forward and one hand-written vjp, and :func:`feedforward` is the norm and
gelu(x . w1 + b1) . w2 + b2.  Each keeps the norm's x-hat and 1/sigma, not
the normalized rows, which its vjp rebuilds; the mixes keep the softmax
maps (the coupled mix its two factors) and rebuild q, k and v with the
forward's own GEMMs, the coupled vjp also a . X and from it the merged
rows, and the FFN keeps the pre-activation and gelu's Phi and rebuilds
gelu's output.  What a vjp rebuilds is one op of the forward, rerun on the
same arrays, so each fused op is bit for bit the chain of separate ops it
replaces; :func:`gelu`, :func:`relu`, :func:`conv2d` and :func:`maxpool2d`
remain as links of those chains.  :func:`_factored_map`, behind both
:func:`coupling_attention` and :func:`apply_factored_map`, is the package's
one implementation of the Kronecker identity
(A (x) B) . row(X) = row(A . X . B^T), the paper's Lemma 1.
:func:`fd_check` is the central-difference oracle of the ``grad``
suite in :mod:`couplformer.verify`.
"""

from __future__ import annotations

import math
import os
import queue
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from functools import partial
from typing import Callable, Sequence

import numpy as np
from numpy.lib.array_utils import byte_bounds
from scipy.special import erf

from . import tensor as T
from .tensor import NonFiniteError, ShapeError, Tensor

__all__ = [
    "Var",
    "GraphError",
    "backward",
    "fd_check",
    "no_grad",
    "Workers",
    "workers",
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
    "feedforward",
    "layernorm",
    "conv2d",
    "maxpool2d",
    "pooled_size",
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


# --------------------------------------------------------------------------
# Worker threads.
# --------------------------------------------------------------------------


def _await_thread_exit(native_ids) -> None:
    """Return once the OS has ended each of these threads of this process (Linux; elsewhere at once).

    ``Thread.join`` returns before glibc has put the thread's malloc arena
    back on its free list.  A thread started in that gap gets a fresh arena
    and faults in again the pages that the ended thread's arena kept.
    """
    for tid in native_ids:
        while os.path.exists(f"/proc/self/task/{tid}"):
            time.sleep(0)


class Workers:
    """The calling thread, worker 0, and up to ``count - 1`` threads that block on a queue of their own while idle.

    Worker k's thread starts when a deal first has a piece for it, so a
    scope whose work never splits starts none.  Made by :func:`workers`,
    which closes it.  Only the thread that opened it deals to it.
    """

    def __init__(self, count: int) -> None:
        self._count = count
        self._inboxes: list[queue.SimpleQueue] = []
        self._threads: list[threading.Thread] = []

    @staticmethod
    def _run(pieces) -> tuple[list, BaseException | None]:
        """Call each piece in turn until one raises: the results before it, and what it raised."""
        results = []
        for piece in pieces:
            try:
                results.append(piece())
            except BaseException as exc:  # raised again in the dealing thread
                return results, exc
        return results, None

    @classmethod
    def _serve(cls, inbox: queue.SimpleQueue) -> None:
        while (job := inbox.get()) is not None:
            pieces, worker, done = job
            done.put((worker, cls._run(pieces)))
            del job, pieces  # a piece may hold arrays: an idle thread holds none

    def deal(self, pieces: Sequence[Callable[[], object]]) -> list:
        """Run piece i on worker i mod W, each worker's pieces in order; their results in piece order.

        Returns once every worker has stopped.  A worker stops at its first
        piece that raises, and the failure first in piece order is raised
        here.  One piece, or a scope of one worker, runs in this thread alone.
        """
        count = min(len(pieces), self._count)
        if count == 1:  # nothing to hand out: a plain loop, without the queues' cost
            return [piece() for piece in pieces]
        while len(self._threads) < count - 1:
            self._inboxes.append(queue.SimpleQueue())
            self._threads.append(threading.Thread(target=self._serve, args=(self._inboxes[-1],)))
            self._threads[-1].start()
        done = queue.SimpleQueue()
        for worker in range(1, count):
            self._inboxes[worker - 1].put((pieces[worker::count], worker, done))
        ran = [self._run(pieces[::count])] + [None] * (count - 1)
        for _ in range(1, count):
            worker, outcome = done.get()
            ran[worker] = outcome
        failures = [(k + len(results) * count, exc) for k, (results, exc) in enumerate(ran) if exc is not None]
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        return [ran[i % count][0][i // count] for i in range(len(pieces))]

    def close(self) -> None:
        """End the threads, and return once the OS has ended them (:func:`_await_thread_exit`)."""
        for inbox in self._inboxes:
            inbox.put(None)
        for thread in self._threads:
            thread.join()
        _await_thread_exit(thread.native_id for thread in self._threads)


# The scope that ops in this context deal their pieces to; by default one with no threads.
_SERIAL = Workers(1)
_scope: ContextVar[Workers] = ContextVar("couplformer_workers", default=_SERIAL)


@contextmanager
def workers(count: int):
    """Open a scope of ``count`` workers (:class:`Workers`) for this context, and close it on exit.

    Ops called in this context, such as :func:`softmax_attention`, deal
    their pieces to it.  Where a scope is already open, the block gets that
    one instead: scopes never nest.  A worker thread, and a fresh
    ``contextvars.Context``, sees no scope, so a piece run there deals
    nothing further.  On exit the threads that started end, and the OS has
    ended them before the block is left, so the next scope's threads take
    over their malloc arenas and the pages those keep.
    """
    if _scope.get() is not _SERIAL:
        yield _scope.get()
        return
    scope = Workers(count)
    token = _scope.set(scope)
    try:
        yield scope
    finally:
        _scope.reset(token)
        scope.close()


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
    return _node(np.matmul(lhs, y).reshape(*x.shape[:-1], y.shape[-1]), (a, b), lambda g: _matmul_vjp(g, lhs, y, shape))


def _matmul_vjp(g: np.ndarray, lhs: np.ndarray, y: np.ndarray, shape) -> tuple[np.ndarray, np.ndarray]:
    """:func:`matmul`'s vjp: the gradients of its left operand (of ``shape``, GEMM rows ``lhs``) and of ``y``."""
    g = g.reshape(*lhs.shape[:-1], y.shape[-1])
    return np.matmul(g, y.swapaxes(-1, -2)).reshape(shape), np.matmul(lhs.swapaxes(-1, -2), g)


def _project(rows: np.ndarray, y: np.ndarray) -> np.ndarray:
    """rows . y for (..., d) rows and a 2-D ``y``: every row through one GEMM, as :func:`matmul` runs it."""
    return np.matmul(rows.reshape(-1, rows.shape[-1]), y).reshape(*rows.shape[:-1], y.shape[-1])


def _projection_vjp(rows: np.ndarray, y: np.ndarray, grad_heads: np.ndarray, lead: tuple[int, ...]):
    """The vjp of the :func:`matmul` node rows . y, given its product's gradient in head layout.

    Returns the gradient of ``rows`` and of ``y``.  The head-layout gradient
    is freed once it is in row layout, where the caller holds no other
    reference to it.
    """
    g = _to_rows(grad_heads, lead)
    del grad_heads
    return _matmul_vjp(g, rows.reshape(-1, rows.shape[-1]), y, rows.shape)


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


# Bytes that the passes over one block of rows may touch, summed over the
# arrays they read and write: half the 2 MiB L2 of a core, so a block stays
# in cache from its first pass to its last.  Measured on one (784, 784) map
# (grid28-standard's), 300 interleaved runs per budget, one BLAS thread,
# medians: the in-place softmax gradient (three arrays) took 1.98 ms at
# 2^20, 1.86 at 2^19, 2.42 at 2^21 and 3.46 as one whole-map block; the
# in-place softmax (one array) 2.80 ms at 2^20 and 2.93 as one block, within
# each other's quartiles.
_BLOCK_BYTES = 1 << 20


def _row_blocks(arrays: tuple[np.ndarray, ...], buffers: int = 0) -> list:
    """Blocks of rows of equally shaped arrays, each block within _BLOCK_BYTES.

    Each distinct stretch of memory that the arrays view, however many of
    them view it, and each of ``buffers`` block-sized buffers counts once
    towards the budget.  Arrays that fit whole are one block, as they are;
    others go as slices of their (rows, n) forms.  A form is a view of a
    C-contiguous array and a copy otherwise, so an array written through
    its form must be C-contiguous.
    """
    n, size = arrays[0].shape[-1], arrays[0].size * 8
    if size * (len(arrays) + buffers) <= _BLOCK_BYTES:  # fits even with no memory shared
        return [arrays]
    touched = len({byte_bounds(a) for a in arrays}) + buffers
    if size * touched <= _BLOCK_BYTES:
        return [arrays]
    rows, step = arrays[0].size // n, max(1, _BLOCK_BYTES // (8 * n * touched))
    forms = [a.reshape(rows, n) for a in arrays]
    return [[f[i : i + step] for f in forms] for i in range(0, rows, step)]


def _softmax(arr: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, with max subtraction for stability, into ``out``.

    ``out`` is C-contiguous and may be ``arr`` itself.  The passes run one
    block of rows at a time (:func:`_row_blocks`), each row with the
    arithmetic and reduction order of the whole-array expression, so the
    result is bit for bit the same; a non-finite input raises from its block.
    """
    for block, e in _row_blocks((arr, out)):
        top = block.max(axis=-1, keepdims=True)
        # NaN and +inf reach the row maxima, -inf the minimum: no full-size mask.
        if not (np.isfinite(top).all() and np.isfinite(block.min(initial=0.0))):
            raise NonFiniteError("softmax_rows: input contains non-finite values")
        np.subtract(block, top, out=e)
        np.exp(e, out=e)
        e /= e.sum(axis=-1, keepdims=True)
    return out


def _softmax_grad(g: np.ndarray, s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Jacobian-vector form per row, s * (g - <g, s>), into ``out``, which may be ``g`` itself.

    In row blocks as :func:`_softmax`, bit for bit the whole-array
    expression; g * s takes one block-sized buffer at a time.
    """
    for gb, sb, ob in _row_blocks((g, s, out), buffers=1):
        dot = (gb * sb).sum(axis=-1, keepdims=True)
        np.subtract(gb, dot, out=ob)
        ob *= sb
    return out


def softmax_rows(x: Var) -> Var:
    arr = x.value.data
    if arr.ndim < 1:
        raise ShapeError("softmax_rows: expected at least 1-D input")
    # Out of place: the input is a Var's value, and no vjp writes into its incoming gradient.
    s = _softmax(arr, np.empty(arr.shape))
    return _node(s, (x,), lambda g: (_softmax_grad(g, s, np.empty(g.shape)),))


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


def _check_rows(op: str, x: Var, weights: tuple[Var, ...], heads: int, tokens: int | None = None) -> None:
    rows, shapes = x.value.shape, [w.value.shape for w in weights]
    if not (
        len(rows) in (2, 3) and shapes.count((rows[-1], rows[-1])) == len(shapes)
        and heads >= 1 and rows[-1] % heads == 0 and tokens in (None, rows[-2])
    ):
        length = "" if tokens is None else f" and L = {tokens}"
        raise ShapeError(
            f"{op}: expected (L, d) or (B, L, d) token rows and four (d, d) projections, "
            f"{heads} heads dividing d{length}, got {rows} and {', '.join(map(str, shapes))}"
        )


# Multiply-adds that each half of a split GEMM must do before the split is
# made (:func:`_row_halves`).  Below about 10^6 (M * N * K), OpenBLAS
# 0.3.31 runs a small-matrix kernel that rounds differently from the whole
# GEMM: with d_head = 8 the halves of a head's rows matched the whole map
# bit for bit at L = 100, 200 and 520-1,000, and differed at L = 300-510
# (one BLAS thread, 2 heads per L); the stem's column halves differed at 28 px.
_SPLIT_MACS = 1 << 20


def _row_halves(rows: int, macs_per_row: int) -> tuple[slice, ...]:
    """The parts ``rows`` split into: two fixed halves, or one whole when a half's GEMMs do fewer than _SPLIT_MACS.

    ``macs_per_row`` is the multiply-adds that one row costs the GEMMs split
    by rows.  The geometry alone decides, never the worker count, so every
    machine runs the same GEMMs.
    """
    if (rows // 2) * macs_per_row < _SPLIT_MACS:
        return (slice(None),)
    return slice(0, rows // 2), slice(rows // 2, rows)


def _softmax_heads(x: np.ndarray, y: np.ndarray, z: np.ndarray, keep: bool):
    """softmax(x[n] . y[n]^T) . z[n] for every head n of (heads, L, c) arrays, and its vjp.

    The heads are taken one at a time.  Each head's scores are made into
    one (L, L) array and become its map in place, and in the vjp the fresh
    g[n] . z[n]^T becomes the scores' gradient in place, so beyond the kept
    maps one (L, L) array is alive at a time.  A map (4.7 MiB at L = 784)
    need not fit in cache: each softmax pass runs over one L2-sized block of
    rows (:func:`_softmax`).  Only the maps are kept for the vjp, and only
    when ``keep``: otherwise each map dies with its head.  The vjp takes the
    gradient and x, y and z again.  Each head's scores are reported to the
    active score tracker.

    A row of a map, and of its gradient, depends only on its own row of
    scores, so each head's rows go in parts (:func:`_row_halves`) to the
    open worker scope (:func:`workers`).  A part of the forward makes its
    scores, softmax and output rows; a part of the vjp its rows of dv, of
    the scores' gradient and of dq, and then, once every part has stopped,
    its rows of dk from its columns of that gradient.  Every GEMM keeps its
    inner dimension, so the values are the whole map's bit for bit.
    """
    L = x.shape[1]
    parts = _row_halves(L, L * x.shape[2])
    maps, out, scope = [], np.empty(z.shape), _scope.get()
    for n in range(x.shape[0]):
        p = np.empty((L, L))
        T.note_score_tensor(p)

        def fwd(r: slice) -> None:
            part = p[r]
            np.matmul(x[n][r], y[n].T, out=part)
            _softmax(part, part)
            np.matmul(part, z[n], out=out[n][r])

        scope.deal([partial(fwd, r) for r in parts])
        if keep:
            maps.append(p)
        del p, fwd  # before the next head's scores are made

    def vjp(g: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray):
        dq, dk, dv = np.empty(x.shape), np.empty(y.shape), np.empty(z.shape)
        scope = _scope.get()
        for n, p in enumerate(maps):
            ds = np.empty((L, L))

            def rows(r: slice) -> None:
                part = ds[r]
                np.matmul(p[:, r].T, g[n], out=dv[n][r])
                np.matmul(g[n][r], z[n].T, out=part)
                _softmax_grad(part, p[r], part)
                np.matmul(part, y[n], out=dq[n][r])

            def cols(r: slice) -> None:
                np.matmul(ds[:, r].T, x[n], out=dk[n][r])

            scope.deal([partial(rows, r) for r in parts])
            scope.deal([partial(cols, r) for r in parts])
            del ds, rows, cols  # before the next head's product is made
        return (dq, dk, dv)

    return out, vjp


def softmax_attention(x: Var, gamma: Var, beta: Var, w_q: Var, w_k: Var, w_v: Var, w_o: Var, heads: int) -> Var:
    """The pre-norm standard attention sublayer of token rows, Attn(LN(x)) . w_o: one graph node.

    ``x`` holds (L, d) or (B, L, d) token rows.  They are layer-normed by
    ``gamma`` and ``beta`` (:func:`_pre_norm`) and projected by ``w_q``,
    ``w_k`` and ``w_v`` to rows whose d columns hold ``heads`` heads side by
    side.  Per head the mix is softmax(q k^T / sqrt(d_head)) v; the merged
    heads are projected out by ``w_o``.  Bit for bit :func:`layernorm`, the
    three :func:`matmul` projections, the mix and the out projection.  The
    node keeps each head's map and the merged rows, for w_o's gradient; its
    vjp rebuilds q, k and v from the normalized rows with the forward's own
    GEMMs.
    """
    _check_rows("softmax_attention", x, (w_q, w_k, w_v, w_o), heads)
    weights, w_out = tuple(w.value.data for w in (w_q, w_k, w_v)), w_o.value.data
    lead, L = x.shape[:-2], x.shape[-2]
    scale_q = 1.0 / math.sqrt(w_out.shape[0] // heads)
    keep = _recording((x, gamma, beta, w_q, w_k, w_v, w_o))

    def operands(rows):  # C-contiguous heads: a matmul on a strided view can round differently
        q, k, v = (np.ascontiguousarray(_to_heads(_project(rows, y), heads, (L,))) for y in weights)
        q *= scale_q
        return q, k, v

    def mix(normed):
        out, heads_vjp = _softmax_heads(*operands(normed()), keep=keep)
        merged = _to_rows(out, lead)
        del out

        def vjp(g: np.ndarray, normed):
            rows = normed()
            grad_merged, grad_out = _matmul_vjp(g, merged.reshape(-1, merged.shape[-1]), w_out, merged.shape)
            dq, dk, dv = heads_vjp(_to_heads(grad_merged, heads, (L,)), *operands(rows))
            del grad_merged
            (gq, dwq), (gk, dwk), (gv, dwv) = (
                _projection_vjp(rows, y, t, lead) for y, t in zip(weights, (dq * scale_q, dk, dv))
            )
            return (gq + gk) + gv, dwq, dwk, dwv, grad_out

        return _project(merged, w_out), vjp

    return _pre_norm("softmax_attention", x, gamma, beta, (w_q, w_k, w_v, w_o), mix)


def _coupling_scores(q: np.ndarray, k: np.ndarray):
    """Row and column scores of (heads, h, w, d_head) grids, and their vjp.

    A[n] (heads, h, h) holds the dot products of grid rows of q[n] and
    k[n], scaled by 1/sqrt(w*d_head); B[n] (heads, w, w) those of grid
    columns, scaled by 1/sqrt(h*d_head).  Each operand is the C-contiguous
    copy that a separate permute node would make, so the products round
    exactly as the composed chain's do.  The vjp keeps nothing: given the
    gradients of A and B, it returns the map from k to q's gradient and the
    map from q to k's, each of which rebuilds its operand copies from the
    grid it is given, each freed once its product is made.
    """
    heads, h, w, dh = q.shape
    scale_a, scale_b = 1.0 / math.sqrt(w * dh), 1.0 / math.sqrt(h * dh)

    def rows_of(t: np.ndarray) -> np.ndarray:  # grid rows side by side: a view
        return t.reshape(heads, h, w * dh)

    def cols_of(t: np.ndarray) -> np.ndarray:  # grid columns side by side: a copy
        return np.ascontiguousarray(t.transpose(0, 2, 1, 3)).reshape(heads, w, h * dh)

    def rows_t(t: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(rows_of(t).transpose(0, 2, 1))

    def cols_t(t: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(t.transpose(0, 1, 3, 2)).reshape(heads, h * dh, w)

    def vjp(ga: np.ndarray, gb: np.ndarray):
        ga, gb = ga * scale_a, gb * scale_b

        def grad_q(k: np.ndarray) -> np.ndarray:
            dq = np.matmul(gb, cols_t(k).swapaxes(1, 2)).reshape(heads, w, h, dh).transpose(0, 2, 1, 3)
            ka = rows_t(k)
            del k
            by_rows = np.matmul(ga, ka.swapaxes(1, 2)).reshape(dq.shape)
            del ka
            return dq + by_rows

        def grad_k(q: np.ndarray) -> np.ndarray:
            dk = np.matmul(cols_of(q).swapaxes(1, 2), gb).reshape(heads, h, dh, w).transpose(0, 1, 3, 2)
            by_rows = np.matmul(rows_of(q).swapaxes(1, 2), ga).transpose(0, 2, 1).reshape(dk.shape)
            del q
            return dk + by_rows

        return grad_q, grad_k

    return np.matmul(rows_of(q), rows_t(k)) * scale_a, np.matmul(cols_of(q), cols_t(k)) * scale_b, vjp


def coupling_attention(
    x: Var, gamma: Var, beta: Var, w_q: Var, w_k: Var, w_v: Var, w_o: Var, heads: int, h: int, w: int
) -> Var:
    """The pre-norm coupled attention sublayer of token rows over an h-by-w grid: one graph node.

    ``x`` holds (h*w, d) or (B, h*w, d) raster token rows.  They are
    layer-normed by ``gamma`` and ``beta`` (:func:`_pre_norm`) and projected
    by ``w_q``, ``w_k`` and ``w_v`` to rows whose d columns hold ``heads``
    heads side by side.  Per head it forms the row scores A and column
    scores B (:func:`_coupling_scores`), applies softmax(A) (x) softmax(B)
    to v through Lemma 1 (the helper behind :func:`apply_factored_map`),
    merges the heads back into rows and projects them out by ``w_o``.  Bit
    for bit :func:`layernorm`, the three :func:`matmul` projections, the mix
    and the out projection; neither direction forms an (hw)^2 map.  The
    node keeps softmax(A) and softmax(B).  Its vjp rebuilds the head grids
    from the normalized rows with the forward's own GEMMs: v first, for the
    map's vjp, which also rebuilds a . X and from it the merged rows for
    w_o's gradient; then k for q's gradient and q for k's, each projected
    back to rows before the next is made.  A and B are reported to the
    active score tracker.
    """
    _check_rows("coupling_attention", x, (w_q, w_k, w_v, w_o), heads, h * w)
    (y_q, y_k, y_v), w_out = (t.value.data for t in (w_q, w_k, w_v)), w_o.value.data
    lead = x.shape[:-2]

    def grids(rows: np.ndarray, y: np.ndarray) -> np.ndarray:  # one projection's C-contiguous head grids
        return np.ascontiguousarray(_to_heads(_project(rows, y), heads, (h, w)))

    def mix(normed):
        rows = normed()
        a, b, scores_vjp = _coupling_scores(grids(rows, y_q), grids(rows, y_k))
        T.note_score_tensor(a)
        T.note_score_tensor(b)
        sa, sb = _softmax(a, a), _softmax(b, b)
        out, map_vjp = _factored_map(sa, sb, grids(rows, y_v))
        del rows

        def vjp(g: np.ndarray, normed):
            rows = normed()
            da, db, dv, out = map_vjp(_to_heads(_project(g, w_out.T), heads, (h, w)), grids(rows, y_v))
            merged = _to_rows(out, lead)
            del out
            grad_out = np.matmul(merged.reshape(-1, merged.shape[-1]).swapaxes(-1, -2), g.reshape(-1, g.shape[-1]))
            del merged
            gv, dwv = _projection_vjp(rows, y_v, dv, lead)
            del dv
            grad_q, grad_k = scores_vjp(_softmax_grad(da, sa, da), _softmax_grad(db, sb, db))
            gq, dwq = _projection_vjp(rows, y_q, grad_q(grids(rows, y_k)), lead)
            gk, dwk = _projection_vjp(rows, y_k, grad_k(grids(rows, y_q)), lead)
            return (gq + gk) + gv, dwq, dwk, dwv, grad_out

        return _project(_to_rows(out, lead), w_out), vjp

    return _pre_norm("coupling_attention", x, gamma, beta, (w_q, w_k, w_v, w_o), mix)


def relu(x: Var) -> Var:
    """max(x, 0), called only as a link of :func:`conv_relu_pool`'s composed-chain oracle."""
    # Branch-free, and NaN stays NaN: np.where on a random-sign mask branches.
    out = np.maximum(x.value.data, 0.0)
    return _node(out, (x,), lambda g: (g * (out > 0),))


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _gelu_cdf(arr: np.ndarray) -> np.ndarray:
    """Phi(arr), the standard normal CDF: gelu(arr) is arr * Phi(arr)."""
    return 0.5 * (1.0 + erf(arr * _INV_SQRT2))


def _gelu_grad(g: np.ndarray, arr: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """Gradient of gelu's input ``arr`` from its output's ``g`` and ``cdf`` = Phi(arr), in one buffer.

    g * (Phi(arr) + arr * pdf(arr)), with pdf(arr) = exp(-0.5 * arr * arr) / sqrt(2 pi).
    """
    grad = arr * -0.5
    grad *= arr
    np.exp(grad, out=grad)
    grad *= _INV_SQRT_2PI
    grad *= arr
    grad += cdf
    grad *= g
    return grad


def gelu(x: Var) -> Var:
    """x * Phi(x), called only as a link of :func:`feedforward`'s composed-chain oracle."""
    arr = x.value.data
    cdf = _gelu_cdf(arr)
    return _node(arr * cdf, (x,), lambda g: (_gelu_grad(g, arr, cdf),))


def feedforward(x: Var, gamma: Var, beta: Var, w1: Var, b1: Var, w2: Var, b2: Var) -> Var:
    """The pre-norm feed-forward sublayer gelu(LN(x) . w1 + b1) . w2 + b2 of (..., d) token rows, one graph node.

    Bit for bit the chain :func:`layernorm` -> :func:`matmul` -> :func:`add`
    -> :func:`gelu` -> :func:`matmul` -> :func:`add`, forward and vjp.  The
    node keeps the pre-activation and gelu's Phi (and the norm's x-hat and
    1/sigma, :func:`_pre_norm`).  Its vjp rebuilds gelu's output as pre * Phi,
    the forward's own multiply, for w2's gradient and frees it before the
    hidden gradient is made, which gelu's gradient then joins in one buffer.
    """
    arr, m1, m2 = x.value.data, w1.value.data, w2.value.data
    if not (
        arr.ndim >= 2 and m1.ndim == 2 and m2.ndim == 2 and m1.shape[0] == arr.shape[-1]
        and b1.shape == (m1.shape[1],) and m2.shape[0] == m1.shape[1] and b2.shape == (m2.shape[1],)
    ):
        raise ShapeError(
            f"feedforward: expected (..., d) rows, (d, k), (k,), (k, e) and (e,) weights, got "
            f"{arr.shape}, {m1.shape}, {b1.shape}, {m2.shape} and {b2.shape}"
        )
    lead = tuple(range(arr.ndim - 1))

    def ffn(normed):
        pre = _project(normed(), m1) + b1.value.data
        cdf = _gelu_cdf(pre)
        out = _project(pre * cdf, m2) + b2.value.data

        def vjp(g: np.ndarray, normed):
            g_rows = g.reshape(-1, g.shape[-1])
            hidden = pre * cdf
            dw2 = np.matmul(hidden.reshape(-1, hidden.shape[-1]).swapaxes(-1, -2), g_rows)
            del hidden
            dpre = _gelu_grad(np.matmul(g_rows, m2.swapaxes(-1, -2)).reshape(pre.shape), pre, cdf)
            rows = normed()
            dx, dw1 = _matmul_vjp(dpre, rows.reshape(-1, rows.shape[-1]), m1, rows.shape)
            return (dx, dw1, dpre.sum(axis=lead), dw2, g.sum(axis=lead))

        return out, vjp

    return _pre_norm("feedforward", x, gamma, beta, (w1, b1, w2, b2), ffn)


def _layernorm(arr: np.ndarray, eps: float = 1e-5):
    """x-hat and 1/sigma of a layer norm over the last axis, whose output is gamma * x-hat + beta."""
    d = arr.shape[-1]
    # Each mean is a sum and one division, as np.mean computes it, without its Python-level wrapper.
    mean = arr.sum(axis=-1, keepdims=True) / d
    xhat = arr - mean
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    return xhat, inv_std


def _layernorm_vjp(g: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray, gval: np.ndarray):
    """The gradients of :func:`_layernorm`'s input, scale and offset, in two buffers of the input's size."""
    d = xhat.shape[-1]
    lead = tuple(range(g.ndim - 1))
    dgamma = (g * xhat).sum(axis=lead) if lead else g * xhat
    dbeta = g.sum(axis=lead) if lead else g
    dx = g * gval  # x-hat's gradient, made x's in place
    buf = dx * xhat
    dot = buf.sum(axis=-1, keepdims=True) / d
    dx -= dx.sum(axis=-1, keepdims=True) / d
    np.multiply(xhat, dot, out=buf)
    dx -= buf
    dx *= inv_std
    return dx, dgamma, dbeta


def _pre_norm(op: str, x: Var, gamma: Var, beta: Var, params: tuple[Var, ...], body) -> Var:
    """One graph node for a pre-norm sublayer: :func:`layernorm` of ``x`` and the ``body`` that reads it.

    ``body(normed)`` takes a function that makes the normalized rows, as
    gamma * x-hat + beta, and returns its output and its vjp; that vjp
    takes the output's gradient and the same function, and returns the
    rows' gradient, then one per entry of ``params``.  So the node keeps
    the norm's x-hat and 1/sigma but never the rows, which forward and vjp
    make with the same expression, each when it reads them.  The norm's vjp
    runs last.
    """
    arr, gval, bval = x.value.data, gamma.value.data, beta.value.data
    if gval.shape != arr.shape[-1:] or bval.shape != arr.shape[-1:]:
        raise ShapeError(
            f"{op}: the norm's scale and offset must have shape ({arr.shape[-1]},), got {gval.shape}/{bval.shape}"
        )
    xhat, inv_std = _layernorm(arr)

    def normed() -> np.ndarray:
        return gval * xhat + bval

    out, body_vjp = body(normed)

    def vjp(g: np.ndarray):
        grad_rows, *grads = body_vjp(g, normed)
        return (*_layernorm_vjp(grad_rows, xhat, inv_std, gval), *grads)

    return _node(out, (x, gamma, beta, *params), vjp)


def layernorm(x: Var, gamma: Var, beta: Var, eps: float = 1e-5) -> Var:
    arr = x.value.data
    gval, bval = gamma.value.data, beta.value.data
    d = arr.shape[-1]
    if gval.shape != (d,) or bval.shape != (d,):
        raise ShapeError(
            f"layernorm: scale/offset must have shape ({d},), got {gval.shape}/{bval.shape}"
        )
    xhat, inv_std = _layernorm(arr, eps)
    return _node(gval * xhat + bval, (x, gamma, beta), lambda g: _layernorm_vjp(g, xhat, inv_std, gval))


def _check_images(op: str, arr: np.ndarray) -> None:
    if arr.ndim not in (3, 4):
        raise ShapeError(f"{op}: expected (C,H,W) or (B,C,H,W), got {arr.shape}")


def _channel_major(arr: np.ndarray) -> np.ndarray:
    """View (C, H, W) or (B, C, H, W) images as a (C, B, H, W) array."""
    return arr.reshape(-1, *arr.shape[-3:]).transpose(1, 0, 2, 3)


def _im2col(images: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """The (C*9, B*R*W) 3x3 im2col columns of (C, B, H, W) images, zero-padded by one cell, for output rows ``rows``.

    Channel-major: each window offset is one strided copy into the columns,
    from a zero-padded copy of the R + 2 image rows that the R output rows read.
    """
    c, n, h, w = images.shape
    start, stop, _ = rows.indices(h)
    padded = np.zeros((c, n, stop - start + 2, w + 2))  # padded row r holds image row start - 1 + r
    lo, hi = max(start - 1, 0), min(stop + 1, h)
    padded[:, :, lo - start + 1 : hi - start + 1, 1 : w + 1] = images[:, :, lo:hi]
    cols = np.empty((c, 3, 3, n, stop - start, w))
    for dy in range(3):
        for dx in range(3):
            cols[:, dy, dx] = padded[:, :, dy : dy + stop - start, dx : dx + w]
    return cols.reshape(c * 9, -1)


def _col2im(grad_cols: np.ndarray, shape) -> np.ndarray:
    """Adjoint of :func:`_im2col`: add (C*9, B*H*W) column gradients back onto (C, B, H, W) images.

    ``shape`` is (B, H, W); C follows from the columns.
    """
    n, h, w = shape
    c = grad_cols.shape[0] // 9
    grad_cols = grad_cols.reshape(c, 3, 3, n, h, w)
    grad_padded = np.zeros((c, n, h + 2, w + 2))
    with np.errstate():  # restores the ufunc buffer size on exit
        # A strided add over three or more axes runs through ufunc buffers,
        # by default three of up to 8,192 elements: 192 KiB beside the columns.
        np.setbufsize(256)
        for dy in range(3):
            for dx in range(3):
                grad_padded[:, :, dy : dy + h, dx : dx + w] += grad_cols[:, dy, dx]
    return grad_padded[:, :, 1 : h + 1, 1 : w + 1]


def _conv(op: str, x: Var, weight: Var, bias: Var):
    """Validate a 3x3 same-padded convolution and run it as GEMMs over the whole batch's im2col columns.

    Returns the (O, B, H, W) channel-major output, the bias added in place,
    the node's parents and its vjp.  The forward is one GEMM, or two on the
    halves of the output rows (:func:`_row_halves`), so that only half the
    columns are alive at once.  The vjp takes the output gradient as an
    (O, B*H*W) array and rebuilds the columns from ``x`` instead of keeping
    them, one half of the input channels at a time where :func:`_row_halves`
    splits them: the kernel's gradient then goes by its column halves and
    the columns' gradient by its row halves, so each GEMM keeps its inner
    dimension.  The vjp holds nothing that ``x`` and ``weight`` do not, and
    reads no ``Var`` (one would keep its value alive), only flags and shapes.
    """
    arr, w = x.value.data, weight.value.data
    _check_images(op, arr)
    images = _channel_major(arr)  # one image is a batch of one
    c, n, h, wth = images.shape
    if w.shape[1:] != (c, 3, 3):
        raise ShapeError(f"{op}: expected an (O,{c},3,3) kernel for {c} input channels, got {w.shape}")
    out_ch = w.shape[0]
    if bias.value.shape != (out_ch,):
        raise ShapeError(f"{op}: bias shape {bias.value.shape} != ({out_ch},)")

    flat_w = w.reshape(out_ch, c * 9)
    halves = _row_halves(h, out_ch * c * 9 * n * wth)
    if len(halves) == 1:
        out = (flat_w @ _im2col(images)).reshape(out_ch, n, h, wth)
    else:
        out = np.empty((out_ch, n, h, wth))
        for rows in halves:
            out[:, :, rows] = (flat_w @ _im2col(images, rows)).reshape(out_ch, n, -1, wth)
    out += bias.value.data[:, None, None, None]
    x_shape, grad_x_needed = arr.shape, x.requires_grad

    def vjp(g: np.ndarray):
        parts = _row_halves(c, 9 * out_ch * g.shape[1])  # input channels
        grads = [None, np.concatenate([g @ _im2col(images[part]).T for part in parts], axis=1).reshape(w.shape)]
        if grad_x_needed:  # never for the image itself
            grad_x = [_col2im(w[:, part].reshape(out_ch, -1).T @ g, (n, h, wth)).transpose(1, 0, 2, 3) for part in parts]
            grads[0] = np.concatenate(grad_x, axis=1).reshape(x_shape)
        # Each image's sum, then the images in sequence: the (B, O) column sum's order.
        per_image = g.reshape(out_ch, n, h * wth).sum(axis=2)
        grads.append(np.ascontiguousarray(per_image.T).sum(axis=0))
        return grads

    return out, (x, weight, bias), vjp


def _from_channel_major(arr: np.ndarray, like: np.ndarray) -> np.ndarray:
    """(C, B, H, W) back to the (C, H, W) or (B, C, H, W) layout of ``like``."""
    return arr.transpose(1, 0, 2, 3).reshape(*like.shape[:-3], *arr.shape[:1], *arr.shape[2:])


def conv2d(x: Var, weight: Var, bias: Var) -> Var:
    """The stem's 3x3 stride-1 convolution of (C, H, W) or (B, C, H, W) by weight (O, C, 3, 3).

    Zero padding of one cell keeps H and W.  The im2col columns of the
    whole batch are laid side by side, so the forward and each half of the
    vjp run over the whole batch whatever its size.  Nothing in the package
    calls it: it is a link of the composed chain that pins
    :func:`conv_relu_pool` bit for bit.
    """
    out, parents, conv_vjp = _conv("conv2d", x, weight, bias)
    rows = out.shape[0]
    return _node(
        _from_channel_major(out, x.value.data), parents, lambda g: conv_vjp(_channel_major(g).reshape(rows, -1))
    )


def pooled_size(size: int) -> int:
    """The extent a 3x3 max pool with stride 2 and padding 1 leaves of ``size``: (size + 2 - 3) // 2 + 1."""
    return (size - 1) // 2 + 1


def _strided(offset: int, count: int) -> slice:
    """The ``count`` stride-2 positions a pool window offset reads along one axis."""
    return slice(offset, offset + 2 * count, 2)


def _pool(arr: np.ndarray, record: bool):
    """3x3/2 max pool with padding 1 over the last two axes, and each output's first-maximum window offset.

    The forward keeps a running maximum over the strided window offsets,
    first across columns, then across rows.  The offset, one byte per
    output, names the first cell of the window in (dy, dx) order that
    equals the maximum; it is computed only when ``record`` (else None).
    Where the -inf-padded input would pass _BLOCK_BYTES, its two halves
    along the first axis are pooled one after the other.
    """
    h, w = arr.shape[-2:]
    h_out, w_out = pooled_size(h), pooled_size(w)
    out = np.empty((*arr.shape[:-2], h_out, w_out))
    first = np.zeros(out.shape, dtype=np.uint8) if record else None
    lead = arr.shape[0]
    padded_bytes = arr.size // (h * w) * (h + 2) * (w + 2) * 8
    halves = ((slice(None),) if padded_bytes <= _BLOCK_BYTES else (slice(0, lead // 2), slice(lead // 2, lead)))
    for part in halves:
        padded = np.full((*arr[part].shape[:-2], h + 2, w + 2), -np.inf)
        padded[..., 1 : h + 1, 1 : w + 1] = arr[part]
        # np.maximum keeps its second operand on a tie, so the running maximum
        # stays the first in (dy, dx) order, down to the sign of a zero.
        across = padded[..., _strided(0, w_out)].copy()
        for dx in (1, 2):
            np.maximum(padded[..., _strided(dx, w_out)], across, out=across)
        top = out[part]
        top[...] = across[..., _strided(0, h_out), :]
        for dy in (1, 2):
            np.maximum(across[..., _strided(dy, h_out), :], top, out=top)
        del across
        if record:
            # The first maximum's offset counts the leading offsets whose cell differs from it.
            pending = np.ones(top.shape, dtype=bool)
            for offset in range(8):
                dy, dx = divmod(offset, 3)
                pending &= padded[..., _strided(dy, h_out), _strided(dx, w_out)] != top
                first[part] += pending
    return out, first


def _pool_scatter(g: np.ndarray, first: np.ndarray, shape) -> np.ndarray:
    """Gradient of a max pool's input of ``shape``: each output's ``g`` to its first maximum.

    A first maximum on a padded cell (a window of NaN or -inf) takes its
    gradient with it, as a padded input would: no cell of the input gets it.
    """
    *lead, h, w = shape
    h_out, w_out = first.shape[-2:]
    size = math.prod(shape)
    dy, dx = np.divmod(first, 3)
    row = (2 * np.arange(h_out) - 1)[:, None] + dy
    col = (2 * np.arange(w_out) - 1) + dx
    cells = row * w
    cells += col
    cells += np.arange(math.prod(lead)).reshape(*lead, 1, 1) * (h * w)
    del row, col
    # Padding lies above and left of the first output row and column, and
    # below and right of the last where the extent is odd: there the first
    # maximum goes to one bin past the input's cells.
    cells[..., 0, :][dy[..., 0, :] == 0] = size
    cells[..., :, 0][dx[..., :, 0] == 0] = size
    if h % 2:
        cells[..., -1, :][dy[..., -1, :] == 2] = size
    if w % 2:
        cells[..., :, -1][dx[..., :, -1] == 2] = size
    # Outputs in reverse raster order add to each cell in (dy, dx) order,
    # the order of a scatter pass per offset.
    grad = np.bincount(cells.reshape(-1)[::-1], weights=g.reshape(-1)[::-1], minlength=size + 1)
    return grad[:size].reshape(shape)


def maxpool2d(x: Var) -> Var:
    """The stem's 3x3 max pool with stride 2 and padding 1 of (C, H, W) or (B, C, H, W); padded cells hold -inf.

    Each output's gradient goes to the first cell of its window in (dy, dx)
    order that equals it, so ties are broken the same way every time.  When
    a graph is recorded, the forward stores that cell's window offset, one
    byte per output, and the vjp is one scatter (:func:`_pool_scatter`).
    Nothing in the package calls it: it is a link of the composed chain that
    pins :func:`conv_relu_pool` bit for bit.
    """
    arr = x.value.data
    _check_images("maxpool2d", arr)
    out, first = _pool(arr, _recording((x,)))
    shape = arr.shape
    return _node(out, (x,), lambda g: (_pool_scatter(g, first, shape),))


def conv_relu_pool(x: Var, weight: Var, bias: Var) -> Var:
    """One conv stem stage as one graph node: :func:`conv2d`, ReLU, then :func:`maxpool2d`.

    The stage's one geometry is the CCT tokenizer's: a 3x3 stride-1
    convolution padded to keep H and W, and a 3x3/2 max pool with padding
    1.  Bit for bit the chain ``conv2d(x, weight, bias)`` -> :func:`relu` ->
    ``maxpool2d``, forward and vjp.  The forward is the im2col GEMM
    (:func:`_conv`), the bias and the ReLU applied in place, and the
    running-max pool on the GEMM's (O, B, H, W) layout.  The node keeps its
    output and the first-maximum offset bytes, nothing more: its vjp masks
    the output gradient by output > 0 (a window's chosen cell is positive
    exactly when its maximum is), scatters it to the chosen cells, which
    lays it out as the GEMM's (O, B*H*W) gradient, and rebuilds the im2col
    columns from ``x`` for the GEMMs.
    """
    conv, parents, conv_vjp = _conv("conv_relu_pool", x, weight, bias)
    np.maximum(conv, 0.0, out=conv)
    full_shape = conv.shape
    conv, first = _pool(conv, _recording(parents))
    out = np.ascontiguousarray(_from_channel_major(conv, x.value.data))

    def vjp(g: np.ndarray):
        g = _pool_scatter(_channel_major(g * (out > 0)), first, full_shape)
        return conv_vjp(g.reshape(full_shape[0], -1))

    return _node(out, parents, vjp)


def sum_all(x: Var) -> Var:
    arr = x.value.data
    shape = arr.shape
    return _node(arr.sum(), (x,), lambda g: (np.broadcast_to(g, shape).copy(),))


def cross_entropy(logits: Var, target) -> Var:
    """Negative log likelihood of the target classes under softmax of the logits.

    1-D logits take one ``int`` or numpy integer ``target`` (a bool or a
    float is a :class:`ShapeError`, as in the batched form); (B, classes)
    logits take B integer targets and give the mean of their B losses.
    """
    z = logits.value.data
    if z.ndim == 1:
        if isinstance(target, bool) or not isinstance(target, (int, np.integer)):
            raise ShapeError(f"cross_entropy: {z.shape} logits need one integer target, got {target!r}")
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
    vjp are batched matmuls over h-by-h and w-by-w factors.  The vjp keeps
    only ``a`` and ``b``: it takes the output gradient and ``v`` again,
    rebuilds a . X with the forward's own product, and returns the
    gradients of a, b and v and the output, rebuilt from a . X as the
    forward made it.
    """
    heads, h, w, c = v.shape
    rows = (heads, h, w * c)  # channel grids side by side: a acts on the left

    def left_of(v: np.ndarray) -> np.ndarray:  # a . X
        return np.matmul(a, v.reshape(rows)).reshape(v.shape)

    def vjp(g: np.ndarray, v: np.ndarray):
        gb = np.matmul(b.swapaxes(1, 2)[:, None], g).reshape(rows)  # G . b
        da = np.matmul(gb, v.reshape(rows).swapaxes(1, 2))
        dv = np.matmul(a.swapaxes(1, 2), gb).reshape(v.shape)
        del gb
        left = left_of(v)
        del v
        # db[i, j] sums G[y, i, c] * (a . X)[y, j, c] over grid rows y and channels c.
        db = np.matmul(
            g.transpose(0, 2, 1, 3).reshape(heads, w, h * c),
            left.transpose(0, 1, 3, 2).reshape(heads, h * c, w),
        )
        del g
        return da, db, dv, np.matmul(b[:, None], left)

    return np.matmul(b[:, None], left_of(v)), vjp  # (a . X) . b^T, one (w, c) slab per grid row


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
    return _node(out, (a, b, v), lambda g: vjp(g, z)[:3])


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
