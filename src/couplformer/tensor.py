"""Dense float64 tensors and the small linear-algebra kernel set behind them.

Every kernel validates operand shapes explicitly and raises :class:`ShapeError`
on mismatch; nothing broadcasts implicitly.  The only sanctioned batching is a
leading batch axis on :func:`matmul` and :func:`kron`.  Tensors are immutable:
the wrapped numpy buffer is marked read-only at construction, so values can be
shared freely between threads and autograd nodes.  All kernels are pure
functions.  :func:`to_bytes` and :func:`from_bytes` are the one tensor record
format; checkpoints are a concatenation of such records.
"""

from __future__ import annotations

import math
import struct
from typing import Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "matmul",
    "kron",
    "row_vec",
    "softmax_rows",
    "transpose2d",
    "reshape",
    "add",
    "scale",
    "zeros",
    "ones",
    "to_bytes",
    "from_bytes",
    "ScoreTracker",
    "active_score_tracker",
    "note_score_block",
    "note_score_tensor",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested kernel."""


class NonFiniteError(ValueError):
    """An operand contains NaN or infinity where finite values are required."""


class Tensor:
    """Immutable dense array of float64 in row-major (last axis fastest) order."""

    __slots__ = ("data",)

    def __init__(self, values) -> None:
        arr = np.array(values, dtype=np.float64, order="C")
        arr.flags.writeable = False
        self.data = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        """Adopt a freshly computed array without the defensive copy."""
        # Not ascontiguousarray unconditionally: that would promote 0-d to 1-d.
        arr = np.asarray(arr, dtype=np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        out = cls.__new__(cls)
        out.data = arr
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def tolist(self):
        return self.data.tolist()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def zeros(shape: Sequence[int]) -> Tensor:
    return Tensor._wrap(np.zeros(tuple(shape)))


def ones(shape: Sequence[int]) -> Tensor:
    return Tensor._wrap(np.ones(tuple(shape)))


def _as_array(t: Tensor, name: str) -> np.ndarray:
    if not isinstance(t, Tensor):
        raise TypeError(f"{name}: expected Tensor, got {type(t).__name__}")
    return t.data


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product, 2-D by 2-D; or batched 3-D by 3-D with equal batch extent."""
    x, y = _as_array(a, "matmul"), _as_array(b, "matmul")
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
    return Tensor._wrap(np.matmul(x, y))


def kron(a: Tensor, b: Tensor) -> Tensor:
    """Kronecker product: block matrix with block (i, j) equal to a[i, j] * b.

    Element law: out[i, j] == a[i // p, j // q] * b[i % p, j % q] for
    a of shape (m, n), b of shape (p, q).  Like :func:`matmul`, 3-D operands
    with equal leading extent give one product per batch entry.
    """
    x, y = _as_array(a, "kron"), _as_array(b, "kron")
    batched = x.ndim == 3 and y.ndim == 3 and x.shape[0] == y.shape[0]
    if not (x.ndim == 2 and y.ndim == 2) and not batched:
        raise ShapeError(f"kron: expected 2-D or batched 3-D operands, got {x.shape} and {y.shape}")
    *lead, m, n = x.shape
    p, q = y.shape[-2:]
    block = x[..., :, None, :, None] * y[..., None, :, None, :]
    return Tensor._wrap(block.reshape(*lead, m * p, n * q))


def row_vec(x: Tensor) -> Tensor:
    """Stack the rows of a matrix into one vector (a zero-copy reshape here)."""
    arr = _as_array(x, "row_vec")
    if arr.ndim != 2:
        raise ShapeError(f"row_vec: expected 2-D input, got {arr.shape}")
    return Tensor._wrap(arr.reshape(-1))


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax along the last axis, with max subtraction for stability."""
    arr = _as_array(x, "softmax_rows")
    if arr.ndim < 1:
        raise ShapeError("softmax_rows: expected at least 1-D input")
    top = arr.max(axis=-1, keepdims=True)
    # NaN and +inf reach the row maxima, -inf the minimum: no full-size mask.
    if not (np.isfinite(top).all() and np.isfinite(arr.min(initial=0.0))):
        raise NonFiniteError("softmax_rows: input contains non-finite values")
    e = arr - top
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return Tensor._wrap(e)


def transpose2d(x: Tensor) -> Tensor:
    arr = _as_array(x, "transpose2d")
    if arr.ndim != 2:
        raise ShapeError(f"transpose2d: expected 2-D input, got {arr.shape}")
    return Tensor._wrap(arr.T)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    arr = _as_array(x, "reshape")
    target = tuple(int(s) for s in shape)
    if math.prod(target) != arr.size:
        raise ShapeError(f"reshape: cannot view {arr.size} elements as {target}")
    return Tensor._wrap(arr.reshape(target))


def add(a: Tensor, b: Tensor) -> Tensor:
    x, y = _as_array(a, "add"), _as_array(b, "add")
    if x.shape != y.shape:
        raise ShapeError(f"add: shapes disagree, {x.shape} vs {y.shape}")
    return Tensor._wrap(x + y)


def scale(x: Tensor, c: float) -> Tensor:
    return Tensor._wrap(_as_array(x, "scale") * float(c))


# --------------------------------------------------------------------------
# Serialization: b"CPLT", u8 rank, rank x u64 little-endian extents, then the
# float64 little-endian payload.  A checkpoint's tensors.bin is a sequence of
# such records.
# --------------------------------------------------------------------------

_MAGIC = b"CPLT"


def to_bytes(t: Tensor) -> bytes:
    arr = _as_array(t, "to_bytes")
    header = _MAGIC + struct.pack("<B", arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    return header + arr.astype("<f8", copy=False).tobytes()


def from_bytes(buf: bytes) -> Tensor:
    """Decode a buffer that holds exactly one record."""
    t, rest = _read_record(memoryview(buf))
    if len(rest) != 0:
        raise ValueError(f"trailing bytes after tensor record: {len(rest)}")
    return t


def _read_record(buf: memoryview) -> tuple[Tensor, memoryview]:
    """Decode the record at the start of ``buf``; return it and the bytes after it.

    The header's extents are checked against the bytes present before
    anything is allocated, so a forged extent is a ValueError, not a request
    for memory the buffer cannot back.
    """
    if len(buf) < 5 or bytes(buf[:4]) != _MAGIC:
        raise ValueError("bad tensor header: expected magic 'CPLT'")
    rank = buf[4]
    offset = 5 + 8 * rank
    if len(buf) < offset:
        raise ValueError("truncated tensor header")
    shape = struct.unpack_from(f"<{rank}Q", buf, 5)
    end = offset + 8 * math.prod(shape)  # Python ints: no int64 wrap-around
    if len(buf) < end:
        raise ValueError(
            f"truncated tensor payload: extents {shape} need {end - offset} bytes, "
            f"{len(buf) - offset} remain"
        )
    # Zero-size records pass the length check; numpy still caps their other extents.
    if 8 * math.prod(n for n in shape if n) > np.iinfo(np.intp).max:
        raise ValueError(f"tensor extents {shape} exceed numpy's array size limit")
    data = np.frombuffer(buf[offset:end], dtype="<f8").reshape(shape)
    return Tensor._wrap(data.astype(np.float64)), buf[end:]


# --------------------------------------------------------------------------
# Allocation instrumentation for attention-score tensors.  The attention
# kernels report each raw score matrix (one per head) exactly once; the
# softmaxed scores reuse that budget, matching what an in-place softmax
# would keep live.  ``peak_elements`` is the largest single-block total
# observed while the tracker was active.
# --------------------------------------------------------------------------

_active_tracker: "ScoreTracker | None" = None


class ScoreTracker:
    """Context manager tallying score-tensor elements per attention block."""

    def __init__(self) -> None:
        self.block_totals: list[int] = []

    def start_block(self) -> None:
        self.block_totals.append(0)

    def record(self, n: int) -> None:
        if not self.block_totals:
            self.start_block()
        self.block_totals[-1] += int(n)

    @property
    def peak_elements(self) -> int:
        return max(self.block_totals, default=0)

    @property
    def total_elements(self) -> int:
        return sum(self.block_totals)

    def __enter__(self) -> "ScoreTracker":
        global _active_tracker
        if _active_tracker is not None:
            raise RuntimeError("a ScoreTracker is already active")
        _active_tracker = self
        return self

    def __exit__(self, *exc) -> None:
        global _active_tracker
        _active_tracker = None


def active_score_tracker() -> "ScoreTracker | None":
    return _active_tracker


def note_score_block() -> None:
    """Mark the start of one attention block for the active tracker, if any."""
    if _active_tracker is not None:
        _active_tracker.start_block()


def note_score_tensor(t: Tensor) -> None:
    """Report one materialized score tensor to the active tracker, if any."""
    if _active_tracker is not None:
        _active_tracker.record(t.size)
