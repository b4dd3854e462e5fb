"""The dense float64 value type, its record format and score instrumentation.

:class:`Tensor` is an immutable row-major float64 array: the wrapped numpy
buffer is marked read-only at construction, so values can be shared freely
between threads and autograd nodes.  The operations on tensors live in
:mod:`couplformer.autograd`, one op per concept, each with its own shape
checks raising :class:`ShapeError`.  :func:`to_bytes` and :func:`from_bytes`
are the one tensor record format; checkpoints are a concatenation of such
records.  :class:`ScoreTracker` tallies the attention-score elements that the
attention kernels materialize.
"""

from __future__ import annotations

import math
import struct
from contextvars import ContextVar
from typing import Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "zeros",
    "ones",
    "to_bytes",
    "from_bytes",
    "ScoreTracker",
    "note_score_block",
    "note_score_tensor",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def zeros(shape: Sequence[int]) -> Tensor:
    return Tensor._wrap(np.zeros(tuple(shape)))


def ones(shape: Sequence[int]) -> Tensor:
    return Tensor._wrap(np.ones(tuple(shape)))


# --------------------------------------------------------------------------
# Serialization: b"CPLT", u8 rank, rank x u64 little-endian extents, then the
# float64 little-endian payload.  A checkpoint's tensors.bin is a sequence of
# such records.
# --------------------------------------------------------------------------

_MAGIC = b"CPLT"


def to_bytes(t: Tensor) -> bytes:
    arr = t.data
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
# kernels report each raw score matrix (one per head and image) exactly once;
# the softmaxed scores reuse that budget, matching what an in-place softmax
# would keep live.  ``peak_elements`` is the largest single-block total
# observed while the tracker was active.
# --------------------------------------------------------------------------

# Per thread (and asyncio task), like autograd's no_grad flag.
_active_tracker: ContextVar["ScoreTracker | None"] = ContextVar("couplformer_score_tracker", default=None)


class ScoreTracker:
    """Context manager tallying score-tensor elements per attention block.

    One block of a single-image forward records heads x (h^2 + w^2) elements
    for the coupled mechanism and heads x (hw)^2 for the standard one.  A
    forward of B images is one block per layer that records B times as many,
    since the batch runs as B x heads maps.
    """

    def __init__(self) -> None:
        self.block_totals: list[int] = []
        self._token = None

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
        if _active_tracker.get() is not None:
            raise RuntimeError("a ScoreTracker is already active")
        self._token = _active_tracker.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _active_tracker.reset(self._token)


def note_score_block() -> None:
    """Mark the start of one attention block for this thread's active tracker, if any."""
    tracker = _active_tracker.get()
    if tracker is not None:
        tracker.start_block()


def note_score_tensor(scores: np.ndarray) -> None:
    """Report one materialized score array to this thread's active tracker, if any."""
    tracker = _active_tracker.get()
    if tracker is not None:
        tracker.record(scores.size)
