import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplformer import autograd as ag
from couplformer import tensor as T
from couplformer.tensor import NonFiniteError, ShapeError, Tensor


def _const(*arrays):
    return tuple(ag.constant(a) for a in arrays)


def test_tensor_is_float64_and_read_only():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert t.shape == (2, 2)
    with pytest.raises(ValueError):
        t.data[0, 0] = 99.0


def test_tensor_copies_its_input():
    src = np.ones((3, 3))
    t = Tensor(src)
    src[0, 0] = 7.0
    assert t.data[0, 0] == 1.0


def test_item_and_errors():
    assert Tensor(2.5).item() == 2.5
    with pytest.raises(ShapeError):
        Tensor([1.0, 2.0]).item()


def test_zeros_ones():
    assert np.all(T.zeros((2, 3)).data == 0.0)
    assert np.all(T.ones((4,)).data == 1.0)


# -- forward values of the autograd ops, on constants ----------------------

# -- matmul ----------------------------------------------------------------


def _matmul_loops(a, b):
    """Triple-loop reference product, no numpy linear algebra."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def test_matmul_against_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m, k, n = rng.integers(1, 6, size=3)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        got = ag.matmul(*_const(a, b)).value.data
        np.testing.assert_allclose(got, _matmul_loops(a, b), rtol=0, atol=1e-12)


def test_matmul_batched():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 2, 4))
    b = rng.standard_normal((3, 4, 5))
    got = ag.matmul(*_const(a, b)).value.data
    for i in range(3):
        np.testing.assert_allclose(got[i], a[i] @ b[i], atol=1e-12)


def test_matmul_shared_right_operand():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 2, 4))
    b = rng.standard_normal((4, 5))
    got = ag.matmul(*_const(a, b)).value.data
    assert got.shape == (3, 2, 5)
    for i in range(3):
        np.testing.assert_allclose(got[i], _matmul_loops(a[i], b), rtol=0, atol=1e-12)


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        ag.matmul(*_const(np.ones((2, 3)), np.ones((2, 3))))
    with pytest.raises(ShapeError):
        ag.matmul(*_const(np.ones((2, 2, 3)), np.ones((3, 3, 4))))
    with pytest.raises(ShapeError):
        ag.matmul(*_const(np.ones(3), np.ones(3)))
    with pytest.raises(ShapeError):
        ag.matmul(*_const(np.ones((2, 2, 3)), np.ones((2, 4))))
    with pytest.raises(ShapeError):
        ag.matmul(*_const(np.ones((2, 3)), np.ones((2, 3, 4))))


# -- kronecker product and row vectorization -------------------------------


def test_kron_matches_numpy():
    rng = np.random.default_rng(9)
    for _ in range(10):
        m, n, p, q = rng.integers(1, 5, size=4)
        a = rng.standard_normal((m, n))
        b = rng.standard_normal((p, q))
        np.testing.assert_array_equal(ag.kron(*_const(a, b)).value.data, np.kron(a, b))
    a3, b3 = rng.standard_normal((3, 2, 2)), rng.standard_normal((3, 4, 1))
    got = ag.kron(*_const(a3, b3)).value.data
    for i in range(3):
        np.testing.assert_array_equal(got[i], np.kron(a3[i], b3[i]))
    with pytest.raises(ShapeError):
        ag.kron(*_const(a3, b3[:2]))
    with pytest.raises(ShapeError):
        ag.kron(*_const(a3, b3[0]))


def test_kron_block_structure():
    a = np.array([[2.0, -1.0], [0.5, 3.0]])
    b = np.arange(6.0).reshape(2, 3)
    k = ag.kron(*_const(a, b)).value.data
    for i in range(2):
        for j in range(2):
            np.testing.assert_array_equal(k[2 * i : 2 * i + 2, 3 * j : 3 * j + 3], a[i, j] * b)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_kron_element_law(h, w, seed):
    """kron(a, b)[i, j] == a[i//w, j//w] * b[i%w, j%w] for square factors."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((h, h))
    b = rng.standard_normal((w, w))
    k = ag.kron(*_const(a, b)).value.data
    for i in range(h * w):
        for j in range(h * w):
            assert k[i, j] == a[i // w, j // w] * b[i % w, j % w]


def test_row_vec_ordering_and_inverse():
    """row(X), the vector Lemma 1 acts on, is the row-major reshape to 1-D."""
    x = np.arange(12.0).reshape(3, 4)
    v = ag.reshape(ag.constant(x), (12,)).value.data
    for i in range(3):
        for j in range(4):
            assert v[i * 4 + j] == x[i, j]
    back = ag.reshape(ag.constant(v), (3, 4)).value.data
    np.testing.assert_array_equal(back, x)
    with pytest.raises(ShapeError):
        ag.reshape(ag.constant(v), (4, 4))


def test_vec_trick_identity():
    """(A kron B) @ row(X) equals row(A @ X @ B.T)."""
    rng = np.random.default_rng(10)
    for _ in range(20):
        h, w = rng.integers(1, 7, size=2)
        a = rng.standard_normal((h, h))
        b = rng.standard_normal((w, w))
        x = rng.standard_normal((h, w))
        lhs = ag.kron(*_const(a, b)).value.data @ x.reshape(-1)
        rhs = (a @ x @ b.T).reshape(-1)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


# -- softmax ---------------------------------------------------------------


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(11)
    s = ag.softmax_rows(ag.constant(rng.standard_normal((5, 7)))).value.data
    np.testing.assert_allclose(s.sum(axis=-1), np.ones(5), atol=1e-14)
    assert np.all(s > 0)


def test_softmax_shift_invariance_and_stability():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((4, 6))
    s1 = ag.softmax_rows(ag.constant(x)).value.data
    s2 = ag.softmax_rows(ag.constant(x + 123.0)).value.data
    np.testing.assert_allclose(s1, s2, atol=1e-13)
    big = ag.softmax_rows(ag.constant(np.array([[1e4, 1e4 - 1.0]]))).value.data
    assert np.all(np.isfinite(big))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_softmax_rows_property(rows, cols, seed):
    x = np.random.default_rng(seed).standard_normal((rows, cols)) * 5.0
    s = ag.softmax_rows(ag.constant(x)).value.data
    np.testing.assert_allclose(s.sum(axis=-1), np.ones(rows), atol=1e-12)


def test_softmax_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        ag.softmax_rows(ag.constant(np.array([[1.0, np.nan]])))
    with pytest.raises(NonFiniteError):
        ag.softmax_rows(ag.constant(np.array([[np.inf, 0.0]])))
    with pytest.raises(NonFiniteError):
        ag.softmax_rows(ag.constant(np.array([[0.0, 1.0], [2.0, -np.inf]])))


# -- small ops -------------------------------------------------------------


def test_transpose_reshape_add_scale_slice():
    x = np.arange(6.0).reshape(2, 3)
    c = ag.constant(x)
    np.testing.assert_array_equal(ag.permute(c, (1, 0)).value.data, x.T)
    np.testing.assert_array_equal(ag.reshape(c, (3, 2)).value.data, x.reshape(3, 2))
    np.testing.assert_array_equal(ag.add(c, c).value.data, 2 * x)
    np.testing.assert_array_equal(ag.scale(c, -0.5).value.data, -0.5 * x)


def test_kernel_shape_errors():
    x = ag.constant(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        ag.permute(ag.constant(np.ones(3)), (1, 0))
    with pytest.raises(ShapeError):
        ag.reshape(x, (4, 2))
    with pytest.raises(ShapeError):
        ag.add(x, ag.constant(np.ones((3, 2))))


# -- serialization ---------------------------------------------------------


def test_tensor_bytes_layout():
    """One element, known bytes: magic, rank, extent, payload, all little-endian."""
    t = Tensor(np.array([1.0]))
    want = b"CPLT" + struct.pack("<B", 1) + struct.pack("<Q", 1) + struct.pack("<d", 1.0)
    assert T.to_bytes(t) == want


@pytest.mark.parametrize("shape", [(), (3,), (2, 3), (4, 1, 2), (2, 2, 2, 2)])
def test_bytes_round_trip(shape):
    rng = np.random.default_rng(hash(shape) % (2**32))
    arr = rng.standard_normal(shape)
    back = T.from_bytes(T.to_bytes(Tensor(arr)))
    np.testing.assert_array_equal(back.data, arr)
    assert back.shape == tuple(shape)


def test_from_bytes_rejects_garbage():
    with pytest.raises(ValueError):
        T.from_bytes(b"NOPE" + bytes(16))
    good = T.to_bytes(Tensor(np.ones((2, 2))))
    with pytest.raises(ValueError):
        T.from_bytes(good[:-4])  # truncated payload
    with pytest.raises(ValueError):
        T.from_bytes(good + b"\x00")  # trailing bytes


def test_file_round_trip(tmp_path):
    arr = np.random.default_rng(3).standard_normal((5, 4))
    path = tmp_path / "t.cplt"
    path.write_bytes(T.to_bytes(Tensor(arr)))
    np.testing.assert_array_equal(T.from_bytes(path.read_bytes()).data, arr)


def test_record_stream_round_trip():
    """Concatenated records, as in a checkpoint, decode one after another."""
    rng = np.random.default_rng(4)
    tensors = [Tensor(rng.standard_normal(s)) for s in [(2,), (3, 3), ()]]
    rest = memoryview(b"".join(T.to_bytes(t) for t in tensors))
    for t in tensors:
        got, rest = T._read_record(rest)
        np.testing.assert_array_equal(got.data, t.data)
        assert got.shape == t.shape
    assert len(rest) == 0


def test_read_record_truncation():
    record = T.to_bytes(Tensor(np.ones((4,))))
    for cut in (record[:3], record[:9], record[:-3]):  # magic, header, payload
        with pytest.raises(ValueError, match="CPLT|truncated"):
            T._read_record(memoryview(cut))


def _header(*extents: int) -> bytes:
    return b"CPLT" + struct.pack("<B", len(extents)) + struct.pack(f"<{len(extents)}Q", *extents)


def test_extents_are_counted_exactly_before_allocating():
    """Forged extents fail the length check: 2**37 elements would need 1 TiB,
    and (2**32, 2**32) elements wrap to 0 in int64 arithmetic.  A zero-element
    record whose other extents pass numpy's index range gets a named error."""
    for extents in ((2**37,), (2**32, 2**32)):
        blob = _header(*extents) + bytes(64)
        with pytest.raises(ValueError, match="truncated tensor payload"):
            T.from_bytes(blob)
    for extents in ((2**32, 2**32, 0), (2**63, 2, 0), (2**62, 0)):
        with pytest.raises(ValueError, match=re.escape(f"tensor extents {extents}")):
            T.from_bytes(_header(*extents))
    assert T.from_bytes(_header(2**32, 0)).shape == (2**32, 0)


# -- score instrumentation -------------------------------------------------


def test_score_tracker_blocks_and_peak():
    with T.ScoreTracker() as tracker:
        T.note_score_block()
        T.note_score_tensor(np.ones((3, 3)))
        T.note_score_tensor(np.ones((2, 2)))
        T.note_score_block()
        T.note_score_tensor(np.ones((5,)))
    assert tracker.block_totals == [13, 5]
    assert tracker.peak_elements == 13
    assert tracker.total_elements == 18


def test_score_tracker_is_exclusive():
    with T.ScoreTracker():
        with pytest.raises(RuntimeError):
            with T.ScoreTracker():
                pass
    assert T._active_tracker is None


def test_score_notes_are_noops_without_tracker():
    T.note_score_block()
    T.note_score_tensor(np.ones((2, 2)))
    assert T._active_tracker is None
