"""Exact linear algebra: modular ranks, the modulus guard and the integer kernels."""

import re
from fractions import Fraction

import numpy as np
import pytest

from bpsing import linalg
from bpsing.grading import WeightSystem
from bpsing.linalg import (
    DEFAULT_MODULUS,
    PARANOIA_MODULUS,
    SparseMatrix,
    _exact_div,
    _gauss_jordan,
    check_modulus,
    integer_matrix,
    inverse_unimodular,
    rank_exact,
    rank_mod,
    residues,
)
from bpsing.mforacle import _assemble, _layout, _pair_degrees, _recipe, mf_of
from bpsing.stable import U, StableObject
from test_qalg import _ref_inverse_unimodular


def _low_rank(rng, rows, cols, rank):
    return rng.integers(-3, 4, (rows, rank)) @ rng.integers(-3, 4, (rank, cols))


def test_rank_mod_matches_exact_rank():
    rng = np.random.default_rng(5)
    for _ in range(60):
        rows, cols = rng.integers(1, 13, 2)
        a = _low_rank(rng, rows, cols, int(rng.integers(0, min(rows, cols) + 1)))
        # zero rows and columns force row swaps and empty pivot columns
        a[rng.random(rows) < 0.3] = 0
        a[:, rng.random(cols) < 0.3] = 0
        assert rank_mod(a, DEFAULT_MODULUS) == rank_exact(a.tolist())


def test_rank_mod_small_field_and_edge_shapes():
    assert rank_mod(np.array([[2, 4], [1, 2]]), 2) == 1
    assert rank_mod(np.array([[0, 1], [1, 0]]), 3) == 2
    assert rank_mod(np.zeros((0, 3), dtype=np.int64), DEFAULT_MODULUS) == 0
    assert rank_mod(np.zeros((4, 5), dtype=np.int64), DEFAULT_MODULUS) == 0
    assert rank_mod(np.eye(6, dtype=np.int64)[::-1], PARANOIA_MODULUS) == 6


def test_modulus_guard():
    for bad in (32004, 1, 2**31 + 11, 4294967311):
        with pytest.raises(ValueError):
            check_modulus(bad)
        with pytest.raises(ValueError):
            rank_mod(np.eye(2, dtype=np.int64), bad)


def test_largest_modulus_is_exact():
    # 2**31 - 1 is prime; residue products stay below 2**62
    q = 2**31 - 1
    check_modulus(q)
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = rng.integers(q // 2, q, (6, 1))
        v = rng.integers(q // 2, q, (1, 5))
        a = (u * v) % q
        assert rank_mod(a, q) == 1


def test_valid_modulus_checked_once():
    q = 2**31 - 1
    a = np.eye(3, dtype=np.int64)
    assert rank_mod(a, q) == rank_mod(a, q) == 3
    assert check_modulus.cache_info().hits >= 1
    # a rejected modulus is not remembered
    for _ in range(2):
        with pytest.raises(ValueError):
            rank_mod(a, 32004)


def test_modulus_must_be_an_integer():
    # 7.0 equals 7 and hashes alike, so an untyped cache would pass it
    check_modulus.cache_clear()
    a = np.array([[7, 14], [1, 2]])
    for _ in range(2):
        for bad in (2.5, 7.0):
            with pytest.raises(TypeError):
                check_modulus(bad)
            with pytest.raises(TypeError):
                rank_mod(a, bad)
        assert check_modulus(7) == 7
    q = check_modulus(np.int64(7))
    assert q == 7 and type(q) is int
    assert rank_mod(a, np.int64(7)) == rank_mod(a, 7) == 1



# -- the rank kernel against the swapping one ------------------------------
#
# The reference below is the row-swapping elimination that updates every
# row below the pivot across the full width right of the pivot column.
# ``rank_mod`` eliminates sparse matrices in batches of pivots and dense
# blocks column by column; each way must give the same rank on every
# input.


def _ref_rank_mod(a, q):
    check_modulus(q)
    if a.size == 0:
        return 0
    m = np.asarray(a, dtype=np.int64) % q
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        # rows from r on are zero left of column c
        nz = np.flatnonzero(m[r:, c])
        if not nz.size:
            continue
        piv = r + nz[0]
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        inv = pow(int(m[r, c]), -1, q)
        m[r, c:] = (m[r, c:] * inv) % q
        # after the swap, row piv holds the old row r, zero in column c
        below = r + nz[1:]
        if below.size:
            m[below, c:] = (m[below, c:] - np.outer(m[below, c], m[r, c:])) % q
        r += 1
        if r == rows:
            break
    return r


def _sparse_low_rank(rng, rows, cols, density, q):
    """A rows x cols matrix of rank at most k, about ``density`` nonzero:
    sparse combinations of k sparse rows with entries of either sign up
    to q in size."""
    k = int(rng.integers(0, min(rows, cols) + 1))
    basis = np.where(rng.random((k, cols)) < density, rng.integers(-q + 1, q, (k, cols)), 0)
    mix = np.where(rng.random((rows, k)) < 2 / max(k, 1), rng.integers(-3, 4, (rows, k)), 0)
    a = mix @ basis
    # forced zero rows and columns
    a[rng.random(rows) < 0.15] = 0
    a[:, rng.random(cols) < 0.15] = 0
    return a


def _dense_of(m):
    """The int64 array of a ``SparseMatrix`` of int64 values: its
    entries summed per cell."""
    out = np.zeros(m.shape, dtype=np.int64)
    np.add.at(out.reshape(-1), m.keys, m.values)
    return out


def _coordinate_forms(a, q, rng):
    """``a`` as a ``SparseMatrix`` three ways, in shuffled order: each
    nonzero split into two entries, plus pairs that cancel mod q at a
    few cells; with int64 values, uint64 values of at least 2**63 and
    Python ints beyond int64, all of the same residues."""
    keys = np.flatnonzero(np.ravel(a))
    vals = np.ravel(a)[keys]
    part = rng.integers(-q, q, keys.size)
    cancel = rng.integers(0, max(a.size, 1), 3 if a.size else 0)
    other = rng.integers(0, q, cancel.size)
    keys = np.concatenate([keys, keys, cancel, cancel])
    vals = np.concatenate([vals - part, part, other, q - other])
    order = rng.permutation(keys.size)
    keys, vals = keys[order], vals[order]
    # q * (2**63 // q + 1) lies in [2**63, 2**63 + q)
    wide = (vals % q).astype(np.uint64) + np.uint64(q * (2**63 // q + 1))
    return [SparseMatrix(a.shape, keys, v) for v in (vals, wide, vals.astype(object) - 2**70 * q)]


def _oracle_differentials():
    """The differentials of two deep Hom complexes, about 1% to 2%
    nonzero: U[1,1](0,0;-30) against U[1,1] over (3,4) and
    U[1,1,1](0,0,0;-4) against U[1,1,1] over (2,3,4)."""
    out = []
    for p, level in (((3, 4), -30), ((2, 3, 4), -4)):
        ws = WeightSystem(p)
        ell = (1,) * ws.n
        f = mf_of(StableObject(ws, ell, ws.element((0,) * ws.n, level), 0))
        g = mf_of(U(ws, ell))
        terms = [_layout(ws, _pair_degrees(f, g, k, 0)) for k in (-1, 0, 1)]
        out += [_dense_of(_assemble(_recipe(f, g, k, terms[k + 1], terms[k + 2]))) for k in (-1, 0)]
    return out


@pytest.mark.parametrize("q", [2, 3, 32003, 65537, 2**31 - 1])
def test_rank_mod_matches_reference_kernel(q, monkeypatch):
    rng = np.random.default_rng(q % 1009)
    inputs = []
    for _ in range(40):
        rows, cols = (int(x) for x in rng.integers(0, 61, 2))
        density = float(rng.uniform(0.01, 0.2))
        inputs += [_sparse_low_rank(rng, rows, cols, density, q), _sparse_low_rank(rng, cols, rows, density, q)]
    for rows, cols in ((400, 300), (300, 400), (150, 40), (60, 200)):
        inputs.append(_sparse_low_rank(rng, rows, cols, float(rng.uniform(0.002, 0.03)), q))
    inputs += _oracle_differentials()
    inputs += [np.zeros(shape, dtype=np.int64) for shape in ((0, 0), (0, 7), (7, 0), (4, 6))]
    default = linalg.DENSE
    assert sum(np.count_nonzero(a) * default < a.size for a in inputs) >= 10
    for a in inputs:
        before = a.copy()
        want = _ref_rank_mod(a, q)
        coordinates = _coordinate_forms(a, q, rng)
        # sparse rounds to the end, the rank_mod dispatch, the column loop alone
        for dense in (0, default, a.size + 1):
            monkeypatch.setattr(linalg, "DENSE", dense)
            # column-major input: the kernel reads it in row-major order
            for layout in (a, np.asfortranarray(a)):
                assert rank_mod(layout, q) == want, (a.shape, dense)
            for m in coordinates:
                assert rank_mod(m, q) == want, (a.shape, dense, m.values.dtype)
        assert np.array_equal(a, before)


def test_rank_mod_rejects_non_integer_dtypes():
    # a float would be truncated: 0.5 used to have rank 0
    for a in (np.array([[0.5]]), np.eye(3), np.array([[1, 2], [3, 4]], dtype=np.float32), np.array([[True]])):
        with pytest.raises(ValueError, match="integer matrix, not dtype"):
            rank_mod(a, DEFAULT_MODULUS)
    with pytest.raises(ValueError, match="integer entries"):
        rank_mod(np.array([[1, 0.5]], dtype=object), DEFAULT_MODULUS)


def test_rank_mod_reduces_wide_integers_exactly():
    # 2**63 + 1 = 0 mod 3; as int64 it would wrap to a nonzero residue
    assert rank_mod(np.array([[2**63 + 1]], dtype=np.uint64), 3) == 0
    assert rank_mod(np.array([[2**64 - 2, 1]], dtype=np.uint64), 3) == 1
    # Python ints beyond int64: 2**70 = 1 mod 3, so both rows agree mod 3
    big = np.array([[2**70, 1], [1, 1]], dtype=object)
    assert rank_mod(big, 3) == 1 and rank_mod(big, 5) == 2
    for dtype in (np.int8, np.uint8, np.int32, np.uint32):
        assert rank_mod(np.array([[1, 2], [3, 4]], dtype=dtype), 2) == 1
    # the same entries in sparse matrices, whose nonzeros alone are reduced
    for wide in (np.zeros((40, 40), dtype=np.uint64), np.zeros((40, 40), dtype=object)):
        wide[0, 0], wide[5, 7] = 2**63 + 1, 2**64 - 2
        assert rank_mod(wide, 3) == 1 and rank_mod(wide, 5) == 2
    big = np.zeros((40, 40), dtype=object)
    big[3, 1], big[3, 2], big[9, 1], big[9, 2] = 2**70, 1, 1, 1
    assert rank_mod(big, 3) == 1 and rank_mod(big, 5) == 2


def test_sparse_matrix_sums_repeated_keys():
    # (0, 1) as 1 + 1, and (1, 0) as 2 + 1 - 3: rank 1, but 0 mod 2
    m = SparseMatrix((2, 2), np.array([1, 2, 1, 2, 2]), np.array([1, 2, 1, 1, -3]))
    assert np.array_equal(_dense_of(m), [[0, 2], [0, 0]])
    assert rank_mod(m, 3) == 1 and rank_mod(m, 2) == 0
    assert rank_mod(SparseMatrix((3, 4), [], []), DEFAULT_MODULUS) == 0
    assert not (m.keys.flags.writeable or m.values.flags.writeable)


@pytest.mark.parametrize(
    "shape, keys, values, message",
    [
        ((-1, 3), [], [], "nonnegative integers"),
        ((3, -1), [], [], "nonnegative integers"),
        ((3,), [], [], "nonnegative integers"),
        ((2.0, 3), [], [], "nonnegative integers"),
        ((2, 3), [6], [1], "outside the cells"),
        ((2, 3), [-1], [1], "outside the cells"),
        ((0, 3), [0], [1], "outside the cells"),
        ((2, 3), [1.0], [1], "integer keys"),
        ((2, 3), [1], [0.5], "integer matrix, not dtype"),
        ((2, 3), [1], [True], "integer matrix, not dtype"),
        ((2, 3), [1, 2], np.array([1, 0.5], dtype=object), "integer entries"),
        ((2, 3), [1, 2], [1], "one length"),
        ((2, 3), [[1]], [[1]], "one length"),
        # 2**32 cells: flat keys and pivot priorities would leave int64
        ((2**16, 2**16), [], [], "int64 bounds"),
        ((2**32, 1), [], [], "int64 bounds"),
        # True used to be read as 1
        ((True, 3), [0], [1], "nonnegative integers"),
    ],
)
def test_sparse_matrix_rejects_malformed_coordinates(shape, keys, values, message):
    with pytest.raises(ValueError, match=message):
        rank_mod(SparseMatrix(shape, np.asarray(keys), np.asarray(values)), DEFAULT_MODULUS)


def test_rank_mod_of_no_entries_skips_the_column_loop(monkeypatch):
    # 0 * DENSE >= 0 cells must not send an empty matrix to the column
    # loop, which would scan every one of its columns
    def column_loop(m, q):
        raise RuntimeError(f"column loop on a {m.shape} matrix")

    monkeypatch.setattr(linalg, "_column_rank", column_loop)
    for shape in ((0, 2**31 - 1), (2**31 - 1, 0), (3, 10**6)):
        for a in (np.zeros(shape, dtype=np.int8), SparseMatrix(shape, [], [])):
            assert rank_mod(a, DEFAULT_MODULUS) == 0, shape


def test_sparse_matrix_accepts_the_largest_shape():
    m = SparseMatrix((2**16, 2**16 - 1), np.array([0, 2**32 - 2**16 - 1]), np.array([1, 1]))
    assert rank_mod(m, DEFAULT_MODULUS) == 2


def test_rank_mod_rejects_shapes_that_are_not_2d():
    for a in (np.arange(4), np.zeros((2, 2, 2), dtype=np.int64), np.int64(3)):
        with pytest.raises(ValueError, match=re.escape(f"2-D matrix, not shape {a.shape}")):
            rank_mod(a, DEFAULT_MODULUS)


def test_rank_mod_accepts_array_likes():
    assert rank_mod([[1, 2], [2, 4]], DEFAULT_MODULUS) == 1
    assert rank_mod(((0, 1), (1, 0)), 3) == 2
    assert rank_mod([[2**70, 1], [1, 1]], 3) == 1
    assert rank_mod([[]], DEFAULT_MODULUS) == 0

# -- the integer kernel against the direct loop ------------------------------
#
# The reference is a Fraction-based Gauss-Jordan inverse, exact at every
# step; it lives with the Coxeter tests in test_qalg, which use it too.
# The fraction-free ``inverse_unimodular`` must give the same answers and
# raise on the same inputs.


def _random_unimodular(rng, n):
    # L U P with +-1 on both diagonals
    lower = np.tril(rng.integers(-3, 4, (n, n)), -1) + np.diag(rng.choice([-1, 1], n))
    upper = np.triu(rng.integers(-3, 4, (n, n)), 1) + np.diag(rng.choice([-1, 1], n))
    perm = np.eye(n, dtype=np.int64)[rng.permutation(n)]
    return (lower @ upper @ perm).tolist()


def _outcome(fn, a):
    try:
        return fn(a)
    except ValueError as exc:
        return ValueError, str(exc)


def test_inverse_matches_fraction_reference_on_unimodular():
    rng = np.random.default_rng(17)
    for n in range(15):
        for _ in range(4):
            a = _random_unimodular(rng, n)
            got = inverse_unimodular(a)
            assert got == _ref_inverse_unimodular(a), a
            assert all(type(x) is int for row in got for x in row)
            assert (np.array(a, dtype=object).reshape(n, n) @ np.array(got, dtype=object).reshape(n, n) == np.eye(n, dtype=int)).all()


def test_kernels_match_references_on_random_integer_matrices():
    rng = np.random.default_rng(23)
    for n in range(13):
        for _ in range(6):
            a = rng.integers(-5, 6, (n, n)).tolist()
            # mostly not unimodular: both must raise, with the same message
            assert _outcome(inverse_unimodular, a) == _outcome(_ref_inverse_unimodular, a), a


def test_kernels_accept_numpy_input():
    a = np.array([[2, 1], [1, 1]], dtype=np.int64)
    assert inverse_unimodular(a) == [[1, -1], [-1, 2]]
    assert type(inverse_unimodular(a)[0][0]) is int


def test_inverse_error_cases():
    singular = ([[1, 2], [2, 4]], [[0, 0], [0, 0]], [[1, 1, 0], [0, 1, 1], [1, 2, 1]])
    for a in singular:
        with pytest.raises(ValueError, match="singular"):
            inverse_unimodular(a)
        with pytest.raises(ValueError, match="singular"):
            _ref_inverse_unimodular(a)
    det_two = ([[2, 0], [0, 1]], [[1, 1], [-1, 1]], [[0, 1, 0], [2, 0, 0], [0, 0, 1]], [[1, 0], [0, -2]])
    for a in det_two:
        with pytest.raises(ValueError, match="not unimodular"):
            inverse_unimodular(a)
        with pytest.raises(ValueError, match="not unimodular"):
            _ref_inverse_unimodular(a)


def test_kernels_reject_non_square_input():
    for a in ([[1, 0, 5], [0, 1, 7]], [[1, 2, 9], [3, 4, 9]], [[1, 2], [3]], [[1], [2]], [[]]):
        with pytest.raises(ValueError, match="not square"):
            inverse_unimodular(a)


@pytest.mark.parametrize("a", [[1, 2], 5, np.array([1, 2]), np.array(5)])
def test_kernels_reject_input_that_is_not_2d(a):
    # the same ValueError that rank_mod gives, not a TypeError from len
    for kernel in (inverse_unimodular, rank_exact):
        with pytest.raises(ValueError, match="2-D"):
            kernel(a)
    with pytest.raises(ValueError, match="2-D"):
        rank_mod(a, DEFAULT_MODULUS)


def test_kernels_stay_exact_beyond_int64():
    # entries near 2**62 overflow int64 products; Python ints do not
    big = 2**62 + 1
    a = [[1, big], [0, 1]]
    assert inverse_unimodular(a) == [[1, -big], [0, 1]]


def test_inexact_division_raises():
    num = np.array([[4, 6], [8, 7]], dtype=object)
    assert _exact_div(num[:1], 2).tolist() == [[2, 3]]
    with pytest.raises(ArithmeticError, match="divide exactly"):
        _exact_div(num, 2)


# -- one intake and one elimination -----------------------------------------
#
# The reference below is the Fraction-based Gauss-Jordan rank that
# rank_exact used before it shared the fraction-free elimination of
# inverse_unimodular; both must give the same rank on every input.


def _ref_rank_exact(a):
    m = [[Fraction(int(x)) for x in row] for row in a]
    if not m or not m[0]:
        return 0
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return r


def test_rank_exact_matches_fraction_reference():
    rng = np.random.default_rng(29)
    for _ in range(3000):
        rows, cols = (int(x) for x in rng.integers(0, 11, 2))
        a = _low_rank(rng, rows, cols, int(rng.integers(0, min(rows, cols) + 1)))
        # zero rows and columns force row swaps and columns without a pivot
        a[rng.random(rows) < 0.3] = 0
        a[:, rng.random(cols) < 0.3] = 0
        assert rank_exact(a) == _ref_rank_exact(a.tolist()), a.tolist()
    # entries beyond int64 stay exact
    big = 2**70
    assert rank_exact([[big, big + 1], [2 * big, 2 * big + 2]]) == 1


def test_elimination_returns_rank_and_last_pivot():
    # the last pivot of a square matrix of full rank is +-det
    rng = np.random.default_rng(31)
    for n in range(1, 8):
        a = rng.integers(-4, 5, (n, n))
        m, rank, last = _gauss_jordan(np.array(a.tolist(), dtype=object))
        if rank == n:
            assert abs(last) == abs(round(np.linalg.det(a))), a.tolist()
            assert (m == last * np.eye(n, dtype=int)).all()
    # columns without a pivot are skipped, and ``cols`` bounds the columns
    a = np.array([[0, 1, 2], [0, 2, 4]], dtype=object)
    assert _gauss_jordan(a.copy())[1:] == (1, 1)
    assert _gauss_jordan(a.copy(), 1)[1:] == (0, 1)


def test_integer_matrix_is_the_one_intake():
    a = np.arange(6, dtype=np.int64).reshape(2, 3)
    assert integer_matrix(a) is a  # no copy
    for dtype in (np.int8, np.uint16, np.uint64):
        assert integer_matrix(a.astype(dtype)).dtype == dtype
    assert integer_matrix([[2**70]])[0, 0] == 2**70
    for empty, shape in (([], (0, 0)), ([[]], (1, 0)), (np.zeros((0, 3)), (0, 3))):
        got = integer_matrix(empty)
        assert got.shape == shape and got.dtype == np.int64
    with pytest.raises(ValueError, match="ragged rows"):
        integer_matrix([[1], [1, 1]])
    with pytest.raises(ValueError, match=re.escape("2-D matrix, not shape (2,)")):
        integer_matrix([1, 2])
    with pytest.raises(ValueError, match="integer matrix, not dtype float64"):
        integer_matrix([[1, 0.5]])
    with pytest.raises(ValueError, match="integer entries"):
        integer_matrix(np.array([[1, Fraction(1, 2)]], dtype=object))


def test_object_matrices_take_exactly_integer_entries():
    # plain ints take the fast path; bools and numpy integers are
    # integers too, as isinstance says, and anything else raises
    fine = [[1, 2**70], [True, -3], [np.int64(4), np.uint8(5)]]
    for rows in fine:
        assert integer_matrix(np.array([rows], dtype=object)).dtype == object
    for bad in (0.0, 1.5, Fraction(2), "3", None, 2j, np.float64(1)):
        for rows in ([[1, bad]], [[bad]], [[np.int64(1), bad]]):
            with pytest.raises(ValueError, match="integer entries"):
                integer_matrix(np.array(rows, dtype=object))


def test_residues_reduce_before_the_cast():
    q = DEFAULT_MODULUS
    wide = np.array([[2**64 - 1, 2**63]], dtype=np.uint64)
    assert residues(wide, q).tolist() == [[(2**64 - 1) % q, 2**63 % q]]
    assert residues([[2**70, -1]], q).tolist() == [[2**70 % q, q - 1]]
    a = np.array([[-1, q + 2]], dtype=np.int64)
    got = residues(a, q)
    assert got.dtype == np.int64 and got.tolist() == [[q - 1, 2]] and a.tolist() == [[-1, q + 2]]


def test_empty_list_is_the_empty_matrix_everywhere():
    assert rank_mod([], DEFAULT_MODULUS) == rank_exact([]) == 0
    assert inverse_unimodular([]) == []


@pytest.mark.parametrize(
    "call",
    [
        lambda: inverse_unimodular([[1.5, 0], [0, 1]]),
        lambda: rank_exact([[0.4, 0], [0, 1]]),
        lambda: rank_exact([[1], [1, 1]]),
        lambda: rank_exact(np.array([[1, 0.5]], dtype=object)),
    ],
    ids=["inverse-float", "rank-float", "rank-ragged", "rank-object-float"],
)
def test_kernels_reject_non_integer_matrices(call):
    # each used to truncate its input silently
    with pytest.raises(ValueError):
        call()
