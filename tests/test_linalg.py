"""Exact linear algebra: modular ranks, the modulus guard and the integer kernels."""

import re
from fractions import Fraction

import numpy as np
import pytest

from bpsing.linalg import (
    DEFAULT_MODULUS,
    PARANOIA_MODULUS,
    charpoly_int,
    _exact_div,
    check_modulus,
    inverse_unimodular,
    rank_exact,
    rank_mod,
)


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



# -- the sparse-aware rank kernel against the swapping one ------------------
#
# The reference below is the row-swapping elimination that updates every
# row below the pivot across the full width right of the pivot column;
# the kernel retires pivot rows and updates only the pivot row's support,
# and must give the same rank on every input.


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


@pytest.mark.parametrize("q", [2, 3, 32003, 65537, 2**31 - 1])
def test_rank_mod_matches_reference_kernel(q):
    rng = np.random.default_rng(q % 1009)
    for _ in range(40):
        rows, cols = (int(x) for x in rng.integers(0, 61, 2))
        density = float(rng.uniform(0.01, 0.2))
        for a in (_sparse_low_rank(rng, rows, cols, density, q), _sparse_low_rank(rng, cols, rows, density, q)):
            before = a.copy()
            assert rank_mod(a, q) == _ref_rank_mod(a, q), (a.shape, density)
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


def test_rank_mod_rejects_shapes_that_are_not_2d():
    for a in (np.arange(4), np.zeros((2, 2, 2), dtype=np.int64), np.int64(3)):
        with pytest.raises(ValueError, match=re.escape(f"2-D matrix, not shape {a.shape}")):
            rank_mod(a, DEFAULT_MODULUS)


def test_rank_mod_accepts_array_likes():
    assert rank_mod([[1, 2], [2, 4]], DEFAULT_MODULUS) == 1
    assert rank_mod(((0, 1), (1, 0)), 3) == 2
    assert rank_mod([[2**70, 1], [1, 1]], 3) == 1
    assert rank_mod([[]], DEFAULT_MODULUS) == 0

# -- the integer kernels against the direct loops ---------------------------
#
# The references below are the Fraction-based Gauss-Jordan inverse and the
# pure-Python Faddeev-LeVerrier loop that the object-array kernels replace;
# both must give the same answers and raise on the same inputs.


def _ref_inverse_unimodular(a):
    n = len(a)
    m = [[Fraction(int(a[i][j])) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    out = [[m[i][n + j] for j in range(n)] for i in range(n)]
    if any(x.denominator != 1 for row in out for x in row):
        raise ValueError("matrix is not unimodular over the integers")
    return [[int(x) for x in row] for row in out]


def _ref_charpoly_int(a):
    n = len(a)
    a = [[int(x) for x in row] for row in a]
    coeffs = [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        tr = sum(am[i][i] for i in range(n))
        if tr % k:
            raise ArithmeticError("Faddeev-LeVerrier division must be exact")
        c = -tr // k
        coeffs.append(c)
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return tuple(coeffs)


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
            got = charpoly_int(a)
            assert got == _ref_charpoly_int(a), a
            assert all(type(x) is int for x in got)
            # mostly not unimodular: both must raise, with the same message
            assert _outcome(inverse_unimodular, a) == _outcome(_ref_inverse_unimodular, a), a


def test_kernels_accept_numpy_input():
    a = np.array([[2, 1], [1, 1]], dtype=np.int64)
    assert inverse_unimodular(a) == [[1, -1], [-1, 2]]
    assert charpoly_int(a) == (1, -3, 1)
    assert type(inverse_unimodular(a)[0][0]) is int and type(charpoly_int(a)[1]) is int


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
        with pytest.raises(ValueError, match="not square"):
            charpoly_int(a)


def test_kernels_stay_exact_beyond_int64():
    # entries near 2**62 overflow int64 products; Python ints do not
    big = 2**62 + 1
    a = [[1, big], [0, 1]]
    assert inverse_unimodular(a) == [[1, -big], [0, 1]]
    assert charpoly_int([[big, 0], [0, big]]) == (1, -2 * big, big * big)


def test_inexact_division_raises():
    num = np.array([[4, 6], [8, 7]], dtype=object)
    assert _exact_div(num[:1], 2).tolist() == [[2, 3]]
    with pytest.raises(ArithmeticError, match="divide exactly"):
        _exact_div(num, 2)
