"""Dense exact linear algebra over prime fields, the rationals and Z.

All ranks computed here feed dimension counts, so the arithmetic must be
exact.  The default working field is F_q with q = 32003; a second prime
and a rational mode exist for paranoia runs.  Moduli are primes below
2**31, so that a product of two residues fits in int64.

Every integer matrix enters through one intake, ``integer_matrix``: a
2-D integer array with every value kept, ``[]`` being the 0 x 0 matrix.
A shape that is not 2-D, ragged rows, a non-integer dtype or a
non-integer entry raises ``ValueError``, since truncating a float or
wrapping a wide integer would lose exactness silently.  ``residues`` is
the one reduction of such a matrix mod q to int64; uint64 entries and
Python ints are reduced before the cast.

``rank_mod`` takes the rank over F_q.  Its elimination is shaped by the
oracle's matrices, which are about 1% nonzero.  A pivot row, once used,
is copied out and zeroed ("retired") instead of swapped into place, and
each elimination step rewrites only the columns in which the pivot row
is nonzero.  Both keep the rank: ordering the retired rows first gives
a block matrix [[A, B], [0, C]] with A of full row rank, whose rank is
rank A + rank C, and the columns outside the pivot row's support are
left unchanged by subtracting a multiple of that row.  The pivot row
is read and retired from the pivot column on, where all its nonzeros
lie, and the rows below it are gathered and scattered on that support
with ``take`` and ``put`` on the flat view of the row-major copy.  Every
intermediate value stays below q**2 <= 2**62 in absolute value, so
nothing overflows int64.

Over the rationals and Z there is one elimination, fraction-free
Gauss-Jordan (Bareiss), on numpy object arrays of Python ints: numpy
runs the loops in C while every entry stays an unbounded integer, so
nothing can overflow.  It gives ``rank_exact`` its rank and
``inverse_unimodular`` the inverse of a unimodular matrix; the
characteristic polynomial is the Faddeev-LeVerrier recursion.  Both
divide only where the quotient must be exact, and raise
``ArithmeticError`` if a remainder is left.  The square kernels reject
a ragged, non-square or not 2-D matrix with ``ValueError``.
"""

from __future__ import annotations

import functools

import numpy as np

DEFAULT_MODULUS = 32003
PARANOIA_MODULUS = 65537


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    d = 3
    while d * d <= q:
        if q % d == 0:
            return False
        d += 2
    return True


@functools.lru_cache(maxsize=8)
def check_modulus(q: int) -> None:
    """Reject a modulus that is not a prime below 2**31.

    Residues of a larger modulus can have products beyond int64, and
    numpy would wrap them silently.  A valid modulus is remembered, so
    the trial division runs once per value; a rejected one raises on
    every call.
    """
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")
    if q >= 2**31:
        raise ValueError(f"modulus {q} is not below 2**31")


def integer_matrix(a) -> np.ndarray:
    """``a`` as a 2-D integer array, every value kept; ``[]`` is 0 x 0.

    An integer array comes back as it is, without a copy; an empty one
    of any dtype as int64 zeros of its shape.  Ragged rows, a shape that
    is not 2-D, a non-integer dtype and a non-integer entry of an object
    array raise ``ValueError``.
    """
    try:
        m = np.asarray(a)
    except ValueError:
        raise ValueError("matrix has ragged rows") from None
    if m.size == 0 and m.ndim in (1, 2):
        # [] is the 0 x 0 matrix
        return np.zeros((len(m), m.shape[-1]), dtype=np.int64)
    if m.ndim != 2:
        raise ValueError(f"need a 2-D matrix, not shape {m.shape}")
    if m.dtype == object:
        if not all(isinstance(x, (int, np.integer)) for x in m.flat):
            raise ValueError("need integer entries")
    elif m.dtype.kind not in "iu":
        raise ValueError(f"need an integer matrix, not dtype {m.dtype}")
    return m


def residues(a, q: int) -> np.ndarray:
    """Residues mod q of an integer matrix, as a fresh int64 array.

    Entries beyond int64, uint64 from 2**63 on or Python ints in an
    object array, are reduced before the cast, which would wrap them.
    """
    m = integer_matrix(a)
    if m.dtype == object:
        return (m % q).astype(np.int64)
    if m.dtype == np.uint64:
        return (m % np.uint64(q)).astype(np.int64)
    return m.astype(np.int64, copy=False) % q


def rank_mod(a, q: int) -> int:
    """Rank of an integer matrix over F_q by Gaussian elimination.

    ``a`` goes through ``integer_matrix`` and is reduced mod q by
    ``residues`` into a fresh int64 array, made row-major; ``a`` is left
    unchanged.

    Left to right, column c takes the first live row nonzero in column c
    as pivot row.  Its support, the columns where it is nonzero, starts
    at c, since every live row is zero left of c, so the row is scanned
    and retired (zeroed) from c on only.  Each other live row nonzero in
    column c subtracts its multiple of the pivot row on that support
    only: the block of those rows and columns is gathered with ``take``
    and written back with ``put`` at flat indices row * cols + column.
    The retired rows, in order, form an echelon block of full row rank
    above the live rows, so the rank is their count.  Residues stay
    below q, and a block entry minus multiplier times pivot entry stays
    below q**2 <= 2**62 in absolute value before it is reduced.
    """
    check_modulus(q)
    m = np.ascontiguousarray(residues(a, q))
    flat = m.reshape(-1)  # a view, since m is row-major
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        nz = m[:, c].nonzero()[0]
        if not nz.size:
            continue
        row = m[nz[0]]
        support = row[c:].nonzero()[0] + c
        prow = row[support] * pow(int(row[c]), -1, q) % q
        row[c:] = 0
        if nz.size > 1:
            # column c leads the support, so block[:, 0] holds the multipliers
            below = nz[1:, None] * cols + support
            block = flat.take(below)
            block -= block[:, :1] * prow
            block %= q
            flat.put(below, block)
        r += 1
        if r == rows:
            break
    return r


def _python_ints(m: np.ndarray) -> np.ndarray:
    """An integer matrix as a numpy object array of Python ints."""
    return np.frompyfunc(int, 1, 1)(m)


def _exact_div(num: np.ndarray, den: int) -> np.ndarray:
    quot = num // den
    if (num % den).any():
        raise ArithmeticError("fraction-free elimination must divide exactly")
    return quot


def _gauss_jordan(m: np.ndarray, cols: int | None = None) -> tuple[np.ndarray, int, int]:
    """Fraction-free Gauss-Jordan (Bareiss) on the first ``cols`` columns
    of an object array of Python ints, in place.

    The pivot of column c is the first row from the rank r on that is
    nonzero there; a column without one is skipped.  The pivot row is
    swapped to row r, and every other row is replaced by (pivot * row -
    row[c] * pivot row), divided exactly by the previous pivot, so every
    entry stays a minor of the input.  Returns the array, the rank and
    the last pivot, which is a nonzero maximal minor up to sign: for a
    square matrix of full rank, its determinant up to the sign of the
    row swaps.
    """
    rows = len(m)
    r, prev = 0, 1
    for c in range(m.shape[1] if cols is None else cols):
        nz = np.flatnonzero(m[r:, c])
        if not nz.size:
            continue
        piv = r + nz[0]
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        pivot = m[r, c]
        others = np.arange(rows) != r
        update = pivot * m[others] - np.outer(m[others, c], m[r])
        m[others] = update if prev == 1 else _exact_div(update, prev)
        prev = pivot
        r += 1
        if r == rows:
            break
    return m, r, prev


def rank_exact(a) -> int:
    """Rank over Q of an integer matrix, exact.

    ``a`` goes through ``integer_matrix``, and the rank is that of the
    fraction-free elimination ``_gauss_jordan``, whose entries stay
    integers; for paranoia runs.
    """
    return _gauss_jordan(_python_ints(integer_matrix(a)))[1]


def _square_int(a) -> np.ndarray:
    """A square integer matrix as a numpy object array of Python ints."""
    try:
        ragged = any(len(row) != len(a) for row in a)
    except TypeError:  # rows without a length: not 2-D, which the intake rejects
        ragged = False
    if ragged:
        raise ValueError("matrix is not square")
    return _python_ints(integer_matrix(a))


def inverse_unimodular(a) -> list[list[int]]:
    """Exact inverse of an integer matrix with determinant +-1.

    ``_gauss_jordan`` on [A | I] over the columns of A: a rank below n
    means A is singular.  Otherwise the last pivot d is det(A) up to the
    sign of the row swaps, the left block ends as d I and the right
    block as d A^(-1).
    """
    m = _square_int(a)
    n = len(m)
    aug, rank, det = _gauss_jordan(np.concatenate([m, np.eye(n, dtype=object)], axis=1), n)
    if rank < n:
        raise ValueError("matrix is singular")
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular over the integers")
    # A^(-1) = right block / d, and 1/d = d for d = +-1
    return (aug[:, n:] * det).tolist()


def charpoly_int(a) -> tuple[int, ...]:
    """Characteristic polynomial of an integer matrix, exact.

    Faddeev-LeVerrier recursion M_(k+1) = A M_k + c_k I on object
    arrays; every division is exact.  Returns the monic coefficient
    tuple, leading coefficient first.
    """
    a = _square_int(a)
    n = len(a)
    coeffs = [1]
    m = np.eye(n, dtype=object)  # M_1 = I
    diag = np.diag_indices(n)
    for k in range(1, n + 1):
        m = a @ m
        tr = int(m.trace())
        if tr % k:
            raise ArithmeticError("Faddeev-LeVerrier division must be exact")
        c = -tr // k
        coeffs.append(c)
        m[diag] += c
    return tuple(coeffs)
