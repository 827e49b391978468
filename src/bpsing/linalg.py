"""Dense exact linear algebra over prime fields, the rationals and Z.

All ranks computed here feed dimension counts, so the arithmetic must be
exact.  The default working field is F_q with q = 32003; a second prime
and a rational mode exist for paranoia runs.  Moduli are primes below
2**31, so that a product of two residues fits in int64.

The integer kernels behind the Coxeter polynomials, the inverse of a
unimodular matrix and the characteristic polynomial, work on numpy
object arrays of Python ints: numpy runs the loops in C while every
entry stays an unbounded integer, so nothing can overflow.  The inverse
is fraction-free Gauss-Jordan (Bareiss), the characteristic polynomial
the Faddeev-LeVerrier recursion; both divide only where the quotient
must be exact, and raise ``ArithmeticError`` if a remainder is left.
Both reject a ragged or non-square matrix with ``ValueError``.
"""

from __future__ import annotations

import functools
from fractions import Fraction

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


def rank_mod(a: np.ndarray, q: int) -> int:
    """Rank of an integer matrix over F_q by Gaussian elimination."""
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


def rank_exact(a) -> int:
    """Rank over Q, with Fraction arithmetic.  Slow; for spot checks."""
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


def _square_int(a) -> np.ndarray:
    """A square matrix as a numpy object array of Python ints."""
    rows = [[int(x) for x in row] for row in a]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    return np.array(rows, dtype=object).reshape(n, n)


def _exact_div(num: np.ndarray, den: int) -> np.ndarray:
    quot = num // den
    if (num % den).any():
        raise ArithmeticError("fraction-free elimination must divide exactly")
    return quot


def inverse_unimodular(a) -> list[list[int]]:
    """Exact inverse of an integer matrix with determinant +-1.

    Fraction-free Gauss-Jordan (Bareiss) on [A | I]: step c replaces
    every row but the pivot row by (pivot * row - row[c] * pivot row),
    divided exactly by the previous pivot, so every entry stays a minor
    of [A | I].  The last pivot d is det(A) up to the sign of the row
    swaps, the left block ends as d I and the right block as d A^(-1).
    """
    m = _square_int(a)
    n = len(m)
    aug = np.concatenate([m, np.eye(n, dtype=object)], axis=1)
    prev = 1
    for c in range(n):
        nz = np.flatnonzero(aug[c:, c])
        if not nz.size:
            raise ValueError("matrix is singular")
        piv = c + nz[0]
        if piv != c:
            aug[[c, piv]] = aug[[piv, c]]
        pivot = aug[c, c]
        others = np.arange(n) != c
        update = pivot * aug[others] - np.outer(aug[others, c], aug[c])
        aug[others] = update if prev == 1 else _exact_div(update, prev)
        prev = pivot
    if prev not in (1, -1):
        raise ValueError("matrix is not unimodular over the integers")
    # A^(-1) = right block / d, and 1/d = d for d = +-1
    return (aug[:, n:] * prev).tolist()


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
