"""Dense exact linear algebra over prime fields and the rationals.

All ranks computed here feed dimension counts, so the arithmetic must be
exact.  The default working field is F_q with q = 32003; a second prime
and a rational mode exist for paranoia runs.  Moduli are primes below
2**31, so that a product of two residues fits in int64.
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


def inverse_unimodular(a) -> list[list[int]]:
    """Exact inverse of an integer matrix with determinant +-1."""
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
    for row in out:
        for x in row:
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular over the integers")
    return [[int(x) for x in row] for row in out]


def charpoly_int(a) -> tuple[int, ...]:
    """Characteristic polynomial of an integer matrix, exact.

    Faddeev-LeVerrier recursion; every division is exact.  Returns the
    monic coefficient tuple, leading coefficient first.
    """
    n = len(a)
    a = [[int(x) for x in row] for row in a]
    coeffs = [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]  # M_1 = I
    for k in range(1, n + 1):
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        tr = sum(am[i][i] for i in range(n))
        if tr % k:
            raise ArithmeticError("Faddeev-LeVerrier division must be exact")
        c = -tr // k
        coeffs.append(c)
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return tuple(coeffs)
