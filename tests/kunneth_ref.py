"""The Kunneth count and the criterion-1 pairs it is checked on.

U^l(x)[k] is a tensor product of rank-one factorizations, so its Hom
complex is a tensor product of one-variable Hom complexes, and by Kunneth
(the Thom-Sebastiani property of matrix-factorization categories) dim
Hom(A, B[m]) is a sum of products of one-variable dimensions.  The
reference below counts it from dense one-variable tables and
`normalize` alone, without the calculus, so that it can audit the
calculus where the dense oracle is too slow.  It must equal the dense
oracle on every pair of ``criterion_1_pairs``, at both primes, before
it can be promoted into the package (ROADMAP item 1).
"""

import functools
import itertools
import math

from bpsing.grading import GradeElement, WeightSystem, normalize
from bpsing.linalg import DEFAULT_MODULUS
from bpsing.mforacle import oracle_hom
from bpsing.stable import StableObject, U, cuboid_objects


@functools.lru_cache(maxsize=256)
def one_variable_table(p, a, b, q):
    """The nonzero T(tau, m) = dim Hom(U^a, U^b(tau x)[m]) over
    WeightSystem((p,)), as (tau, m, T), for m in {0, 1} and tau in
    [-3p, 3p]; test_one_variable_hom_tables pins the support inside."""
    ws = WeightSystem((p,))
    entries = [(tau, m, oracle_hom(U(ws, (a,)), U(ws, (b,), ws.element((tau,))), m, q)) for tau in range(-3 * p, 3 * p + 1) for m in (0, 1)]
    return tuple(e for e in entries if e[2])


def kunneth_count(a, b, m, q, left_c):
    """dim Hom(A, B[m]) for A = U^a(x)[k] and B = U^b(y)[k'].

    With z = y - x and M = k' + m - k, the sum of prod_i T_i(tau_i, m_i)
    over one table entry per coordinate, for the choices with M - sum m_i
    even and normalize(tau) + left_c(sum m_i) c == z + ((M - sum m_i) // 2) c.
    The right rule has left_c = 0: tensor_mf's convention absorbs the
    c-twist of odd-odd terms.
    """
    if a.is_zero or b.is_zero:
        return 0
    ws = a.weights
    z, shift = b.twist - a.twist, b.shift + m - a.shift
    # normalize(tau) has coefficients tau_i mod p_i, and a multiple of c
    # moves only the level, so only entries with tau_i = z_i mod p_i can count
    tables = [[e for e in one_variable_table(p, ea, eb, q) if (e[0] - zi) % p == 0] for p, ea, eb, zi in zip(ws.p, a.ell, b.ell, z.coeffs)]
    total = 0
    for choice in itertools.product(*tables):
        taus, ms, dims = zip(*choice)
        mu = sum(ms)
        if (shift - mu) % 2 == 0 and normalize(ws, taus) + left_c(mu) * ws.c() == z + (shift - mu) // 2 * ws.c():
            total += math.prod(dims)
    return total


def ref_kunneth_hom(a, b, m=0, q=DEFAULT_MODULUS):
    return kunneth_count(a, b, m, q, lambda mu: 0)


def _interval_twists(ws):
    """All v with -s <= v <= s, widened by the level window [-2, 2]."""
    out = set()
    s = ws.s()
    for coeffs in itertools.product(*(range(p) for p in ws.p)):
        for lev in range(-ws.n - 1, ws.n + 2):
            v = GradeElement(ws, coeffs, lev)
            if (s - v).level >= 0 and (s + v).level >= 0:
                for t in range(-2, 3):
                    out.add(v + t * ws.c())
    return sorted(out, key=lambda e: (e.level, e.coeffs))


def criterion_1_pairs(ws):
    """Acceptance criterion 1's pairs (a, b) over ws: every cuboid
    object at every interval twist and shift -4..4, against every
    cuboid object, the pairs of one a in a row."""
    cub = cuboid_objects(ws)
    twists = _interval_twists(ws)
    for a0 in cub:
        for u in twists:
            for m in range(-4, 5):
                a = StableObject(ws, a0.ell, u, m)
                for b in cub:
                    yield a, b
