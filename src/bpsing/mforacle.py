"""Graded matrix factorizations of sum(X_i^p_i): the independent Hom oracle.

A factorization is a pair of polynomial matrices d0 (odd to even) and
d1 (even to odd, of internal degree c) over the AMBIENT polynomial
ring, with both composites equal to the potential times the identity.
Stable Hom dimensions fall out of the two-periodic Hom complex between
factorizations: the terms are degree-zero graded Hom spaces, indexed
by monomial bases of the polynomial ring, and the answer is a kernel
dimension minus an incoming rank over the working field.

Every entry produced here is a signed monomial, so ranks are expected
to be field independent; a second-prime mode guards that expectation.

Each factorization keeps private tables built once from its fields:
every generator degree unboxed from its ``GradeElement`` normal form to
a plain ``(coeffs, level)`` pair, and the nonzero entries of d0 and d1
listed by row and by column as ``(index, coeff, exponents)``.  The Hom
complex reads only these tables: the c-shift of position k is an
integer offset on the level, degree differences borrow coordinatewise
as ``GradeElement.__sub__`` does, the differentials visit only nonzero
entries, and the factorization check compares unboxed degrees and
multiplies along the row lists.  No ``GradeElement`` is built per
generator pair or per matrix entry.

``mf_of`` builds the untwisted tensor factorization of U^ell once per
weight system, ell and shift parity, in a bounded cache, and realizes
U^ell(x)[k] as one twist of it: a rotation commutes with twists and
[2] = (c).  A twist keeps d0 and d1, so it shares their row and column
tables with the factorization it twists instead of rebuilding them;
the factorization check still runs on every construction.  The Hom
complex is a subquotient of its middle term, so an empty middle term
answers 0 before the outer term bases, the differentials and the
ranks are built (the modulus is checked first all the same).  The
differentials are integer matrices of small signed entries (sums of
monomial coefficients); ``rank_mod`` alone reduces them mod q, on the
copy it eliminates.

Conventions are pinned by self-checks rather than trusted: the
suspension is the twisted rotation

    [1](F0, F1, d0, d1) = (F1 twisted by c, F0, -d1, -d0)

which is the unique direction making the periodicity [2] = (c) hold on
Hom profiles.

Triage procedure for a disagreement between this oracle and the
symbolic calculus (both directions must be suspected):

1. rerun the oracle value at the second prime (``PARANOIA_MODULUS``)
   and, for module-level questions, with the exact rational mode; a
   prime-dependent rank means an oracle bug;
2. recheck the oracle conventions on the failing weight system: the
   [2] = (c) profile self-check, the two-periodicity identity, and
   that the differentials of the Hom complex compose to zero;
3. replay the symbolic answer by hand through the rewriting moves it
   reports (reflections, transfer, Serre swap) and test each single
   move by profile equality of the two presentations;
4. shrink to the smallest weight system exhibiting the mismatch and
   compare against an independent count (for one or two variables the
   Hom spaces are small enough to enumerate directly).
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass, field
from functools import lru_cache
from operator import add

import numpy as np

from .grading import GradeElement, WeightSystem
from .linalg import DEFAULT_MODULUS, check_modulus, rank_mod
from .stable import StableObject, cuboid_objects

# A matrix entry is None (zero) or a signed monomial (coeff, exponents).
Entry = "tuple[int, tuple[int, ...]] | None"
# A degree unboxed from its normal form: (coeffs, level).
Degree = "tuple[tuple[int, ...], int]"
# The nonzero entries of a matrix, one tuple per row (or per column) of
# (column or row index, coeff, exponents).
Nonzero = "tuple[tuple[tuple[int, int, tuple[int, ...]], ...], ...]"


@dataclass(frozen=True)
class GradedMF:
    weights: WeightSystem
    even: tuple[GradeElement, ...]
    odd: tuple[GradeElement, ...]
    d0: tuple[tuple[Entry, ...], ...]  # rows indexed by even, cols by odd
    d1: tuple[tuple[Entry, ...], ...]  # rows indexed by odd, cols by even
    variables: frozenset[int] = None  # summands of the potential being factored
    # the nonzero tables of d0 and d1, handed on by a twist, which keeps both
    _tables: InitVar[tuple[Nonzero, Nonzero, Nonzero, Nonzero] | None] = None
    # unboxed tables built from the fields above (see the module docstring)
    _even: tuple[Degree, ...] = field(init=False, repr=False, compare=False)
    _odd: tuple[Degree, ...] = field(init=False, repr=False, compare=False)
    _d0_rows: Nonzero = field(init=False, repr=False, compare=False)
    _d0_cols: Nonzero = field(init=False, repr=False, compare=False)
    _d1_rows: Nonzero = field(init=False, repr=False, compare=False)
    _d1_cols: Nonzero = field(init=False, repr=False, compare=False)

    def __post_init__(self, _tables) -> None:
        if self.variables is None:
            object.__setattr__(self, "variables", frozenset(range(self.weights.n)))
        tables = {
            "_even": tuple((g.coeffs, g.level) for g in self.even),
            "_odd": tuple((g.coeffs, g.level) for g in self.odd),
        }
        if _tables is None:
            _tables = _nonzero(self.d0, len(self.even), len(self.odd)) + _nonzero(self.d1, len(self.odd), len(self.even))
        tables["_d0_rows"], tables["_d0_cols"], tables["_d1_rows"], tables["_d1_cols"] = _tables
        for name, table in tables.items():
            object.__setattr__(self, name, table)
        _check_factorization(self)

    def twist(self, y: GradeElement) -> GradedMF:
        return GradedMF(
            self.weights,
            tuple(g - y for g in self.even),
            tuple(g - y for g in self.odd),
            self.d0,
            self.d1,
            self.variables,
            (self._d0_rows, self._d0_cols, self._d1_rows, self._d1_cols),
        )

    def shift(self, m: int = 1) -> GradedMF:
        # [2] = (c): twist by (m // 2) c, then rotate once if m is odd
        out = self.twist((m // 2) * self.weights.c()) if m // 2 else self
        if m % 2:
            c = out.weights.c()
            out = GradedMF(out.weights, tuple(g - c for g in out.odd), out.even, _neg(out.d1), _neg(out.d0), out.variables)
        return out


def _nonzero(mat, nrows: int, ncols: int) -> tuple[Nonzero, Nonzero]:
    """The nonzero entries of a signed-monomial matrix, by row and by column."""
    if len(mat) != nrows or any(len(row) != ncols for row in mat):
        raise ValueError(f"differential is not a {nrows}x{ncols} matrix over the generators")
    rows = tuple(tuple((j, e[0], e[1]) for j, e in enumerate(row) if e is not None) for row in mat)
    cols = [[] for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, coeff, exps in row:
            cols[j].append((i, coeff, exps))
    return rows, tuple(map(tuple, cols))


def _borrow_sub(p: tuple[int, ...], x: Degree, y: Degree) -> Degree:
    """x - y for unboxed normal forms: the rule of ``GradeElement.__sub__``."""
    level = x[1] - y[1]
    out = []
    for a, b, w in zip(x[0], y[0], p):
        if a < b:
            a += w
            level -= 1
        out.append(a - b)
    return tuple(out), level


def _exps_degree(p: tuple[int, ...], exps: tuple[int, ...]) -> Degree:
    return tuple(e % w for e, w in zip(exps, p)), sum(e // w for e, w in zip(exps, p))


def _neg(mat):
    return tuple(tuple(None if e is None else (-e[0], e[1]) for e in row) for row in mat)


def _check_factorization(f: GradedMF) -> None:
    p = f.weights.p
    # d0 maps odd to even in degree 0, d1 maps even to odd in degree c
    for name, rows, row_degs, col_degs, lift in (("d0", f._d0_rows, f._even, f._odd, 0), ("d1", f._d1_rows, f._odd, f._even, 1)):
        for row, row_deg in zip(rows, row_degs):
            for j, _, exps in row:
                coeffs, level = _borrow_sub(p, col_degs[j], row_deg)
                if _exps_degree(p, exps) != (coeffs, level + lift):
                    raise ValueError(f"{name} entry is not homogeneous of the required degree")
    potential = []
    for i in sorted(f.variables):
        exps = [0] * len(p)
        exps[i] = p[i]
        potential.append(tuple(exps))
    for a_rows, b_rows in ((f._d0_rows, f._d1_rows), (f._d1_rows, f._d0_rows)):
        for r, row in enumerate(a_rows):
            # row r of the product, as {(column, exponents): coeff}
            acc = {}
            for t, c1, e1 in row:
                for j, c2, e2 in b_rows[t]:
                    key = (j, tuple(map(add, e1, e2)))
                    acc[key] = acc.get(key, 0) + c1 * c2
            if {key: v for key, v in acc.items() if v} != {(r, exps): 1 for exps in potential}:
                raise ValueError("composite of the factorization pair is not f times identity")


def rank1_mf(ws: WeightSystem, i: int, a: int) -> GradedMF:
    """The factorization X_i^p_i = X_i^a * X_i^(p_i - a)."""
    p = ws.p[i]
    if not 1 <= a <= p - 1:
        raise ValueError(f"exponent {a} out of range for weight {p}")
    lo = [0] * ws.n
    lo[i] = a
    hi = [0] * ws.n
    hi[i] = p - a
    return GradedMF(
        ws,
        even=(ws.zero(),),
        odd=(ws.element(lo),),
        d0=(((1, tuple(lo)),),),
        d1=(((1, tuple(hi)),),),
        variables=frozenset({i}),
    )


def _kron(a, b, sign: int = 1):
    """sign times the Kronecker product of two signed-monomial matrices."""
    return [
        [None if x is None or y is None else (sign * x[0] * y[0], tuple(map(add, x[1], y[1]))) for x in row_a for y in row_b]
        for row_a in a
        for row_b in b
    ]


def _eye(size: int, n: int):
    """The identity matrix of signed monomials in n variables."""
    one = (1, (0,) * n)
    return [[one if r == c else None for c in range(size)] for r in range(size)]


def _blocks(top, bottom):
    """The 2x2 block matrix with block rows top and bottom."""
    return tuple(tuple(left + right) for half in (top, bottom) for left, right in zip(*half))


def tensor_mf(f: GradedMF, g: GradedMF) -> GradedMF:
    """Tensor product of factorizations of complementary summands.

    The sign convention puts the parity sign on the right factor's
    differential when the left factor is odd; the even component built
    from two odd parts is twisted down by c.  With generators ordered
    (F0 G0, F1 G1) and (F1 G0, F0 G1), and I the identities:

        d0 = [[dF0 x I, I x dG0], [-I x dG1, dF1 x I]]
        d1 = [[dF1 x I, -I x dG0], [I x dG1, dF0 x I]]
    """
    ws = f.weights
    if g.weights != ws:
        raise ValueError("mismatched weight systems")
    if f.variables & g.variables:
        raise ValueError("factors must cover disjoint summands of the potential")
    c = ws.c()
    even = tuple(a + b for a in f.even for b in g.even) + tuple(a + b - c for a in f.odd for b in g.odd)
    odd = tuple(a + b for a in f.odd for b in g.even) + tuple(a + b for a in f.even for b in g.odd)
    i_f0, i_f1, i_g0, i_g1 = (_eye(len(gens), ws.n) for gens in (f.even, f.odd, g.even, g.odd))
    d0 = _blocks((_kron(f.d0, i_g0), _kron(i_f0, g.d0)), (_kron(i_f1, g.d1, -1), _kron(f.d1, i_g1)))
    d1 = _blocks((_kron(f.d1, i_g0), _kron(i_f1, g.d0, -1)), (_kron(i_f0, g.d1), _kron(f.d0, i_g1)))
    return GradedMF(ws, even, odd, d0, d1, f.variables | g.variables)


@lru_cache(maxsize=256)
def _base_mf(ws: WeightSystem, ell: tuple[int, ...], odd: bool) -> GradedMF:
    """U^ell as the untwisted tensor factorization, rotated once if odd."""
    if odd:
        return _base_mf(ws, ell, False).shift(1)
    out = rank1_mf(ws, 0, ell[0])
    for i in range(1, ws.n):
        out = tensor_mf(out, rank1_mf(ws, i, ell[i]))
    return out


@lru_cache(maxsize=2**16)
def mf_of(obj: StableObject) -> GradedMF:
    """Realize U^ell(x)[k] as the twisted, shifted tensor factorization.

    Acts on the representation exactly as given; rewriting-equivalent
    representations yield different presentations of the same object,
    which is what the Hom-profile audits exercise.  The zero object
    becomes the empty factorization.
    """
    if obj.is_zero:
        return GradedMF(obj.weights, (), (), (), ())
    ws = obj.weights
    # a rotation commutes with twists and [2] = (c), so (x)[k] is one
    # twist of the base, rotated once when k is odd
    y = obj.twist + (obj.shift // 2) * ws.c()
    base = _base_mf(ws, obj.ell, obj.shift % 2 == 1)
    return base if y.is_zero() else base.twist(y)


# -- the Hom complex --------------------------------------------------------

@lru_cache(maxsize=2**16)
def _monomial_basis(ws: WeightSystem, coeffs: tuple[int, ...], level: int) -> tuple[tuple[int, ...], ...]:
    """Monomials of the ambient polynomial ring in the graded degree with
    normal form (coeffs, level)."""
    if level < 0:
        return ()
    out = []
    for comp in _weak_compositions(level, ws.n):
        out.append(tuple(lam + d * p for lam, d, p in zip(coeffs, comp, ws.p)))
    return tuple(out)


def _weak_compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _weak_compositions(total - head, parts - 1):
            yield (head,) + rest


def _gens_at(f: GradedMF, k: int) -> tuple[Degree, ...]:
    """Generator degrees at position k of the unrolled factorization:
    position 2j is F0 and 2j - 1 is F1, both twisted down by j c."""
    if k % 2 == 0:
        gens, j = f._even, k // 2
    else:
        gens, j = f._odd, (k + 1) // 2
    return tuple((coeffs, level - j) for coeffs, level in gens)


def _term_basis(f: GradedMF, g: GradedMF, k: int):
    """Basis of Hom(F at 0/1, G at k/k+1) in graded degree zero."""
    ws = f.weights
    basis = []
    for slot in (0, 1):
        gb = _gens_at(g, k + slot)
        for a, fa in enumerate(_gens_at(f, slot)):
            for b, gb_deg in enumerate(gb):
                coeffs, level = _borrow_sub(ws.p, fa, gb_deg)
                if level >= 0:  # a negative degree has no monomials
                    basis.extend((slot, a, b, exps) for exps in _monomial_basis(ws, coeffs, level))
    return basis


def stable_hom_dim_oracle(f: GradedMF, g: GradedMF, m: int, q: int = DEFAULT_MODULUS) -> int:
    """Dimension of stable Hom(F, G[m]) from the folded Hom complex."""
    if f.weights != g.weights:
        raise ValueError("mismatched weight systems")
    check_modulus(q)
    basis_mid = _term_basis(f, g, m)
    if not basis_mid:
        # the answer is a subquotient of the middle term
        return 0
    basis_prev = _term_basis(f, g, m - 1)
    basis_next = _term_basis(f, g, m + 1)
    d_prev = _differential(f, g, m - 1, basis_prev, basis_mid)
    d_mid = _differential(f, g, m, basis_mid, basis_next)
    return len(basis_mid) - rank_mod(d_mid, q) - rank_mod(d_prev, q)


def _differential(f: GradedMF, g: GradedMF, k: int, cols, rows) -> np.ndarray:
    index = {key: i for i, key in enumerate(rows)}
    # alternating sign on the phi o d_F terms; squares to zero
    sign = -1 if k % 2 else 1
    # by slot: columns of d_G at positions k and k+1, and rows of d_F
    # from positions 0 and 1 (F even to F odd, F odd to F even)
    dg = (g._d1_cols, g._d0_cols) if k % 2 == 0 else (g._d0_cols, g._d1_cols)
    df = (f._d0_rows, f._d1_rows)
    at_row, at_col, values = [], [], []
    for ci, (slot, a, b, exps) in enumerate(cols):
        # component d_G o phi, rows over G gens at position k+1+slot
        for r, coeff, e in dg[slot][b]:
            at_row.append(index[(slot, a, r, tuple(map(add, exps, e)))])
            at_col.append(ci)
            values.append(coeff)
        # component -(-1)^k phi o d_F, from F gens at the other position
        for a2, coeff, e in df[slot][a]:
            at_row.append(index[(1 - slot, a2, b, tuple(map(add, exps, e)))])
            at_col.append(ci)
            values.append(sign * coeff)
    mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
    np.add.at(mat, (np.array(at_row, dtype=np.intp), np.array(at_col, dtype=np.intp)), np.array(values, dtype=np.int64))
    return mat


@lru_cache(maxsize=2**16)
def oracle_hom(a: StableObject, b: StableObject, m: int = 0, q: int = DEFAULT_MODULUS) -> int:
    """Oracle dimension of Hom(A, B[m]) for stable objects."""
    if a.weights != b.weights:
        raise ValueError("mismatched weight systems")
    if a.is_zero or b.is_zero:
        return 0
    return stable_hom_dim_oracle(mf_of(a), mf_of(b), m, q)


def probe_objects(ws: WeightSystem) -> list[StableObject]:
    """The deterministic probe set: cuboid objects under level-zero
    twists in [-s, s] (coefficientwise zero-or-one sums of the x_i)."""
    probes = []
    for base in cuboid_objects(ws):
        for bits in itertools.product((0, 1), repeat=ws.n):
            probes.append(StableObject(ws, base.ell, ws.element(bits), 0))
    return probes


def hom_profile(f: GradedMF, q: int = DEFAULT_MODULUS) -> tuple[tuple[str, int], ...]:
    """Hom dimensions of F against the probe set at shifts 0 and 1."""
    out = []
    for p_obj in probe_objects(f.weights):
        for m in (0, 1):
            out.append((f"{p_obj}[{m}]", stable_hom_dim_oracle(f, mf_of(p_obj), m, q)))
    return tuple(out)
