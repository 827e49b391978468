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

Both differentials are ``MonomialMatrix`` values: each row lists its
nonzero entries as ``(column, coeff, exponents)``, and the matrix builds
the same entries by column once, when it is made.  The Hom complex
reads generator degrees straight from their ``GradeElement`` normal
forms as ``(coeffs, level)`` pairs: the c-shift of position k is an
integer offset on the level, and degree differences borrow
coordinatewise as ``GradeElement.__sub__`` does.  The factorization
check compares the same pairs and multiplies along the rows.  No
``GradeElement`` is built per generator pair or per matrix entry.

Each term of the Hom complex is a layout: one block per generator pair
(slot, a, b) of nonnegative degree, ``(coeffs, level, offset, size)``,
whose monomials are indexed by the weak compositions of the level, so
a block's size depends on its level alone and is read from one cached
basis per (weights, level).  Terms m - 1 and m + 1 pair the same
generators one level apart, so the m + 1 layout is the m - 1 layout
one level up and their degrees are borrowed once; a pair that no
layout can use (level below -1, or below 0 for the middle term) is
dropped as it is borrowed.  A differential is described one piece at
a time, a piece being one source block and one matrix entry, d_F by
row or d_G by column: the entry sends the block's monomials into one
target block, through a position map that depends only on the number
of variables, the level and the carry of the entry's exponents past
the weights.  The carry, the product's coeffs and its rise in level,
sum(carry), do not depend on the source level, so their table is keyed
on (weights, coeffs, exponents) and the level is added per piece: a
sweep over twist levels reuses the landings of its first level.  The
pieces of a factorization pair are cached per matrix objects and
parity, which all twists of the pair share; the position maps are
cached too, and every cache is bounded.  A target block of another
degree than the product raises ``ValueError``, on every call, cached
rank or not.

The description of a differential is its recipe: the number of
variables, the shape, and per piece the flat start of its block pair,
the source level, the carry and the coefficient.  That is everything
the assembly reads, so two equal recipes are the same matrix, and the
ranks are cached by (recipe, q) in one more bounded cache, exactly,
with no digest: a sweep over many pairs that meet the same small
complexes assembles and eliminates each distinct one once.  The
modulus is part of the key, so a second-prime audit still ranks every
matrix at both primes.  Many pieces share a (source level, carry), and
so a position map: the assembly groups them and writes each group with
one map lookup and one broadcast add, not one of each per piece.

``mf_of`` builds the untwisted tensor factorization of U^ell once per
weight system, ell and shift parity, in a bounded cache, and realizes
U^ell(x)[k] as one twist of it: a rotation commutes with twists and
[2] = (c).  A twist passes on the very matrix objects d0 and d1, so
every twist of a base shares its rows and column views by reference.
The factorization check runs on every construction, but only its
homogeneity half reads the generator degrees: the composite half is
cached per (exponents, d0, d1, variables), so a twist reuses its
verdict.  The Hom complex is a subquotient of its middle term, so an
empty middle term answers 0 before the outer layouts, the
differentials and the ranks are built (the modulus is checked first
all the same).  The differentials are integer matrices of small signed
entries (sums of monomial coefficients), 0.4-5% nonzero at depth, and
each is built as a ``SparseMatrix``: one flat index and one value per
monomial of every piece, never a cell per row and column.
``rank_mod`` alone reduces them mod q and sums the entries that meet,
and it makes a dense block only of at most ``DENSE`` cells per entry
or per nonzero left, so the memory goes with the entries and the
fill-in rather than with rows times columns.  The outgoing
differential is built and ranked before the incoming one is built;
the cache keeps recipes and ranks, not matrices.

The Kunneth count is a second oracle for U-objects, built on the
first.  U^ell(x)[k] is the tensor product of rank-one factorizations,
so by Thom-Sebastiani and Kunneth its Hom complex is a tensor product
of one-variable Hom complexes, and its cohomology a sum of products of
one-variable dimensions.  ``kunneth_series`` multiplies, per
coordinate, the dense one-variable table of the residue class of the
twist difference, as a Laurent polynomial in the shift; the tables are
cached by (p_i, a_i, b_i, q).  It reads nothing of the symbolic
calculus, so it can audit it on weight types where the dense
multi-variable complexes are too large.

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
3. replay the closed-form rule of ``stable._support`` by hand, one
   coordinate at a time against that coordinate's factor in
   ``kunneth_series``: which case of ``stable._g`` holds (e_i = 0,
   e_i = -1, or a zero factor), then ell(z) and the shifts that place
   the single nonzero shift m0;
4. shrink to the smallest weight system exhibiting the mismatch and
   compare against an independent count (for one or two variables the
   Hom spaces are small enough to enumerate directly).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add

import numpy as np

from .grading import GradeElement, WeightSystem, _index
from .linalg import DEFAULT_MODULUS, SparseMatrix, check_modulus, rank_mod
from .stable import StableObject, cuboid_objects

# A degree unboxed from its normal form: (coeffs, level).
Degree = "tuple[tuple[int, ...], int]"
# A nonzero matrix entry: (column or row index, coeff, exponents).
Term = "tuple[int, int, tuple[int, ...]]"
# A generator pair of a Hom complex term: (slot, a, b).
Key = "tuple[int, int, int]"
# The blocks of one term: (slot, a, b) -> (coeffs, level, offset, size).
Layout = "dict[Key, tuple[tuple[int, ...], int, int, int]]"
# A differential as its assembly reads it: (n, nrows, ncols, pieces).
Recipe = "tuple[int, int, int, tuple]"


@dataclass(frozen=True)
class MonomialMatrix:
    """A matrix of signed monomials, given by the nonzero entries of each
    row as (column, coeff, exponents) and its column count.

    ``cols`` lists the same entries by column as (row, coeff, exponents);
    it is built once, here, and a negative column count or an entry
    outside the columns raises ``ValueError``.  So is the hash, since
    the Hom complex looks its pieces up by matrix.
    """

    rows: tuple[tuple[Term, ...], ...]
    ncols: int
    cols: tuple[tuple[Term, ...], ...] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.ncols < 0:
            raise ValueError(f"a matrix with {self.ncols} columns")
        cols = [[] for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, coeff, exps in row:
                if not 0 <= j < self.ncols:
                    raise ValueError(f"entry in column {j} of a matrix with {self.ncols} columns")
                cols[j].append((i, coeff, exps))
        object.__setattr__(self, "cols", tuple(map(tuple, cols)))
        object.__setattr__(self, "_hash", hash((self.rows, self.ncols)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class GradedMF:
    weights: WeightSystem
    even: tuple[GradeElement, ...]
    odd: tuple[GradeElement, ...]
    d0: MonomialMatrix  # rows indexed by even, cols by odd
    d1: MonomialMatrix  # rows indexed by odd, cols by even
    variables: frozenset[int] = None  # summands of the potential being factored

    def __post_init__(self) -> None:
        n = self.weights.n
        variables = range(n) if self.variables is None else self.variables
        object.__setattr__(self, "variables", frozenset(_index(i, "variable index", 0, n - 1) for i in variables))
        _check_factorization(self)

    def twist(self, y: GradeElement) -> GradedMF:
        # the same d0 and d1, so their column views are shared
        return GradedMF(self.weights, tuple(g - y for g in self.even), tuple(g - y for g in self.odd), self.d0, self.d1, self.variables)

    def shift(self, m: int = 1) -> GradedMF:
        m = _index(m, "shift")
        # [2] = (c): twist by (m // 2) c, then rotate once if m is odd
        out = self.twist((m // 2) * self.weights.c()) if m // 2 else self
        if m % 2:
            c = out.weights.c()
            out = GradedMF(out.weights, tuple(g - c for g in out.odd), out.even, _neg(out.d1), _neg(out.d0), out.variables)
        return out


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


def _neg(mat: MonomialMatrix) -> MonomialMatrix:
    return MonomialMatrix(tuple(tuple((j, -coeff, exps) for j, coeff, exps in row) for row in mat.rows), mat.ncols)


def _check_factorization(f: GradedMF) -> None:
    p = f.weights.p
    # d0 maps odd to even in degree 0, d1 maps even to odd in degree c
    for name, mat, row_gens, col_gens, lift in (("d0", f.d0, f.even, f.odd, 0), ("d1", f.d1, f.odd, f.even, 1)):
        if (len(mat.rows), mat.ncols) != (len(row_gens), len(col_gens)):
            raise ValueError(f"differential is not a {len(row_gens)}x{len(col_gens)} matrix over the generators")
        col_degs = [(g.coeffs, g.level) for g in col_gens]
        for row, g in zip(mat.rows, row_gens):
            for j, _, exps in row:
                coeffs, level = _borrow_sub(p, col_degs[j], (g.coeffs, g.level))
                if _exps_degree(p, exps) != (coeffs, level + lift):
                    raise ValueError(f"{name} entry is not homogeneous of the required degree")
    _check_composites(p, f.d0, f.d1, f.variables)


@lru_cache(maxsize=2**10)
def _check_composites(p: tuple[int, ...], d0: MonomialMatrix, d1: MonomialMatrix, variables: frozenset[int]) -> None:
    """Raise unless d0 d1 and d1 d0 are the potential, the sum of X_i^p_i
    over ``variables``, times the identity.

    The verdict depends on these arguments alone, so it is cached: every
    twist of a factorization passes on the same d0 and d1 and reuses it.
    A failing pair raises on every call, since no exception is cached.
    """
    potential = []
    for i in sorted(variables):
        exps = [0] * len(p)
        exps[i] = p[i]
        potential.append(tuple(exps))
    for a_rows, b_rows in ((d0.rows, d1.rows), (d1.rows, d0.rows)):
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
    i = _index(i, "variable index", 0, ws.n - 1)
    p = ws.p[i]
    a = _index(a, "exponent", 1, p - 1)
    lo = [0] * ws.n
    lo[i] = a
    hi = [0] * ws.n
    hi[i] = p - a
    return GradedMF(
        ws,
        even=(ws.zero(),),
        odd=(ws.element(lo),),
        d0=MonomialMatrix((((0, 1, tuple(lo)),),), 1),
        d1=MonomialMatrix((((0, 1, tuple(hi)),),), 1),
        variables=frozenset({i}),
    )


def _kron(a: MonomialMatrix, b: MonomialMatrix, sign: int = 1) -> MonomialMatrix:
    """sign times the Kronecker product of two signed-monomial matrices."""
    rows = tuple(
        tuple((ja * b.ncols + jb, sign * ca * cb, tuple(map(add, ea, eb))) for ja, ca, ea in row_a for jb, cb, eb in row_b)
        for row_a in a.rows
        for row_b in b.rows
    )
    return MonomialMatrix(rows, a.ncols * b.ncols)


def _eye(size: int, n: int) -> MonomialMatrix:
    """The identity matrix of signed monomials in n variables."""
    return MonomialMatrix(tuple(((r, 1, (0,) * n),) for r in range(size)), size)


def _blocks(top, bottom) -> MonomialMatrix:
    """The 2x2 block matrix with block rows top and bottom."""
    width = top[0].ncols
    rows = tuple(
        left + tuple((j + width, coeff, exps) for j, coeff, exps in right)
        for half in (top, bottom)
        for left, right in zip(half[0].rows, half[1].rows)
    )
    return MonomialMatrix(rows, width + top[1].ncols)


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
        empty = MonomialMatrix((), 0)
        return GradedMF(obj.weights, (), (), empty, empty)
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
        gens, j = f.even, k // 2
    else:
        gens, j = f.odd, (k + 1) // 2
    return tuple((g.coeffs, g.level - j) for g in gens)


def _pair_degrees(f: GradedMF, g: GradedMF, k: int, floor: int) -> list[tuple[Key, Degree]]:
    """Degree of Hom(F_a at 0/1, G_b at k/k+1) for every generator pair
    (slot, a, b) of level at least ``floor``, in term order."""
    p = f.weights.p
    out = []
    for slot in (0, 1):
        gb = _gens_at(g, k + slot)
        for a, fa in enumerate(_gens_at(f, slot)):
            for b, gb_deg in enumerate(gb):
                coeffs, level = _borrow_sub(p, fa, gb_deg)
                if level >= floor:
                    out.append(((slot, a, b), (coeffs, level)))
    return out


def _layout(ws: WeightSystem, degrees: list[tuple[Key, Degree]], lift: int = 0) -> Layout:
    """The blocks of one term, (slot, a, b) -> (coeffs, level, offset,
    size), from its pair degrees with every level raised by ``lift``.

    A pair of negative level has no monomials and no block.  Block
    (slot, a, b) spans the basis elements offset .. offset + size - 1,
    its monomials in the order of ``_monomial_basis``.  The size depends
    on the level alone, so it is read from the one cached basis of the
    zero coeffs at that level.
    """
    layout, offset, zero = {}, 0, (0,) * ws.n
    for key, (coeffs, level) in degrees:
        level += lift
        if level >= 0:
            size = len(_monomial_basis(ws, zero, level))
            layout[key] = (coeffs, level, offset, size)
            offset += size
    return layout


def _dim(layout: Layout) -> int:
    """The dimension of a term: where its last block ends."""
    for _, _, offset, size in reversed(layout.values()):
        return offset + size
    return 0


@lru_cache(maxsize=2**10)
def _position_map(n: int, level: int, carry: tuple[int, ...]) -> np.ndarray:
    """Where the monomials of a block go under an entry that carries.

    The monomials of a degree of level ``level`` are indexed by the weak
    compositions of level into n parts, in ``_weak_compositions`` order.
    Multiplying by an entry whose exponents carry past the weights by
    ``carry`` adds carry to each composition; entry i of the result is
    the index of composition i plus carry among the compositions of
    level + sum(carry).  Read-only, since the cache shares it.
    """
    index = {comp: i for i, comp in enumerate(_weak_compositions(level + sum(carry), n))}
    out = np.array([index[tuple(map(add, comp, carry))] for comp in _weak_compositions(level, n)], dtype=np.intp)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=2**12)
def _landing(p: tuple[int, ...], coeffs: tuple[int, ...], exps: tuple[int, ...]) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """The monomials of a degree with these coeffs times the monomial
    ``exps``: the product's coeffs, how far it raises the level, and the
    carry of the exponents past the weights, which names the position
    map.  None of it depends on the level, which the caller adds."""
    carry = tuple((x + y) // w for x, y, w in zip(coeffs, exps, p))
    landed = tuple((x + y) % w for x, y, w in zip(coeffs, exps, p))
    return landed, sum(carry), carry


@lru_cache(maxsize=2**12)
def _pair(slot: int, a: int, b: int) -> Key:
    """The generator pair (slot, a, b) as one tuple object that every
    cached piece table shares."""
    return slot, a, b


@lru_cache(maxsize=2**8)
def _pieces(f0: MonomialMatrix, f1: MonomialMatrix, g0: MonomialMatrix, g1: MonomialMatrix, parity: int) -> dict:
    """The entries of the Hom complex differential at a position of the
    given parity, for the factorization pair with differentials (f0, f1)
    and (g0, g1): by source pair (slot, a, b), one flat tuple of
    (target pair, coeff, exponents) triples.

    A twist passes on the very matrix objects, so all twists of a pair
    share one cache entry, and every entry names its pairs by the
    shared tuples of ``_pair``.
    """
    # alternating sign on the phi o d_F terms; squares to zero
    sign = -1 if parity else 1
    # by slot: columns of d_G at positions k and k+1, and rows of d_F
    # from positions 0 and 1 (F even to F odd, F odd to F even)
    dg = (g1.cols, g0.cols) if parity == 0 else (g0.cols, g1.cols)
    df = (f0.rows, f1.rows)
    out = {}
    for slot in (0, 1):
        for a in range(len(df[slot])):
            for b in range(len(dg[slot])):
                flat = []
                # component d_G o phi, into G gens at position k+1+slot
                for r, coeff, e in dg[slot][b]:
                    flat += (_pair(slot, a, r), coeff, e)
                # component -(-1)^k phi o d_F, from F gens at the other position
                for a2, coeff, e in df[slot][a]:
                    flat += (_pair(1 - slot, a2, b), sign * coeff, e)
                out[_pair(slot, a, b)] = tuple(flat)
    return out


def stable_hom_dim_oracle(f: GradedMF, g: GradedMF, m: int, q: int = DEFAULT_MODULUS) -> int:
    """Dimension of stable Hom(F, G[m]) from the folded Hom complex.

    The shift and the modulus are read by ``grading._index``, so a bool
    or a value that is not an integer, a float such as 1.0 too, raises
    ``TypeError``.
    """
    m = _index(m, "shift")
    if f.weights != g.weights:
        raise ValueError("mismatched weight systems")
    q = check_modulus(q)
    ws = f.weights
    mid = _layout(ws, _pair_degrees(f, g, m, 0))
    if not mid:
        # the answer is a subquotient of the middle term
        return 0
    # terms m - 1 and m + 1 pair the same generators, one level apart;
    # each differential is ranked before the next one is built
    outer = _pair_degrees(f, g, m - 1, -1)
    rank_mid = _rank(_recipe(f, g, m, mid, _layout(ws, outer, 1)), q)
    return _dim(mid) - rank_mid - _rank(_recipe(f, g, m - 1, _layout(ws, outer), mid), q)


def _recipe(f: GradedMF, g: GradedMF, k: int, cols: Layout, rows: Layout) -> Recipe:
    """The differential from term k to term k + 1, from the layouts of
    both terms, as everything its assembly reads: (n, nrows, ncols,
    pieces), with pieces one flat tuple of (flat start, source level,
    carry, coeff) quadruples, one per piece.

    Each piece, a block of ``cols`` and one matrix entry leaving it,
    sends the block's monomial i to monomial ``pos[i]`` of one block of
    ``rows``, where ``pos`` is the position map of (n, source level,
    carry); its flat start is where the block pair begins in the
    row-major matrix.  A target block missing from ``rows`` or of
    another degree than the product raises ``ValueError``.  The flat
    tuple holds half the objects of a tuple of quadruples, which counts
    since the rank cache keeps every recipe it ranks.
    """
    p = f.weights.p
    pieces = _pieces(f.d0, f.d1, g.d0, g.d1, k % 2)
    ncols = _dim(cols)
    out = []
    for key, (coeffs, level, offset, _) in cols.items():
        entries = iter(pieces[key])
        for target, coeff, e in zip(entries, entries, entries):
            landed, lift, carry = _landing(p, coeffs, e)
            block = rows.get(target)
            if block is None or block[1] != level + lift or block[0] != landed:
                raise ValueError(f"an entry maps pair {key} into pair {target}, whose block has another degree")
            out += (block[2] * ncols + offset, level, carry, coeff)
    return len(p), _dim(rows), ncols, tuple(out)


def _assemble(recipe: Recipe) -> SparseMatrix:
    """The matrix of a recipe of ``_recipe``, unreduced, in coordinates:
    one flat index and one value per monomial of every piece, so where
    pieces meet, ``rank_mod`` sums them.

    The pieces of one (source level, carry) share a position map ``pos``,
    so they are written together: piece j adds coeffs[j] at flat index
    starts[j] + ncols * pos[i] + i, for each monomial i of its block.
    """
    n, nrows, ncols, pieces = recipe
    groups = {}
    entries = iter(pieces)
    for start, level, carry, coeff in zip(entries, entries, entries, entries):
        group = groups.get((level, carry))
        if group is None:
            group = groups[level, carry] = ([], [])
        group[0].append(start)
        group[1].append(coeff)
    at, values = [], []
    for (level, carry), (starts, coeffs) in groups.items():
        pos = _position_map(n, level, carry)
        at.append((np.array(starts, dtype=np.intp)[:, None] + (ncols * pos + np.arange(pos.size))).ravel())
        values.append(np.repeat(np.array(coeffs, dtype=np.int64), pos.size))
    if at:
        at, values = np.concatenate(at), np.concatenate(values)
    return SparseMatrix((nrows, ncols), at, values)


@lru_cache(maxsize=2**10)
def _rank(recipe: Recipe, q: int) -> int:
    """The rank mod q of the matrix of a recipe.  A recipe is everything
    the assembly reads, so equal keys are equal matrices."""
    return rank_mod(_assemble(recipe), q)


@lru_cache(maxsize=2**16, typed=True)
def oracle_hom(a: StableObject, b: StableObject, m: int = 0, q: int = DEFAULT_MODULUS) -> int:
    """Oracle dimension of Hom(A, B[m]) for stable objects.

    A zero object becomes the empty factorization, whose Hom complex
    has an empty middle term, so it answers 0 after the shift, the
    weights and the modulus are checked, as every other pair does.  The
    cache is keyed by value and type, so a shift of 1.0 raises even
    after the shift 1 is cached.
    """
    return stable_hom_dim_oracle(mf_of(a), mf_of(b), m, q)


# -- the Kunneth count from one-variable tables ------------------------------


@lru_cache(maxsize=2**10)
def _one_variable_factors(p: int, a: int, b: int, q: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per residue r in [0, p), the factor G_r(t) = sum of T(tau, m)
    t^(2 floor(tau / p) + m) over tau = r mod p, as (exponent, dim)
    pairs, where T(tau, m) = dim Hom(U^a, U^b(tau x)[m]) over the one
    weight p, from the dense oracle at modulus q.

    [2] = (c) makes m in {0, 1} enough.  tau runs over [-3p, 3p], and a
    nonzero entry on either end raises ``RuntimeError``, since the
    support could then reach past the window.
    """
    ws = WeightSystem((p,))
    source = StableObject(ws, (a,), ws.zero(), 0)
    reach = 3 * p
    factors = [{} for _ in range(p)]
    for tau in range(-reach, reach + 1):
        target = StableObject(ws, (b,), ws.element((tau,)), 0)
        for m in (0, 1):
            dim = oracle_hom(source, target, m, q)
            if not dim:
                continue
            if abs(tau) == reach:
                raise RuntimeError(f"Hom(U^{a}, U^{b}({tau} x)[{m}]) over ({p}) is {dim} on the edge of the window")
            g = factors[tau % p]
            e = 2 * (tau // p) + m
            g[e] = g.get(e, 0) + dim
    return tuple(tuple(sorted(g.items())) for g in factors)


def kunneth_series(a: StableObject, b: StableObject, q: int = DEFAULT_MODULUS) -> dict[int, int]:
    """The nonzero dim Hom(A, B[m]) by m, from one-variable tables.

    For A = U^a(x)[k] and B = U^b(y)[k'], with z = y - x, dim Hom(A,
    B[m]) is the coefficient of t^(2 ell(z) + k' - k + m) in the product
    of the factors ``_one_variable_factors(p_i, a_i, b_i, q)[z_i]``
    (see the module docstring).  The modulus is passed on to the dense
    one-variable calls, so a second-prime run checks those tables too.
    """
    if a.weights != b.weights:
        raise ValueError("mismatched weight systems")
    q = check_modulus(q)
    if a.is_zero or b.is_zero:
        return {}
    z = b.twist - a.twist
    product = {0: 1}
    for p, ea, eb, r in zip(a.weights.p, a.ell, b.ell, z.coeffs):
        step = {}
        for f, c in _one_variable_factors(p, ea, eb, q)[r]:
            for e, d in product.items():
                step[e + f] = step.get(e + f, 0) + c * d
        product = step
    offset = 2 * z.level + b.shift - a.shift
    return {e - offset: d for e, d in sorted(product.items())}


def kunneth_hom(a: StableObject, b: StableObject, m: int = 0, q: int = DEFAULT_MODULUS) -> int:
    """dim Hom(A, B[m]) from ``kunneth_series``."""
    m = _index(m, "shift")
    return kunneth_series(a, b, q).get(m, 0)


def probe_objects(ws: WeightSystem) -> list[StableObject]:
    """The deterministic probe set: cuboid objects under level-zero
    twists in [0, s], the zero-or-one sums of the x_i."""
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
