"""Symbolic objects U^ell(x)[k] of the stable category and their Hom calculus.

An object is stored as a parameter triple (ell, twist, shift).  Two
rewriting rules identify different triples:

  * reflection at coordinate i, which replaces ell_i by p_i - ell_i,
    adds (p_i - ell_i) x_i to the twist and drops the shift by one;
  * the hypersurface periodicity (c) = [2], folding twist level into
    shift.

A double reflection at any coordinate is exactly one fold, so the
identifications are generated by single reflections alone.  The orbit
of a triple under them is finite once folds are normalized away: it is
indexed by the subset of coordinates reflected an odd number of times.
Canonical forms take the least key over the subsets whose parity
matches the shift, which is deterministic and idempotent.  Reflection
acts coordinatewise, so the least key is found coordinate by
coordinate in O(n) steps; the parity constraint couples coordinates
only through one forced reflection (see ``StableObject._normal_form``).
Object equality means equality of canonical forms and is audited
against the matrix factorization oracle.  The module keeps no state
between calls: an object computes its canonical form once and holds
it, a canonical form knows that it is one, and that memo is freed with
its object by reference counting alone.

Hom dimensions are computed by matching the pair, after twist and
shift equivariance and reflections on either argument, against two
families with closed Hom formulas: the extended cuboid families (one
dimensional exactly when ell >= z and 0 <= x - y <= s, zero between
distinct total shifts) and the replicated families built from Serre
twists S^i = (-i s)[i n] of a slab.  Since the rewriting freedom acts
coordinatewise, the matching search decomposes per coordinate and is
complete.  Two cuboid searches, on (a, b) and on (b, S a), and one zero
test decide everything the replicated families reach:

  * placing a in copy i and b in copy j of the family of slab
    coordinate t asks, per coordinate c, for raw twist coefficients
    that differ by k = j - i modulo p_c, with ell = p_t - 1 on both
    sides at c = t; the answer depends on t and k alone;
  * k = 0 puts both twists in one residue class, which is a cuboid
    match, so the search on (a, b) already finds it;
  * k = 1 is the Serre dual of a cuboid match: Hom(a, b) is dual to
    Hom(b, S a), and S a sits in copy i + 1 = j together with b, so
    the search on (b, S a) finds it;
  * members of copies with any other difference pair to zero, so for
    those only feasibility matters;
  * with copies 0 .. p_t - 2, matches of (a, b) reach the differences
    2 - p_t .. p_t - 2 and matches of (b, S a) the differences
    3 - p_t .. p_t - 1, so the zero test runs over 2 - p_t .. p_t - 1;
    the upper end p_t - 1 is reached only through S and decides pairs
    of its own;
  * a search on (S^-1 b, a) would be the search on (b, S a) moved by
    the autoequivalence S^-1, which changes no residue or shift
    comparison, so it adds nothing.

The search never depends on the shift of b.  A suspension changes a
canonical form by one reflection or one fold, so every coordinate
keeps the same rewritings (ell, raw twist modulo p): the same
configurations are feasible at every shift, and on a feasible one only
the total shift d' of b moves, by m.  So one search decides Hom(a,
b[m]) for all m at once (``hom_series``), and the Hom of a pair is
nonzero at one shift at most, where it is one dimensional; ``hom_dim``
reads the shift 0 of the same search.

Pairs outside every matching configuration honestly return ``None``
(unknown) instead of extrapolating.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .grading import GradeElement, WeightSystem, _index, normalize


@dataclass(frozen=True)
class StableObject:
    weights: WeightSystem
    ell: tuple[int, ...] | None
    twist: GradeElement
    shift: int

    # Memo of ``canonical()``, set with ``object.__setattr__`` and not a
    # field, so ==, hash, repr and asdict never see it: the canonical
    # form, or True on an object that is its own canonical form (a
    # reference to itself would be a cycle).
    _canonical = None

    def __post_init__(self) -> None:
        if self.twist.weights is not self.weights and self.twist.weights != self.weights:
            raise ValueError(f"twist over {self.twist.weights} for an object over {self.weights}")
        if type(self.shift) is not int:
            raise TypeError(f"shift {self.shift!r} is not an int")
        if self.ell is not None:
            if len(self.ell) != self.weights.n:
                raise ValueError(f"ell {self.ell} has length {len(self.ell)}, weights {self.weights} have length {self.weights.n}")
            for e, w in zip(self.ell, self.weights.p):
                if type(e) is not int:
                    raise TypeError(f"ell entry {e!r} is not an int")
                if not 1 <= e <= w - 1:
                    raise ValueError(f"ell {self.ell} outside [s, s + delta] for weights {self.weights}")

    @property
    def is_zero(self) -> bool:
        return self.ell is None

    def reflect(self, i: int) -> StableObject:
        """Rewrite at coordinate i (0-based); denotes the same object."""
        i = _index(i, "coordinate", 0, self.weights.n - 1)
        if self.is_zero:
            raise ValueError("cannot reflect the zero object")
        p = self.weights.p[i]
        e = self.ell[i]
        ell = self.ell[:i] + (p - e,) + self.ell[i + 1 :]
        return StableObject(self.weights, ell, self.twist + (p - e) * self.weights.x(i), self.shift - 1)

    def suspend(self, m: int) -> StableObject:
        m = _index(m, "shift")
        if self.is_zero:
            return self
        return StableObject(self.weights, self.ell, self.twist, self.shift + m).canonical()

    def twist_by(self, y: GradeElement) -> StableObject:
        if self.is_zero:
            return self
        return StableObject(self.weights, self.ell, self.twist + y, self.shift).canonical()

    def serre(self) -> StableObject:
        """Apply the Serre functor (-s)[n]."""
        if self.is_zero:
            return self
        ws = self.weights
        return StableObject(ws, self.ell, self.twist - ws.s(), self.shift + ws.n).canonical()

    def canonical(self) -> StableObject:
        """Deterministic normal form with shift zero, computed once per
        object and kept on it (see ``_normal_form``)."""
        memo = self._canonical
        if memo is not None:
            return self if memo is True else memo
        form = self._normal_form()
        if form is self:
            object.__setattr__(self, "_canonical", True)
        else:
            object.__setattr__(form, "_canonical", True)
            object.__setattr__(self, "_canonical", form)
        return form

    def _normal_form(self) -> StableObject:
        """The normal form, or self when self is already normal.

        Among the finitely many shift-zero representatives (reflection
        subsets of parity matching the shift, folds absorbed into the
        twist level) pick the one with the lexicographically least key
        (ell, twist coefficients, twist level).  The key is found in
        O(n) integer steps, without enumerating subsets:

          * coordinate i alone decides key positions i (its ell) and
            n + i (its twist coefficient), and its two options always
            differ at one of them: at i when ell_i != p_i - ell_i, at
            n + i otherwise (the coefficients then differ by p_i / 2);
          * so each coordinate strictly prefers one option, and the
            level never decides;
          * if the preferred reflections have the wrong parity, exactly
            one coordinate takes its other option: every admissible
            subset leaves the optimum at its earliest deviating
            position, so the least key deviates only at the coordinate
            whose options differ latest.  A reflection there does it,
            since reflecting twice is one fold.

        A reflection adds p_i - ell_i to a coefficient below p_i, so it
        carries at most one c into the level; the remaining shift, even
        by construction, folds into the level as shift / 2 copies of c.
        """
        if self.is_zero:
            if self.shift == 0 and self.twist.is_zero():
                return self
            return zero_object(self.weights)
        ws = self.weights
        ell = list(self.ell)
        coeffs = list(self.twist.coeffs)
        level = self.twist.level
        reflections = 0
        undo = ws.n - 1  # the coordinate whose options differ latest in the key
        for i, p in enumerate(ws.p):
            e, u = ell[i], coeffs[i]
            v = u + p - e
            carry = v >= p
            if carry:
                v -= p
            if (p - e, v) < (e, u):
                ell[i], coeffs[i] = p - e, v
                level += carry
                reflections += 1
            if 2 * e == p:
                undo = i
        if (reflections - self.shift) % 2:
            # one more reflection at undo; after a first one it is a fold
            p = ws.p[undo]
            e = ell[undo]
            v = coeffs[undo] + p - e
            if v >= p:
                v -= p
                level += 1
            ell[undo], coeffs[undo] = p - e, v
            reflections += 1
        level += (self.shift - reflections) // 2
        ell, coeffs = tuple(ell), tuple(coeffs)
        # no reflection, or one undone as a fold
        if self.shift == 0 and level == self.twist.level and ell == self.ell and coeffs == self.twist.coeffs:
            return self
        return StableObject(ws, ell, GradeElement(ws, coeffs, level), 0)

    def is_same(self, other: StableObject) -> bool:
        """Object equality, i.e. equality of canonical forms."""
        if self.weights != other.weights:
            return False
        return self.canonical() == other.canonical()

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        s = "U[" + ",".join(str(e) for e in self.ell) + "]"
        if not self.twist.is_zero():
            s += str(self.twist)
        if self.shift:
            s += f"[{self.shift}]"
        return s


def U(weights: WeightSystem, ell, twist: GradeElement | None = None, shift: int = 0) -> StableObject:
    if twist is None:
        twist = weights.zero()
    return StableObject(weights, tuple(_index(e, "ell entry") for e in ell), twist, _index(shift, "shift"))


def rho_k(weights: WeightSystem, twist: GradeElement | None = None, shift: int = 0) -> StableObject:
    """The stable image of the residue field, U^s."""
    return U(weights, (1,) * weights.n, twist, shift)


def zero_object(weights: WeightSystem) -> StableObject:
    return StableObject(weights, None, weights.zero(), 0)


def cuboid_objects(weights: WeightSystem) -> list[StableObject]:
    """All U^ell with s <= ell <= s + delta, in descending order: ell = w + 1
    for w in the box [0, delta]."""
    return [U(weights, tuple(w + 1 for w in x)) for x in weights.box()]


_OBJ_RE = re.compile(
    r"^\s*U\[(?P<ell>[-\d,\s]+)\]"
    r"(?:\((?P<coeffs>[-\d,\s]+);(?P<level>-?\d+)\))?"
    r"(?:\[(?P<shift>-?\d+)\])?\s*$"
)


def parse_object(weights: WeightSystem, text: str) -> StableObject:
    """Parse the textual syntax U[l1,...,ln](c1,...,cn;level)[shift]."""
    if text.strip() in ("0", "Zero", "zero"):
        return zero_object(weights)
    m = _OBJ_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse stable object {text!r}")
    ell = tuple(int(t) for t in m.group("ell").split(","))
    twist = weights.zero()
    if m.group("coeffs") is not None:
        twist = normalize(weights, [int(t) for t in m.group("coeffs").split(",")], int(m.group("level")))
    shift = int(m.group("shift") or 0)
    return U(weights, ell, twist, shift)


def knorrer_transport(obj: StableObject) -> StableObject:
    """Transport an object to the weight system (2, p_1, ..., p_n)."""
    big = WeightSystem((2,) + obj.weights.p)
    if obj.is_zero:
        return zero_object(big)
    ell = (1,) + obj.ell
    twist = GradeElement(big, (0,) + obj.twist.coeffs, obj.twist.level)
    return StableObject(big, ell, twist, obj.shift)


# -- Hom dimension calculus -------------------------------------------------

def _rewritings(a: StableObject, b: StableObject):
    """Per coordinate, p and the four pairs of rewritings of a and b.

    A rewriting (e, ell, raw) keeps the coordinate (e = 0) or reflects
    it (e = 1), with the resulting ell and raw twist coefficient.
    """
    for p, ai, bi, ui, vi in zip(a.weights.p, a.ell, b.ell, a.twist.coeffs, b.twist.coeffs):
        a0, a1 = (0, ai, ui), (1, p - ai, ui + p - ai)
        b0, b1 = (0, bi, vi), (1, p - bi, vi + p - bi)
        yield p, ((a0, b0), (a0, b1), (a1, b0), (a1, b1))


def _pair_answer(a: StableObject, b: StableObject) -> tuple[int, bool] | None:
    """Decide the pair against the extended cuboid families, exactly, at
    every shift of b at once.

    A configuration rewrites both arguments, coordinate by coordinate,
    into family members U^l(x)[-sigma(x) + d] and U^z(y)[-sigma(y) + d']
    for one common coordinate subset.  The rewriting freedom per
    coordinate is a reflection on either side (flipping ell and adding
    its complement to the twist) plus a common twist transfer delta
    between the two sides, so feasibility decomposes coordinatewise and
    the enumeration below is complete.  A transfer fits when it leaves
    both coefficients at 0, which fixes delta modulo p, or, when both
    sides have ell = 1, when neither coefficient is left at p - 1: for
    p > 2 the least such delta lies in {0, 1, 2}, and for p = 2 this is
    the first condition again.  On a feasible configuration the answer
    is zero for d distinct from d', and otherwise one exactly when
    ell >= z and 0 <= x - y <= s; any feasible configuration computes
    the same true dimension, so the first is taken.

    Suspending b by m adds m to d' and changes nothing else the search
    reads, so the answer is (d - d', one): Hom(a, b[m]) is 1 at
    m = d - d' when one holds, and 0 at every other shift.
    """
    d = a.shift + 2 * a.twist.level
    dp = b.shift + 2 * b.twist.level
    one = True
    for p, options in _rewritings(a, b):
        for (ea, la, rawa), (eb, lb, rawb) in options:
            if la == lb == 1 and p > 2:
                delta = 0  # at most two residues to step over
                while delta in ((rawa + 1) % p, (rawb + 1) % p):
                    delta += 1
                break
            if (rawa - rawb) % p == 0:
                delta = rawa % p
                break
        else:
            return None
        wa, xa = divmod(rawa - delta, p)
        wb, yb = divmod(rawb - delta, p)
        d += -ea + 2 * wa + xa
        dp += -eb + 2 * wb + yb
        one = one and la >= lb and 0 <= xa - yb <= 1
    return d - dp, one


def _replicated_zero(a: StableObject, b: StableObject) -> bool:
    """Whether the pair sits in two copies of one replicated family that
    pair to zero.

    The replicated family of slab coordinate t consists of the slab
    objects U^l (l_t = p_t - 1) under the Serre twists S^i = (-i s)[i n].
    Members of copies i and j pair to zero unless j - i is 0 or 1, so
    only feasibility matters: a rewriting per coordinate c, with ell
    p_t - 1 on both sides at c = t, whose raw twist coefficients differ
    by k = j - i modulo p_c.  See the module docstring for why the copy
    differences 2 - p_t <= k <= p_t - 1 other than 0 and 1 are the ones
    left to test.
    """
    ws = a.weights
    free, slab = [], []
    for p, options in _rewritings(a, b):
        free.append({(ra - rb) % p for (_, _, ra), (_, _, rb) in options})
        slab.append({(ra - rb) % p for (_, la, ra), (_, lb, rb) in options if la == lb == p - 1})
    for t, pt in enumerate(ws.p):
        allowed = free[:t] + [slab[t]] + free[t + 1 :]
        for k in range(2 - pt, pt):
            if k not in (0, 1) and all(k % p in diffs for p, diffs in zip(ws.p, allowed)):
                return True
    return False


def _support(a: StableObject, b: StableObject) -> tuple[int, bool] | None:
    """Where Hom(a, b[m]) lives, over every shift m: (m0, one), with
    dimension 1 at m = m0 when one holds and 0 at every other shift, or
    None when out of reach.

    The search applies twist and shift equivariance and explores the
    full reflection orbits of both arguments.  It matches (a, b) and
    (b, S a) against the extended cuboid families, where S is the Serre
    functor, and answers zero when the pair sits in two copies of one
    replicated family whose difference is neither 0 nor 1; these three
    steps reach every configuration of both families (see the module
    docstring).  None of the three depends on the shift of b: Hom(a,
    b[m]) is dual to Hom(b[m], S a), which the second search puts at
    m = -(d_b - d_Sa), and the zero test reads no shift.
    """
    if a.weights != b.weights:
        raise ValueError("mismatched weight systems")
    a, b = a.canonical(), b.canonical()
    if a.is_zero or b.is_zero:
        return 0, False
    found = _pair_answer(a, b)
    if found is not None:
        return found
    found = _pair_answer(b, a.serre())
    if found is not None:
        m, one = found
        return -m, one
    if _replicated_zero(a, b):
        return 0, False
    return None


def hom_series(a: StableObject, b: StableObject) -> dict[int, int] | None:
    """Hom(a, b[m]) over every shift m at once, from one search: {m0: 1}
    when it is one dimensional at the single shift m0, {} when it is
    zero at every shift, and None when out of reach.

    ``hom_series(a, b).get(m, 0) == hom_dim(a, b.suspend(m))`` for every
    m, and the search decides all shifts of a pair or none of them.
    """
    support = _support(a, b)
    if support is None:
        return None
    m0, one = support
    return {m0: 1} if one else {}


def hom_dim(a: StableObject, b: StableObject) -> int | None:
    """Hom dimension between stable objects; None when out of reach.

    The shift m = 0 of ``hom_series``, from the same search (see
    ``_support``).  Every answer it does give is exact.
    """
    support = _support(a, b)
    if support is None:
        return None
    m0, one = support
    return int(one and m0 == 0)
