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

Hom dimensions have a closed form.  U^ell(x)[k] is a tensor product of
rank-one factorizations, one per variable, so by Thom-Sebastiani and
Kunneth (Dyckerhoff 2011, Preygel 2011) its Hom complex against
U^b(y)[k'] is the tensor product of one-variable Hom complexes, and
dim Hom(A, B[m]) is a sum of products of one-variable dimensions.  The
grading group is the pushout of the one-variable groups Z x_i over
their common c, so z = y - x splits as sum(r_i x_i) + ell(z) c with
r_i its coefficients, and c = [2] moves ell(z) into the shift.

Over one variable, U^a is the cyclic module k[x]/(x^a) of the
self-injective algebra k[x]/(x^p), with the twist convention that the
dense one-variable oracle tables pin.  A degree-zero map k[x]/(x^a) ->
k[x]/(x^b)(d) sends 1 to a multiple of x^d: it is a map when
x^(a + d) = 0 in k[x]/(x^b), that is d >= b - a, and nonzero when
d < b.  It factors through a projective exactly when it lifts to the
projective cover k[x]/(x^p), which x^d does when a + d >= p.  So the
stable Hom is one dimensional exactly when

    lo <= d < lo + min(a, b, p - a, p - b),    lo = max(0, b - a),

(the upper end is min(b, p - a)) and zero otherwise; this is ``_g``.
Every such d lies in [0, p), and [2] = (c) = (p x), so the residue
r = d mod p of the twist picks the shift:

  * at even shifts only m = 0 can be nonzero, with d = r;
  * at odd shifts, after the reflection U^b[-1] = U^(p-b)((p - b) x)[-2]
    = U^(p-b)(-b x), only m = -1 with d = r - b (for r >= b) or m = 1
    with d = r + p - b (for r < b); the second is never in range, since
    lo + min(...) <= p - b there, so Hom(U^a, U^b(r x)[-1]) is 1
    exactly when ``_g(p, a, p - b, (r + p - b) mod p)``;
  * the even case needs r < b and the odd one r >= b, so each
    one-variable factor is 0, 1, or 1 at the single shift e_i = -1.

The product is one monomial or zero:

  * Hom(A, B[m]) is 1 exactly at m0 = sum(e_i) - 2 ell(z) - (k' - k),
    with e_i = 0 when the even case holds at coordinate i and -1 when
    the odd one does, and 0 at every shift when neither holds at some
    coordinate;
  * every pair is decided, and its Hom lives at one shift at most.

``_support`` reads ell, the raw twist coefficients and the shifts of
both arguments, so it needs no canonical form and no Serre functor,
and every representative of an object gives the same answer.  The
rule is checked against the dense one-variable oracle tables for every
p <= 9, against the dense multi-variable oracle, and against the
retired reflection search of the test suite on every pair it decides.
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

def _g(p: int, a: int, b: int, r: int) -> bool:
    """Whether the stable Hom from k[x]/(x^a) to k[x]/(x^b)(r) over
    k[x]/(x^p) is nonzero (one dimensional), for 0 <= r < p."""
    lo = b - a if b > a else 0
    return lo <= r < lo + min(a, b, p - a, p - b)


def _support(a: StableObject, b: StableObject) -> tuple[int, bool]:
    """Where Hom(a, b[m]) lives, over every shift m: (m0, True) when it
    is one dimensional at m = m0 and 0 at every other shift, (0, False)
    when it is zero at every shift (see the module docstring).

    z = b.twist - a.twist is taken coefficient by coefficient: each
    borrow lowers ell(z) by one, which moves m0 by two.
    """
    if a.weights is not b.weights and a.weights != b.weights:
        raise ValueError("mismatched weight systems")
    if a.is_zero or b.is_zero:
        return 0, False
    m0 = a.shift - b.shift - 2 * (b.twist.level - a.twist.level)
    for p, ai, bi, u, v in zip(a.weights.p, a.ell, b.ell, a.twist.coeffs, b.twist.coeffs):
        r = v - u
        if r < 0:
            r += p
            m0 += 2
        if not _g(p, ai, bi, r):
            if not _g(p, ai, p - bi, (r + p - bi) % p):
                return 0, False
            m0 -= 1
    return m0, True


def hom_series(a: StableObject, b: StableObject) -> dict[int, int] | None:
    """Hom(a, b[m]) over every shift m at once: {m0: 1} when it is one
    dimensional at the single shift m0, and {} when it is zero at every
    shift.

    ``hom_series(a, b).get(m, 0) == hom_dim(a, b.suspend(m))`` for every
    m.  The rule decides every pair, so the answer is never None.
    """
    m0, one = _support(a, b)
    return {m0: 1} if one else {}


def hom_dim(a: StableObject, b: StableObject) -> int | None:
    """Hom dimension between stable objects: the shift m = 0 of
    ``hom_series``, from the same rule (see ``_support``).  It decides
    every pair, so the answer is never None.
    """
    m0, one = _support(a, b)
    return int(one and m0 == 0)
