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
only through one forced reflection (see ``StableObject.canonical``).
Object equality means equality of canonical forms and is audited
against the matrix factorization oracle.

Hom dimensions are computed by matching the pair, after twist and
shift equivariance and reflections on either argument, against two
families with closed Hom formulas: the extended cuboid families (one
dimensional exactly when ell >= z and 0 <= x - y <= s, zero between
distinct total shifts) and the replicated families built from Serre
twists of a slab.  Since the rewriting freedom acts coordinatewise,
the matching search decomposes per coordinate and is complete; a
single Serre-functor swap per branch extends the reach.  Pairs outside
every matching configuration honestly return ``None`` (unknown)
instead of extrapolating.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache

from .grading import GradeElement, WeightSystem, normalize

# A Hom answer is an exact dimension, or None when no rewriting sequence
# reaches a covered configuration.
HomAnswer = int | None


@dataclass(frozen=True)
class StableObject:
    weights: WeightSystem
    ell: tuple[int, ...] | None
    twist: GradeElement
    shift: int

    def __post_init__(self) -> None:
        if self.ell is not None:
            if any(not 1 <= e <= w - 1 for e, w in zip(self.ell, self.weights.p)):
                raise ValueError(f"ell {self.ell} outside [s, s + delta] for weights {self.weights}")

    @property
    def is_zero(self) -> bool:
        return self.ell is None

    def reflect(self, i: int) -> StableObject:
        """Rewrite at coordinate i (0-based); denotes the same object."""
        if self.is_zero:
            raise ValueError("cannot reflect the zero object")
        p = self.weights.p[i]
        e = self.ell[i]
        ell = self.ell[:i] + (p - e,) + self.ell[i + 1 :]
        return StableObject(self.weights, ell, self.twist + (p - e) * self.weights.x(i), self.shift - 1)

    def suspend(self, m: int) -> StableObject:
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

    def serre_inv(self) -> StableObject:
        if self.is_zero:
            return self
        ws = self.weights
        return StableObject(ws, self.ell, self.twist + ws.s(), self.shift - ws.n).canonical()

    def canonical(self) -> StableObject:
        """Deterministic normal form with shift zero.

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
        elif reflections == 0 and self.shift == 0:
            return self
        level += (self.shift - reflections) // 2
        new_ell = tuple(ell)
        if new_ell == self.ell:
            new_ell = self.ell  # share the tuple: the Hom cache keeps these objects
        return StableObject(ws, new_ell, GradeElement(ws, tuple(coeffs), level), 0)

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
    return StableObject(weights, tuple(int(e) for e in ell), twist, shift)


def rho_k(weights: WeightSystem, twist: GradeElement | None = None, shift: int = 0) -> StableObject:
    """The stable image of the residue field, U^s."""
    return U(weights, (1,) * weights.n, twist, shift)


def zero_object(weights: WeightSystem) -> StableObject:
    return StableObject(weights, None, weights.zero(), 0)


def cuboid_objects(weights: WeightSystem) -> list[StableObject]:
    """All U^ell with s <= ell <= s + delta, in descending order."""
    ranges = [range(w - 1, 0, -1) for w in weights.p]
    return [U(weights, ell) for ell in itertools.product(*ranges)]


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

def _pair_answer(a: StableObject, b: StableObject) -> int | None:
    """Decide the pair against the extended cuboid families, exactly.

    A configuration rewrites both arguments, coordinate by coordinate,
    into family members U^l(x)[-sigma(x) + d] and U^z(y)[-sigma(y) + d']
    for one common coordinate subset.  The rewriting freedom per
    coordinate is a reflection on either side (flipping ell and adding
    its complement to the twist) plus a common twist transfer between
    the two sides, so feasibility decomposes coordinatewise and the
    enumeration below is complete.  On a feasible configuration the
    answer is zero for d distinct from d', and otherwise one exactly
    when ell >= z and 0 <= x - y <= s; any feasible configuration
    computes the same true dimension, so the first is taken.
    """
    ws = a.weights
    choices = []
    for i, p in enumerate(ws.p):
        ai, bi = a.ell[i], b.ell[i]
        ui, vi = a.twist.coeffs[i], b.twist.coeffs[i]
        found = None
        for ea in (0, 1):
            la = p - ai if ea else ai
            rawa = ui + (p - ai if ea else 0)
            for eb in (0, 1):
                lb = p - bi if eb else bi
                rawb = vi + (p - bi if eb else 0)
                for delta in range(p):
                    wa, xa = divmod(rawa - delta, p)
                    wb, yb = divmod(rawb - delta, p)
                    if (xa == 0 and yb == 0) or (la == 1 and lb == 1 and xa <= p - 2 and yb <= p - 2):
                        found = (ea, eb, la, lb, xa, yb, wa, wb)
                        break
                if found:
                    break
            if found:
                break
        if found is None:
            return None
        choices.append(found)
    d = a.shift + 2 * a.twist.level
    dp = b.shift + 2 * b.twist.level
    for ea, eb, la, lb, xa, yb, wa, wb in choices:
        d += -ea + 2 * wa + xa
        dp += -eb + 2 * wb + yb
    if d != dp:
        return 0
    for ea, eb, la, lb, xa, yb, wa, wb in choices:
        if la < lb or not 0 <= xa - yb <= 1:
            return 0
    return 1


def _replicated_answer(a: StableObject, b: StableObject) -> int | None:
    """Decide the pair against the replicated tilting families.

    These families consist of the slab objects U^l (coordinate t
    maximal) under powers of the Serre twist, U^l(-i s)[i n] for
    0 <= i <= p_t - 2.  They are tilting with block lower bidiagonal
    endomorphism Cartan, so members at equal total shift pair to one
    exactly within a copy (l >= z) or between adjacent copies in the
    dual direction (z >= l), and to zero otherwise.
    """
    ws = a.weights
    for t in range(ws.n):
        for i in range(ws.p[t] - 1):
            for j in range(ws.p[t] - 1):
                ans = _match_replicated(a, b, t, i, j)
                if ans is not None:
                    return ans
    return None


def _match_replicated(a: StableObject, b: StableObject, t: int, i: int, j: int) -> int | None:
    ws = a.weights
    la_out, lb_out = [], []
    ea_sum = eb_sum = wa_sum = wb_sum = 0
    for c, p in enumerate(ws.p):
        ac, bc = a.ell[c], b.ell[c]
        uc, vc = a.twist.coeffs[c], b.twist.coeffs[c]
        xt = (-i) % p
        yt = (-j) % p
        found = None
        for ea in (0, 1):
            la = p - ac if ea else ac
            if c == t and la != p - 1:
                continue
            rawa = uc + (p - ac if ea else 0)
            delta = (rawa - xt) % p
            wa = (rawa - delta - xt) // p
            for eb in (0, 1):
                lb = p - bc if eb else bc
                if c == t and lb != p - 1:
                    continue
                rawb = vc + (p - bc if eb else 0)
                if (rawb - delta) % p != yt:
                    continue
                wb = (rawb - delta - yt) // p
                found = (ea, eb, la, lb, wa, wb)
                break
            if found:
                break
        if found is None:
            return None
        ea, eb, la, lb, wa, wb = found
        la_out.append(la)
        lb_out.append(lb)
        ea_sum += ea
        eb_sum += eb
        wa_sum += wa
        wb_sum += wb
    lev_is = sum((-i) // p for p in ws.p)
    lev_js = sum((-j) // p for p in ws.p)
    d = a.shift - ea_sum + 2 * (a.twist.level + wa_sum) - i * ws.n - 2 * lev_is
    dp = b.shift - eb_sum + 2 * (b.twist.level + wb_sum) - j * ws.n - 2 * lev_js
    if d != dp:
        return 0
    if i == j:
        return 1 if all(x >= y for x, y in zip(la_out, lb_out)) else 0
    if j == i + 1:
        return 1 if all(y >= x for x, y in zip(la_out, lb_out)) else 0
    return 0


def _pair_search(a: StableObject, b: StableObject) -> int | None:
    ans = _pair_answer(a, b)
    if ans is None:
        ans = _replicated_answer(a, b)
    return ans


@lru_cache(maxsize=None)
def _hom_dim_canonical(a: StableObject, b: StableObject) -> int | None:
    if a.is_zero or b.is_zero:
        return 0
    ans = _pair_search(a, b)
    if ans is not None:
        return ans
    ans = _pair_search(b, a.serre())
    if ans is not None:
        return ans
    return _pair_search(b.serre_inv(), a)


def hom_dim(a: StableObject, b: StableObject) -> int | None:
    """Hom dimension between stable objects; None when out of reach.

    The search applies twist and shift equivariance, explores the full
    reflection orbits of both arguments, and may swap the pair through
    the Serre functor once.  Every answer it does give is exact.
    """
    if a.weights != b.weights:
        raise ValueError("mismatched weight systems")
    return _hom_dim_canonical(a.canonical(), b.canonical())
