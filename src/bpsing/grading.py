"""Exact arithmetic in the grading group of a Brieskorn-Pham hypersurface.

For weights p = (p_1, ..., p_n) the group L(p) is abelian on generators
x_1, ..., x_n, c subject to p_i x_i = c.  Every element is uniquely a
normal form

    sum(lam_i x_i) + lam c,   0 <= lam_i < p_i,  lam in Z,

and that normal form is the ONLY representation stored here; raw
coefficient combinations are normalized at the boundary.  Sums,
differences and negatives of normal forms need no division: each
coordinate carries (or borrows) at most one c into the level.  The partial
order is x <= y iff y - x lies in the submonoid generated by the x_i
and c, which in normal form just means level(y - x) >= 0.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable


def _index(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """The one reader of the package's integer arguments: ``value`` as an
    ``int``, checked against the range lo..hi (an end that is None is
    open, and hi is given only with lo).

    A numpy integer is read as its ``int``.  A bool, although
    ``operator.index(True)`` is 1, and anything else that is not an
    integer raise ``TypeError``; a value outside the range raises
    ``ValueError``.  Both messages name the argument.  The value types
    that store integers as given, ``GradeElement``, ``StableObject`` and
    ``qalg.IntPolynomial``, do not convert: the first two are built on
    every sum and canonical form, so they take an exact ``int`` only
    (``type(x) is int``) and raise the same ``TypeError`` on anything
    else.
    """
    if type(value) is not int:
        try:
            if isinstance(value, bool):
                raise TypeError
            value = operator.index(value)
        except TypeError:
            raise TypeError(f"{name} {value!r} is not an int") from None
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        if hi is not None:
            raise ValueError(f"{name} {value} outside {lo}..{hi}")
        raise ValueError(f"negative {name} {value}" if lo == 0 else f"{name} {value} is below {lo}")
    return value


class NotInImageError(ValueError):
    """Raised when theta_inv is applied to an element outside the image."""


@dataclass(frozen=True)
class WeightSystem:
    """An n-tuple of integer weights, each at least 2."""

    p: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", tuple(_index(x, "weight", 2) for x in self.p))
        if len(self.p) < 1:
            raise ValueError("need at least one weight")

    @property
    def n(self) -> int:
        return len(self.p)

    def element(self, coeffs: Iterable[int], level: int = 0) -> GradeElement:
        return normalize(self, coeffs, level)

    def zero(self) -> GradeElement:
        return GradeElement(self, (0,) * self.n, 0)

    @cached_property
    def _basics(self) -> tuple[tuple[GradeElement, ...], GradeElement, GradeElement]:
        """(x_1, ..., x_n), c and s, built on first use."""
        xs = tuple(normalize(self, [int(j == i) for j in range(self.n)], 0) for i in range(self.n))
        return xs, GradeElement(self, (0,) * self.n, 1), normalize(self, [1] * self.n, 0)

    def x(self, i: int) -> GradeElement:
        """The generator x_i (0-based index i in 0..n-1)."""
        xs = self._basics[0]
        return xs[_index(i, "variable index", 0, len(xs) - 1)]

    def c(self) -> GradeElement:
        """The canonical element c = p_i x_i."""
        return self._basics[1]

    def s(self) -> GradeElement:
        """The coordinate sum s = x_1 + ... + x_n."""
        return self._basics[2]

    def omega(self) -> GradeElement:
        """The dualizing element c - s."""
        return self.c() - self.s()

    def delta(self) -> GradeElement:
        """The dominant element sum((p_i - 2) x_i)."""
        return normalize(self, [w - 2 for w in self.p], 0)

    def box(self) -> list[tuple[int, ...]]:
        """The coefficient tuples of the box [0, delta], in descending
        lexicographic order: the one vertex order that the box algebras
        and the tilting families built on them share."""
        return list(itertools.product(*(range(w - 2, -1, -1) for w in self.p)))

    def specials(self) -> dict[str, GradeElement]:
        return {"c": self.c(), "omega": self.omega(), "delta": self.delta(), "s": self.s()}

    def to_json(self) -> dict:
        return {"p": list(self.p)}

    @staticmethod
    def from_json(data: dict) -> WeightSystem:
        return WeightSystem(tuple(data["p"]))

    def __str__(self) -> str:
        return "(" + ",".join(str(w) for w in self.p) + ")"


@dataclass(frozen=True)
class GradeElement:
    """A group element in normal form.  Equality is structural."""

    weights: WeightSystem
    coeffs: tuple[int, ...]
    level: int

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.weights.n:
            raise ValueError(f"coefficients {self.coeffs} have length {len(self.coeffs)}, weights {self.weights} have length {self.weights.n}")
        if type(self.level) is not int:
            raise TypeError(f"level {self.level!r} is not an int")
        for lam, w in zip(self.coeffs, self.weights.p):
            if type(lam) is not int:
                raise TypeError(f"coefficient {lam!r} is not an int")
            if not 0 <= lam < w:
                raise ValueError(f"coefficient {lam} out of range for weight {w}")

    def __hash__(self) -> int:
        # equal elements share their weights, so the weights need not be hashed again
        return hash((self.coeffs, self.level))

    def _check_same(self, other: GradeElement) -> None:
        if self.weights is not other.weights and self.weights != other.weights:
            raise ValueError("mismatched weight systems")

    def __add__(self, other: GradeElement) -> GradeElement:
        self._check_same(other)
        out = []
        level = self.level + other.level
        for a, b, w in zip(self.coeffs, other.coeffs, self.weights.p):
            t = a + b
            if t >= w:
                t -= w
                level += 1
            out.append(t)
        return GradeElement(self.weights, tuple(out), level)

    def __neg__(self) -> GradeElement:
        out = []
        level = -self.level
        for a, w in zip(self.coeffs, self.weights.p):
            if a:
                out.append(w - a)
                level -= 1
            else:
                out.append(0)
        return GradeElement(self.weights, tuple(out), level)

    def __sub__(self, other: GradeElement) -> GradeElement:
        self._check_same(other)
        out = []
        level = self.level - other.level
        for a, b, w in zip(self.coeffs, other.coeffs, self.weights.p):
            t = a - b
            if t < 0:
                t += w
                level -= 1
            out.append(t)
        return GradeElement(self.weights, tuple(out), level)

    def __mul__(self, k: int) -> GradeElement:
        k = _index(k, "k")
        return normalize(self.weights, [k * a for a in self.coeffs], k * self.level)

    __rmul__ = __mul__

    def __le__(self, other: GradeElement) -> bool:
        """Partial order: self <= other iff (other - self) is effective."""
        self._check_same(other)
        return (other - self).level >= 0

    def __ge__(self, other: GradeElement) -> bool:
        return other <= self

    def is_zero(self) -> bool:
        return self.level == 0 and not any(self.coeffs)

    def sigma(self) -> int:
        """Coefficient sum, defined on the box 0 <= self <= delta."""
        if self.level != 0 or any(l > w - 2 for l, w in zip(self.coeffs, self.weights.p)):
            raise ValueError(f"{self} is not in the box [0, delta]")
        return sum(self.coeffs)

    def dim_r(self) -> int:
        """Dimension of the hypersurface ring in this degree.

        Counts the monomial basis prod X_i^(lam_i + d_i p_i) X_n^(lam_n)
        with d_1 + ... + d_(n-1) = level, d_i >= 0.
        """
        if self.level < 0:
            return 0
        n = self.weights.n
        if n == 1:
            return 1 if self.level == 0 else 0
        return math.comb(self.level + n - 2, n - 2)

    def dim_s(self) -> int:
        """Dimension of the ambient polynomial ring in this degree."""
        if self.level < 0:
            return 0
        n = self.weights.n
        return math.comb(self.level + n - 1, n - 1)

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs), "level": self.level}

    @staticmethod
    def from_json(weights: WeightSystem, data: dict) -> GradeElement:
        return normalize(weights, data["coeffs"], data["level"])

    def __str__(self) -> str:
        return "(" + ",".join(str(a) for a in self.coeffs) + f";{self.level})"


def normalize(weights: WeightSystem, coeffs: Iterable[int], level: int = 0) -> GradeElement:
    """Reduce a raw coefficient combination to its unique normal form."""
    coeffs = list(coeffs)
    if len(coeffs) != weights.n:
        raise ValueError(f"coefficients {tuple(coeffs)} have length {len(coeffs)}, weights {weights} have length {weights.n}")
    out = []
    lev = _index(level, "level")
    for a, w in zip(coeffs, weights.p):
        q, r = divmod(_index(a, "coefficient"), w)
        out.append(r)
        lev += q
    return GradeElement(weights, tuple(out), lev)


class Dichotomy(Enum):
    NON_NEGATIVE = "non_negative"
    BELOW_BOUND = "below_bound"


def dichotomy(a: GradeElement) -> tuple[Dichotomy, GradeElement | None]:
    """Exactly one of a >= 0 or a <= (n-2)c + omega holds.

    Returns the branch, with the witness (n-2)c + omega - a in the
    second case.
    """
    ws = a.weights
    bound = (ws.n - 2) * ws.c() + ws.omega()
    witness = bound - a
    nonneg = a.level >= 0
    below = witness.level >= 0
    if nonneg == below:
        raise RuntimeError(f"dichotomy is not exclusive at {a}")
    return (Dichotomy.NON_NEGATIVE, None) if nonneg else (Dichotomy.BELOW_BOUND, witness)


@dataclass(frozen=True)
class GroupEmbedding:
    """The coefficient-preserving injection from a reduced weight system.

    The reduced system replaces the last weight p_n by the split value
    p_{j,n}, where p_{1,n} + p_{2,n} = p_n + 1.  The map theta_j carries
    a normal form of the reduced group to the same coefficients and
    level in the full group; an element lies in its image iff its last
    coefficient is below p_{j,n}.
    """

    target: WeightSystem
    j: int
    split: tuple[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "j", _index(self.j, "j", 1, 2))
        object.__setattr__(self, "split", tuple(_index(w, "split weight", 2) for w in self.split))
        p1n, p2n = self.split
        if p1n + p2n != self.target.p[-1] + 1:
            raise ValueError(f"split {self.split} does not satisfy p1n + p2n = p_n + 1")

    @property
    def split_weight(self) -> int:
        return self.split[self.j - 1]

    @cached_property
    def source(self) -> WeightSystem:
        # one instance per embedding, so that its cached x_i, c and s are reused
        return WeightSystem(self.target.p[:-1] + (self.split_weight,))

    def theta(self, a: GradeElement) -> GradeElement:
        if a.weights != self.source:
            raise ValueError("element does not live in the reduced system")
        return GradeElement(self.target, a.coeffs, a.level)

    def theta_inv(self, b: GradeElement) -> GradeElement:
        if b.weights != self.target:
            raise ValueError("element does not live in the full system")
        if b.coeffs[-1] >= self.split_weight:
            raise NotInImageError(f"{b} has last coefficient >= {self.split_weight}")
        return GradeElement(self.source, b.coeffs, b.level)
