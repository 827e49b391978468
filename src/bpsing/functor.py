"""Reduction and insertion functors between weight systems, and ladders.

A split p_{1,n} + p_{2,n} = p_n + 1 of the last weight gives two
reduced systems and, for every integer k, a reduction functor
phi_{j,k} and an insertion functor psi_{j,k} obtained from the k = 0
pair by conjugating with degree twists:

    phi_{j,k} = (-k x_{j,n}) phi_{j,0} (k x_n)
    psi_{j,k} = (-k x_n) psi_{j,0} (k x_{j,n})

Each functor acts on the degree of a projective R(y) by one map,
``predict_projective_image``.  On a U-family object U^ell(y)[m] the
twist y moves exactly as R(y) does and the shift m stays; of ell only
the last exponent ell_n changes, by integer arithmetic on ell_n, the
split weights and y_n + k modulo the last weight of the source
(``reduce`` and ``insert`` give the cases).  Together the functors
assemble into an infinite ladder of recollements of period p_n, whose
defining identities are what ``check_recollement`` verifies; as both
functors commute with the twist by c = [2], level 0 stands for all.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field

from .gmod import GradedModule, adjunction_check, make_E, make_simple
from .grading import GradeElement, GroupEmbedding, WeightSystem, _index, normalize
from .stable import StableObject, cuboid_objects, hom_dim, rho_k, zero_object


@dataclass(frozen=True)
class Ladder:
    weights: WeightSystem
    q: int  # the split value p_{1,n}
    emb1: GroupEmbedding = field(init=False)
    emb2: GroupEmbedding = field(init=False)

    def __post_init__(self) -> None:
        pn = self.weights.p[-1]
        if pn < 3:
            raise ValueError("the last weight must be at least 3 to split")
        object.__setattr__(self, "q", _index(self.q, "split value", 2, pn - 1))
        split = (self.q, pn + 1 - self.q)
        object.__setattr__(self, "emb1", GroupEmbedding(self.weights, 1, split))
        object.__setattr__(self, "emb2", GroupEmbedding(self.weights, 2, split))

    def emb(self, j: int) -> GroupEmbedding:
        return (self.emb1, self.emb2)[_index(j, "j", 1, 2) - 1]

    @property
    def period(self) -> int:
        return self.weights.p[-1]


def reduce(ladder: Ladder, j: int, k: int, obj: StableObject) -> StableObject:
    """Apply phi_{j,k} to a U-family object.

    The twist y moves as the projective R(y) does (see
    ``predict_projective_image``) and the shift stays.  Of ell only the
    last exponent ell_n changes: with gap = p_n - p_{j,n} and
    y_n = (twist_n + k) mod p_n it drops by

      * gap when y_n = 0, and the image is zero unless ell_n > gap;
      * ell_n - y_n clamped to [0, gap] when 0 < y_n < p_{j,n};
      * y_n - p_{j,n} otherwise, and the image is zero unless
        y_n - p_{j,n} < ell_n < y_n.
    """
    ws = ladder.weights
    emb = ladder.emb(j)
    k = _index(k, "k")
    src = emb.source
    if obj.weights != ws:
        raise ValueError("object does not live over the full system")
    if obj.is_zero:
        return zero_object(src)
    pjn = emb.split_weight
    gap = ws.p[-1] - pjn
    yn = (obj.twist.coeffs[-1] + k) % ws.p[-1]
    ln = obj.ell[-1]
    if yn == 0:
        if ln <= gap:
            return zero_object(src)
        m = gap
    elif yn < pjn:
        m = min(max(ln - yn, 0), gap)
    elif yn - pjn < ln < yn:
        m = yn - pjn
    else:
        return zero_object(src)
    twist = predict_projective_image(ladder, "reduce", j, k, obj.twist)
    return StableObject(src, obj.ell[:-1] + (ln - m,), twist, obj.shift).canonical()


def insert(ladder: Ladder, j: int, k: int, obj: StableObject) -> StableObject:
    """Apply psi_{j,k} to a U-family object over the reduced system.

    The twist y moves as the projective R(y) does and the shift stays.
    Of ell only the last exponent ell_n changes: it grows by
    p_n - p_{j,n} when (twist_n + k) mod p_{j,n} < ell_n.
    """
    ws = ladder.weights
    emb = ladder.emb(j)
    k = _index(k, "k")
    if obj.weights != emb.source:
        raise ValueError("object does not live over the reduced system")
    if obj.is_zero:
        return zero_object(ws)
    ell = obj.ell
    if (obj.twist.coeffs[-1] + k) % emb.split_weight < ell[-1]:
        ell = ell[:-1] + (ell[-1] + ws.p[-1] - emb.split_weight,)
    twist = predict_projective_image(ladder, "insert", j, k, obj.twist)
    return StableObject(ws, ell, twist, obj.shift).canonical()


def predict_projective_image(ladder: Ladder, direction: str, j: int, k: int, y: GradeElement) -> GradeElement:
    """Degree argument of the projective image R(y) under phi or psi.

    Reduction: let z = y + k x_n, and when its last coefficient a is at
    least p_{j,n} replace z by z - a x_n + c, which brings it into the
    image of theta_j; the image is theta_j^-1(z) - k x_{j,n}.
    Insertion: the image is theta_j(y + k x_{j,n}) - k x_n.  The same
    map moves the twist of a U-family object under ``reduce`` and
    ``insert``.

    Only the last coordinate moves, so the image is one ``normalize``
    of integers: adding k x_n to y_n carries floor((y_n + k) / p_n)
    into the level, and the replacement by c carries one more.
    """
    emb = ladder.emb(j)
    k = _index(k, "k")
    ws = ladder.weights
    src = emb.source
    if direction == "reduce":
        if y.weights != ws:
            raise ValueError("degree must live in the full system")
        carry, a = divmod(y.coeffs[-1] + k, ws.p[-1])
        if a >= emb.split_weight:
            carry, a = carry + 1, 0
        return normalize(src, y.coeffs[:-1] + (a - k,), y.level + carry)
    if direction == "insert":
        if y.weights != src:
            raise ValueError("degree must live in the reduced system")
        carry, a = divmod(y.coeffs[-1] + k, emb.split_weight)
        return normalize(ws, y.coeffs[:-1] + (a - k,), y.level + carry)
    raise ValueError("direction must be 'reduce' or 'insert'")


@dataclass
class LadderReport:
    weights: WeightSystem
    split: tuple[int, int]
    composite_zero: bool
    composite_failures: list[str]
    fully_faithful_samples: list[dict]
    periodicity: bool
    periodicity_failures: list[str]
    adjunction: list[dict]

    @property
    def passed(self) -> bool:
        return (
            self.composite_zero
            and self.periodicity
            and all(s["match"] for s in self.fully_faithful_samples)
            and all(a["ok"] for a in self.adjunction)
        )

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "passed": self.passed}, sort_keys=True, indent=2)


# how many cuboid pairs the full-faithfulness check compares, and how
# many (full, reduced) module pairs the adjunction check compares
_FF_PAIRS = 24
_ADJUNCTION_PAIRS = 8


def check_recollement(ladder: Ladder) -> LadderReport:
    """Verify the defining ladder identities.

    Checks the vanishing composite phi_{1,q} psi_{2,0} on rho_k(z) for
    every coefficient tuple z of the second reduced system at level 0,
    full faithfulness of the insertions on Hom dimensions over the
    first _FF_PAIRS cuboid pairs, the period-p_n twist conjugation
    identity, and module-level adjunction over the first
    _ADJUNCTION_PAIRS module pairs.

    Level 0 decides the composite at every level: ``reduce`` and
    ``insert`` read only the twist coefficients and carry the level
    through, so composite(z + L c) = composite(z)(L c), and
    X(L c) = X[2L] is zero exactly when X is.
    """
    ws = ladder.weights
    q = ladder.q
    src2 = ladder.emb2.source

    composite_failures = []
    for z in map(src2.element, itertools.product(*(range(w) for w in src2.p))):
        img = insert(ladder, 2, 0, rho_k(src2, z))
        out = reduce(ladder, 1, q, img)
        if not out.is_zero:
            composite_failures.append(f"phi_(1,{q}) psi_(2,0) rho(k)({z}) = {out}")

    ff = []
    for j in (1, 2):
        srcj = ladder.emb(j).source
        k = 0 if j == 2 else q - 1
        objs = cuboid_objects(srcj)
        # (a, b) and (a, b(x_1)) for all cuboid a, b, twisted only as far as read
        pairs = ((a, c) for a in objs for b in objs for c in (b, b.twist_by(srcj.x(0))))
        for a, b in itertools.islice(pairs, _FF_PAIRS):
            ha = hom_dim(a, b)
            hb = hom_dim(insert(ladder, j, k, a), insert(ladder, j, k, b))
            ff.append(
                {
                    "j": j,
                    "k": k,
                    "pair": [str(a), str(b)],
                    # bench/workloads.py counts a None here (ROADMAP items 7 and 15)
                    "reduced_hom": ha,
                    "inserted_hom": hb,
                    "match": ha == hb,
                }
            )

    periodicity_failures = []
    pn = ladder.period
    for j in (1, 2):
        srcj = ladder.emb(j).source
        pjn = ladder.emb(j).split_weight
        conj = (pjn - pn) * srcj.x(ws.n - 1)
        for obj in cuboid_objects(ws):
            for k in (0, 1):
                if not reduce(ladder, j, k + pn, obj).is_same(reduce(ladder, j, k, obj).twist_by(conj)):
                    periodicity_failures.append(f"phi_({j},{k + pn}) vs twisted phi_({j},{k}) on {obj}")

    # the pairs run through product(full, reduced), so with R reduced
    # modules they read the first min(R, pairs) of those and the first
    # ceil(pairs / R) full ones: each is built once, and only if read
    # (both j share the reduced system of a symmetric split)
    reduced = {}
    for emb in (ladder.emb1, ladder.emb2):
        if emb.source not in reduced:
            reduced[emb.source] = _adjunction_modules(emb.source, _ADJUNCTION_PAIRS)
    full = _adjunction_modules(ws, max(math.ceil(_ADJUNCTION_PAIRS / len(mods)) for mods in reduced.values()))
    adj = []
    for j in (1, 2):
        emb = ladder.emb(j)
        oks = adjunction_check(emb, full, reduced[emb.source], _ADJUNCTION_PAIRS)
        adj += [{"j": j, "pair_index": count, "ok": ok} for count, ok in enumerate(oks)]

    return LadderReport(
        weights=ws,
        split=(q, pn + 1 - q),
        composite_zero=not composite_failures,
        composite_failures=composite_failures,
        fully_faithful_samples=ff,
        periodicity=not periodicity_failures,
        periodicity_failures=periodicity_failures,
        adjunction=adj,
    )


def _some_ells(ws: WeightSystem):
    full = tuple(w - 1 for w in ws.p)
    ones = (1,) * ws.n
    out = [ones]
    if full != ones:
        out.append(full)
        mid = tuple(max(1, w - 2) for w in ws.p)
        if mid not in out:
            out.append(mid)
    return out


def _adjunction_modules(ws: WeightSystem, count: int) -> list[GradedModule]:
    """The first ``count`` modules of the adjunction check over ws: the
    E^ell for ell in ``_some_ells``, then the simple k."""
    ells = _some_ells(ws)[:count]
    mods = [make_E(ws, ell) for ell in ells]
    if len(ells) < count:
        mods.append(make_simple(ws))
    return mods
