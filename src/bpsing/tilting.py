"""Tilting families in the stable category and their verification.

Four families share the summand count prod(p_i - 1): the cuboid
(all U^ell), the Koszul family (twists of U^s with balancing shifts),
the mixed extended families indexed by coordinate subsets, and the
replicated families indexed by a coordinate and built from Serre
twists.  Each family predicts its endomorphism algebra: an extended
family (the cuboid and Koszul families among them) the tensor product
Lambda(q) of Nakayama algebras built by ``qalg.lambda_q``, as the paper
proves for the extended tilting cuboids, and a replicated family the
replicated algebra Gamma^t of ``qalg.gamma_quiver``.  A family is
listed in the vertex order of its algebra, which makes the
endomorphism matrix equal to the predicted Cartan matrix on the nose
and realizes the exceptional-sequence order.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass

import numpy as np

from .functor import Ladder, insert, reduce
from .grading import WeightSystem, _index, normalize
from .qalg import AlgebraPresentation, gamma_quiver, lambda_q
from .stable import StableObject, U, hom_table


# never raised: bench/workloads.py still catches it (ROADMAP items 7 and 15)
class UnknownHomError(RuntimeError):
    def __init__(self, a: StableObject, b: StableObject):
        super().__init__(f"hom_dim could not decide Hom({a}, {b})")
        self.pair = (a, b)


@dataclass(frozen=True)
class TiltingFamily:
    weights: WeightSystem
    kind: str
    labels: tuple[str, ...]
    objects: tuple[StableObject, ...]  # canonical forms, family order

    @property
    def size(self) -> int:
        return len(self.objects)

    def to_json(self) -> dict:
        return {
            "weights": self.weights.to_json(),
            "kind": self.kind,
            "summands": list(self.labels),
        }


def family(
    weights: WeightSystem,
    kind: str,
    subset: tuple[int, ...] | None = None,
    t: int | None = None,
) -> TiltingFamily:
    """Construct one of the four tilting families, in the vertex order
    of its predicted algebra.

    kind is "cuboid", "koszul", "extended" (with a 0-based coordinate
    subset I, without repeats) or "replicated" (with a 0-based
    coordinate t).  An extended family walks the descending box
    [0, delta] of ``lambda_q`` (``WeightSystem.box``): box element w
    gives U^ell(x)[-sum x] with ell_i = w_i + 1, x_i = 0 for i in I and
    ell_i = 1, x_i = w_i off I.  A replicated family walks the copies
    and then the slab of ``gamma_quiver``, both descending; the slab is
    ell = w + 1 over the box elements w with w_t = p_t - 2.  Every
    coordinate is read by ``grading._index``, so one that is a bool or
    not an integer raises ``TypeError``.
    """
    ws = weights
    n = ws.n
    if kind not in ("cuboid", "koszul", "extended", "replicated"):
        raise ValueError(f"unknown family kind {kind!r}")
    if subset is not None and kind != "extended":
        raise ValueError(f"{kind} families take no coordinate subset")
    if t is not None and kind != "replicated":
        raise ValueError(f"{kind} families take no coordinate t")
    if kind == "replicated":
        if t is None:
            raise ValueError("replicated families need a coordinate t")
        t = _index(t, "coordinate t")
        if not 0 <= t < n:
            raise ValueError(f"coordinate t = {t} out of range")
        s = ws.s()
        slab = [tuple(wi + 1 for wi in w) for w in ws.box() if w[t] == ws.p[t] - 2]
        members = [U(ws, ell, -copy * s, copy * n) for copy in range(ws.p[t] - 2, -1, -1) for ell in slab]
        name = f"replicated:{t}"
    else:
        if kind == "cuboid":
            subset = tuple(range(n))
        elif kind == "koszul":
            subset = ()
        elif subset is None:
            raise ValueError("extended families need a coordinate subset")
        subset = tuple(sorted(_index(i, "coordinate") for i in subset))
        for i in subset:
            if not 0 <= i < n:
                raise ValueError(f"subset {subset} out of range")
            if subset.count(i) > 1:
                raise ValueError(f"subset {subset} repeats coordinate {i}")
        members = []
        for w in ws.box():
            x = tuple(0 if i in subset else wi for i, wi in enumerate(w))
            ell = tuple(wi + 1 if i in subset else 1 for i, wi in enumerate(w))
            members.append(U(ws, ell, normalize(ws, x), -sum(x)))
        name = {tuple(range(n)): "cuboid", (): "koszul"}.get(subset, f"extended:{','.join(str(i) for i in subset)}")
    return TiltingFamily(ws, name, tuple(map(str, members)), tuple(o.canonical() for o in members))


def hom_matrix(fam: TiltingFamily) -> np.ndarray:
    """H[a][b] = dim Hom(fam[a], fam[b]), from one ``hom_table`` of the
    family against itself.  The calculus decides every pair, so no
    entry is unknown; ``UnknownHomError`` stays only because the
    benchmark (``bench/workloads.py``) catches it."""
    m0, nonzero = hom_table(fam.objects, fam.objects)
    return (nonzero & (m0 == 0)).astype(np.int64)


def predicted_cartan(fam: TiltingFamily) -> AlgebraPresentation:
    """The algebra whose Cartan the endomorphism matrix must equal.

    A replicated family over t predicts ``gamma_quiver(ws, t)``.  An
    extended family over I (the cuboid: all, Koszul: none) predicts
    ``lambda_q(ws, q)`` with q_i = p_i - 1 for i in I and
    min(2, p_i - 1) off I: the tensor product of the Nakayama algebras
    A_(p_i-1)(q_i) in coordinate order.
    """
    ws = fam.weights
    kind, _, arg = fam.kind.partition(":")
    if kind == "replicated":
        return gamma_quiver(ws, int(arg))
    if kind == "cuboid":
        inside = range(ws.n)
    elif kind == "koszul":
        inside = ()
    elif kind == "extended":
        inside = [int(i) for i in arg.split(",")]
    else:
        raise ValueError(f"no Cartan prediction for kind {fam.kind!r}")
    return lambda_q(ws, [w - 1 if i in inside else min(2, w - 1) for i, w in enumerate(ws.p)])


@dataclass
class TiltingReport:
    family: TiltingFamily
    window: tuple[int, int]
    rigidity_failures: list[str]
    endo_failures: list[str]
    # always empty: bench/workloads.py still reads it (ROADMAP items 7 and 15)
    unknown_entries: list[str]
    order: list[str] | None

    @property
    def passed(self) -> bool:
        return not self.rigidity_failures and not self.endo_failures and not self.unknown_entries and self.order is not None

    def to_json(self) -> str:
        return json.dumps(
            {
                "family": self.family.to_json(),
                "window": list(self.window),
                "rigidity_failures": self.rigidity_failures,
                "endo_failures": self.endo_failures,
                "unknown_entries": self.unknown_entries,
                "exceptional_order": self.order,
                "passed": self.passed,
            },
            sort_keys=True,
            indent=2,
        )


def _shift_window(ws: WeightSystem, window: tuple[int, int] | None) -> tuple[int, int]:
    """The shift window (lo, hi) of integers, by default +-(2n + 4);
    raises ValueError on a window that is not a pair, and unless
    lo <= 0 <= hi, so that an empty or one-sided window, which would
    leave a check unasked, is never taken."""
    if window is None:
        w = 2 * ws.n + 4
        window = (-w, w)
    lo, hi = window
    lo, hi = _index(lo, "window start"), _index(hi, "window end")
    if not lo <= 0 <= hi:
        raise ValueError(f"shift window {(lo, hi)} does not contain 0")
    return lo, hi


def _off_zero(m0: np.ndarray, nonzero: np.ndarray, window: tuple[int, int]) -> np.ndarray:
    """The pairs of a ``hom_table`` whose Hom is nonzero at a shift of
    the window other than 0."""
    return nonzero & (m0 != 0) & (window[0] <= m0) & (m0 <= window[1])


def verify_tilting(fam: TiltingFamily, window: tuple[int, int] | None = None) -> TiltingReport:
    """Rigidity on a shift window, simple endomorphism rings, and an
    exceptional ordering by topological sort of the nonzero Homs.

    The window defaults to +-(2n + 4); one that does not contain 0,
    where End is checked, raises ValueError.  One ``hom_table`` of the
    family against itself answers every pair at every shift (each Hom
    is nonzero at one shift m0 at most), so the window does not
    multiply the calculus work, and no entry is unknown.
    """
    window = _shift_window(fam.weights, window)
    m0, nonzero = hom_table(fam.objects, fam.objects)
    hom0 = (nonzero & (m0 == 0)).astype(np.int64)
    labels = fam.labels
    endo = [f"End({labels[a]}) has dimension {hom0[a, a]}" for a in range(fam.size) if hom0[a, a] != 1]
    rig = [f"Hom({labels[a]}, {labels[b]}[{m0[a, b]}]) = 1" for a, b in zip(*np.nonzero(_off_zero(m0, nonzero, window)))]
    return TiltingReport(fam, window, rig, endo, [], _topological_order(fam, hom0))


def _topological_order(fam: TiltingFamily, hom0: np.ndarray) -> list[str] | None:
    """Order with all nonzero Homs pointing forward, if one exists; among
    the free vertices the least index goes first."""
    size = fam.size
    succ = [[b for b in np.flatnonzero(hom0[a]).tolist() if b != a] for a in range(size)]
    indeg = [0] * size
    for bs in succ:
        for b in bs:
            indeg[b] += 1
    free = [a for a in range(size) if indeg[a] == 0]
    out = []
    while free:
        a = heapq.heappop(free)
        out.append(a)
        for b in succ[a]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(free, b)
    if len(out) != size:
        return None
    return [fam.labels[a] for a in out]


@dataclass
class GlueReport:
    obstruction_b: list[str]
    obstruction_b_prime: list[str]
    # always empty: bench/workloads.py still reads it (ROADMAP items 7 and 15)
    unknown: list[str]

    @property
    def tilting(self) -> bool:
        return not self.obstruction_b and not self.obstruction_b_prime and not self.unknown


def glue(
    ladder: Ladder,
    fam1: TiltingFamily,
    fam2: TiltingFamily,
    k1: int,
    k2: int,
    window: tuple[int, int] | None = None,
) -> tuple[TiltingFamily, GlueReport]:
    """Glue tilting families along insertions psi_{1,k1} and psi_{2,k2}.

    The candidate is the concatenation of the two insertion images;
    the obstruction Homs are checked in both adjoint directions, by
    reducing one image into the other reduced category, at every
    nonzero shift of the window.  Each direction reads one
    ``hom_table``, which answers every pair at every shift at once, so
    the window does not multiply the calculus work, and no entry is
    unknown.  The window defaults to +-(2n + 4); one that does not
    contain 0 raises ValueError, as in ``verify_tilting``: an empty one
    would ask no obstruction Hom.
    """
    ws = ladder.weights
    window = _shift_window(ws, window)
    img1 = [insert(ladder, 1, k1, o) for o in fam1.objects]
    img2 = [insert(ladder, 2, k2, o) for o in fam2.objects]
    labels = tuple(f"psi1[{k1}]({lab})" for lab in fam1.labels) + tuple(f"psi2[{k2}]({lab})" for lab in fam2.labels)
    glued = TiltingFamily(ws, "glued", labels, tuple(o.canonical() for o in img1 + img2))

    # direction (b): Hom(i^* j_* T2, T1[m]) with i^* = phi_{1,k1}
    m0, nonzero = hom_table([reduce(ladder, 1, k1, o) for o in img2], fam1.objects)
    hit = _off_zero(m0, nonzero, window)
    obstruction_b = [f"Hom(phi1({fam2.labels[i]}), {fam1.labels[j]}[{m0[i, j]}]) = 1" for i, j in zip(*np.nonzero(hit))]
    # direction (b'): Hom(T2, j^sharp i_* T1[m]) with j^sharp = phi_{2,k2+1},
    # listed by T1 summand first
    m0, nonzero = hom_table(fam2.objects, [reduce(ladder, 2, k2 + 1, o) for o in img1])
    hit = _off_zero(m0, nonzero, window)
    obstruction_bp = [f"Hom({fam2.labels[i]}, phi2({fam1.labels[j]})[{m0[i, j]}]) = 1" for j, i in zip(*np.nonzero(hit.T))]
    return glued, GlueReport(obstruction_b, obstruction_bp, [])


def same_family(a: TiltingFamily, b: TiltingFamily) -> bool:
    """Equality as multisets of canonical objects."""
    if a.weights != b.weights:
        return False
    key = lambda o: (o.ell is None, o.ell or (), o.twist.coeffs, o.twist.level, o.shift)
    return sorted(map(key, a.objects)) == sorted(map(key, b.objects))
