"""The benchmark's workloads: inputs made from a seed, as questions.

A question is one call a research script waits on, together with the
check of its answer against a reference.  Load is a closed loop with
one client: the next question is asked only after the previous answer
has returned.  Everything runs in one thread.

Why these three workloads (shares of traced job time, from this
benchmark's traced run on a 2-core Xeon with Python 3.11.7 and numpy
2.4.6; the shims add about a microsecond per call, which inflates the
share of the many small grading calls):

``audit-broad``
    The ``oracle-check`` sweep over the weight types (2,3,4), (3,5)
    and (4,5): every cuboid object under every {0,1}^n box twist and
    every shift in -2..2, against every cuboid object; 5600 pairs,
    asked in a seed-shuffled order.  Each pair asks ``hom_dim``, then
    ``oracle_hom`` on the two canonical forms, and the answers must
    agree.  It makes thousands of small Hom complexes: grading
    arithmetic takes about 60%, ``canonical()`` 11%, term bases and
    differential assembly 13%, ``rank_mod`` 6%.  A third of the
    oracle lookups hit its cache.  It shows grading, assembly and
    caching changes and bypasses the rank kernel.  50 of the 2880
    (4,5) pairs are unknown to the calculus; their oracle answers are
    still computed, and they count in the decided share.
``audit-deep``
    Pairs whose first argument has a deep twist level:
    (3,4,5) at levels -4..-8, (2,2,2,2) and (2,3,4,5) at -2..-3, and
    (3,4) at -10..-30, plus the fixed pair U[1,1,1](0,0,0;-8) against
    U[1,1,1] over (3,4,5) whose Hom complex has the 1368x1224 matrix of
    the first recorded baseline.  The oracle runs on the raw
    presentation, so the depth reaches ``mf_of``; the calculus is the
    reference.  There are few pairs, with matrices up to 1920x1344:
    ``rank_mod`` takes about 78%, differential assembly 14% and
    grading 6%.  It uses the oracle the opposite way from
    ``audit-broad``: a per-call overhead cut shows there and not
    here, a rank-kernel change shows here and not there.  The pairs
    follow a fixed schedule in a fixed order, and the seed moves each
    by a common twist of both arguments: a common twist keeps every
    degree difference, so every seed asks for the same matrix shapes,
    the same amount of linear algebra and the same Hom dimensions.
    (Shuffling the order made the peak memory depend on the seed.)
``verify``
    A symbolic-only session with no oracle: Hom matrices against
    predicted Cartan matrices and ``verify_tilting`` reports for
    families over (3,4,5), (2,3,4,5) and (5,6,7), each family under a
    seed-chosen common twist and shift (an autoequivalence, so the
    expected Cartan matrix and verdict do not change);
    ``check_recollement`` for every split of (3,4,5); both ``glue``
    workflows on (3,4); the three Coxeter suites of the command line.
    Grading takes about 60% and ``canonical()`` itself 27%, the
    Coxeter polynomials 8%.  It covers ``tilting``, ``functor``,
    ``gmod`` and ``qalg`` and bypasses ``mforacle``, where an oracle
    change should show no effect.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable

from bpsing import cli, functor, mforacle, stable, tilting
from bpsing.grading import WeightSystem
from bpsing.stable import StableObject

# Package functions are looked up through their modules at call time,
# so that the timing shims of a traced run see every call made here.


@dataclass(frozen=True)
class Answer:
    """The outcome of one question: whether it matched its reference,
    how many Hom questions it put to the calculus, and how many of
    those the calculus left unknown."""

    ok: bool
    asked: int
    unknown: int


@dataclass(frozen=True)
class Question:
    ask: Callable[..., Answer]
    args: tuple

    def __str__(self) -> str:
        def describe(x) -> str:
            if isinstance(x, tilting.TiltingFamily):
                return f"{x.kind} family over {x.weights}"
            return str(x)

        return f"{self.ask.__name__}({', '.join(map(describe, self.args))})"


# -- audit-broad ------------------------------------------------------------

BROAD_WEIGHTS = ((2, 3, 4), (3, 5), (4, 5))
BROAD_SHIFTS = range(-2, 3)


def broad_pair(a: StableObject, b: StableObject) -> Answer:
    """The calculus answer, then the oracle on the canonical forms."""
    h = stable.hom_dim(a, b)
    o = mforacle.oracle_hom(a.canonical(), b.canonical())
    return Answer(h is None or h == o, 1, int(h is None))


def audit_broad(rng: random.Random) -> list[Question]:
    questions = []
    for p in BROAD_WEIGHTS:
        ws = WeightSystem(p)
        cub = stable.cuboid_objects(ws)
        twists = [ws.element(bits) for bits in itertools.product((0, 1), repeat=ws.n)]
        for base, u, m, b in itertools.product(cub, twists, BROAD_SHIFTS, cub):
            questions.append(Question(broad_pair, (StableObject(ws, base.ell, u, m), b)))
    rng.shuffle(questions)
    return questions


# -- audit-deep -------------------------------------------------------------

# (weights, twist levels of the first argument, pairs per level)
DEEP_STRATA = (
    ((3, 4, 5), range(-4, -9, -1), 3),
    ((2, 2, 2, 2), (-2, -3), 5),
    ((2, 3, 4, 5), (-2, -3), 5),
    ((3, 4), range(-10, -31, -1), 4),
)


def deep_pair(a: StableObject, b: StableObject) -> Answer:
    """The calculus answer, then the oracle on the raw presentations."""
    h = stable.hom_dim(a, b)
    o = mforacle.oracle_hom(a, b)
    return Answer(h is None or h == o, 1, int(h is None))


def deep_anchor() -> Question:
    ws = WeightSystem((3, 4, 5))
    return Question(deep_pair, (StableObject(ws, (1, 1, 1), ws.element((0, 0, 0), -8), 0), stable.U(ws, (1, 1, 1))))


def audit_deep(rng: random.Random) -> list[Question]:
    questions = [deep_anchor()]
    for p, levels, per_level in DEEP_STRATA:
        ws = WeightSystem(p)
        cub = stable.cuboid_objects(ws)
        for level, j in itertools.product(levels, range(per_level)):
            # a fixed schedule: pair j twists the first argument by x_(j-1)
            # (none for j = 0) and shifts it by j mod 2
            coeffs = [int(i == j - 1) for i in range(ws.n)]
            a = StableObject(ws, cub[j % len(cub)].ell, ws.element(coeffs, level), j % 2)
            b = cub[-1 - j % len(cub)]
            # a common twist of both arguments moves the pair but keeps
            # every degree difference, hence the oracle's matrix shapes
            y = ws.element([rng.randrange(w) for w in p], rng.randint(-2, 2))
            a, b = (StableObject(ws, o.ell, o.twist + y, o.shift) for o in (a, b))
            questions.append(Question(deep_pair, (a, b)))
    return questions


# -- verify -----------------------------------------------------------------

# (weights, family kind, family arguments, stride): the Hom matrix of
# every stride-th summand against the same rows and columns of the
# predicted Cartan matrix; a (5,6,7) family has 120 summands, and its
# whole matrix would take most of the job
VERIFY_CARTAN = (
    ((3, 4, 5), "cuboid", {}, 1),
    ((3, 4, 5), "extended", {"subset": (0,)}, 1),
    ((3, 4, 5), "replicated", {"t": 2}, 1),
    ((2, 3, 4, 5), "koszul", {}, 1),
    ((2, 3, 4, 5), "replicated", {"t": 3}, 1),
    ((5, 6, 7), "koszul", {}, 3),
    ((5, 6, 7), "extended", {"subset": (0, 2)}, 3),
)
# rigidity, simple endomorphisms and exceptional order on this window
VERIFY_TILTING = (
    ((3, 4, 5), "koszul", {}),
    ((2, 3, 4, 5), "replicated", {"t": 1}),
)
TILTING_WINDOW = (-1, 1)
RECOLLEMENT_WEIGHTS = (3, 4, 5)
# the two documented gluing workflows over (3,4), split 3: kind, k1, k2
GLUE_WORKFLOWS = (("cuboid", 2, 0), ("koszul", 1, -1))
GLUE_WINDOW = (-8, 8)
COXETER_SUITES = ("happel-seidel", "replicated", "dynkin")


def cartan(fam: tilting.TiltingFamily, stride: int) -> Answer:
    sub = tilting.TiltingFamily(fam.weights, fam.kind, fam.labels[::stride], fam.objects[::stride])
    try:
        mat = tilting.hom_matrix(sub)
    except tilting.UnknownHomError:
        return Answer(False, sub.size**2, 1)
    expected = tilting.predicted_cartan(fam).cartan[::stride, ::stride]
    return Answer(bool((mat == expected).all()), sub.size**2, 0)


def tilting_report(fam: tilting.TiltingFamily, window: tuple[int, int]) -> Answer:
    report = tilting.verify_tilting(fam, window)
    asked = fam.size**2 * (window[1] - window[0] + 1)
    return Answer(report.passed, asked, len(report.unknown_entries))


def recollement(ws: WeightSystem, split: int) -> Answer:
    report = functor.check_recollement(functor.Ladder(ws, split))
    samples = report.fully_faithful_samples
    unknown = sum((s["reduced_hom"] is None) + (s["inserted_hom"] is None) for s in samples)
    return Answer(report.passed, 2 * len(samples), unknown)


def glue_workflow(kind: str, k1: int, k2: int) -> Answer:
    ws = WeightSystem((3, 4))
    ladder = functor.Ladder(ws, 3)
    fam1 = tilting.family(ladder.emb1.source, kind)
    fam2 = tilting.family(ladder.emb2.source, kind)
    glued, report = tilting.glue(ladder, fam1, fam2, k1, k2, GLUE_WINDOW)
    ok = report.tilting and tilting.same_family(glued, tilting.family(ws, kind))
    asked = 2 * fam1.size * fam2.size * (GLUE_WINDOW[1] - GLUE_WINDOW[0])
    return Answer(ok, asked, len(report.unknown))


def coxeter_suite(name: str) -> Answer:
    """Run one suite through the command line; every case must list
    equal polynomials."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["coxeter", "--suite", name])
    cases = json.loads(out.getvalue())["cases"]
    ok = code == 0 and bool(cases) and all(len({tuple(p["coeffs"]) for p in c["polynomials"]}) == 1 for c in cases)
    return Answer(ok, 0, 0)


def _moved(fam: tilting.TiltingFamily, rng: random.Random) -> tilting.TiltingFamily:
    """The family under a seed-chosen common twist and shift."""
    ws = fam.weights
    y = ws.element([rng.randrange(w) for w in ws.p], rng.randint(-3, 3))
    k = rng.randint(-5, 5)
    objects = tuple(o.twist_by(y).suspend(k) for o in fam.objects)
    return tilting.TiltingFamily(ws, fam.kind, fam.labels, objects)


def verify(rng: random.Random) -> list[Question]:
    questions = []
    for p, kind, kwargs, stride in VERIFY_CARTAN:
        questions.append(Question(cartan, (_moved(tilting.family(WeightSystem(p), kind, **kwargs), rng), stride)))
    for p, kind, kwargs in VERIFY_TILTING:
        fam = _moved(tilting.family(WeightSystem(p), kind, **kwargs), rng)
        questions.append(Question(tilting_report, (fam, TILTING_WINDOW)))
    ws = WeightSystem(RECOLLEMENT_WEIGHTS)
    questions += [Question(recollement, (ws, split)) for split in range(2, ws.p[-1])]
    questions += [Question(glue_workflow, args) for args in GLUE_WORKFLOWS]
    questions += [Question(coxeter_suite, (name,)) for name in COXETER_SUITES]
    return questions


WORKLOADS = {"audit-broad": audit_broad, "audit-deep": audit_deep, "verify": verify}


def build(workload: str, seed: int) -> list[Question]:
    """The questions of one job; the same seed gives the same questions."""
    return WORKLOADS[workload](random.Random(seed))
