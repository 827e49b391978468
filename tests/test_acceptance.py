"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
prints a single pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import random
import time

import numpy as np

from bpsing.functor import Ladder, _some_ells, insert, reduce
from bpsing.gmod import adjunction_check, make_E, make_simple
from bpsing.grading import Dichotomy, WeightSystem, dichotomy, normalize
from bpsing.mforacle import hom_profile, kunneth_hom, mf_of, rank1_mf, stable_hom_dim_oracle, tensor_mf
from bpsing.qalg import COXETER_SUITES, coxeter_polynomial, gamma_quiver, lambda_q
from bpsing.stable import StableObject, U, cuboid_objects, hom_dim, knorrer_transport, rho_k
from bpsing.tilting import family, glue, hom_matrix, predicted_cartan, same_family
from kunneth_ref import criterion_1_pairs

ORACLE_TYPES = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 4)]


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_oracle_agreement():
    t0 = time.time()
    total = disagreements = kunneth_disagreements = 0
    for p in ORACLE_TYPES:
        for a, b in criterion_1_pairs(WeightSystem(p)):
            total += 1
            dense = stable_hom_dim_oracle(mf_of(a), mf_of(b), 0)
            # the package's Kunneth count and the calculus, on every pair:
            # every answer must equal the dense oracle's
            kunneth_disagreements += kunneth_hom(a, b) != dense
            disagreements += hom_dim(a, b) != dense
    elapsed = time.time() - t0
    ok = disagreements == 0 and kunneth_disagreements == 0 and elapsed < 600
    _report(
        "1",
        ok,
        f"{total} probed pairs on {ORACLE_TYPES}, {disagreements} disagreements, "
        f"{kunneth_disagreements} Kunneth disagreements, {elapsed:.1f}s",
    )
    assert disagreements == 0
    assert kunneth_disagreements == 0
    assert elapsed < 600


def _types_with_cuboid_at_most(bound, max_n=4, max_p=25):
    found = []

    def rec(prefix, prod):
        n = len(prefix)
        if 1 <= n <= max_n:
            found.append(tuple(prefix))
        if n == max_n:
            return
        start = prefix[-1] if prefix else 2
        for p in range(start, max_p + 1):
            if prod * (p - 1) > bound:
                break
            rec(prefix + [p], prod * (p - 1))

    rec([], 1)
    return found


def test_criterion_2_endomorphism_matrices():
    failures = []
    count = 0
    for p in _types_with_cuboid_at_most(24):
        ws = WeightSystem(p)
        fam = family(ws, "cuboid")
        count += 1
        if not (hom_matrix(fam) == predicted_cartan(fam).cartan).all():
            failures.append(("cuboid", p))
    for p in ((3, 4), (3, 4, 5)):
        ws = WeightSystem(p)
        for r in range(ws.n + 1):
            for subset in itertools.combinations(range(ws.n), r):
                fam = family(ws, "extended", subset=subset)
                count += 1
                if not (hom_matrix(fam) == predicted_cartan(fam).cartan).all():
                    failures.append(("extended", p, subset))
    for p, ts in (((3, 4), (0, 1)), ((3, 4, 5), (0, 1, 2))):
        ws = WeightSystem(p)
        for t in ts:
            fam = family(ws, "replicated", t=t)
            count += 1
            if not (hom_matrix(fam) == predicted_cartan(fam).cartan).all():
                failures.append(("replicated", p, t))
    ok = not failures
    _report("2", ok, f"{count} endomorphism matrices equal their predicted Cartans; failures: {failures}")
    assert not failures


def test_criterion_3_ladder_verification():
    failures = []
    adjunction_total = 0
    for p in ((3, 4), (3, 4, 5)):
        ws = WeightSystem(p)
        pn = p[-1]
        for q in range(2, pn):
            lad = Ladder(ws, q)
            src1, src2 = lad.emb1.source, lad.emb2.source
            for coeffs in itertools.product(*(range(w) for w in src2.p)):
                for lev in (-2, -1, 0, 1, 2):
                    z = src2.element(coeffs, lev)
                    if not reduce(lad, 1, q, insert(lad, 2, 0, rho_k(src2, z))).is_zero:
                        failures.append(("composite", p, q, str(z)))
            for j in (1, 2):
                srcj = lad.emb(j).source
                conj = (lad.emb(j).split_weight - pn) * srcj.x(ws.n - 1)
                for obj in cuboid_objects(ws):
                    lhs = reduce(lad, j, pn, obj)
                    rhs = reduce(lad, j, 0, obj)
                    good = lhs.is_zero if rhs.is_zero else (not lhs.is_zero and lhs.is_same(rhs.twist_by(conj)))
                    if not good:
                        failures.append(("period", p, q, j, str(obj)))
            gap = pn - lad.emb2.split_weight
            for obj in cuboid_objects(ws):
                ln = obj.ell[-1]
                if 1 <= ln < q:
                    pre = U(src1, obj.ell)
                    image = insert(lad, 1, q - 1, pre)
                else:
                    pre = U(src2, obj.ell[:-1] + (ln - gap,))
                    image = insert(lad, 2, 0, pre)
                if not image.is_same(obj):
                    failures.append(("decomposition", p, q, str(obj)))
            for j in (1, 2):
                emb = lad.emb(j)
                mods_m = [make_E(ws, ell, y) for ell in _some_ells(ws) for y in (ws.zero(), ws.x(ws.n - 1))]
                mods_n = [make_E(emb.source, ell) for ell in _some_ells(emb.source)]
                mods_n.append(make_simple(emb.source))
                oks = adjunction_check(emb, mods_m, mods_n, 25)
                adjunction_total += len(oks)
                failures += [("adjunction", p, q, j, count) for count, ok in enumerate(oks, 1) if not ok]
    ok = not failures and adjunction_total >= 50
    _report("3", ok, f"ladder checks on (3,4) and (3,4,5), all splits; {adjunction_total} adjunction pairs; failures: {failures[:4]}")
    assert adjunction_total >= 50
    assert not failures


def test_criterion_4_rewriting_identities_via_oracle():
    failures = []
    rng = random.Random(2026)
    for p in ((3, 4), (2, 2, 2)):
        ws = WeightSystem(p)
        for _ in range(20):
            ell = tuple(rng.randrange(1, w) for w in ws.p)
            tw = ws.element([rng.randrange(w) for w in ws.p], rng.randrange(-2, 3))
            k = rng.randrange(-3, 4)
            o = StableObject(ws, ell, tw, k)
            lhs = StableObject(ws, ell, tw, k + 2)
            rhs = StableObject(ws, ell, tw + ws.c(), k)
            if hom_profile(mf_of(lhs)) != hom_profile(mf_of(rhs)):
                failures.append(("eisenbud", p, str(o)))
        for base in cuboid_objects(ws):
            lhs = StableObject(ws, base.ell, ws.zero(), ws.n)
            flip = ws.element([w - e for w, e in zip(ws.p, base.ell)])
            rhs = StableObject(ws, flip.coeffs, flip, 0)
            if hom_profile(mf_of(lhs)) != hom_profile(mf_of(rhs)):
                failures.append(("n-fold", p, str(base)))
        top = tuple(w - 1 for w in ws.p)
        lhs = mf_of(U(ws, top))
        rhs = mf_of(StableObject(ws, (1,) * ws.n, ws.s(), -ws.n))
        if hom_profile(lhs) != hom_profile(rhs):
            failures.append(("socle", p))
    w3 = WeightSystem((3,))
    for a in cuboid_objects(w3):
        for b in cuboid_objects(w3):
            for m in (0, 1):
                small = stable_hom_dim_oracle(mf_of(a), mf_of(b), m)
                big = stable_hom_dim_oracle(mf_of(knorrer_transport(a)), mf_of(knorrer_transport(b)), m)
                if small != big:
                    failures.append(("knorrer", str(a), str(b), m))
    ok = not failures
    _report("4", ok, f"Eisenbud, n-fold reflection, socle and Knoerrer profile identities; failures: {failures[:4]}")
    assert not failures


def test_criterion_5_derived_invariant_suites():
    timings = {}
    failures = []
    for name, suite in COXETER_SUITES.items():
        t0 = time.time()
        for case, algebras in suite():
            if len({coxeter_polynomial(alg) for _, alg in algebras}) != 1:
                failures.append((name, case))
        timings[name] = time.time() - t0

    slow = {k: v for k, v in timings.items() if v >= 5.0}
    ok = not failures and not slow
    _report("5", ok, f"suites {dict((k, round(v, 2)) for k, v in timings.items())}; failures: {failures}")
    assert not failures
    assert not slow


def test_criterion_6_worked_examples():
    failures = []
    alg = lambda_q(WeightSystem((3, 4)), (2, 2))
    nil = [r for r in alg.relations if "^" in r]
    comm = [r for r in alg.relations if "^" not in r]
    if not (alg.size == 6 and len(alg.arrows) == 7 and len(comm) == 2 and len(nil) == 2):
        failures.append(("lambda(2,2)", alg.size, len(alg.arrows), len(comm), len(nil)))
    w345 = WeightSystem((3, 4, 5))
    for t in range(3):
        g = gamma_quiver(w345, t)
        connecting = [a for a in g.arrows if "*" in a[0]]
        if g.size != 24 or len(connecting) != w345.p[t] - 2:
            failures.append(("gamma", t, g.size, len(connecting)))
        top = "(" + ",".join(str(w - 1) for w in w345.p) + ")"
        bottom = list(1 for _ in w345.p)
        bottom[t] = w345.p[t] - 1
        bottom = "(" + ",".join(str(v) for v in bottom) + ")"
        for idx, (lab, srcv, tgtv) in enumerate(connecting):
            if not (srcv.startswith(top) and tgtv.startswith(bottom)):
                failures.append(("gamma-arrow", t, srcv, tgtv))
    ws = WeightSystem((3, 4))
    lad = Ladder(ws, 3)
    glued, rep = glue(lad, family(lad.emb1.source, "cuboid"), family(lad.emb2.source, "cuboid"), 2, 0)
    if not (rep.tilting and same_family(glued, family(ws, "cuboid"))):
        failures.append(("glue-cuboid",))
    glued, rep = glue(lad, family(lad.emb1.source, "koszul"), family(lad.emb2.source, "koszul"), 1, -1)
    if not (rep.tilting and same_family(glued, family(ws, "koszul"))):
        failures.append(("glue-koszul",))
    ok = not failures
    _report("6", ok, f"quiver shape counts and both gluing workflows; failures: {failures}")
    assert not failures


def test_criterion_7_randomized_invariants():
    rng = random.Random(99)
    systems = [WeightSystem(p) for p in ((3, 4), (2, 2, 2), (3, 4, 5))]
    bad = 0
    for _ in range(10_000):
        ws = rng.choice(systems)
        coeffs = [rng.randrange(-30, 30) for _ in ws.p]
        lev = rng.randrange(-8, 8)
        a = normalize(ws, coeffs, lev)
        if normalize(ws, a.coeffs, a.level) != a:
            bad += 1
        b = normalize(ws, [rng.randrange(-30, 30) for _ in ws.p], rng.randrange(-8, 8))
        if a + b != b + a or a + (-a) != ws.zero():
            bad += 1
        if ((a <= b) != ((b - a).level >= 0)):
            bad += 1
    for ws in systems:
        for _ in range(10_000):
            a = normalize(ws, [rng.randrange(-30, 30) for _ in ws.p], rng.randrange(-8, 8))
            kind, witness = dichotomy(a)
            if kind is Dichotomy.NON_NEGATIVE:
                if a.level < 0:
                    bad += 1
            elif witness.level < 0 or a.level >= 0:
                bad += 1
    # module relation checks assert inside the constructor
    for _ in range(10_000):
        ws = rng.choice(systems)
        ell = tuple(rng.randrange(1, w) for w in ws.p)
        y = normalize(ws, [rng.randrange(w) for w in ws.p], rng.randrange(-2, 3))
        make_E(ws, ell, y)
    # factorization invariant, asserted inside the constructors
    for _ in range(10_000):
        ws = rng.choice(systems)
        f = rank1_mf(ws, 0, rng.randrange(1, ws.p[0]))
        for i in range(1, ws.n):
            f = tensor_mf(f, rank1_mf(ws, i, rng.randrange(1, ws.p[i])))
        f = f.twist(normalize(ws, [rng.randrange(w) for w in ws.p], rng.randrange(-1, 2)))
        f.shift(rng.choice((-1, 1)))
    ok = bad == 0
    _report("7", ok, f"10^4-sample randomized suites per invariant family; violations: {bad}")
    assert bad == 0
