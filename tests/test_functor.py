"""Reduction and insertion functors, projective images, ladder checks."""

import collections
import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from bpsing import functor, gmod
from bpsing.functor import _ADJUNCTION_PAIRS, _FF_PAIRS, Ladder, _some_ells, check_recollement, insert, predict_projective_image, reduce
from bpsing.grading import GroupEmbedding, WeightSystem, normalize
from bpsing.stable import StableObject, U, cuboid_objects, hom_dim, rho_k, zero_object

W34 = WeightSystem((3, 4))


def test_build_ladder_splits():
    lad = Ladder(W34, 3)
    assert lad.emb1.source == WeightSystem((3, 3))
    assert lad.emb2.source == WeightSystem((3, 2))
    assert Ladder(W34, 2).emb2.source == WeightSystem((3, 3))
    assert Ladder(WeightSystem((3, 3)), 2).emb1.source == WeightSystem((3, 2))
    with pytest.raises(ValueError):
        Ladder(WeightSystem((3, 2)), 2)
    with pytest.raises(ValueError):
        Ladder(W34, 4)


def test_reduce_cases():
    lad = Ladder(W34, 3)
    src2 = lad.emb2.source
    assert reduce(lad, 2, 0, U(W34, (2, 3))).is_same(U(src2, (2, 1)))
    assert reduce(lad, 2, 0, rho_k(W34)).is_zero
    got = reduce(lad, 2, 0, U(W34, (1, 2), W34.x(1)))
    assert got.is_same(U(src2, (1, 1), src2.x(1)))


def test_reduce_case_three():
    lad = Ladder(W34, 3)
    src2 = lad.emb2.source
    # twist coefficient at the split coordinate in [p_jn, p_n)
    y = 3 * W34.x(1)
    got = reduce(lad, 2, 0, U(W34, (1, 2), y))
    pred_ell = lad.emb2.theta_inv(normalize(W34, (1, 2)) - W34.x(1))
    pred_twist = lad.emb2.theta_inv(y - 3 * W34.x(1) + W34.c())
    assert got.is_same(StableObject(src2, pred_ell.coeffs, pred_twist, 0))
    # and the vanishing branch
    assert reduce(lad, 2, 0, U(W34, (1, 1), y)).is_zero


def test_insert_cases():
    lad = Ladder(W34, 3)
    src1, src2 = lad.emb1.source, lad.emb2.source
    assert insert(lad, 2, 0, rho_k(src2)).is_same(U(W34, (1, 3)))
    for ell in ((2, 1), (1, 2), (2, 2), (1, 1)):
        assert insert(lad, 1, 2, U(src1, ell)).is_same(U(W34, ell))
    assert insert(lad, 1, 0, zero_object(src1)).is_zero


def test_functors_commute_with_shift():
    lad = Ladder(W34, 3)
    o = U(W34, (1, 3), W34.x(0))
    assert reduce(lad, 2, 0, o.suspend(2)).is_same(reduce(lad, 2, 0, o).suspend(2))
    o2 = U(lad.emb1.source, (2, 2))
    assert insert(lad, 1, 1, o2.suspend(-1)).is_same(insert(lad, 1, 1, o2).suspend(-1))


def test_decomposition_partition():
    # every cuboid object comes from exactly one of the two insertions
    for p in ((3, 4), (3, 4, 5)):
        ws = WeightSystem(p)
        pn = p[-1]
        for q in range(2, pn):
            lad = Ladder(ws, q)
            src1, src2 = lad.emb1.source, lad.emb2.source
            gap = pn - lad.emb2.split_weight
            for obj in cuboid_objects(ws):
                ln = obj.ell[-1]
                if 1 <= ln < q:
                    pre = U(src1, obj.ell)
                    assert insert(lad, 1, q - 1, pre).is_same(obj)
                else:
                    pre = U(src2, obj.ell[:-1] + (ln - gap,))
                    assert insert(lad, 2, 0, pre).is_same(obj)


def test_projective_images():
    lad = Ladder(W34, 3)
    src2 = lad.emb2.source
    assert predict_projective_image(lad, "reduce", 2, 0, W34.zero()) == src2.zero()
    assert predict_projective_image(lad, "reduce", 2, 0, 3 * W34.x(1)) == src2.c()
    assert predict_projective_image(lad, "insert", 2, 0, src2.x(1)) == W34.x(1)


def test_projective_images_conjugation():
    # the k-twisted image formula degenerates to the k = 0 one
    lad = Ladder(W34, 3)
    for j in (1, 2):
        srcj = lad.emb(j).source
        for coeffs in itertools.product(range(3), range(4)):
            y = W34.element(coeffs)
            base = predict_projective_image(lad, "reduce", j, 0, y)
            assert base.weights == srcj


def test_composite_zero():
    for q in (2, 3):
        lad = Ladder(W34, q)
        src2 = lad.emb2.source
        for coeffs in itertools.product(*(range(p) for p in src2.p)):
            for lev in (-2, -1, 0, 1, 2):
                z = src2.element(coeffs, lev)
                assert reduce(lad, 1, q, insert(lad, 2, 0, rho_k(src2, z))).is_zero


def test_periodicity():
    lad = Ladder(W34, 3)
    pn = lad.period
    for j in (1, 2):
        srcj = lad.emb(j).source
        conj = (lad.emb(j).split_weight - pn) * srcj.x(W34.n - 1)
        for obj in cuboid_objects(W34):
            lhs = reduce(lad, j, pn, obj)
            rhs = reduce(lad, j, 0, obj)
            if rhs.is_zero:
                assert lhs.is_zero
            else:
                assert lhs.is_same(rhs.twist_by(conj))


def test_recollement_report():
    report = check_recollement(Ladder(W34, 3))
    assert report.passed
    assert report.composite_zero and report.periodicity
    assert all(s["match"] is True for s in report.fully_faithful_samples)
    assert all(a["ok"] for a in report.adjunction)
    payload = report.to_json()
    assert '"passed": true' in payload



def _ref_ff_pairs(ws):
    """Every cuboid pair over ws, untwisted and with b twisted by x_1,
    built eagerly: the full-faithfulness list check_recollement reads."""
    objs = cuboid_objects(ws)
    pairs = []
    for a in objs:
        for b in objs:
            pairs.append((a, b))
            pairs.append((a, b.twist_by(ws.x(0))))
    return pairs


@pytest.mark.parametrize("p", [(3, 4), (3, 4, 5), (2, 5)])
def test_fully_faithful_samples_match_eager_list(p):
    ws = WeightSystem(p)
    for q in range(2, p[-1]):
        lad = Ladder(ws, q)
        expected = []
        for j in (1, 2):
            k = 0 if j == 2 else q - 1
            for a, b in _ref_ff_pairs(lad.emb(j).source)[:_FF_PAIRS]:
                ha, hb = hom_dim(a, b), hom_dim(insert(lad, j, k, a), insert(lad, j, k, b))
                expected.append((j, k, [str(a), str(b)], ha, hb))
        samples = check_recollement(lad).fully_faithful_samples
        assert [(s["j"], s["k"], s["pair"], s["reduced_hom"], s["inserted_hom"]) for s in samples] == expected


def test_integer_like_ladder_arguments():
    # numpy integers are converted on construction, floats rejected there
    lad = Ladder(W34, np.int64(3))
    assert type(lad.q) is int and lad == Ladder(W34, 3)
    assert check_recollement(lad).to_json() == check_recollement(Ladder(W34, 3)).to_json()
    emb = GroupEmbedding(W34, np.int64(1), (np.int64(3), np.int64(2)))
    assert emb == Ladder(W34, 3).emb1 and type(emb.j) is int and all(type(v) is int for v in emb.split)
    with pytest.raises(TypeError):
        Ladder(W34, 2.0)
    with pytest.raises(TypeError):
        GroupEmbedding(W34, 1, (3.0, 2.0))
    with pytest.raises(TypeError):
        GroupEmbedding(W34, 1.0, (3, 2))
    # emb(1.0) and emb(True) used to return emb1
    for bad in (1.0, True):
        with pytest.raises(TypeError):
            lad.emb(bad)
        with pytest.raises(TypeError):
            Ladder(W34, bad)
        with pytest.raises(TypeError):
            reduce(lad, 1, bad, zero_object(W34))
        with pytest.raises(TypeError):
            insert(lad, 1, bad, zero_object(lad.emb1.source))
    with pytest.raises(ValueError, match="j 3 outside 1..2"):
        lad.emb(3)
    assert lad.emb(np.int64(2)) is lad.emb2


# -- reference: the divmod forms that reduce, insert and the projective
# image map had before they shared one map -------------------------------

def _ref_reduce(ladder, j, k, obj):
    ws = ladder.weights
    emb = ladder.emb(j)
    src = emb.source
    if obj.weights != ws:
        raise ValueError("object does not live over the full system")
    if obj.is_zero:
        return zero_object(src)
    n = ws.n
    pn = ws.p[-1]
    pjn = emb.split_weight
    xn = ws.x(n - 1)
    y = obj.twist + k * xn
    yn = y.coeffs[-1]
    ell = obj.ell
    ln = ell[-1]
    if yn == 0:
        if ln > pn - pjn:
            z_ell = emb.theta_inv(normalize(ws, ell) - (pn - pjn) * xn)
            z_twist = emb.theta_inv(y)
        else:
            return zero_object(src)
    elif yn < pjn:
        m = sorted((0, ln - yn, pn - pjn))[1]
        z_ell = emb.theta_inv(normalize(ws, ell) - m * xn)
        z_twist = emb.theta_inv(y)
    else:
        if yn - pjn < ln < yn:
            z_ell = emb.theta_inv(normalize(ws, ell) - (yn - pjn) * xn)
            z_twist = emb.theta_inv(y - yn * xn + ws.c())
        else:
            return zero_object(src)
    xjn = src.x(n - 1)
    return StableObject(src, z_ell.coeffs, z_twist - k * xjn, obj.shift).canonical()


def _ref_insert(ladder, j, k, obj):
    ws = ladder.weights
    emb = ladder.emb(j)
    src = emb.source
    if obj.weights != src:
        raise ValueError("object does not live over the reduced system")
    if obj.is_zero:
        return zero_object(ws)
    n = ws.n
    pn = ws.p[-1]
    pjn = emb.split_weight
    xjn = src.x(n - 1)
    y = obj.twist + k * xjn
    yn = y.coeffs[-1]
    ln = obj.ell[-1]
    t_ell = emb.theta(normalize(src, obj.ell))
    if yn < ln:
        t_ell = t_ell + (pn - pjn) * ws.x(n - 1)
    t_twist = emb.theta(y)
    return StableObject(ws, t_ell.coeffs, t_twist - k * ws.x(n - 1), obj.shift).canonical()


def _ref_predict_projective_image(ladder, direction, j, k, y):
    emb = ladder.emb(j)
    ws = ladder.weights
    src = emb.source
    n = ws.n
    if direction == "reduce":
        if y.weights != ws:
            raise ValueError("degree must live in the full system")
        pn = ws.p[-1]
        pjn = emb.split_weight
        yn = y.coeffs[-1]
        b, a = divmod(yn + k, pn)
        xn = ws.x(n - 1)
        xjn = src.x(n - 1)
        if a < pjn:
            return emb.theta_inv(y - (b * pn - k) * xn) + (b * pjn - k) * xjn
        return emb.theta_inv(y - yn * xn) + ((b + 1) * pjn - k) * xjn
    if direction == "insert":
        if y.weights != src:
            raise ValueError("degree must live in the reduced system")
        pjn = emb.split_weight
        pn = ws.p[-1]
        yn = y.coeffs[-1]
        b, a = divmod(yn + k, pjn)
        xjn = src.x(n - 1)
        return emb.theta(y - (b * pjn - k) * xjn) + (b * pn - k) * ws.x(n - 1)
    raise ValueError("direction must be 'reduce' or 'insert'")


def _outcome(fn, *args):
    """The result of a call, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _canonical(fn):
    """fn with its result taken to its canonical form."""
    return lambda *args: fn(*args).canonical()


def _random_degree(rng, ws):
    return normalize(ws, [rng.randint(0, w - 1) for w in ws.p], rng.randint(-3, 3))


def _random_object(rng, ws):
    ell = tuple(rng.randint(1, w - 1) for w in ws.p)
    return StableObject(ws, ell, _random_degree(rng, ws), rng.randint(-3, 3))


REFERENCE_TYPES = [(3,), (2, 3), (3, 3), (2, 4), (3, 4), (4, 5), (2, 6), (2, 2, 4), (2, 3, 4), (3, 4, 5), (2, 3, 6)]
OBJECTS_PER_CASE = 3


def test_functors_match_reference_on_random_inputs():
    rng = random.Random(20261018)
    calls = [(reduce, _ref_reduce), (insert, _ref_insert)]
    for p in REFERENCE_TYPES:
        ws = WeightSystem(p)
        for q in range(2, p[-1]):
            lad = Ladder(ws, q)
            for j in (1, 2):
                src = lad.emb(j).source
                for k in range(-12, 13):
                    cases = [(reduce, _ref_reduce, _random_object(rng, ws)) for _ in range(OBJECTS_PER_CASE)]
                    cases += [(insert, _ref_insert, _random_object(rng, src)) for _ in range(OBJECTS_PER_CASE)]
                    # the wrong system, and the zero object
                    cases += [(reduce, _ref_reduce, _random_object(rng, src)), (insert, _ref_insert, _random_object(rng, ws))]
                    cases += [(fn, ref, zero_object(w)) for (fn, ref), w in zip(calls, (ws, src))]
                    for fn, ref, obj in cases:
                        # the references return canonical forms, the functors what they build
                        got, want = _outcome(_canonical(fn), lad, j, k, obj), _outcome(ref, lad, j, k, obj)
                        assert got == want, (p, q, j, k, str(obj), fn.__name__)
                    for direction, w in (("reduce", ws), ("insert", src), ("reduce", src), ("insert", ws), ("sideways", ws)):
                        y = _random_degree(rng, w)
                        args = (lad, direction, j, k, y)
                        assert _outcome(predict_projective_image, *args) == _outcome(_ref_predict_projective_image, *args), (p, q, j, k, direction, str(y))


# every split of these, both j, every ell and every last twist
# coefficient: 1168 nonzero and 584 zero reductions, 584 insertions
MODULE_TYPES = [(3, 4), (2, 5), (3, 5), (2, 3, 4), (4, 6), (3, 3, 5)]


def test_functors_are_the_module_functors_of_gmod():
    """reduce and insert return gmod's phi_0 and psi_0 of the cuboid
    module, degree for degree, and not just up to isomorphism."""
    counts = collections.Counter()
    for p in MODULE_TYPES:
        ws = WeightSystem(p)
        for q in range(2, p[-1]):
            lad = Ladder(ws, q)
            for j in (1, 2):
                emb = lad.emb(j)
                src = emb.source
                for dom, fn, module_fn, cod in ((ws, reduce, gmod.phi0_module, src), (src, insert, gmod.psi0_module, ws)):
                    for ell in itertools.product(*(range(1, w) for w in dom.p)):
                        for t in range(dom.p[-1]):
                            y = dom.element((0,) * (dom.n - 1) + (t,))
                            image = module_fn(emb, gmod.make_E(dom, ell, y))
                            r = fn(lad, j, 0, StableObject(dom, ell, y, 0))
                            case = (p, q, j, fn.__name__, ell, t)
                            if r.is_zero:
                                # zero, or free over the last reduced variable
                                assert image.total_dim in (0, emb.split_weight * math.prod(ell[:-1])), case
                            else:
                                assert image.dims == gmod.make_E(cod, r.ell, r.twist).dims, case
                            counts[fn.__name__, r.is_zero] += 1
    assert counts == {("reduce", False): 1168, ("reduce", True): 584, ("insert", False): 584}


def _ref_reduced_exponent(pn, pjn, yn, ln):
    """The last exponent of phi_0(U^ell(y)) by the case analysis that
    preceded the window rule, with yn = (y_n + k) mod p_n; None for the
    zero object."""
    gap = pn - pjn
    if yn == 0:
        if ln <= gap:
            return None
        m = gap
    elif yn < pjn:
        m = min(max(ln - yn, 0), gap)
    elif yn - pjn < ln < yn:
        m = yn - pjn
    else:
        return None
    return ln - m


def _reduced_exponent(lad, j, k, ln, yn):
    """The last exponent of reduce on U^(1,...,1,ln)(yn x_n), or None."""
    ws = lad.weights
    obj = U(ws, (1,) * (ws.n - 1) + (ln,), ws.element((0,) * (ws.n - 1) + (yn,)))
    r = reduce(lad, j, k, obj)
    return None if r.is_zero else r.ell[-1]


def test_window_rule_matches_the_case_analysis():
    for pn in range(3, 10):
        ws = WeightSystem((pn,))
        for q in range(2, pn):
            lad = Ladder(ws, q)
            for j in (1, 2):
                pjn = lad.emb(j).split_weight
                for ln, yn, k in itertools.product(range(1, pn), range(pn), (-pn - 1, 0, 1, 2 * pn)):
                    expected = _ref_reduced_exponent(pn, pjn, (yn + k) % pn, ln)
                    assert _reduced_exponent(lad, j, k, ln, yn) == expected, (pn, q, j, ln, yn, k)


def test_window_rule_matches_the_case_analysis_at_a_huge_last_weight():
    # O(1) in p_n: a loop over residues would not finish
    pn = 2**61
    lad = Ladder(WeightSystem((3, pn)), 5)
    rng = random.Random(20261021)
    for j in (1, 2):
        pjn = lad.emb(j).split_weight
        edges = [0, 1, 2, 3, 4, 5, 6, pjn - 1, pjn, pjn + 1, pn - pjn, pn - 6, pn - 5, pn - 4, pn - 2, pn - 1]
        values = edges + [rng.randrange(pn) for _ in range(8)]
        for ln, yn in itertools.product([v for v in values if 1 <= v < pn], values):
            for k in (0, 1, -pn):
                expected = _ref_reduced_exponent(pn, pjn, (yn + k) % pn, ln)
                assert _reduced_exponent(lad, j, k, ln, yn) == expected, (j, ln, yn, k)


EQUIVARIANCE_TYPES = [(3, 4), (3, 4, 5), (2, 3, 4, 5)]


def _representations(x):
    """x, its canonical form and its reflection at every coordinate."""
    return [x, x.canonical()] + [x.reflect(i) for i in range(x.weights.n)]


def _representation_counterexample(reduce_fn, insert_fn):
    """The first random case on which a functor gives objects that are
    not the same on two representations of one object, or None."""
    rng = random.Random(20261022)
    for p in EQUIVARIANCE_TYPES:
        ws = WeightSystem(p)
        pn = ws.p[-1]
        for q in range(2, pn):
            lad = Ladder(ws, q)
            for j in (1, 2):
                src = lad.emb(j).source
                for k in range(-pn, pn + 1):
                    for fn, dom in ((reduce_fn, ws), (insert_fn, src)):
                        for _ in range(4):
                            twist = normalize(dom, [rng.randint(-3 * w, 3 * w) for w in dom.p])
                            x = U(dom, [rng.randint(1, w - 1) for w in dom.p], twist, rng.randint(-4, 4))
                            images = [fn(lad, j, k, r) for r in _representations(x)]
                            for a, b in itertools.combinations(images, 2):
                                if not a.is_same(b):
                                    return p, q, j, k, fn.__name__, str(x), str(a), str(b)
    return None


def test_functors_do_not_depend_on_the_representation():
    assert _representation_counterexample(reduce, insert) is None


def test_a_level_reading_reduce_depends_on_the_representation():
    # negative control: reflections and canonical forms move the level
    def level_reading_reduce(ladder, j, k, obj):
        return reduce(ladder, j, k + (0 if obj.is_zero else obj.twist.level), obj)

    assert _representation_counterexample(level_reading_reduce, insert) is not None



def _twist_by_c_counterexample(reduce_fn, insert_fn):
    """The first random case on which a functor does not commute with
    the twist by L c (the c of each side's own system), or None."""
    rng = random.Random(20261021)
    for p in EQUIVARIANCE_TYPES:
        ws = WeightSystem(p)
        pn = ws.p[-1]
        for q in range(2, pn):
            lad = Ladder(ws, q)
            for j in (1, 2):
                src = lad.emb(j).source
                for k in range(-pn, pn + 1):
                    for fn, dom, cod in ((reduce_fn, ws, src), (insert_fn, src, ws)):
                        for _ in range(2):
                            x = _random_object(rng, dom)
                            image = fn(lad, j, k, x)
                            for lev in range(-3, 4):
                                if not fn(lad, j, k, x.twist_by(lev * dom.c())).is_same(image.twist_by(lev * cod.c())):
                                    return p, q, j, k, fn.__name__, str(x), lev
    return None


def test_functors_commute_with_the_twist_by_c():
    """reduce and insert read the level of a twist only to carry it
    through, so both commute with the twist by c: the reason
    check_recollement sweeps the composite at level 0 alone."""
    assert _twist_by_c_counterexample(reduce, insert) is None


def test_a_level_dependent_insert_does_not_commute_with_the_twist_by_c():
    # negative control: an insert that reads the level passes the level-0
    # composite sweep, and the commuting test must catch it
    def level_dependent_insert(ladder, j, k, obj):
        return insert(ladder, j, k + 1 if not obj.is_zero and obj.twist.level < 0 else k, obj)

    assert _twist_by_c_counterexample(reduce, level_dependent_insert) is not None


# sha256 of LadderReport.to_json() for every split, from the ladder that
# built each module for every pair that read it and assembled module Hom
# systems as dense Kronecker blocks
REPORT_DIGESTS = {
    ((3, 4), 2): "030000db36082929",
    ((3, 4), 3): "292013540fcd191e",
    ((2, 3, 4), 2): "9287e9184e81f662",
    ((2, 3, 4), 3): "698ba13d32967bfd",
    ((3, 4, 5), 2): "051370c0c8d1af0c",
    ((3, 4, 5), 3): "7a592c6e20188723",
    ((3, 4, 5), 4): "3637ec22af84a752",
}


@pytest.mark.parametrize("p, q", sorted(REPORT_DIGESTS))
def test_recollement_report_is_unchanged(p, q):
    payload = check_recollement(Ladder(WeightSystem(p), q)).to_json()
    assert hashlib.sha256(payload.encode()).hexdigest()[:16] == REPORT_DIGESTS[(p, q)]


@pytest.mark.parametrize("p", [(3, 3), (3, 4), (2, 3, 4), (3, 4, 5), (2, 5)])
def test_recollement_builds_each_module_once(monkeypatch, p):
    ws = WeightSystem(p)
    for q in range(2, p[-1]):
        lad = Ladder(ws, q)
        # what the adjunction pairs read: (E^ell or k over a system, and
        # the j whose phi_0 or psi_0 image is taken)
        modules, phi, psi = set(), set(), set()
        for j in (1, 2):
            src = lad.emb(j).source
            full = [(ws, ell) for ell in _some_ells(ws)] + [(ws, None)]
            red = [(src, ell) for ell in _some_ells(src)] + [(src, None)]
            for a, b in itertools.islice(itertools.product(full, red), _ADJUNCTION_PAIRS):
                modules |= {a, b}
                phi.add((j, a))
                psi.add((j, b))
        calls = collections.Counter()

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return call

        with monkeypatch.context() as patch:
            for name in ("make_E", "make_simple"):
                patch.setattr(functor, name, counted("module", getattr(gmod, name)))
            for name in ("phi0_module", "psi0_module"):
                patch.setattr(gmod, name, counted(name, getattr(gmod, name)))
            assert check_recollement(lad).passed
        assert calls == {"module": len(modules), "phi0_module": len(phi), "psi0_module": len(psi)}, (p, q)
