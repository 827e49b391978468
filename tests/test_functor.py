"""Reduction and insertion functors, projective images, ladder checks."""

import itertools

import pytest

from bpsing.functor import Ladder, check_recollement, insert, predict_projective_image, reduce
from bpsing.grading import WeightSystem, normalize
from bpsing.stable import StableObject, U, cuboid_objects, rho_k, zero_object

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
    assert all(s["match"] for s in report.fully_faithful_samples if s["match"] is not None)
    assert all(a["ok"] for a in report.adjunction)
    payload = report.to_json()
    assert '"passed": true' in payload
