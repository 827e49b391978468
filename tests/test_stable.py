"""Stable objects: rewriting, canonical forms, and the Hom calculus."""

import itertools
import random

import pytest

from bpsing.grading import GradeElement, WeightSystem, normalize
from bpsing.stable import (
    StableObject,
    U,
    cuboid_objects,
    hom_dim,
    knorrer_transport,
    parse_object,
    rho_k,
    zero_object,
)

W34 = WeightSystem((3, 4))
W22 = WeightSystem((2, 2))


def test_reflect_rule():
    r = rho_k(W34).reflect(0)
    assert r == StableObject(W34, (2, 1), 2 * W34.x(0), -1)
    # double reflection folds one canonical twist
    rr = rho_k(W34).reflect(0).reflect(0)
    assert rr == StableObject(W34, (1, 1), W34.c(), -2)


def test_reflect_weight_two():
    r = rho_k(W22).reflect(0)
    assert r == StableObject(W22, (1, 1), W22.x(0), -1)


def test_canonical_fold():
    a = StableObject(W34, (1, 1), W34.c(), -2).canonical()
    assert a == rho_k(W34).canonical()


def test_canonical_equates_full_reflection():
    lhs = U(W34, (2, 3)).canonical()
    rhs = StableObject(W34, (1, 1), W34.s(), -2).canonical()
    assert lhs == rhs


def test_canonical_idempotent():
    o = StableObject(W34, (2, 1), W34.element((1, 3), -2), 5)
    assert o.canonical() == o.canonical().canonical()


def _canonical_by_subsets(o):
    """The least key over all reflection subsets of matching parity."""
    ws = o.weights
    best = None
    for subset in itertools.product((0, 1), repeat=ws.n):
        if sum(subset) % 2 != o.shift % 2:
            continue
        obj = o
        for i, flip in enumerate(subset):
            if flip:
                obj = obj.reflect(i)
        twist = obj.twist + (obj.shift // 2) * ws.c()
        key = (obj.ell, twist.coeffs, twist.level)
        if best is None or key < best:
            best = key
    ell, coeffs, level = best
    return StableObject(ws, ell, GradeElement(ws, coeffs, level), 0)


CANONICAL_TYPES = [
    (2,), (3,), (6,), (2, 2), (2, 5), (3, 4), (4, 4),
    (2, 2, 2), (3, 4, 5), (2, 4, 6), (2, 2, 2, 2), (2, 3, 4, 5), (4, 2, 6, 3, 2),
]


def test_canonical_matches_subset_minimum():
    rng = random.Random(20251209)
    for _ in range(3000):
        ws = WeightSystem(rng.choice(CANONICAL_TYPES))
        ell = tuple(rng.randint(1, w - 1) for w in ws.p)
        twist = normalize(ws, [rng.randint(-15, 15) for _ in ws.p], rng.randint(-9, 9))
        o = StableObject(ws, ell, twist, rng.randint(-9, 9))
        c = o.canonical()
        assert c == _canonical_by_subsets(o), o
        assert c.canonical() == c


def test_canonical_parity_flip_back():
    # preferred reflections at both coordinates, odd shift: the later
    # coordinate with equal ell options (index 1, p = 4, ell = 2) flips back
    o = StableObject(W34, (2, 2), W34.element((0, 3)), 1)
    assert o.canonical() == _canonical_by_subsets(o)
    assert o.canonical().ell == (1, 2)


def test_suspend_rules():
    o = U(W34, (1, 2))
    assert o.suspend(0) == o.canonical()
    assert rho_k(W34).suspend(2) == rho_k(W34).twist_by(W34.c())
    # [n] is the full reflection: U^s[2] = U^{2c-s}(2c-s)
    assert rho_k(W34).suspend(2) == U(W34, (2, 3), W34.element((2, 3))).canonical()


def test_serre_inverse():
    o = U(W34, (2, 2), W34.x(0), 1)
    assert o.serre().serre_inv() == o.canonical()
    assert o.serre_inv().serre() == o.canonical()


def test_parse_round_trip():
    for text in ("U[2,3]", "U[1,2](1,0;-1)", "U[2,1](0,3;2)[-4]", "0"):
        o = parse_object(W34, text)
        assert parse_object(W34, str(o)) == o
    with pytest.raises(ValueError):
        parse_object(W34, "V[1,1]")


def test_hom_examples():
    assert hom_dim(U(W34, (2, 3)), rho_k(W34)) == 1
    assert hom_dim(rho_k(W34), U(W34, (2, 1))) == 0
    assert hom_dim(rho_k(W34), rho_k(W34)) == 1
    assert hom_dim(rho_k(W34), rho_k(W34).suspend(1)) == 0
    assert hom_dim(rho_k(W34), rho_k(W34).serre()) == 1


def test_hom_zero_object():
    assert hom_dim(zero_object(W34), rho_k(W34)) == 0
    assert hom_dim(rho_k(W34), zero_object(W34)) == 0


def test_hom_mismatched_weights():
    with pytest.raises(ValueError):
        hom_dim(rho_k(W34), rho_k(W22))


def test_hom_respects_rewriting():
    a = U(W34, (1, 2), W34.x(1), -1)
    for i in (0, 1):
        moved = a.reflect(i)
        for b in cuboid_objects(W34):
            assert hom_dim(a, b) == hom_dim(moved, b)


def test_serre_duality_of_answers():
    objs = [rho_k(W34), U(W34, (2, 2)), U(W34, (1, 3), W34.x(0), 1)]
    for a in objs:
        for b in objs:
            lhs = hom_dim(a, b)
            rhs = hom_dim(b, a.serre())
            if lhs is not None and rhs is not None:
                assert lhs == rhs


def test_cuboid_enumeration():
    cub = cuboid_objects(W34)
    assert len(cub) == 6
    assert cub[0].ell == (2, 3)
    assert cub[-1].ell == (1, 1)


def test_knorrer_transport():
    w3 = WeightSystem((3,))
    big = WeightSystem((2, 3))
    t = knorrer_transport(rho_k(w3))
    assert t.weights == big and t.ell == (1, 1)
    tw = knorrer_transport(U(w3, (2,), w3.element((1,), -2), 3))
    assert tw.twist == GradeElement(big, (0, 1), -2) and tw.shift == 3
    assert knorrer_transport(zero_object(w3)).is_zero


def test_knorrer_preserves_hom():
    w3 = WeightSystem((3,))
    pairs = [(a, b) for a in cuboid_objects(w3) for b in cuboid_objects(w3)]
    for a, b in pairs:
        assert hom_dim(a, b) == hom_dim(knorrer_transport(a), knorrer_transport(b))


def test_ell_bounds_validated():
    with pytest.raises(ValueError):
        U(W34, (0, 2))
    with pytest.raises(ValueError):
        U(W34, (1, 4))
