"""Stable objects: rewriting, canonical forms, and the Hom calculus."""

import collections
import dataclasses
import gc
import itertools
import math
import random
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bpsing import grading, stable
from bpsing.grading import GradeElement, WeightSystem, normalize
from bpsing.linalg import DEFAULT_MODULUS, PARANOIA_MODULUS
from bpsing.mforacle import kunneth_series, oracle_hom, probe_objects
from bpsing.stable import (
    StableObject,
    U,
    cuboid_objects,
    hom_dim,
    hom_series,
    hom_table,
    knorrer_transport,
    parse_object,
    rho_k,
    zero_object,
)
from bpsing.tilting import family
from kunneth_ref import one_variable_table, ref_kunneth_hom

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


MEMO_TYPES = [(2,), (5,), (2, 2), (3, 4), (2, 3, 4), (2, 2, 2, 2), (5, 6, 7)]


@st.composite
def stable_objects(draw):
    """Any object over a few weight types, zero objects and shifts included."""
    ws = WeightSystem(draw(st.sampled_from(MEMO_TYPES)))
    twist = normalize(ws, [draw(st.integers(-20, 20)) for _ in ws.p], draw(st.integers(-9, 9)))
    shift = draw(st.integers(-9, 9))
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from([zero_object(ws), StableObject(ws, None, twist, shift)]))
    return StableObject(ws, tuple(draw(st.integers(1, w - 1)) for w in ws.p), twist, shift)


def _copy(o):
    return StableObject(o.weights, o.ell, o.twist, o.shift)


def _looks(o):
    return o, hash(o), repr(o), str(o), dataclasses.fields(o), dataclasses.asdict(o)


@given(stable_objects())
def test_canonical_is_computed_once_per_object(a):
    c = a.canonical()
    assert c == _copy(a).canonical()
    assert a.canonical() is c
    assert c.canonical() is c
    # a canonical object built afresh is its own canonical form
    fresh = _copy(c)
    assert fresh.canonical() is fresh


@given(stable_objects())
def test_memo_is_invisible(a):
    fresh = _copy(a)
    a.canonical().canonical()
    assert _looks(a) == _looks(fresh)
    assert _looks(a.canonical()) == _looks(_copy(a.canonical()))
    assert [f.name for f in dataclasses.fields(a)] == ["weights", "ell", "twist", "shift"]


def test_memo_is_freed_by_reference_counting():
    # a memo that referred to its own object would be a cycle, which
    # only the cycle collector frees
    enabled = gc.isenabled()
    gc.disable()
    try:
        for args in (((2, 1), W34.x(0), 3), ((1, 1), W34.zero(), 0), (None, W34.c(), 1), (None, W34.zero(), 0)):
            a = StableObject(W34, *args)
            c = a.canonical()
            refs = [weakref.ref(a), weakref.ref(c)]
            del a, c
            assert [r() for r in refs] == [None, None], args
    finally:
        if enabled:
            gc.enable()


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


def test_parse_round_trip():
    for text in ("U[2,3]", "U[1,2](1,0;-1)", "U[2,1](0,3;2)[-4]", "0"):
        o = parse_object(W34, text)
        assert parse_object(W34, str(o)) == o
    with pytest.raises(ValueError):
        parse_object(W34, "V[1,1]")


def test_stable_object_validation():
    with pytest.raises(ValueError, match=r"ell \(1, 2, 3\) has length 3, weights \(3,4\) have length 2"):
        U(W34, (1, 2, 3))
    with pytest.raises(ValueError, match="has length 1"):
        StableObject(W34, (1,), W34.zero(), 0)
    with pytest.raises(TypeError):
        U(W34, (1.5, 2))
    # built directly: U[1,1] at shift 0.5 used to canonicalize to U[1,3](0,3;-1.0)
    with pytest.raises(TypeError, match="ell entry 1.0 is not an int"):
        StableObject(W34, (1.0, 2), W34.zero(), 0)
    with pytest.raises(TypeError, match="shift 0.5 is not an int"):
        StableObject(W34, (1, 1), W34.zero(), 0.5)
    with pytest.raises(TypeError):
        U(W34, (1, 1), W34.zero(), 0.5)
    # a twist over another weight system: 4 is no coefficient over (3,4)
    for twist in (WeightSystem((3, 5)).element((1, 4)), WeightSystem((3, 4, 5)).element((1, 1, 1))):
        with pytest.raises(ValueError, match="twist over"):
            StableObject(W34, (1, 1), twist, 0)
    assert StableObject(W34, (1, 1), WeightSystem((3, 4)).element((1, 1)), 0) == U(W34, (1, 1), W34.s())


def test_reflect_reads_its_coordinate():
    # reflect(2) raised IndexError and reflect(1.0) a tuple-index TypeError
    obj = U(W34, (1, 2))
    assert obj.reflect(np.int64(1)) == obj.reflect(1) == StableObject(W34, (1, 2), W34.x(1) * 2, -1)
    for i in (-1, 2):
        with pytest.raises(ValueError, match=f"coordinate {i} outside 0..1"):
            obj.reflect(i)
    for i in (1.0, True):
        with pytest.raises(TypeError, match="coordinate"):
            obj.reflect(i)


def test_bool_shifts_rejected():
    # True was stored as the shift and printed as U[1,2][True]
    with pytest.raises(TypeError, match="shift True is not an int"):
        StableObject(W34, (1, 2), W34.zero(), True)
    with pytest.raises(TypeError, match="ell entry True is not an int"):
        StableObject(W34, (True, 2), W34.zero(), 0)
    for build in (lambda: U(W34, (1, 2), shift=True), lambda: rho_k(W34, shift=False), lambda: U(W34, (1, 2)).suspend(True)):
        with pytest.raises(TypeError, match="shift"):
            build()


def test_integer_like_shifts():
    # numpy shifts give the same objects as int shifts; fractions raise
    assert U(W34, (1, 1), shift=np.int64(2)) == U(W34, (1, 1), shift=2)
    assert U(W34, (1, 2)).suspend(np.int64(1)) == U(W34, (1, 2)).suspend(1)
    assert zero_object(W34).suspend(np.int64(1)) == zero_object(W34)
    for build in (lambda: U(W34, (1, 1), shift=0.5), lambda: U(W34, (1, 2)).suspend(0.5), lambda: zero_object(W34).suspend(0.5)):
        with pytest.raises(TypeError):
            build()


def test_hom_examples():
    assert hom_dim(U(W34, (2, 3)), rho_k(W34)) == 1
    assert hom_dim(rho_k(W34), U(W34, (2, 1))) == 0
    assert hom_dim(rho_k(W34), rho_k(W34)) == 1
    assert hom_dim(rho_k(W34), rho_k(W34).suspend(1)) == 0
    assert hom_dim(rho_k(W34), rho_k(W34).serre()) == 1


def test_hom_zero_object():
    assert hom_dim(zero_object(W34), rho_k(W34)) == 0
    assert hom_dim(rho_k(W34), zero_object(W34)) == 0


def test_hom_dim_keeps_no_reference_to_its_arguments():
    # both are their own canonical forms, so a cache keyed on canonical
    # forms would keep exactly these objects alive
    a, b = U(W34, (1, 1)), rho_k(W34, W34.x(0))
    hom_dim(a, b)
    refs = [weakref.ref(a), weakref.ref(b)]
    del a, b
    gc.collect()
    assert [r() for r in refs] == [None, None]


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
    # ell = w + 1 over the box [0, delta], in the box order
    for ws in (W34, W22, WeightSystem((5,)), WeightSystem((3, 4, 5)), WeightSystem((2, 3, 2))):
        assert [obj.ell for obj in cuboid_objects(ws)] == [tuple(w + 1 for w in x) for x in ws.box()]
        assert all(obj.twist.is_zero() and obj.shift == 0 for obj in cuboid_objects(ws))


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


# -- the retired reflection search, kept as a witness for the rule ----------
#
# Before the closed-form rule, hom_dim matched the pair, after twist and
# shift equivariance and reflections on either argument, against two
# families with closed Hom formulas: the extended cuboid families (one
# dimensional exactly when ell >= z and 0 <= x - y <= s, zero between
# distinct total shifts) and the replicated families built from Serre
# twists S^i = (-i s)[i n] of a slab.  The rewriting freedom acts
# coordinatewise, so the matching search decomposes per coordinate.  Two
# cuboid searches, on (a, b) and on (b, S a), and one zero test decide
# everything the replicated families reach:
#
#   * placing a in copy i and b in copy j of the family of slab
#     coordinate t asks, per coordinate c, for raw twist coefficients
#     that differ by k = j - i modulo p_c, with ell = p_t - 1 on both
#     sides at c = t; the answer depends on t and k alone;
#   * k = 0 puts both twists in one residue class, which is a cuboid
#     match, so the search on (a, b) already finds it;
#   * k = 1 is the Serre dual of a cuboid match: Hom(a, b) is dual to
#     Hom(b, S a), and S a sits in copy i + 1 = j together with b, so
#     the search on (b, S a) finds it;
#   * members of copies with any other difference pair to zero, so for
#     those only feasibility matters;
#   * with copies 0 .. p_t - 2, matches of (a, b) reach the differences
#     2 - p_t .. p_t - 2 and matches of (b, S a) the differences
#     3 - p_t .. p_t - 1, so the zero test runs over 2 - p_t .. p_t - 1.
#
# A suspension changes a canonical form by one reflection or one fold,
# so the same configurations are feasible at every shift of b: the
# search decides all shifts of a pair or none of them.  It leaves pairs
# outside every configuration unknown (None): 50 of the 2,880 probe x
# cuboid questions of (4,5) at shifts -2..2 and 340 of the 23,040 of
# (3,4,5).  The scan below is that search, with every transfer delta in
# [0, p) tried; where it decides it witnesses the rule, and where it
# does not the Kunneth count of tests/kunneth_ref.py does.


def _ref_pair_answer(a, b):
    """Cuboid match by a scan over every transfer delta in [0, p)."""
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


def _ref_match_replicated(a, b, t, i, j):
    """a in copy i and b in copy j of the replicated family of slab t."""
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


def _ref_pair_search(a, b):
    ans = _ref_pair_answer(a, b)
    if ans is not None:
        return ans
    ws = a.weights
    for t in range(ws.n):
        for i in range(ws.p[t] - 1):
            for j in range(ws.p[t] - 1):
                ans = _ref_match_replicated(a, b, t, i, j)
                if ans is not None:
                    return ans
    return None


def _ref_hom_dim(a, b):
    """Search (a, b), then (b, S a), then (S^-1 b, a)."""
    a, b = a.canonical(), b.canonical()
    if a.is_zero or b.is_zero:
        return 0
    ws = a.weights
    serre_inv_b = StableObject(ws, b.ell, b.twist + ws.s(), b.shift - ws.n).canonical()
    for x, y in ((a, b), (b, a.serre()), (serre_inv_b, a)):
        ans = _ref_pair_search(x, y)
        if ans is not None:
            return ans
    return None


def _reference(a, b):
    """dim Hom(a, b) from the retired search, or from the Kunneth count
    where the search leaves it unknown; and whether it did."""
    ref = _ref_hom_dim(a, b)
    if ref is None:
        return ref_kunneth_hom(a, b), True
    return ref, False


def _assert_matches_reference(pairs) -> int:
    """Compare every pair with ``_reference``; return the number of
    pairs the search leaves to the Kunneth count."""
    unknown = 0
    for a, b in pairs:
        ref, left = _reference(a, b)
        assert hom_dim(a, b) == ref, (str(a), str(b))
        unknown += left
    return unknown


REFERENCE_PROBE_TYPES = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 4), (2, 3, 4), (3, 5), (4, 5), (5, 5), (4, 6)]


@pytest.mark.parametrize("p", REFERENCE_PROBE_TYPES)
def test_hom_matches_reference_on_probes(p):
    ws = WeightSystem(p)
    probes = [StableObject(ws, o.ell, o.twist, m) for o in probe_objects(ws) for m in range(-2, 3)]
    _assert_matches_reference((a, b) for a in probes for b in cuboid_objects(ws))


def test_hom_matches_reference_on_families():
    ws = WeightSystem((3, 4, 5))
    kinds = [("cuboid", {}), ("koszul", {})]
    kinds += [("extended", {"subset": (i,)}) for i in range(ws.n)]
    kinds += [("replicated", {"t": t}) for t in range(ws.n)]
    for kind, kwargs in kinds:
        objs = family(ws, kind, **kwargs).objects
        _assert_matches_reference((a, b.suspend(m)) for a in objs for b in objs for m in range(-2, 3))


PAIRS_PER_TYPE = 600
RANDOM_TYPES = [(3, 4, 5), (5, 6, 7), (6, 7), (4, 5, 6), (7,), (2, 9)]


def _random_object(rng, ws):
    ell = tuple(rng.randint(1, w - 1) for w in ws.p)
    twist = normalize(ws, [rng.randint(0, w - 1) for w in ws.p], rng.randint(-3, 3))
    return StableObject(ws, ell, twist, rng.randint(-3, 3))


def test_hom_matches_reference_on_random_pairs():
    rng = random.Random(20261018)
    unknown = 0
    for p in RANDOM_TYPES:
        ws = WeightSystem(p)
        unknown += _assert_matches_reference((_random_object(rng, ws), _random_object(rng, ws)) for _ in range(PAIRS_PER_TYPE))
    assert unknown > 0  # the sample reaches pairs that no branch of the search decides


def test_zero_test_reaches_difference_p_t_minus_one():
    # no cuboid match on (a, b) or (b, S a); only the replicated family of
    # slab t = 2 (p_t = 5) at copy difference k = 4 = p_t - 1 decides it
    ws = WeightSystem((3, 4, 5))
    a, b = parse_object(ws, "U[1,2,1](2,0,2;-2)"), parse_object(ws, "U[1,2,2]")
    ca, cb = a.canonical(), b.canonical()
    assert _ref_pair_answer(ca, cb) is None and _ref_pair_answer(cb, ca.serre()) is None
    assert hom_dim(a, b) == _ref_hom_dim(a, b) == 0
    assert oracle_hom(a.canonical(), b.canonical(), 0) == 0


def test_pair_outside_every_branch_is_unknown():
    # unknown to the retired search; the rule decides these pairs, and the
    # Kunneth count and the dense oracle agree at every shift they reach
    ws = WeightSystem((4, 5))
    for texts, series in ((("U[2,1](2,2;-2)", "U[2,2]"), {}), (("U[2,3](0,1;0)[-1]", "U[2,3]"), {0: 1})):
        a, b = (parse_object(ws, t) for t in texts)
        assert _ref_hom_dim(a, b) is None
        assert hom_series(a, b) == kunneth_series(a, b) == series
        assert [hom_dim(a, b.suspend(m)) for m in range(-3, 4)] == [oracle_hom(a, b, m) for m in range(-3, 4)]


# -- hom_series: every shift of a pair from one search -----------------------


def _series_mismatches(pairs, shifts) -> tuple[list, int]:
    """Compare hom_series(a, b).get(m, 0) with hom_dim(a, b.suspend(m))
    at every m of shifts(a, b, series), and with the retired search or,
    where it leaves the pair unknown, the Kunneth count; return the
    mismatches and the number of pairs left to the Kunneth count.

    The search decides all shifts of a pair or none, so it is asked at
    m = 0 and at the series' own shift; the Kunneth count at every m.
    """
    bad, unknown = [], 0
    for a, b in pairs:
        series = hom_series(a, b)
        left = _ref_hom_dim(a, b) is None
        unknown += left
        witnessed = shifts(a, b, series) if left else itertools.chain((0,), series)
        for m in shifts(a, b, series):
            want = hom_dim(a, b.suspend(m))
            if series.get(m, 0) != want:
                bad.append((str(a), str(b), m, series.get(m, 0), want))
        for m in witnessed:
            want = ref_kunneth_hom(a, b, m) if left else _ref_hom_dim(a, b.suspend(m))
            if series.get(m, 0) != want:
                bad.append((str(a), str(b), m, series.get(m, 0), want, "reference"))
    return bad, unknown


def _every_shift(ws):
    """Every m in +-3 lcm(p)."""
    reach = 3 * math.lcm(*ws.p)
    return lambda a, b, series: range(-reach, reach + 1)


def _sampled_shifts(ws):
    """Every m in +-(2n + 4), every thirtieth m beyond it out to
    +-3 lcm(p), and the shift where the series is nonzero."""
    reach, near = 3 * math.lcm(*ws.p), 2 * ws.n + 4
    outer = [m for m in range(-reach, reach + 1, 30) if abs(m) > near] + [-reach, reach]
    return lambda a, b, series: itertools.chain(range(-near, near + 1), outer, series or ())


def test_hom_series_is_hom_dim_at_every_shift_on_random_pairs():
    from test_acceptance import _types_with_cuboid_at_most

    rng = random.Random(20261020)
    unknown = 0
    for p, count in [(p, 2) for p in _types_with_cuboid_at_most(24)] + [((5, 6, 7), 16)]:
        ws = WeightSystem(p)
        pairs = [(_random_object(rng, ws), _random_object(rng, ws)) for _ in range(count)]
        bad, unk = _series_mismatches(pairs, _every_shift(ws))
        assert not bad, (p, bad[:3])
        unknown += unk
    assert unknown > 0


@pytest.mark.parametrize("p, unknown", [((4, 5), 10), ((3, 4, 5), 68)])
def test_hom_series_is_hom_dim_at_every_shift_on_probes(p, unknown):
    # probe x cuboid, the pairs of oracle-check: the retired search leaves
    # 10 and 68 of them unknown, which at shifts -2..2 were its 50 unknowns
    # over (4,5) and 340 over (3,4,5); the 4608 (3,4,5) pairs sample the
    # outer shifts, which would take half a minute at every shift
    ws = WeightSystem(p)
    shifts = _every_shift(ws) if p == (4, 5) else _sampled_shifts(ws)
    bad, unk = _series_mismatches(((a, b) for a in probe_objects(ws) for b in cuboid_objects(ws)), shifts)
    assert not bad, bad[:3]
    assert unk == unknown


def test_hom_series_edge_cases():
    a, b = rho_k(W34), U(W34, (2, 3))
    assert hom_series(a, a) == {0: 1}
    assert hom_series(a, a.suspend(3)) == {-3: 1}
    assert hom_series(a, zero_object(W34)) == hom_series(zero_object(W34), b) == {}
    assert hom_series(a, a.serre()) == hom_series(b, a) == {0: 1}
    # unknown to the retired search; zero at every shift, as the Kunneth count says
    pair = [parse_object(WeightSystem((4, 5)), t) for t in ("U[2,1](2,2;-2)", "U[2,2]")]
    assert hom_series(*pair) == kunneth_series(*pair) == {}
    with pytest.raises(ValueError):
        hom_series(rho_k(W34), rho_k(W22))


# -- the closed-form rule: its one-variable factors, mutants and fast path ---


def test_one_variable_rule_matches_dense_tables():
    # every residue class of every one-variable table with p <= 9, at both
    # primes: nonzero exactly when the rule says, and at the rule's shift
    classes = 0
    for p in range(2, 10):
        ws = WeightSystem((p,))
        for a, b, q in itertools.product(range(1, p), range(1, p), (DEFAULT_MODULUS, PARANOIA_MODULUS)):
            table = one_variable_table(p, a, b, q)
            for r in range(p):
                dense = {}
                for tau, m, dim in table:
                    if tau % p == r:
                        e = 2 * (tau // p) + m
                        dense[e] = dense.get(e, 0) + dim
                even, odd = stable._g(p, a, b, r), stable._g(p, a, p - b, (r + p - b) % p)
                # the interval's upper end is min(b, p - a), as the stable Hom count says
                assert not (even and odd) and even == (max(0, b - a) <= r < min(b, p - a))
                rule = {0: 1} if even else {-1: 1} if odd else {}
                assert dense == rule == hom_series(U(ws, (a,)), U(ws, (b,), ws.element((r,)))), (p, a, b, r, q)
                classes += q == DEFAULT_MODULUS
    assert classes == 1500


def _rule_series(a, b, lo=lambda x, y: max(0, y - x), odd=-1):
    """hom_series by the rule, restated on z = b.twist - a.twist, with
    the lower end of the one-variable interval and the odd shift as
    knobs for mutants."""
    def g(p, x, y, r):
        return lo(x, y) <= r < lo(x, y) + min(x, y, p - x, p - y)

    z = b.twist - a.twist
    m0 = a.shift - b.shift - 2 * z.level
    for p, x, y, r in zip(a.weights.p, a.ell, b.ell, z.coeffs):
        if not g(p, x, y, r):
            if not g(p, x, p - y, (r + p - y) % p):
                return {}
            m0 += odd
    return {m0: 1}


def test_mutated_rules_disagree_with_the_search():
    # the rule without the max in lo, and with e_i = +1, must each disagree
    # with the retired search on the pairs it decides
    pairs = []
    for p in ((3, 4), (4, 5), (3, 4, 5)):
        ws = WeightSystem(p)
        pairs += [(StableObject(ws, o.ell, o.twist, m), b) for o in probe_objects(ws) for m in range(-2, 3) for b in cuboid_objects(ws)]
    decided = [(a, b, ref) for a, b in pairs if (ref := _ref_hom_dim(a, b)) is not None]
    assert len(decided) == len(pairs) - 50 - 340
    # the restatement is the rule, so a disagreement below is the mutation's
    assert all(_rule_series(a, b) == hom_series(a, b) for a, b in pairs)
    mutants = {"lo = b - a": {"lo": lambda x, y: y - x}, "e_i = +1": {"odd": 1}}
    wrong = {name: sum(_rule_series(a, b, **knobs).get(0, 0) != ref for a, b, ref in decided) for name, knobs in mutants.items()}
    assert all(wrong.values()), wrong


def test_hom_answers_read_no_canonical_form(monkeypatch):
    # the rule reads ell, raw twist coefficients and shifts: no canonical
    # form, Serre functor, normalization or grading arithmetic per pair
    rng = random.Random(20261026)
    pairs = []
    for p in RANDOM_TYPES:
        ws = WeightSystem(p)
        objs = [_random_object(rng, ws) for _ in range(40)] + [zero_object(ws)]
        pairs += [(rng.choice(objs), rng.choice(objs)) for _ in range(60)]
    assert any(hom_series(a, b) for a, b in pairs)
    calls = collections.Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapper

    for owner, name in ((StableObject, "canonical"), (StableObject, "serre"), (grading, "normalize"), (stable, "normalize"), (GradeElement, "__add__"), (GradeElement, "__sub__")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    for a, b in pairs:
        hom_series(a, b)
        hom_dim(a, b)
    assert U(W34, (1, 1)).canonical() and calls["canonical"] == 1  # the counters count
    del calls["canonical"]
    assert not calls, calls


def test_hom_series_is_the_same_on_every_representative():
    rng = random.Random(20261027)
    for p in RANDOM_TYPES + [(2, 2, 2), (2, 3, 4, 5)]:
        ws = WeightSystem(p)
        for _ in range(100):
            a, b = _random_object(rng, ws), _random_object(rng, ws)
            want = hom_series(a, b)
            assert hom_series(a.canonical(), b.canonical()) == want, (str(a), str(b))
            for i in range(ws.n):
                assert hom_series(a.reflect(i), b) == hom_series(a, b.reflect(i)) == want, (str(a), str(b), i)


# -- hom_table: the rule on every pair of two lists at once -----------------


def _ref_g(p, a, b, r):
    """The one-variable rule as first written, with min and a chained
    comparison, which reads ints only."""
    lo = b - a if b > a else 0
    return lo <= r < lo + min(a, b, p - a, p - b)


def test_operator_g_is_the_chained_comparison():
    # every p <= 12 and every a, b, r: on ints one by one, and on arrays
    # holding all of them at once
    for p in range(2, 13):
        grid = list(itertools.product(range(1, p), range(1, p), range(p)))
        want = [_ref_g(p, a, b, r) for a, b, r in grid]
        assert [stable._g(p, a, b, r) for a, b, r in grid] == want, p
        assert all(type(stable._g(p, a, b, r)) is bool for a, b, r in grid[:5])
        a, b, r = np.array(grid).T
        got = stable._g(p, a, b, r)
        assert got.dtype == bool and got.tolist() == want, p


def _table_mismatches(rows, cols, table, series=hom_series) -> list:
    """The pairs where a (m0, nonzero) table disagrees with the series
    of a pair (hom_series, or the Kunneth series), or leaves a nonzero
    m0 on a pair that is zero."""
    m0, nonzero = table
    assert m0.shape == nonzero.shape == (len(rows), len(cols)) and nonzero.dtype == bool
    bad = []
    for a, m0_row, nonzero_row in zip(rows, m0.tolist(), nonzero.tolist()):
        for b, e, one in zip(cols, m0_row, nonzero_row):
            if ({e: 1} if one else {}) != series(a, b) or not (one or e == 0):
                bad.append((str(a), str(b), e, one))
    return bad


@pytest.mark.parametrize("p", [(4, 5), (3, 4, 5), (2, 3, 4, 5), (2, 2, 2, 2)])
def test_hom_table_is_hom_series_on_probes(p):
    ws = WeightSystem(p)
    rows, cols = probe_objects(ws), cuboid_objects(ws)
    table = hom_table(rows, cols)
    assert table[0].dtype == np.int64
    assert not _table_mismatches(rows, cols, table)


def test_hom_table_is_hom_series_on_random_pairs():
    # shifts and levels of +-2**70, and a weight of 2**61, take the
    # object-array route, and zero objects carry twists and shifts that
    # the table must ignore
    rng = random.Random(20261028)
    deep = 0
    types = RANDOM_TYPES + [(2, 2, 2), (2,), (3, 2**61)]
    for p in types:
        ws = WeightSystem(p)
        objs = [_random_object(rng, ws) for _ in range(30)]
        objs += [zero_object(ws), StableObject(ws, None, ws.element((1,) * ws.n, 4), 3)]
        for o in objs[:4]:
            for level, shift in ((2**70, 0), (-(2**70), 5), (1, 2**70 + 1)):
                objs.append(StableObject(ws, o.ell, o.twist + level * ws.c(), o.shift + shift))
        shallow = objs[:32]
        for rows, cols in ((shallow, shallow[::-1]), (objs, objs[5:]), (objs[-6:], shallow)):
            table = hom_table(rows, cols)
            far = any(max(abs(o.twist.level), abs(o.shift), *ws.p) >= 2**59 for o in rows + cols)
            assert table[0].dtype == (object if far else np.int64)
            assert not _table_mismatches(rows, cols, table), p
            deep += far
        for rows, cols in (([], objs), (objs, []), ([], [])):
            m0, nonzero = hom_table(rows, cols)
            assert m0.shape == nonzero.shape == (len(rows), len(cols))
    assert deep == 2 * len(types) + 1


def test_hom_table_needs_one_weight_system():
    a, b = rho_k(W34), rho_k(W22)
    for rows, cols in (([a], [b]), ([a, b], [a]), ([a], [a, U(WeightSystem((3, 5)), (1, 1))]), ([a], [rho_k(WeightSystem((2, 3, 4)))])):
        with pytest.raises(ValueError, match="mismatched weight systems"):
            hom_table(rows, cols)
    # the same weights under another WeightSystem instance
    assert hom_table([a], [rho_k(WeightSystem((3, 4)))])[1].tolist() == [[True]]


def test_hom_table_weight_check_survives_python_O():
    code = """
from bpsing import WeightSystem, hom_table, rho_k
try:
    hom_table([rho_k(WeightSystem((3, 4)))], [rho_k(WeightSystem((2, 2)))])
except ValueError as exc:
    print("ValueError:", exc)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-O", "-c", code], env={"PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ValueError: mismatched weight systems\n"


def test_table_without_the_odd_offset_fails_the_comparison():
    # negative control: the rule with e_i = 0 for the odd case, as a table
    ws = WeightSystem((3, 4, 5))
    rows, cols = probe_objects(ws), cuboid_objects(ws)
    series = [[_rule_series(a, b, odd=0) for b in cols] for a in rows]
    nonzero = np.array([[bool(s) for s in row] for row in series])
    m0 = np.array([[next(iter(s), 0) for s in row] for row in series])
    assert not _table_mismatches(rows, cols, hom_table(rows, cols))
    assert len(_table_mismatches(rows, cols, (m0, nonzero))) > len(rows)
