"""The matrix-factorization oracle: constructions, conventions, audits."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bpsing.grading import GradeElement, WeightSystem
from bpsing.linalg import PARANOIA_MODULUS, rank_mod
from bpsing.mforacle import (
    GradedMF,
    _base_mf,
    _borrow_sub,
    _differential,
    _neg,
    _nonzero,
    _term_basis,
    hom_profile,
    mf_of,
    oracle_hom,
    probe_objects,
    rank1_mf,
    stable_hom_dim_oracle,
    tensor_mf,
)
from bpsing.stable import StableObject, U, cuboid_objects, hom_dim, knorrer_transport, rho_k
from test_linalg import _ref_rank_mod

W2 = WeightSystem((2,))
W22 = WeightSystem((2, 2))
W34 = WeightSystem((3, 4))


def test_rank1():
    f = rank1_mf(W2, 0, 1)
    assert f.d0 == (((1, (1,)),),)
    assert f.d1 == (((1, (1,)),),)
    assert f.odd == (W2.x(0),)
    with pytest.raises(ValueError):
        rank1_mf(W2, 0, 2)


def test_tensor_is_koszul_factorization():
    f = tensor_mf(rank1_mf(W22, 0, 1), rank1_mf(W22, 1, 1))
    # d0 = [[X1, X2], [-X2, X1]], d1 = [[X1, -X2], [X2, X1]]
    assert f.d0 == (((1, (1, 0)), (1, (0, 1))), ((-1, (0, 1)), (1, (1, 0))))
    assert f.d1 == (((1, (1, 0)), (-1, (0, 1))), ((1, (0, 1)), (1, (1, 0))))


def test_tensor_rank_and_validation():
    f = mf_of(rho_k(WeightSystem((2, 2, 2))))
    assert len(f.even) == len(f.odd) == 4
    with pytest.raises(ValueError):
        tensor_mf(rank1_mf(W22, 0, 1), rank1_mf(W22, 0, 1))


def test_invariant_guards_broken_factorization():
    f = rank1_mf(W2, 0, 1)
    with pytest.raises(ValueError):
        GradedMF(W2, f.even, f.odd, (((1, (0,)),),), f.d1, f.variables)


def test_invariant_guards_matrix_shapes():
    f = rank1_mf(W2, 0, 1)
    with pytest.raises(ValueError, match="differential is not a 1x1 matrix"):
        GradedMF(W2, f.even, f.odd, (), f.d1, f.variables)
    with pytest.raises(ValueError, match="differential is not a 1x1 matrix"):
        GradedMF(W2, f.even, f.odd, f.d0, ((None, None),), f.variables)


def test_invariant_guards_wrong_degree_alone():
    # the odd generator moved by c: the composites are intact
    f = rank1_mf(W2, 0, 1)
    with pytest.raises(ValueError, match="d0 entry is not homogeneous"):
        GradedMF(W2, f.even, (f.odd[0] + W2.c(),), f.d0, f.d1, f.variables)


def test_invariant_guards_wrong_composite_alone():
    # d0 negated: every entry keeps its degree
    f = tensor_mf(rank1_mf(W22, 0, 1), rank1_mf(W22, 1, 1))
    with pytest.raises(ValueError, match="composite of the factorization pair is not f times identity"):
        GradedMF(W22, f.even, f.odd, _neg(f.d0), f.d1, f.variables)


def _ref_shift_once(f):
    c = f.weights.c()
    return GradedMF(f.weights, tuple(g - c for g in f.odd), f.even, _neg(f.d1), _neg(f.d0), f.variables)


def _ref_unshift_once(f):
    c = f.weights.c()
    return GradedMF(f.weights, f.odd, tuple(g + c for g in f.even), _neg(f.d1), _neg(f.d0), f.variables)


@pytest.mark.parametrize("p", [(2, 2), (3, 4), (2, 3, 4), (2, 2, 2, 2)])
def test_shift_equals_iterated_rotation(p):
    ws = WeightSystem(p)
    f = mf_of(StableObject(ws, cuboid_objects(ws)[-1].ell, ws.element([1] * ws.n, -1), 0))
    for m in range(-5, 6):
        want = f
        for _ in range(abs(m)):
            want = _ref_shift_once(want) if m > 0 else _ref_unshift_once(want)
        got = f.shift(m)
        assert (got.even, got.odd, got.d0, got.d1) == (want.even, want.odd, want.d0, want.d1), m


def test_end_of_residue_field():
    f = mf_of(rho_k(W2))
    assert stable_hom_dim_oracle(f, f, 0) == 1
    assert stable_hom_dim_oracle(f, f, 1) == 0
    assert stable_hom_dim_oracle(f, f, 2) == 0  # Hom(k, k[2]) = Hom(k, k(c)); disjoint degrees


def test_oracle_cuboid_matrix_33():
    w33 = WeightSystem((3, 3))
    cub = cuboid_objects(w33)
    mat = [[oracle_hom(a, b) for b in cub] for a in cub]
    assert mat == [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]


def test_oracle_rigidity_sample():
    assert oracle_hom(rho_k(W34), rho_k(W34), 1) == 0


def _random_objects(ws, count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        ell = tuple(rng.randrange(1, p) for p in ws.p)
        tw = ws.element([rng.randrange(p) for p in ws.p], rng.randrange(-2, 3))
        out.append(StableObject(ws, ell, tw, rng.randrange(-3, 4)))
    return out


@pytest.mark.parametrize("ws", [W34, WeightSystem((2, 2, 2))])
def test_suspension_pins_to_canonical_twist(ws):
    for o in _random_objects(ws, 6, seed=11):
        shifted = StableObject(ws, o.ell, o.twist, o.shift + 2)
        twisted = StableObject(ws, o.ell, o.twist + ws.c(), o.shift)
        assert hom_profile(mf_of(shifted)) == hom_profile(mf_of(twisted))


def test_two_periodicity():
    f = mf_of(U(W34, (2, 2)))
    g = mf_of(rho_k(W34))
    for m in range(-3, 4):
        assert stable_hom_dim_oracle(f, g.twist(W34.c()), m) == stable_hom_dim_oracle(f, g, m + 2)


def test_full_reflection_identity_profiles():
    # U^l[n] = U^{nc-l}(nc-l)
    for ws in (W34, WeightSystem((2, 2, 2))):
        n = ws.n
        for base in cuboid_objects(ws):
            lhs = StableObject(ws, base.ell, ws.zero(), n)
            flip = ws.element([p - e for p, e in zip(ws.p, base.ell)])
            rhs = StableObject(ws, flip.coeffs, flip, 0)
            assert hom_profile(mf_of(lhs)) == hom_profile(mf_of(rhs))


def test_socle_identity_profiles():
    # U^{s+delta} = rho(k)(s)[-n]
    lhs = mf_of(U(W34, (2, 3)))
    rhs = mf_of(StableObject(W34, (1, 1), W34.s(), -2))
    assert hom_profile(lhs) == hom_profile(rhs)


def test_reflection_rewrites_have_equal_profiles():
    o = U(W34, (1, 2), W34.x(1), 0)
    for i in (0, 1):
        assert hom_profile(mf_of(o)) == hom_profile(mf_of(o.reflect(i)))


def test_knorrer_profile_transport():
    w3 = WeightSystem((3,))
    for a in cuboid_objects(w3):
        fa = mf_of(a)
        ta = mf_of(knorrer_transport(a))
        for b in cuboid_objects(w3):
            for m in (0, 1):
                lhs = stable_hom_dim_oracle(fa, mf_of(b), m)
                rhs = stable_hom_dim_oracle(ta, mf_of(knorrer_transport(b)), m)
                assert lhs == rhs


def test_field_independence_spot():
    pairs = [(rho_k(W34), rho_k(W34)), (U(W34, (2, 3)), rho_k(W34)), (rho_k(W34), U(W34, (1, 3), W34.x(0), 1))]
    for a, b in pairs:
        for m in (-1, 0, 1, 2):
            assert oracle_hom(a, b, m) == oracle_hom(a, b, m, PARANOIA_MODULUS)


def test_oracle_agrees_with_closed_hom_formula():
    # Hom(U^l(x)[-sigma(x)], U^z(y)[-sigma(y)]) is one exactly when
    # l >= z and 0 <= x - y <= s, for the cuboid with small box twists
    ws = W34
    s = ws.s()
    twists = [ws.zero(), ws.x(0), ws.x(1), ws.x(0) + ws.x(1)]
    for la in ((1, 1), (2, 3), (2, 1)):
        for lb in ((1, 1), (2, 3), (1, 2)):
            for x in twists:
                for y in twists:
                    jointly_in_family = all(
                        (x.coeffs[i] == 0 and y.coeffs[i] == 0)
                        or (la[i] == 1 and lb[i] == 1 and x.coeffs[i] <= p - 2 and y.coeffs[i] <= p - 2)
                        for i, p in enumerate(ws.p)
                    )
                    if not jointly_in_family:
                        continue
                    a = StableObject(ws, la, x, -x.sigma())
                    b = StableObject(ws, lb, y, -y.sigma())
                    got = stable_hom_dim_oracle(mf_of(a), mf_of(b), 0)
                    ge = all(i >= j for i, j in zip(la, lb))
                    diff = x - y
                    inside = diff.level >= 0 and (s - diff).level >= 0
                    assert got == (1 if ge and inside else 0), (la, lb, str(x), str(y))


def test_field_independence_full_34_suite():
    # the complete (3,4) probe suite over both primes
    import itertools

    ws = W34
    s = ws.s()
    cub = cuboid_objects(ws)
    twists = set()
    for coeffs in itertools.product(*(range(p) for p in ws.p)):
        for lev in range(-3, 4):
            v = StableObject(ws, (1, 1), ws.element(coeffs, lev), 0).twist
            if (s - v).level >= 0 and (s + v).level >= 0:
                for t in range(-2, 3):
                    twists.add(v + t * ws.c())
    checked = 0
    for a0 in cub:
        for u in sorted(twists, key=lambda e: (e.level, e.coeffs)):
            for m in range(-4, 5):
                a = StableObject(ws, a0.ell, u, m)
                fa = mf_of(a)
                for b in cub:
                    fb = mf_of(b)
                    assert stable_hom_dim_oracle(fa, fb, 0) == stable_hom_dim_oracle(fa, fb, 0, PARANOIA_MODULUS)
                    checked += 1
    assert checked >= 6000


def test_zero_object_has_zero_profile():
    from bpsing.stable import zero_object

    f = mf_of(zero_object(W34))
    assert all(d == 0 for _, d in hom_profile(f))


def test_hom_complex_differentials_compose_to_zero():
    import numpy as np

    from bpsing.mforacle import _differential, _term_basis

    f = mf_of(U(W34, (2, 3), W34.x(0), 1))
    g = mf_of(rho_k(W34))
    for m in (-2, -1, 0, 1, 2):
        prev = _term_basis(f, g, m - 1)
        mid = _term_basis(f, g, m)
        nxt = _term_basis(f, g, m + 1)
        d1 = _differential(f, g, m - 1, prev, mid)
        d2 = _differential(f, g, m, mid, nxt)
        # unreduced, so this holds over the integers
        assert not (d2 @ d1).any()


# -- the Hom complex against a GradeElement-based reference -----------------
#
# The reference below assembles term bases and differentials the direct
# way, with one GradeElement per generator and per generator pair and a
# scan of every matrix entry; the oracle reads unboxed tables instead and
# must return the same lists in the same order and the same matrices.


def _ref_weak_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _ref_weak_compositions(total - head, parts - 1):
            yield (head,) + rest


def _ref_monomial_basis(ws, deg):
    if deg.level < 0:
        return ()
    return tuple(
        tuple(lam + d * p for lam, d, p in zip(deg.coeffs, comp, ws.p)) for comp in _ref_weak_compositions(deg.level, ws.n)
    )


def _ref_gens_at(f, k):
    c = f.weights.c()
    if k % 2 == 0:
        return tuple(g - (k // 2) * c for g in f.even)
    return tuple(g - ((k + 1) // 2) * c for g in f.odd)


def _ref_diff_at(f, k):
    return f.d1 if k % 2 == 0 else f.d0


def _ref_term_basis(f, g, k):
    ws = f.weights
    basis = []
    for slot, (fa, gb) in enumerate(((_ref_gens_at(f, 0), _ref_gens_at(g, k)), (_ref_gens_at(f, 1), _ref_gens_at(g, k + 1)))):
        for a, ga in enumerate(fa):
            for b, gb_deg in enumerate(gb):
                for exps in _ref_monomial_basis(ws, ga - gb_deg):
                    basis.append((slot, a, b, exps))
    return basis


def _ref_differential(f, g, k, cols, rows, q):
    index = {key: i for i, key in enumerate(rows)}
    mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
    sign = -1 if k % 2 else 1
    dg_k = _ref_diff_at(g, k)
    dg_k1 = _ref_diff_at(g, k + 1)
    df0 = f.d1
    df1 = f.d0
    for ci, (slot, a, b, exps) in enumerate(cols):
        if slot == 0:
            for r, row in enumerate(dg_k):
                e = row[b]
                if e is not None:
                    mat[index[(0, a, r, tuple(x + y for x, y in zip(exps, e[1])))], ci] += e[0]
            for a2 in range(len(f.odd)):
                e = df1[a][a2]
                if e is not None:
                    mat[index[(1, a2, b, tuple(x + y for x, y in zip(exps, e[1])))], ci] += sign * e[0]
        else:
            for r, row in enumerate(dg_k1):
                e = row[b]
                if e is not None:
                    mat[index[(1, a, r, tuple(x + y for x, y in zip(exps, e[1])))], ci] += e[0]
            for a0 in range(len(f.even)):
                e = df0[a][a0]
                if e is not None:
                    mat[index[(0, a0, b, tuple(x + y for x, y in zip(exps, e[1])))], ci] += sign * e[0]
    return mat % q


def _assert_matches_reference(a, b, ks=range(-2, 3), q=32003):
    f, g = mf_of(a), mf_of(b)
    bases = {}
    for k in range(ks.start, ks.stop + 1):
        bases[k] = _term_basis(f, g, k)
        assert bases[k] == _ref_term_basis(f, g, k), (str(a), str(b), k)
    shapes = {}
    for k in ks:
        got = _differential(f, g, k, bases[k], bases[k + 1])
        want = _ref_differential(f, g, k, bases[k], bases[k + 1], q)
        # the oracle leaves the reduction mod q to rank_mod
        assert got.dtype == want.dtype and np.array_equal(got % q, want), (str(a), str(b), k)
        shapes[k] = got.shape
    return shapes


@pytest.mark.parametrize("p", [(2, 2), (3, 4), (2, 3, 4)])
def test_hom_complex_matches_reference_on_probe_pairs(p):
    ws = WeightSystem(p)
    for a in probe_objects(ws):
        for b in cuboid_objects(ws):
            _assert_matches_reference(a, b)


def test_hom_complex_matches_reference_sample_2222():
    ws = WeightSystem((2, 2, 2, 2))
    (cub,) = cuboid_objects(ws)
    probes = probe_objects(ws)
    objects = probes[::3] + _random_objects(ws, 4, seed=5)
    for a, b in zip(objects, objects[1:] + [cub]):
        _assert_matches_reference(a, b)


def test_hom_complex_matches_reference_on_deep_anchor():
    # the (3,4,5) level -8 pair whose matrix is the first recorded baseline
    ws = WeightSystem((3, 4, 5))
    a = StableObject(ws, (1, 1, 1), ws.element((0, 0, 0), -8), 0)
    shapes = _assert_matches_reference(a, U(ws, (1, 1, 1)), ks=range(-1, 1))
    assert shapes == {-1: (1224, 1088), 0: (1368, 1224)}


@pytest.mark.parametrize(
    "p, level, shapes",
    [
        # the audit-deep anchor, and the largest matrices of that workload
        ((3, 4, 5), -8, [(1224, 1088), (1368, 1224)]),
        ((2, 2, 2, 2), -3, [(1344, 896), (1920, 1344)]),
    ],
)
def test_deep_ranks_match_reference_kernel(p, level, shapes):
    # U[1,...,1] twisted down to `level` against U[1,...,1]
    ws = WeightSystem(p)
    ell = (1,) * ws.n
    a, b = StableObject(ws, ell, ws.element((0,) * ws.n, level), 0), U(ws, ell)
    f, g = mf_of(a), mf_of(b)
    bases = [_term_basis(f, g, k) for k in (-1, 0, 1)]
    diffs = [_differential(f, g, k, bases[k + 1], bases[k + 2]) for k in (-1, 0)]
    assert [d.shape for d in diffs] == shapes
    for q in (32003, PARANOIA_MODULUS):
        assert [rank_mod(d, q) for d in diffs] == [_ref_rank_mod(d, q) for d in diffs]
    assert oracle_hom(a, b) == hom_dim(a, b)


@given(st.data())
def test_borrow_sub_is_grade_element_sub(data):
    ws = WeightSystem(tuple(data.draw(st.lists(st.integers(2, 7), min_size=1, max_size=4))))

    def element():
        coeffs = tuple(data.draw(st.integers(0, w - 1)) for w in ws.p)
        return GradeElement(ws, coeffs, data.draw(st.integers(-10, 10)))

    x, y = element(), element()
    d = x - y
    assert _borrow_sub(ws.p, (x.coeffs, x.level), (y.coeffs, y.level)) == (d.coeffs, d.level)


# -- tensor products as block Kronecker products ----------------------------


def _ref_tensor_mf(f, g):
    # the block loops that tensor_mf replaced, one generator pair at a time
    ws = f.weights
    c = ws.c()
    ne0, ne1 = len(f.even), len(f.odd)
    me0, me1 = len(g.even), len(g.odd)
    even = tuple(a + b for a in f.even for b in g.even) + tuple(a + b - c for a in f.odd for b in g.odd)
    odd = tuple(a + b for a in f.odd for b in g.even) + tuple(a + b for a in f.even for b in g.odd)

    def scaled(entry, sign):
        return None if entry is None else (sign * entry[0], entry[1])

    d0 = [[None] * len(odd) for _ in range(len(even))]
    d1 = [[None] * len(even) for _ in range(len(odd))]
    for af in range(ne1):
        for bg in range(me0):
            col = af * me0 + bg
            for rf in range(ne0):
                d0[rf * me0 + bg][col] = f.d0[rf][af]
            for rg in range(me1):
                d0[ne0 * me0 + af * me1 + rg][col] = scaled(g.d1[rg][bg], -1)
    for af in range(ne0):
        for bg in range(me1):
            col = ne1 * me0 + af * me1 + bg
            for rg in range(me0):
                d0[af * me0 + rg][col] = g.d0[rg][bg]
            for rf in range(ne1):
                d0[ne0 * me0 + rf * me1 + bg][col] = f.d1[rf][af]
    for af in range(ne0):
        for bg in range(me0):
            col = af * me0 + bg
            for rf in range(ne1):
                d1[rf * me0 + bg][col] = f.d1[rf][af]
            for rg in range(me1):
                d1[ne1 * me0 + af * me1 + rg][col] = g.d1[rg][bg]
    for af in range(ne1):
        for bg in range(me1):
            col = ne0 * me0 + af * me1 + bg
            for rg in range(me0):
                d1[af * me0 + rg][col] = scaled(g.d0[rg][bg], -1)
            for rf in range(ne0):
                d1[ne1 * me0 + rf * me1 + bg][col] = f.d0[rf][af]
    return GradedMF(ws, even, odd, tuple(map(tuple, d0)), tuple(map(tuple, d1)), f.variables | g.variables)


def test_tensor_mf_matches_block_loops():
    def fields(f):
        return f.even, f.odd, f.d0, f.d1, f.variables

    def tensor(f, g):
        got = tensor_mf(f, g)
        assert fields(got) == fields(_ref_tensor_mf(f, g))
        steps.append(1)
        return got

    steps = []
    for p in [(2,), (2, 2), (3, 4), (2, 3, 4), (3, 4, 5), (2, 2, 2, 2), (2, 3, 4, 5), (5, 6, 7)]:
        ws = WeightSystem(p)
        for obj in cuboid_objects(ws):
            rank1 = [rank1_mf(ws, i, a) for i, a in enumerate(obj.ell)]
            out = rank1[0]
            for r in rank1[1:]:
                out = tensor(out, r)
            if ws.n == 4:
                # two factors that are not rank one
                tensor(tensor_mf(*rank1[:2]), tensor_mf(*rank1[2:]))
    assert len(steps) == 407


# -- the shared base factorization and the empty-middle exit -----------------


def _ref_mf_of(obj):
    # tensor the rank-one factors, twist, then rotate once per unit of shift
    ws = obj.weights
    out = rank1_mf(ws, 0, obj.ell[0])
    for i in range(1, ws.n):
        out = tensor_mf(out, rank1_mf(ws, i, obj.ell[i]))
    y = obj.twist
    out = GradedMF(ws, tuple(g - y for g in out.even), tuple(g - y for g in out.odd), out.d0, out.d1, out.variables)
    for _ in range(abs(obj.shift)):
        out = _ref_shift_once(out) if obj.shift > 0 else _ref_unshift_once(out)
    return out


@pytest.mark.parametrize("p", [(2, 2), (3, 4), (2, 3, 4), (2, 2, 2, 2)])
def test_mf_of_matches_direct_construction(p):
    ws = WeightSystem(p)
    objects = [StableObject(ws, o.ell, o.twist, k) for o in probe_objects(ws) for k in range(-3, 4)]
    for obj in objects + _random_objects(ws, 12, seed=7):
        got, want = mf_of(obj), _ref_mf_of(obj)
        assert (got.even, got.odd, got.d0, got.d1, got.variables) == (want.even, want.odd, want.d0, want.d1, want.variables), str(obj)
        # tables handed on by a twist are the ones its matrices give
        assert _nonzero(got.d0, len(got.even), len(got.odd)) == (got._d0_rows, got._d0_cols)
        assert _nonzero(got.d1, len(got.odd), len(got.even)) == (got._d1_rows, got._d1_cols)


def test_twists_share_the_base_tables():
    # cold caches: an object cached earlier may hold an evicted base
    mf_of.cache_clear()
    _base_mf.cache_clear()
    ws = WeightSystem((2, 3, 4))
    base = _base_mf(ws, (1, 2, 3), False)
    for shift in (0, 2, -4):
        f = mf_of(StableObject(ws, (1, 2, 3), ws.element((1, 0, 1), 1), shift))
        assert f.d0 is base.d0 and f._d0_rows is base._d0_rows and f._d1_cols is base._d1_cols
    assert mf_of(StableObject(ws, (1, 2, 3), ws.zero(), 0)) is base
    assert _base_mf.cache_info().maxsize is not None


def _ref_stable_hom_dim_oracle(f, g, m, q=32003):
    basis_prev = _term_basis(f, g, m - 1)
    basis_mid = _term_basis(f, g, m)
    basis_next = _term_basis(f, g, m + 1)
    d_prev = _differential(f, g, m - 1, basis_prev, basis_mid)
    d_mid = _differential(f, g, m, basis_mid, basis_next)
    return len(basis_mid) - rank_mod(d_mid, q) - rank_mod(d_prev, q)


@pytest.mark.parametrize("p", [(2, 3, 4), (3, 5)])
def test_empty_middle_exit_matches_three_terms(p):
    ws = WeightSystem(p)
    empty = 0
    for a in probe_objects(ws):
        for b in cuboid_objects(ws):
            f, g = mf_of(a), mf_of(b)
            for m in range(-2, 3):
                assert stable_hom_dim_oracle(f, g, m) == _ref_stable_hom_dim_oracle(f, g, m), (str(a), str(b), m)
                empty += not _term_basis(f, g, m)
    assert empty  # the exit is taken


def test_empty_middle_still_checks_the_modulus():
    ws = WeightSystem((2, 3, 4))
    a, b = next((a, b) for a in probe_objects(ws) for b in cuboid_objects(ws) if not _term_basis(mf_of(a), mf_of(b), 0))
    assert oracle_hom(a, b, 0) == 0
    with pytest.raises(ValueError, match="not prime"):
        oracle_hom(a, b, 0, q=32004)
    with pytest.raises(ValueError, match="not below 2"):
        stable_hom_dim_oracle(mf_of(a), mf_of(b), 0, 2**31 + 11)
