"""The matrix-factorization oracle: constructions, conventions, audits."""

import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bpsing.grading import GradeElement, WeightSystem
from bpsing.linalg import DEFAULT_MODULUS, PARANOIA_MODULUS, SparseMatrix, rank_mod
from bpsing.mforacle import (
    GradedMF,
    MonomialMatrix,
    _assemble,
    _base_mf,
    _borrow_sub,
    _check_composites,
    _dim,
    _landing,
    _layout,
    _monomial_basis,
    _neg,
    _pair,
    _pair_degrees,
    _pieces,
    _position_map,
    _one_variable_factors,
    _rank,
    _recipe,
    hom_profile,
    kunneth_hom,
    kunneth_series,
    mf_of,
    oracle_hom,
    probe_objects,
    rank1_mf,
    stable_hom_dim_oracle,
    tensor_mf,
)
from bpsing import mforacle
from bpsing.stable import StableObject, U, cuboid_objects, hom_dim, hom_series, hom_table, knorrer_transport, rho_k, zero_object
from kunneth_ref import criterion_1_pairs, kunneth_count, one_variable_table, ref_kunneth_hom
from test_linalg import _dense_of, _ref_rank_mod

W2 = WeightSystem((2,))
W22 = WeightSystem((2, 2))
W34 = WeightSystem((3, 4))


def _dense(mat):
    # the grid of a MonomialMatrix, None where zero, read from its rows only
    grid = [[None] * mat.ncols for _ in mat.rows]
    for i, row in enumerate(mat.rows):
        for j, coeff, exps in row:
            grid[i][j] = (coeff, exps)
    return tuple(map(tuple, grid))


def _matrix(grid, ncols):
    # the MonomialMatrix of a grid with None where zero
    return MonomialMatrix(tuple(tuple((j, *e) for j, e in enumerate(row) if e is not None) for row in grid), ncols)


def test_rank1():
    f = rank1_mf(W2, 0, 1)
    assert _dense(f.d0) == (((1, (1,)),),)
    assert _dense(f.d1) == (((1, (1,)),),)
    assert f.odd == (W2.x(0),)
    with pytest.raises(ValueError):
        rank1_mf(W2, 0, 2)


def test_tensor_is_koszul_factorization():
    f = tensor_mf(rank1_mf(W22, 0, 1), rank1_mf(W22, 1, 1))
    # d0 = [[X1, X2], [-X2, X1]], d1 = [[X1, -X2], [X2, X1]]
    assert _dense(f.d0) == (((1, (1, 0)), (1, (0, 1))), ((-1, (0, 1)), (1, (1, 0))))
    assert _dense(f.d1) == (((1, (1, 0)), (-1, (0, 1))), ((1, (0, 1)), (1, (1, 0))))


def test_tensor_rank_and_validation():
    f = mf_of(rho_k(WeightSystem((2, 2, 2))))
    assert len(f.even) == len(f.odd) == 4
    with pytest.raises(ValueError):
        tensor_mf(rank1_mf(W22, 0, 1), rank1_mf(W22, 0, 1))


def test_invariant_guards_broken_factorization():
    f = rank1_mf(W2, 0, 1)
    with pytest.raises(ValueError):
        GradedMF(W2, f.even, f.odd, _matrix((((1, (0,)),),), 1), f.d1, f.variables)


def test_invariant_guards_matrix_shapes():
    f = rank1_mf(W2, 0, 1)
    with pytest.raises(ValueError, match="differential is not a 1x1 matrix"):
        GradedMF(W2, f.even, f.odd, _matrix((), 1), f.d1, f.variables)
    with pytest.raises(ValueError, match="differential is not a 1x1 matrix"):
        GradedMF(W2, f.even, f.odd, f.d0, _matrix(((None, None),), 2), f.variables)


def test_monomial_matrix_columns():
    mat = _matrix(((None, (1, (1, 0)), (-1, (0, 2))), (None, None, None), ((2, (0, 0)), None, (1, (1, 1)))), 3)
    assert mat.cols == (((2, 2, (0, 0)),), ((0, 1, (1, 0)),), ((0, -1, (0, 2)), (2, 1, (1, 1))))
    assert _matrix(_dense(mat), 3) == mat and hash(_matrix(_dense(mat), 3)) == hash(mat)
    for j in (3, -1):
        with pytest.raises(ValueError, match=f"entry in column {j} of a matrix with 3 columns"):
            MonomialMatrix((((j, 1, (0, 0)),),), 3)
    with pytest.raises(ValueError, match="a matrix with -1 columns"):
        MonomialMatrix((), -1)


def test_invariant_guards_wrong_degree_alone():
    # the odd generator moved by c: the composites are intact, and their
    # cached verdict does not spare the degree check
    f = rank1_mf(W2, 0, 1)
    with pytest.raises(ValueError, match="d0 entry is not homogeneous"):
        GradedMF(W2, f.even, (f.odd[0] + W2.c(),), f.d0, f.d1, f.variables)


def test_invariant_guards_wrong_composite_alone():
    # d0 negated: every entry keeps its degree
    f = tensor_mf(rank1_mf(W22, 0, 1), rank1_mf(W22, 1, 1))
    # no exception is cached, so the bad pair raises on every construction
    for _ in range(2):
        with pytest.raises(ValueError, match="composite of the factorization pair is not f times identity"):
            GradedMF(W22, f.even, f.odd, _neg(f.d0), f.d1, f.variables)
    # a twist passes on the same matrices and reuses the verdict
    hits = _check_composites.cache_info().hits
    f.twist(W22.element((1, 0)))
    assert _check_composites.cache_info().hits == hits + 1
    assert _check_composites.cache_info().maxsize is not None


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


def test_oracle_shift_must_be_an_integer():
    # 0.5 used to answer 0 where the middle term is empty, and to fail
    # deep inside elsewhere; 1.0 must not hit the cached answer of 1
    one, other = U(W34, (1, 1)), U(W34, (2, 3))
    for a, b in ((one, other), (one, one), (other, one)):
        oracle_hom(a, b, 1)
        for m in (0.5, 1.0, 2.0):
            with pytest.raises(TypeError):
                oracle_hom(a, b, m)
            with pytest.raises(TypeError):
                stable_hom_dim_oracle(mf_of(a), mf_of(b), m)
        assert oracle_hom(a, b, np.int64(2)) == oracle_hom(a, b, 2)


def test_rank1_mf_reads_its_variable_index():
    # i = -1 built a factorization of X_2^4 with variables {-1}, so the
    # disjointness test of tensor_mf passed it beside variable 1
    for i in (-1, 2):
        with pytest.raises(ValueError, match=f"variable index {i} outside 0..1"):
            rank1_mf(W34, i, 1)
    for bad in (True, 1.0):
        with pytest.raises(TypeError):
            rank1_mf(W34, bad, 1)
        with pytest.raises(TypeError):
            rank1_mf(W34, 0, bad)
    with pytest.raises(ValueError, match="exponent 3 outside 1..2"):
        rank1_mf(W34, 0, 3)
    assert rank1_mf(W34, np.int64(1), np.int64(2)) == rank1_mf(W34, 1, 2)
    with pytest.raises(ValueError, match="disjoint"):
        tensor_mf(rank1_mf(W34, 1, 1), rank1_mf(W34, 1, 2))
    # built directly, a factorization of X_2^4 took the variables {-1}
    f = rank1_mf(W34, 1, 1)
    for variables in ({-1}, {2}):
        with pytest.raises(ValueError, match="variable index"):
            GradedMF(W34, f.even, f.odd, f.d0, f.d1, frozenset(variables))
    with pytest.raises(TypeError):
        GradedMF(W34, f.even, f.odd, f.d0, f.d1, frozenset({1.0}))
    assert GradedMF(W34, f.even, f.odd, f.d0, f.d1, frozenset({np.int64(1)})) == f


def test_factorization_shift_must_be_an_integer():
    # shift(1.5) used to rotate once, as shift(1) does
    f = rank1_mf(W34, 0, 1)
    for m in (1.5, 1.0, True):
        with pytest.raises(TypeError, match="shift"):
            f.shift(m)
    assert f.shift(np.int64(3)) == f.shift(3)


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
    # criterion 1's complete (3,4) suite over both primes, each dense
    # answer also against the Kunneth count at the same prime
    checked = 0
    for a, b in criterion_1_pairs(W34):
        fa, fb = mf_of(a), mf_of(b)
        dense = stable_hom_dim_oracle(fa, fb, 0)
        assert dense == stable_hom_dim_oracle(fa, fb, 0, PARANOIA_MODULUS), (str(a), str(b))
        for q in (DEFAULT_MODULUS, PARANOIA_MODULUS):
            assert ref_kunneth_hom(a, b, 0, q) == kunneth_hom(a, b, 0, q) == dense, (str(a), str(b), q)
        checked += 1
    assert checked >= 6000


def test_zero_object_has_zero_profile():
    from bpsing.stable import zero_object

    f = mf_of(zero_object(W34))
    assert all(d == 0 for _, d in hom_profile(f))


def _term(f, g, k):
    # the layout of term k of the Hom complex, as the oracle builds it
    return _layout(f.weights, _pair_degrees(f, g, k, 0))


def _expanded(layout, ws):
    # the basis elements of a layout in order, as (slot, a, b, exps)
    out = []
    for (slot, a, b), (coeffs, level, offset, size) in layout.items():
        monomials = _monomial_basis(ws, coeffs, level)
        assert (offset, size) == (len(out), len(monomials))
        out += [(slot, a, b, exps) for exps in monomials]
    return out


def test_hom_complex_differentials_compose_to_zero():
    f = mf_of(U(W34, (2, 3), W34.x(0), 1))
    g = mf_of(rho_k(W34))
    for m in (-2, -1, 0, 1, 2):
        prev, mid, nxt = (_term(f, g, k) for k in (m - 1, m, m + 1))
        d1 = _dense_of(_assemble(_recipe(f, g, m - 1, prev, mid)))
        d2 = _dense_of(_assemble(_recipe(f, g, m, mid, nxt)))
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
    return _dense(f.d1 if k % 2 == 0 else f.d0)


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
    df0 = _dense(f.d1)
    df1 = _dense(f.d0)
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
    ws = f.weights
    layouts, bases = {}, {}
    for k in range(ks.start, ks.stop + 1):
        layouts[k] = _term(f, g, k)
        bases[k] = _ref_term_basis(f, g, k)
        assert _expanded(layouts[k], ws) == bases[k], (str(a), str(b), k)
        # term k + 1 pairs the generators of term k - 1, one level up
        assert _layout(ws, _pair_degrees(f, g, k - 1, -1), 1) == _term(f, g, k + 1), (str(a), str(b), k)
    shapes = {}
    for k in ks:
        got = _dense_of(_assemble(_recipe(f, g, k, layouts[k], layouts[k + 1])))
        want = _ref_differential(f, g, k, bases[k], bases[k + 1], q)
        # the oracle leaves the reduction mod q to rank_mod
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got % q, want), (str(a), str(b), k)
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


# the ranks of the deep pairs below, the same at both primes, as the
# column loop found them before the sparse rounds
DEEP_RANKS = {(3, 4, 5): [577, 647], (2, 2, 2, 2): [545, 799]}


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
    layouts = [_term(f, g, k) for k in (-1, 0, 1)]
    bases = [_ref_term_basis(f, g, k) for k in (-1, 0, 1)]
    assert [_expanded(layout, ws) for layout in layouts] == bases
    sparse = [_assemble(_recipe(f, g, k, layouts[k + 1], layouts[k + 2])) for k in (-1, 0)]
    diffs = [_dense_of(d) for d in sparse]
    assert [d.shape for d in sparse] == [d.shape for d in diffs] == shapes
    for k, d in zip((-1, 0), diffs):
        assert d.dtype == np.int64 and np.array_equal(d % 32003, _ref_differential(f, g, k, bases[k + 1], bases[k + 2], 32003))
    for q in (32003, PARANOIA_MODULUS):
        assert [rank_mod(d, q) for d in diffs] == [_ref_rank_mod(d, q) for d in diffs] == DEEP_RANKS[p]
        assert [rank_mod(d, q) for d in sparse] == DEEP_RANKS[p]
    assert oracle_hom(a, b) == hom_dim(a, b)


def _deep_pairs(p, levels, per_level):
    # the schedule of the audit-deep benchmark: pair j twists the first
    # argument by x_(j-1) (none for j = 0) and shifts it by j mod 2
    ws = WeightSystem(p)
    cub = cuboid_objects(ws)
    for level, j in itertools.product(levels, range(per_level)):
        coeffs = [int(i == j - 1) for i in range(ws.n)]
        yield StableObject(ws, cub[j % len(cub)].ell, ws.element(coeffs, level), j % 2), cub[-1 - j % len(cub)]


# the depths of the audit-deep benchmark, a few levels of each stratum
DEEP_SWEEPS = [((3, 4), (-10, -20, -30), 4), ((2, 3, 4, 5), (-2, -3), 5)]


@pytest.mark.parametrize("p, levels, per_level", DEEP_SWEEPS)
def test_hom_complex_matches_reference_at_deep_levels(p, levels, per_level):
    # the two differentials around the middle term, as oracle_hom(a, b) ranks them
    for a, b in _deep_pairs(p, levels, per_level):
        _assert_matches_reference(a, b, ks=range(-1, 1))


# -- the grouped assembly against the piecewise one ---------------------------
#
# The assembly once looked up one position map per piece, and its
# landing table was keyed on the source level too.  The copies below are
# that code: recipes must come out equal, tuple for tuple, and each
# matrix must hold the same sum at every key.


@lru_cache(maxsize=2**12)
def _ref_landing(p, coeffs, level, exps):
    carry = tuple((x + y) // w for x, y, w in zip(coeffs, exps, p))
    landed = tuple((x + y) % w for x, y, w in zip(coeffs, exps, p))
    return landed, level + sum(carry), carry


def _ref_recipe(f, g, k, cols, rows):
    p = f.weights.p
    pieces = _pieces(f.d0, f.d1, g.d0, g.d1, k % 2)
    ncols = _dim(cols)
    out = []
    for key, (coeffs, level, offset, _) in cols.items():
        entries = iter(pieces[key])
        for target, coeff, e in zip(entries, entries, entries):
            landed, landed_level, carry = _ref_landing(p, coeffs, level, e)
            block = rows.get(target)
            if block is None or block[1] != landed_level or block[0] != landed:
                raise ValueError(f"an entry maps pair {key} into pair {target}, whose block has another degree")
            out += (block[2] * ncols + offset, level, carry, coeff)
    return len(p), _dim(rows), ncols, tuple(out)


def _ref_assemble(recipe):
    n, nrows, ncols, pieces = recipe
    at, values = (), ()
    if pieces:
        stay = (0,) * n
        levels = pieces[1::4]
        maps = [_position_map(n, level, carry) for level, carry in zip(levels, pieces[2::4])]
        spans = [_position_map(n, level, stay) for level in levels]
        sizes = np.array([len(pos) for pos in maps], dtype=np.intp)
        at = np.repeat(np.array(pieces[::4], dtype=np.intp), sizes) + ncols * np.concatenate(maps) + np.concatenate(spans)
        values = np.repeat(np.array(pieces[3::4], dtype=np.int64), sizes)
    return SparseMatrix((nrows, ncols), at, values)


def _summed_entries(mat):
    # the shape and the sum at every key, zero sums kept
    keys, where = np.unique(mat.keys, return_inverse=True)
    sums = np.zeros(keys.size, dtype=np.int64)
    np.add.at(sums, where, mat.values)
    return mat.shape, mat.values.dtype, keys.tolist(), sums.tolist()


def _assert_assembles_as_reference(a, b, ks):
    f, g = mf_of(a), mf_of(b)
    layouts = {k: _term(f, g, k) for k in range(ks.start, ks.stop + 1)}
    for k in ks:
        recipe = _recipe(f, g, k, layouts[k], layouts[k + 1])
        assert recipe == _ref_recipe(f, g, k, layouts[k], layouts[k + 1]), (str(a), str(b), k)
        assert _summed_entries(_assemble(recipe)) == _summed_entries(_ref_assemble(recipe)), (str(a), str(b), k)


def test_grouped_assembly_matches_piecewise_on_probe_pairs():
    ws = WeightSystem((2, 3, 4))
    for a in probe_objects(ws):
        for b in cuboid_objects(ws):
            _assert_assembles_as_reference(a, b, range(-2, 3))


@pytest.mark.parametrize("p, levels, per_level", DEEP_SWEEPS)
def test_grouped_assembly_matches_piecewise_at_deep_levels(p, levels, per_level):
    for a, b in _deep_pairs(p, levels, per_level):
        _assert_assembles_as_reference(a, b, range(-1, 1))


def test_grouped_assembly_sees_a_changed_carry():
    n, nrows, ncols, pieces = recipe = _small_recipe()
    # the first piece that carries; the zero carry keeps every index
    # inside the target block
    j = next(j for j in range(0, len(pieces), 4) if any(pieces[j + 2]))
    other = (n, nrows, ncols, pieces[: j + 2] + ((0,) * n,) + pieces[j + 3 :])
    assert _summed_entries(_assemble(other)) == _summed_entries(_ref_assemble(other))
    assert _summed_entries(_assemble(other)) != _summed_entries(_assemble(recipe))


def test_landing_is_level_free_on_a_deep_sweep():
    # every level of the (3,4) stratum of audit-deep meets the landings
    # of the first one, while the level-keyed table misses again
    _landing.cache_clear()
    _ref_landing.cache_clear()
    misses = []
    for level in range(-10, -31, -1):
        for a, b in _deep_pairs((3, 4), (level,), 4):
            f, g = mf_of(a), mf_of(b)
            layouts = [_term(f, g, k) for k in (-1, 0, 1)]
            for k in (-1, 0):
                assert _recipe(f, g, k, layouts[k + 1], layouts[k + 2]) == _ref_recipe(f, g, k, layouts[k + 1], layouts[k + 2])
        misses.append((_landing.cache_info().misses, _ref_landing.cache_info().misses))
    assert [ours for ours, _ in misses] == [misses[0][0]] * 21
    assert misses[-1][1] > misses[0][1]


def test_position_map_is_a_composition_lookup():
    # every carry a rank-one entry X_i^e with e < p_i can produce: none,
    # or one past the weight in a single coordinate
    for n in range(1, 5):
        carries = [(0,) * n] + [tuple(int(i == j) for i in range(n)) for j in range(n)]
        for level, carry in itertools.product(range(11), carries):
            index = {comp: i for i, comp in enumerate(_ref_weak_compositions(level + sum(carry), n))}
            want = [index[tuple(c + d for c, d in zip(comp, carry))] for comp in _ref_weak_compositions(level, n)]
            got = _position_map(n, level, carry)
            assert got.tolist() == want, (n, level, carry)
            assert not got.flags.writeable
    assert _position_map.cache_info().maxsize is not None


def test_wrong_degree_block_raises_without_asserts():
    # every target block one level too high: the check must survive
    # python -O, which strips assert statements
    code = """
from bpsing.grading import WeightSystem
from bpsing.mforacle import _assemble, _layout, _pair_degrees, _recipe, mf_of
from bpsing.stable import U, rho_k
from test_linalg import _dense_of
ws = WeightSystem((3, 4))
f, g = mf_of(U(ws, (2, 3), ws.x(0), 1)), mf_of(rho_k(ws))
cols, rows = (_layout(ws, _pair_degrees(f, g, k, 0)) for k in (1, 2))
nonzero = _dense_of(_assemble(_recipe(f, g, 1, cols, rows))).any()
rows = {key: (coeffs, level + 1, offset, size) for key, (coeffs, level, offset, size) in rows.items()}
try:
    _assemble(_recipe(f, g, 1, cols, rows))
except ValueError as exc:
    print(nonzero, "ValueError:", exc)
"""
    tests = Path(__file__).resolve().parent
    path = f"{tests.parent / 'src'}{os.pathsep}{tests}"
    out = subprocess.run([sys.executable, "-O", "-c", code], env={"PYTHONPATH": path}, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("True ValueError: an entry maps pair"), out.stdout


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
    fd0, fd1, gd0, gd1 = (_dense(m) for m in (f.d0, f.d1, g.d0, g.d1))

    def scaled(entry, sign):
        return None if entry is None else (sign * entry[0], entry[1])

    d0 = [[None] * len(odd) for _ in range(len(even))]
    d1 = [[None] * len(even) for _ in range(len(odd))]
    for af in range(ne1):
        for bg in range(me0):
            col = af * me0 + bg
            for rf in range(ne0):
                d0[rf * me0 + bg][col] = fd0[rf][af]
            for rg in range(me1):
                d0[ne0 * me0 + af * me1 + rg][col] = scaled(gd1[rg][bg], -1)
    for af in range(ne0):
        for bg in range(me1):
            col = ne1 * me0 + af * me1 + bg
            for rg in range(me0):
                d0[af * me0 + rg][col] = gd0[rg][bg]
            for rf in range(ne1):
                d0[ne0 * me0 + rf * me1 + bg][col] = fd1[rf][af]
    for af in range(ne0):
        for bg in range(me0):
            col = af * me0 + bg
            for rf in range(ne1):
                d1[rf * me0 + bg][col] = fd1[rf][af]
            for rg in range(me1):
                d1[ne1 * me0 + af * me1 + rg][col] = gd1[rg][bg]
    for af in range(ne1):
        for bg in range(me1):
            col = ne0 * me0 + af * me1 + bg
            for rg in range(me0):
                d1[af * me0 + rg][col] = scaled(gd0[rg][bg], -1)
            for rf in range(ne0):
                d1[ne1 * me0 + rf * me1 + bg][col] = fd0[rf][af]
    return GradedMF(ws, even, odd, _matrix(d0, len(odd)), _matrix(d1, len(even)), f.variables | g.variables)


def test_tensor_mf_matches_block_loops():
    def fields(f):
        return f.even, f.odd, _dense(f.d0), _dense(f.d1), f.variables

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
        # the column views a twist shares are the transposes of the rows
        for mat in (got.d0, got.d1):
            grid = _dense(mat)
            assert mat.cols == tuple(tuple((i, *row[j]) for i, row in enumerate(grid) if row[j] is not None) for j in range(mat.ncols))


def test_twists_share_the_base_tables():
    # cold caches: an object cached earlier may hold an evicted base
    mf_of.cache_clear()
    _base_mf.cache_clear()
    ws = WeightSystem((2, 3, 4))
    base = _base_mf(ws, (1, 2, 3), False)
    for shift in (0, 2, -4):
        f = mf_of(StableObject(ws, (1, 2, 3), ws.element((1, 0, 1), 1), shift))
        assert f.d0 is base.d0 and f.d1 is base.d1
    assert mf_of(StableObject(ws, (1, 2, 3), ws.zero(), 0)) is base
    assert _base_mf.cache_info().maxsize is not None
    # so do the pieces of their Hom complexes: one entry per parity
    _pieces.cache_clear()
    g = mf_of(U(ws, (1, 1, 1)))
    for level in (-1, -2, -3):
        stable_hom_dim_oracle(mf_of(StableObject(ws, (1, 2, 3), ws.element((1, 0, 1), level), 0)), g, 0)
    info = _pieces.cache_info()
    assert (info.currsize, info.hits) == (2, 4)
    assert all(cache.cache_info().maxsize is not None for cache in (_pieces, _landing, _pair, _rank))


def _small_recipe():
    # the 12x8 differential out of term 1 of End(U[1,1]) over (3,4),
    # half of whose 32 pieces carry
    f = g = mf_of(U(W34, (1, 1)))
    cols, rows = (_term(f, g, k) for k in (1, 2))
    recipe = _recipe(f, g, 1, cols, rows)
    assert recipe[:3] == (2, 12, 8) and len(recipe[3]) == 4 * 32
    return recipe


def test_rank_cache_keys_on_recipe_and_modulus():
    recipe = _small_recipe()
    _rank.cache_clear()
    got = [_rank(recipe, q) for q in (DEFAULT_MODULUS, PARANOIA_MODULUS, DEFAULT_MODULUS)]
    info = _rank.cache_info()
    # one matrix at two primes is two misses; the repeat is a hit
    assert (info.misses, info.hits) == (2, 1)
    assert got == [rank_mod(_assemble(recipe), q) for q in (DEFAULT_MODULUS, PARANOIA_MODULUS, DEFAULT_MODULUS)]
    assert got[0] > 0


def test_rank_cache_misses_on_a_changed_piece():
    n, nrows, ncols, pieces = recipe = _small_recipe()
    # the first piece that carries; pieces are flat quadruples
    j = next(j for j in range(0, len(pieces), 4) if any(pieces[j + 2]))
    start, level, carry, coeff = pieces[j : j + 4]
    # the zero carry keeps every index inside the target block
    changed = [(start, level, carry, coeff + 1), (start, level, (0,) * n, coeff)]
    _rank.cache_clear()
    _rank(recipe, DEFAULT_MODULUS)
    for piece in changed:
        other = (n, nrows, ncols, pieces[:j] + piece + pieces[j + 4 :])
        assert not np.array_equal(_dense_of(_assemble(other)), _dense_of(_assemble(recipe)))
        assert _rank(other, DEFAULT_MODULUS) == rank_mod(_assemble(other), DEFAULT_MODULUS)
    info = _rank.cache_info()
    assert (info.misses, info.hits) == (3, 0)


def test_rank_cache_sweep_matches_reference():
    ws = W34
    _rank.cache_clear()
    compared = 0
    for a in probe_objects(ws):
        for b in cuboid_objects(ws):
            f, g = mf_of(a), mf_of(b)
            for m in range(-2, 3):
                assert stable_hom_dim_oracle(f, g, m) == _ref_stable_hom_dim_oracle(f, g, m), (str(a), str(b), m)
                compared += 1
    assert compared == 720
    # 660 ranked pairs of differentials among 43 distinct ones
    info = _rank.cache_info()
    assert info.hits > info.misses > 0


def test_oracle_reaches_level_minus_24_in_bounded_memory():
    # U[1,1,1] twisted down to level -24 against U[1,1,1] over (3,4,5):
    # two differentials of about 10^8 cells each, which as dense int64
    # matrices would take at least 800 MB
    ws = WeightSystem((3, 4, 5))
    a, b = StableObject(ws, (1, 1, 1), ws.element((0, 0, 0), -24), 0), U(ws, (1, 1, 1))
    f, g = mf_of(a), mf_of(b)
    qs = (DEFAULT_MODULUS, PARANOIA_MODULUS)
    _rank.cache_clear()
    tracemalloc.start()
    try:
        dims = [stable_hom_dim_oracle(f, g, 0, q) for q in qs]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dims == [hom_dim(a, b)] * 2 == [0, 0]
    assert peak < 64 * 2**20, peak
    # the ranks the oracle subtracted, of the outgoing and the incoming differential
    layouts = [_term(f, g, k) for k in (-1, 0, 1)]
    recipes = [_recipe(f, g, k, layouts[k + 1], layouts[k + 2]) for k in (0, -1)]
    assert [[rank_mod(_assemble(recipe), q) for recipe in recipes] for q in qs] == [[4999, 4801]] * 2
    assert [_rank(recipe, q) for q in qs for recipe in recipes] == [4999, 4801] * 2
    assert sum(recipe[1] * recipe[2] for recipe in recipes) * 8 > 800 * 2**20


def _ref_stable_hom_dim_oracle(f, g, m, q=32003):
    basis_prev = _ref_term_basis(f, g, m - 1)
    basis_mid = _ref_term_basis(f, g, m)
    basis_next = _ref_term_basis(f, g, m + 1)
    d_prev = _ref_differential(f, g, m - 1, basis_prev, basis_mid, q)
    d_mid = _ref_differential(f, g, m, basis_mid, basis_next, q)
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
                empty += not _ref_term_basis(f, g, m)
    assert empty  # the exit is taken


def test_zero_object_checks_the_modulus_and_weights():
    zero = zero_object(W34)
    assert oracle_hom(zero, rho_k(W34), 0) == oracle_hom(rho_k(W34), zero, 1) == oracle_hom(zero, zero) == 0
    for a, b in ((zero, rho_k(W34)), (rho_k(W34), zero), (zero, zero)):
        with pytest.raises(ValueError, match="not prime"):
            oracle_hom(a, b, 0, 4)
    with pytest.raises(ValueError, match="mismatched weight systems"):
        oracle_hom(zero, rho_k(WeightSystem((3, 5))))


def test_one_variable_hom_tables():
    # T(tau, m) = dim Hom(U^a, U^b(tau x)[m]) over one variable: 0 or 1,
    # field independent, and supported exactly on -(p-1) <= tau <= p-2
    for p in range(2, 8):
        ws = WeightSystem((p,))
        support = set()
        for a, b, m in itertools.product(range(1, p), range(1, p), (0, 1)):
            for tau in range(-3 * p, 3 * p + 1):
                args = (U(ws, (a,)), U(ws, (b,), ws.element((tau,))), m)
                dim = oracle_hom(*args)
                assert dim in (0, 1) and dim == oracle_hom(*args, PARANOIA_MODULUS), (p, a, b, m, tau)
                if dim:
                    support.add(tau)
        assert min(support) == -(p - 1) and max(support) == p - 2, p


def test_empty_middle_still_checks_the_modulus():
    ws = WeightSystem((2, 3, 4))
    a, b = next((a, b) for a in probe_objects(ws) for b in cuboid_objects(ws) if not _ref_term_basis(mf_of(a), mf_of(b), 0))
    assert oracle_hom(a, b, 0) == 0
    with pytest.raises(ValueError, match="not prime"):
        oracle_hom(a, b, 0, q=32004)
    with pytest.raises(ValueError, match="not below 2"):
        stable_hom_dim_oracle(mf_of(a), mf_of(b), 0, 2**31 + 11)


# -- the Kunneth count against the dense oracle ------------------------------


def _probe_pairs(ws):
    # probe x cuboid pairs, the cuboid object at shifts -2..2
    for a in probe_objects(ws):
        for b in cuboid_objects(ws):
            for k in range(-2, 3):
                yield a, StableObject(ws, b.ell, b.twist, k)


def test_kunneth_count_matches_oracle_on_probe_pairs():
    compared = 0
    for p in ((2, 2), (3, 4), (3, 5), (2, 3, 4)):
        for a, b in _probe_pairs(WeightSystem(p)):
            for m in (0, 1):
                assert ref_kunneth_hom(a, b, m) == kunneth_hom(a, b, m) == oracle_hom(a, b, m), (str(a), str(b), m)
                compared += 1
    assert compared == 6920


@pytest.mark.parametrize("p, count", [((3, 4, 5), 200), ((2, 2, 2, 2), 10)])
def test_kunneth_count_matches_oracle_on_random_pairs(p, count):
    # twist levels and shifts in -2..2, at both primes
    ws = WeightSystem(p)
    rng = random.Random(sum(p))

    def obj():
        tw = ws.element([rng.randrange(w) for w in ws.p], rng.randrange(-2, 3))
        return StableObject(ws, tuple(rng.randrange(1, w) for w in ws.p), tw, rng.randrange(-2, 3))

    for _ in range(count):
        a, b, m = obj(), obj(), rng.randrange(2)
        for q in (DEFAULT_MODULUS, PARANOIA_MODULUS):
            assert ref_kunneth_hom(a, b, m, q) == oracle_hom(a, b, m, q), (str(a), str(b), m, q)


def test_kunneth_count_matches_oracle_on_small_criterion_1_types_at_second_prime():
    # criterion 1 compares at 32003; its fifth type, (3,4), meets 65537
    # in test_field_independence_full_34_suite
    compared = 0
    for p in ((2, 2), (2, 3), (3, 3), (2, 2, 2)):
        for a, b in criterion_1_pairs(WeightSystem(p)):
            dense = stable_hom_dim_oracle(mf_of(a), mf_of(b), 0, PARANOIA_MODULUS)
            assert ref_kunneth_hom(a, b, 0, PARANOIA_MODULUS) == kunneth_hom(a, b, 0, PARANOIA_MODULUS) == dense, (str(a), str(b))
            compared += 1
    assert compared == 8352


def test_kunneth_count_catches_a_wrong_c_convention():
    # adding floor(sum m_i / 2) c on the left must disagree with the oracle
    wrong = [(a, b, m) for a, b in _probe_pairs(W34) for m in (0, 1) if kunneth_count(a, b, m, DEFAULT_MODULUS, lambda mu: mu // 2) != oracle_hom(a, b, m)]
    assert wrong


def test_calculus_matches_kunneth_count_on_345():
    # the first audit of the calculus beyond (3,4): every pair, the 340 the
    # retired search left unknown included
    decided = 0
    for a, b in _probe_pairs(WeightSystem((3, 4, 5))):
        h = hom_dim(a, b)
        if h is not None:
            assert h == ref_kunneth_hom(a, b), (str(a), str(b))
            decided += 1
    assert decided == 23040


@pytest.mark.parametrize("p", [(4, 5), (3, 4, 5)])
def test_calculus_matches_dense_oracle_on_probe_pairs(p):
    # every probe x cuboid pair at shifts -2..2: the 50 and 340 pairs that
    # the retired search left unknown, and every other
    for a, b in _probe_pairs(WeightSystem(p)):
        assert hom_dim(a, b) == oracle_hom(a, b), (str(a), str(b))


@pytest.mark.parametrize("p", [(4, 5), (3, 4, 5), (2, 2, 2, 2), (2, 3, 4, 5)])
def test_hom_series_is_the_kunneth_series_on_probes(p):
    # every shift of every probe x cuboid pair at once
    ws = WeightSystem(p)
    for a in probe_objects(ws):
        for b in cuboid_objects(ws):
            assert hom_series(a, b) == kunneth_series(a, b), (str(a), str(b))


def test_hom_table_is_the_kunneth_series_on_567_probes():
    # all 115,200 probe x cuboid pairs of (5,6,7), every shift at once: the
    # calculus audited at a type where the dense oracle does not reach
    from test_stable import _table_mismatches

    ws = WeightSystem((5, 6, 7))
    probes, cub = probe_objects(ws), cuboid_objects(ws)
    table = hom_table(probes, cub)
    assert table[0].shape == (960, 120) and 0 < table[1].sum() < table[1].size
    bad = _table_mismatches(probes, cub, table, kunneth_series)
    assert not bad, bad[:3]


# -- the package's Kunneth count against its definition ----------------------


def test_kunneth_factors_are_the_dense_tables():
    # every factor is the residue class of the test's dense table, at both
    # primes, for every p <= 9
    for p in range(2, 10):
        for a, b, q in itertools.product(range(1, p), range(1, p), (DEFAULT_MODULUS, PARANOIA_MODULUS)):
            factors = _one_variable_factors(p, a, b, q)
            assert len(factors) == p
            for r, factor in enumerate(factors):
                dense = {}
                for tau, m, dim in one_variable_table(p, a, b, q):
                    if tau % p == r:
                        dense[2 * (tau // p) + m] = dense.get(2 * (tau // p) + m, 0) + dim
                assert factor == tuple(sorted(dense.items())), (p, a, b, r, q)


def test_kunneth_series_is_the_kunneth_count():
    # the series at every shift of a window wider than its support, against
    # kunneth_count, the defining rule, on random pairs of deep levels
    rng = random.Random(20261026)
    nonzero = 0
    for p in ((3, 4), (2, 3, 4), (3, 4, 5), (5, 6, 7), (2, 9), (3, 3, 5, 7)):
        ws = WeightSystem(p)

        def obj():
            tw = ws.element([rng.randrange(w) for w in ws.p], rng.randrange(-6, 7))
            return StableObject(ws, tuple(rng.randrange(1, w) for w in ws.p), tw, rng.randrange(-6, 7))

        for _ in range(25):
            a, b = obj(), obj()
            series = kunneth_series(a, b)
            nonzero += bool(series)
            # |2 ell(z)| <= 2 (12 + n), |k' - k| <= 12 and sum(e_i) >= -n
            assert all(-60 < m < 60 for m in series)
            assert {m: d for m in range(-60, 61) if (d := ref_kunneth_hom(a, b, m))} == series, (str(a), str(b))
    assert nonzero > 10


def test_kunneth_series_arguments():
    a, b = rho_k(W34), U(W34, (2, 3))
    assert kunneth_series(a, zero_object(W34)) == kunneth_series(zero_object(W34), b) == {}
    assert kunneth_hom(a, a) == kunneth_hom(a, a.suspend(3), -3) == 1
    with pytest.raises(ValueError, match="mismatched weight systems"):
        kunneth_series(a, rho_k(W22))
    with pytest.raises(ValueError, match="not prime"):
        kunneth_series(a, b, 32004)
    for m in (True, 1.0):
        with pytest.raises(TypeError, match="shift"):
            kunneth_hom(a, b, m)


def test_kunneth_table_raises_on_the_edge_of_its_window(monkeypatch):
    # an entry at tau = 3p means the support could reach past the scan
    build = _one_variable_factors.__wrapped__
    assert build(3, 1, 2, DEFAULT_MODULUS) == _one_variable_factors(3, 1, 2, DEFAULT_MODULUS)
    for edge in (-9, 9):
        monkeypatch.setattr(mforacle, "oracle_hom", lambda a, b, m, q, edge=edge: int(b.twist == b.weights.element((edge,))))
        with pytest.raises(RuntimeError, match="edge of the window"):
            build(3, 1, 2, DEFAULT_MODULUS)
