"""Graded modules: constructors, Hom solver, degreewise functors."""

import itertools
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpsing.functor import _ADJUNCTION_PAIRS, Ladder, _adjunction_modules, _some_ells
from bpsing.gmod import (
    GradedModule,
    _module,
    adjunction_check,
    make_E,
    make_simple,
    module_hom_dim,
    phi0_module,
    psi0_module,
)
from bpsing.grading import GroupEmbedding, WeightSystem, normalize
from bpsing.linalg import DEFAULT_MODULUS, rank_mod

W34 = WeightSystem((3, 4))
EMB1 = GroupEmbedding(W34, 1, (3, 2))
EMB2 = GroupEmbedding(W34, 2, (3, 2))


def test_simple_module():
    k = make_simple(W34)
    assert k.total_dim == 1
    assert k.dim_at(W34.zero()) == 1
    ky = make_simple(W34, W34.x(0))
    assert ky.dim_at(-W34.x(0)) == 1


def test_make_E_shapes():
    assert make_E(W34, (1, 1)).total_dim == 1
    assert make_E(W34, (2, 3)).total_dim == 6
    with pytest.raises(ValueError):
        make_E(W34, (3, 3))
    with pytest.raises(ValueError, match=r"ell \(1, 2, 1\) has length 3, weights \(3,4\) have length 2"):
        make_E(W34, (1, 2, 1))
    with pytest.raises(TypeError):
        make_E(W34, (1.0, 2))


def test_negative_dimension_rejected():
    with pytest.raises(ValueError, match="negative dimension"):
        GradedModule(W34, {W34.zero(): -1}, {})
    assert GradedModule(W34, {W34.zero(): 0}, {}).total_dim == 0


def test_non_integer_dimension_rejected():
    # 1.5 used to be truncated to a module of dimension 1
    for d in (1.5, 0.5, 1.0, 0.0):
        with pytest.raises(TypeError):
            GradedModule(W34, {W34.zero(): d}, {})
    assert GradedModule(W34, {W34.zero(): np.int64(2)}, {}).total_dim == 2


def test_make_E_nilpotency():
    e = make_E(W34, (2, 3))
    for x in e.dims:
        assert not e.power_act(0, x, 2).any()
        assert not e.power_act(1, x, 3).any()


def test_construction_rejects_bad_actions():
    # a one-step X_1 action that violates X_1^2 = 0 for weights (2, 2)
    ws = WeightSystem((2, 2))
    dims = {ws.zero(): 1, ws.x(0): 1, ws.element((0, 0), 1): 1}
    actions = {
        (0, ws.zero()): np.array([[1]]),
        (0, ws.x(0)): np.array([[1]]),
    }
    with pytest.raises(ValueError):
        GradedModule(ws, dims, actions)


def test_construction_rejects_non_commuting_actions():
    # X_2 X_1 is the identity from degree 0 to x_1 + x_2, but X_1 X_2 is
    # zero there, because X_1 has no action at x_2
    ws = WeightSystem((3, 3))
    one = np.array([[1]])
    x1, x2 = ws.x(0), ws.x(1)
    dims = {ws.zero(): 1, x1: 1, x2: 1, x1 + x2: 1}
    actions = {(0, ws.zero()): one, (1, x1): one, (1, ws.zero()): one}
    with pytest.raises(ValueError, match="do not commute"):
        GradedModule(ws, dims, actions)
    # with X_1 at x_2 the square commutes
    GradedModule(ws, dims, {**actions, (0, x2): one})


def test_construction_rejects_action_outside_support():
    ws = WeightSystem((3,))
    with pytest.raises(ValueError, match="shape"):
        GradedModule(ws, {ws.zero(): 1}, {(0, ws.x(0)): np.array([[1]])})


def test_construction_rejects_misshapen_action():
    # X_1 from the one fiber to an empty one cannot be a 2x1 matrix
    ws = WeightSystem((3,))
    with pytest.raises(ValueError, match="shape"):
        GradedModule(ws, {ws.zero(): 1}, {(0, ws.zero()): np.array([[1], [1]])})


def test_construction_rejects_variable_index_out_of_range():
    # X_2 from degree 0 to x_2: as key (-1, 0) the shape check passed
    # through x(-1) = x_2, and the action was stored where nothing reads it
    dims = {W34.zero(): 1, W34.x(1): 1}
    one = np.array([[1]])
    m = GradedModule(W34, dims, {(np.int64(1), W34.zero()): one})
    assert module_hom_dim(m, m) == 1
    for i in (-1, 2):
        with pytest.raises(ValueError, match="variable index"):
            GradedModule(W34, dims, {(i, W34.zero()): one})


def test_action_rejects_variable_index_out_of_range():
    # x(-1) used to read x_2, so X_{-1} was the zero matrix of X_2's shape
    e = make_E(W34, (2, 2))
    assert e.act(1, W34.zero()).tolist() == [[1]]
    for i in (-1, 2):
        with pytest.raises(ValueError, match="variable index"):
            e.act(i, W34.zero())
        with pytest.raises(ValueError, match="variable index"):
            e.power_act(i, W34.zero(), 1)


def test_power_act_reads_index_and_exponent():
    # an empty walk read neither: X_{-1}^0, X_8^0 and X_1^(-1) were all
    # the identity [[1]]
    e = make_E(W34, (2, 2))
    assert e.power_act(0, W34.zero(), 0).tolist() == [[1]]
    for i in (-1, 7):
        with pytest.raises(ValueError, match=f"variable index {i} outside 0..1"):
            e.power_act(i, W34.zero(), 0)
    with pytest.raises(ValueError, match="negative exponent -1"):
        e.power_act(0, W34.zero(), -1)
    for bad in (True, 1.0):
        with pytest.raises(TypeError):
            e.power_act(bad, W34.zero(), 1)
        with pytest.raises(TypeError):
            e.power_act(0, W34.zero(), bad)
        with pytest.raises(TypeError):
            e.act(bad, W34.zero())
    assert e.power_act(np.int64(0), W34.zero(), np.int64(1)).tolist() == e.power_act(0, W34.zero(), 1).tolist() == [[1]]


def test_power_act_is_iterated_action():
    e = make_E(W34, (2, 3), W34.x(0))
    for x in e.dims:
        for i in range(W34.n):
            out = np.eye(e.dim_at(x), dtype=np.int64)
            cur = x
            for step in range(4):
                assert np.array_equal(e.power_act(i, x, step), out)
                out = (e.act(i, cur) @ out) % DEFAULT_MODULUS
                cur = cur + W34.x(i)


def test_twist_composition():
    e = make_E(W34, (2, 2))
    a, b = W34.x(0), W34.delta()
    assert e.twist(a).twist(b).dims == e.twist(a + b).dims
    assert e.twist(W34.zero()).dims == e.dims


def test_module_hom_examples():
    k = make_simple(W34)
    assert module_hom_dim(k, k) == 1
    assert module_hom_dim(k, k.twist(W34.x(0))) == 0
    assert module_hom_dim(make_E(W34, (2, 1)), make_E(W34, (1, 1))) == 1


def test_hom_respects_structure_not_just_support():
    # E^{2,1} and k + k(-x_1) have equal fibers but different actions
    e = make_E(W34, (2, 1))
    split = make_simple(W34).direct_sum(make_simple(W34, -W34.x(0)))
    assert e.dims == split.dims
    assert module_hom_dim(e, e) == 1
    assert module_hom_dim(split, split) == 2


def test_phi0_examples():
    assert phi0_module(EMB2, make_E(W34, (2, 3))).total_dim == 2
    assert phi0_module(EMB2, make_E(W34, (1, 1))).total_dim == 0


def test_phi0_predicts_E_module():
    # reduction of the full cuboid module is the reduced cuboid module
    img = phi0_module(EMB2, make_E(W34, (2, 3)))
    pred = make_E(EMB2.source, (2, 1))
    assert img.dims == pred.dims
    for (i, x), m in pred.actions.items():
        assert np.array_equal(img.act(i, x) % DEFAULT_MODULUS, m % DEFAULT_MODULUS)


def test_phi0_additive():
    a = make_E(W34, (2, 3))
    b = make_E(W34, (1, 2), W34.x(1))
    lhs = phi0_module(EMB2, a.direct_sum(b)).total_dim
    rhs = phi0_module(EMB2, a).total_dim + phi0_module(EMB2, b).total_dim
    assert lhs == rhs


def test_psi0_examples():
    pk = psi0_module(EMB2, make_simple(EMB2.source))
    assert pk.total_dim == 3
    assert pk.dims == make_E(W34, (1, 3)).dims
    assert psi0_module(EMB2, make_simple(EMB2.source, EMB2.source.x(1))).total_dim == 1


def test_psi0_fully_faithful_on_homs():
    src = EMB2.source
    pairs = [
        (make_simple(src), make_simple(src)),
        (make_E(src, (2, 1)), make_E(src, (1, 1))),
        (make_E(src, (2, 1)), make_E(src, (2, 1), src.x(0))),
    ]
    for a, b in pairs:
        assert module_hom_dim(a, b) == module_hom_dim(psi0_module(EMB2, a), psi0_module(EMB2, b))


def test_exactness_proxy_on_short_exact_sequence():
    # 0 -> E^{s+(m-1)x_2}(y - x_2) -> E^{s+m x_2}(y) -> k(y) -> 0 degreewise
    y = W34.x(1)
    big = make_E(W34, (1, 3), y)
    sub = make_E(W34, (1, 2), y - W34.x(1))
    quot = make_simple(W34, y)
    for emb in (EMB1, EMB2):
        fb = phi0_module(emb, big)
        fs = phi0_module(emb, sub)
        fq = phi0_module(emb, quot)
        for x in set(fb.dims) | set(fs.dims) | set(fq.dims):
            assert fb.dim_at(x) == fs.dim_at(x) + fq.dim_at(x)


@pytest.mark.parametrize("emb", [EMB1, EMB2])
def test_adjunction_examples(emb):
    assert adjunction_check(emb, [make_E(W34, (2, 3))], [make_simple(emb.source)]) == [True]
    assert adjunction_check(emb, [make_E(W34, (1, 2))], [make_E(emb.source, (1, 1))]) == [True]
    zero = GradedModule(W34, {}, {})
    assert adjunction_check(emb, [zero], [make_simple(emb.source)]) == [True]


def test_adjunction_check_reads_pairs_in_product_order():
    full = [make_E(W34, (2, 3)), make_E(W34, (1, 2)), make_simple(W34)]
    reduced = [make_simple(EMB1.source), make_E(EMB1.source, (1, 1))]
    singles = [adjunction_check(EMB1, [m], [nm]) for m in full for nm in reduced]
    assert adjunction_check(EMB1, full, reduced) == [ok for (ok,) in singles] == [True] * 6
    assert adjunction_check(EMB1, full, reduced, 3) == [True] * 3
    assert adjunction_check(EMB1, full, reduced, 0) == []


def test_module_json_round_trippable_fields():
    e = make_E(W34, (2, 2), W34.x(1))
    data = e.to_json()
    assert data["weights"] == {"p": [3, 4]}
    assert sum(entry["dim"] for entry in data["support"]) == 4
    assert all(len(t) == 3 for act in data["actions"] for t in act["entries"])


def _graded_data(m):
    dims = dict(m.dims)
    ranks = {}
    for x in m.dims:
        for i in range(m.weights.n):
            a = m.act(i, x)
            if a.size:
                ranks[(i, x)] = int(np.linalg.matrix_rank(a % DEFAULT_MODULUS))
    return dims, ranks


def _assert_graded_iso(got, predicted):
    gd, gr = _graded_data(got)
    pd, pr = _graded_data(predicted)
    assert gd == pd
    assert gr == pr


def test_reduction_middle_twist_cases():
    # twist coefficient at the split coordinate in [1, p_jn); the last
    # run either sits below the twist, ends inside the gap window, or
    # overshoots it, and each shape has a closed E-module model
    y = W34.x(1)
    src = EMB2.source
    # run not exceeding the twist coefficient: shape untouched
    _assert_graded_iso(
        phi0_module(EMB2, make_E(W34, (2, 1), y)),
        make_E(src, (2, 1), EMB2.theta_inv(y)),
    )
    # run ending inside the window: truncated down to the coefficient
    _assert_graded_iso(
        phi0_module(EMB2, make_E(W34, (2, 3), y)),
        make_E(src, (2, 1), EMB2.theta_inv(y)),
    )
    emb_other = GroupEmbedding(W34, 2, (2, 3))
    # run overshooting the window: truncated by the weight gap
    _assert_graded_iso(
        phi0_module(emb_other, make_E(W34, (1, 3), y)),
        make_E(emb_other.source, (1, 2), emb_other.theta_inv(y)),
    )


def test_reduction_high_twist_cases():
    # twist coefficient at the split coordinate in [p_jn, p_n)
    src = EMB2.source
    y = 3 * W34.x(1)
    assert phi0_module(EMB2, make_E(W34, (2, 1), y)).total_dim == 0
    got = phi0_module(EMB2, make_E(W34, (1, 2), y))
    pred = make_E(src, (1, 1), EMB2.theta_inv(y - 3 * W34.x(1) + W34.c()))
    _assert_graded_iso(got, pred)


def test_module_hom_exact_mode_agrees():
    pairs = [
        (make_E(W34, (2, 3)), make_E(W34, (1, 2))),
        (make_E(W34, (2, 1)), make_E(W34, (1, 1))),
        (make_simple(W34), make_simple(W34)),
    ]
    for a, b in pairs:
        assert module_hom_dim(a, b) == module_hom_dim(a, b, exact=True)


def test_modules_live_over_one_field():
    # F_32003 is the one field: no constructor takes a modulus, the JSON
    # names none, and actions are stored reduced into it
    for build in (lambda: make_simple(W34, q=32003), lambda: make_E(W34, (1, 1), q=32003), lambda: GradedModule(W34, {}, {}, 32003)):
        with pytest.raises(TypeError):
            build()
    assert "modulus" not in make_E(W34, (2, 3)).to_json()
    ws = WeightSystem((2,))
    m = GradedModule(ws, {ws.zero(): 1, ws.x(0): 1}, {(0, ws.zero()): np.array([[DEFAULT_MODULUS + 1]])})
    assert m.act(0, ws.zero()).tolist() == [[1]]


def test_actions_are_read_exactly():
    # an action goes through linalg.residues: a float used to be truncated
    # (0.4 became a dropped zero action) and a uint64 entry beyond int64
    # used to wrap before its reduction
    ws = WeightSystem((2,))
    dims = {ws.zero(): 1, ws.x(0): 1}
    for bad in ([[0.4]], np.array([[1.0]]), np.array([[1, 0.5]], dtype=object)):
        with pytest.raises(ValueError, match="integer"):
            GradedModule(ws, dims, {(0, ws.zero()): bad})
    wide = GradedModule(ws, dims, {(0, ws.zero()): np.array([[2**64 - 1]], dtype=np.uint64)})
    assert wide.act(0, ws.zero()).tolist() == [[(2**64 - 1) % DEFAULT_MODULUS]] == [[21708]]
    big = GradedModule(ws, dims, {(0, ws.zero()): [[2**70]]})
    assert big.act(0, ws.zero()).tolist() == [[2**70 % DEFAULT_MODULUS]]


def _dense_hom_dim(m, n):
    """Dimension of Hom(M, N) from the dense system: one np.kron block per
    degree x of M and variable i, stacked; the assembly module_hom_dim
    had before it built its system in coordinates."""
    ws, q = m.weights, DEFAULT_MODULUS
    common = [x for x in m.dims if x in n.dims]
    offsets, total = {}, 0
    for x in common:
        offsets[x] = total
        total += m.dims[x] * n.dims[x]
    if total == 0:
        return 0
    rows = []
    for x in m.dims:
        dm = m.dims[x]
        for i in range(ws.n):
            xi = x + ws.x(i)
            dn_t = n.dim_at(xi)
            if dn_t == 0:
                continue
            blocks = []
            if x in offsets:
                blocks.append((offsets[x], np.kron(n.act(i, x), np.eye(dm, dtype=np.int64))))
            if xi in offsets and m.dim_at(xi) > 0:
                blocks.append((offsets[xi], -np.kron(np.eye(dn_t, dtype=np.int64), m.act(i, x).T)))
            if not blocks:
                continue
            row = np.zeros((dn_t * dm, total), dtype=np.int64)
            for off, blk in blocks:
                row[:, off : off + blk.shape[1]] += blk
            rows.append(row % q)
    return total - rank_mod(np.vstack(rows), q) if rows else total


@st.composite
def _summand_recipe(draw, emb, full):
    """What ``_summand`` builds: E^ell(y) (ell None: k(y)) over the full
    system of emb (or its source), and whether psi_0 (phi_0) then takes
    it to the other system."""
    over_full = full if draw(st.booleans()) else not full
    system = emb.target if over_full else emb.source
    y = system.element([draw(st.integers(0, w - 1)) for w in system.p], draw(st.integers(-1, 1)))
    ell = None if draw(st.integers(0, 3)) == 0 else tuple(draw(st.integers(1, min(3, w - 1))) for w in system.p)
    return emb, system, ell, y, over_full != full


def _build_summand(recipe, simple=make_simple, build_E=make_E, phi0=phi0_module, psi0=psi0_module):
    emb, system, ell, y, image = recipe
    base = simple(system, y) if ell is None else build_E(system, ell, y)
    if not image:
        return base
    return psi0(emb, base) if system == emb.source else phi0(emb, base)


@st.composite
def _summand(draw, emb, full):
    """E^ell(y) or k(y) over the full system of emb (or its source), or
    the psi_0 (phi_0) image of one over the other system."""
    return _build_summand(draw(_summand_recipe(emb, full)))


def _change_basis(m, seed):
    """M with the basis of each fiber changed by an integer matrix
    D (I + U), D diagonal of signs and U strictly upper triangular: an
    isomorphic module over Z, whose actions have entries other than 0
    and 1 where the fibers have dimension 2 or more."""
    rng = np.random.default_rng(seed)
    base, inverse = {}, {}
    for x, d in m.dims.items():
        u = np.triu(rng.integers(-2, 3, (d, d)), 1)
        signs = rng.choice([-1, 1], d)
        base[x] = signs[:, None] * (np.eye(d, dtype=np.int64) + u)
        # (I + U)^-1 is the finite sum of the (-U)^k
        inverse[x] = sum(np.linalg.matrix_power(-u, k) for k in range(d)) * signs
    signed = {key: np.where(a > DEFAULT_MODULUS // 2, a - DEFAULT_MODULUS, a) for key, a in m.actions.items()}
    actions = {(i, x): base[x + m.weights.x(i)] @ a @ inverse[x] for (i, x), a in signed.items()}
    return GradedModule(m.weights, m.dims, actions)


@st.composite
def _embedding(draw):
    ws = WeightSystem(draw(st.sampled_from([(3, 4), (2, 3, 4), (3, 4, 5)])))
    q = draw(st.integers(2, ws.p[-1] - 1))
    return GroupEmbedding(ws, draw(st.sampled_from((1, 2))), (q, ws.p[-1] + 1 - q))


@st.composite
def _module_pair(draw):
    """Two direct sums of summands drawn from one pool over one system,
    each with its first summand taken twice, so that fibers of dimension
    2 or more occur and the two share summands.  The pool holds a
    summand S, S(x_i), whose support overlaps that of S in part, so
    that actions between fibers of different dimensions occur, and one
    more summand.  Either module may have its fiber bases changed."""
    emb = draw(_embedding())
    ws = emb.target
    full = draw(st.booleans())
    first = draw(_summand(emb, full))
    pool = [first, first.twist(first.weights.x(draw(st.integers(0, ws.n - 1)))), draw(_summand(emb, full))]
    pair = []
    for _ in range(2):
        picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        out = picks[0].direct_sum(picks[0])
        for part in picks[1:]:
            out = out.direct_sum(part)
        if draw(st.booleans()):
            out = _change_basis(out, draw(st.integers(0, 2**16)))
        pair.append(out)
    return tuple(pair)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_module_pair())
def test_module_hom_dim_matches_dense_reference(pair):
    m, n = pair
    assert module_hom_dim(m, n) == module_hom_dim(m, n, exact=True) == _dense_hom_dim(m, n)


# The per-degree constructors and relation check that the coordinate
# form replaced, kept as references: each walks the fibers one degree at
# a time and hands its blocks to the dictionary constructor.


def _ref_vanishes(terms):
    present = [sign * mat for sign, mat in terms if mat is not None]
    return not present or not np.any(sum(present) % DEFAULT_MODULUS)


def _ref_walk(ws, dims, actions, x, word):
    """The composite of the X_i along word from degree x, None at the
    first zero block."""
    out = None
    for i in word:
        mat = actions.get((i, x))
        if mat is None or not np.any(mat % DEFAULT_MODULUS):
            return None
        out = mat if out is None else (mat @ out) % DEFAULT_MODULUS
        x = x + ws.x(i)
    return np.eye(dims.get(x, 0), dtype=np.int64) if out is None else out


def _ref_check_relations(ws, dims, actions):
    actions = {key: np.asarray(mat, dtype=np.int64) % DEFAULT_MODULUS for key, mat in actions.items()}
    dims = {x: d for x, d in dims.items() if d}
    for x in dims:
        for i, j in itertools.combinations(range(ws.n), 2):
            if not _ref_vanishes(((1, _ref_walk(ws, dims, actions, x, (i, j))), (-1, _ref_walk(ws, dims, actions, x, (j, i))))):
                raise ValueError(f"actions X_{i+1}, X_{j+1} do not commute at {x}")
        if x + ws.c() in dims and not _ref_vanishes(((1, _ref_walk(ws, dims, actions, x, (i,) * p)) for i, p in enumerate(ws.p))):
            raise ValueError(f"sum X_i^p_i does not vanish at {x}")


def _ref_make_simple(weights, y):
    return GradedModule(weights, {-y: 1}, {})


def _ref_make_E(weights, ell, y=None):
    ell = tuple(ell)
    if y is None:
        y = weights.zero()
    box = {w: normalize(weights, w) - y for w in itertools.product(*map(range, ell))}
    one = np.ones((1, 1), dtype=np.int64)
    actions = {(i, x): one for w, x in box.items() for i in range(weights.n) if w[i] + 1 < ell[i]}
    return GradedModule(weights, dict.fromkeys(box.values(), 1), actions)


def _ref_phi0_module(emb, m):
    ws = emb.target
    n = ws.n
    gap = ws.p[-1] - emb.split_weight
    step = gap * ws.x(n - 1)
    dims, fiber = {}, {}
    for z, d in m.dims.items():
        zp = z - step
        if zp.coeffs[-1] < emb.split_weight:
            x = emb.theta_inv(zp)
            dims[x] = d
            fiber[x] = z
    actions = {}
    for x, z in fiber.items():
        last = 1 if x.coeffs[-1] < emb.split_weight - 1 else gap + 1
        for i in range(n):
            mat = _ref_walk(ws, m.dims, m.actions, z, (i,) * (last if i == n - 1 else 1))
            if mat is not None:
                actions[(i, x)] = mat
    return GradedModule(emb.source, dims, actions)


def _ref_psi0_module(emb, nm):
    ws = emb.target
    n = ws.n
    gap = ws.p[-1] - emb.split_weight
    steps = [t * ws.x(n - 1) for t in range(gap + 1)]
    dims, fiber = {}, {}
    for w, d in nm.dims.items():
        xs = [emb.theta(w) + step for step in steps] if w.coeffs[-1] == 0 else [emb.theta(w) + steps[gap]]
        for x in xs:
            dims[x] = d
            fiber[x] = w
    actions = {}
    for x, w in fiber.items():
        band = x.coeffs[-1] < gap
        for i in range(n):
            mat = np.eye(dims[x], dtype=np.int64) if i == n - 1 and band else nm.actions.get((i, w))
            if mat is not None:
                actions[(i, x)] = mat
    return GradedModule(ws, dims, actions)


def _assert_same_module(got, ref):
    assert got.weights == ref.weights
    assert got.dims == ref.dims
    assert list(got.dims) == list(ref.dims) == sorted(ref.dims, key=lambda x: (x.level, x.coeffs))
    degrees = set(got.dims) | {x + got.weights.x(i) for x in got.dims for i in range(got.weights.n)}
    for x in degrees:
        for i in range(got.weights.n):
            assert np.array_equal(got.act(i, x), ref.act(i, x)), (i, x)
    assert got.to_json() == ref.to_json()
    _ref_check_relations(got.weights, got.dims, got.actions)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_summands_match_the_per_degree_constructors(data):
    recipe = data.draw(_summand_recipe(data.draw(_embedding()), data.draw(st.booleans())))
    got = _build_summand(recipe)
    ref = _build_summand(recipe, _ref_make_simple, _ref_make_E, _ref_phi0_module, _ref_psi0_module)
    _assert_same_module(got, ref)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_module_pair())
def test_module_pairs_match_the_per_degree_relation_check(pair):
    for m in pair:
        _ref_check_relations(m.weights, m.dims, m.actions)
        y = m.weights.x(0)
        twisted = m.twist(y)
        assert twisted.dims == {x - y: d for x, d in m.dims.items()}
        assert list(twisted.dims) == sorted(twisted.dims, key=lambda x: (x.level, x.coeffs))
        _assert_same_module(twisted.twist(-y), m)


def _ladder_modules(ws):
    """Every module that check_recollement builds over ws, at every
    split, with its per-degree reference, and the pairs its adjunction
    checks compare."""
    built, pairs = [], []
    for split in range(2, ws.p[-1]):
        ladder = Ladder(ws, split)
        for emb in (ladder.emb1, ladder.emb2):
            full = _adjunction_modules(ws, _ADJUNCTION_PAIRS)
            reduced = _adjunction_modules(emb.source, _ADJUNCTION_PAIRS)
            # _ADJUNCTION_PAIRS exceeds every count of ells, so the simple k closes each list
            for system, mods in ((ws, full), (emb.source, reduced)):
                refs = [_ref_make_E(system, ell) for ell in _some_ells(system)] + [_ref_make_simple(system, system.zero())]
                assert len(refs) == len(mods)
                built += list(zip(mods, refs))
            phi = [phi0_module(emb, m) for m in full]
            psi = [psi0_module(emb, m) for m in reduced]
            built += [(img, _ref_phi0_module(emb, m)) for img, m in zip(phi, full)]
            built += [(img, _ref_psi0_module(emb, m)) for img, m in zip(psi, reduced)]
            read = list(itertools.islice(itertools.product(range(len(full)), range(len(reduced))), _ADJUNCTION_PAIRS))
            pairs += [pair for a, b in read for pair in ((phi[a], reduced[b]), (full[a], psi[b]))]
    return built, pairs


@pytest.mark.parametrize("p", [(3, 4, 5), (2, 3, 4, 5)])
def test_ladder_modules_match_the_per_degree_constructors(p):
    built, _ = _ladder_modules(WeightSystem(p))
    for got, ref in built:
        _assert_same_module(got, ref)


def test_ladder_hom_systems_match_the_dense_and_exact_ranks():
    # the 96 Hom dimensions of the (3,4,5) adjunction checks, and the 32
    # of one (5,6,7) split
    _, pairs = _ladder_modules(WeightSystem((3, 4, 5)))
    assert len(pairs) == 96
    ladder = Ladder(WeightSystem((5, 6, 7)), 3)
    for emb in (ladder.emb1, ladder.emb2):
        full = _adjunction_modules(emb.target, _ADJUNCTION_PAIRS)
        reduced = _adjunction_modules(emb.source, _ADJUNCTION_PAIRS)
        for a, b in itertools.islice(itertools.product(full, reduced), _ADJUNCTION_PAIRS):
            pairs += [(phi0_module(emb, a), b), (a, psi0_module(emb, b))]
    assert len(pairs) == 128
    dims = [module_hom_dim(m, n) for m, n in pairs]
    assert dims == [_dense_hom_dim(m, n) for m, n in pairs]
    assert dims == [module_hom_dim(m, n, exact=True) for m, n in pairs]
    assert sum(dims) > 0


def _degree_module(base):
    """A 24-dimensional module over (3,4,5) at base: the fibers
    base + k x_1 + a x_2 + b x_3 (k < 4, a < 2, b < 3), X_2 and X_3 by
    identity off the layer k = 3 and X_1 by identity from each layer to
    the next, except from layer 2 to 3, where it acts at (a, b) = (0, 0)
    when ``wrap``; then X_1^3 = X_1^(p_1) is nonzero from base alone."""
    ws = WeightSystem((3, 4, 5))

    def at(k, a, b):
        return base + k * ws.x(0) + a * ws.x(1) + b * ws.x(2)

    cells = list(itertools.product(range(4), range(2), range(3)))
    dims = {at(*cell): 1 for cell in cells}
    actions = {}
    for k, a, b in cells:
        if k < 2 or (k == 2 and (a, b) == (0, 0)):
            actions[(0, at(k, a, b))] = np.array([[1]])
        if k < 3 and a < 1:
            actions[(1, at(k, a, b))] = np.array([[1]])
        if k < 3 and b < 2:
            actions[(2, at(k, a, b))] = np.array([[1]])
    return ws, dims, actions


def _doubled(ws, dims, actions, seed):
    """The direct sum of the module with itself, each fiber's basis
    changed by an integer matrix (``_change_basis``)."""
    m = GradedModule(ws, {x: 2 * d for x, d in dims.items()}, {key: np.kron(np.eye(2, dtype=np.int64), a) for key, a in actions.items()})
    m = _change_basis(m, seed)
    return dict(m.dims), {key: np.where(a > DEFAULT_MODULUS // 2, a - DEFAULT_MODULUS, a) for key, a in m.actions.items()}


@pytest.mark.parametrize("doubled", [False, True])
def test_relation_failures_name_their_one_degree(doubled):
    ws = WeightSystem((3, 4, 5))
    base = ws.element((2, 1, 3), -1)
    ws, dims, actions = _degree_module(base)
    wrap = (0, base + 2 * ws.x(0))
    closing = actions.pop(wrap)
    if doubled:
        dims, actions = _doubled(ws, dims, actions, 5)
        closing = np.array([[1, 0], [0, 0]])
    assert sum(dims.values()) == 24 * (1 + doubled)
    GradedModule(ws, dims, actions)
    _ref_check_relations(ws, dims, actions)
    # X_1 at base changed: X_2 X_1 and X_1 X_2 differ from base alone
    broken = {**actions, (0, base): actions[(0, base)] + np.eye(len(actions[(0, base)]), dtype=np.int64)}
    message = f"actions X_1, X_2 do not commute at {base}"
    for check in (lambda: GradedModule(ws, dims, broken), lambda: _ref_check_relations(ws, dims, broken)):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            check()
    # X_1 from layer 2 to 3 at (0, 0): X_1^3 is nonzero from base alone
    broken = {**actions, wrap: closing}
    message = f"sum X_i^p_i does not vanish at {base}"
    for check in (lambda: GradedModule(ws, dims, broken), lambda: _ref_check_relations(ws, dims, broken)):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            check()


def test_foreign_degree_keys_are_rejected():
    other = WeightSystem((3, 5)).zero()
    dims = {W34.zero(): 1, W34.x(0): 1}
    with pytest.raises(TypeError, match="degree 'a' is not a GradeElement"):
        GradedModule(W34, {"a": 1}, {})
    with pytest.raises(ValueError, match=re.escape(f"degree {other} lives over (3,5), not (3,4)")):
        GradedModule(W34, {other: 1}, {})
    with pytest.raises(ValueError, match="lives over"):
        GradedModule(W34, {other: 0}, {})
    with pytest.raises(TypeError, match="degree 'a' is not a GradeElement"):
        GradedModule(W34, dims, {(0, "a"): [[1]]})
    with pytest.raises(ValueError, match=re.escape(f"degree {other} lives over (3,5), not (3,4)")):
        GradedModule(W34, dims, {(0, other): np.zeros((0, 0), dtype=np.int64)})
    # the same weights under another instance are the same system
    GradedModule(W34, {WeightSystem((3, 4)).zero(): 1}, {})


def test_misgraded_coordinates_are_rejected():
    # X_1 from degree 0 into the fiber at x_2, not at x_1
    e = make_E(W34, (2, 2))
    src, var, dst, val = (np.array([a]) for a in (0, 0, 1, 1))
    with pytest.raises(ValueError, match=re.escape(f"action X_1 at {W34.zero()} does not map into degree {W34.x(0)}")):
        _module(W34, e._keys, e._sizes, src, var, dst, val)


def test_views_are_read_only():
    e = make_E(W34, (2, 3))
    with pytest.raises(TypeError):
        e.dims[W34.zero()] = 2
    with pytest.raises(TypeError):
        e.actions[(0, W34.zero())] = np.array([[2]])
    with pytest.raises(ValueError):
        e.act(0, W34.zero())[0, 0] = 2
    assert e.act(0, W34.zero()).tolist() == [[1]]


def test_degrees_are_exact_at_any_level():
    # keys beyond int64 are Python ints: the same module at level 2**70
    # has the same Homs, functor images and JSON up to the level
    for ws, emb in ((W34, EMB2), (WeightSystem((3, 4, 5)), GroupEmbedding(WeightSystem((3, 4, 5)), 1, (2, 4)))):
        far = ws.element((0,) * ws.n, 2**70)
        for ell in ((1,) * ws.n, tuple(w - 1 for w in ws.p)):
            near = make_E(ws, ell, ws.x(0))
            high = make_E(ws, ell, ws.x(0) - far)
            assert high._keys.dtype == object and near._keys.dtype == np.int64
            assert high.dims == {x + far: d for x, d in near.dims.items()}
            assert module_hom_dim(high, high) == module_hom_dim(near, near) == module_hom_dim(high, near.twist(-far))
            assert module_hom_dim(high, near) == module_hom_dim(near, high) == 0
            both = near.direct_sum(high)
            assert module_hom_dim(both, both) == 2 * module_hom_dim(near, near)
            _assert_same_module(high.twist(far), near)
            _assert_same_module(near.twist(far).twist(-far), near)
            _assert_same_module(phi0_module(emb, high), _ref_phi0_module(emb, high))
            _assert_same_module(psi0_module(emb, phi0_module(emb, high)).twist(far), psi0_module(emb, phi0_module(emb, near)))
    # weights whose product is beyond int64 give Python-int keys at level 0
    ws = WeightSystem((2**40, 3, 2**30))
    emb = GroupEmbedding(ws, 1, (2**30 - 5, 6))
    for y in (ws.element((5, 1, 2**30 - 1), 3), ws.element((5, 1, 3), -2)):
        e = make_E(ws, (2, 2, 3), y)
        assert e._keys.dtype == object
        _assert_same_module(e, _ref_make_E(ws, (2, 2, 3), y))
        _assert_same_module(phi0_module(emb, e), _ref_phi0_module(emb, e))
        _assert_same_module(e.twist(y).twist(-y), e)
    f = make_E(emb.source, (2, 1, 3), emb.source.element((1, 1, 0), 2))
    _assert_same_module(psi0_module(emb, f), _ref_psi0_module(emb, f))
    assert module_hom_dim(psi0_module(emb, f), psi0_module(emb, f)) == module_hom_dim(f, f) == 1


def test_relation_checks_survive_python_O():
    code = """
import numpy as np
from bpsing import GradedModule, WeightSystem
ws = WeightSystem((3, 3))
one = np.array([[1]])
x1, x2 = ws.x(0), ws.x(1)
dims = {ws.zero(): 1, x1: 1, x2: 1, x1 + x2: 1}
for actions in ({(0, ws.zero()): one, (1, x1): one, (1, ws.zero()): one}, {(0, ws.zero()): one, (0, x1): one, (0, 2 * x1): one}):
    try:
        GradedModule(ws, {**dims, 2 * x1: 1, 3 * x1: 1}, actions)
    except ValueError as exc:
        print("ValueError:", exc)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-B", "-O", "-c", code], env={"PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ValueError: actions X_1, X_2 do not commute at (0,0;0)\nValueError: sum X_i^p_i does not vanish at (0,0;0)\n"


def test_hom_sees_the_sign_of_an_odd_cycle():
    # R/R_(not <= c) over (2,3): 1, X_1, X_2, X_2^2 and X_1^2 = -X_2^3 in
    # degree c.  Its degrees form a cycle of 2 + 3 steps, so a wrong sign
    # on one side of N_i f_x = f_(x+x_i) M_i cannot be absorbed by signs
    # on the f_x: End(M) in degree 0 is the scalars, and with the sign
    # flipped it would vanish.
    ws = WeightSystem((2, 3))
    x1, x2 = ws.x(0), ws.x(1)
    one = np.array([[1]])
    dims = dict.fromkeys((ws.zero(), x1, x2, 2 * x2, ws.c()), 1)
    actions = {(0, ws.zero()): one, (0, x1): one, (1, ws.zero()): one, (1, x2): one, (1, 2 * x2): -one}
    m = GradedModule(ws, dims, actions)
    for a, b in ((m, m), (m.direct_sum(m), m), (_change_basis(m.direct_sum(m), 3), m.direct_sum(make_simple(ws, -ws.c())))):
        assert module_hom_dim(a, b) == module_hom_dim(a, b, exact=True) == _dense_hom_dim(a, b)
    assert module_hom_dim(m, m) == 1
