"""Graded modules: constructors, Hom solver, degreewise functors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpsing.gmod import (
    GradedModule,
    adjunction_check,
    make_E,
    make_simple,
    module_hom_dim,
    phi0_module,
    psi0_module,
)
from bpsing.grading import GroupEmbedding, WeightSystem
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
def _summand(draw, emb, full):
    """E^ell(y) or k(y) over the full system of emb (or its source), or
    the psi_0 (phi_0) image of one over the other system."""
    over_full = full if draw(st.booleans()) else not full
    system = emb.target if over_full else emb.source
    y = system.element([draw(st.integers(0, w - 1)) for w in system.p], draw(st.integers(-1, 1)))
    if draw(st.integers(0, 3)) == 0:
        base = make_simple(system, y)
    else:
        base = make_E(system, [draw(st.integers(1, min(3, w - 1))) for w in system.p], y)
    if over_full == full:
        return base
    return psi0_module(emb, base) if full else phi0_module(emb, base)


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
def _module_pair(draw):
    """Two direct sums of summands drawn from one pool over one system,
    each with its first summand taken twice, so that fibers of dimension
    2 or more occur and the two share summands.  The pool holds a
    summand S, S(x_i), whose support overlaps that of S in part, so
    that actions between fibers of different dimensions occur, and one
    more summand.  Either module may have its fiber bases changed."""
    ws = WeightSystem(draw(st.sampled_from([(3, 4), (2, 3, 4), (3, 4, 5)])))
    q = draw(st.integers(2, ws.p[-1] - 1))
    emb = GroupEmbedding(ws, draw(st.sampled_from((1, 2))), (q, ws.p[-1] + 1 - q))
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
