"""Grading-group arithmetic: normal forms, order, dichotomy, dimensions."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpsing.grading import (
    Dichotomy,
    GradeElement,
    GroupEmbedding,
    NotInImageError,
    WeightSystem,
    _index,
    dichotomy,
    normalize,
)

W34 = WeightSystem((3, 4))
W345 = WeightSystem((3, 4, 5))
W222 = WeightSystem((2, 2, 2))

weight_systems = st.sampled_from([W34, W345, W222, WeightSystem((2,)), WeightSystem((5, 2))])


@st.composite
def elements(draw, ws=None):
    if ws is None:
        ws = draw(weight_systems)
    coeffs = [draw(st.integers(-20, 20)) for _ in ws.p]
    level = draw(st.integers(-10, 10))
    return normalize(ws, coeffs, level)


def test_generator_index_must_be_in_range():
    # a tuple index read -1 as x_2 and raised IndexError at 5
    for i in (-1, 2, 5):
        with pytest.raises(ValueError, match="variable index"):
            W34.x(i)
    with pytest.raises(TypeError):
        W34.x(1.0)
    assert W34.x(np.int64(1)) == W34.x(1) == GradeElement(W34, (0, 1), 0)


def test_normalize_examples():
    assert normalize(W34, (3, 0)) == GradeElement(W34, (0, 0), 1)
    assert W34.x(0) - W34.x(1) == GradeElement(W34, (1, 3), -1)
    assert normalize(W34, (0, 0)) == W34.zero()


def test_add_neg_examples():
    x1 = W34.x(0)
    assert x1 + x1 == GradeElement(W34, (2, 0), 0)
    assert x1 + 2 * x1 == W34.c()
    assert -W34.x(1) == GradeElement(W34, (0, 3), -1)


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightSystem((1, 3))
    with pytest.raises(ValueError):
        WeightSystem(())


def test_wrong_lengths_rejected():
    # a zip over coeffs and weights would cut the longer one
    with pytest.raises(ValueError, match=r"length 3, weights \(3,4\) have length 2"):
        GradeElement(W34, (1, 2, 3), 0)
    with pytest.raises(ValueError, match=r"length 3, weights \(3,4\) have length 2"):
        normalize(W34, [1, 2, 3])
    with pytest.raises(ValueError, match=r"length 1, weights \(3,4\) have length 2"):
        normalize(W34, [1])


def test_index_reader():
    # the one reader of integer arguments: numpy integers are ints, a bool
    # and a float are not, and both messages name the argument
    assert _index(np.int64(3), "n") == 3 and type(_index(np.uint8(3), "n")) is int
    for bad in (True, np.True_, 1.0, "1", None):
        with pytest.raises(TypeError, match=f"count {bad!r} is not an int"):
            _index(bad, "count")
    with pytest.raises(ValueError, match="variable index -1 outside 0..1"):
        _index(-1, "variable index", 0, 1)
    with pytest.raises(ValueError, match="negative count -1"):
        _index(-1, "count", 0)
    with pytest.raises(ValueError, match="weight 1 is below 2"):
        _index(1, "weight", 2)
    assert _index(-7, "shift") == -7 and _index(7, "shift", 0) == 7


def test_bools_are_not_integers():
    # operator.index(True) is 1, so these used to read True as 1
    with pytest.raises(TypeError):
        WeightSystem((3, True))
    with pytest.raises(TypeError):
        W34.x(True)
    with pytest.raises(TypeError):
        True * W34.x(0)
    with pytest.raises(TypeError, match="level True is not an int"):
        GradeElement(W34, (1, 2), True)
    with pytest.raises(TypeError, match="j True is not an int"):
        GroupEmbedding(W34, True, (3, 2))


def test_non_integers_rejected():
    with pytest.raises(TypeError):
        WeightSystem((3.7, 4))
    with pytest.raises(TypeError):
        normalize(W34, [1.9, 2.5])
    with pytest.raises(TypeError):
        normalize(W34, [1, 2], 0.7)
    # built directly, a normal form takes int coefficients and level only
    with pytest.raises(TypeError, match="coefficient 1.5 is not an int"):
        GradeElement(W34, (1.5, 2), 0)
    with pytest.raises(TypeError, match="level 0.5 is not an int"):
        GradeElement(W34, (1, 2), 0.5)
    with pytest.raises(TypeError, match="coefficient 1.0 is not an int"):
        GradeElement(W34, (1.0, 2), 0)
    # numpy integers are integers
    assert WeightSystem(np.array([3, 4])) == W34
    assert normalize(W34, np.array([4, 1]), np.int64(-1)) == GradeElement(W34, (1, 1), 0)


def test_mismatched_weight_systems():
    with pytest.raises(ValueError):
        W34.x(0) + W345.x(0)


@given(elements())
def test_normal_form_idempotent(a):
    assert normalize(a.weights, a.coeffs, a.level) == a


@given(st.data())
def test_group_laws(data):
    ws = data.draw(weight_systems)
    a = data.draw(elements(ws))
    b = data.draw(elements(ws))
    c = data.draw(elements(ws))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + (-a) == ws.zero()


@given(st.data())
def test_carry_arithmetic_matches_normalize(data):
    ws = data.draw(weight_systems)
    a = data.draw(elements(ws))
    b = data.draw(elements(ws))
    raw_sum = [x + y for x, y in zip(a.coeffs, b.coeffs)]
    raw_diff = [x - y for x, y in zip(a.coeffs, b.coeffs)]
    assert a + b == normalize(ws, raw_sum, a.level + b.level)
    assert a - b == normalize(ws, raw_diff, a.level - b.level)
    assert -a == normalize(ws, [-x for x in a.coeffs], -a.level)


def test_carry_arithmetic_extremes():
    top = GradeElement(W345, (2, 3, 4), -7)
    assert top + top == normalize(W345, (4, 6, 8), -14)
    assert W345.zero() - top == normalize(W345, (-2, -3, -4), 7)
    assert -W345.zero() == W345.zero()


def test_leq_examples():
    assert W34.zero() <= W34.delta()
    assert not (W34.x(0) <= W34.x(1))
    assert W34.x(1) <= W34.x(1)


@given(st.data())
def test_order_laws(data):
    ws = data.draw(weight_systems)
    a = data.draw(elements(ws))
    b = data.draw(elements(ws))
    c = data.draw(elements(ws))
    assert a <= a
    if a <= b and b <= a:
        assert a == b
    if a <= b and b <= c:
        assert a <= c
    assert (a <= b) == ((b - a).level >= 0)


def test_dichotomy_examples():
    assert dichotomy(W34.zero())[0] is Dichotomy.NON_NEGATIVE
    assert dichotomy(W34.c())[0] is Dichotomy.NON_NEGATIVE
    kind, witness = dichotomy(-W34.x(0))
    assert kind is Dichotomy.BELOW_BOUND
    assert witness.level >= 0


@given(elements())
@settings(max_examples=300)
def test_dichotomy_exclusive(a):
    kind, witness = dichotomy(a)
    bound = (a.weights.n - 2) * a.weights.c() + a.weights.omega()
    assert (a.level >= 0) == (kind is Dichotomy.NON_NEGATIVE)
    if kind is Dichotomy.BELOW_BOUND:
        assert a <= bound


def test_specials():
    sp = W34.specials()
    assert sp["omega"] == GradeElement(W34, (2, 3), -1)
    assert sp["delta"] == GradeElement(W34, (1, 2), 0)
    assert sp["s"] == GradeElement(W34, (1, 1), 0)
    assert W222.delta() == W222.zero()


@pytest.mark.parametrize("p", [(2,), (5,), (3, 4), (2, 2, 2), (3, 4, 5), (2, 5, 3)])
def test_box_is_zero_to_delta_descending(p):
    ws = WeightSystem(p)
    want = sorted(itertools.product(*(range(w - 1) for w in p)), reverse=True)
    assert ws.box() == want
    assert all(ws.zero() <= ws.element(x) <= ws.delta() for x in ws.box())


def test_sigma():
    assert W34.zero().sigma() == 0
    assert W34.delta().sigma() == 3
    assert (W345.x(0) + W345.x(2)).sigma() == 2
    with pytest.raises(ValueError):
        (-W34.x(0)).sigma()


def test_dim_examples():
    assert W34.zero().dim_r() == 1
    assert W34.c().dim_r() == 1
    assert W34.c().dim_s() == 2
    assert W345.c().dim_r() == 2
    one = WeightSystem((5,))
    assert one.zero().dim_r() == 1
    assert one.c().dim_r() == 0


def brute_force_dims(ws, bound):
    """Bucket monomials with last exponent below p_n by graded degree."""
    buckets = {}
    ranges = [range((bound + 1) * p) for p in ws.p[:-1]] + [range(ws.p[-1])]
    for exps in itertools.product(*ranges):
        deg = normalize(ws, exps)
        if abs(deg.level) <= bound:
            buckets[deg] = buckets.get(deg, 0) + 1
    return buckets


@pytest.mark.parametrize("ws", [W34, W222, W345])
def test_dim_r_against_enumeration(ws):
    buckets = brute_force_dims(ws, 4)
    for coeffs in itertools.product(*(range(p) for p in ws.p)):
        for level in range(-4, 5):
            a = GradeElement(ws, coeffs, level)
            assert a.dim_r() == buckets.get(a, 0), a


def test_theta_round_trip():
    emb = GroupEmbedding(W34, 2, (3, 2))
    assert emb.source == WeightSystem((3, 2))
    a = emb.source.element((2, 1), -3)
    assert emb.theta_inv(emb.theta(a)) == a
    assert emb.theta(emb.source.x(1)) == W34.x(1)
    with pytest.raises(NotInImageError):
        emb.theta_inv(3 * W34.x(1))


def test_embedding_validation():
    with pytest.raises(ValueError):
        GroupEmbedding(W34, 1, (3, 3))
    with pytest.raises(ValueError):
        GroupEmbedding(WeightSystem((3, 2)), 1, (1, 2))


def test_serialization_round_trip():
    a = normalize(W345, (7, -2, 11), 3)
    assert GradeElement.from_json(W345, a.to_json()) == a
    assert WeightSystem.from_json(W345.to_json()) == W345


@pytest.mark.parametrize("ws", [W34, W345, W222])
def test_basic_elements_are_built_once(ws):
    for i in range(ws.n):
        assert ws.x(i) == normalize(ws, [int(j == i) for j in range(ws.n)]) and ws.x(i) is ws.x(i)
    assert ws.c() == normalize(ws, [ws.p[0]] + [0] * (ws.n - 1)) and ws.c() is ws.c()
    assert ws.s() == normalize(ws, [1] * ws.n) and ws.s() is ws.s()


def test_embedding_source_is_built_once():
    emb = GroupEmbedding(W345, 1, (2, 4))
    assert emb.source == WeightSystem((3, 4, 2)) and emb.source is emb.source
    assert emb.source.c() is emb.source.c()
