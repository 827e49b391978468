"""Quiver algebras, Cartan matrices, Coxeter polynomials."""

import functools
import itertools

import numpy as np
import pytest

from bpsing.grading import WeightSystem, normalize
from bpsing.linalg import inverse_unimodular
from bpsing.qalg import (
    COXETER_SUITES,
    AlgebraPresentation,
    IntPolynomial,
    coxeter_polynomial,
    dynkin_path_algebra,
    gamma_quiver,
    lambda_q,
    nakayama,
    replicated,
)

W34 = WeightSystem((3, 4))
W345 = WeightSystem((3, 4, 5))


def test_nakayama_cartans():
    assert (nakayama(3, 1).cartan == np.eye(3, dtype=int)).all()
    assert (nakayama(3, 2).cartan == np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]])).all()
    band = nakayama(6, 4).cartan
    for i in range(6):
        for j in range(6):
            assert band[i, j] == (1 if 0 <= j - i < 4 else 0)


def test_tensor_determinant_identity():
    a, b = nakayama(3, 3), nakayama(4, 2)
    det = round(np.linalg.det(lambda_q(WeightSystem((4, 5)), (3, 2)).cartan))
    da, db = round(np.linalg.det(a.cartan)), round(np.linalg.det(b.cartan))
    assert det == da ** b.size * db ** a.size


def test_lambda_q_figure_counts():
    alg = lambda_q(W34, (2, 2))
    assert alg.size == 6
    assert len(alg.arrows) == 7
    nil = [r for r in alg.relations if "^" in r]
    comm = [r for r in alg.relations if "^" not in r]
    assert len(comm) == 2 and len(nil) == 2


def test_lambda_q_cartans():
    assert (lambda_q(W34, (2, 2)).cartan == np.kron(nakayama(2, 2).cartan, nakayama(3, 2).cartan)).all()
    full = lambda_q(W34, (2, 3))
    assert (full.cartan == np.kron(nakayama(2, 2).cartan, nakayama(3, 3).cartan)).all()
    one = lambda_q(WeightSystem((5,)), (1,))
    assert (one.cartan == np.eye(4, dtype=int)).all()
    with pytest.raises(ValueError):
        lambda_q(W34, (3, 2))
    for qvec in ((1,), (1, 2, 1)):
        with pytest.raises(ValueError, match=rf"have length {len(qvec)}, weights \(3,4\) have length 2"):
            lambda_q(W34, qvec)
    with pytest.raises(TypeError):
        lambda_q(W34, (1.5, 2))


def _ref_lambda_cartan(ws, qvec):
    # the defining rule, entry by entry over the descending box
    box = list(itertools.product(*[range(w - 2, -1, -1) for w in ws.p]))
    cartan = np.zeros((len(box), len(box)), dtype=np.int64)
    for a, x in enumerate(box):
        for b, y in enumerate(box):
            diff = normalize(ws, [u - v for u, v in zip(x, y)], 0)
            if diff.level == 0 and all(d < qq for d, qq in zip(diff.coeffs, qvec)):
                cartan[a, b] = 1
    return cartan


def _ref_dynkin_cartan(alg):
    # reachability: clipped powers of the adjacency matrix
    k = alg.size
    index = {v: i for i, v in enumerate(alg.vertices)}
    adj = np.zeros((k, k), dtype=np.int64)
    for _, s, t in alg.arrows:
        adj[index[s], index[t]] = 1
    reach = np.eye(k, dtype=np.int64)
    power = np.eye(k, dtype=np.int64)
    for _ in range(k):
        power = (power @ adj).clip(0, 1)
        reach = (reach + power).clip(0, 1)
    return reach


@pytest.mark.parametrize("p", [(2,), (5,), (3, 4), (4, 5), (2, 3, 4), (2, 2, 2), (3, 4, 5), (2, 5, 3)])
def test_lambda_q_cartan_matches_defining_rule(p):
    ws = WeightSystem(p)
    for qvec in itertools.product(*[range(1, w) for w in p]):
        assert (lambda_q(ws, qvec).cartan == _ref_lambda_cartan(ws, qvec)).all(), qvec


def test_lambda_q_cartan_is_the_tensor_chain_cartan():
    # the Kronecker product of the Nakayama Cartans, left to right, on
    # every type of criterion 2 and on (5,6,7); a single weight is the
    # Nakayama algebra itself
    from test_acceptance import _types_with_cuboid_at_most

    for p in _types_with_cuboid_at_most(24) + [(5, 6, 7)]:
        ws = WeightSystem(p)
        for qvec in itertools.product(*[range(1, w) for w in p]):
            got = lambda_q(ws, qvec).cartan
            want = functools.reduce(np.kron, [nakayama(w - 1, qq).cartan for w, qq in zip(p, qvec)])
            assert got.dtype == want.dtype and np.array_equal(got, want), (p, qvec)


@pytest.mark.parametrize("letter, rank", [("D", 4), ("E", 6), ("E", 7), ("E", 8)])
def test_dynkin_cartan_counts_paths(letter, rank):
    alg = dynkin_path_algebra(letter, rank)
    assert (alg.cartan == _ref_dynkin_cartan(alg)).all()


def test_replicated_structure():
    a = nakayama(3, 3)
    assert replicated(a, 0) is a
    dup = replicated(a, 1)
    assert dup.size == 6
    c = a.cartan
    assert (dup.cartan[:3, :3] == c).all()
    assert (dup.cartan[3:, :3] == c.T).all()
    assert (dup.cartan[:3, 3:] == 0).all()
    assert (dup.cartan[3:, 3:] == c).all()


def test_gamma_quiver_shapes():
    g1 = gamma_quiver(W345, 0)
    assert g1.size == 24
    connecting = [a for a in g1.arrows if "*" in a[0]]
    assert len(connecting) == 1
    assert len([a for a in gamma_quiver(W345, 1).arrows if "*" in a[0]]) == 2
    assert len([a for a in gamma_quiver(W345, 2).arrows if "*" in a[0]]) == 3
    # a connecting arrow runs from the top corner of copy c + 1 to the bottom corner of copy c
    src, tgt = connecting[0][1], connecting[0][2]
    assert src == "(2,3,4)@1" and tgt == "(2,1,1)@0"


def test_arrows_follow_the_cartan_convention():
    # an arrow s -> t needs C[t][s] >= 1; q_i >= 2 wherever p_i >= 3, so
    # that each coordinate arrow survives its truncation
    from test_acceptance import _types_with_cuboid_at_most

    types = _types_with_cuboid_at_most(24) + [(2, 5), (3, 3), (2, 2, 3), (3, 4, 5), (2, 3, 4, 5), (5, 6, 7)]
    algebras = []
    for p in dict.fromkeys(types):
        ws = WeightSystem(p)
        algebras += [lambda_q(ws, qvec) for qvec in itertools.product(*[range(min(2, w - 1), w) for w in p])]
        algebras += [gamma_quiver(ws, t) for t in range(ws.n)]
    for alg in algebras:
        index = {v: i for i, v in enumerate(alg.vertices)}
        for label, s, t in alg.arrows:
            assert alg.cartan[index[t], index[s]] >= 1, (alg.name, label, s, t)


def test_gamma_34_is_nakayama_up_to_coxeter():
    # for two weights the replicated algebras are Nakayama algebras
    assert coxeter_polynomial(gamma_quiver(W34, 1)) == coxeter_polynomial(nakayama(6, 3))
    assert coxeter_polynomial(gamma_quiver(W34, 0)) == coxeter_polynomial(nakayama(6, 4))


def test_dynkin_cartans():
    a2 = dynkin_path_algebra("A", 2)
    assert (a2.cartan == np.array([[1, 1], [0, 1]])).all()
    d4 = dynkin_path_algebra("D", 4)
    assert d4.size == 4
    assert d4.cartan.sum() == 7  # identity plus three arrows
    assert dynkin_path_algebra("E", 6).size == 6
    with pytest.raises(ValueError):
        dynkin_path_algebra("E", 9)


def test_coxeter_examples():
    assert coxeter_polynomial(nakayama(1, 1)).coeffs == (1, 1)
    assert coxeter_polynomial(nakayama(2, 2)).coeffs == (1, 1, 1)


def test_coxeter_polynomial_of_345_cuboid():
    # the 24-vertex cuboid algebra of (3,4,5), the largest in the suites
    cub = lambda_q(W345, (2, 3, 4))
    assert cub.size == 24
    assert (cub.cartan == functools.reduce(np.kron, [nakayama(w - 1, w - 1).cartan for w in (3, 4, 5)])).all()
    assert coxeter_polynomial(cub).coeffs == (
        1, 1, 1, 0, -1, -2, -2, -1, 0, 1, 1, 1, 1, 1, 1, 1, 0, -1, -2, -2, -1, 0, 1, 1, 1,
    )  # fmt: skip


def test_coxeter_polynomial_of_empty_algebra():
    empty = AlgebraPresentation("empty", (), (), (), np.zeros((0, 0), dtype=np.int64))
    assert coxeter_polynomial(empty).coeffs == (1,)


def test_coxeter_transpose_check_fires(monkeypatch):
    from bpsing import qalg

    answers = iter([(1, 1, 1), (1, 0, 1)])
    monkeypatch.setattr(qalg, "charpoly_int", lambda phi: next(answers))
    with pytest.raises(RuntimeError, match="transpose convention"):
        coxeter_polynomial(nakayama(2, 2))


def test_coxeter_inverts_the_cartan_once(monkeypatch):
    from bpsing import qalg

    inverted = []
    inverse = qalg.inverse_unimodular
    monkeypatch.setattr(qalg, "inverse_unimodular", lambda c: inverted.append(c) or inverse(c))
    coxeter_polynomial(lambda_q(W345, (2, 3, 4)))
    assert len(inverted) == 1


def test_coxeter_polynomials_of_456_agree():
    # beyond every suite: the 60-vertex cuboid algebra of (4,5,6) against
    # Gamma^1..Gamma^3, checked without trusting charpoly_int
    ws = WeightSystem((4, 5, 6))
    algebras = [lambda_q(ws, (3, 4, 5))] + [gamma_quiver(ws, t) for t in range(ws.n)]
    assert [a.size for a in algebras] == [60] * 4
    polynomials = {coxeter_polynomial(a).coeffs for a in algebras}
    assert len(polynomials) == 1
    (coeffs,) = polynomials
    assert coeffs == coeffs[::-1] and coeffs[-1] == 1
    for a in algebras:
        c = np.array(a.cartan.tolist(), dtype=object)
        inverse_t = np.array(inverse_unimodular(c.T), dtype=object)
        assert (inverse_t @ c.T == np.eye(60, dtype=int)).all()
        assert coeffs[1] == (inverse_t @ c).trace()  # c_1 = -tr(-C^(-T) C)


def test_coxeter_deterministic():
    a = lambda_q(W34, (2, 3))
    assert (a.cartan == np.kron(nakayama(2, 2).cartan, nakayama(3, 3).cartan)).all()
    assert coxeter_polynomial(a) == coxeter_polynomial(a)


def test_coxeter_orientation_independent_for_d4():
    d4 = dynkin_path_algebra("D", 4)
    # reversed orientation: center into the three outer vertices
    rev = AlgebraPresentation(
        "D4rev",
        d4.vertices,
        tuple((lab, t, s) for lab, s, t in d4.arrows),
        (),
        d4.cartan.T,
    )
    assert coxeter_polynomial(d4) == coxeter_polynomial(rev)


def _suite_rows_agree(name):
    cases = []
    for case, algebras in COXETER_SUITES[name]():
        assert len({coxeter_polynomial(alg) for _, alg in algebras}) == 1, (name, case)
        cases.append(case)
    return cases


def test_happel_seidel_triples():
    assert _suite_rows_agree("happel-seidel") == [(3, 3), (3, 4), (3, 5), (4, 4), (2, 7)]


def test_replicated_derived_suite():
    assert _suite_rows_agree("replicated") == [(3, 4), (3, 4, 5), (2, 3, 4)]
    # the suite's cuboid entry is the cuboid algebra, one Gamma^t per coordinate
    for p, algebras in COXETER_SUITES["replicated"]():
        (name, cuboid), *gammas = algebras
        assert name == "cuboid" and (cuboid.cartan == _ref_lambda_cartan(WeightSystem(p), [w - 1 for w in p])).all()
        assert [g.name for _, g in gammas] == [f"Gamma^{t + 1}{WeightSystem(p)}" for t in range(len(p))]


def test_dynkin_suite():
    assert _suite_rows_agree("dynkin") == [(2, 2), (2, 3), (2, 4), (2, 2), (2, 3), (3, 3)]
    # each row's first algebra is A_l (x) A_m
    for (l, m), ((name, alg), _) in COXETER_SUITES["dynkin"]():
        assert name == f"A{l}xA{m}" and (alg.cartan == np.kron(nakayama(l, l).cartan, nakayama(m, m).cartan)).all()


def test_determinant_constant_on_classes():
    for a, b in ((3, 4), (4, 4)):
        m = (a - 1) * (b - 1)
        d1 = round(np.linalg.det(nakayama(m, a).cartan))
        d2 = round(np.linalg.det(np.kron(nakayama(a - 1, a - 1).cartan, nakayama(b - 1, b - 1).cartan)))
        assert abs(d1) == abs(d2) == 1
    # the Happel-Seidel suite's tensor entry is that Kronecker product
    for (a, b), algebras in COXETER_SUITES["happel-seidel"]():
        name, alg = algebras[-1]
        assert name == "tensor" and (alg.cartan == np.kron(nakayama(a - 1, a - 1).cartan, nakayama(b - 1, b - 1).cartan)).all()


def test_int_polynomial_str_and_json():
    p = IntPolynomial((1, 0, -2, 1))
    assert str(p) == "x^3 - 2*x + 1"
    assert p.to_json() == {"coeffs": [1, 0, -2, 1]}
    with pytest.raises(ValueError):
        IntPolynomial((0, 1))
    # (True, 0, -2) printed as x^2 - 2 with the JSON coefficient true
    for coeffs in ((True, 0, -2), (1, 0.0), (1, np.int64(2))):
        with pytest.raises(TypeError, match="not all ints"):
            IntPolynomial(coeffs)


def test_algebra_counts_are_integers():
    # True used to be read as 1: replicated(A2(2), True) was named
    # A2(2)^(True) and gamma_quiver(W34, True) built Gamma^2
    for build in (
        lambda: replicated(nakayama(2, 2), True),
        lambda: gamma_quiver(W34, True),
        lambda: nakayama(True, 1),
        lambda: nakayama(2, 2.0),
        lambda: dynkin_path_algebra("A", True),
        lambda: lambda_q(W34, (True, 2)),
    ):
        with pytest.raises(TypeError, match="is not an int"):
            build()
    with pytest.raises(ValueError, match="negative m -1"):
        replicated(nakayama(2, 2), -1)
    with pytest.raises(ValueError, match="coordinate t 2 outside 0..1"):
        gamma_quiver(W34, 2)
    assert replicated(nakayama(2, 2), np.int64(1)).name == "A2(2)^(1)"
    assert gamma_quiver(W34, np.int64(1)).name == gamma_quiver(W34, 1).name == "Gamma^2(3,4)"


def test_dot_export():
    dot = lambda_q(W34, (2, 2)).to_dot()
    assert dot.startswith("digraph")
    assert "style=dashed" in dot
    assert dot.count("->") >= 7


def test_cartan_is_read_exactly():
    # a float Cartan used to be truncated ([[1.7, 0.9], [0, 1]] became the
    # identity) and a uint64 entry beyond int64 used to wrap
    for bad in ([[1.7, 0.9], [0, 1]], np.array([[1, 2**64 - 1], [0, 1]], dtype=np.uint64), [[1, 2**63], [0, 1]]):
        with pytest.raises(ValueError):
            AlgebraPresentation("bad", ("1", "2"), (), (), bad)
    ok = AlgebraPresentation("ok", ("1", "2"), (), (), np.array([[1, 2**63 - 1], [0, 1]], dtype=np.uint64))
    assert ok.cartan.dtype == np.int64 and ok.cartan.tolist() == [[1, 2**63 - 1], [0, 1]]


def test_presentation_rejects_an_arrow_off_its_vertices():
    # to_dot used to fail on such an arrow with a KeyError
    for arrow in (("a", "1", "3"), ("a", "0", "2")):
        with pytest.raises(ValueError, match="does not join two vertices"):
            AlgebraPresentation("bad", ("1", "2"), (arrow,), (), np.eye(2, dtype=np.int64))


def test_presentation_rejects_a_repeated_vertex():
    # to_dot's index used to merge the two vertices silently
    with pytest.raises(ValueError, match="vertex label '1' is repeated"):
        AlgebraPresentation("bad", ("1", "2", "1"), (("a", "1", "2"),), (), np.eye(3, dtype=np.int64))
