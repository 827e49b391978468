"""Quiver algebras, Cartan matrices, Coxeter polynomials."""

import functools
import itertools
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

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
    # reachability: clipped powers of the adjacency matrix, which reads
    # an arrow s -> t as the entry C[t][s]
    k = alg.size
    index = {v: i for i, v in enumerate(alg.vertices)}
    adj = np.zeros((k, k), dtype=np.int64)
    for _, s, t in alg.arrows:
        adj[index[t], index[s]] = 1
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


@pytest.mark.parametrize("base", [nakayama(3, 2), lambda_q(W34, (2, 2))], ids=["A3(2)", "Lambda(3,4)(2,2)"])
def test_replicated_relations_name_its_vertices(base):
    # the copy suffix used to go on the target vertex only, so a relation
    # named a source vertex that does not exist and to_dot drew no edge for it
    for m in (1, 2):
        alg = replicated(base, m)
        paths = [rel for rel in alg.relations if " => " in rel]
        assert len(paths) == (m + 1) * len(base.relations)
        for rel in paths:
            left, _, right = rel.partition(" => ")
            assert left.split()[-1] in alg.vertices and right in alg.vertices, rel
        assert alg.to_dot().count("style=dashed") == len(paths)


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


def _convention_types():
    # every truncation, q_i = 1 included
    from test_acceptance import _types_with_cuboid_at_most

    types = _types_with_cuboid_at_most(24) + [(2, 5), (3, 3), (2, 2, 3), (3, 4, 5), (2, 3, 4, 5), (5, 6, 7)]
    for p in dict.fromkeys(types):
        yield WeightSystem(p), list(itertools.product(*[range(1, w) for w in p]))


def test_arrows_follow_the_cartan_convention():
    # an arrow s -> t needs C[t][s] >= 1, at nilpotency 1 too, where the
    # quiver draws no arrow that its relations would kill
    algebras = [nakayama(n, m) for n in range(1, 7) for m in range(1, n + 1)]
    algebras += [dynkin_path_algebra(letter, rank) for letter, rank in (("A", 1), ("A", 5), ("D", 4), ("E", 6), ("E", 7), ("E", 8))]
    algebras += [replicated(nakayama(4, 2), 2), replicated(lambda_q(W34, (2, 2)), 1)]
    algebras += [alg for suite in COXETER_SUITES.values() for _, row in suite() for _, alg in row]
    for ws, qvecs in _convention_types():
        algebras += [lambda_q(ws, qvec) for qvec in qvecs]
        algebras += [gamma_quiver(ws, t) for t in range(ws.n)]
    for alg in algebras:
        index = {v: i for i, v in enumerate(alg.vertices)}
        for label, s, t in alg.arrows:
            assert alg.cartan[index[t], index[s]] >= 1, (alg.name, label, s, t)


def _ref_lambda_quiver(ws, qvec):
    # the eager construction of the arrows and relations, as it was
    # before they were built on read, along the coordinates with q_i > 1
    box = list(itertools.product(*[range(w - 2, -1, -1) for w in ws.p]))
    label = {x: "(" + ",".join(str(v) for v in x) + ")" for x in box}
    in_box = set(box)
    moving = [i for i in range(ws.n) if qvec[i] > 1]
    arrows = []
    relations = []
    for x in box:
        for i in moving:
            y = x[:i] + (x[i] + 1,) + x[i + 1 :]
            if y in in_box:
                arrows.append((f"x{i + 1}", label[x], label[y]))
    for x in box:
        for i in moving:
            for j in [j for j in moving if j > i]:
                y = list(x)
                y[i] += 1
                y[j] += 1
                if tuple(y) in in_box:
                    relations.append(f"x{i + 1}x{j + 1}=x{j + 1}x{i + 1} {label[x]} => {label[tuple(y)]}")
        for i in moving:
            y = x[:i] + (x[i] + qvec[i],) + x[i + 1 :]
            if y in in_box:
                relations.append(f"x{i + 1}^{qvec[i]} {label[x]} => {label[y]}")
    return tuple(arrows), tuple(relations)


def _ref_replicated_quiver(base, m):
    arrows = []
    for r in range(m + 1):
        for lab, s, t in base.arrows:
            arrows.append((f"{lab}@{r}", f"{s}@{r}", f"{t}@{r}"))
    relations = tuple(rel.replace(" => ", f"@{r} => ") + f"@{r}" for r in range(m + 1) for rel in base.relations)
    return tuple(arrows), relations


def _ref_gamma_quiver(ws, t):
    n = ws.n
    pt = ws.p[t]
    others = [i for i in range(n) if i != t]
    slab = [tuple(w + 1 for w in x) for x in ws.box() if x[t] == pt - 2]
    label = {}
    for copy in range(pt - 2, -1, -1):
        for ell in slab:
            label[(ell, copy)] = "(" + ",".join(str(v) for v in ell) + f")@{copy}"
    slab_set = set(slab)
    arrows = []
    for copy in range(pt - 1):
        for ell in slab:
            for i in others:
                tgt = ell[:i] + (ell[i] + 1,) + ell[i + 1 :]
                if tgt in slab_set:
                    arrows.append((f"x{i + 1}", label[(ell, copy)], label[(tgt, copy)]))
    top, bottom = slab[0], slab[-1]
    connecting = "*".join(f"x{i + 1}" for i in others) or "1"
    for copy in range(pt - 2):
        arrows.append((connecting, label[(top, copy + 1)], label[(bottom, copy)]))
    relations = [f"x{i + 1}x{j + 1}=x{j + 1}x{i + 1}" for i in others for j in others if i < j]
    relations += [f"x{i + 1}^{ws.p[i]}=0" for i in others]
    return tuple(arrows), tuple(relations)


def test_quivers_built_on_read_equal_the_eager_ones():
    for ws, qvecs in _convention_types():
        for qvec in qvecs:
            alg = lambda_q(ws, qvec)
            assert (alg.arrows, alg.relations) == _ref_lambda_quiver(ws, qvec), (ws, qvec)
            for m in (1, 2):
                assert (replicated(alg, m).arrows, replicated(alg, m).relations) == _ref_replicated_quiver(alg, m), (ws, qvec, m)
        for t in range(ws.n):
            g = gamma_quiver(ws, t)
            assert (g.arrows, g.relations) == _ref_gamma_quiver(ws, t), (ws, t)


def test_a_builder_runs_once_on_first_read():
    calls = []

    def arrows():
        calls.append("arrows")
        return [("a", "2", "1")]

    alg = AlgebraPresentation("built", ("1", "2"), arrows, lambda: calls.append("relations") or ["2 => 1"], nakayama(2, 2).cartan)
    assert calls == [] and alg.size == 2
    assert alg.arrows == (("a", "2", "1"),) and alg.arrows is alg.arrows
    assert alg.relations == ("2 => 1",) and alg.relations is alg.relations
    assert calls == ["arrows", "relations"]
    # a builder whose arrow misses the vertices raises on every read
    bad = AlgebraPresentation("bad", ("1", "2"), lambda: [("a", "1", "3")], (), np.eye(2, dtype=np.int64))
    for _ in range(2):
        with pytest.raises(ValueError, match="does not join two vertices"):
            bad.arrows


def test_invariants_build_no_quiver():
    # the Coxeter suites and the predicted algebras read the Cartan and
    # the factors only
    from bpsing.tilting import family, predicted_cartan

    algebras = [alg for suite in COXETER_SUITES.values() for _, row in suite() for _, alg in row]
    for alg in algebras:
        coxeter_polynomial(alg)
    for ws in (W34, W345):
        kinds = [("cuboid", {}), ("koszul", {}), ("extended", {"subset": (0,)})] + [("replicated", {"t": t}) for t in range(ws.n)]
        algebras += [predicted_cartan(family(ws, kind, **kwargs)) for kind, kwargs in kinds]
    lazy = [alg for alg in algebras if alg.name.startswith(("Lambda", "Gamma")) or "^(" in alg.name]
    assert len(lazy) == 36
    assert all(callable(alg._arrows) and callable(alg._relations) for alg in lazy)


def test_lambda_q_records_its_factors():
    assert lambda_q(W345, (2, 3, 1)).factors == ((2, 2), (3, 3), (4, 1))
    assert gamma_quiver(W345, 0).factors == replicated(lambda_q(W34, (2, 2)), 1).factors == nakayama(3, 2).factors == ()
    with pytest.raises(ValueError, match="do not match the vertex count"):
        AlgebraPresentation("bad", ("1", "2"), (), (), factors=((2, 2), (2, 2)))


def test_factors_are_the_one_source_of_the_cartan():
    # the identity Cartan with the factor A_2(2) recorded used to get
    # A_2(2)'s polynomial x^2 + x + 1, not the identity's x^2 + 2x + 1
    with pytest.raises(ValueError, match="not both"):
        AlgebraPresentation("x", ("1", "2"), (), (), np.eye(2, dtype=np.int64), factors=((2, 2),))
    alg = AlgebraPresentation("x", ("1", "2"), (), (), factors=((2, 2),))
    assert alg.cartan.tolist() == nakayama(2, 2).cartan.tolist() and alg.cartan.dtype == np.int64
    assert coxeter_polynomial(alg).coeffs == (1, 1, 1)
    assert coxeter_polynomial(AlgebraPresentation("x", ("1", "2"), (), (), np.eye(2, dtype=np.int64))).coeffs == (1, 2, 1)
    for bad in (((2, 0),), ((2, 2.0),), ((True, 2), (2, 2))):
        with pytest.raises((TypeError, ValueError)):
            AlgebraPresentation("bad", ("1", "2"), (), (), factors=bad)


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


def test_coxeter_inverts_the_cartan_once(monkeypatch):
    from bpsing import qalg

    inverted = []
    inverse = qalg.inverse_unimodular
    monkeypatch.setattr(qalg, "inverse_unimodular", lambda c: inverted.append(c) or inverse(c))
    coxeter_polynomial(gamma_quiver(W345, 0))
    assert len(inverted) == 1


def test_coxeter_polynomials_of_456_agree():
    # beyond every suite: the 60-vertex cuboid algebra of (4,5,6) against
    # Gamma^1..Gamma^3, its first coefficient checked from the inverse
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


def _unfactored(alg):
    # the same Cartan without recorded factors takes the traces of its own Phi
    return coxeter_polynomial(AlgebraPresentation(alg.name, alg.vertices, (), (), alg.cartan))


def _factored_algebras():
    algebras = [alg for suite in COXETER_SUITES.values() for _, row in suite() for _, alg in row if alg.factors]
    assert len(algebras) == 14
    algebras += [lambda_q(W345, qvec) for qvec in itertools.product(range(1, 3), range(1, 4), range(1, 5))]
    algebras += [lambda_q(WeightSystem((4, 5, 6)), (3, 4, 5)), lambda_q(WeightSystem((5,)), (2,)), lambda_q(WeightSystem((2, 2, 2, 2)), (1, 1, 1, 1))]
    return algebras


def test_power_sums_equal_the_kernel():
    for alg in _factored_algebras():
        assert coxeter_polynomial(alg) == _unfactored(alg), alg.name


# -- the Coxeter polynomial against the direct loops -------------------------
#
# The references below are a Fraction-based Gauss-Jordan inverse and the
# Faddeev-LeVerrier loop in Python ints, exact at every step with no bound
# and no prime.  ``_ref_coxeter`` builds -C^(-T) C from them and reads its
# characteristic polynomial, by neither the power sums nor Newton's
# identities of ``coxeter_polynomial``.


def _ref_inverse_unimodular(a):
    n = len(a)
    m = [[Fraction(int(a[i][j])) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    out = [[m[i][n + j] for j in range(n)] for i in range(n)]
    if any(x.denominator != 1 for row in out for x in row):
        raise ValueError("matrix is not unimodular over the integers")
    return [[int(x) for x in row] for row in out]


def _ref_charpoly_int(a):
    n = len(a)
    a = [[int(x) for x in row] for row in a]
    coeffs = [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        tr = sum(am[i][i] for i in range(n))
        if tr % k:
            raise ArithmeticError("Faddeev-LeVerrier division must be exact")
        c = -tr // k
        coeffs.append(c)
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return tuple(coeffs)


def _ref_coxeter(cartan):
    c = [[int(x) for x in row] for row in cartan]
    n = len(c)
    inverse = _ref_inverse_unimodular(c)
    return _ref_charpoly_int([[-sum(inverse[t][i] * c[t][j] for t in range(n)) for j in range(n)] for i in range(n)])


def test_coxeter_polynomial_equals_the_exact_reference():
    algebras = [alg for suite in COXETER_SUITES.values() for _, row in suite() for _, alg in row]
    algebras += _factored_algebras()
    for alg in algebras:
        assert coxeter_polynomial(alg).coeffs == _ref_coxeter(alg.cartan), alg.name
    # seeded unitriangular Cartans, the upper triangle in 0..3, under a
    # simultaneous permutation of the vertices
    rng = np.random.default_rng(41)
    for n in range(13):
        for _ in range(4):
            perm = rng.permutation(n)
            cartan = (np.triu(rng.integers(0, 4, (n, n)), 1) + np.eye(n, dtype=np.int64))[perm][:, perm]
            alg = AlgebraPresentation("random", [str(i) for i in range(n)], (), (), cartan)
            assert coxeter_polynomial(alg).coeffs == _ref_coxeter(cartan), cartan.tolist()


def test_power_sums_with_the_wrong_sign_disagree():
    # -C^(-T) C = -(-1)^n Phi_1 (x) ... (x) Phi_n; the sign +(-1)^n gives
    # the polynomial of -Phi, on both parities of n
    from bpsing.qalg import _band, _coxeter_matrix, _from_power_sums, _trace_powers

    for p in ((3, 4), (3, 4, 5), (2, 3, 4, 5)):
        alg = lambda_q(WeightSystem(p), [w - 1 for w in p])
        sums = [(-1) ** (len(p) * j) for j in range(1, alg.size + 1)]
        for m, q in alg.factors:
            sums = [s * t for s, t in zip(sums, _trace_powers(_coxeter_matrix(_band(m, q)), alg.size))]
        assert _from_power_sums(sums) != _unfactored(alg).coeffs, p


def test_trace_powers_take_two_traces_per_product():
    from bpsing.qalg import _trace_powers

    phi = np.array([[2, -1, 0], [1, 0, 3], [-2, 1, 1]], dtype=object)
    power, naive = np.eye(3, dtype=object), []
    for _ in range(7):
        power = power @ phi
        naive.append(int(power.trace()))
    for count in range(1, 8):
        got = _trace_powers(phi, count)
        assert got == naive[:count] and all(type(t) is int for t in got), count


def test_newton_remainder_raises():
    from bpsing.qalg import _from_power_sums

    assert _from_power_sums([]) == (1,)
    assert _from_power_sums([-1, -1]) == (1, 1, 1)  # x^2 + x + 1
    with pytest.raises(ArithmeticError, match="Newton's identity 2 leaves the remainder 1"):
        _from_power_sums([0, 1])


def test_coxeter_polynomial_of_4567_cuboid_is_fast():
    # the 360-vertex cuboid algebra, from its three factors' traces
    alg = lambda_q(WeightSystem((4, 5, 6, 7)), (3, 4, 5, 6))
    start = time.perf_counter()
    poly = coxeter_polynomial(alg)
    assert time.perf_counter() - start < 1.0
    assert poly.degree == 360 and poly.coeffs == poly.coeffs[::-1]


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


def test_quiver_and_newton_checks_survive_python_O():
    # one factor's power sum s_2 off by one makes Newton's identity 2
    # leave a remainder; a polynomial that is not self-reciprocal fails
    # the guard on the factor path and on the unfactored path
    code = """
import numpy as np
from bpsing import qalg
from bpsing.grading import WeightSystem

trace_powers = qalg._trace_powers
qalg._trace_powers = lambda phi, count: [t + (j == 1) for j, t in enumerate(trace_powers(phi, count))]
try:
    qalg.coxeter_polynomial(qalg.lambda_q(WeightSystem((5,)), (4,)))
except ArithmeticError as exc:
    print("ArithmeticError:", exc)
qalg._trace_powers = trace_powers
qalg._from_power_sums = lambda sums: (1, 2, 3)
for alg in (qalg.lambda_q(WeightSystem((3,)), (2,)), qalg.nakayama(2, 2)):
    try:
        qalg.coxeter_polynomial(alg)
    except ArithmeticError as exc:
        print("ArithmeticError:", exc)
bad = qalg.AlgebraPresentation("bad", ("1", "2"), lambda: [("a", "1", "3")], (), np.eye(2, dtype=np.int64))
try:
    bad.arrows
except ValueError as exc:
    print("ValueError:", exc)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-B", "-O", "-c", code], env={"PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "ArithmeticError: Newton's identity 2 leaves the remainder 1: the power sums are not those of an integer matrix",
        "ArithmeticError: the Coxeter polynomial (1, 2, 3) of Lambda(3)(2,) is not self-reciprocal",
        "ArithmeticError: the Coxeter polynomial (1, 2, 3) of A2(2) is not self-reciprocal",
        "ValueError: arrow 'a' from '1' to '3' does not join two vertices",
    ]
