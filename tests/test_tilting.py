"""Tilting families: construction, endomorphism matrices, gluing."""

import itertools

import numpy as np
import pytest

from bpsing.functor import Ladder, check_recollement
from bpsing.grading import WeightSystem
from bpsing.qalg import gamma_quiver, lambda_q, matrix_csv, nakayama
from bpsing.functor import insert, reduce
from bpsing.mforacle import probe_objects
from bpsing.stable import StableObject, U, hom_dim, rho_k
from bpsing.tilting import (
    TiltingFamily,
    TiltingReport,
    _topological_order,
    family,
    glue,
    hom_matrix,
    predicted_cartan,
    same_family,
    verify_tilting,
)

W34 = WeightSystem((3, 4))
W345 = WeightSystem((3, 4, 5))


def test_family_sizes():
    assert family(W34, "cuboid").size == 6
    assert family(W34, "koszul").size == 6
    assert family(W345, "extended", subset=(0, 2)).size == 24
    for t in range(3):
        assert family(W345, "replicated", t=t).size == 24
    assert family(WeightSystem((2, 2)), "cuboid").size == 1


def test_family_rejects_arguments_that_do_not_apply():
    with pytest.raises(ValueError, match="cuboid families take no coordinate subset"):
        family(W34, "cuboid", subset=(0,))
    with pytest.raises(ValueError, match="koszul families take no coordinate t"):
        family(W34, "koszul", t=0)
    with pytest.raises(ValueError, match="replicated families take no coordinate subset"):
        family(W345, "replicated", subset=(0,), t=1)
    with pytest.raises(ValueError, match="extended families take no coordinate t"):
        family(W345, "extended", subset=(0,), t=2)
    with pytest.raises(ValueError, match="unknown family kind"):
        family(W34, "nonsense", subset=(0,))


def test_family_rejects_repeated_subset_coordinates():
    # a repeated coordinate used to be merged, and (0, 0) gave the extended:0 family
    with pytest.raises(ValueError, match=r"subset \(0, 0\) repeats coordinate 0"):
        family(W34, "extended", subset=(0, 0))
    with pytest.raises(ValueError, match="repeats coordinate 2"):
        family(W345, "extended", subset=(2, 0, 2))


def test_family_rejects_non_integer_coordinates():
    # 0.5 used to give a Koszul family named extended:0.5, and t=1.0 a
    # TypeError from inside the slab walk
    with pytest.raises(TypeError):
        family(W34, "extended", subset=(0.5,))
    with pytest.raises(TypeError):
        family(W34, "replicated", t=1.0)
    # True used to be read as coordinate 1
    with pytest.raises(TypeError):
        family(W34, "extended", subset=(True,))
    with pytest.raises(TypeError):
        family(W34, "replicated", t=True)
    # integer types other than int are coordinates all the same
    assert family(W345, "extended", subset=(np.int64(2), np.int64(0))) == family(W345, "extended", subset=(0, 2))
    assert family(W345, "replicated", t=np.int64(1)) == family(W345, "replicated", t=1)


def _nested_family(ws, subset):
    # the order before families followed their algebras: the ell
    # coordinates of the subset outside, the twists off it inside
    ell_ranges = [range(w - 1, 0, -1) if i in subset else (1,) for i, w in enumerate(ws.p)]
    x_ranges = [(0,) if i in subset else range(w - 2, -1, -1) for i, w in enumerate(ws.p)]
    return [U(ws, ell, ws.element(x), -sum(x)) for ell in itertools.product(*ell_ranges) for x in itertools.product(*x_ranges)]


@pytest.mark.parametrize("p", [(3, 4), (3, 4, 5), (2, 3, 4), (2, 2, 3)])
def test_extended_family_order(p):
    # a prefix subset keeps the nested order; any other subset lists the
    # same objects in the vertex order of Lambda(q)
    ws = WeightSystem(p)
    for r in range(ws.n + 1):
        for subset in itertools.combinations(range(ws.n), r):
            fam = family(ws, "extended", subset=subset)
            nested = _nested_family(ws, subset)
            if subset == tuple(range(r)):
                assert fam.labels == tuple(map(str, nested)), subset
            assert same_family(fam, TiltingFamily(ws, "nested", (), tuple(o.canonical() for o in nested))), subset


@pytest.mark.parametrize("p", [(5,), (3, 4), (3, 4, 5), (2, 3, 4)])
def test_replicated_slab_is_the_top_face_of_the_box(p):
    # copies descending, then the cuboid exponents ell with ell_t = p_t - 1
    # in descending order; the family and Gamma^t share that order
    ws = WeightSystem(p)
    cuboid = sorted(itertools.product(*(range(1, w) for w in p)), reverse=True)
    for t in range(ws.n):
        slab = [ell for ell in cuboid if ell[t] == p[t] - 1]
        copies = range(p[t] - 2, -1, -1)
        fam = family(ws, "replicated", t=t)
        assert fam.labels == tuple(str(U(ws, ell, -copy * ws.s(), copy * ws.n)) for copy in copies for ell in slab)
        want = tuple("(" + ",".join(map(str, ell)) + f")@{copy}" for copy in copies for ell in slab)
        assert gamma_quiver(ws, t).vertices == want


def test_predicted_algebras_are_lambda_q_and_gamma():
    for ws in (W34, W345, WeightSystem((2, 3, 4))):
        for r in range(ws.n + 1):
            for subset in itertools.combinations(range(ws.n), r):
                qvec = [w - 1 if i in subset else min(2, w - 1) for i, w in enumerate(ws.p)]
                pred, alg = predicted_cartan(family(ws, "extended", subset=subset)), lambda_q(ws, qvec)
                assert pred.name == alg.name and (pred.cartan == alg.cartan).all(), subset
        for t in range(ws.n):
            pred, alg = predicted_cartan(family(ws, "replicated", t=t)), gamma_quiver(ws, t)
            assert pred.name == alg.name and (pred.cartan == alg.cartan).all(), t


def test_endomorphisms_of_a_non_prefix_extended_family_are_lambda_q():
    fam = family(W345, "extended", subset=(1,))
    assert (hom_matrix(fam) == lambda_q(W345, (2, 3, 2)).cartan).all()


def test_extended_extremes():
    assert family(W34, "extended", subset=(0, 1)).kind == "cuboid"
    assert family(W34, "extended", subset=()).kind == "koszul"
    assert same_family(family(W34, "extended", subset=(0, 1)), family(W34, "cuboid"))
    assert same_family(family(W34, "extended", subset=()), family(W34, "koszul"))


def test_cuboid_matrix_is_grid_incidence():
    fam = family(WeightSystem((3, 3)), "cuboid")
    h = hom_matrix(fam)
    expected = np.kron(np.array([[1, 1], [0, 1]]), np.array([[1, 1], [0, 1]]))
    assert (h == expected).all()
    assert (np.diag(hom_matrix(family(W34, "koszul"))) == 1).all()


def test_koszul_matrix_matches_radical_square_tensor():
    fam = family(W34, "koszul")
    assert (hom_matrix(fam) == np.kron(nakayama(2, 2).cartan, nakayama(3, 2).cartan)).all()


@pytest.mark.parametrize("ws", [W34, W345])
def test_extended_matrices_match_mixed_tensors(ws):
    for r in range(ws.n + 1):
        for subset in itertools.combinations(range(ws.n), r):
            fam = family(ws, "extended", subset=subset)
            assert (hom_matrix(fam) == predicted_cartan(fam).cartan).all(), subset


@pytest.mark.parametrize("ws,t", [(W34, 0), (W34, 1), (W345, 0), (W345, 1), (W345, 2)])
def test_replicated_matrices_match_gamma_cartans(ws, t):
    fam = family(ws, "replicated", t=t)
    assert (hom_matrix(fam) == predicted_cartan(fam).cartan).all()


def test_verify_tilting_all_kinds():
    kinds = [("cuboid", {}), ("koszul", {}), ("extended", {"subset": (0,)}), ("replicated", {"t": 1})]
    for kind, kwargs in kinds:
        report = verify_tilting(family(W34, kind, **kwargs), window=(-8, 8))
        assert report.passed, (kind, report.rigidity_failures[:3])
        assert report.order is not None


def test_verify_single_object():
    report = verify_tilting(family(WeightSystem((2, 2)), "cuboid"))
    assert report.passed


@pytest.mark.parametrize("window", [(3, -3), (1, 4), (-4, -1)])
def test_verify_rejects_window_without_zero(window):
    # End is checked at shift 0, so a window without it would check nothing of it
    with pytest.raises(ValueError, match="does not contain 0"):
        verify_tilting(family(W34, "cuboid"), window=window)


@pytest.mark.parametrize("window", [(-1, 1, 7), (0,), ()])
def test_verify_rejects_window_that_is_not_a_pair(window):
    # (-1, 1, 7) used to run as (-1, 1), the 7 dropped without a word
    with pytest.raises(ValueError, match="unpack"):
        verify_tilting(family(WeightSystem((2, 2)), "cuboid"), window)


def test_glue_rejects_window_without_zero():
    # at (3, -3) no obstruction Hom would be asked and the glue would pass
    lad = Ladder(W34, 3)
    fams = [family(lad.emb(j).source, "cuboid") for j in (1, 2)]
    with pytest.raises(ValueError, match="does not contain 0"):
        glue(lad, *fams, 2, 0, window=(3, -3))


def test_windows_and_glue_steps_are_integers():
    # window (False, True) ran as (0, 1) and was reported as [false, true]
    fam = family(WeightSystem((2, 2)), "cuboid")
    for window in ((False, True), (-1.0, 1), (-1, 1.5)):
        with pytest.raises(TypeError, match="window"):
            verify_tilting(fam, window=window)
    assert verify_tilting(fam, window=(np.int64(-1), np.int64(1))).to_json() == verify_tilting(fam, window=(-1, 1)).to_json()
    lad = Ladder(W34, 3)
    fams = [family(lad.emb(j).source, "cuboid") for j in (1, 2)]
    for k1, k2 in ((True, 0), (2, 0.0)):
        with pytest.raises(TypeError, match="k"):
            glue(lad, *fams, k1, k2, window=(-1, 1))


def test_recollement_rejects_negative_level_bound():
    # level bound -1 leaves no level on which to check the composite
    with pytest.raises(ValueError, match="negative"):
        check_recollement(Ladder(W34, 3), level_bound=-1)


def test_corrupted_family_fails():
    fam = family(W34, "cuboid")
    bad = TiltingFamily(
        W34,
        "corrupted",
        fam.labels[:-1] + ("dup",),
        fam.objects[:-1] + (fam.objects[0].suspend(1),),
    )
    report = verify_tilting(bad, window=(-2, 2))
    assert not report.passed
    assert report.rigidity_failures


def test_csv_export():
    import csv
    import io

    fam = family(WeightSystem((3, 3)), "cuboid")
    text = matrix_csv(fam.labels, hom_matrix(fam))
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 5
    assert all(len(r) == 5 for r in rows)
    assert rows[0][1:] == list(fam.labels)


def test_glue_cuboid_workflow():
    lad = Ladder(W34, 3)
    f1 = family(lad.emb1.source, "cuboid")
    f2 = family(lad.emb2.source, "cuboid")
    glued, report = glue(lad, f1, f2, 2, 0)
    assert report.tilting
    assert same_family(glued, family(W34, "cuboid"))


def test_glue_koszul_workflow():
    lad = Ladder(W34, 3)
    f1 = family(lad.emb1.source, "koszul")
    f2 = family(lad.emb2.source, "koszul")
    glued, report = glue(lad, f1, f2, 1, -1)
    assert report.tilting
    assert same_family(glued, family(W34, "koszul"))


def test_glue_image_splits_cuboid():
    # the two insertion images partition the cuboid family
    lad = Ladder(W34, 3)
    f1 = family(lad.emb1.source, "cuboid")
    f2 = family(lad.emb2.source, "cuboid")
    glued, _ = glue(lad, f1, f2, 2, 0)
    assert glued.size == f1.size + f2.size == 6


def test_glue_with_empty_second_family():
    lad = Ladder(W34, 3)
    f1 = family(lad.emb1.source, "cuboid")
    empty = TiltingFamily(lad.emb2.source, "empty", (), ())
    glued, report = glue(lad, f1, empty, 2, 0)
    assert glued.size == f1.size
    assert report.tilting


# -- the per-shift loops that one hom_series per pair replaced, kept as the
# -- reference for the reports


def _ref_verify_json(fam, window=None):
    """verify_tilting's report, from a hom_dim search at every shift."""
    if window is None:
        window = (-(2 * fam.weights.n + 4), 2 * fam.weights.n + 4)
    rig, endo, unknown = [], [], []
    hom0 = np.zeros((fam.size, fam.size), dtype=np.int64)
    for a, oa in enumerate(fam.objects):
        for b, ob in enumerate(fam.objects):
            for m in range(window[0], window[1] + 1):
                h = hom_dim(oa, ob.suspend(m))
                if h is None:
                    unknown.append(f"Hom({fam.labels[a]}, {fam.labels[b]}[{m}])")
                    continue
                if m == 0:
                    hom0[a, b] = h
                    if a == b and h != 1:
                        endo.append(f"End({fam.labels[a]}) has dimension {h}")
                elif h != 0:
                    rig.append(f"Hom({fam.labels[a]}, {fam.labels[b]}[{m}]) = {h}")
    return TiltingReport(fam, window, rig, endo, unknown, _topological_order(fam, hom0)).to_json()


def _ref_glue_lists(ladder, fam1, fam2, k1, k2, window):
    """glue's obstruction and unknown lists, from a hom_dim search at
    every nonzero shift."""
    ob, obp, unknown = [], [], []
    shifts = [m for m in range(window[0], window[1] + 1) if m != 0]
    for objb, labb in zip(fam2.objects, fam2.labels):
        red = reduce(ladder, 1, k1, insert(ladder, 2, k2, objb))
        for obja, laba in zip(fam1.objects, fam1.labels):
            for m in shifts:
                h = hom_dim(red, obja.suspend(m))
                if h is None:
                    unknown.append(f"Hom(phi1({labb}), {laba}[{m}])")
                elif h != 0:
                    ob.append(f"Hom(phi1({labb}), {laba}[{m}]) = {h}")
    for obja, laba in zip(fam1.objects, fam1.labels):
        red = reduce(ladder, 2, k2 + 1, insert(ladder, 1, k1, obja))
        for objb, labb in zip(fam2.objects, fam2.labels):
            for m in shifts:
                h = hom_dim(objb, red.suspend(m))
                if h is None:
                    unknown.append(f"Hom({labb}, phi2({laba})[{m}])")
                elif h != 0:
                    obp.append(f"Hom({labb}, phi2({laba})[{m}]) = {h}")
    return ob, obp, unknown


def _criterion_2_family(ws, i):
    """One family per type, the kinds taken in turn."""
    kind = ("cuboid", "koszul", "extended", "replicated")[i % 4]
    if kind == "extended":
        return family(ws, kind, subset=(i % ws.n,))
    if kind == "replicated":
        return family(ws, kind, t=i % ws.n)
    return family(ws, kind)


def test_verify_reports_match_the_per_shift_reference():
    from test_acceptance import _types_with_cuboid_at_most

    # a short window keeps the per-shift reference affordable on all 172
    # types; the probe family below and the command-line tests take wide ones
    for i, p in enumerate(_types_with_cuboid_at_most(24)):
        fam = _criterion_2_family(WeightSystem(p), i)
        assert verify_tilting(fam, (-1, 2)).to_json() == _ref_verify_json(fam, (-1, 2)), (p, fam.kind)


def test_failing_report_matches_the_per_shift_reference():
    # probe objects of (4,5) make a family with unknown pairs and
    # rigidity failures, on a window wider than the reach of its Homs
    ws = WeightSystem((4, 5))
    objs = probe_objects(ws)[::5]
    fam = TiltingFamily(ws, "probes", tuple(map(str, objs)), tuple(o.canonical() for o in objs))
    for window in ((-3, 4), None):
        report = verify_tilting(fam, window)
        assert report.unknown_entries and report.rigidity_failures
        assert report.to_json() == _ref_verify_json(fam, window)


def test_glue_reports_match_the_per_shift_reference():
    from test_acceptance import _types_with_cuboid_at_most

    checked, lines = 0, [0, 0, 0]
    for i, p in enumerate(_types_with_cuboid_at_most(24)):
        ws = WeightSystem(p)
        if ws.p[-1] < 3:
            continue
        ladder = Ladder(ws, 2 + i % (ws.p[-1] - 2))
        fam1 = _criterion_2_family(ladder.emb1.source, i)
        fam2 = _criterion_2_family(ladder.emb2.source, i + 1)
        k1, k2, window = i % 3, i % 2 - 1, (-(i % 5) - 1, i % 7)
        _, report = glue(ladder, fam1, fam2, k1, k2, window)
        ref = _ref_glue_lists(ladder, fam1, fam2, k1, k2, window)
        assert (report.obstruction_b, report.obstruction_b_prime, report.unknown) == ref, (p, k1, k2)
        checked += 1
        lines = [n + len(r) for n, r in zip(lines, ref)]
    # arbitrary steps k1, k2 leave obstructions in both directions and unknowns
    assert checked > 100 and min(lines) > 0
