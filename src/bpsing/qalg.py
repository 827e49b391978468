"""Quivers with relations and exact derived invariants.

Cartan matrices follow one global convention, fixed once against the
cuboid endomorphism matrix and frozen: C[a][b] is the Hom dimension
from the projective at vertex position a to the one at position b.
For the equioriented A_n quiver with nilpotency m this reads
C[i][j] = 1 iff 0 <= j - i < m.  ``lambda_q`` is the one tensor
product of Nakayama algebras: its vertices are the box [0, delta] in
the order of ``WeightSystem.box``, which is the Kronecker order of the
factors' vertices, so its Cartan is the Kronecker product of theirs.
Replicated algebras are block lower bidiagonal with transposed duality
blocks on the subdiagonal.  The arrows of ``lambda_q`` and
``gamma_quiver`` follow one convention: an arrow s -> t means
C[t][s] >= 1.

Coxeter polynomials are characteristic polynomials of -C^(-T) C in
exact integer arithmetic, by the multimodular ``charpoly_int``.  They
are invariant under simultaneous vertex permutation and under the
transpose convention: C is inverted once, and -C^(-1) C^T, a second
integer matrix with the same polynomial, is computed on every call as
a self-check of the kernel.  ``COXETER_SUITES`` holds
the one definition of each derived-equivalence suite: Happel-Seidel,
the cuboid algebra Lambda(p - 1) against every Gamma^t, and the
Dynkin and replicated pairs.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass

import numpy as np

from .grading import WeightSystem, _index
from .linalg import charpoly_int, integer_matrix, inverse_unimodular


@dataclass(frozen=True)
class IntPolynomial:
    """Integer coefficients, leading coefficient first."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(type(c) is not int for c in self.coeffs):
            raise TypeError(f"coefficients {self.coeffs!r} are not all ints")
        if not self.coeffs or self.coeffs[0] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs)}

    def __str__(self) -> str:
        terms = []
        deg = self.degree
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = deg - i
            mono = "1" if e == 0 else ("x" if e == 1 else f"x^{e}")
            if e == 0:
                terms.append(f"{c}")
            elif c == 1:
                terms.append(mono)
            elif c == -1:
                terms.append(f"-{mono}")
            else:
                terms.append(f"{c}*{mono}")
        return " + ".join(terms).replace("+ -", "- ")


@dataclass
class AlgebraPresentation:
    name: str
    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]  # (label, source, target)
    relations: tuple[str, ...]
    cartan: np.ndarray

    def __post_init__(self) -> None:
        c = integer_matrix(self.cartan)
        if c.shape != (len(self.vertices), len(self.vertices)):
            raise ValueError("Cartan matrix size does not match the vertex count")
        # an entry from 2**63 on would wrap in int64
        if (c < 0).any() or (c >= 2**63).any() or (np.diag(c) < 1).any():
            raise ValueError("Cartan entries must lie in [0, 2**63), with unit diagonal")
        self.cartan = c.astype(np.int64)
        known = set(self.vertices)
        if len(known) != len(self.vertices):
            repeated = next(v for i, v in enumerate(self.vertices) if v in self.vertices[:i])
            raise ValueError(f"vertex label {repeated!r} is repeated")
        for label, s, t in self.arrows:
            if s not in known or t not in known:
                raise ValueError(f"arrow {label!r} from {s!r} to {t!r} does not join two vertices")

    @property
    def size(self) -> int:
        return len(self.vertices)

    def cartan_csv(self) -> str:
        return matrix_csv(self.vertices, self.cartan)

    def to_dot(self) -> str:
        out = [f'digraph "{self.name}" {{']
        index = {v: f"v{i}" for i, v in enumerate(self.vertices)}
        for v in self.vertices:
            out.append(f'  {index[v]} [label="{v}"];')
        for label, s, t in self.arrows:
            out.append(f'  {index[s]} -> {index[t]} [label="{label}"];')
        for rel in self.relations:
            if "=>" not in rel:
                continue
            left, _, right = rel.rpartition("=>")
            s = left.split()[-1] if left.split() else ""
            t = right.strip()
            if s in index and t in index:
                out.append(f"  {index[s]} -> {index[t]} [style=dashed, arrowhead=none];")
        out.append("}")
        return "\n".join(out) + "\n"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "vertices": list(self.vertices),
            "arrows": [list(a) for a in self.arrows],
            "relations": list(self.relations),
            "cartan": self.cartan.tolist(),
        }


def matrix_csv(labels, matrix) -> str:
    """A square integer matrix as CSV, with its labels as header row
    and header column."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["", *labels])
    for label, row in zip(labels, matrix):
        writer.writerow([label, *(int(x) for x in row)])
    return out.getvalue()


def nakayama(n: int, m: int) -> AlgebraPresentation:
    """The equioriented A_n path algebra modulo paths of length m."""
    n, m = _index(n, "n", 1), _index(m, "m", 1)
    vertices = tuple(str(i + 1) for i in range(n))
    arrows = tuple((f"a{i + 1}", str(i + 1), str(i + 2)) for i in range(n - 1))
    relations = tuple(f"{i + 1} => {i + 1 + m}" for i in range(n - m))
    cartan = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i, min(i + m, n)):
            cartan[i, j] = 1
    return AlgebraPresentation(f"A{n}({m})", vertices, arrows, relations, cartan)


def lambda_q(ws: WeightSystem, qvec) -> AlgebraPresentation:
    """The matrix algebra on the box [0, delta] with truncation exponents q.

    Vertices are the box elements; the Cartan entry at (x, y) is one
    exactly when x - y is a level-zero element with coefficients below
    q componentwise, matching the graded pieces of R/(X_i^q_i).  This
    algebra is the tensor product of the Nakayama algebras A_(p_i - 1)
    with nilpotency q_i, and the descending box order is the Kronecker
    order of their vertices, so the Cartan is the Kronecker product of
    their Cartans.
    """
    qvec = tuple(qvec)
    if len(qvec) != ws.n:
        raise ValueError(f"truncation exponents {qvec} have length {len(qvec)}, weights {ws} have length {ws.n}")
    qvec = tuple(_index(qq, "truncation exponent", 1, w - 1) for qq, w in zip(qvec, ws.p))
    box = ws.box()
    label = {x: "(" + ",".join(str(v) for v in x) + ")" for x in box}
    vertices = tuple(label[x] for x in box)
    in_box = set(box)
    arrows = []
    relations = []
    for x in box:
        for i in range(ws.n):
            y = x[:i] + (x[i] + 1,) + x[i + 1 :]
            if y in in_box:
                arrows.append((f"x{i + 1}", label[x], label[y]))
    for x in box:
        for i in range(ws.n):
            for j in range(i + 1, ws.n):
                y = list(x)
                y[i] += 1
                y[j] += 1
                if tuple(y) in in_box:
                    relations.append(f"x{i + 1}x{j + 1}=x{j + 1}x{i + 1} {label[x]} => {label[tuple(y)]}")
        for i in range(ws.n):
            y = x[:i] + (x[i] + qvec[i],) + x[i + 1 :]
            if y in in_box:
                relations.append(f"x{i + 1}^{qvec[i]} {label[x]} => {label[y]}")
    cartan = functools.reduce(np.kron, (nakayama(w - 1, qq).cartan for w, qq in zip(ws.p, qvec)))
    return AlgebraPresentation(f"Lambda{ws}{qvec}", vertices, tuple(arrows), tuple(relations), cartan)


def replicated(a: AlgebraPresentation, m: int) -> AlgebraPresentation:
    """The m-replicated algebra: m + 1 diagonal copies glued by duality.

    The Cartan is block lower bidiagonal: diagonal blocks are the
    Cartan of the base, subdiagonal blocks its transpose, reflecting
    dim e_i (D Lambda) e_j = dim e_j Lambda e_i.
    """
    m = _index(m, "m", 0)
    if m == 0:
        return a
    k = a.size
    vertices = tuple(f"{v}@{r}" for r in range(m + 1) for v in a.vertices)
    arrows = []
    for r in range(m + 1):
        for lab, s, t in a.arrows:
            arrows.append((f"{lab}@{r}", f"{s}@{r}", f"{t}@{r}"))
    # a path relation "... s => t" names two vertices, and both get the suffix
    relations = tuple(rel.replace(" => ", f"@{r} => ") + f"@{r}" for r in range(m + 1) for rel in a.relations)
    cartan = np.zeros(((m + 1) * k, (m + 1) * k), dtype=np.int64)
    for r in range(m + 1):
        cartan[r * k : (r + 1) * k, r * k : (r + 1) * k] = a.cartan
        if r > 0:
            cartan[r * k : (r + 1) * k, (r - 1) * k : r * k] = a.cartan.T
    return AlgebraPresentation(f"{a.name}^({m})", vertices, tuple(arrows), relations, cartan)


def gamma_quiver(ws: WeightSystem, t: int) -> AlgebraPresentation:
    """Replicated-algebra quiver attached to coordinate t (0-based).

    Vertices are slab elements (the cuboid face with coordinate t
    maximal: ell = w + 1 for the box elements w with w_t = p_t - 2)
    times copy indices 0..p_t - 2, with the coordinate arrows inside
    each slab and one connecting arrow per consecutive pair of copies,
    from the top corner of copy c + 1 to the bottom corner of copy c.
    The Cartan is the replicated Cartan of ``lambda_q`` on the remaining
    coordinates (the ground field when there are none), with vertex
    positions ordered copy-descending and slab-descending to match the
    tilting-family convention.
    """
    n = ws.n
    t = _index(t, "coordinate t", 0, n - 1)
    pt = ws.p[t]
    others = [i for i in range(n) if i != t]
    slab = [tuple(w + 1 for w in x) for x in ws.box() if x[t] == pt - 2]
    label = {}
    vertices = []
    for copy in range(pt - 2, -1, -1):
        for ell in slab:
            lab = "(" + ",".join(str(v) for v in ell) + f")@{copy}"
            label[(ell, copy)] = lab
            vertices.append(lab)
    slab_set = set(slab)
    arrows = []
    for copy in range(pt - 1):
        for ell in slab:
            for i in others:
                tgt = ell[:i] + (ell[i] + 1,) + ell[i + 1 :]
                if tgt in slab_set:
                    arrows.append((f"x{i + 1}", label[(ell, copy)], label[(tgt, copy)]))
    top, bottom = slab[0], slab[-1]
    # the empty product when n = 1
    connecting = "*".join(f"x{i + 1}" for i in others) or "1"
    for copy in range(pt - 2):
        arrows.append((connecting, label[(top, copy + 1)], label[(bottom, copy)]))
    relations = [f"x{i + 1}x{j + 1}=x{j + 1}x{i + 1}" for i in others for j in others if i < j]
    relations += [f"x{i + 1}^{ws.p[i]}=0" for i in others]
    base = lambda_q(WeightSystem(tuple(ws.p[i] for i in others)), [ws.p[i] - 1 for i in others]) if others else nakayama(1, 1)
    cartan = replicated(base, pt - 2).cartan
    return AlgebraPresentation(f"Gamma^{t + 1}{ws}", tuple(vertices), tuple(arrows), tuple(relations), cartan)


def dynkin_path_algebra(letter: str, rank: int) -> AlgebraPresentation:
    """Path algebra of a Dynkin tree in a fixed orientation.

    A is the linear orientation; D uses the subspace orientation with
    every outer vertex mapping into the center; E attaches the branch
    vertex to the third node of the linear chain.  A is the Nakayama
    algebra with no relations; for D and E the Cartan is (I - A)^(-1),
    A the adjacency matrix, whose entries count the paths.  The quiver
    has no oriented cycle, so A is nilpotent and I - A is unimodular.
    """
    letter = letter.upper()
    rank = _index(rank, "Dynkin rank", 1)
    if letter == "A":
        return nakayama(rank, rank)
    if letter == "D":
        if rank != 4:
            raise ValueError("only D_4 is provided")
        vertices = ("1", "2", "3", "4")
        arrows = (("a", "1", "4"), ("b", "2", "4"), ("c", "3", "4"))
    elif letter == "E":
        if rank not in (6, 7, 8):
            raise ValueError("only E_6, E_7, E_8 exist")
        chain = rank - 1
        vertices = tuple(str(i + 1) for i in range(rank))
        arrows = tuple((f"a{i + 1}", str(i + 1), str(i + 2)) for i in range(chain - 1))
        arrows += ((f"b", str(rank), "3"),)
    else:
        raise ValueError(f"unknown Dynkin letter {letter}")
    k = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    adj = np.zeros((k, k), dtype=np.int64)
    for _, s, t in arrows:
        adj[index[s], index[t]] = 1
    cartan = inverse_unimodular(np.eye(k, dtype=np.int64) - adj)
    return AlgebraPresentation(f"{letter}{rank}", vertices, arrows, (), cartan)


def _happel_seidel_suite():
    for a, b in ((3, 3), (3, 4), (3, 5), (4, 4), (2, 7)):
        m = (a - 1) * (b - 1)
        yield (a, b), [
            (f"A_m({a})", nakayama(m, a)),
            (f"A_m({b})", nakayama(m, b)),
            ("tensor", lambda_q(WeightSystem((a, b)), (a - 1, b - 1))),
        ]


def _replicated_suite():
    for p in ((3, 4), (3, 4, 5), (2, 3, 4)):
        ws = WeightSystem(p)
        cuboid = ("cuboid", lambda_q(ws, [w - 1 for w in p]))
        yield p, [cuboid] + [(f"Gamma^{t + 1}", gamma_quiver(ws, t)) for t in range(ws.n)]


def _dynkin_suite():
    for m, letter, rank in ((2, "D", 4), (3, "E", 6), (4, "E", 8)):
        yield (2, m), [(f"A2xA{m}", lambda_q(WeightSystem((3, m + 1)), (2, m))), (f"{letter}{rank}", dynkin_path_algebra(letter, rank))]
    for l, m in ((2, 2), (2, 3), (3, 3)):
        yield (l, m), [(f"A{l}xA{m}", lambda_q(WeightSystem((l + 1, m + 1)), (l, m))), (f"A{m}^({l - 1})", replicated(nakayama(m, m), l - 1))]


# The derived-equivalence suites by name.  Calling one yields its cases
# as (case, [(name, algebra), ...]) rows; the algebras of a row must
# share one Coxeter polynomial.
COXETER_SUITES = {
    "happel-seidel": _happel_seidel_suite,
    "replicated": _replicated_suite,
    "dynkin": _dynkin_suite,
}


def coxeter_polynomial(a: AlgebraPresentation) -> IntPolynomial:
    """Characteristic polynomial of -C^(-T) C, exact, checked against
    that of -C^(-1) C^T (see the module docstring)."""
    k = a.size
    c = np.array(a.cartan.tolist(), dtype=object).reshape(k, k)
    inv = np.array(inverse_unimodular(c), dtype=object).reshape(k, k)
    coeffs = charpoly_int(-(inv.T @ c))
    if charpoly_int(-(inv @ c.T)) != coeffs:
        raise RuntimeError("Coxeter polynomial must not depend on the transpose convention")
    return IntPolynomial(coeffs)
