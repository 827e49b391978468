"""Quivers with relations and exact derived invariants.

Cartan matrices follow one global convention, fixed once against the
cuboid endomorphism matrix and frozen: C[a][b] is the Hom dimension
from the projective at vertex position a to the one at position b.
For the equioriented A_n quiver with nilpotency m this reads
C[i][j] = 1 iff 0 <= j - i < m.  ``lambda_q`` is the one tensor
product of Nakayama algebras: its vertices are the box [0, delta] in
the order of ``WeightSystem.box``, which is the Kronecker order of the
factors' vertices, so its Cartan is the Kronecker product of their
band matrices, and it records the factors (p_i - 1, q_i).  Replicated
algebras are block lower bidiagonal with transposed duality blocks on
the subdiagonal.  Every quiver follows one arrow convention: an arrow
s -> t means C[t][s] >= 1.  ``lambda_q``, ``replicated`` and
``gamma_quiver`` build their arrows and relations on first read, so an
algebra whose quiver nobody prints costs its vertex labels and its
Cartan only.  At nilpotency 1 an arrow would be a relation itself, so
``nakayama(n, 1)`` draws no arrow and ``lambda_q`` none along a
coordinate with q_i = 1: every quiver is the Gabriel quiver.

Coxeter polynomials are characteristic polynomials of -C^(-T) C in
exact integer arithmetic, by one algorithm: the power sums
tr(Phi^j) of the Coxeter matrix, turned into the coefficients by
Newton's identities.  An algebra with recorded factors takes
tr(Phi^j) = (-(-1)^n)^j prod_i tr(Phi_i^j) from its n factors'
Coxeter matrices Phi_i; every other algebra (``gamma_quiver``,
``nakayama``, ``dynkin_path_algebra``, ``replicated`` and hand-built
ones) inverts C once and takes the traces of its own Phi, on object
arrays of Python ints.  Either way the result must be
self-reciprocal, as the Coxeter polynomial of a unimodular Cartan
is.  The polynomial is invariant under simultaneous vertex
permutation and under the transpose convention.  ``COXETER_SUITES``
holds the one definition of each derived-equivalence suite:
Happel-Seidel, the cuboid algebra Lambda(p - 1) against every
Gamma^t, and the Dynkin and replicated pairs.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .grading import WeightSystem, _index
from .linalg import integer_matrix, inverse_unimodular


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


class AlgebraPresentation:
    """A quiver with relations and its Cartan matrix.

    ``arrows`` ((label, source, target) triples) and ``relations`` are
    each given as a tuple, validated at construction, or as a
    zero-argument builder, called, validated and cached on first read.
    The Cartan is given either as ``cartan`` or, for a tensor product of
    Nakayama algebras, by ``factors``: the (size, nilpotency) of each
    factor, in Kronecker order, whose band matrices' Kronecker product
    is then built as the Cartan, so the two cannot disagree.  Giving
    both raises ``ValueError``; ``factors`` is empty for an algebra
    given by its Cartan.
    """

    def __init__(self, name: str, vertices, arrows, relations, cartan=None, factors=()) -> None:
        self.name = name
        self.vertices = tuple(vertices)
        self.factors = tuple((_index(size, "factor size", 1), _index(q, "nilpotency", 1)) for size, q in factors)
        if self.factors:
            if cartan is not None:
                raise ValueError("give the Cartan or the Nakayama factors, not both")
            if math.prod(size for size, _ in self.factors) != len(self.vertices):
                raise ValueError(f"Nakayama factors {self.factors} do not match the vertex count")
            cartan = _kron(_band(*f) for f in self.factors)
        c = integer_matrix(cartan)
        if c.shape != (len(self.vertices), len(self.vertices)):
            raise ValueError("Cartan matrix size does not match the vertex count")
        # an entry from 2**63 on would wrap in int64
        if (c < 0).any() or (c >= 2**63).any() or (np.diag(c) < 1).any():
            raise ValueError("Cartan entries must lie in [0, 2**63), with unit diagonal")
        self.cartan = c.astype(np.int64)
        if len(set(self.vertices)) != len(self.vertices):
            repeated = next(v for i, v in enumerate(self.vertices) if v in self.vertices[:i])
            raise ValueError(f"vertex label {repeated!r} is repeated")
        self._arrows = arrows if callable(arrows) else self._checked_arrows(arrows)
        self._relations = relations if callable(relations) else tuple(relations)

    def _checked_arrows(self, arrows) -> tuple[tuple[str, str, str], ...]:
        arrows = tuple(arrows)
        known = set(self.vertices)
        for label, s, t in arrows:
            if s not in known or t not in known:
                raise ValueError(f"arrow {label!r} from {s!r} to {t!r} does not join two vertices")
        return arrows

    @property
    def arrows(self) -> tuple[tuple[str, str, str], ...]:
        if callable(self._arrows):
            self._arrows = self._checked_arrows(self._arrows())
        return self._arrows

    @property
    def relations(self) -> tuple[str, ...]:
        if callable(self._relations):
            self._relations = tuple(self._relations())
        return self._relations

    @property
    def size(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        fields = ("name", "vertices", "arrows", "relations", "cartan", "factors")
        return f"AlgebraPresentation({', '.join(f'{f}={getattr(self, f)!r}' for f in fields)})"

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


def _band(n: int, m: int) -> np.ndarray:
    """The Cartan of the Nakayama algebra A_n(m): C[i][j] = 1 iff
    0 <= j - i < m."""
    d = np.arange(n)
    gap = d[None, :] - d[:, None]
    return ((0 <= gap) & (gap < m)).astype(np.int64)


def _kron(mats) -> np.ndarray:
    """The Kronecker product of square matrices, left to right."""
    out = np.ones((1, 1), dtype=np.int64)
    for m in mats:
        out = (out[:, None, :, None] * m[None, :, None, :]).reshape(len(out) * len(m), -1)
    return out


def nakayama(n: int, m: int) -> AlgebraPresentation:
    """The equioriented A_n path algebra modulo paths of length m.

    Its arrows run from i + 1 to i, so that C[t][s] >= 1 for each arrow
    s -> t, and each relation is the path of length m ending at i.  At
    m = 1 every arrow would be a relation, so there are neither."""
    n, m = _index(n, "n", 1), _index(m, "m", 1)
    vertices = tuple(str(i + 1) for i in range(n))
    arrows = tuple((f"a{i + 1}", str(i + 2), str(i + 1)) for i in range(n - 1) if m > 1)
    relations = tuple(f"{i + 1 + m} => {i + 1}" for i in range(n - m) if m > 1)
    return AlgebraPresentation(f"A{n}({m})", vertices, arrows, relations, _band(n, m))


def lambda_q(ws: WeightSystem, qvec) -> AlgebraPresentation:
    """The matrix algebra on the box [0, delta] with truncation exponents q.

    Vertices are the box elements; the Cartan entry at (x, y) is one
    exactly when x - y is a level-zero element with coefficients below
    q componentwise, matching the graded pieces of R/(X_i^q_i).  This
    algebra is the tensor product of the Nakayama algebras A_(p_i - 1)
    with nilpotency q_i, which it records as its factors, and the
    descending box order is the Kronecker order of their vertices, so
    the Cartan is the Kronecker product of their band matrices.  The
    arrows and relations are built on first read, along the coordinates
    with q_i > 1 only: at q_i = 1 the arrow x_i is itself a relation.
    """
    qvec = tuple(qvec)
    if len(qvec) != ws.n:
        raise ValueError(f"truncation exponents {qvec} have length {len(qvec)}, weights {ws} have length {ws.n}")
    qvec = tuple(_index(qq, "truncation exponent", 1, w - 1) for qq, w in zip(qvec, ws.p))
    box = ws.box()
    label = {x: "(" + ",".join(map(str, x)) + ")" for x in box}
    exponents = {i: qq for i, qq in enumerate(qvec) if qq > 1}
    return AlgebraPresentation(
        f"Lambda{ws}{qvec}",
        label.values(),
        lambda: _box_arrows(box, label, exponents),
        lambda: _box_relations(box, label, exponents),
        factors=[(w - 1, qq) for w, qq in zip(ws.p, qvec)],
    )


def _box_arrows(box, label, coords):
    """The arrows x -> x + e_i of the box along the coordinates i in
    ``coords``."""
    in_box = set(box)
    arrows = []
    for x in box:
        for i in coords:
            y = x[:i] + (x[i] + 1,) + x[i + 1 :]
            if y in in_box:
                arrows.append((f"x{i + 1}", label[x], label[y]))
    return arrows


def _box_relations(box, label, exponents):
    """The commutativity squares of the box, then the truncations
    x_i^q_i, vertex by vertex, along the coordinates i of ``exponents``
    (a dict i -> q_i)."""
    in_box = set(box)
    relations = []
    for x in box:
        for i, j in itertools.combinations(exponents, 2):
            y = list(x)
            y[i] += 1
            y[j] += 1
            if tuple(y) in in_box:
                relations.append(f"x{i + 1}x{j + 1}=x{j + 1}x{i + 1} {label[x]} => {label[tuple(y)]}")
        for i, q in exponents.items():
            y = x[:i] + (x[i] + q,) + x[i + 1 :]
            if y in in_box:
                relations.append(f"x{i + 1}^{q} {label[x]} => {label[y]}")
    return relations


def _replicated_cartan(c: np.ndarray, m: int) -> np.ndarray:
    """m + 1 diagonal copies of C, with C^T on the block subdiagonal."""
    k = len(c)
    cartan = np.zeros(((m + 1) * k, (m + 1) * k), dtype=np.int64)
    for r in range(m + 1):
        cartan[r * k : (r + 1) * k, r * k : (r + 1) * k] = c
        if r > 0:
            cartan[r * k : (r + 1) * k, (r - 1) * k : r * k] = c.T
    return cartan


def replicated(a: AlgebraPresentation, m: int) -> AlgebraPresentation:
    """The m-replicated algebra: m + 1 diagonal copies glued by duality.

    The Cartan is block lower bidiagonal: diagonal blocks are the
    Cartan of the base, subdiagonal blocks its transpose, reflecting
    dim e_i (D Lambda) e_j = dim e_j Lambda e_i.  The arrows and
    relations, the base's in each copy, are built on first read.
    """
    m = _index(m, "m", 0)
    if m == 0:
        return a
    vertices = tuple(f"{v}@{r}" for r in range(m + 1) for v in a.vertices)

    def arrows():
        return [(f"{lab}@{r}", f"{s}@{r}", f"{t}@{r}") for r in range(m + 1) for lab, s, t in a.arrows]

    def relations():
        # a path relation "... s => t" names two vertices, and both get the suffix
        return [rel.replace(" => ", f"@{r} => ") + f"@{r}" for r in range(m + 1) for rel in a.relations]

    return AlgebraPresentation(f"{a.name}^({m})", vertices, arrows, relations, _replicated_cartan(a.cartan, m))


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
    tilting-family convention.  The arrows and relations are built on
    first read.
    """
    n = ws.n
    t = _index(t, "coordinate t", 0, n - 1)
    pt = ws.p[t]
    others = [i for i in range(n) if i != t]
    slab = [tuple(w + 1 for w in x) for x in ws.box() if x[t] == pt - 2]
    copies = range(pt - 2, -1, -1)
    label = {copy: {ell: "(" + ",".join(map(str, ell)) + f")@{copy}" for ell in slab} for copy in copies}

    def arrows():
        # coordinate t is constant on the slab, so only the others move
        out = [arrow for copy in range(pt - 1) for arrow in _box_arrows(slab, label[copy], others)]
        top, bottom = slab[0], slab[-1]
        # the empty product when n = 1
        connecting = "*".join(f"x{i + 1}" for i in others) or "1"
        out += [(connecting, label[copy + 1][top], label[copy][bottom]) for copy in range(pt - 2)]
        return out

    def relations():
        commuting = [f"x{i + 1}x{j + 1}=x{j + 1}x{i + 1}" for i in others for j in others if i < j]
        return commuting + [f"x{i + 1}^{ws.p[i]}=0" for i in others]

    # the Cartan of lambda_q(p - 1) on the other coordinates; with none,
    # the empty Kronecker product is the ground field's [[1]]
    base = _kron(_band(ws.p[i] - 1, ws.p[i] - 1) for i in others)
    vertices = [v for copy in copies for v in label[copy].values()]
    return AlgebraPresentation(f"Gamma^{t + 1}{ws}", vertices, arrows, relations, _replicated_cartan(base, pt - 2))


def dynkin_path_algebra(letter: str, rank: int) -> AlgebraPresentation:
    """Path algebra of a Dynkin tree in a fixed orientation.

    A is the linear orientation of ``nakayama``, with no relations.  D
    draws the center 4 mapping to each of the outer vertices 1, 2, 3; E
    draws the linear chain with its arrows i + 1 -> i, as in A, and the
    branch vertex as the target of an arrow from the third node of the
    chain.  For D and E the Cartan is (I - A^T)^(-1), A the adjacency
    matrix of the drawn arrows, whose entries count the paths: C[s][t]
    is the number of paths from t to s.  The quiver has no oriented
    cycle, so A is nilpotent and I - A^T is unimodular.
    """
    letter = letter.upper()
    rank = _index(rank, "Dynkin rank", 1)
    if letter == "A":
        return nakayama(rank, rank)
    if letter == "D":
        if rank != 4:
            raise ValueError("only D_4 is provided")
        vertices = ("1", "2", "3", "4")
        arrows = (("a", "4", "1"), ("b", "4", "2"), ("c", "4", "3"))
    elif letter == "E":
        if rank not in (6, 7, 8):
            raise ValueError("only E_6, E_7, E_8 exist")
        chain = rank - 1
        vertices = tuple(str(i + 1) for i in range(rank))
        arrows = tuple((f"a{i + 1}", str(i + 2), str(i + 1)) for i in range(chain - 1))
        arrows += (("b", "3", str(rank)),)
    else:
        raise ValueError(f"unknown Dynkin letter {letter}")
    k = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    adj_t = np.zeros((k, k), dtype=np.int64)
    for _, s, t in arrows:
        adj_t[index[t], index[s]] = 1
    cartan = inverse_unimodular(np.eye(k, dtype=np.int64) - adj_t)
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
    """Characteristic polynomial of Phi = -C^(-T) C, exact (see the
    module docstring): Newton's identities on the power sums
    tr(Phi^j), from the recorded Nakayama factors when ``a`` has them
    and from Phi itself otherwise.  C Phi^(-1) C^(-1) = Phi^T and
    det Phi = (-1)^k make the polynomial self-reciprocal, c_i = c_(k-i);
    a result that is not raises ``ArithmeticError``."""
    sums = _tensor_power_sums(a.factors) if a.factors else _trace_powers(_coxeter_matrix(a.cartan), a.size)
    coeffs = _from_power_sums(sums)
    if coeffs != coeffs[::-1]:
        raise ArithmeticError(f"the Coxeter polynomial {coeffs} of {a.name} is not self-reciprocal")
    return IntPolynomial(coeffs)


def _coxeter_matrix(cartan: np.ndarray) -> np.ndarray:
    """-C^(-T) C as an object array of Python ints."""
    c = np.array(cartan.tolist(), dtype=object).reshape(cartan.shape)
    return -(np.array(inverse_unimodular(c), dtype=object).reshape(c.shape).T @ c)


def _tensor_power_sums(factors) -> list[int]:
    """The power sums of the Coxeter matrix of a tensor product of
    Nakayama algebras.

    C = C_1 (x) ... (x) C_n gives -C^(-T) C = -(-1)^n Phi_1 (x) ... (x)
    Phi_n, Phi_i the Coxeter matrix of factor i, and the trace of a
    Kronecker product is the product of the traces, so the power sums
    tr(Phi^j), j = 1..size, come from the factors' small matrices."""
    size = math.prod(m for m, _ in factors)
    sign = -((-1) ** len(factors))
    sums = [sign**j for j in range(1, size + 1)]
    for m, q in factors:
        sums = list(map(operator.mul, sums, _trace_powers(_coxeter_matrix(_band(m, q)), size)))
    return sums


def _trace_powers(phi: np.ndarray, count: int) -> list[int]:
    """tr(Phi^j) for j = 1..count, in Python ints, two from each power:
    tr(A B) is the sum of the entries of A o B^T, so Phi^(a+1) gives
    tr(Phi^(2a+1)) against Phi^a and tr(Phi^(2a+2)) against itself,
    and the last power formed is Phi^ceil(count / 2)."""
    traces, before, power = [], np.eye(len(phi), dtype=object), phi
    while True:
        transposed = power.T.ravel()
        traces += [before.ravel().dot(transposed), power.ravel().dot(transposed)]
        if len(traces) >= count:
            return traces[:count]
        before, power = power, power @ phi


def _from_power_sums(sums) -> tuple[int, ...]:
    """The monic polynomial whose roots have the power sums s_1, s_2, ...:
    Newton's identities k c_k = -(s_k + c_1 s_(k-1) + ... + c_(k-1) s_1),
    leading coefficient first.  ``ArithmeticError`` if a division by k
    leaves a remainder, which integer power sums of an integer matrix
    never do."""
    coeffs = [1]
    for k in range(1, len(sums) + 1):
        total = sum(map(operator.mul, coeffs, reversed(sums[:k])))
        c, r = divmod(-total, k)
        if r:
            raise ArithmeticError(f"Newton's identity {k} leaves the remainder {r}: the power sums are not those of an integer matrix")
        coeffs.append(c)
    return tuple(coeffs)
