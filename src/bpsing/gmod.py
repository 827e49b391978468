"""Finite-dimensional graded modules over the hypersurface ring.

A module is a finite family of fibers M_x indexed by grading-group
degrees together with matrices for the X_i actions.  Construction
checks the shape of every action, that the actions commute and that
sum(X_i^p_i) acts by zero, so every value of this type really is a
module over the hypersurface.

The shift convention is (M(y))_x = M_{x+y}; the simple k(y) therefore
has its fiber in degree -y.

Every module lives over the one working field F_32003
(``DEFAULT_MODULUS``): actions are stored reduced mod 32003 and Hom
ranks are taken there.  Paranoia at the module level is the exact
rational mode of ``module_hom_dim``, not a second prime.

``module_hom_dim`` assembles its commutation system in coordinates,
with no dense block: the nonzeros of each action, from ``np.nonzero``,
give the entries of its Kronecker blocks A (x) I and -(I (x) B^T)
directly, and the ``linalg.SparseMatrix`` they make enters
``rank_mod`` through its one intake.  Each module keeps the target
degree x + x_i of every action it stores, so neither the system nor
the walks of ``power_act`` and the relation checks add degrees again.
"""

from __future__ import annotations

import itertools

import numpy as np

from .grading import GradeElement, GroupEmbedding, WeightSystem, _index, normalize
from .linalg import DEFAULT_MODULUS, SparseMatrix, rank_exact, rank_mod, residues


class GradedModule:
    """A graded module, validated once on construction.

    Every action is read by ``linalg.residues``, which reduces it mod
    32003 exactly.  Construction raises ``ValueError`` on an action
    keyed by a variable index i outside 0..n-1, on one that is not an
    integer matrix, on one that is not (dim M_{x+x_i}) x (dim M_x), so
    that an action keyed at a degree outside the support must be empty,
    on actions that do not commute, and on a sum X_i^p_i that does not
    act by zero.
    """

    def __init__(
        self,
        weights: WeightSystem,
        dims: dict[GradeElement, int],
        actions: dict[tuple[int, GradeElement], np.ndarray],
    ):
        self.weights = weights
        dims = {x: _index(d, "dimension", 0) for x, d in dims.items()}
        self.dims = {x: d for x, d in dims.items() if d > 0}
        self.actions = {}
        # the target degree x + x_i of each stored action, for the walks
        self._targets: dict[tuple[int, GradeElement], GradeElement] = {}
        for (i, x), mat in actions.items():
            i = _index(i, "variable index", 0, weights.n - 1)
            m = residues(mat, DEFAULT_MODULUS)
            target = x + weights.x(i)
            shape = (self.dim_at(target), self.dim_at(x))
            if m.shape != shape:
                raise ValueError(f"action X_{i+1} at {x} has shape {m.shape}, expected {shape}")
            if m.any():
                self.actions[(i, x)] = m
                self._targets[(i, x)] = target
        self._check_relations()

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def dim_at(self, x: GradeElement) -> int:
        return self.dims.get(x, 0)

    def act(self, i: int, x: GradeElement) -> np.ndarray:
        """Matrix of X_i from M_x to M_{x + x_i} (target_dim x source_dim)."""
        i = _index(i, "variable index", 0, self.weights.n - 1)
        mat = self.actions.get((i, x))
        if mat is None:
            return np.zeros((self.dim_at(x + self.weights.x(i)), self.dim_at(x)), dtype=np.int64)
        return mat

    def power_act(self, i: int, x: GradeElement, e: int) -> np.ndarray:
        """Matrix of X_i^e from M_x to M_{x + e*x_i}."""
        i = _index(i, "variable index", 0, self.weights.n - 1)
        e = _index(e, "exponent", 0)
        out = self._walk(x, (i,) * e)
        if out is None:
            return np.zeros((self.dim_at(x + e * self.weights.x(i)), self.dim_at(x)), dtype=np.int64)
        return out

    def _walk(self, x: GradeElement, word) -> np.ndarray | None:
        """The composite of the X_i along word, first letter first, from
        M_x; None at the first absent action, where the composite is zero."""
        out = None
        for i in word:
            mat = self.actions.get((i, x))
            if mat is None:
                return None
            out = mat if out is None else (mat @ out) % DEFAULT_MODULUS
            x = self._targets[(i, x)]
        return np.eye(self.dim_at(x), dtype=np.int64) if out is None else out

    def _check_relations(self) -> None:
        ws = self.weights
        for x in self.dims:
            for i, j in itertools.combinations(range(ws.n), 2):
                if not _vanishes(((1, self._walk(x, (i, j))), (-1, self._walk(x, (j, i))))):
                    raise ValueError(f"actions X_{i+1}, X_{j+1} do not commute at {x}")
            if x + ws.c() in self.dims and not _vanishes(((1, self._walk(x, (i,) * p)) for i, p in enumerate(ws.p))):
                raise ValueError(f"sum X_i^p_i does not vanish at {x}")

    def twist(self, y: GradeElement) -> GradedModule:
        """The shifted module M(y), with (M(y))_x = M_{x+y}."""
        dims = {x - y: d for x, d in self.dims.items()}
        actions = {(i, x - y): m for (i, x), m in self.actions.items()}
        return GradedModule(self.weights, dims, actions)

    def direct_sum(self, other: GradedModule) -> GradedModule:
        if self.weights != other.weights:
            raise ValueError("mismatched modules")
        dims = dict(self.dims)
        for x, d in other.dims.items():
            dims[x] = dims.get(x, 0) + d
        actions = {}
        ws = self.weights
        for x in dims:
            for i in range(ws.n):
                a = self.act(i, x)
                b = other.act(i, x)
                blk = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=np.int64)
                blk[: a.shape[0], : a.shape[1]] = a
                blk[a.shape[0] :, a.shape[1] :] = b
                if blk.any():
                    actions[(i, x)] = blk
        return GradedModule(ws, dims, actions)

    def to_json(self) -> dict:
        support = [{"degree": x.to_json(), "dim": d} for x, d in sorted(self.dims.items(), key=lambda t: (t[0].level, t[0].coeffs))]
        acts = []
        for (i, x), m in sorted(self.actions.items(), key=lambda t: (t[0][0], t[0][1].level, t[0][1].coeffs)):
            triplets = [[int(r), int(c), int(m[r, c])] for r, c in zip(*np.nonzero(m))]
            acts.append({"variable": i, "degree": x.to_json(), "entries": triplets})
        return {"weights": self.weights.to_json(), "support": support, "actions": acts}


def _vanishes(terms) -> bool:
    """Whether a signed sum of composites is zero in the field; None is zero."""
    present = [sign * mat for sign, mat in terms if mat is not None]
    return not present or not np.any(sum(present) % DEFAULT_MODULUS)


def make_simple(weights: WeightSystem, y: GradeElement | None = None) -> GradedModule:
    """The graded simple k(y), one-dimensional in degree -y."""
    if y is None:
        y = weights.zero()
    return GradedModule(weights, {-y: 1}, {})


def make_E(weights: WeightSystem, ell, y: GradeElement | None = None) -> GradedModule:
    """The cuboid module R/(X_i^ell_i), shifted by y.

    Requires 1 <= ell_i <= p_i - 1.  The module has a one-dimensional
    fiber in each degree w - y for w in the box [0, ell - s], every
    X_i acting by identity where both endpoints stay in the box.
    """
    ell = tuple(ell)
    if y is None:
        y = weights.zero()
    if len(ell) != weights.n:
        raise ValueError(f"ell {ell} has length {len(ell)}, weights {weights} have length {weights.n}")
    ell = tuple(_index(e, "ell entry", 1, w - 1) for e, w in zip(ell, weights.p))
    box = {w: normalize(weights, w) - y for w in itertools.product(*map(range, ell))}
    one = np.ones((1, 1), dtype=np.int64)
    actions = {(i, x): one for w, x in box.items() for i in range(weights.n) if w[i] + 1 < ell[i]}
    return GradedModule(weights, dict.fromkeys(box.values(), 1), actions)


def module_hom_dim(m: GradedModule, n: GradedModule, exact: bool = False) -> int:
    """Dimension of degree-0 module homomorphisms M -> N.

    Unknowns are the componentwise maps f_x, each a row-major
    (dim N_x) x (dim M_x) block, constrained to commute with every X_i
    action: N_i f_x = f_(x+x_i) M_i from M_x to N_(x+x_i).  The system
    has one row block for each action of M or of N between such
    degrees, and is assembled once, in coordinates: each nonzero of an
    action of N at x stands for the diagonal of a block A (x) I on f_x,
    and each nonzero of an action of M for the diagonal of a block
    -(I (x) B^T) on f_(x+x_i).  The answer is the nullity of that
    ``SparseMatrix`` over the working field; with ``exact`` the same
    coordinates, densified, are ranked over the rationals, for paranoia
    runs.
    """
    if m.weights != n.weights:
        raise ValueError("mismatched modules")
    q = DEFAULT_MODULUS
    offsets: dict[GradeElement, int] = {}
    total = 0
    for x, dm in m.dims.items():
        if x in n.dims:
            offsets[x] = total
            total += n.dims[x] * dm
    if total == 0:
        return 0
    rows, cols, vals = [], [], []
    height = 0
    # each step x -> x + x_i where M or N acts, with its target
    steps = {**n._targets, **m._targets}
    for key, target in steps.items():
        x = key[1]
        dm, dn = m.dim_at(x), n.dim_at(target)
        if not dm or not dn:
            continue
        a = n.actions.get(key)
        if a is not None:
            # (A (x) I_dm)[(r, c), (s, c)] = A[r, s] on f_x
            r, s = np.nonzero(a)
            c = np.arange(dm)
            rows.append((height + r[:, None] * dm + c).ravel())
            cols.append((offsets[x] + s[:, None] * dm + c).ravel())
            vals.append(np.repeat(a[r, s], dm))
        b = m.actions.get(key)
        if b is not None:
            # -(I_dn (x) B^T)[(r, c), (r, t)] = -B[t, c] on f_(x+x_i)
            t, c = np.nonzero(b)
            r = np.arange(dn)[:, None]
            rows.append((height + r * dm + c).ravel())
            cols.append((offsets[target] + r * b.shape[0] + t).ravel())
            vals.append(np.tile(q - b[t, c], dn))
        height += dn * dm
    if not rows:
        return total
    keys = np.concatenate(rows) * total + np.concatenate(cols)
    system = SparseMatrix((height, total), keys, np.concatenate(vals))
    if exact:
        dense = np.zeros(height * total, dtype=np.int64)
        np.add.at(dense, keys, system.values)
        dense = dense.reshape(height, total) % q
        return total - rank_exact(np.where(dense > q // 2, dense - q, dense))
    return total - rank_mod(system, q)


def phi0_module(emb: GroupEmbedding, m: GradedModule) -> GradedModule:
    """Degreewise reduction: fiber at x is M at theta(x) + (p_n - p_jn) x_n.

    X_i for i < n transports directly.  X_n acts by a single source
    step off the wrap and by X_n^(p_n - p_jn + 1) at the wrap, which is
    the unique choice compatible with the degree bookkeeping.
    """
    ws = emb.target
    if m.weights != ws:
        raise ValueError("module does not live over the full system")
    src = emb.source
    n = ws.n
    gap = ws.p[-1] - emb.split_weight
    step = gap * ws.x(n - 1)
    dims: dict[GradeElement, int] = {}
    fiber: dict[GradeElement, GradeElement] = {}
    for z, d in m.dims.items():
        zp = z - step
        if zp.coeffs[-1] < emb.split_weight:
            x = emb.theta_inv(zp)
            dims[x] = d
            fiber[x] = z
    actions: dict[tuple[int, GradeElement], np.ndarray] = {}
    for x, z in fiber.items():
        last = 1 if x.coeffs[-1] < emb.split_weight - 1 else gap + 1
        for i in range(n):
            # an absent action or composite is zero, which the module leaves out anyway
            mat = m._walk(z, (i,) * (last if i == n - 1 else 1))
            if mat is not None:
                actions[(i, x)] = mat
    return GradedModule(src, dims, actions)


def psi0_module(emb: GroupEmbedding, nm: GradedModule) -> GradedModule:
    """Degreewise insertion, stretching the last coordinate.

    Degrees with small last coefficient form a band of copies of the
    same source fiber, on which X_n acts by identity; across the band
    X_n acts by the source X_n map.
    """
    ws = emb.target
    src = emb.source
    if nm.weights != src:
        raise ValueError("module does not live over the reduced system")
    n = ws.n
    gap = ws.p[-1] - emb.split_weight
    steps = [t * ws.x(n - 1) for t in range(gap + 1)]
    dims: dict[GradeElement, int] = {}
    fiber: dict[GradeElement, GradeElement] = {}
    for w, d in nm.dims.items():
        wn = w.coeffs[-1]
        if wn == 0:
            xs = [emb.theta(w) + step for step in steps]
        else:
            xs = [emb.theta(w) + steps[gap]]
        for x in xs:
            dims[x] = d
            fiber[x] = w
    actions: dict[tuple[int, GradeElement], np.ndarray] = {}
    for x, w in fiber.items():
        band = x.coeffs[-1] < gap
        for i in range(n):
            # an absent action is zero, which the module leaves out anyway
            mat = np.eye(dims[x], dtype=np.int64) if i == n - 1 and band else nm.actions.get((i, w))
            if mat is not None:
                actions[(i, x)] = mat
    return GradedModule(ws, dims, actions)


def adjunction_check(emb: GroupEmbedding, full: list[GradedModule], reduced: list[GradedModule], pairs: int | None = None) -> list[bool]:
    """Dimension form of the (phi_0, psi_0) adjunction, dim Hom(phi_0 M,
    N) = dim Hom(M, psi_0 N), on the first ``pairs`` (M, N) of the
    product of the full and the reduced modules, all of them by default.

    Each phi_0 M and psi_0 N is built once, and only when a pair reads
    it; a single pair is the call on two one-module lists.
    """
    if pairs is not None:
        pairs = _index(pairs, "pair count", 0)
    read = list(itertools.islice(itertools.product(range(len(full)), range(len(reduced))), pairs))
    phi = {a: phi0_module(emb, full[a]) for a in dict.fromkeys(a for a, _ in read)}
    psi = {b: psi0_module(emb, reduced[b]) for b in dict.fromkeys(b for _, b in read)}
    return [module_hom_dim(phi[a], reduced[b]) == module_hom_dim(full[a], psi[b]) for a, b in read]
