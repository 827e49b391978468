"""Finite-dimensional graded modules over the hypersurface ring.

A module is a finite family of fibers M_x indexed by grading-group
degrees together with the X_i actions.  It is stored in one form, in
coordinates: the fibers make one basis, ordered by degree, and each
X_i is one coordinate matrix over that basis, its nonzeros kept as
arrays of source, variable, target and value, sorted by source and
variable, with a pointer into them for each (basis vector, variable).
``dims``, ``actions``, ``act`` and ``power_act`` are read-only views
of that form.

A degree is stored as its key, level * P + sum(lam_i s_i) for the
normal form sum(lam_i x_i) + level c, with P = p_1 ... p_n and s_i
the mixed-radix stride of coordinate i (s_n = 1): a bijection of the
grading group with Z whose order is that of (level, coefficients), so
a sorted key array is the support in degree order.  The keys of a
module are int64 while P is below 2**61 and every level of its
support is below 2**62 / P - 2 in absolute value, so that a key plus
or minus 2 P stays exact, and Python ints in an object array beyond,
like the tables of ``stable.hom_table``; equal degrees have equal keys
in either form, and two modules are joined in one.  No degree is
compared through a key that could wrap.

Construction checks every module, whichever constructor built it.
The dictionary constructor reads each dimension and action with the
degree, integer, variable-index and shape checks; every constructor
then checks the coordinate form as a whole:

* grading: each nonzero of X_i goes from a basis vector of degree x
  to one of degree x + x_i, computed on the keys;
* commutation: the length-two paths of the actions, summed with sign
  per (start, end, pair of variables), are X_j X_i - X_i X_j for
  i < j, and must vanish;
* sum X_i^p_i = 0: from the fibers x whose x + c is in the support,
  the only ones where it can be nonzero, each X_i^p_i is walked by
  sparse products and the sum must vanish.

Each names the least degree where it fails.  The index-map
constructors (``make_simple``, ``make_E``, ``twist``, ``direct_sum``,
``phi0_module``, ``psi0_module``) build the arrays directly, with no
per-degree block.

The shift convention is (M(y))_x = M_{x+y}; the simple k(y) therefore
has its fiber in degree -y.

Every module lives over the one working field F_32003
(``DEFAULT_MODULUS``): actions are stored reduced mod 32003 and Hom
ranks are taken there.  Paranoia at the module level is the exact
rational mode of ``module_hom_dim``, not a second prime.

``module_hom_dim`` joins the two modules' coordinate actions on equal
degrees, by a search of one key array in the other: each nonzero of an
action of N gives the diagonal of a block A (x) I on f_x, each nonzero
of an action of M that of a block -(I (x) B^T) on f_(x+x_i), and the
``linalg.SparseMatrix`` they make enters ``rank_mod`` through its one
intake.
"""

from __future__ import annotations

import functools
import itertools
from types import MappingProxyType

import numpy as np

from .grading import GradeElement, GroupEmbedding, WeightSystem, _index
from .linalg import DEFAULT_MODULUS, SparseMatrix, _summed, rank_exact, rank_mod, residues

# int64 keys lie below this in absolute value, so that a key plus or
# minus 2 P, with P below 2**61, is still exact in int64
_KEY_BOUND = 2**62


@functools.lru_cache(maxsize=64)
def _radix(ws: WeightSystem) -> tuple[np.ndarray, np.ndarray, int]:
    """The strides s_i and weights p_i of ws's degree keys as arrays,
    int64 while P is below 2**61 and object beyond, and the level unit
    P = p_1 ... p_n."""
    strides = [1]
    for w in reversed(ws.p[1:]):
        strides.append(strides[-1] * w)
    strides.reverse()
    unit = strides[0] * ws.p[0]
    dtype = np.int64 if unit < 2**61 else object
    strides, weights = np.array(strides, dtype=dtype), np.array(ws.p, dtype=dtype)
    # shared by every caller
    strides.flags.writeable = weights.flags.writeable = False
    return strides, weights, unit


def _key(ws: WeightSystem, x: GradeElement) -> int:
    strides, _, unit = _radix(ws)
    return x.level * unit + sum(c * s for c, s in zip(x.coeffs, strides.tolist()))


def _decode(ws: WeightSystem, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The levels and the coefficient rows of the degrees with these keys."""
    strides, weights, unit = _radix(ws)
    return keys // unit, (keys % unit)[:, None] // strides % weights


def _encode(ws: WeightSystem, levels: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The keys of the degrees with these levels and normal-form
    coefficient rows: int64 when every level is within the bound, exact
    Python ints otherwise."""
    strides, _, unit = _radix(ws)
    if not levels.size:
        return np.zeros(0, dtype=np.int64)
    if strides.dtype != object and max(-int(levels.min()), int(levels.max())) + 2 <= _KEY_BOUND // unit:
        return levels.astype(np.int64) * unit + coeffs.astype(np.int64) @ strides
    return levels.astype(object) * unit + (coeffs.astype(object) * strides.astype(object)).sum(axis=1)


def _minus(ws: WeightSystem, levels: np.ndarray, coeffs: np.ndarray, y: GradeElement) -> np.ndarray:
    """The keys of x - y for the degrees x of these levels and
    coefficient rows: each coordinate borrows at most one c."""
    coeffs = coeffs - np.array(y.coeffs, dtype=coeffs.dtype)
    borrow = coeffs < 0
    levels = levels - borrow.sum(axis=1)
    # in object arithmetic where the level of y could overflow int64
    levels = (levels.astype(object) if abs(y.level) >= 2**61 else levels) - y.level
    return _encode(ws, levels, coeffs + borrow * _radix(ws)[1])


def _check_degree(ws: WeightSystem, x) -> None:
    if not isinstance(x, GradeElement):
        raise TypeError(f"degree {x!r} is not a GradeElement")
    if x.weights is not ws and x.weights != ws:
        raise ValueError(f"degree {x} lives over {x.weights}, not {ws}")


def _spread(counts: np.ndarray, lo=0) -> tuple[np.ndarray, np.ndarray]:
    """For runs [lo_t, lo_t + counts_t), the run of each element and the
    element itself, run after run."""
    owner = np.repeat(np.arange(counts.size), counts)
    ends = np.cumsum(counts)
    return owner, np.arange(owner.size) + np.repeat(lo - ends + counts, counts)


class GradedModule:
    """A graded module, validated once on construction.

    ``GradedModule(weights, dims, actions)`` reads dims {x: dim M_x}
    and actions {(i, x): matrix of X_i from M_x to M_(x+x_i)}.  Every
    degree, a key of dims or of actions, must be a ``GradeElement``
    (else ``TypeError``) of ``weights`` (else ``ValueError`` naming
    it).  Every action is read by ``linalg.residues``, which reduces it
    mod 32003 exactly.  Construction raises ``ValueError`` on an action
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
        sizes: dict[GradeElement, int] = {}
        for x, d in dims.items():
            _check_degree(weights, x)
            d = _index(d, "dimension", 0)
            if d > 0:
                sizes[x] = d
        start = dict(zip(sizes, itertools.accumulate(sizes.values(), initial=0)))
        parts = []
        for (i, x), mat in actions.items():
            i = _index(i, "variable index", 0, weights.n - 1)
            _check_degree(weights, x)
            m = residues(mat, DEFAULT_MODULUS)
            target = x + weights.x(i)
            shape = (sizes.get(target, 0), sizes.get(x, 0))
            if m.shape != shape:
                raise ValueError(f"action X_{i+1} at {x} has shape {m.shape}, expected {shape}")
            r, c = np.nonzero(m)
            if r.size:
                parts.append((start[x] + c, np.full(r.size, i), start[target] + r, m[r, c]))
        levels = np.array([x.level for x in sizes], dtype=object)
        coeffs = np.array([x.coeffs for x in sizes], dtype=object).reshape(len(sizes), weights.n)
        entries = [np.concatenate(a) for a in zip(*parts)] or [np.zeros(0, dtype=np.int64)] * 4
        self._build(weights, _encode(weights, levels, coeffs), np.array(list(sizes.values()), dtype=np.int64), *entries)

    def _build(self, weights, keys, sizes, src, var, dst, val) -> None:
        """Set the coordinate form and check it.

        The fibers, of distinct keys ``keys`` and dimensions ``sizes``,
        lay the basis out in the order given, and (src, var, dst, val)
        are the nonzeros of the actions over it.  The fibers are sorted
        by key, and the basis and the entries follow them."""
        n = weights.n
        self.weights = weights
        src, var, dst = (a.astype(np.int64, copy=False) for a in (src, var, dst))
        fiber = np.repeat(np.arange(sizes.size), sizes)
        starts = np.concatenate(([0], np.cumsum(sizes)))
        if keys.size > 1 and not (keys[1:] > keys[:-1]).all():
            order = np.argsort(keys, kind="stable")
            keys, sizes = keys[order], sizes[order]
            rank = np.empty_like(order)
            rank[order] = np.arange(order.size)
            new_starts = np.concatenate(([0], np.cumsum(sizes)))
            moved = new_starts[rank[fiber]] + np.arange(fiber.size) - starts[fiber]
            src, dst = moved[src], moved[dst]
            fiber = np.repeat(np.arange(sizes.size), sizes)
            starts = new_starts
        total = int(fiber.size)
        if total * total * n * n >= 2**62:
            raise ValueError(f"a module of dimension {total} is beyond the int64 bounds of its checks")
        head = src * n + var
        flat = head * total + dst
        if flat.size > 1 and not (flat[1:] > flat[:-1]).all():
            flat, val = _summed(flat, val, DEFAULT_MODULUS)
            head, dst = np.divmod(flat, total)
            src, var = np.divmod(head, n)
        self._keys, self._sizes, self._fiber = keys, sizes, fiber
        # the index of each basis vector within its fiber
        self._local = np.arange(total) - starts[fiber]
        self._src, self._var, self._dst, self._val = src, var, dst, val.astype(np.int64, copy=False)
        self._ptr = np.searchsorted(head, np.arange(total * n + 1))
        self._check()

    def _check(self) -> None:
        """The grading, commutation and sum X_i^p_i checks on the
        coordinate form; each raises ``ValueError`` at the least degree
        where it fails."""
        ws, q = self.weights, DEFAULT_MODULUS
        n, total = ws.n, self.total_dim
        src, var, dst, val, ptr = self._src, self._var, self._dst, self._val, self._ptr
        if not src.size:
            return
        strides, weights, unit = _radix(ws)
        key = self._keys[self._fiber[src]]
        wraps = key // strides[var] % weights[var] == weights[var] - 1
        expected = key + strides[var] + wraps * (unit - weights[var] * strides[var])
        bad = np.flatnonzero(self._keys[self._fiber[dst]] != expected)
        if bad.size:
            e = bad[0]
            x = self._degree(self._fiber[src[e]])
            raise ValueError(f"action X_{var[e] + 1} at {x} does not map into degree {x + ws.x(int(var[e]))}")
        # the paths X_i X_j of two letters, j first
        lo = ptr[dst * n]
        first, second = _spread(ptr[dst * n + n] - lo, lo)
        j, i = var[first], var[second]
        # X_i X_j counts with sign +, X_j X_i with sign -, and X_i X_i not at all
        pair = np.minimum(i, j) * n + np.maximum(i, j)
        signed = val[first] * val[second] % q * np.sign(i - j) % q
        keys, _ = _summed((src[first] * n * n + pair) * total + dst[second], signed, q)
        if keys.size:
            start, pair = divmod(int(keys[0]) // total, n * n)
            a, b = divmod(pair, n)
            raise ValueError(f"actions X_{a+1}, X_{b+1} do not commute at {self._degree(self._fiber[start])}")
        # sum X_i^p_i from the fibers x with x + c in the support
        ahead = np.searchsorted(self._keys, self._keys + unit)
        lifted = ahead < self._keys.size
        lifted[lifted] = self._keys[ahead[lifted]] == self._keys[lifted] + unit
        if not lifted.any():
            return
        starts = np.flatnonzero(lifted[self._fiber])
        walks = [self._walk(starts, i, p) for i, p in enumerate(ws.p)]
        keys, _ = _summed(np.concatenate([c * total + r for c, r, _ in walks]), np.concatenate([v for _, _, v in walks]), q)
        if keys.size:
            raise ValueError(f"sum X_i^p_i does not vanish at {self._degree(self._fiber[int(keys[0]) // total])}")

    def _walk(self, starts: np.ndarray, i: int, e: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """X_i^e from the basis vectors ``starts``: its nonzeros as
        (start, end, value), summed at every step."""
        n, total, q = self.weights.n, self.total_dim, DEFAULT_MODULUS
        start, end, value = starts, starts, np.ones(starts.size, dtype=np.int64)
        for _ in range(e):
            if not start.size:
                break
            lo = self._ptr[end * n + i]
            owner, step = _spread(self._ptr[end * n + i + 1] - lo, lo)
            flat, value = _summed(start[owner] * total + self._dst[step], value[owner] * self._val[step] % q, q)
            start, end = np.divmod(flat, total)
        return start, end, value

    def _degree(self, fiber) -> GradeElement:
        strides, weights, unit = _radix(self.weights)
        level, rest = divmod(int(self._keys[fiber]), unit)
        return GradeElement(self.weights, tuple(rest // s % w for s, w in zip(strides.tolist(), weights.tolist())), level)

    @functools.cached_property
    def _where(self) -> dict[int, int]:
        return {k: a for a, k in enumerate(self._keys.tolist())}

    def _locate(self, x: GradeElement) -> int | None:
        """The fiber of degree x, or None outside the support."""
        _check_degree(self.weights, x)
        return self._where.get(_key(self.weights, x))

    @property
    def total_dim(self) -> int:
        return int(self._fiber.size)

    @functools.cached_property
    def _dims(self) -> dict[GradeElement, int]:
        return {self._degree(a): d for a, d in enumerate(self._sizes.tolist())}

    @property
    def dims(self) -> MappingProxyType:
        """{x: dim M_x} over the support, in degree order; read-only."""
        return MappingProxyType(self._dims)

    @functools.cached_property
    def _actions(self) -> dict[tuple[int, GradeElement], np.ndarray]:
        n = self.weights.n
        blocks = {}
        group = self._fiber[self._src] * n + self._var
        order = np.argsort(group, kind="stable")
        bounds = np.flatnonzero(np.diff(group[order], prepend=-1, append=-1))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            entries = order[lo:hi]
            a, i = divmod(int(group[entries[0]]), n)
            t = self._fiber[self._dst[entries[0]]]
            blk = np.zeros((self._sizes[t], self._sizes[a]), dtype=np.int64)
            blk[self._local[self._dst[entries]], self._local[self._src[entries]]] = self._val[entries]
            blk.flags.writeable = False
            blocks[(i, self._degree(a))] = blk
        return blocks

    @property
    def actions(self) -> MappingProxyType:
        """{(i, x): matrix of X_i from M_x} for every nonzero block;
        read-only."""
        return MappingProxyType(self._actions)

    def dim_at(self, x: GradeElement) -> int:
        a = self._locate(x)
        return 0 if a is None else int(self._sizes[a])

    def act(self, i: int, x: GradeElement) -> np.ndarray:
        """Matrix of X_i from M_x to M_{x + x_i} (target_dim x source_dim)."""
        i = _index(i, "variable index", 0, self.weights.n - 1)
        mat = self._actions.get((i, x)) if self._locate(x) is not None else None
        if mat is None:
            return np.zeros((self.dim_at(x + self.weights.x(i)), self.dim_at(x)), dtype=np.int64)
        return mat

    def power_act(self, i: int, x: GradeElement, e: int) -> np.ndarray:
        """Matrix of X_i^e from M_x to M_{x + e*x_i}."""
        i = _index(i, "variable index", 0, self.weights.n - 1)
        e = _index(e, "exponent", 0)
        out = np.eye(self.dim_at(x), dtype=np.int64)
        for _ in range(e):
            out = self.act(i, x) @ out % DEFAULT_MODULUS
            x = x + self.weights.x(i)
        return out

    def twist(self, y: GradeElement) -> GradedModule:
        """The shifted module M(y), with (M(y))_x = M_{x+y}."""
        _check_degree(self.weights, y)
        keys = _minus(self.weights, *_decode(self.weights, self._keys), y)
        return _module(self.weights, keys, self._sizes, self._src, self._var, self._dst, self._val)

    def direct_sum(self, other: GradedModule) -> GradedModule:
        if self.weights != other.weights:
            raise ValueError("mismatched modules")
        keys = _joint(self._keys, other._keys)
        union, where = np.unique(np.concatenate(keys), return_inverse=True)
        mine, theirs = where[: self._keys.size], where[self._keys.size :]
        sizes = np.zeros(union.size, dtype=np.int64)
        sizes[mine] = self._sizes
        first = sizes.copy()
        sizes[theirs] += other._sizes
        starts = np.cumsum(sizes) - sizes
        moved = [
            starts[mine][self._fiber] + self._local,
            (starts + first)[theirs][other._fiber] + other._local,
        ]
        parts = [(m[mod._src], mod._var, m[mod._dst], mod._val) for m, mod in zip(moved, (self, other))]
        return _module(self.weights, union, sizes, *map(np.concatenate, zip(*parts)))

    def to_json(self) -> dict:
        support = [{"degree": x.to_json(), "dim": d} for x, d in self._dims.items()]
        acts = []
        for (i, x), m in sorted(self._actions.items(), key=lambda t: (t[0][0], t[0][1].level, t[0][1].coeffs)):
            triplets = [[int(r), int(c), int(m[r, c])] for r, c in zip(*np.nonzero(m))]
            acts.append({"variable": i, "degree": x.to_json(), "entries": triplets})
        return {"weights": self.weights.to_json(), "support": support, "actions": acts}


def _module(ws: WeightSystem, keys, sizes, src, var, dst, val) -> GradedModule:
    """The module of a coordinate form, as ``GradedModule._build`` reads it."""
    m = GradedModule.__new__(GradedModule)
    m._build(ws, keys, sizes, src, var, dst, val)
    return m


def _joint(*keys: np.ndarray) -> list[np.ndarray]:
    """Key arrays in one dtype: object if any of them is."""
    if all(k.dtype == keys[0].dtype for k in keys):
        return list(keys)
    return [k.astype(object) for k in keys]


def _match(keys: np.ndarray, table: np.ndarray) -> np.ndarray:
    """For each key, its position in the sorted distinct ``table``, or -1."""
    keys, table = _joint(keys, table)
    pos = np.searchsorted(table, keys)
    found = pos < table.size
    found[found] = table[pos[found]] == keys[found]
    return np.where(found, pos, -1)


def make_simple(weights: WeightSystem, y: GradeElement | None = None) -> GradedModule:
    """The graded simple k(y), one-dimensional in degree -y: E^(1,...,1)(y)."""
    return make_E(weights, (1,) * weights.n, y)


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
    _check_degree(weights, y)
    box = np.indices(ell).reshape(weights.n, -1).T
    keys = _minus(weights, np.zeros(box.shape[0], dtype=np.int64), box.astype(_radix(weights)[1].dtype), y)
    # X_i steps box position u to u + stride_i while w_i + 1 < ell_i
    src, var = np.nonzero(box + 1 < np.array(ell))
    stride = np.cumprod((1,) + ell[:0:-1])[::-1]
    return _module(weights, keys, np.ones(box.shape[0], dtype=np.int64), src, var, src + stride[var], np.ones(src.size, dtype=np.int64))


def module_hom_dim(m: GradedModule, n: GradedModule, exact: bool = False) -> int:
    """Dimension of degree-0 module homomorphisms M -> N.

    Unknowns are the componentwise maps f_x, each a row-major
    (dim N_x) x (dim M_x) block, constrained to commute with every X_i
    action: N_i f_x = f_(x+x_i) M_i from M_x to N_(x+x_i).  The system
    has one row block, of the same row-major layout, for each (i, x)
    where M or N acts between such degrees.  It is assembled in one
    pass over the joined coordinate forms: each nonzero of an action of
    N from a degree of M stands for the diagonal of a block A (x) I on
    f_x, and each nonzero of an action of M into a degree of N for the
    diagonal of a block -(I (x) B^T) on f_(x+x_i).  The answer is the
    nullity of that ``SparseMatrix`` over the working field; with
    ``exact`` the same coordinates, densified, are ranked over the
    rationals, for paranoia runs.
    """
    if m.weights != n.weights:
        raise ValueError("mismatched modules")
    q, nv = DEFAULT_MODULUS, m.weights.n
    if not m.total_dim or not n.total_dim:
        return 0
    # the fiber of N at each degree of M, and of M at each degree of N
    at_n = _match(m._keys, n._keys)
    common = np.flatnonzero(at_n >= 0)
    at_m = np.full(n._keys.size, -1)
    at_m[at_n[common]] = common
    dm = m._sizes
    dn = np.where(at_n >= 0, n._sizes[at_n], 0)
    blocks = dm * dn
    total = int(blocks.sum())
    if total == 0:
        return 0
    unknown = np.cumsum(blocks) - blocks
    # N's nonzeros from a degree of M, and M's nonzeros into a degree of N
    a_n = at_m[n._fiber[n._src]]
    ns = np.flatnonzero(a_n >= 0)
    a_n, n_var, n_src, n_dst = a_n[ns], n._var[ns], n._src[ns], n._dst[ns]
    b_m = at_n[m._fiber[m._dst]]
    ms = np.flatnonzero(b_m >= 0)
    b_m, m_var, m_src, m_dst = b_m[ms], m._var[ms], m._src[ms], m._dst[ms]
    a_m, t_m = m._fiber[m_src], m._fiber[m_dst]
    # row block (i, a) for M's fiber a, of height dim N_(x_a + x_i) * dim M_a
    height = np.zeros(nv * dm.size, dtype=np.int64)
    height[n_var * dm.size + a_n] = n._sizes[n._fiber[n_dst]]
    height[m_var * dm.size + a_m] = n._sizes[b_m]
    height *= np.tile(dm, nv)
    row0 = np.cumsum(height) - height
    # A (x) I: (r, c) <- (s, c) for c in M_a
    owner, c = _spread(dm[a_n])
    a = a_n[owner]
    rows = [row0[n_var[owner] * dm.size + a] + n._local[n_dst[owner]] * dm[a] + c]
    cols = [unknown[a] + n._local[n_src[owner]] * dm[a] + c]
    vals = [n._val[ns][owner]]
    # -(I (x) B^T): (r, c) <- (r, t) for r in N at the target
    owner, r = _spread(n._sizes[b_m])
    a, t = a_m[owner], t_m[owner]
    rows.append(row0[m_var[owner] * dm.size + a] + r * dm[a] + m._local[m_src[owner]])
    cols.append(unknown[t] + r * dm[t] + m._local[m_dst[owner]])
    vals.append(q - m._val[ms][owner])
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    if not rows.size:
        return total
    keys = rows * total + cols
    system = SparseMatrix((int(height.sum()), total), keys, vals)
    if exact:
        dense = np.zeros(system.shape[0] * total, dtype=np.int64)
        np.add.at(dense, keys, vals)
        dense = dense.reshape(system.shape) % q
        return total - rank_exact(np.where(dense > q // 2, dense - q, dense))
    return total - rank_mod(system, q)


def phi0_module(emb: GroupEmbedding, m: GradedModule) -> GradedModule:
    """Degreewise reduction: fiber at x is M at theta(x) + (p_n - p_jn) x_n.

    X_i for i < n transports directly.  X_n acts by a single source
    step off the wrap and by X_n^(p_n - p_jn + 1) at the wrap, which is
    the unique choice compatible with the degree bookkeeping.

    The fibers kept are those of M whose last coefficient is at least
    the gap p_n - p_jn, at the same level with that coefficient less
    the gap, so the module is a restriction of M's arrays, with the
    walks X_n^(gap+1) from the wrap in place of X_n there.
    """
    ws = emb.target
    if m.weights != ws:
        raise ValueError("module does not live over the full system")
    n = ws.n
    gap = ws.p[-1] - emb.split_weight
    levels, coeffs = _decode(ws, m._keys)
    keep = coeffs[:, -1] >= gap
    coeffs = coeffs[keep]
    coeffs[:, -1] -= gap
    wrap = np.zeros(keep.size, dtype=bool)
    wrap[keep] = coeffs[:, -1] == emb.split_weight - 1
    kept = keep[m._fiber]
    moved = np.cumsum(kept) - 1
    steps = np.flatnonzero(kept[m._src] & ~((m._var == n - 1) & wrap[m._fiber[m._src]]))
    start, end, value = m._walk(np.flatnonzero(wrap[m._fiber]), n - 1, gap + 1)
    return _module(
        emb.source,
        _encode(emb.source, levels[keep], coeffs),
        m._sizes[keep],
        np.concatenate([moved[m._src[steps]], moved[start]]),
        np.concatenate([m._var[steps], np.full(start.size, n - 1)]),
        np.concatenate([moved[m._dst[steps]], moved[end]]),
        np.concatenate([m._val[steps], value]),
    )


def psi0_module(emb: GroupEmbedding, nm: GradedModule) -> GradedModule:
    """Degreewise insertion, stretching the last coordinate.

    Degrees with small last coefficient form a band of copies of the
    same source fiber, on which X_n acts by identity; across the band
    X_n acts by the source X_n map.

    A fiber of last coefficient 0 has gap + 1 copies, at theta(w) +
    t x_n for t = 0..gap, and any other one copy, at t = gap.  X_i for
    i < n is repeated on every copy, and the source X_n goes from the
    last copy of its source fiber to the first copy of its target.
    """
    ws = emb.target
    src = emb.source
    if nm.weights != src:
        raise ValueError("module does not live over the reduced system")
    n = ws.n
    gap = ws.p[-1] - emb.split_weight
    levels, coeffs = _decode(src, nm._keys)
    band = coeffs[:, -1] == 0
    copies = np.where(band, gap + 1, 1)
    owner, copy = _spread(copies)
    coeffs = coeffs[owner]
    coeffs[:, -1] += np.where(band[owner], copy, gap)
    sizes = nm._sizes[owner]
    starts = np.cumsum(sizes) - sizes
    first = np.cumsum(copies) - copies
    local = nm._local
    # X_i, i < n, on every copy
    same = np.flatnonzero(nm._var < n - 1)
    which, at = _spread(copies[nm._fiber[nm._src[same]]])
    e = same[which]
    parts = [(
        starts[first[nm._fiber[nm._src[e]]] + at] + local[nm._src[e]],
        nm._var[e],
        starts[first[nm._fiber[nm._dst[e]]] + at] + local[nm._dst[e]],
        nm._val[e],
    )]
    # the source X_n, from the last copy to the first
    e = np.flatnonzero(nm._var == n - 1)
    a = nm._fiber[nm._src[e]]
    parts.append((starts[first[a] + copies[a] - 1] + local[nm._src[e]], nm._var[e], starts[first[nm._fiber[nm._dst[e]]]] + local[nm._dst[e]], nm._val[e]))
    # the identity from each copy of the band to the next
    fiber = np.repeat(np.arange(sizes.size), sizes)
    step = np.flatnonzero((band[owner] & (copy < gap))[fiber])
    parts.append((step, np.full(step.size, n - 1), step + sizes[fiber[step]], np.ones(step.size, dtype=np.int64)))
    return _module(ws, _encode(ws, levels[owner], coeffs), sizes, *map(np.concatenate, zip(*parts)))


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
