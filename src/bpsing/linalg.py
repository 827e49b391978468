"""Exact linear algebra over prime fields, the rationals and Z.

All ranks computed here feed dimension counts, so the arithmetic must be
exact.  The default working field is F_q with q = 32003; a second prime
and a rational mode exist for paranoia runs.  Moduli are primes below
2**31, so that a product of two residues fits in int64.

``integer_matrix`` takes a 2-D integer array with every value kept,
``[]`` being the 0 x 0 matrix; a shape that is not 2-D, ragged rows, a
non-integer dtype or a non-integer entry raises ``ValueError``, since
truncating a float or wrapping a wide integer would lose exactness
silently.  A ``SparseMatrix`` is the coordinate form: a shape,
row-major flat keys and integer values, a key that repeats standing
for the sum of its values; it raises the same ``ValueError`` for a
non-integer value, and for a negative shape, a key outside the cells
or more cells than ``rank_mod``'s int64 bounds allow.  ``residues`` is
the one reduction of integer values mod q to int64; uint64 entries and
Python ints are reduced before the cast.

``rank_mod`` takes the rank over F_q of a matrix in coordinates, and
reads an array into that form first, so every matrix has one intake.
A matrix at least 1/``DENSE`` nonzero, which the small matrices of the
oracle and of ``gmod`` on types up to (2,3,4,5) are, is summed into a
dense block and eliminated column by column.  The oracle's large
matrices are about 1% nonzero, so it eliminates them sparsely: in
rounds, each a batch of pivots whose block is diagonal, removed at
once through the Schur complement, on coordinate arrays of the
nonzeros.  Both keep every
intermediate value below q**2 <= 2**62 in absolute value, so nothing
overflows int64.

Over the rationals and Z there is one elimination, fraction-free
Gauss-Jordan (Bareiss), on numpy object arrays of Python ints: numpy
runs the loops in C while every entry stays an unbounded integer, so
nothing can overflow.  It gives ``rank_exact`` its rank and
``inverse_unimodular`` the inverse of a unimodular matrix; it divides
only where the quotient must be exact, and raises ``ArithmeticError``
if a remainder is left.

``charpoly_int`` is multimodular.  A coefficient c_k of an n x n
matrix is at most the Hadamard bound prod_i (1 + |row_i|_2) in
absolute value.  The Faddeev-LeVerrier recursion runs mod primes p in
(2**24, 2**25), all at once on one stack of int64 matrices, with as
many primes as make their product exceed twice the bound; each c_k is
the symmetric residue of its CRT lift.  The primes are built on first
use, one after another, and kept in a bounded cache (``_prime``).
Since p > 2**24 > n, every k <= n is invertible mod p, and an entry
of a product of residues is below n (p - 1)**2 < 2**63; a matrix of
2**13 rows or more raises ``ValueError``.  The square kernels reject
a ragged, non-square or not 2-D matrix with ``ValueError``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grading import _index

DEFAULT_MODULUS = 32003
PARANOIA_MODULUS = 65537

# ``rank_mod`` hands a matrix, or a live block of its rounds, with at
# least one nonzero in DENSE cells to the column loop, arrays and
# ``SparseMatrix`` inputs alike.  Denser blocks give few independent
# pivots per round, and on small ones the per-round overhead outweighs
# the loop's work on cells; the small matrices of the oracle are both.
# Timed one by one on the matrices of one job of each benchmark
# workload, the sparse rounds lost on all 210 of up to 4000 cells
# (7.5-100% nonzero) and won on 226 of the 230 larger ones (0.4-5.1%
# nonzero); thresholds from 1/12 to 1/20 gave the least total time.
# The module Hom systems of ``gmod`` in the ladder checks are at least
# 1/12 nonzero up to (2,3,4,5) and all stay dense; over (5,6,7) they
# fall to 1/60, and 32 of the 100 that its five splits rank take the
# sparse rounds.
DENSE = 16


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    d = 3
    while d * d <= q:
        if q % d == 0:
            return False
        d += 2
    return True


@functools.lru_cache(maxsize=8, typed=True)
def check_modulus(q: int) -> int:
    """``q`` as an ``int``, after rejecting a modulus that is not a
    prime below 2**31.

    Residues of a larger modulus can have products beyond int64, and
    numpy would wrap them silently.  ``q`` is read by
    ``grading._index``, so a bool or a value that is not an integer, a
    float such as 7.0 too, raises ``TypeError``.  A valid modulus is
    remembered, keyed by value and type, so the trial division runs
    once per value and type and 7.0 never meets the entry of 7; a
    rejected one raises on every call.
    """
    q = _index(q, "modulus")
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")
    if q >= 2**31:
        raise ValueError(f"modulus {q} is not below 2**31")
    return q


def integer_matrix(a) -> np.ndarray:
    """``a`` as a 2-D integer array, every value kept; ``[]`` is 0 x 0.

    An integer array comes back as it is, without a copy; an empty one
    of any dtype as int64 zeros of its shape.  Ragged rows, a shape that
    is not 2-D, a non-integer dtype and a non-integer entry of an object
    array raise ``ValueError``.
    """
    try:
        m = np.asarray(a)
    except ValueError:
        raise ValueError("matrix has ragged rows") from None
    if m.size == 0 and m.ndim in (1, 2):
        # [] is the 0 x 0 matrix
        return np.zeros((len(m), m.shape[-1]), dtype=np.int64)
    if m.ndim != 2:
        raise ValueError(f"need a 2-D matrix, not shape {m.shape}")
    _check_integers(m)
    return m


def _check_integers(m: np.ndarray) -> None:
    """Raise ``ValueError`` unless every entry of ``m`` is an integer."""
    if m.dtype == object:
        # plain ints, the common case, are told apart at C speed; any
        # other type (bool, numpy integers among them) takes the full test
        if set(map(type, m.flat)) <= {int}:
            return
        if not all(isinstance(x, (int, np.integer)) for x in m.flat):
            raise ValueError("need integer entries")
    elif m.dtype.kind not in "iu":
        raise ValueError(f"need an integer matrix, not dtype {m.dtype}")


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """An integer matrix of ``shape`` in coordinates: the sum of the
    entries ``values[t]`` at row-major flat index ``keys[t]``, so a key
    may repeat.

    ``keys`` and ``values`` are kept as read-only views, not copies; an
    empty one may have any dtype.  A shape that is not two nonnegative
    integers (a bool is not one), keys and values that are not 1-D of
    one length, a key that is not an integer or lies outside the cells,
    and a non-integer value raise ``ValueError``.  So do 2**32 cells or entries or more:
    ``rank_mod``'s int64 bounds need fewer.
    """

    shape: tuple[int, int]
    keys: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        shape = tuple(self.shape)
        if len(shape) != 2 or not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= 0 for x in shape):
            raise ValueError(f"need a shape of two nonnegative integers, not {self.shape}")
        shape = int(shape[0]), int(shape[1])
        keys, values = (np.asarray(x) for x in (self.keys, self.values))
        if keys.ndim != 1 or values.shape != keys.shape:
            raise ValueError(f"need keys and values of one length, not shapes {keys.shape} and {values.shape}")
        if not keys.size:
            keys, values = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        if shape[0] * shape[1] >= 2**32 or keys.size >= 2**32:
            raise ValueError(f"a {shape[0]} x {shape[1]} matrix of {keys.size} entries is beyond the int64 bounds of rank_mod")
        if keys.dtype.kind not in "iu":
            raise ValueError(f"need integer keys, not dtype {keys.dtype}")
        if keys.size and (keys.min() < 0 or keys.max() >= shape[0] * shape[1]):
            raise ValueError(f"key outside the cells of a {shape[0]} x {shape[1]} matrix")
        _check_integers(values)
        keys, values = keys.view(), values.view()
        keys.flags.writeable = values.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "values", values)


def residues(a, q: int) -> np.ndarray:
    """Residues mod q of an integer matrix, as a fresh int64 array.

    Entries beyond int64, uint64 from 2**63 on or Python ints in an
    object array, are reduced before the cast, which would wrap them.
    """
    m = integer_matrix(a)
    if m.dtype == object:
        return (m % q).astype(np.int64)
    if m.dtype == np.uint64:
        return (m % np.uint64(q)).astype(np.int64)
    return m.astype(np.int64, copy=False) % q


def rank_mod(a, q: int) -> int:
    """Rank of an integer matrix over F_q by Gaussian elimination.

    ``a`` is a ``SparseMatrix``, or goes through ``integer_matrix`` and
    becomes the ``SparseMatrix`` of its nonzeros, which raises
    ``ValueError`` at 2**32 cells or more; ``a`` is left unchanged.  The
    values are reduced mod q by ``residues``.  With at least one entry
    per ``DENSE`` cells they are summed into a dense matrix, reduced
    again and ranked by ``_column_rank``, so its cells are at most
    ``DENSE`` times its entries; a matrix with no entries has rank 0
    without it.  Otherwise they are summed per key mod q, and exact
    zeros are dropped.  From the nonzeros, each round looks at the live
    block, the rows and columns that still hold a nonzero: once that
    block is 1/``DENSE`` nonzero it goes to ``_column_rank``, and else
    one batch of pivots is chosen by ``_pivot_batch`` and eliminated by
    ``_eliminate``.

    A batch is a set of nonzeros (i_k, j_k), no row i_k nonzero in
    another batch column j_l.  Ordering the batch rows and columns
    first gives [[D, B], [C, E]] with D diagonal and invertible, whose
    rank is rank D + rank(E - C D^(-1) B): subtracting multiples of the
    batch rows clears C and leaves the Schur complement, and the batch
    columns then clear B.  So the rank is the sum of the batch sizes
    plus the rank of the last dense block.  The least priority of
    ``_pivot_batch`` always makes the batch, so every round takes a
    pivot and the rounds end; the priority is a total order of counts and indices with no
    random input, so the pivots, the rounds and the rank repeat exactly.
    This is structured Gaussian elimination (LaMacchia and Odlyzko,
    1990) with each batch an independent set chosen as local minima, in
    the manner of Luby (1986).

    In int64: a product of two residues is below q**2 <= 2**62 and is
    reduced before it is summed, a sum of at most one residue per pivot
    plus one, or of the fewer than 2**32 values of a ``SparseMatrix``,
    is below 2**63, flat indices are below the cell count, and the
    priorities are below 2 * cells * (nonzeros + 1) < 2**61 for a
    matrix under 2**32 cells at most 1/``DENSE`` nonzero.
    """
    q = check_modulus(q)
    if not isinstance(a, SparseMatrix):
        m = integer_matrix(a)
        keys = np.flatnonzero(m)
        a = SparseMatrix(m.shape, keys, m.reshape(-1)[keys])
    (nrows, ncols), keys = a.shape, a.keys.astype(np.int64, copy=False)
    # the values as a 1 x k matrix, so that ``residues`` reduces them
    vals = residues(a.values[None], q)[0]
    if keys.size and keys.size * DENSE >= nrows * ncols:
        m = np.zeros(nrows * ncols, dtype=np.int64)
        np.add.at(m, keys, vals)
        return _column_rank(m.reshape(nrows, ncols) % q, q)
    keys, vals = _summed(keys, vals, q)
    rank = 0
    while keys.size:
        rows, cols = np.divmod(keys, ncols)
        row_count = np.bincount(rows, minlength=nrows)
        col_count = np.bincount(cols, minlength=ncols)
        live_rows, live_cols = row_count > 0, col_count > 0
        live = np.count_nonzero(live_rows), np.count_nonzero(live_cols)
        if keys.size * DENSE >= live[0] * live[1]:
            block = np.zeros(live, dtype=np.int64)
            block[(np.cumsum(live_rows) - 1)[rows], (np.cumsum(live_cols) - 1)[cols]] = vals
            return rank + _column_rank(block, q)
        pivots = _pivot_batch(rows, cols, row_count, col_count)
        rank += pivots.size
        keys, vals = _eliminate(keys, vals, rows, cols, (nrows, ncols), pivots, q)
    return rank


def _summed(keys: np.ndarray, vals: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Residues at flat keys summed per key mod q: the nonzero sums, in
    row-major order.  A sorted run of keys is cheap for the stable sort."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    head = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    first = np.flatnonzero(head)
    sums = np.add.reduceat(vals[order], first) % q
    return keys[first][sums != 0], sums[sums != 0]


def _pivot_batch(rows: np.ndarray, cols: np.ndarray, row_count: np.ndarray, col_count: np.ndarray) -> np.ndarray:
    """Positions, among the nonzeros, of one batch of pivots whose block
    is diagonal, in row-major order.

    The nonzeros are given row-major by ``rows`` and ``cols``.  Each
    column proposes its nonzero in the row of fewest nonzeros, the
    first such, with the priority (column entries, row entries, column
    index), packed into one int64 that is unique per proposal.  A
    proposal (i, j) clashes with a proposal (i', j') when (i, j') or
    (i', j) is nonzero, which includes a shared row, and it is kept
    when its priority is below that of every proposal it clashes with:
    counting each nonzero with the priority of its column's proposal,
    the least over row i must be its own, and counting each nonzero
    with the least priority proposed in its row, so must the least over
    column j.
    """
    big = np.iinfo(np.int64).max
    by_row = row_count[rows] * len(row_count) + rows
    least = np.full(len(col_count), big)
    np.minimum.at(least, cols, by_row)
    proposed = np.flatnonzero(by_row == least[cols])
    prow, pcol = rows[proposed], cols[proposed]
    priority = (col_count[pcol] * (row_count.max() + 1) + row_count[prow]) * len(col_count) + pcol
    row_priority = np.full(len(row_count), big)
    np.minimum.at(row_priority, prow, priority)
    col_priority = np.full(len(col_count), big)
    col_priority[pcol] = priority
    row_least = np.full(len(row_count), big)
    np.minimum.at(row_least, rows, col_priority[cols])
    col_least = np.full(len(col_count), big)
    np.minimum.at(col_least, cols, row_priority[rows])
    return proposed[(row_least[prow] == priority) & (col_least[pcol] == priority)]


def _eliminate(
    keys: np.ndarray, vals: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int], pivots: np.ndarray, q: int
) -> tuple[np.ndarray, np.ndarray]:
    """The nonzeros of the Schur complement of a diagonal pivot block.

    The nonzeros are (keys, vals), row-major, a key being the flat index
    row * ncols + column in a matrix of ``shape`` = (nrows, ncols), and
    ``pivots`` is a batch of ``_pivot_batch``, so pivot k is the k-th
    pivot row from the top.
    The other nonzeros of pivot row k (B) are scaled by the inverse of
    its pivot.  Each nonzero of pivot column k off the pivot (C) pairs
    with every scaled entry of row k and subtracts the product at its
    row and that entry's column.  The nonzeros outside the pivot rows
    and columns (E) stay; the products, each reduced, are summed into
    them per flat index in one sort, and exact zeros are dropped, so
    the output is row-major again.
    """
    nrows, ncols = shape
    batch = np.arange(pivots.size)
    pivot_of_row = np.full(nrows, -1)
    pivot_of_row[rows[pivots]] = batch
    pivot_of_col = np.full(ncols, -1)
    pivot_of_col[cols[pivots]] = batch
    in_row, in_col = pivot_of_row[rows], pivot_of_col[cols]
    row_in, col_in = in_row >= 0, in_col >= 0
    # a nonzero in a pivot row and a pivot column is that pivot
    b, c, e = row_in > col_in, col_in > row_in, ~(row_in | col_in)
    inverse = np.array([pow(v, -1, q) for v in vals[pivots].tolist()], dtype=np.int64)
    # B is row-major, so its pivot numbers never decrease
    b_pivot = in_row[b]
    b_cols = cols[b]
    b_vals = vals[b] * inverse[b_pivot] % q
    b_count = np.bincount(b_pivot, minlength=pivots.size)
    c_pivot = in_col[c]
    reps = b_count[c_pivot]
    ends = np.cumsum(reps)
    if not ends.size or not ends[-1]:
        return keys[e], vals[e]
    # pair t of C entry i is the t-th entry of its pivot's run in B
    left = np.repeat(np.arange(c_pivot.size), reps)
    starts = np.cumsum(b_count) - b_count
    right = np.arange(ends[-1]) - np.repeat(ends - reps - starts[c_pivot], reps)
    # E comes sorted, the run that leads
    keys = np.concatenate([keys[e], rows[c][left] * ncols + b_cols[right]])
    vals = np.concatenate([vals[e], q - vals[c][left] * b_vals[right] % q])
    return _summed(keys, vals, q)


def _column_rank(m: np.ndarray, q: int) -> int:
    """Rank over F_q of a row-major int64 matrix of residues, eliminated
    in place column by column: the dense blocks of ``rank_mod``, each
    with at least one entry per ``DENSE`` cells, so the loop visits at
    most ``DENSE`` columns per entry.

    Column c takes the first live row nonzero in column c as pivot
    row.  Its support, the columns where it is nonzero, starts at c,
    since every live row is zero left of c, so the row is scanned and
    retired (zeroed) from c on only.  Each other live row nonzero in
    column c subtracts its multiple of the pivot row on that support
    only: the block of those rows and columns is gathered with ``take``
    and written back with ``put`` at flat indices row * cols + column.
    The retired rows, in order, form an echelon block of full row rank
    above the live rows, so the rank is their count; the pivot row is
    zero outside its support, so the other columns need no update.
    """
    flat = m.reshape(-1)  # a view, since m is row-major
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        nz = m[:, c].nonzero()[0]
        if not nz.size:
            continue
        row = m[nz[0]]
        support = row[c:].nonzero()[0] + c
        prow = row[support] * pow(int(row[c]), -1, q) % q
        row[c:] = 0
        if nz.size > 1:
            # column c leads the support, so block[:, 0] holds the multipliers
            below = nz[1:, None] * cols + support
            block = flat.take(below)
            block -= block[:, :1] * prow
            block %= q
            flat.put(below, block)
        r += 1
        if r == rows:
            break
    return r


def _python_ints(m: np.ndarray) -> np.ndarray:
    """An integer matrix as a numpy object array of Python ints."""
    return np.frompyfunc(int, 1, 1)(m)


def _exact_div(num: np.ndarray, den: int) -> np.ndarray:
    quot = num // den
    if (num % den).any():
        raise ArithmeticError("fraction-free elimination must divide exactly")
    return quot


def _gauss_jordan(m: np.ndarray, cols: int | None = None) -> tuple[np.ndarray, int, int]:
    """Fraction-free Gauss-Jordan (Bareiss) on the first ``cols`` columns
    of an object array of Python ints, in place.

    The pivot of column c is the first row from the rank r on that is
    nonzero there; a column without one is skipped.  The pivot row is
    swapped to row r, and every other row is replaced by (pivot * row -
    row[c] * pivot row), divided exactly by the previous pivot, so every
    entry stays a minor of the input.  Returns the array, the rank and
    the last pivot, which is a nonzero maximal minor up to sign: for a
    square matrix of full rank, its determinant up to the sign of the
    row swaps.
    """
    rows = len(m)
    r, prev = 0, 1
    for c in range(m.shape[1] if cols is None else cols):
        nz = np.flatnonzero(m[r:, c])
        if not nz.size:
            continue
        piv = r + nz[0]
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        pivot = m[r, c]
        others = np.arange(rows) != r
        update = pivot * m[others] - np.outer(m[others, c], m[r])
        m[others] = update if prev == 1 else _exact_div(update, prev)
        prev = pivot
        r += 1
        if r == rows:
            break
    return m, r, prev


def rank_exact(a) -> int:
    """Rank over Q of an integer matrix, exact.

    ``a`` goes through ``integer_matrix``, and the rank is that of the
    fraction-free elimination ``_gauss_jordan``, whose entries stay
    integers; for paranoia runs.
    """
    return _gauss_jordan(_python_ints(integer_matrix(a)))[1]


def _square(a) -> np.ndarray:
    """A square matrix through ``integer_matrix``."""
    try:
        ragged = any(len(row) != len(a) for row in a)
    except TypeError:  # rows without a length: not 2-D, which the intake rejects
        ragged = False
    if ragged:
        raise ValueError("matrix is not square")
    return integer_matrix(a)


def inverse_unimodular(a) -> list[list[int]]:
    """Exact inverse of an integer matrix with determinant +-1.

    ``_gauss_jordan`` on [A | I] over the columns of A: a rank below n
    means A is singular.  Otherwise the last pivot d is det(A) up to the
    sign of the row swaps, the left block ends as d I and the right
    block as d A^(-1).
    """
    m = _python_ints(_square(a))
    n = len(m)
    aug, rank, det = _gauss_jordan(np.concatenate([m, np.eye(n, dtype=object)], axis=1), n)
    if rank < n:
        raise ValueError("matrix is singular")
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular over the integers")
    # A^(-1) = right block / d, and 1/d = d for d = +-1
    return (aug[:, n:] * det).tolist()


@functools.lru_cache(maxsize=256)
def _prime(i: int) -> int:
    """The i-th prime below 2**25, counting down from the largest, built
    on first use from the one before it.

    The primes of ``charpoly_int`` lie in (2**24, 2**25); past the last
    of them this raises ``ValueError``.
    """
    p = (2**25 if i == 0 else _prime(i - 1)) - 1
    while not is_prime(p):
        p -= 1
    if p <= 2**24:
        raise ValueError("no prime of the characteristic polynomial's range is left")
    return p


def charpoly_int(a) -> tuple[int, ...]:
    """Characteristic polynomial of an integer matrix, exact.

    Returns the monic coefficient tuple of det(xI - A), leading
    coefficient first, as Python ints.  The Faddeev-LeVerrier recursion
    M_1 = I, M <- A M, c_k = -tr(M) / k, M <- M + c_k I runs mod each
    prime of ``_prime`` at once, on one stack of int64 matrices, until
    the primes' product P exceeds twice the Hadamard bound of the
    coefficients; each c_k is then the symmetric residue of its CRT
    lift mod P.  ``ValueError`` for n >= 2**13, where the int64 bounds
    fail, and as ``integer_matrix`` or a ragged, non-square matrix gives.
    """
    a = _square(a)
    n = len(a)
    if n >= 2**13:
        raise ValueError(f"a {n} x {n} matrix is beyond the int64 bounds of charpoly_int")
    a = _python_ints(a)
    # c_k is -+ a sum of principal k x k minors, each at most the product
    # of its rows' norms (Hadamard), so |c_k| <= prod_i (1 + |row_i|),
    # and 2 + isqrt(s) >= 1 + sqrt(s)
    bound = math.prod(2 + math.isqrt(s) for s in (a * a).sum(axis=1))
    primes, product = [], 1
    while product <= 2 * bound:
        primes.append(_prime(len(primes)))
        product *= primes[-1]
    p = np.array(primes, dtype=np.int64)
    # every prime exceeds 2**24 > n, so each k <= n is invertible, and
    # a product of residues sums to below n (p - 1)**2 < 2**63
    inverse = np.array([[pow(k, -1, q) for k in range(1, n + 1)] for q in primes], dtype=np.int64)
    stack = (a % p[:, None, None].astype(object)).astype(np.int64)
    m = np.broadcast_to(np.eye(n, dtype=np.int64), stack.shape)
    residue = np.zeros((len(primes), n), dtype=np.int64)
    for k in range(n):
        m = np.matmul(stack, m) % p[:, None, None]
        diag = m.reshape(len(primes), -1)[:, :: n + 1]  # a view
        residue[:, k] = -diag.sum(axis=1) % p * inverse[:, k] % p
        diag += residue[:, k, None]
        diag %= p[:, None]
    # CRT: c = sum_i r_i w_i mod P, w_i = (P / p_i) ((P / p_i)^(-1) mod p_i)
    weights = np.array([product // q * pow(product // q % q, -1, q) for q in primes], dtype=object)
    lifted = (weights @ residue.astype(object) % product).tolist()
    return (1, *(c - product if c > product // 2 else c for c in lifted))
