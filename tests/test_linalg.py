"""Exact linear algebra: modular ranks and the modulus guard."""

import numpy as np
import pytest

from bpsing.linalg import DEFAULT_MODULUS, PARANOIA_MODULUS, check_modulus, rank_exact, rank_mod


def _low_rank(rng, rows, cols, rank):
    return rng.integers(-3, 4, (rows, rank)) @ rng.integers(-3, 4, (rank, cols))


def test_rank_mod_matches_exact_rank():
    rng = np.random.default_rng(5)
    for _ in range(60):
        rows, cols = rng.integers(1, 13, 2)
        a = _low_rank(rng, rows, cols, int(rng.integers(0, min(rows, cols) + 1)))
        # zero rows and columns force row swaps and empty pivot columns
        a[rng.random(rows) < 0.3] = 0
        a[:, rng.random(cols) < 0.3] = 0
        assert rank_mod(a, DEFAULT_MODULUS) == rank_exact(a.tolist())


def test_rank_mod_small_field_and_edge_shapes():
    assert rank_mod(np.array([[2, 4], [1, 2]]), 2) == 1
    assert rank_mod(np.array([[0, 1], [1, 0]]), 3) == 2
    assert rank_mod(np.zeros((0, 3), dtype=np.int64), DEFAULT_MODULUS) == 0
    assert rank_mod(np.zeros((4, 5), dtype=np.int64), DEFAULT_MODULUS) == 0
    assert rank_mod(np.eye(6, dtype=np.int64)[::-1], PARANOIA_MODULUS) == 6


def test_modulus_guard():
    for bad in (32004, 1, 2**31 + 11, 4294967311):
        with pytest.raises(ValueError):
            check_modulus(bad)
        with pytest.raises(ValueError):
            rank_mod(np.eye(2, dtype=np.int64), bad)


def test_largest_modulus_is_exact():
    # 2**31 - 1 is prime; residue products stay below 2**62
    q = 2**31 - 1
    check_modulus(q)
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = rng.integers(q // 2, q, (6, 1))
        v = rng.integers(q // 2, q, (1, 5))
        a = (u * v) % q
        assert rank_mod(a, q) == 1


def test_valid_modulus_checked_once():
    q = 2**31 - 1
    a = np.eye(3, dtype=np.int64)
    assert rank_mod(a, q) == rank_mod(a, q) == 3
    assert check_modulus.cache_info().hits >= 1
    # a rejected modulus is not remembered
    for _ in range(2):
        with pytest.raises(ValueError):
            rank_mod(a, 32004)
