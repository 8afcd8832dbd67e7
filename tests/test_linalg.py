import itertools
import random

import numpy as np
import pytest

from codedpir.linalg import matmul_mod, rank_mod, sum_dtype


def row_space_rank(rows, p):
    """Oracle: rank = log_p |span of the rows|, by full enumeration."""
    span = {tuple([0] * len(rows[0]))}
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        vec = tuple(
            sum(c * row[j] for c, row in zip(coeffs, rows)) % p
            for j in range(len(rows[0]))
        )
        span.add(vec)
    size = len(span)
    rank = 0
    while size > 1:
        size //= p
        rank += 1
    return rank


@pytest.mark.parametrize("p", [2, 3])
def test_rank_against_span_oracle(p):
    rng = random.Random(7)
    for _ in range(40):
        n_rows = rng.randint(1, 4)
        n_cols = rng.randint(1, 5)
        rows = [[rng.randrange(p) for _ in range(n_cols)] for _ in range(n_rows)]
        assert rank_mod(rows, p) == row_space_rank(rows, p)


def test_rank_edge_cases():
    assert rank_mod([], 7) == 0
    assert rank_mod([[0, 0], [0, 0]], 7) == 0
    assert rank_mod([[1, 0], [0, 1]], 7) == 2
    # rows equal mod 5 but not over the integers
    assert rank_mod([[1, 2], [6, 7]], 5) == 1


@pytest.mark.parametrize("p", [7, 65537, 2**31 - 1, 4294967291, 2**61 - 1])
def test_matmul_mod_is_exact(p):
    # small and int64-overflowing moduli against Python-int arithmetic
    rng = random.Random(p)
    a = [[rng.randrange(p) for _ in range(6)] for _ in range(3)]
    b = [[rng.randrange(p) for _ in range(4)] for _ in range(6)]
    expected = [
        [sum(a[i][j] * b[j][c] for j in range(6)) % p for c in range(4)] for i in range(3)
    ]
    got = matmul_mod(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), p)
    assert got.dtype == np.int64
    assert got.tolist() == expected


@pytest.mark.parametrize("p", [4294967291, 2**40 + 2])
def test_sum_dtype_is_exact_on_both_sides_of_two_to_the_53(p):
    """With every entry at p-1, the most terms whose sum stays below 2^53
    sum exactly in float64, by one product with ones as the batch engine
    sums files; one term more takes int64, exact too.  (2^40 + 2 is no
    prime: it gives odd entries and a sum near 2^53 in 8,191 terms.)"""
    under = (2**53 - 1) // (p - 1)
    for terms, dtype in [(under, np.float64), (under + 1, np.int64)]:
        assert sum_dtype(terms, p) is dtype
        total = np.ones(terms, dtype) @ np.full(terms, p - 1, dtype)
        assert int(total) == terms * (p - 1)
    assert under * (p - 1) < 2**53 <= (under + 1) * (p - 1)
