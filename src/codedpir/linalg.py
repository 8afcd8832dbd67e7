"""
Matrix arithmetic over F_p.

`matmul_mod` is the one matrix product of the package: every encode,
answer decode and decode-map build goes through it, so the int64
overflow rule lives in one place.  `rank_mod` eliminates on plain int
matrices given as lists of row lists; pivoting is first-nonzero in
column order, which keeps elimination deterministic.
"""

from __future__ import annotations

import numpy as np

from .gf import inv_mod

_INT64_LIMIT = 2**63


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p for int64 operands with entries in [0:p).

    int64 holds every partial sum while inner * (p-1)^2 < 2^63; beyond
    that the product is taken over Python ints, which is exact for any
    p and slower.
    """
    inner = a.shape[-1]
    if inner * (p - 1) ** 2 < _INT64_LIMIT:
        return (a @ b) % p
    return ((a.astype(object) @ b.astype(object)) % p).astype(np.int64)


def rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank of a matrix over F_p."""
    if not rows:
        return 0
    m = [[int(x) % p for x in row] for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv_p = inv_mod(m[rank][col], p)
        m[rank] = [x * inv_p % p for x in m[rank]]
        for r in range(n_rows):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank
