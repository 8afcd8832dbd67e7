"""
Matrix arithmetic over F_p.

`matmul_mod` is the one reduced matrix product of the package: every
encode, answer decode and decode-map build goes through it, so the
int64 overflow rule lives in one place.  `sum_dtype` is the exactness
rule of the one unreduced product, the batch engine's sum over files.
`rank_mod` eliminates on plain int matrices given as lists of row
lists; pivoting is first-nonzero in column order, which keeps
elimination deterministic.
"""

from __future__ import annotations

import numpy as np

from .gf import inv_mod

_INT64_LIMIT = 2**63
_FLOAT64_EXACT = 2**53


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


def sum_dtype(terms: int, p: int) -> type:
    """The dtype that sums `terms` entries of [0:p) exactly in one product.

    float64 while terms * (p-1) < 2^53, where every partial sum, in any
    order, is an integer that float64 holds, and BLAS multiplies it: on
    a 2-core x86 (numpy 2.4) ones @ a (256, 800) array took 43 us in
    float64, where int64 took 81 us even as .sum(axis=0).  Beyond that,
    int64.
    """
    return np.float64 if terms * (p - 1) < _FLOAT64_EXACT else np.int64


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
