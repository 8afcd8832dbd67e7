"""
Systematic (N, K) Reed-Solomon code over F_p, as the matrices the PIR
scheme encodes and decodes with.

A codeword is the evaluation at points 0..N-1 of the degree-<K
polynomial interpolating the message on points 0..K-1, so the first K
symbols are the message itself and the generator is the recovery
matrix of positions 0..K-1.  Any K symbols determine the codeword (MDS
property): their recovery matrix maps them to it, and their residual
matrix strips it from a received word.

Matrices are int64 arrays with entries in [0:p).  Recovery matrices are
cached per position set, and the scheme's decode maps per desired
column, both read-only and each cache up to MATRIX_CACHE_BYTES; codes
are cached per (N, K, p) by `make_code`, so every caller in a process
shares one code and its caches.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict

import numpy as np

from .gf import inv_mod, is_prime


# Bytes of matrices one code keeps in each of its two caches: every
# recovery matrix of (5,3) and (8,5) fits, and about 870 of the 6720
# (8,5) decode maps; a (259,2) code keeps about a thousand 4 KB recovery
# matrices and one 2.1 MB decode map, where a long-lived client would
# otherwise pile up hundreds of MB.
MATRIX_CACHE_BYTES = 1 << 22


class CodeParameterError(ValueError):
    """Invalid (N, K, p) combination."""


class MatrixCache(OrderedDict):
    """Read-only matrices by key, least recently used first, dropped from
    the front once they hold more than `limit` bytes (the last one put
    always stays).  `get` and `put` are the way in and out, each under
    the cache's own lock: callers build matrices outside it, in several
    threads."""

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit
        self.nbytes = 0
        self._lock = threading.Lock()

    def get(self, key):
        """The matrix of `key`, marked as used most recently, or None."""
        with self._lock:
            found = OrderedDict.get(self, key)  # not super(): 0.2 us dearer
            if found is not None:
                self.move_to_end(key)
            return found

    def put(self, key, matrix: np.ndarray) -> None:
        """Keep `matrix` as the most recent, dropping the least recent
        ones beyond the limit."""
        with self._lock:
            old = self.pop(key, None)
            self.nbytes += matrix.nbytes - (0 if old is None else old.nbytes)
            self[key] = matrix
            while self.nbytes > self.limit and len(self) > 1:
                self.nbytes -= self.popitem(last=False)[1].nbytes


class MdsCode:
    """Fixed systematic RS code; its matrices never change once built."""

    def __init__(self, n_total: int, k_msg: int, prime: int):
        if not 0 < k_msg <= n_total:
            raise CodeParameterError(f"need 0 < K <= N, got N={n_total}, K={k_msg}")
        if not is_prime(prime):
            raise CodeParameterError(f"modulus {prime} is not prime")
        if prime < n_total:
            raise CodeParameterError(
                f"prime {prime} < N={n_total}: not enough evaluation points"
            )
        if prime >= 2**63:
            raise CodeParameterError(f"prime {prime} does not fit in int64")
        self.n_total = n_total
        self.k_msg = k_msg
        self.prime = prime
        self.recovery_matrices = MatrixCache(MATRIX_CACHE_BYTES)
        # The PIR scheme's decode maps per desired column (scheme.decode_map).
        self.decode_maps = MatrixCache(MATRIX_CACHE_BYTES)
        self.generator = self.recovery_matrix(tuple(range(k_msg)))

    def recovery_matrix(self, positions: tuple[int, ...]) -> np.ndarray:
        """K x N matrix R with full codeword = known_values · R.

        Row j is the Lagrange basis polynomial for positions[j] over the
        point set `positions`, evaluated at all N points.
        """
        cached = self.recovery_matrices.get(positions)
        if cached is not None:
            return cached
        p, k = self.prime, len(positions)
        # A product of two residues is exact in int64 while (p-1)^2 < 2^63.
        dtype = np.int64 if (p - 1) ** 2 < 2**63 else object
        # factors[j, i, x] = x - positions[i], and 1 where i = j: row j of
        # the basis is the product over i.
        points = np.arange(self.n_total, dtype=dtype)
        factors = (points - np.array(positions, dtype=dtype)[:, None]) % p
        factors = np.where(np.eye(k, dtype=bool)[:, :, None], 1, factors)
        basis = factors[:, 0]
        for i in range(1, k):
            basis = basis * factors[:, i] % p
        scale = [inv_mod(int(basis[j, t]), p) for j, t in enumerate(positions)]
        matrix = (basis * np.array(scale, dtype=dtype)[:, None] % p).astype(np.int64)
        matrix.flags.writeable = False
        self.recovery_matrices.put(positions, matrix)
        return matrix

    def residual_matrix(self, positions: tuple[int, ...]) -> np.ndarray:
        """N x N matrix X with X @ y = y - (the codeword through y at positions).

        Row t of X gives symbol t of a received word minus the codeword
        interpolated from its K symbols at `positions`; rows at those
        positions are zero.  Built on every call: only a decode map
        build, itself cached, asks for one.
        """
        residual = np.eye(self.n_total, dtype=np.int64)
        residual[:, list(positions)] -= self.recovery_matrix(positions).T
        residual %= self.prime
        return residual


@functools.lru_cache(maxsize=16)
def make_code(n_total: int, k_msg: int, prime: int) -> MdsCode:
    """The shared code for (N, K, p), built on first use."""
    return MdsCode(n_total, k_msg, prime)
