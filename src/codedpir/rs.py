"""
Systematic (N, K) Reed-Solomon code over F_p with erasure decoding.

A codeword is the evaluation at points 0..N-1 of the degree-<K
polynomial interpolating the message on points 0..K-1, so the first K
symbols are the message itself.  Any K symbols determine the codeword
(MDS property), which is what both the storage layer and the PIR
decoder rely on.

Matrices are read-only int64 arrays with entries in [0:p), cached per
position set; codes are cached per (N, K, p) by `make_code`, so every
caller in a process shares one code and its caches.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict

import numpy as np

from .gf import check_modulus, inv_mod
from .linalg import matmul_mod


class CodeParameterError(ValueError):
    """Invalid (N, K, p) combination."""


class InsufficientDataError(ValueError):
    """Fewer than K known symbols were supplied for erasure decoding."""


class CorruptCodewordError(ValueError):
    """Known symbols are inconsistent with any codeword."""


def _frozen(rows) -> np.ndarray:
    array = np.array(rows, dtype=np.int64)
    array.flags.writeable = False
    return array


class MdsCode:
    """Fixed systematic RS code; its matrices never change once built."""

    def __init__(self, n_total: int, k_msg: int, prime: int):
        if not 0 < k_msg <= n_total:
            raise CodeParameterError(f"need 0 < K <= N, got N={n_total}, K={k_msg}")
        try:
            check_modulus(prime)
        except ValueError as exc:
            raise CodeParameterError(str(exc)) from exc
        if prime < n_total:
            raise CodeParameterError(
                f"prime {prime} < N={n_total}: not enough evaluation points"
            )
        if prime >= 2**63:
            raise CodeParameterError(f"prime {prime} does not fit in int64")
        self.n_total = n_total
        self.k_msg = k_msg
        self.prime = prime
        self.eval_points = tuple(range(n_total))
        self._recovery_cache: dict[tuple[int, ...], np.ndarray] = {}
        self._residual_cache: dict[tuple[int, ...], np.ndarray] = {}
        # Decode maps of the PIR scheme, least recently used first: the
        # maps built per column set, keyed by the sorted column, and the
        # maps derived from them per column.  scheme.decode_map fills
        # and bounds both under the one lock.
        self.column_set_maps: OrderedDict[tuple[int, ...], np.ndarray] = OrderedDict()
        self.decode_maps: OrderedDict[tuple[int, ...], np.ndarray] = OrderedDict()
        self.decode_maps_lock = threading.Lock()
        self.generator = self.recovery_matrix(tuple(range(k_msg)))

    def recovery_matrix(self, positions: tuple[int, ...]) -> np.ndarray:
        """K x N matrix R with full codeword = known_values · R.

        Row j is the Lagrange basis polynomial for positions[j] over the
        point set `positions`, evaluated at all N points.
        """
        cached = self._recovery_cache.get(positions)
        if cached is not None:
            return cached
        p = self.prime
        rows = []
        for j, tj in enumerate(positions):
            denom = 1
            for i, ti in enumerate(positions):
                if i != j:
                    denom = denom * (tj - ti) % p
            scale = inv_mod(denom, p)
            row = []
            for x in self.eval_points:
                num = 1
                for i, ti in enumerate(positions):
                    if i != j:
                        num = num * (x - ti) % p
                row.append(num * scale % p)
            rows.append(row)
        matrix = self._recovery_cache[positions] = _frozen(rows)
        return matrix

    def residual_matrix(self, positions: tuple[int, ...]) -> np.ndarray:
        """N x N matrix X with X @ y = y - (the codeword through y at positions).

        Row t of X gives symbol t of a received word minus the codeword
        interpolated from its K symbols at `positions`; rows at those
        positions are zero.
        """
        cached = self._residual_cache.get(positions)
        if cached is not None:
            return cached
        residual = np.eye(self.n_total, dtype=np.int64)
        residual[:, list(positions)] -= self.recovery_matrix(positions).T
        residual %= self.prime
        residual.flags.writeable = False
        self._residual_cache[positions] = residual
        return residual

    def encode(self, message: list[int]) -> list[int]:
        if len(message) != self.k_msg:
            raise CodeParameterError(
                f"message length {len(message)} != K={self.k_msg}"
            )
        values = np.array(message, dtype=np.int64) % self.prime
        return matmul_mod(values, self.generator, self.prime).tolist()

    def erasure_decode(self, known) -> list[int]:
        """Unique codeword agreeing with the known (position, value) pairs.

        The K smallest known positions are authoritative; any extra
        entries are consistency-checked against the interpolation.
        """
        entries = sorted(dict(known).items())
        if len(entries) < self.k_msg:
            raise InsufficientDataError(
                f"{len(entries)} known symbols < K={self.k_msg}"
            )
        for pos, _ in entries:
            if not 0 <= pos < self.n_total:
                raise CodeParameterError(f"position {pos} out of [0:{self.n_total})")
        base = entries[: self.k_msg]
        positions = tuple(pos for pos, _ in base)
        values = np.array([v % self.prime for _, v in base], dtype=np.int64)
        p = self.prime
        codeword = matmul_mod(values, self.recovery_matrix(positions), p).tolist()
        for pos, val in entries[self.k_msg:]:
            if codeword[pos] != val % p:
                raise CorruptCodewordError(
                    f"symbol at position {pos} disagrees with interpolation"
                )
        return codeword

    def message_of(self, codeword: list[int]) -> list[int]:
        return list(codeword[: self.k_msg])


@functools.lru_cache(maxsize=16)
def make_code(n_total: int, k_msg: int, prime: int) -> MdsCode:
    """The shared code for (N, K, p), built on first use."""
    return MdsCode(n_total, k_msg, prime)
