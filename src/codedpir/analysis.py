"""
Exact performance formulas and runtime verification of the scheme's
structural properties.

Everything numeric here is an exact rational (fractions.Fraction);
floats appear only inside the chi-square statistics.  The rank checks
work on the 0/1 answer matrix that realizes a server's answer as a
linear map of its storage: the interference rank r (answer matrix with
the desired file's column block removed) ties the per-realization
download cost to the file length via D_rel = L + K*r.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import scheme
from .linalg import rank_mod
from .scheme import SystemParams


class BudgetExceededError(RuntimeError):
    """Exhaustive enumeration would exceed the configured budget."""


def capacity(n_servers: int, k_mds: int, m_files: int) -> Fraction:
    """Exact download-rate capacity of the (N, K, M) coded system."""
    if not (n_servers >= k_mds >= 1 and m_files >= 1):
        raise ValueError(f"invalid counts ({n_servers}, {k_mds}, {m_files})")
    ratio = Fraction(k_mds, n_servers)
    return 1 / sum(ratio**i for i in range(m_files))


@functools.lru_cache(maxsize=64)
def expected_download(params: SystemParams) -> Fraction:
    """Exact expected download cost N*k*(1 - (k/n)^M) in field elements,
    memoized with scheme_rate: (k/n)^M is big-integer work at large M,
    and every sim.run_trials call asks for both."""
    n, k = params.n_reduced, params.k_reduced
    return params.n_servers * k * (1 - Fraction(k, n) ** params.m_files)


@functools.lru_cache(maxsize=64)
def scheme_rate(params: SystemParams) -> Fraction:
    return Fraction(params.file_len) / expected_download(params)


@dataclass(frozen=True)
class BoundInfo:
    bound: int
    tight: bool
    scheme_file_len: int
    gap_factor: Fraction  # scheme L / bound; K/gcd(N,K) in the non-tight case


def min_file_length_bound(n_servers: int, k_mds: int, m_files: int) -> BoundInfo:
    """Lower bound on file length of capacity-achieving linear schemes.

    Tight (equals this scheme's L) when M exceeds the threshold
    floor(K/gcd - K/(N-K)) + 1; otherwise only N-K is guaranteed.
    """
    if not (n_servers > k_mds >= 1 and m_files > 1):
        raise ValueError(f"invalid counts ({n_servers}, {k_mds}, {m_files})")
    d = math.gcd(n_servers, k_mds)
    scheme_len = k_mds * (n_servers - k_mds) // d
    threshold = math.floor(Fraction(k_mds, d) - Fraction(k_mds, n_servers - k_mds)) + 1
    if m_files > threshold:
        bound, tight = scheme_len, True
    else:
        bound, tight = n_servers - k_mds, False
    return BoundInfo(bound, tight, scheme_len, Fraction(scheme_len, bound))


# ---------------------------------------------------------------------------
# answer matrices and ranks


def build_answer_matrix(query: list[list[int]], params: SystemParams) -> list[list[int]]:
    """0/1 matrix A of shape l_t x M*lam with answer = A · storage.

    One row per non-NULL round; column blocks of width lam follow
    file order, and dummy indices (>= lam) contribute no column.
    """
    scheme.validate_query(query, params)
    lam = params.rows_per_file
    width = params.m_files * lam
    rows = []
    for qrow in query:
        if all(entry >= lam for entry in qrow):
            continue
        row = [0] * width
        for i, entry in enumerate(qrow):
            if entry < lam:
                row[i * lam + entry] = 1
        rows.append(row)
    return rows


def interference_rank(matrix: list[list[int]], theta: int, params: SystemParams) -> int:
    """Rank over F_p of the answer matrix with block theta removed."""
    if not 0 <= theta < params.m_files:
        raise ValueError(f"theta={theta} out of [0:{params.m_files})")
    lam = params.rows_per_file
    lo, hi = theta * lam, (theta + 1) * lam
    stripped = [row[:lo] + row[hi:] for row in matrix]
    return rank_mod(stripped, params.prime)


@dataclass
class RankReport:
    theta: int
    ranks: list[int]
    answer_lengths: list[int]
    realized_download: int
    ranks_equal: bool
    identity_holds: bool

    @property
    def passed(self) -> bool:
        return self.ranks_equal and self.identity_holds

    def to_json(self, params: SystemParams) -> dict:
        return {
            "check": "rank-identity",
            "params": [params.n_servers, params.k_mds, params.m_files, params.prime],
            "theta": self.theta,
            "pass": self.passed,
            "details": {
                "ranks": self.ranks,
                "answer_lengths": self.answer_lengths,
                "realized_download": self.realized_download,
            },
        }


def verify_rank_identity(
    master: list[list[int]], theta: int, params: SystemParams
) -> RankReport:
    """Check equal interference ranks and D_rel = L + K*r for one realization."""
    ranks, lengths = [], []
    for query in scheme.server_queries([master], [theta], params)[0].tolist():
        matrix = build_answer_matrix(query, params)
        lengths.append(len(matrix))
        ranks.append(interference_rank(matrix, theta, params))
    d_rel = sum(lengths)
    ranks_equal = len(set(ranks)) == 1
    identity = ranks_equal and d_rel == params.file_len + params.k_mds * ranks[0]
    return RankReport(theta, ranks, lengths, d_rel, ranks_equal, identity)


# ---------------------------------------------------------------------------
# privacy


@dataclass
class PrivacyReport:
    mode: str
    passed: bool
    details: list = field(default_factory=list)

    def to_json(self, params: SystemParams) -> dict:
        return {
            "check": f"privacy-{self.mode}",
            "params": [params.n_servers, params.k_mds, params.m_files, params.prime],
            "pass": self.passed,
            "details": self.details,
        }


def verify_privacy(
    params: SystemParams,
    mode: str = "exhaustive",
    rng: np.random.Generator | None = None,
    samples: int = 100_000,
    budget: int = 10**6,
    significance: float = 0.01,
    family: str = scheme.OMEGA,
) -> PrivacyReport:
    """Verify that what a server sees is independent of the file index,
    for master queries of `family` (the paper's OMEGA unless told).

    Exhaustive mode checks that the master-to-server query map is a
    bijection on the full query space, Omega^M or Z_n^M, for every
    (theta, t); with deterministic answering this pins the server's view
    distribution.  Statistical mode runs per-entry chi-square uniformity
    tests on sampled server queries.
    """
    if mode == "exhaustive":
        return _verify_privacy_exhaustive(params, budget, family)
    if mode == "statistical":
        if rng is None:
            raise ValueError("statistical mode needs an rng")
        return _verify_privacy_statistical(params, rng, samples, significance, family)
    raise ValueError(f"unknown mode {mode!r}")


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    return rows[np.lexsort(rows.T[::-1])]


def _verify_privacy_exhaustive(params: SystemParams, budget: int, family: str) -> PrivacyReport:
    size = scheme.query_space_size(params, family)
    if size > budget:
        raise BudgetExceededError(f"|query space| = {size} exceeds budget {budget}")
    space = scheme.query_space(params, np.arange(size), family)
    # The space holds each query once, so server t's image of it is the
    # whole space exactly when the sorted images equal the sorted space.
    universe = _sorted_rows(space.reshape(size, -1))
    details = []
    passed = True
    for theta in range(params.m_files):
        served = scheme.server_queries(space, np.full(size, theta), params)
        for t in range(params.n_servers):
            image = _sorted_rows(served[:, t].reshape(size, -1))
            ok = bool(np.array_equal(image, universe))
            passed &= ok
            details.append({"theta": theta, "server": t, "bijection": ok})
    return PrivacyReport("exhaustive", passed, details)


def _verify_privacy_statistical(
    params: SystemParams, rng: np.random.Generator, samples: int, significance: float,
    family: str,
) -> PrivacyReport:
    # Imported here: scipy costs every process that imports the package
    # tens of megabytes, and only this verifier needs it.
    from scipy.stats import chisquare

    n, k, m = params.n_reduced, params.k_reduced, params.m_files
    master = scheme.sample_master_queries(params, rng, samples, family)
    details = []
    passed = True
    for theta in range(m):
        for t in range(params.n_servers):
            # Widened: in the sampler's u8, entry + t would wrap mod 256.
            served = master.astype(np.int64)
            served[:, :, theta] = (served[:, :, theta] + t) % n
            worst = 1.0
            for s in range(k):
                for i in range(m):
                    counts = np.bincount(served[:, s, i], minlength=n)
                    pval = float(chisquare(counts).pvalue)
                    worst = min(worst, pval)
            ok = worst >= significance
            passed &= ok
            details.append({"theta": theta, "server": t, "min_p_value": worst, "pass": ok})
    return PrivacyReport("statistical", passed, details)
