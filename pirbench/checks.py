"""
Correctness checks of the benchmark, computed outside the package.

Every reference here comes from the benchmark's own sources and closed
forms, never from `codedpir.analysis`, so a fault in the package cannot
make its own output look right.  The module imports nothing from
`codedpir`, which keeps the checks testable on synthetic data.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.stats import chi2_contingency

# Significance of one privacy test.  A run makes one test per server, at
# most 8, and a benchmark proof makes at most 22 runs per workload, so a
# correct program trips it by chance with probability below 2e-4.
PRIVACY_ALPHA = 1e-6

# How many standard errors a sample mean may lie from its closed form.
MEAN_Z_LIMIT = 5.0


def reduced(n_servers: int, k_mds: int) -> tuple[int, int]:
    """(n, k) = (N, K) / gcd(N, K)."""
    d = math.gcd(n_servers, k_mds)
    return n_servers // d, k_mds // d


def live_round_probability(n_servers: int, k_mds: int, m_files: int) -> Fraction:
    """Chance that one round of one server transmits: 1 - (k/n)^M.

    A round is NULL when every entry of its query row lies in the dummy
    range [n-k:n); each entry is uniform on [0:n) and the M columns are
    independent.
    """
    n, k = reduced(n_servers, k_mds)
    return 1 - Fraction(k, n) ** m_files


def expected_server_load(n_servers: int, k_mds: int, m_files: int) -> Fraction:
    """Mean elements one server sends per retrieval: k * (1 - (k/n)^M)."""
    _, k = reduced(n_servers, k_mds)
    return k * live_round_probability(n_servers, k_mds, m_files)


def expected_download(n_servers: int, k_mds: int, m_files: int) -> Fraction:
    """Mean elements per retrieval: N * k * (1 - (k/n)^M)."""
    return n_servers * expected_server_load(n_servers, k_mds, m_files)


def query_space_size(n_servers: int, k_mds: int, m_files: int) -> int:
    """Number of master queries: P(n, k)^M."""
    n, k = reduced(n_servers, k_mds)
    return math.perm(n, k) ** m_files


def mean_within(samples, expected: Fraction) -> tuple[bool, float]:
    """Whether the sample mean lies within MEAN_Z_LIMIT standard errors.

    One element over the whole sample is always allowed, so a
    distribution with no spread (every retrieval downloads the same
    count) is judged by its exact mean.  Returns (ok, mean).
    """
    values = np.asarray(samples, dtype=np.float64)
    count = len(values)
    if count == 0:
        return False, float("nan")
    mean = float(values.mean())
    stderr = float(values.std(ddof=1)) / math.sqrt(count) if count > 1 else 0.0
    tolerance = MEAN_Z_LIMIT * stderr + 1.0 / count
    return abs(mean - float(expected)) <= tolerance, mean


def server_loads_within(
    per_server_load, trials: int, k_reduced: int, expected: Fraction
) -> bool:
    """Each server's mean load within MEAN_Z_LIMIT bounded standard errors.

    A server's load in one trial lies in [0:k], so its variance is at
    most k^2/4 whatever the dependence between rounds.
    """
    if trials < 1:
        return False
    tolerance = MEAN_Z_LIMIT * (k_reduced / 2) / math.sqrt(trials) + 1.0 / trials
    return all(abs(load / trials - float(expected)) <= tolerance for load in per_server_load)


def column_categories(row0: np.ndarray, row1: np.ndarray, n_reduced: int) -> np.ndarray:
    """Category of every query column: its first two entries, as one int."""
    return row0.astype(np.int64) * n_reduced + row1.astype(np.int64)


def theta_independence_pvalue(
    categories: np.ndarray, thetas: np.ndarray, n_reduced: int
) -> float:
    """χ² homogeneity p-value of one server's view against θ.

    `categories` is (retrievals, M): the category of each column of the
    query this server received.  Each column is put in one of two rows:
    the desired file's column (index θ) or any other.  If the server's
    view does not depend on θ and θ is uniform, both rows have the same
    distribution, so a small p-value means the query reveals θ.
    """
    retrievals, m_files = categories.shape
    width = n_reduced * n_reduced
    desired_mask = np.zeros((retrievals, m_files), dtype=bool)
    desired_mask[np.arange(retrievals), thetas] = True
    table = np.vstack(
        [
            np.bincount(categories[desired_mask], minlength=width),
            np.bincount(categories[~desired_mask], minlength=width),
        ]
    )
    table = table[:, table.sum(axis=0) > 0]
    if table.shape[1] < 2:
        return 1.0
    return float(chi2_contingency(table, correction=False).pvalue)


def files_equal(decoded, source) -> bool:
    """Decoded rows equal the generated source, element by element."""
    return [list(map(int, row)) for row in decoded] == [list(row) for row in source]
