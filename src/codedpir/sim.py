"""
In-process experiment harness: many seeded retrievals against one
system, compared with the exact closed forms.

Files are generated once per run; the download cost does not depend on
file contents, and fixed files keep the per-trial decode check cheap.
Every single decode is compared against its source file, so a passing
run is also a correctness sweep.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import analysis, scheme
from .rs import make_code
from .scheme import SystemParams

# Entries per batch of trials, which bound the working set: the larger
# of the (M, T, k, N) symbols retrieve_batch gathers and sums in one
# product, and the (T, lam*K, N*k) decode maps decode_batch stacks for
# its one product (2 MB as float64 or int64); and query entries per
# batch of enumerated master queries (256 KB).
TRIAL_CHUNK_ENTRIES = 1 << 18
ENUM_CHUNK_ENTRIES = 1 << 15


class FailedTrialError(RuntimeError):
    """A decoded file did not match its source."""

    def __init__(self, seed: int, trial: int, theta: int):
        super().__init__(f"decode mismatch at trial {trial} (seed={seed}, theta={theta})")
        self.seed = seed
        self.trial = trial
        self.theta = theta


@dataclass
class TrialStats:
    trials: int
    total_download: int
    per_server_load: list[int]
    empirical_rate: Fraction
    exact_expected_download: Fraction
    exact_rate: Fraction

    @property
    def mean_download(self) -> Fraction:
        return Fraction(self.total_download, self.trials)


def run_trials(
    params: SystemParams,
    n_trials: int,
    seed: int,
    theta_policy: str = "fixed",
    theta: int = 0,
    family: str = scheme.OMEGA,
) -> TrialStats:
    """n_trials independent (query, theta) retrievals over fixed random
    files, with masters of `family` (the paper's OMEGA unless told).

    Trials run through scheme.retrieve_batch in batches whose gather and
    decode maps hold about TRIAL_CHUNK_ENTRIES entries; the download is
    counted from the live-round mask.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if theta_policy not in ("fixed", "uniform"):
        raise ValueError(f"unknown theta_policy {theta_policy!r}")
    rng = scheme.make_rng(seed)
    code = make_code(params.n_servers, params.k_mds, params.prime)
    sources = scheme.random_sources(params, rng)
    _, storages = scheme.encode_system(params, sources, code)

    masters = scheme.sample_master_queries(params, rng, n_trials, family)
    if theta_policy == "uniform":
        thetas = rng.integers(0, params.m_files, size=n_trials)
    else:
        thetas = np.full(n_trials, theta)

    per_server = np.zeros(params.n_servers, dtype=np.int64)
    per_trial = params.n_servers * params.k_reduced * max(params.m_files, params.file_len)
    step = max(1, TRIAL_CHUNK_ENTRIES // per_trial)
    for start in range(0, n_trials, step):
        chunk = slice(start, start + step)
        files, live = scheme.retrieve_batch(
            masters[chunk], thetas[chunk], storages, params, code
        )
        wrong = np.flatnonzero(np.logical_or.reduce(files != sources[thetas[chunk]], axis=(1, 2)))
        if wrong.size:
            trial = start + int(wrong[0])
            raise FailedTrialError(seed, trial, int(thetas[trial]))
        per_server += np.add.reduce(live, axis=(0, 2))

    total = int(np.add.reduce(per_server))
    exact = analysis.expected_download(params)
    return TrialStats(
        trials=n_trials,
        total_download=total,
        per_server_load=per_server.tolist(),
        empirical_rate=Fraction(params.file_len * n_trials, total),
        exact_expected_download=exact,
        exact_rate=analysis.scheme_rate(params),
    )


def exact_expectation_by_enumeration(
    params: SystemParams, budget: int = 10**6, theta: int = 0, family: str = scheme.OMEGA
) -> Fraction:
    """Mean realized download over the full query space of `family`,
    Omega^M or Z_n^M, exactly.

    Counts live rounds of every server's query with the mask the batch
    engine uses, read from the family table: server t's round s is live
    where the master's row s is live apart from the desired file, or the
    desired column shifted by t is low in row s (scheme.low_masks).
    This is an enumeration-based check on the closed-form expectation,
    so it uses no distributional shortcuts.  Masters are taken
    ENUM_CHUNK_ENTRIES query entries at a time, by their index in the
    space (scheme.query_space's order).
    """
    size = scheme.query_space_size(params, family)
    if size > budget:
        raise analysis.BudgetExceededError(
            f"|query space| = {size} exceeds budget {budget}"
        )
    scheme._checked_thetas(theta, params)
    n, k = params.n_reduced, params.k_reduced
    shifted = _shifted_low_masks(scheme.family_table(n, k, family), n)
    shape = (len(shifted),) * params.m_files
    per_master = params.n_servers * k * params.m_files
    chunk = max(1, ENUM_CHUNK_ENTRIES // per_master)
    total = 0
    for start in range(0, size, chunk):
        # (M, masters): each file's row of the table
        digits = np.stack(np.unravel_index(np.arange(start, min(start + chunk, size)), shape))
        others = np.bitwise_or.reduce(shifted[np.delete(digits, theta, axis=0), 0], axis=0)
        # (masters, n): the n shifts of the desired column, d servers each
        live = others[:, None] | shifted[digits[theta]]
        total += params.d * int((live[..., None] >> np.arange(k) & 1).sum())
    return Fraction(total, size)


def _shifted_low_masks(table: np.ndarray, n: int) -> np.ndarray:
    """(rows, n): the low-row bitmask of each column of a family table
    shifted by t mod n, one t at a time to bound the memory."""
    # Widened: in the table's u8, entry + t would wrap mod 256.
    wide = table.astype(np.int64)
    return np.stack([scheme.low_masks((wide + t) % n, n) for t in range(n)], axis=1)


def sweep(grid, trials: int, seed: int, theta_policy: str = "fixed"):
    """Run formulas (and optionally trials) per (N, K, M[, p]) grid point.

    Invalid points are recorded as error rows instead of aborting the
    sweep.  Returns a list of row dicts; see rows_to_csv / rows_to_json.
    """
    rows = []
    for point in grid:
        if len(point) == 4:
            n_servers, k_mds, m_files, prime = point
        else:
            n_servers, k_mds, m_files = point
            prime = scheme.DEFAULT_PRIME
        try:
            params = scheme.derive_params(n_servers, k_mds, m_files, prime)
        except scheme.ParameterError as exc:
            rows.append(
                {"N": n_servers, "K": k_mds, "M": m_files, "p": prime, "error": str(exc)}
            )
            continue
        bound = analysis.min_file_length_bound(n_servers, k_mds, m_files)
        row = {
            "N": n_servers,
            "K": k_mds,
            "M": m_files,
            "p": prime,
            "L": params.file_len,
            "trials": trials,
            "mean_download": None,
            "exact_download": analysis.expected_download(params),
            "empirical_rate": None,
            "capacity": analysis.capacity(n_servers, k_mds, m_files),
            "bound": bound.bound,
            "tight": bound.tight,
            # prior-construction file lengths, for side-by-side comparison
            "L_prev_best": k_mds * params.n_reduced ** (m_files - 1),
            "L_original": k_mds * n_servers**m_files,
        }
        if trials > 0:
            stats = run_trials(params, trials, seed, theta_policy=theta_policy)
            row["mean_download"] = stats.mean_download
            row["empirical_rate"] = stats.empirical_rate
        rows.append(row)
    return rows


CSV_COLUMNS = [
    "N", "K", "M", "p", "L", "trials", "mean_download", "exact_download",
    "empirical_rate", "capacity", "bound", "tight",
]


def _cell(value) -> str:
    return "" if value is None else str(value)


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        if "error" in row:
            continue
        writer.writerow([_cell(row[c]) for c in CSV_COLUMNS])
    return buf.getvalue()


def exact_json(value) -> str:
    """json.dumps' `default`: an exact rational as its str, "p/q" or "n";
    TypeError for any other value JSON has no form for."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def rows_to_json(rows) -> str:
    return json.dumps(rows, default=exact_json, indent=2)
