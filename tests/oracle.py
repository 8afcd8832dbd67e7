"""
Loop reference implementations that the batch engine is checked against.

They are the package's earlier scalar code paths: a round-by-round
decoder built on erasure decoding, a per-row server answer, and a
trial-by-trial Monte-Carlo loop.  The erasure decoder interpolates in
Python ints from the code's recovery matrix alone, where the engine's
decode maps also use the residual matrices.  They read the same dense
storage and draw from the RNG in the same order, so their results must
equal the engine's exactly.  answer_array turns the per-server answer
lists into the (N, k) array that scheme.decode takes.
retrieve_batch_reference is scheme.retrieve_batch as a per-server
pipeline: it forms all N servers' queries, checks and answers each one
on its own, and decodes.
"""

from fractions import Fraction

import numpy as np

from codedpir import analysis, scheme
from codedpir.rs import make_code
from codedpir.sim import FailedTrialError, TrialStats


def erasure_decode(code, known):
    """The codeword through K known (position, value) pairs."""
    positions, values = zip(*sorted(known))
    recovery = code.recovery_matrix(positions).tolist()
    return [sum(v * r for v, r in zip(values, column)) % code.prime for column in zip(*recovery)]


def answer_array(answers):
    """N servers' server_answer lists as the (N, k) int64 array that
    scheme.decode takes, 0 in NULL rounds."""
    return np.array([[value or 0 for value in answer] for answer in answers], dtype=np.int64)


def answer_queries(symbols, queries, params):
    """Round answers (..., S, k) of S servers to validated queries
    (..., S, k, M), one gather from their stacked (S, M, n) storage
    arrays; NULL rounds select only dummy rows and read 0."""
    servers = np.arange(len(symbols))[:, None, None]
    files = np.arange(params.m_files)
    return symbols[servers, files, queries].sum(axis=-1) % params.prime


def live_rounds(queries, params):
    """(..., k) mask of the rounds that transmit: some entry below n-k."""
    return (np.asarray(queries) < params.rows_per_file).any(axis=-1)


def retrieve_batch_reference(masters, thetas, storages, params, code):
    """scheme.retrieve_batch through the (T, N, k, M) server queries:
    server_queries, validate_query, the answer gather, live_rounds and
    decode_batch."""
    masters = np.asarray(masters)
    queries = scheme.validate_query(scheme.server_queries(masters, thetas, params), params)
    symbols = np.stack([storage.symbols for storage in storages])
    answers = answer_queries(symbols, queries, params)
    columns = masters[np.arange(len(masters)), :, np.asarray(thetas)]
    files = scheme.decode_batch(answers, columns, params, code)
    return files, live_rounds(queries, params)


def decode_loop(answers, master, theta, params, code):
    """Reconstruct file theta round by round; a None answer reads as 0.

    Per round: identify the K servers whose shifted index lands in the
    dummy range (their answers are pure interference), erasure-decode
    the interference codeword from them, subtract it at the remaining
    servers to expose coded symbols of the desired file, then
    erasure-decode each of the lam rows from its K exposed symbols.
    """
    nn, kk = params.n_servers, params.k_mds
    n, k = params.n_reduced, params.k_reduced
    lam, p = params.rows_per_file, params.prime
    exposed = {j: [] for j in range(lam)}
    for s in range(k):
        v = master[s][theta]
        delta = [t for t in range(nn) if (v + t) % n >= lam]
        assert len(delta) == kk
        known = [(t, answers[t][s] or 0) for t in delta]
        interference = erasure_decode(code, known)
        for t in range(nn):
            j = (v + t) % n
            if j < lam:
                exposed[j].append((t, ((answers[t][s] or 0) - interference[t]) % p))
    rows = []
    for j in range(lam):
        assert len(exposed[j]) == kk
        rows.append(erasure_decode(code, exposed[j])[:kk])
    return rows


def server_answer_loop(storage, query, params):
    """k per-round responses from one row lookup per file; None if NULL."""
    symbols = storage.symbols.tolist()
    lam, p = params.rows_per_file, params.prime
    return [
        None if all(e >= lam for e in row)
        else sum(symbols[i][e] for i, e in enumerate(row)) % p
        for row in query
    ]


def run_trials_loop(params, n_trials, seed, theta_policy="fixed", theta=0):
    """sim.run_trials one trial at a time, with the same RNG draws."""
    rng = scheme.make_rng(seed)
    code = make_code(params.n_servers, params.k_mds, params.prime)
    sources = scheme.random_sources(params, rng).tolist()
    _, storages = scheme.encode_system(params, sources, code)
    masters = scheme.sample_master_queries(params, rng, n_trials)
    if theta_policy == "uniform":
        thetas = rng.integers(0, params.m_files, size=n_trials).tolist()
    else:
        thetas = [theta] * n_trials
    per_server = [0] * params.n_servers
    for trial in range(n_trials):
        master = masters[trial].tolist()
        th = thetas[trial]
        answers = [
            server_answer_loop(
                storages[t], scheme.build_server_query(master, th, t, params), params
            )
            for t in range(params.n_servers)
        ]
        if decode_loop(answers, master, th, params, code) != sources[th]:
            raise FailedTrialError(seed, trial, th)
        for t, answer in enumerate(answers):
            per_server[t] += sum(a is not None for a in answer)
    total = sum(per_server)
    return TrialStats(
        trials=n_trials,
        total_download=total,
        per_server_load=per_server,
        empirical_rate=Fraction(params.file_len * n_trials, total),
        exact_expected_download=analysis.expected_download(params),
        exact_rate=analysis.scheme_rate(params),
    )



def shifted_low_masks_loop(table, n):
    """sim._shifted_low_masks by a loop, (rows, n) lists: bit s of the
    mask of a column shifted by t is set where entry s plus t mod n is
    below n-k."""
    low = n - table.shape[1]
    return [
        [sum(1 << s for s, entry in enumerate(column) if (entry + t) % n < low) for t in range(n)]
        for column in table.tolist()
    ]
