"""
The coded linear PIR protocol itself.

Files live on N servers as rows of (N, K) Reed-Solomon codewords with
lam = n - k rows per file, where n = N/gcd(N,K) and k = K/gcd(N,K).
A retrieval samples a k x M master query, shifts the desired file's
column by the server index, and lets each server answer in k
independent rounds.  Rounds whose query row falls entirely in the dummy
range [n-k:n) are NULL and cost nothing; everything else is one field
element.

Master columns come from one of two query families, each a table of
columns (family_table), from which sample_master_queries draws M
uniform rows:

- OMEGA, the paper's: each column is uniform on Omega, the P(n,k)
  partial permutations of [0:n), tabled in itertools order wherever
  |Omega| <= OMEGA_TABLE_LIMIT.  Larger systems draw a column as the
  first k slots of a uniform permutation.
- SHIFTS: column j is the base column (0, 1, ..., k-1) shifted by r_j
  mod n, with r_j uniform on Z_n.  Server t sees the desired shift
  raised by t, so its view is uniform on Z_n^M for every desired file;
  each entry is uniform on [0:n) and the files independent, so the
  download, the rate and the file length are the paper's.  A query is
  M shifts rather than M columns, and only n desired columns exist.

A round is live where one of its query's columns is low there
(low_masks).  sample_master_queries and sim.run_trials draw OMEGA
unless told otherwise, as the paper does; gen_master_query and retrieve
draw SHIFTS unless told otherwise, as the TCP client (net) does.

The protocol runs as one batch engine on numpy arrays whose leading
axis counts retrievals: T master queries (T, k, M), C-contiguous in
n's narrowest dtype as sampled, and the servers' answers (T, N, k).  A
server's storage is one dense (M, n) array whose dummy rows are real
zeros, so a round's answer is a gather-sum over it.  Server queries
differ from the master in the desired column alone, so the engine
checks the masters in place and answers them against the N storages
stacked once per set of storages (the first call with them builds the
stack), summing the files in one product (in float64 where that is
exact, linalg.sum_dtype).  Decoding is linear: once the desired file's
master column c is fixed, one (lam*K x N*k) matrix D_c maps the N*k
answers to the file, and one product applies the stacked maps of a
batch's distinct columns to all of it.  The code caches D_c per column
(decode_map).  Reordering c only reorders the rounds, so a batch of
more than one orders each retrieval's rounds by its desired column
before decoding and needs at most one map per column set; a single
retrieval, a batch of one, keys its map by c as drawn, one of only n
columns for the SHIFTS family.

The list-based calls (gen_master_query, build_server_query,
server_answer) work on k x M query row lists and length-k answer lists
with None marking NULL rounds.  server_answer also takes a (k, M)
integer array.  It checks every query except the two forms the wire
decoder builds from shifts it has checked (ShiftQuery, ShiftRows),
whose columns are shifted base columns by construction.  decode is
decode_batch of one retrieval's (N, k) answer array, 0 in NULL rounds,
which the networked client fills with the values it has checked on
the wire.

A server's storage file (STORAGE_FORMAT, save_storage/load_storage) is
one UTF-8 JSON header line, {"format", "params", "server_index"}, then
the (M, lam) fragments row-major as little-endian integers of the
narrowest of 1, 2 or 4 bytes that holds p-1.  The width follows from p
and is never read from the file.  The loader checks the header, the
body's length and every value's range, and rebuilds the dummy rows as
zeros.  Source manifests stay JSON.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gf import is_prime
from .linalg import matmul_mod, sum_dtype
from .rs import MdsCode, make_code

DEFAULT_PRIME = 257

STORAGE_FORMAT = "pir-mds-storage/2"
SOURCE_FORMAT = "pir-mds-source/1"

# On the wire a query's system tag covers p as a u32, an answer value
# takes at most 4 bytes, and a query entry at most 16 bits.
PRIME_LIMIT = 2**32
MAX_REDUCED_N = 2**16 - 1
# M is bounded too: a QUERY payload is a 4-byte tag and M shifts of at
# most 16 bits, whose 4 + 2M bytes must fit the frame's u32 length, and
# the tag covers M as a u32.  M < 2^30 keeps 4 + 2M below 2^31 for
# every n.
FILE_LIMIT = 2**30

# The wire decoder (net) hands server_answer a query of up to this many
# entries as ShiftRows, answered by a loop over row lists, and a larger
# one as a ShiftQuery array, answered by one take: numpy's per-call
# costs outweigh the work of a small query in a server whose caches
# cool between queries, which a warm timing loop does not show.  On a
# 2-core x86 (Python 3.11, numpy 2.4), on the serving loop, the
# benchmark's tcp-533 workload (the 9-entry (5,3,3,257) query, 5 s
# runs, seeds 1-3) read a median retrieval of 0.264, 0.262 and 0.261 ms
# at this threshold against 0.289, 0.286 and 0.291 ms with every query
# an array (threshold 0).  At 1280 entries, (8,5,256), the array took
# 36 us against 90 us through row lists.
SMALL_QUERY_ENTRIES = 128

# Omega is tabled up to this many columns, at most 2^16 x 8 entries;
# larger systems draw its columns by an argsort.
OMEGA_TABLE_LIMIT = 2**16

# The query families (see the module docstring).
OMEGA = "omega"
SHIFTS = "shifts"


class ParameterError(ValueError):
    """System parameters outside the supported regime."""


class ProtocolError(ValueError):
    """Malformed query or answer."""


class DecodingError(RuntimeError):
    """Internal invariant violated while reconstructing a file."""


@dataclass(frozen=True)
class SystemParams:
    n_servers: int          # N
    k_mds: int              # K
    m_files: int            # M
    prime: int              # p
    d: int                  # gcd(N, K)
    n_reduced: int          # n = N/d
    k_reduced: int          # k = K/d
    rows_per_file: int      # lam = n - k; [lam:n) is the dummy range
    file_len: int           # L = K * lam


@functools.lru_cache(maxsize=64)
def derive_params(n_servers: int, k_mds: int, m_files: int, prime: int) -> SystemParams:
    """Checked parameters of an (N, K, M, p) system, memoized: each
    storage file loaded checks p for primality again otherwise."""
    if k_mds < 1 or n_servers <= k_mds:
        raise ParameterError(f"need N > K >= 1, got N={n_servers}, K={k_mds}")
    if m_files <= 1:
        raise ParameterError(f"need M > 1, got M={m_files}")
    if m_files >= FILE_LIMIT:
        raise ParameterError(f"M={m_files} >= {FILE_LIMIT}: a query would not fit a wire frame")
    if not is_prime(prime):
        raise ParameterError(f"p={prime} is not prime")
    if prime < n_servers:
        raise ParameterError(f"p={prime} < N={n_servers}")
    if prime >= PRIME_LIMIT:
        raise ParameterError(f"p={prime} does not fit the wire's u32 field")
    d = math.gcd(n_servers, k_mds)
    n = n_servers // d
    k = k_mds // d
    if n > MAX_REDUCED_N:
        raise ParameterError(f"n={n} > {MAX_REDUCED_N}: query entries take 16 bits on the wire")
    lam = n - k
    return SystemParams(
        n_servers=n_servers,
        k_mds=k_mds,
        m_files=m_files,
        prime=prime,
        d=d,
        n_reduced=n,
        k_reduced=k,
        rows_per_file=lam,
        file_len=k_mds * lam,
    )


@dataclass(frozen=True, eq=False)
class ServerStorage:
    """What server t holds: one dense, read-only (M, n) int64 array.

    symbols[i, j] is symbol t of the codeword of row j of file i, for
    j < lam; rows j in the dummy range [lam:n) are real zeros, so a
    query entry there adds nothing to an answer.  The array must not
    change once built: retrieve_batch reuses a stack of it.
    """

    server_index: int
    symbols: np.ndarray


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based (Philox) generator; all package randomness uses this."""
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# storage encoding


def random_sources(params: SystemParams, rng: np.random.Generator) -> np.ndarray:
    """M random source files, an (M, lam, K) int64 array over F_p."""
    shape = (params.m_files, params.rows_per_file, params.k_mds)
    return rng.integers(0, params.prime, size=shape)


def encode_system(params: SystemParams, sources, code: MdsCode | None = None):
    """Encode M source files and slice them into N server storages.

    Returns (encoded, storages): encoded[i, j] is the length-N codeword
    of row j of file i, an (M, lam, N) array from one matmul with the
    code's generator.
    """
    if code is None:
        code = make_code(params.n_servers, params.k_mds, params.prime)
    if len(sources) != params.m_files:
        raise ParameterError(f"expected {params.m_files} source files, got {len(sources)}")
    lam, kk = params.rows_per_file, params.k_mds
    try:
        rows = np.array(sources, dtype=np.int64)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ParameterError(f"source must be {lam} x {kk} integers") from exc
    if rows.shape != (params.m_files, lam, kk):
        raise ParameterError(f"source must be {lam} x {kk}")
    p, nn = params.prime, params.n_servers
    encoded = matmul_mod(rows.reshape(-1, kk) % p, code.generator, p).reshape(-1, lam, nn)
    symbols = np.zeros((nn, params.m_files, params.n_reduced), dtype=np.int64)
    symbols[:, :, :lam] = encoded.transpose(2, 0, 1)
    symbols.flags.writeable = False
    return encoded, [ServerStorage(t, symbols[t]) for t in range(nn)]


# ---------------------------------------------------------------------------
# queries


def sample_master_rows(
    params: SystemParams, rng: np.random.Generator, count: int, rows: int
) -> np.ndarray:
    """(count, M) indices of uniform rows of a family table of `rows` rows,
    floor(u * rows) of uniforms u: biased by at most rows / 2^53, and
    never rows."""
    return (rng.random((count, params.m_files)) * rows).astype(np.int64)


def sample_master_queries(
    params: SystemParams, rng: np.random.Generator, count: int, family: str = OMEGA
) -> np.ndarray:
    """(count, k, M) C-contiguous array of master-query entries of
    `family`, in n's narrowest dtype: u8 for n <= 256, u16 above.

    Column j is the family table's row at sample_master_rows.  Where
    Omega is too large to table, it is the first k slots of an argsort
    of iid uniforms, a uniform partial permutation of [0:n).  Widen
    before arithmetic: entry + shift wraps in u8.
    """
    n, k, m = params.n_reduced, params.k_reduced, params.m_files
    if _checked_family(family) == OMEGA and omega_size(params) > OMEGA_TABLE_LIMIT:
        perms = np.argsort(rng.random((count, m, n)), axis=2)[:, :, :k]
        columns = perms.astype(np.min_scalar_type(n - 1))
    else:
        table = family_table(n, k, family)
        columns = table.take(sample_master_rows(params, rng, count, len(table)), axis=0)
    return np.ascontiguousarray(columns.transpose(0, 2, 1))


def gen_master_query(
    params: SystemParams, rng: np.random.Generator, family: str = SHIFTS
) -> list[list[int]]:
    """One master query of `family` as k row lists."""
    return sample_master_queries(params, rng, 1, family)[0].tolist()


def _checked_family(family: str) -> str:
    if family not in (OMEGA, SHIFTS):
        raise ParameterError(f"unknown query family {family!r}")
    return family


def server_queries(masters, thetas, params: SystemParams) -> np.ndarray:
    """(T, N, k, M) queries of every server for T masters and desired files.

    Server t's query is the master with the desired file's column
    shifted by t mod n.
    """
    masters = np.asarray(masters)
    # Widened: the sampler's u8 masters would wrap entry + t mod 256.
    masters = masters.astype(np.promote_types(masters.dtype, np.int64), copy=False)
    thetas = _checked_thetas(thetas, params)
    nn, n = params.n_servers, params.n_reduced
    batch = np.arange(len(masters))
    queries = np.repeat(masters[:, None], nn, axis=1)
    shift = np.arange(nn)[:, None]
    queries[batch, :, :, thetas] = (masters[batch, :, thetas][:, None, :] + shift) % n
    return queries


def _checked_thetas(thetas, params: SystemParams) -> np.ndarray:
    """The desired file indices as int64; ParameterError unless they are
    integers of [0:M).  A float or bool is refused, not truncated."""
    thetas = np.asarray(thetas)
    if thetas.dtype.kind not in "iu":
        raise ParameterError(f"theta must be an integer, not {thetas.dtype}")
    thetas = thetas.astype(np.int64, copy=False)
    # As uint64 a negative index is huge: one reduction checks both ends.
    if np.maximum.reduce(thetas.view(np.uint64), axis=None) >= params.m_files:
        bad = thetas[(thetas < 0) | (thetas >= params.m_files)][0]
        raise ParameterError(f"theta={bad} out of [0:{params.m_files})")
    return thetas


def _checked_index(value, limit: int, name: str) -> int:
    """One index, a desired file or a server, as an int; ParameterError
    unless it is an integer of [0:limit), checked without numpy.  A bool
    or float is refused."""
    if type(value) is bool or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, not {type(value).__name__}")
    if not 0 <= value < limit:
        raise ParameterError(f"{name}={value} out of [0:{limit})")
    return int(value)


def build_server_query(
    master: list[list[int]], theta: int, server: int, params: SystemParams
) -> list[list[int]]:
    server = _checked_index(server, params.n_servers, "server")
    return server_queries([master], [theta], params)[0, server].tolist()


def validate_query(query, params: SystemParams) -> np.ndarray:
    """The query, or a stack of queries (..., k, M), as an integer array.

    An integer array is checked in its own dtype, without a copy; row
    lists are converted first.  Raises ProtocolError unless every entry
    is an integer and every column holds k distinct entries of [0:n).
    """
    k, m, n = params.k_reduced, params.m_files, params.n_reduced
    try:
        q = np.asarray(query)
    except (ValueError, TypeError) as exc:
        raise ProtocolError(f"query must be {k} x {m} integers") from exc
    if q.ndim < 2 or q.shape[-2:] != (k, m):
        raise ProtocolError(f"query must be {k} x {m}")
    # Lists holding a float, a string, None or an integer beyond int64
    # convert to another kind.
    if q.dtype.kind not in "iu":
        raise ProtocolError(f"query must be {k} x {m} integers")
    # As uint64 a negative entry is huge: one reduction checks both ends.
    wide = q.astype(np.int64, copy=False).view(np.uint64) if q.dtype.kind == "i" else q
    if np.maximum.reduce(wide, axis=None) >= n:
        entry = q[(q < 0) | (q >= n)][0]
        raise ProtocolError(f"query entry {entry} out of [0:{n})")
    # Entry pairs of a column that are equal: only the k self-pairs when
    # its entries are distinct.
    equal = q[..., :, None, :] == q[..., None, :, :]
    if np.count_nonzero(equal) != q.size:
        column = np.nonzero(equal.sum(axis=(-3, -2)) > k)[-1][0]
        raise ProtocolError(f"query column {column} has repeated entries")
    return q


def omega_size(params: SystemParams) -> int:
    """|Omega| = P(n, k), the number of distinct columns."""
    return math.perm(params.n_reduced, params.k_reduced)


def query_space_size(params: SystemParams, family: str = OMEGA) -> int:
    """The number of master queries of `family`: |Omega|^M or n^M."""
    if _checked_family(family) == SHIFTS:
        return params.n_reduced**params.m_files
    return omega_size(params) ** params.m_files


def query_space(params: SystemParams, indices, family: str = OMEGA) -> np.ndarray:
    """The (len(indices), k, M) master queries at `indices` of Omega^M or
    Z_n^M, in itertools.product order: the last file's column varies
    fastest."""
    table = family_table(params.n_reduced, params.k_reduced, family)
    digits = np.unravel_index(indices, (len(table),) * params.m_files)
    return np.stack([table[d] for d in digits], axis=-1)


@functools.lru_cache(maxsize=8)
def family_table(n: int, k: int, family: str) -> np.ndarray:
    """The columns of `family` as a read-only (rows, k) table in n's
    narrowest dtype: Omega in itertools.permutations order, which is
    lexicographic, or row u the base column (0, 1, ..., k-1) shifted by
    u mod n."""
    dtype = np.min_scalar_type(n - 1)
    if _checked_family(family) == SHIFTS:
        table = ((np.arange(n)[:, None] + np.arange(k)) % n).astype(dtype)
    else:
        table = np.zeros((1, 0), dtype=dtype)
        for _ in range(k):
            # every prefix, extended by each value it lacks, in ascending order
            prefix, value = np.nonzero((table[:, :, None] != np.arange(n)).all(axis=1))
            table = np.column_stack([table[prefix], value.astype(dtype)])
    table.flags.writeable = False
    return table


def low_masks(columns: np.ndarray, n: int) -> np.ndarray:
    """Bitmasks of the low rows of columns (..., k) of entries of [0:n):
    bit s is set where entry s is below n-k, as round s of a query is
    live where one of its columns' masks has bit s.  Past k = 63 they are
    Python ints, which int64 would overflow."""
    k = columns.shape[-1]
    return (columns < n - k) @ (1 << np.arange(k, dtype=object if k > 63 else np.int64))


# ---------------------------------------------------------------------------
# answers


class ShiftQuery(np.ndarray):
    """A (k, M) query, u8 for n <= 256 and u16 above, whose column j is
    the base column shifted by shift j, as net.decode_query_payload
    builds a large query from M shifts it has range-checked;
    server_answer answers one without validate_query.  Only that
    decoder makes one.  A view or a numpy result of one is a ShiftQuery
    too, so hand server_answer the decoder's output as it came, or a
    plain array."""


class ShiftRows(list):
    """k row lists of Python ints whose column j is the base column
    shifted by shift j, as net.decode_query_payload builds a small query
    from M shifts it has range-checked; server_answer answers them by a
    loop, unchecked.  Only that decoder makes one."""


def server_answer(storage: ServerStorage, query, params: SystemParams) -> list[int | None]:
    """k per-round responses to a k x M query; None marks a NULL round.

    The server sees only its own query, never the desired file index.  A
    ShiftQuery or ShiftRows, which the wire decoder builds from checked
    shifts alone, is answered unchecked: its columns are shifted base
    columns by construction.  Any other query, row lists or a (k, M)
    integer array, must pass validate_query (ProtocolError otherwise)
    and is answered by one take from the flat storage.
    """
    kind = type(query)
    if kind is ShiftQuery:
        return _gather_answer(storage, query.view(np.ndarray), params)
    if kind is ShiftRows:
        return _loop_answer(storage, query, params)
    q = validate_query(query, params)
    if q.ndim != 2:
        raise ProtocolError(f"query must be {params.k_reduced} x {params.m_files}")
    return _gather_answer(storage, q, params)


def _gather_answer(storage: ServerStorage, q: np.ndarray, params: SystemParams):
    """server_answer of a valid (k, M) integer array: one take from the
    flat (M*n,) storage, one sum, and each round's least entry against
    lam, with p applied in Python.  On a 2-core x86 (numpy 2.4), for an
    (8,5,256) u8 query: fancy indexing took 29 us in all against 22 by
    take; u16 offsets made the sum of indices and the take 1 us cheaper
    than int64 ones; the least entry is one call fewer than
    (q < lam).any."""
    flat = q + _file_offsets(params.n_reduced, params.m_files)
    sums = np.add.reduce(storage.symbols.take(flat), axis=1).tolist()
    lows = np.minimum.reduce(q, axis=1).tolist()
    lam, p = params.rows_per_file, params.prime
    return [None if low >= lam else value % p for value, low in zip(sums, lows)]


def _loop_answer(storage: ServerStorage, rows, params: SystemParams):
    """server_answer of valid row lists of Python ints, by a loop."""
    symbol, low, p = storage.symbols.item, params.rows_per_file, params.prime
    files = range(params.m_files)
    return [None if min(row) >= low else sum(map(symbol, files, row)) % p for row in rows]


@functools.lru_cache(maxsize=16)
def _file_offsets(n: int, m_files: int) -> np.ndarray:
    """(M,) read-only: the index of each file's row 0 in a flat (M, n)
    storage, in the narrowest unsigned dtype that holds every index."""
    offsets = np.arange(0, m_files * n, n, dtype=np.min_scalar_type(m_files * n - 1))
    offsets.flags.writeable = False
    return offsets


# ---------------------------------------------------------------------------
# decoding


def decode_map(column, params: SystemParams, code: MdsCode) -> np.ndarray:
    """The (lam*K x N*k) matrix D_c with file.flat = D_c @ answers.flat mod p.

    `column` is the desired file's master column c = master[:, theta];
    answers are (N, k), server-major, with 0 in NULL rounds.  The code
    keeps the maps it has built per column as given in `decode_maps`,
    least recently used out first beyond rs.MATRIX_CACHE_BYTES.
    """
    key = tuple(column)
    d_map = code.decode_maps.get(key)
    if d_map is None:
        d_map = _build_decode_map(key, params, code)
        code.decode_maps.put(key, d_map)
    return d_map


def _build_decode_map(column: tuple, params: SystemParams, code: MdsCode) -> np.ndarray:
    """D_c from the code's recovery and residual matrices.

    In round s the K servers whose shifted entry c[s]+t lands in the
    dummy range answer pure interference, a codeword; the residual
    matrix X_s of their positions strips that codeword from every
    other server's answer, exposing symbol t of row (c[s]+t) mod n of
    the desired file.  Each row j then has K exposed symbols at
    positions Lambda_j, and its K source symbols are
    R_{Lambda_j}[:, :K]^T times them.
    """
    nn, kk, p = params.n_servers, params.k_mds, params.prime
    n, k, lam = params.n_reduced, params.k_reduced, params.rows_per_file
    if len(column) != k or len(set(column)) != k or not all(0 <= v < n for v in column):
        raise DecodingError(f"desired column {column} is not {k} distinct entries of [0:{n})")
    # row[t, s]: the row of the desired file that server t reads in round s
    row = (np.array(column, dtype=np.int64) + np.arange(nn)[:, None]) % n
    # (t, s) of the K exposed symbols of each row j < lam, ascending t
    exposed = np.argsort(row, axis=None, kind="stable")[: lam * kk].reshape(lam, kk)
    servers, rounds = np.divmod(exposed, k)
    residual = np.stack(
        [code.residual_matrix(tuple(np.flatnonzero(row[:, s] >= lam).tolist())) for s in range(k)]
    )
    recovery = np.stack(
        [code.recovery_matrix(tuple(servers[j].tolist()))[:, :kk].T for j in range(lam)]
    )
    exposure = np.zeros((lam, kk, nn, k), dtype=np.int64)
    rows_j, slots = np.indices((lam, kk))
    exposure[rows_j, slots, :, rounds] = residual[rounds, servers]
    d_map = matmul_mod(recovery, exposure.reshape(lam, kk, nn * k), p).reshape(lam * kk, nn * k)
    d_map.flags.writeable = False
    return d_map


def decode(
    answers: np.ndarray,
    master: list[list[int]],
    theta: int,
    params: SystemParams,
    code: MdsCode,
) -> list[list[int]]:
    """Source file theta from one retrieval's (N, k) int64 answers, 0 in
    NULL rounds, as decode_batch of one; the values are taken as checked."""
    theta = _checked_index(theta, params.m_files, "theta")
    answers = np.asarray(answers, dtype=np.int64)
    if answers.shape != (params.n_servers, params.k_reduced):
        raise DecodingError(
            f"answers must be {params.n_servers} x {params.k_reduced}, got {answers.shape}"
        )
    column = np.asarray(master)[:, theta]
    return decode_batch(answers[None], column[None], params, code)[0].tolist()


def decode_batch(
    answers: np.ndarray, columns: np.ndarray, params: SystemParams, code: MdsCode
) -> np.ndarray:
    """Files (T, lam, K) from answers (T, N, k), 0 in NULL rounds, and the
    desired columns (T, k): the maps of the distinct columns, stacked
    once, applied to all T retrievals in one product.  DecodingError for
    a column that is not k distinct entries of [0:n)."""
    count = len(answers)
    flat = answers.reshape(count, -1)
    if count == 1:
        d_map = decode_map(columns[0].tolist(), params, code)
        files = matmul_mod(flat, d_map.T, params.prime)
    else:
        # An entry outside [0:n) would give a column another's key.
        wide = np.asarray(columns, dtype=np.int64).view(np.uint64)
        if np.maximum.reduce(wide, axis=None) >= params.n_reduced:
            raise DecodingError(f"desired columns must hold entries of [0:{params.n_reduced})")
        keys, which = _distinct_rows(columns, params.n_reduced)
        maps = np.stack([decode_map(key, params, code) for key in keys])
        files = matmul_mod(maps[which], flat[:, :, None], params.prime)
    return files.reshape(count, params.rows_per_file, params.k_mds)


def _distinct_rows(rows: np.ndarray, n: int):
    """The distinct rows (T >= 1) of entries of [0:n) as tuples, in
    ascending order, and the index among them of each row.  Each row is
    one int64 key, its base-n digits, and one argsort orders the keys;
    where n^k would overflow int64, np.unique compares whole rows.  On a
    2-core x86 (numpy 2.4), warm: 14 us for 20 (8,5) columns and 41 us
    for 1000 (5,3) ones, against 18 and 113 us for a lexsort of the rows
    and 18 and 41 us for np.unique of the keys, whose Python wrapper
    makes more numpy calls than this."""
    k = rows.shape[1]
    if n**k > 2**63:
        keys, which = np.unique(rows, axis=0, return_inverse=True)
        return list(map(tuple, keys.tolist())), which.reshape(-1)
    keys = rows @ n ** np.arange(k - 1, -1, -1, dtype=np.int64)
    order = keys.argsort()
    ordered = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    which = np.empty(len(keys), dtype=np.intp)
    which[order] = first.cumsum() - 1
    return list(map(tuple, rows[order[first]].tolist())), which


def retrieve_batch(masters, thetas, storages, params: SystemParams, code: MdsCode):
    """T retrievals in process as one batch: the files (T, lam, K) and
    the live-round mask (T, N, k), whose sum is the download.  Checking
    the masters checks every entry of every server's query.  The N
    storages are read as one (M, n, N) stack, built by the first call
    with these storage objects (_storage_stack).  Each master entry is
    its row j*n + q in the stack; the desired file's rows, theta*n + c,
    are picked out and then pointed at dummy row lam, so one gather
    reads the other files for all N servers.  The picked rows index the
    shifted table, whose take adds the desired file's rows (c+t) mod n.
    A batch of more than one decodes each retrieval with its rounds in
    ascending order of its desired column: permuting a master's rounds
    permutes all N answers alike, so every decode key is a sorted column,
    one of C(n, k).  The mask keeps the masters' order."""
    masters = validate_query(masters, params)
    thetas = _checked_thetas(thetas, params)
    nn, n, m, lam = params.n_servers, params.n_reduced, params.m_files, params.rows_per_file
    dtype, offsets, ones, shifted, low = _gather_tables(n, nn, m, lam, params.prime)
    symbols = _storage_stack(tuple(storages), dtype)
    batch = np.arange(len(masters))
    # (M, T, k): each entry's row j*n + q in the (M*n, N) stack.
    rows = masters.transpose(2, 0, 1).astype(np.intp, order="C")
    rows += offsets
    picked = rows[thetas, batch]
    rows[thetas, batch] = lam
    columns = picked % n
    # The gather is (M, T*k*N), so one matrix-vector product with ones
    # sums the files; an int64 product over (T, k, M, N) took 4-5x as
    # long.  It is freed before decode_batch stacks its maps: a (5,3,3)
    # batch of 1000 that kept it page-faulted on 1.4 MB a call in a
    # long-running process, as malloc returned the heap's top each time.
    answers = ones @ symbols.reshape(m * n, nn).take(rows, axis=0).reshape(m, -1)
    answers = answers.reshape(len(masters), -1, nn)
    desired = shifted.take(picked, axis=0)
    answers += symbols.take(desired)
    # Live where the desired file's row is low or another file's is.
    live = desired >= 0
    live |= np.logical_or.reduce(low.take(rows), axis=0)[:, :, None]
    if len(masters) > 1:
        order = columns.argsort(axis=1, kind="stable")
        order += np.arange(0, columns.size, columns.shape[1])[:, None]
        answers = answers.reshape(-1, nn).take(order.ravel(), axis=0).reshape(answers.shape)
        columns = columns.ravel().take(order)
    # (T, N, k) as decode_batch takes them; float64 sums are exact integers.
    answers = answers.transpose(0, 2, 1).astype(np.int64, order="C")
    answers %= params.prime
    files = decode_batch(answers, columns, params, code)
    return files, live.transpose(0, 2, 1)


@functools.lru_cache(maxsize=1)
def _storage_stack(storages: tuple, dtype: type) -> np.ndarray:
    """The storages as one read-only, C-contiguous (M, n, N) array in
    `dtype`, where one row's symbols on all N servers are contiguous.
    Kept for the last storages, matched by identity (a ServerStorage is
    frozen around a read-only array), so replacing one builds a new
    stack; it keeps them alive until other storages replace them."""
    stack = np.array([st.symbols for st in storages], dtype=dtype).transpose(1, 2, 0).copy()
    stack.flags.writeable = False
    return stack


@functools.lru_cache(maxsize=16)
def _gather_tables(n: int, n_servers: int, m_files: int, lam: int, prime: int):
    """retrieve_batch's read-only tables for an (M, n, N) stack read as
    (M*n, N) rows, row j*n + c holding row c of file j:

    - the dtype of the sum over files (linalg.sum_dtype);
    - (M, 1, 1) each file's first row;
    - M ones of that dtype;
    - (M*n, N) by row j*n + c, the flat index in the stack of symbol t
      of file j's row (c+t) mod n, less the stack's size where that row
      is a dummy one: take reads the same symbol, and the sign tells a
      low row from a dummy one;
    - (M*n,) whether each row is low, below lam."""
    dtype = sum_dtype(m_files, prime)
    size = m_files * n * n_servers
    row = (np.arange(n)[:, None] + np.arange(n_servers)) % n
    shifted = np.arange(0, size, n * n_servers)[:, None, None] + row * n_servers
    shifted = (shifted + np.arange(n_servers) - size * (row >= lam)).reshape(-1, n_servers)
    low = np.tile(np.arange(n) < lam, m_files)
    offsets = np.arange(0, m_files * n, n)[:, None, None]
    tables = offsets, np.ones(m_files, dtype), shifted, low
    for table in tables:
        table.flags.writeable = False
    return (dtype, *tables)


def retrieve(
    theta: int,
    storages,
    params: SystemParams,
    rng: np.random.Generator,
    code: MdsCode | None = None,
    family: str = SHIFTS,
):
    """Full in-process pipeline with a master of `family`; returns
    (source file, realized download)."""
    if code is None:
        code = make_code(params.n_servers, params.k_mds, params.prime)
    masters = sample_master_queries(params, rng, 1, family)
    files, live = retrieve_batch(masters, [theta], storages, params, code)
    return files[0].tolist(), int(np.count_nonzero(live))


# ---------------------------------------------------------------------------
# on-disk formats


def _params_json(params: SystemParams) -> dict:
    return {"n": params.n_servers, "k": params.k_mds, "m": params.m_files, "p": params.prime}


def _storage_dtype(prime: int) -> np.dtype:
    """Little-endian unsigned dtype of a storage file's values: the
    narrowest of 1, 2 or 4 bytes that holds p - 1."""
    return np.dtype("<u1" if prime <= 1 << 8 else "<u2" if prime <= 1 << 16 else "<u4")


def save_storage(path, storage: ServerStorage, params: SystemParams) -> None:
    """Write server storage as STORAGE_FORMAT: one JSON header line,
    then the (M, lam) fragments row-major in _storage_dtype(p)."""
    header = {
        "format": STORAGE_FORMAT,
        "params": _params_json(params),
        "server_index": storage.server_index,
    }
    body = storage.symbols[:, : params.rows_per_file].astype(_storage_dtype(params.prime))
    Path(path).write_bytes(json.dumps(header).encode() + b"\n" + body.tobytes())


def load_storage(path) -> tuple[ServerStorage, SystemParams]:
    """Read a STORAGE_FORMAT file; ParameterError for anything else."""
    data = Path(path).read_bytes()
    cut = data.find(b"\n")
    try:
        header = json.loads(data[:cut].decode()) if cut >= 0 else None
    except (ValueError, RecursionError):
        header = None
    if not isinstance(header, dict):
        raise ParameterError(
            f"not a {STORAGE_FORMAT} file: no JSON object header line "
            "(re-run pir setup for a file of an earlier format)"
        )
    if header.get("format") != STORAGE_FORMAT:
        raise ParameterError(
            f"unexpected storage format {header.get('format')!r}: only {STORAGE_FORMAT!r} "
            "is read, re-run pir setup"
        )
    given = header.get("params")
    values = [given.get(key) for key in "nkmp"] if isinstance(given, dict) else [None]
    if any(type(v) is not int for v in values):
        raise ParameterError("storage params must be the integers n, k, m and p")
    params = derive_params(*values)
    index = header.get("server_index")
    if type(index) is not int or not 0 <= index < params.n_servers:
        raise ParameterError(f"server_index must be an integer in [0:{params.n_servers})")
    m, lam, p = params.m_files, params.rows_per_file, params.prime
    dtype = _storage_dtype(p)
    if len(data) - cut - 1 != m * lam * dtype.itemsize:
        raise ParameterError(
            f"storage body must be {m} x {lam} values of {dtype.itemsize} bytes"
        )
    # Four numpy calls: a server loads its file once, cold, where each
    # call costs several microseconds.
    fragments = np.ndarray((m, lam), dtype, buffer=data, offset=cut + 1)
    if fragments.max() >= p:
        raise ParameterError(f"fragments must be integers in [0:{p})")
    symbols = np.zeros((m, params.n_reduced), dtype=np.int64)
    symbols[:, :lam] = fragments
    symbols.flags.writeable = False
    return ServerStorage(index, symbols), params


def source_to_json(
    rows, file_index: int, params: SystemParams, byte_length: int | None = None
) -> dict:
    doc = {
        "format": SOURCE_FORMAT,
        "params": _params_json(params),
        "file_index": file_index,
        "rows": [list(r) for r in rows],
    }
    if byte_length is not None:
        doc["byte_length"] = byte_length
    return doc


def ingest_bytes(data: bytes, params: SystemParams):
    """Chunk bytes into lam x K blocks, one block per file, zero-padded.

    Needs p > 255 so every byte maps to a distinct field element.
    Returns (sources, byte_length); byte_length belongs in the manifest
    so the original bytes can be re-extracted after retrieval.
    """
    if params.prime <= 255:
        raise ParameterError(f"byte ingestion needs p > 255, got p={params.prime}")
    block = params.file_len
    n_blocks = max(1, -(-len(data) // block))
    if n_blocks > params.m_files:
        raise ParameterError(
            f"{len(data)} bytes need {n_blocks} blocks but M={params.m_files}"
        )
    padded = np.frombuffer(data.ljust(params.m_files * block, b"\x00"), dtype=np.uint8)
    return padded.reshape(params.m_files, params.rows_per_file, -1).tolist(), len(data)
