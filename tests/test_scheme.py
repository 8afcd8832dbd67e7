import itertools
import json
import math
import random
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.stats import chisquare

from codedpir import derive_params, encode_system, make_rng
from codedpir import net, rs, scheme, sim
from codedpir.linalg import matmul_mod, sum_dtype
from codedpir.rs import MdsCode, make_code
from codedpir.scheme import (
    DecodingError,
    ParameterError,
    ProtocolError,
    build_server_query,
    decode,
    gen_master_query,
    retrieve,
    server_answer,
)

from conftest import EXAMPLE_QUERY, start_serving, stop_servers
from oracle import (
    answer_array,
    answer_queries,
    decode_loop,
    live_rounds,
    retrieve_batch_reference,
    server_answer_loop,
    shifted_low_masks_loop,
)

PRIMES = [7, 257, 65537, 2**31 - 1, 4294967291]


class TestDeriveParams:
    def test_worked_example_point(self):
        p = derive_params(5, 3, 3, 7)
        assert (p.n_reduced, p.k_reduced, p.d) == (5, 3, 1)
        assert p.rows_per_file == 2
        assert p.file_len == 6

    def test_reduced_point(self):
        p = derive_params(4, 2, 2, 5)
        assert (p.n_reduced, p.k_reduced, p.d) == (2, 1, 2)
        assert p.rows_per_file == 1
        assert p.file_len == 2

    @pytest.mark.parametrize(
        "args",
        [
            (3, 3, 2, 5), (2, 3, 2, 5), (5, 3, 1, 7), (5, 3, 3, 6), (5, 3, 3, 3),
            (5, 3, 3, 2**32 + 15),  # prime, but wider than the wire's u32
            (65537, 1, 2, 65537),  # n = 65537 query entries overflow u16
            (5, 3, 2**32, 257),  # M wider than the system tag's u32
            (5, 3, 2**30, 257),  # M at the bound
        ],
    )
    def test_rejections(self, args):
        with pytest.raises(ParameterError):
            derive_params(*args)

    def test_largest_file_count_fits_the_wire(self):
        """The largest M passes, for 4-bit and 16-bit shifts alike: its
        system tag packs, and its QUERY payload of a 4-byte tag and M
        shifts fits a frame's u32 length."""
        largest = scheme.FILE_LIMIT - 1
        for system in ((5, 3, largest, 257), (65535, 1, largest, 65537)):
            params = derive_params(*system)
            assert len(net._query_head(params)) == 4
            assert 4 + -(-largest * net._shift_bits(params.n_reduced) // 8) < 2**32


class TestEncodeSystem:
    def test_zero_sources(self):
        params = derive_params(5, 3, 2, 7)
        zeros = [[[0] * 3 for _ in range(2)] for _ in range(2)]
        _, storages = encode_system(params, zeros)
        assert all(all(v == 0 for frag in st.symbols[:, :2].tolist() for v in frag) for st in storages)

    def test_unit_rows_give_generator_columns(self):
        params = derive_params(5, 3, 2, 7)
        code = make_code(5, 3, 7)
        units = [[1, 0, 0], [0, 1, 0]]
        sources = [units, [[0] * 3] * 2]
        _, storages = encode_system(params, sources, code)
        for t in range(5):
            assert storages[t].symbols[0, :2].tolist() == [
                code.generator[0][t],
                code.generator[1][t],
            ]

    def test_reconstruct_from_any_k_storages(self, example_system):
        params, code, sources, _, storages = example_system
        for subset in itertools.combinations(range(5), 3):
            for i in range(params.m_files):
                rows = []
                for j in range(params.rows_per_file):
                    known = np.array([storages[t].symbols[i, j] for t in subset])
                    codeword = matmul_mod(known, code.recovery_matrix(subset), params.prime)
                    rows.append(codeword[: params.k_mds].tolist())
                assert rows == sources[i]

    def test_dimension_mismatch(self):
        params = derive_params(5, 3, 2, 7)
        with pytest.raises(ParameterError):
            encode_system(params, [[[0] * 3], [[0] * 3] * 2])


class TestQueries:
    def test_omega_membership(self):
        params = derive_params(5, 3, 3, 7)
        rng = make_rng(5)
        for _ in range(200):
            q = gen_master_query(params, rng, scheme.OMEGA)
            for i in range(3):
                col = [q[s][i] for s in range(3)]
                assert len(set(col)) == 3
                assert all(0 <= v < 5 for v in col)

    def test_omega_uniformity_chi2(self):
        # |Omega| = 60 for (5,3); column samples should be uniform on it
        params = derive_params(5, 3, 3, 7)
        assert scheme.query_space_size(params) == 60**3
        rng = make_rng(0)
        samples = scheme.sample_master_queries(params, rng, 100_000)
        counts = Counter(tuple(samples[i, :, 0]) for i in range(samples.shape[0]))
        assert set(counts) == set(map(tuple, scheme.family_table(5, 3, scheme.OMEGA).tolist()))
        assert chisquare(list(counts.values())).pvalue >= 0.01

    def test_two_element_omega(self):
        params = derive_params(2, 1, 2, 257)
        assert scheme.family_table(2, 1, scheme.OMEGA).tolist() == [[0], [1]]
        rng = make_rng(9)
        seen = {gen_master_query(params, rng)[0][0] for _ in range(50)}
        assert seen == {0, 1}

    def test_master_ranks_name_the_sampled_columns(self):
        """Omega masters are (T, k, M) C-contiguous in n's narrowest dtype,
        their columns Omega's rows at the ranks sample_master_rows draws
        from the same stream; systems with |Omega| > 2^16 keep the argsort
        of n uniforms."""
        for shape, dtype, tabled in [
            ((8, 5, 40, 257), np.uint8, True),
            ((300, 1, 3, 307), np.uint16, True),
            ((12, 7, 2, 13), np.uint8, False),
            ((301, 2, 2, 307), np.uint16, False),
        ]:
            params = derive_params(*shape)
            n, k, m = params.n_reduced, params.k_reduced, params.m_files
            assert (scheme.omega_size(params) <= scheme.OMEGA_TABLE_LIMIT) == tabled
            masters = scheme.sample_master_queries(params, make_rng(3), 50, scheme.OMEGA)
            assert masters.shape == (50, k, m) and masters.flags.c_contiguous
            assert masters.dtype == dtype == np.min_scalar_type(n - 1)
            scheme.validate_query(masters, params)
            if tabled:
                table = scheme.family_table(n, k, scheme.OMEGA)
                # floor(u * |Omega|), the stream Omega masters have always drawn
                ranks = (make_rng(3).random((50, m)) * len(table)).astype(np.int64)
                drawn = scheme.sample_master_rows(params, make_rng(3), 50, len(table))
                assert np.array_equal(drawn, ranks)
                assert ranks.min() >= 0 and ranks.max() < scheme.omega_size(params)
                expected = table[ranks].transpose(0, 2, 1)
            else:
                uniforms = make_rng(3).random((50, m, n))
                expected = np.argsort(uniforms, axis=2)[:, :, :k].transpose(0, 2, 1)
            assert np.array_equal(masters, expected)

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (5, 3), (7, 4), (8, 5), (9, 2)])
    def test_omega_table(self, n, k):
        """Row r of Omega's family table is the column of rank r in
        itertools order, read-only in n's narrowest dtype; the low rows of
        each column shifted by t are its entries below n-k."""
        table = scheme.family_table(n, k, scheme.OMEGA)
        assert table is scheme.family_table(n, k, scheme.OMEGA)
        assert not table.flags.writeable
        assert table.dtype == np.min_scalar_type(n - 1)
        assert table.tolist() == [list(c) for c in itertools.permutations(range(n), k)]
        assert sim._shifted_low_masks(table, n).tolist() == shifted_low_masks_loop(table, n)

    @pytest.mark.parametrize("n,k,m", [(2, 1, 2), (3, 2, 2), (5, 3, 2)])
    def test_query_space_in_product_order(self, n, k, m):
        params = derive_params(n, k, m, 257)
        size = scheme.query_space_size(params)
        omega = list(itertools.permutations(range(n), k))
        expected = [
            [[cols[i][s] for i in range(m)] for s in range(k)]
            for cols in itertools.product(omega, repeat=m)
        ]
        assert size == len(expected)
        space = scheme.query_space(params, np.arange(size))
        assert space.shape == (size, k, m)
        assert space.tolist() == expected
        for a, b in [(0, 1), (1, size // 3), (size // 2, size)]:
            assert scheme.query_space(params, np.arange(a, b)).tolist() == expected[a:b]

    def test_build_server_query_worked_values(self):
        assert build_server_query(EXAMPLE_QUERY, 0, 2, derive_params(5, 3, 3, 7)) == [
            [0, 4, 3],
            [2, 1, 0],
            [3, 0, 4],
        ]
        assert build_server_query(EXAMPLE_QUERY, 0, 4, derive_params(5, 3, 3, 7)) == [
            [2, 4, 3],
            [4, 1, 0],
            [0, 0, 4],
        ]

    def test_server_zero_is_identity(self):
        params = derive_params(5, 3, 3, 7)
        assert build_server_query(EXAMPLE_QUERY, 0, 0, params) == EXAMPLE_QUERY

    def test_index_errors(self):
        params = derive_params(5, 3, 3, 7)
        with pytest.raises(ParameterError):
            build_server_query(EXAMPLE_QUERY, 3, 0, params)
        with pytest.raises(ParameterError):
            build_server_query(EXAMPLE_QUERY, 0, 5, params)

    @pytest.mark.parametrize("server", [True, np.bool_(True), 1.5, np.float64(1.0), "1"])
    def test_non_integer_server_is_refused(self, server):
        """Not taken as an index: True would add an axis and return every
        server's query, 1.5 would fail as a bare IndexError."""
        params = derive_params(5, 3, 3, 7)
        with pytest.raises(ParameterError, match="^server must be an integer"):
            build_server_query(EXAMPLE_QUERY, 0, server, params)

    @pytest.mark.parametrize("n,k,m", [(5, 3, 3), (4, 2, 2), (6, 4, 3)])
    def test_shifted_column_coverage(self, n, k, m):
        # each shifted entry value appears exactly d = gcd(N,K) times over servers
        params = derive_params(n, k, m, 257)
        rng = make_rng(n + k)
        for _ in range(20):
            q = gen_master_query(params, rng)
            for s in range(params.k_reduced):
                values = Counter(
                    (q[s][0] + t) % params.n_reduced for t in range(n)
                )
                assert all(values[v] == params.d for v in range(params.n_reduced))


class TestServerAnswer:
    def test_worked_example_answer_table(self, example_system):
        params, _, _, enc, storages = example_system
        # the full answer table of the worked example, desired file 0
        expected = [
            [None,
             (enc[0][0][0] + enc[1][1][0] + enc[2][0][0]) % 7,
             (enc[0][1][0] + enc[1][0][0]) % 7],
            [None,
             (enc[0][1][1] + enc[1][1][1] + enc[2][0][1]) % 7,
             enc[1][0][1]],
            [enc[0][0][2],
             (enc[1][1][2] + enc[2][0][2]) % 7,
             enc[1][0][2]],
            [enc[0][1][3],
             (enc[1][1][3] + enc[2][0][3]) % 7,
             enc[1][0][3]],
            [None,
             (enc[1][1][4] + enc[2][0][4]) % 7,
             (enc[0][0][4] + enc[1][0][4]) % 7],
        ]
        for t in range(5):
            query = build_server_query(EXAMPLE_QUERY, 0, t, params)
            assert server_answer(storages[t], query, params) == expected[t]

    def test_null_rule_is_query_only(self, example_system):
        # NULL positions depend only on the received query rows
        params, _, _, _, storages = example_system
        query = [[2, 4, 3], [0, 1, 0], [3, 2, 4]]
        answers = [server_answer(st, query, params) for st in storages]
        null_patterns = {tuple(a is None for a in ans) for ans in answers}
        assert null_patterns == {(True, False, True)}

    def test_malformed_queries(self, example_system):
        params, _, _, _, storages = example_system
        with pytest.raises(ProtocolError):
            server_answer(storages[0], [[3, 4, 3], [3, 1, 0], [1, 0, 4]], params)
        with pytest.raises(ProtocolError):
            server_answer(storages[0], [[5, 4, 3], [0, 1, 0], [1, 0, 4]], params)
        with pytest.raises(ProtocolError):
            server_answer(storages[0], [[3, 4], [0, 1], [1, 0]], params)
        with pytest.raises(ProtocolError, match="must be 3 x 3$"):
            server_answer(storages[0], np.zeros((3, 2), dtype=np.uint8), params)
        negative = [[3, 4, 3], [0, -1, 0], [1, 0, 4]]
        for dtype in (np.int8, np.int16, np.int32, np.int64):
            with pytest.raises(ProtocolError, match=r"^query entry -1 out of \[0:5\)$"):
                scheme.validate_query(np.array(negative, dtype=dtype), params)


class TestAnswerPaths:
    """server_answer checks every query but the wire decoder's ShiftRows
    and ShiftQuery, and answers it by the gather; the trusted forms are
    answered by a loop and by the gather.  All agree on valid queries,
    and every unchecked form is rejected as validate_query rejects it."""

    @staticmethod
    def outcome(answer, storage, query, params):
        try:
            return answer(storage, query, params)
        except ProtocolError as exc:
            return str(exc)

    @staticmethod
    def engine(storage, query, params):
        q = scheme.validate_query(query, params)
        values = answer_queries(storage.symbols[None], q[None], params)[0]
        return [
            int(v) if live else None
            for v, live in zip(values, live_rounds(q, params))
        ]

    @staticmethod
    def forms(query):
        """The query as row lists and as each array that holds it: u8,
        u16 and int64 for integers (int64 alone with a negative one),
        numpy's own dtype otherwise."""
        if not all(type(entry) is int for row in query for entry in row):
            return [query, np.array(query)]
        ints = np.array(query)
        dtypes = (np.uint8, np.uint16, np.int64) if ints.min() >= 0 else (np.int64,)
        return [query, *(ints.astype(dtype) for dtype in dtypes)]

    @pytest.mark.parametrize("m_files", [3, 50])  # 9 and 150 query entries
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_paths_agree(self, m_files, data):
        params = derive_params(5, 3, m_files, 257)
        assert (params.k_reduced * m_files > scheme.SMALL_QUERY_ENTRIES) == (m_files == 50)
        _, storages = encode_system(params, scheme.random_sources(params, make_rng(m_files)))
        columns = [data.draw(st.permutations(range(5)))[:3] for _ in range(m_files)]
        query = [[col[s] for col in columns] for s in range(3)]
        if data.draw(st.booleans()):
            s, i = data.draw(st.integers(0, 2)), data.draw(st.integers(0, m_files - 1))
            query[s][i] = data.draw(st.integers(-2, 6) | st.sampled_from([1.5, 1.0, "1", None]))
        expected = self.outcome(self.engine, storages[1], query, params)
        for form in self.forms(query):
            assert self.outcome(server_answer, storages[1], form, params) == expected
        if not isinstance(expected, str):
            assert expected == server_answer_loop(storages[1], query, params)
            trusted = [scheme.ShiftRows(query), np.array(query, np.uint8).view(scheme.ShiftQuery)]
            for form in trusted:
                assert server_answer(storages[1], form, params) == expected

    @pytest.mark.parametrize("m_files", [3, 50])
    @pytest.mark.parametrize("entry", [1.5, 1.0, "1", None])
    def test_non_integer_entry(self, m_files, entry):
        params = derive_params(5, 3, m_files, 257)
        _, storages = encode_system(params, scheme.random_sources(params, make_rng(m_files)))
        query = scheme.server_queries(
            scheme.sample_master_queries(params, make_rng(5), 1), [0], params
        )[0, 1].tolist()
        query[1][1] = entry
        for form in (query, np.array(query)):
            with pytest.raises(ProtocolError, match=f"^query must be 3 x {m_files} integers$"):
                server_answer(storages[1], form, params)

    @pytest.mark.parametrize("m_files", [3, 50])
    @pytest.mark.parametrize("fault", ["stacked", "ragged", "bool"])
    def test_unchecked_forms_are_rejected(self, m_files, fault):
        """A stack of one query, a ragged row list and bools each raise
        validate_query's ProtocolError, as row lists and as an array (a
        float entry: test_non_integer_entry)."""
        params = derive_params(5, 3, m_files, 257)
        _, storages = encode_system(params, scheme.random_sources(params, make_rng(m_files)))
        query = scheme.server_queries(
            scheme.sample_master_queries(params, make_rng(5), 1), [0], params
        )[0, 1].tolist()
        shape = f"^query must be 3 x {m_files}"
        if fault == "stacked":
            query, message = [query], shape + "$"
        elif fault == "ragged":
            # the list does not convert to integers, the object array is 1-D
            query[2], message = query[2][:-1], shape
        else:
            query, message = [[e < 2 for e in row] for row in query], shape + " integers$"
        array = np.array(query, dtype=object if fault == "ragged" else None)
        for form in (query, array):
            with pytest.raises(ProtocolError, match=message):
                server_answer(storages[1], form, params)

    @pytest.mark.parametrize("shape", [(8, 5, 32, 257), (8, 5, 256, 65537)])
    def test_large_query_arrays_agree_with_the_loop(self, shape):
        """Queries above SMALL_QUERY_ENTRIES, with one all-dummy (NULL)
        round, answered from u8, u16 and int64 arrays."""
        params = derive_params(*shape)
        n, k, m, low = params.n_reduced, params.k_reduced, params.m_files, params.rows_per_file
        assert k * m > scheme.SMALL_QUERY_ENTRIES
        _, storages = encode_system(params, scheme.random_sources(params, make_rng(m)))
        rng = random.Random(m)
        queries = scheme.server_queries(
            scheme.sample_master_queries(params, make_rng(m), 3), [0, 1, m - 1], params
        )[:, 2].tolist()
        columns = []
        for _ in range(m):
            dummy = rng.randrange(low, n)
            columns.append([dummy, *rng.sample([v for v in range(n) if v != dummy], k - 1)])
        queries.append([[col[s] for col in columns] for s in range(k)])
        for query in queries:
            expected = server_answer_loop(storages[2], query, params)
            assert self.engine(storages[2], query, params) == expected
            for dtype in (np.uint8, np.uint16, np.int64):
                assert server_answer(storages[2], np.array(query, dtype=dtype), params) == expected
        assert expected[0] is None and None not in expected[1:]


class TestDecode:
    def test_worked_example_realization(self, example_system):
        params, code, sources, _, storages = example_system
        answers = [
            server_answer(st, build_server_query(EXAMPLE_QUERY, 0, st.server_index, params), params)
            for st in storages
        ]
        assert sum(a is not None for answer in answers for a in answer) == 12
        assert decode(answer_array(answers), EXAMPLE_QUERY, 0, params, code) == sources[0]

    def test_all_zero_files(self):
        params = derive_params(5, 3, 3, 7)
        code = make_code(5, 3, 7)
        zeros = [[[0] * 3 for _ in range(2)] for _ in range(3)]
        _, storages = encode_system(params, zeros, code)
        answers = [
            server_answer(storages[t], build_server_query(EXAMPLE_QUERY, 1, t, params), params)
            for t in range(5)
        ]
        assert decode(answer_array(answers), EXAMPLE_QUERY, 1, params, code) == zeros[1]

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 2), (5, 3), (6, 4)])
    @pytest.mark.parametrize("m", [2, 3])
    def test_randomized_round_trips(self, n, k, m):
        params = derive_params(n, k, m, 257)
        rng = make_rng(n * 31 + k * 7 + m)
        sources = scheme.random_sources(params, rng).tolist()
        code = make_code(n, k, 257)
        _, storages = encode_system(params, sources, code)
        for trial in range(10):
            theta = trial % m
            master = gen_master_query(params, rng)
            answers = [
                server_answer(storages[t], build_server_query(master, theta, t, params), params)
                for t in range(n)
            ]
            assert decode(answer_array(answers), master, theta, params, code) == sources[theta]

    def test_exhaustive_tiny_query_space(self):
        # every master query and theta at (2,1,2)
        params = derive_params(2, 1, 2, 257)
        rng = make_rng(77)
        sources = scheme.random_sources(params, rng).tolist()
        code = make_code(2, 1, 257)
        _, storages = encode_system(params, sources, code)
        downloads = set()
        size = scheme.query_space_size(params)
        for master in scheme.query_space(params, np.arange(size)).tolist():
            for theta in range(2):
                answers = [
                    server_answer(storages[t], build_server_query(master, theta, t, params), params)
                    for t in range(2)
                ]
                assert decode(answer_array(answers), master, theta, params, code) == sources[theta]
                downloads.add(sum(a is not None for answer in answers for a in answer))
        assert downloads == {1, 2}

    def test_batch_of_repeated_and_distinct_columns(self):
        """All 60 columns of (5,3) and 40 repeats, shuffled: decode_batch's
        one product equals decode run once per retrieval."""
        params = derive_params(5, 3, 3, 257)
        code = make_code(5, 3, 257)
        sources = scheme.random_sources(params, make_rng(4))
        _, storages = encode_system(params, sources, code)
        rng = np.random.default_rng(4)
        ranks = rng.permutation(np.concatenate([np.arange(60), rng.integers(0, 60, 40)]))
        count = len(ranks)
        thetas = rng.integers(0, 3, count)
        masters = scheme.sample_master_queries(params, make_rng(5), count)
        columns = scheme.family_table(5, 3, scheme.OMEGA)[ranks]
        masters[np.arange(count), :, thetas] = columns
        queries = scheme.server_queries(masters, thetas, params)
        answers = answer_queries(np.stack([st.symbols for st in storages]), queries, params)
        files = scheme.decode_batch(answers, columns, params, code)
        assert files.shape == (count, 2, 3)
        for answer, master, theta, file in zip(answers, masters, thetas, files):
            assert file.tolist() == decode(answer, master, theta, params, code)
        assert np.array_equal(files, sources[thetas])

    @pytest.mark.parametrize("n, k", [(5, 3), (8, 5), (3, 1), (20, 19)])
    @pytest.mark.parametrize("dtype", [np.intp, np.uint8])
    def test_distinct_row_keys_equal_a_lexsort(self, n, k, dtype):
        """decode_batch's keys of unsorted columns with repeats: the
        distinct rows in ascending order and each row's index among
        them, as a lexsort finds them; at (20, 19) base-n keys would
        overflow int64."""
        rng = np.random.default_rng(n * k)
        rows = np.array([rng.permutation(n)[:k] for _ in range(300)], dtype=dtype)
        rows = rng.permutation(np.concatenate([rows, rows[:100], rows[:1].repeat(5, axis=0)]))
        order = np.lexsort(rows.T[::-1])
        ordered = rows[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        which = np.empty(len(rows), dtype=np.intp)
        which[order] = np.cumsum(first) - 1
        keys, found = scheme._distinct_rows(rows, n)
        assert keys == list(map(tuple, ordered[first].tolist()))
        assert np.array_equal(found, which)

    def test_corrupt_answers_do_not_decode_silently(self, example_system):
        params, code, sources, _, storages = example_system
        answers = [
            list(server_answer(st, build_server_query(EXAMPLE_QUERY, 0, st.server_index, params), params))
            for st in storages
        ]
        answers[2][0] = (answers[2][0] + 1) % 7  # flip a transmitted element
        decoded = decode(answer_array(answers), EXAMPLE_QUERY, 0, params, code)
        assert decoded != sources[0]


class TestDecodeMap:
    @settings(max_examples=60, deadline=None)
    @given(
        n_servers=st.integers(2, 8),
        data=st.data(),
        m_files=st.integers(2, 4),
        prime=st.sampled_from(PRIMES),
        seed=st.integers(0, 2**32),
    )
    def test_agrees_with_oracle_on_random_answers(self, n_servers, data, m_files, prime, seed):
        assume(prime >= n_servers)
        k_mds = data.draw(st.integers(1, n_servers - 1))
        params = derive_params(n_servers, k_mds, m_files, prime)
        code = make_code(n_servers, k_mds, prime)
        rng = make_rng(seed)
        master = gen_master_query(params, rng)
        theta = int(rng.integers(m_files))
        answers = []
        for t in range(n_servers):
            query = build_server_query(master, theta, t, params)
            answers.append([
                None if all(e >= params.rows_per_file for e in row) else int(rng.integers(prime))
                for row in query
            ])
        expected = decode_loop(answers, master, theta, params, code)
        assert decode(answer_array(answers), master, theta, params, code) == expected
        column = [row[theta] for row in master]
        flat = answer_array(answers).ravel()
        d_map = scheme.decode_map(column, params, code)
        assert d_map.shape == (params.file_len, n_servers * params.k_reduced)
        assert matmul_mod(d_map, flat, prime).tolist() == [v for row in expected for v in row]

    def test_cache_holds_every_column_of_five_three(self):
        """Each of the 60 columns of (5,3) gets its own map, built once and
        kept under the column as given."""
        params = derive_params(5, 3, 3, 257)
        code = MdsCode(5, 3, 257)
        columns = list(map(tuple, scheme.family_table(5, 3, scheme.OMEGA).tolist()))
        maps = [scheme.decode_map(column, params, code) for column in columns]
        assert set(code.decode_maps) == set(columns)
        for column, d_map in zip(columns, maps):
            assert code.decode_maps.get(column) is d_map
            assert scheme.decode_map(list(column), params, code) is d_map
            assert not d_map.flags.writeable

    def test_cache_is_bounded_in_bytes(self):
        """1200 maps of 4.8 KB overflow rs.MATRIX_CACHE_BYTES; the cache
        keeps the most recent ones that fit and drops the rest."""
        params = derive_params(8, 5, 2, 65537)
        code = MdsCode(8, 5, 65537)
        columns = list(map(tuple, scheme.family_table(8, 5, scheme.OMEGA)[:1200].tolist()))
        for column in columns:
            scheme.decode_map(column, params, code)
        cache = code.decode_maps
        held = sum(d_map.nbytes for d_map in cache.values())
        assert cache.limit == rs.MATRIX_CACHE_BYTES
        assert 0 < held == cache.nbytes <= cache.limit
        assert len(cache) < len(columns)
        assert list(cache) == columns[-len(cache):]

    @pytest.mark.parametrize("n,k", [(5, 3), (8, 5)])
    def test_one_build_per_column_set(self, n, k, monkeypatch):
        """A batch whose desired columns are all of Omega decodes with its
        rounds ordered by column, so it builds one map per column set."""
        params = derive_params(n, k, 2, 65537)
        code = MdsCode(n, k, 65537)
        sources = scheme.random_sources(params, make_rng(n))
        _, storages = encode_system(params, sources, code)
        table = scheme.family_table(n, k, scheme.OMEGA)
        masters = np.zeros((len(table), k, 2), dtype=table.dtype)
        masters[:, :, 0] = table
        masters[:, :, 1] = table[::-1]
        built = []
        build = scheme._build_decode_map

        def counting_build(column, params, code):
            built.append(column)
            return build(column, params, code)

        monkeypatch.setattr(scheme, "_build_decode_map", counting_build)
        thetas = np.zeros(len(table), dtype=np.int64)
        files, _ = scheme.retrieve_batch(masters, thetas, storages, params, code)
        assert np.array_equal(files, sources[thetas])
        assert len(built) == len(set(built)) == math.comb(n, k)  # 10 and 56
        assert all(list(column) == sorted(column) for column in built)
        assert set(code.decode_maps) == set(built)

    def test_threads_get_identical_maps(self):
        params = derive_params(8, 5, 2, 65537)
        code = MdsCode(8, 5, 65537)
        columns = list(map(tuple, scheme.family_table(8, 5, scheme.OMEGA)[::12].tolist()))
        maps = [{} for _ in range(4)]

        def worker(w):
            order = columns[:]
            random.Random(w).shuffle(order)
            for column in order:
                maps[w][column] = scheme.decode_map(column, params, code)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for column in columns:
            expected = scheme._build_decode_map(column, params, code)
            for held in maps:
                assert np.array_equal(held[column], expected)
                assert not held[column].flags.writeable
        # 560 maps of 4.8 KB: all fit, each counted once however many
        # threads built it.
        cache = code.decode_maps
        assert set(cache) == set(columns)
        assert cache.nbytes == sum(d_map.nbytes for d_map in cache.values()) <= cache.limit

    def test_repeated_column_entry(self, example_system):
        params, code, _, _, _ = example_system
        with pytest.raises(DecodingError):
            scheme.decode_map((1, 1, 2), params, code)


class TestBenchmarkTraffic:
    """Single retrievals draw SHIFTS masters, whose n desired columns key
    their own maps; batches key theirs by column set.  What the benchmark
    runs, in process and over TCP, fits one code's decode-map cache."""

    @pytest.mark.parametrize("shape, batch, held", [
        ((5, 3, 3, 257), 1000, 12),  # C(5,3) + 2
        ((8, 5, 256, 65537), 20, 60),  # C(8,5) + 4
    ])
    def test_every_map_is_built_once(self, shape, batch, held, monkeypatch):
        params = derive_params(*shape)
        n, k = params.n_reduced, params.k_reduced
        code = make_code(*shape[:2], shape[3])
        monkeypatch.setattr(code, "decode_maps", rs.MatrixCache(rs.MATRIX_CACHE_BYTES))
        keys, built = set(), []
        decode_map, build = scheme.decode_map, scheme._build_decode_map

        def recording_decode_map(column, params, code):
            keys.add(tuple(column))
            return decode_map(column, params, code)

        def counting_build(column, params, code):
            built.append(column)
            return build(column, params, code)

        monkeypatch.setattr(scheme, "decode_map", recording_decode_map)
        monkeypatch.setattr(scheme, "_build_decode_map", counting_build)
        shift_columns = set(map(tuple, scheme.family_table(n, k, scheme.SHIFTS).tolist()))
        sources = scheme.random_sources(params, make_rng(11))
        _, storages = encode_system(params, sources, code)
        rng = make_rng(12)
        for index in range(200):
            theta = index % params.m_files
            source, _ = retrieve(theta, storages, params, rng, code)
            assert source == sources[theta].tolist()
            if keys == shift_columns:
                break
        assert keys == shift_columns
        keys.clear()
        servers = [net.StorageServer(storage, params) for storage in storages]
        for server in servers:
            start_serving(server)
        try:
            addresses = [server.server_address for server in servers]
            for seed in range(200):
                theta = seed % params.m_files
                result = net.client_retrieve(addresses, theta, params, seed)
                assert result.source == sources[theta].tolist()
                if keys == shift_columns:
                    break
        finally:
            net._pool.clear()
            stop_servers(servers)
        assert keys == shift_columns
        # One batch of 20 (8,5) trials meets at most 20 of the 56 column
        # sets; 20 batches meet them all.
        for seed in range(20):
            assert sim.run_trials(params, batch, seed, theta_policy="uniform").trials == batch
        # The n - k + 1 unwrapped shift columns are column sets too.
        assert len(built) == len(set(built)) == len(code.decode_maps) == held
        assert set(code.decode_maps) == set(built) >= shift_columns
        assert code.decode_maps.nbytes <= code.decode_maps.limit

    def test_memo_caches_hit_on_the_retrieval_path(self):
        """Once warm, 50 TCP retrievals of each benchmark system against
        servers in this process, then 50 in-process retrievals of the last
        one, add hits and no miss to each memo cache on their path.  The
        in-process ones keep to one system: _storage_stack holds one."""
        caches = [
            net._shift_lists,
            net._answer_layout,
            scheme._file_offsets,
            scheme._gather_tables,
            scheme._storage_stack,
            scheme.family_table,
            make_code,
        ]
        systems = []
        for shape in [(8, 5, 256, 65537), (5, 3, 3, 257)]:
            params = derive_params(*shape)
            sources = scheme.random_sources(params, make_rng(5))
            systems.append((params, sources, encode_system(params, sources)[1]))
        servers = {}
        for params, _, storages in systems:
            servers[params] = [net.StorageServer(storage, params) for storage in storages]
            for server in servers[params]:
                start_serving(server)

        def traffic():
            for params, sources, _ in systems:
                addresses = [server.server_address for server in servers[params]]
                for seed in range(50):
                    theta = seed % params.m_files
                    result = net.client_retrieve(addresses, theta, params, seed)
                    assert result.source == sources[theta].tolist()
            params, sources, storages = systems[-1]
            for seed in range(50):
                theta = seed % params.m_files
                source, _ = retrieve(theta, storages, params, make_rng(seed))
                assert source == sources[theta].tolist()

        try:
            traffic()
            before = [cache.cache_info() for cache in caches]
            traffic()
            after = [cache.cache_info() for cache in caches]
        finally:
            net._pool.clear()
            stop_servers([server for held in servers.values() for server in held])
        for cache, old, new in zip(caches, before, after):
            assert new.misses == old.misses, cache.__name__
            assert new.hits > old.hits, cache.__name__


class TestMalformedColumns:
    """decode and decode_batch raise DecodingError for a desired column
    that is not k distinct entries of [0:n), in a batch too, where its
    base-n key may equal a valid column's."""

    BAD = [  # (desired column, a batch partner of the same length)
        ([3, 0], [3, 0]),
        ([3, 0, 1, 2], [3, 0, 1, 2]),
        ([3, 3, 1], [3, 1, 0]),
        ([3, 0, 5], [3, 1, 0]),  # same base-5 key
        ([3, -1, 1], [2, 4, 1]),  # same base-5 key
    ]
    IDS = ["short", "long", "repeat", "n", "negative"]

    @pytest.fixture
    def answers(self, example_system):
        params, _, _, _, storages = example_system
        return answer_array([
            server_answer(st, build_server_query(EXAMPLE_QUERY, 0, st.server_index, params), params)
            for st in storages
        ])

    @pytest.mark.parametrize("column, partner", BAD, ids=IDS)
    def test_decode(self, answers, example_system, column, partner):
        params, code, _, _, _ = example_system
        master = [[entry, 1, 2] for entry in column]
        with pytest.raises(DecodingError, match="desired column"):
            decode(answers, master, 0, params, code)

    @pytest.mark.parametrize("column, partner", BAD, ids=IDS)
    @pytest.mark.parametrize("bad_first", [True, False])
    def test_decode_batch(self, answers, example_system, column, partner, bad_first):
        params, code, _, _, _ = example_system
        columns = np.array([column, partner] if bad_first else [partner, column])
        with pytest.raises(DecodingError, match="desired column"):
            scheme.decode_batch(np.stack([answers, answers]), columns, params, code)


class TestAnswerChecks:
    """decode checks theta and the answers' shape; each answer's values
    are checked on the wire (test_net.py's TestAnswerChecks)."""

    @pytest.fixture
    def answers(self, example_system):
        params, _, _, _, storages = example_system
        return answer_array([
            server_answer(st, build_server_query(EXAMPLE_QUERY, 0, st.server_index, params), params)
            for st in storages
        ])

    @pytest.mark.parametrize("theta", [-1, 3])
    def test_theta_out_of_range(self, answers, example_system, theta):
        params, code, _, _, _ = example_system
        with pytest.raises(ParameterError, match=f"theta={theta} out of"):
            decode(answers, EXAMPLE_QUERY, theta, params, code)

    @pytest.mark.parametrize("reshape", [
        lambda a: a.ravel(),  # (15,): decode_batch would read it as one row
        lambda a: a.T,  # (3, 5)
        lambda a: a[None],  # (1, 5, 3)
        lambda a: a[:, :1],  # (5, 1), broadcasts against (5, 3)
        lambda a: a[:1],  # (1, 3), broadcasts against (5, 3)
        lambda a: a[:4],
        lambda a: np.hstack([a, a[:, :1]]),
    ])
    def test_answers_not_n_by_k(self, answers, example_system, reshape):
        params, code, _, _, _ = example_system
        with pytest.raises(DecodingError, match=r"answers must be 5 x 3, got \("):
            decode(reshape(answers), EXAMPLE_QUERY, 0, params, code)


class TestRetrieve:
    def test_matches_source(self, example_system):
        params, code, sources, _, storages = example_system
        rng = make_rng(2024)
        for theta in range(3):
            source, downloaded = retrieve(theta, storages, params, rng, code)
            assert source == sources[theta]
            # D_rel = L + K*r with 0 <= r <= k
            assert params.file_len <= downloaded <= params.n_servers * params.k_reduced
            assert (downloaded - params.file_len) % params.k_mds == 0
            assert type(downloaded) is int  # the CLI's JSON writer refuses numpy integers

    @pytest.mark.parametrize("theta", [1.5, True, np.float64(1.0), np.bool_(True)])
    def test_non_integer_theta_is_refused(self, example_system, theta):
        """Not truncated to another file: retrieve, retrieve_batch and
        decode raise ParameterError."""
        params, code, _, _, storages = example_system
        with pytest.raises(ParameterError, match="^theta must be an integer"):
            retrieve(theta, storages, params, make_rng(0), code)
        with pytest.raises(ParameterError, match="^theta must be an integer"):
            scheme.retrieve_batch([EXAMPLE_QUERY], [theta], storages, params, code)
        answers = np.zeros((params.n_servers, params.k_reduced), dtype=np.int64)
        with pytest.raises(ParameterError, match="^theta must be an integer"):
            decode(answers, EXAMPLE_QUERY, theta, params, code)


def numpy_methods_calls(call) -> int:
    """Python calls into numpy's _methods module (the wrappers of
    ndarray.max, .min, .sum, .any and others) made by call()."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("numpy.") and module.endswith("._methods"):
            calls += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return calls


class TestPerRetrievalDispatch:
    """A warm per-retrieval path reduces with the ufuncs themselves, never
    through numpy's Python-level method wrappers."""

    def test_retrieve(self):
        params = derive_params(5, 3, 3, 257)
        code = make_code(5, 3, 257)
        _, storages = encode_system(params, scheme.random_sources(params, make_rng(1)), code)

        def call():
            return retrieve(1, storages, params, make_rng(7), code)

        call()
        assert numpy_methods_calls(call) == 0

    def test_run_trials(self):
        params = derive_params(5, 3, 3, 257)
        sim.run_trials(params, 50, 3)
        assert numpy_methods_calls(lambda: sim.run_trials(params, 50, 3)) == 0

    def test_server_answer_of_a_decoded_query(self):
        params = derive_params(8, 5, 256, 65537)
        _, storages = encode_system(params, scheme.random_sources(params, make_rng(1)))
        master = gen_master_query(params, make_rng(2))
        query = build_server_query(master, 200, 3, params)
        decoded = net.decode_query_payload(net.encode_query_payload(params, query), params)
        assert type(decoded) is scheme.ShiftQuery
        server_answer(storages[3], decoded, params)
        assert numpy_methods_calls(lambda: server_answer(storages[3], decoded, params)) == 0


class TestRetrieveBatch:
    """retrieve_batch answers the T masters; the per-server pipeline of
    tests/oracle.py, through all N servers' queries, is its reference."""

    @pytest.mark.parametrize("shape, count", [
        ((5, 3, 3, 257), 1),
        ((5, 3, 3, 257), 1000),
        ((8, 5, 256, 65537), 20),
        ((6, 4, 5, 4294967291), 30),  # decode's matmul_mod takes Python ints
        ((259, 2, 2, 263), 12),  # n = 259: u16 masters
    ])
    @pytest.mark.parametrize("policy", ["fixed", "uniform"])
    def test_equals_the_reference(self, shape, count, policy):
        params = derive_params(*shape)
        code = make_code(*shape[:2], shape[3])
        sources = scheme.random_sources(params, make_rng(count))
        _, storages = encode_system(params, sources, code)
        rng = make_rng(count + 1)
        masters = scheme.sample_master_queries(params, rng, count)
        if policy == "uniform":
            thetas = rng.integers(0, params.m_files, size=count)
        else:
            thetas = np.full(count, params.m_files - 1)
        # Round 0 of every other master reads dummy rows only: NULL on
        # the K servers whose shifted desired entry stays dummy too.
        dummies = range(params.rows_per_file, params.n_reduced)
        for master in masters[::2]:
            for column in master.T:
                if column[0] not in dummies:
                    column[0] = next(v for v in dummies if v not in column)
        files, live = scheme.retrieve_batch(masters, thetas, storages, params, code)
        expected_files, expected_live = retrieve_batch_reference(
            masters, thetas, storages, params, code
        )
        assert files.shape == (count, params.rows_per_file, params.k_mds)
        assert live.shape == (count, params.n_servers, params.k_reduced)
        assert np.array_equal(files, expected_files)
        assert np.array_equal(live, expected_live)
        assert np.array_equal(files, np.array(sources)[thetas])
        assert not live[::2, :, 0].all() and live.any()

    def test_batch_decodes_by_column_set(self, monkeypatch):
        """A batch reaches the decode maps only with sorted columns, and
        builds each map once."""
        params = derive_params(8, 5, 256, 65537)
        code = MdsCode(8, 5, 65537)
        sources = scheme.random_sources(params, make_rng(5))
        _, storages = encode_system(params, sources, code)
        rng = make_rng(6)
        masters = scheme.sample_master_queries(params, rng, 20)
        thetas = rng.integers(0, params.m_files, size=20)
        keys = {"decode_map": [], "_build_decode_map": []}

        def recording(name):
            call = getattr(scheme, name)

            def record(column, params, code):
                keys[name].append(tuple(column))
                return call(column, params, code)

            return record

        for name in keys:
            monkeypatch.setattr(scheme, name, recording(name))
        files, _ = scheme.retrieve_batch(masters, thetas, storages, params, code)
        assert np.array_equal(files, sources[thetas])
        desired = masters[np.arange(20), :, thetas].tolist()
        assert any(column != sorted(column) for column in desired)
        sorted_keys = {tuple(sorted(column)) for column in desired}
        assert set(keys["decode_map"]) == sorted_keys
        assert sorted(keys["_build_decode_map"]) == sorted(sorted_keys)
        assert set(code.decode_maps) == sorted_keys

    def test_matrix_caches_stay_within_their_bound(self):
        """A (259,2) column set takes 257 recovery matrices of 4 KB and
        one decode map of 2.1 MB; after 12 of them each cache holds as
        many as fit its bound, and every file still decodes."""
        params = derive_params(259, 2, 2, 263)
        code = MdsCode(259, 2, 263)
        sources = scheme.random_sources(params, make_rng(7))
        _, storages = encode_system(params, sources, code)
        rng = make_rng(8)
        masters = scheme.sample_master_queries(params, rng, 12)
        thetas = rng.integers(0, params.m_files, size=12)
        files, _ = scheme.retrieve_batch(masters, thetas, storages, params, code)
        assert np.array_equal(files, sources[thetas])
        for cache in (code.recovery_matrices, code.decode_maps):
            sizes = [matrix.nbytes for matrix in cache.values()]
            assert cache.limit == rs.MATRIX_CACHE_BYTES
            assert cache.limit - sizes[0] < cache.nbytes == sum(sizes) <= cache.limit

    @pytest.mark.parametrize("shape, count", [((5, 3, 3, 257), 100), ((8, 5, 256, 65537), 20)])
    def test_descending_desired_columns(self, shape, count):
        params = derive_params(*shape)
        code = make_code(*shape[:2], shape[3])
        sources = scheme.random_sources(params, make_rng(7))
        _, storages = encode_system(params, sources, code)
        rng = make_rng(8)
        masters = scheme.sample_master_queries(params, rng, count)
        thetas = rng.integers(0, params.m_files, size=count)
        batch = np.arange(count)
        masters[batch, :, thetas] = np.sort(masters[batch, :, thetas], axis=1)[:, ::-1]
        files, live = scheme.retrieve_batch(masters, thetas, storages, params, code)
        expected_files, expected_live = retrieve_batch_reference(
            masters, thetas, storages, params, code
        )
        assert np.array_equal(files, expected_files)
        assert np.array_equal(files, sources[thetas])
        assert np.array_equal(live, expected_live)

    @pytest.mark.parametrize("shape", [(5, 3, 3, 257), (8, 5, 256, 65537), (12, 7, 2, 13)])
    def test_one_stack_per_system(self, tmp_path, shape):
        """Three calls with the same storages, from encode_system or
        loaded from their files, stack them once; a storage replaced in
        the sequence is read by the next call."""
        params = derive_params(*shape)
        code = make_code(*shape[:2], shape[3])
        sources = scheme.random_sources(params, make_rng(11))
        _, encoded = encode_system(params, sources, code)
        loaded = []
        for storage in encoded:
            path = tmp_path / f"storage-{storage.server_index}.bin"
            scheme.save_storage(path, storage, params)
            loaded.append(scheme.load_storage(path)[0])
        rng = make_rng(12)
        masters = scheme.sample_master_queries(params, rng, 20)
        thetas = rng.integers(0, params.m_files, size=20)
        expected_files, expected_live = retrieve_batch_reference(
            masters, thetas, encoded, params, code
        )
        dtype = sum_dtype(params.m_files, params.prime)
        for storages in (encoded, loaded):
            builds = scheme._storage_stack.cache_info().misses
            for _ in range(3):
                files, live = scheme.retrieve_batch(masters, thetas, storages, params, code)
                assert np.array_equal(files, expected_files)
                assert np.array_equal(live, expected_live)
            assert scheme._storage_stack.cache_info().misses == builds + 1
            stack = scheme._storage_stack(tuple(storages), dtype)
            assert stack.flags.c_contiguous and not stack.flags.writeable
            assert stack.shape == (params.m_files, params.n_reduced, params.n_servers)
            for storage in storages:
                assert storage.symbols.dtype == np.int64 and storage.symbols.flags.c_contiguous
        _, other = encode_system(params, scheme.random_sources(params, make_rng(13)), code)
        encoded[1] = other[1]
        files, live = scheme.retrieve_batch(masters, thetas, encoded, params, code)
        replaced_files, replaced_live = retrieve_batch_reference(
            masters, thetas, encoded, params, code
        )
        assert not np.array_equal(replaced_files, expected_files)
        assert np.array_equal(files, replaced_files)
        assert np.array_equal(live, replaced_live)

    @pytest.mark.parametrize("column", [0, 2])  # the desired file's, another
    @pytest.mark.parametrize("change", ["5", "-1", "repeat", "1.5"])
    def test_rejects_what_validate_query_rejects(self, example_system, column, change):
        params, code, _, _, storages = example_system
        master = [row[:] for row in EXAMPLE_QUERY]
        if change == "repeat":
            master[1][column] = master[0][column]
        else:
            master[1][column] = float(change) if "." in change else int(change)
        with pytest.raises(ProtocolError) as expected:
            scheme.validate_query([master], params)
        with pytest.raises(ProtocolError) as raised:
            scheme.retrieve_batch([master], [0], storages, params, code)
        assert type(raised.value) is ProtocolError
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("theta", [-1, 3])
    def test_theta_out_of_range(self, example_system, theta):
        params, code, _, _, storages = example_system
        with pytest.raises(ParameterError, match=rf"^theta={theta} out of \[0:3\)$"):
            scheme.retrieve_batch([EXAMPLE_QUERY], [theta], storages, params, code)

    def test_desired_entry_outside_n_is_a_protocol_error(self, example_system, monkeypatch):
        """Checked before any answer: the per-server queries would wrap
        the entry mod n and leave it to decode_map's DecodingError."""
        params, code, _, _, storages = example_system
        master = [row[:] for row in EXAMPLE_QUERY]
        master[2][0] = 6
        with pytest.raises(DecodingError):
            retrieve_batch_reference([master], [0], storages, params, code)
        monkeypatch.setattr(scheme, "decode_batch", None)
        with pytest.raises(ProtocolError, match=r"^query entry 6 out of \[0:5\)$"):
            scheme.retrieve_batch([master], [0], storages, params, code)


# The (5,3,3,7) example system's server 2 as a storage file: the header
# line, then its (3, 2) fragments at one byte each.
GOLDEN_STORAGE_2 = (
    b'{"format": "pir-mds-storage/2", "params": {"n": 5, "k": 3, "m": 3, "p": 7},'
    b' "server_index": 2}\n'
    b"\x05\x02\x05\x04\x06\x00"
)


def _storage_file(header, body: bytes) -> bytes:
    return json.dumps(header).encode() + b"\n" + body


def _example_header(**changes) -> dict:
    header = {
        "format": "pir-mds-storage/2",
        "params": {"n": 5, "k": 3, "m": 3, "p": 7},
        "server_index": 2,
    }
    header.update(changes)
    return header


class TestStorageFiles:
    def test_round_trip(self, tmp_path, example_system):
        params, _, _, _, storages = example_system
        path = tmp_path / "storage-2.json"  # the suffix does not name the format
        scheme.save_storage(path, storages[2], params)
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert header["format"] == "pir-mds-storage/2"
        assert header["params"] == {"n": 5, "k": 3, "m": 3, "p": 7}
        loaded, loaded_params = scheme.load_storage(path)
        assert loaded.server_index == 2
        assert np.array_equal(loaded.symbols, storages[2].symbols)
        assert loaded_params == params

    def test_golden_file(self, tmp_path, example_system):
        params, _, _, _, storages = example_system
        path = tmp_path / "storage-2.bin"
        scheme.save_storage(path, storages[2], params)
        assert path.read_bytes() == GOLDEN_STORAGE_2
        loaded, _ = scheme.load_storage(path)
        assert loaded.symbols.tolist() == [[5, 2, 0, 0, 0], [5, 4, 0, 0, 0], [6, 0, 0, 0, 0]]

    @pytest.mark.parametrize("system, width", [
        ((5, 3, 3, 7), 1), ((5, 3, 3, 257), 2), ((8, 5, 256, 65537), 4),
    ])
    def test_round_trip_at_each_width(self, tmp_path, system, width):
        params = derive_params(*system)
        _, storages = encode_system(params, scheme.random_sources(params, make_rng(7)))
        symbols = storages[-1].symbols.copy()
        symbols[0, 0] = params.prime - 1  # the widest value the field holds
        storages[-1] = scheme.ServerStorage(storages[-1].server_index, symbols)
        for storage in storages:
            path = tmp_path / f"storage-{storage.server_index}.bin"
            scheme.save_storage(path, storage, params)
            header = path.read_bytes().split(b"\n", 1)[0]
            body_bytes = params.m_files * params.rows_per_file * width
            assert path.stat().st_size == len(header) + 1 + body_bytes
            loaded, loaded_params = scheme.load_storage(path)
            assert loaded.server_index == storage.server_index and loaded_params is params
            assert np.array_equal(loaded.symbols, storage.symbols)
            assert loaded.symbols.dtype == np.int64 and not loaded.symbols.flags.writeable
            assert not loaded.symbols[:, params.rows_per_file:].any()

    def test_bad_format(self, tmp_path):
        """A v1 JSON file, a v1 header, another format and none."""
        body = b"\x05\x02\x05\x04\x06\x00"
        path = tmp_path / "storage-2.bin"
        for content in [
            b'{"format": "pir-mds-storage/1", "params": {"n": 5, "k": 3, "m": 3, "p": 7},'
            b' "server_index": 2, "fragments": [[5, 2], [5, 4], [6, 0]]}',
            _storage_file(_example_header(format="pir-mds-storage/1"), body),
            _storage_file(_example_header(format="nope"), body),
            _storage_file({"params": {"n": 5, "k": 3, "m": 3, "p": 7}, "server_index": 2}, body),
        ]:
            path.write_bytes(content)
            with pytest.raises(ParameterError):
                scheme.load_storage(path)

    @pytest.mark.parametrize("value", [-1, 7])
    def test_fragment_outside_the_field(self, tmp_path, value):
        """-1 is written as its one-byte two's complement, 255."""
        path = tmp_path / "storage-2.bin"
        body = bytearray(GOLDEN_STORAGE_2)
        body[-5] = value % 256
        path.write_bytes(bytes(body))
        with pytest.raises(ParameterError, match=r"^fragments must be integers in \[0:7\)$"):
            scheme.load_storage(path)

    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe{}\n\x00", "no JSON object header line"),
        (b"{not json}\n\x00", "no JSON object header line"),
        (b"[1, 2]\n\x00", "no JSON object header line"),
        (b"[" * 100000 + b"\n", "no JSON object header line"),
        (GOLDEN_STORAGE_2.replace(b"\n", b" "), "no JSON object header line"),
        (b"", "no JSON object header line"),
    ], ids=["not-utf8", "not-json", "not-object", "deep", "no-newline", "empty"])
    def test_bad_header(self, tmp_path, content, message):
        path = tmp_path / "storage-2.bin"
        path.write_bytes(content)
        with pytest.raises(ParameterError, match=message):
            scheme.load_storage(path)

    @pytest.mark.parametrize("params, message", [
        ({"n": 5, "k": 3, "m": 3, "p": 4}, "not prime"),
        ({"n": 3, "k": 3, "m": 3, "p": 7}, "need N > K"),
        ({"n": 5, "k": 3, "m": 1, "p": 7}, "need M > 1"),
        ({"n": 5, "k": 3, "m": 3, "p": 2**32 + 15}, "u32"),
        ({"n": 5, "k": 3, "m": 3}, "must be the integers"),
        ({"n": 5, "k": 3, "m": 3, "p": "7"}, "must be the integers"),
        ({"n": 5, "k": 3, "m": 3.0, "p": 7}, "must be the integers"),
        ({"n": 5, "k": True, "m": 3, "p": 7}, "must be the integers"),
        ([5, 3, 3, 7], "must be the integers"),
        (None, "must be the integers"),
    ])
    def test_params_rejected(self, tmp_path, params, message):
        path = tmp_path / "storage-2.bin"
        path.write_bytes(_storage_file(_example_header(params=params), b"\x00" * 6))
        with pytest.raises(ParameterError, match=message):
            scheme.load_storage(path)

    @pytest.mark.parametrize("index", [-1, 5, 2.0, "2", True, None])
    def test_server_index_rejected(self, tmp_path, index):
        path = tmp_path / "storage-2.bin"
        path.write_bytes(_storage_file(_example_header(server_index=index), b"\x00" * 6))
        with pytest.raises(ParameterError, match=r"server_index must be an integer in \[0:5\)"):
            scheme.load_storage(path)

    @pytest.mark.parametrize("body", [b"", b"\x00" * 5, b"\x00" * 7, b"\x00" * 12])
    def test_body_length_rejected(self, tmp_path, body):
        path = tmp_path / "storage-2.bin"
        path.write_bytes(_storage_file(_example_header(), body))
        with pytest.raises(ParameterError, match="storage body must be 3 x 2 values of 1 bytes"):
            scheme.load_storage(path)

    @pytest.mark.parametrize("system, width", [((5, 3, 3, 257), 2), ((8, 5, 256, 65537), 4)])
    def test_value_at_p_rejected(self, tmp_path, system, width):
        params = derive_params(*system)
        _, storages = encode_system(params, scheme.random_sources(params, make_rng(3)))
        path = tmp_path / "storage-0.bin"
        scheme.save_storage(path, storages[0], params)
        data = path.read_bytes()[:-width] + params.prime.to_bytes(width, "little")
        path.write_bytes(data)
        with pytest.raises(ParameterError, match="fragments must be integers"):
            scheme.load_storage(path)

    def test_fuzzed_files_raise_only_parameter_errors(self, tmp_path):
        """Random files, every truncation of a valid one and random byte
        changes to it either load or raise ParameterError."""
        rng = random.Random(20261019)
        path = tmp_path / "storage-2.bin"
        contents = [GOLDEN_STORAGE_2[:cut] for cut in range(len(GOLDEN_STORAGE_2))]
        for _ in range(300):
            contents.append(rng.randbytes(rng.randrange(200)))
            mutated = bytearray(GOLDEN_STORAGE_2)
            for _ in range(rng.randrange(1, 4)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            contents.append(bytes(mutated))
        loaded = 0
        for content in contents:
            path.write_bytes(content)
            try:
                scheme.load_storage(path)
                loaded += 1
            except ParameterError:
                pass
        assert 0 < loaded < len(contents)

    def test_ingest_round_trip(self):
        params = derive_params(5, 3, 3, 257)
        data = bytes(range(13))
        sources, length = scheme.ingest_bytes(data, params)
        assert length == 13
        assert len(sources) == 3
        flat = bytes(value for rows in sources for row in rows for value in row)
        assert flat[:length] == data

    def test_ingest_empty(self):
        params = derive_params(5, 3, 2, 257)
        sources, length = scheme.ingest_bytes(b"", params)
        assert length == 0
        assert sources[0] == [[0] * 3, [0] * 3]

    def test_ingest_too_large(self):
        params = derive_params(5, 3, 2, 257)
        with pytest.raises(ParameterError):
            scheme.ingest_bytes(bytes(100), params)

    def test_ingest_needs_wide_field(self):
        params = derive_params(5, 3, 2, 7)
        with pytest.raises(ParameterError):
            scheme.ingest_bytes(b"abc", params)
