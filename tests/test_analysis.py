from fractions import Fraction

import numpy as np
import pytest

from codedpir import analysis, derive_params, make_rng
from codedpir import scheme
from codedpir.analysis import (
    BudgetExceededError,
    build_answer_matrix,
    capacity,
    expected_download,
    interference_rank,
    min_file_length_bound,
    verify_privacy,
    verify_rank_identity,
)
from codedpir.scheme import build_server_query, gen_master_query, server_answer

from conftest import EXAMPLE_QUERY


class TestFormulas:
    def test_capacity(self):
        assert capacity(5, 3, 3) == Fraction(25, 49)
        assert capacity(7, 4, 1) == 1
        assert capacity(2, 1, 2) == Fraction(2, 3)

    def test_expected_download(self):
        assert expected_download(derive_params(5, 3, 3, 7)) == Fraction(294, 25)
        assert expected_download(derive_params(2, 1, 2, 257)) == Fraction(3, 2)

    def test_closed_forms_are_memoized(self):
        params = derive_params(8, 5, 256, 65537)
        first = expected_download(params)
        assert expected_download(params) == first == 40 * (1 - Fraction(5, 8) ** 256)
        assert expected_download(params) is first
        assert analysis.scheme_rate(params) is analysis.scheme_rate(params)

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 2), (5, 3), (6, 4), (9, 6)])
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_rate_equals_capacity(self, n, k, m):
        params = derive_params(n, k, m, 257)
        assert Fraction(params.file_len) / expected_download(params) == capacity(n, k, m)


class TestBound:
    def test_worked_example_point(self):
        info = min_file_length_bound(5, 3, 3)
        assert (info.bound, info.tight) == (6, True)
        assert info.scheme_file_len == 6

    def test_small_tight_point(self):
        info = min_file_length_bound(4, 2, 2)
        assert (info.bound, info.tight) == (2, True)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("m", [2, 4])
    def test_repetition_case(self, n, m):
        info = min_file_length_bound(n, 1, m)
        assert (info.bound, info.tight) == (n - 1, True)

    def test_non_tight_gap(self):
        info = min_file_length_bound(5, 3, 2)
        assert (info.bound, info.tight) == (2, False)
        assert info.gap_factor == 3  # K / gcd(N,K)

    def test_trivial_regime(self):
        with pytest.raises(ValueError):
            min_file_length_bound(3, 3, 2)


class TestAnswerMatrix:
    def test_worked_example_server_zero(self):
        params = derive_params(5, 3, 3, 7)
        matrix = build_answer_matrix(EXAMPLE_QUERY, params)
        # round 0 is NULL; rounds 1 and 2 pick the listed storage rows
        assert matrix == [
            [1, 0, 0, 1, 1, 0],
            [0, 1, 1, 0, 0, 0],
        ]

    def test_all_null(self):
        params = derive_params(5, 3, 3, 7)
        query = [[3, 4, 3], [4, 2, 2], [2, 3, 4]]
        assert build_answer_matrix(query, params) == []

    @pytest.mark.parametrize("n,k,m", [(5, 3, 3), (4, 2, 2), (6, 4, 3)])
    def test_faithful_to_server_answer(self, n, k, m):
        params = derive_params(n, k, m, 257)
        rng = make_rng(n + 10 * k + m)
        sources = scheme.random_sources(params, rng).tolist()
        _, storages = scheme.encode_system(params, sources)
        for _ in range(10):
            master = gen_master_query(params, rng)
            for t in range(n):
                query = build_server_query(master, 0, t, params)
                matrix = build_answer_matrix(query, params)
                answer = [a for a in server_answer(storages[t], query, params)
                          if a is not None]
                lam = params.rows_per_file
                flat = [v for frag in storages[t].symbols[:, :lam].tolist() for v in frag]
                recomputed = [
                    sum(c * v for c, v in zip(row, flat)) % params.prime
                    for row in matrix
                ]
                assert recomputed == answer


class TestInterferenceRank:
    def test_zero_matrix(self):
        params = derive_params(5, 3, 3, 7)
        assert interference_rank([], 0, params) == 0

    def test_worked_example_realization(self):
        params = derive_params(5, 3, 3, 7)
        for t in range(5):
            query = build_server_query(EXAMPLE_QUERY, 0, t, params)
            matrix = build_answer_matrix(query, params)
            assert interference_rank(matrix, 0, params) == 2

    def test_submatrix_rank(self):
        from codedpir.linalg import rank_mod

        params = derive_params(5, 3, 3, 7)
        rng = make_rng(8)
        for _ in range(20):
            master = gen_master_query(params, rng)
            matrix = build_answer_matrix(master, params)
            full = rank_mod(matrix, params.prime)
            for theta in range(3):
                assert full >= interference_rank(matrix, theta, params)

    def test_row_permutation_invariance(self):
        params = derive_params(5, 3, 3, 7)
        matrix = build_answer_matrix(EXAMPLE_QUERY, params)
        assert interference_rank(matrix[::-1], 0, params) == interference_rank(
            matrix, 0, params
        )

    def test_theta_out_of_range(self):
        params = derive_params(5, 3, 3, 7)
        with pytest.raises(ValueError):
            interference_rank([], 5, params)


class TestRankIdentity:
    def test_worked_example_realization(self):
        params = derive_params(5, 3, 3, 7)
        report = verify_rank_identity(EXAMPLE_QUERY, 0, params)
        assert report.passed
        assert report.ranks == [2] * 5
        assert report.realized_download == 12

    def test_exhaustive_tiny(self):
        params = derive_params(2, 1, 2, 257)
        size = scheme.query_space_size(params)
        for master in scheme.query_space(params, np.arange(size)).tolist():
            for theta in range(2):
                assert verify_rank_identity(master, theta, params).passed

    @pytest.mark.parametrize("n,k,m", [(5, 3, 3), (4, 2, 3), (6, 4, 2)])
    def test_random_sweep(self, n, k, m):
        params = derive_params(n, k, m, 257)
        rng = make_rng(99)
        for i in range(50):
            master = gen_master_query(params, rng, scheme.OMEGA)
            assert verify_rank_identity(master, i % m, params).passed

    def test_report_json(self):
        params = derive_params(5, 3, 3, 7)
        doc = verify_rank_identity(EXAMPLE_QUERY, 0, params).to_json(params)
        assert doc["check"] == "rank-identity"
        assert doc["pass"] is True


class TestPrivacy:
    def test_exhaustive_tiny(self):
        params = derive_params(2, 1, 2, 257)
        report = verify_privacy(params, "exhaustive")
        assert report.passed
        assert len(report.details) == 2 * 2

    def test_exhaustive_medium(self):
        params = derive_params(5, 3, 2, 7)
        assert scheme.query_space_size(params) == 3600
        assert verify_privacy(params, "exhaustive").passed

    def test_budget_exceeded(self):
        params = derive_params(5, 3, 3, 7)
        with pytest.raises(BudgetExceededError):
            verify_privacy(params, "exhaustive", budget=100)

    def test_statistical(self):
        params = derive_params(5, 3, 3, 257)
        report = verify_privacy(
            params, "statistical", rng=make_rng(0), samples=20_000
        )
        assert report.passed

    def test_statistical_with_entries_past_a_byte(self):
        """n = 130 samples u8 masters, where entry + t reaches
        129 + 129 = 258: a verifier shifting in u8 would wrap mod 256."""
        params = derive_params(130, 1, 2, 131)
        report = verify_privacy(params, "statistical", rng=make_rng(0), samples=4000)
        assert len(report.details) == 2 * 130
        assert report.passed

    def test_statistical_needs_rng(self):
        with pytest.raises(ValueError):
            verify_privacy(derive_params(2, 1, 2, 257), "statistical")
