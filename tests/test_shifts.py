"""
The shift query family: column j of a master is the base column
(0, 1, ..., k-1) shifted by a uniform r_j mod n.  Every property the
paper's Omega family has is checked here over the whole space Z_n^M:
exact decoding, privacy, the exact expected download and the rank
identity.
"""

import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from codedpir import analysis, derive_params, make_rng, scheme, sim
from codedpir.rs import make_code
from codedpir.scheme import OMEGA, SHIFTS

from oracle import shifted_low_masks_loop

GRID = [(5, 3, 3), (4, 2, 3), (6, 4, 2), (8, 5, 3), (3, 1, 3)]


def every_shift_master(params):
    """All n^M shift masters (n^M, k, M), in itertools.product order."""
    return scheme.query_space(params, np.arange(scheme.query_space_size(params, SHIFTS)), SHIFTS)


class TestTables:
    @pytest.mark.parametrize(
        "n, k", [(2, 1), (3, 2), (5, 3), (8, 5), (17, 2), (259, 2), (75, 70)]
    )
    def test_shift_tables(self, n, k):
        """Row u of the shift family's table is (0, 1, ..., k-1) + u mod n,
        read-only in n's narrowest dtype; the low rows of each column
        shifted by t are its entries below n-k, past k = 63 in more bits
        than int64 holds."""
        table = scheme.family_table(n, k, SHIFTS)
        assert not table.flags.writeable
        assert table.dtype == np.min_scalar_type(n - 1)
        assert table.tolist() == [[(u + s) % n for s in range(k)] for u in range(n)]
        assert sim._shifted_low_masks(table, n).tolist() == shifted_low_masks_loop(table, n)

    def test_masters_are_rows_of_the_table(self):
        """A shift master is (T, k, M) C-contiguous in n's narrowest
        dtype, its columns the shift table's rows at sample_master_rows,
        drawn from the same stream; gen_master_query draws the same by
        default.  test_scheme checks the Omega family the same way."""
        for shape in [(5, 3, 3, 7), (8, 5, 256, 65537), (259, 2, 2, 263)]:
            params = derive_params(*shape)
            n, k, m = params.n_reduced, params.k_reduced, params.m_files
            masters = scheme.sample_master_queries(params, make_rng(3), 50, SHIFTS)
            assert masters.shape == (50, k, m) and masters.flags.c_contiguous
            assert masters.dtype == np.min_scalar_type(n - 1)
            scheme.validate_query(masters, params)
            table = scheme.family_table(n, k, SHIFTS)
            # floor(u * n), the stream shift masters have always drawn
            rows = (make_rng(3).random((50, m)) * len(table)).astype(np.int64)
            drawn = scheme.sample_master_rows(params, make_rng(3), 50, len(table))
            assert np.array_equal(drawn, rows) and rows.max() < len(table)
            assert np.array_equal(masters, table[rows].transpose(0, 2, 1))
            assert scheme.gen_master_query(params, make_rng(3)) == masters[0].tolist()

    def test_shifts_are_uniform(self):
        params = derive_params(5, 3, 3, 7)
        shifts = scheme.sample_master_queries(params, make_rng(0), 20_000, SHIFTS)[:, 0]
        counts = Counter(shifts.ravel().tolist())
        assert set(counts) == set(range(5))
        assert max(counts.values()) / min(counts.values()) < 1.1

    def test_unknown_family(self):
        params = derive_params(5, 3, 3, 7)
        with pytest.raises(scheme.ParameterError, match="unknown query family"):
            scheme.sample_master_queries(params, make_rng(0), 1, "ranks")
        with pytest.raises(scheme.ParameterError, match="unknown query family"):
            scheme.query_space_size(params, "ranks")

    def test_query_space_in_product_order(self):
        params = derive_params(5, 3, 2, 257)
        assert scheme.query_space_size(params, SHIFTS) == 25
        expected = [
            [[(u + s) % 5 for u in shifts] for s in range(3)]
            for shifts in itertools.product(range(5), repeat=2)
        ]
        assert every_shift_master(params).tolist() == expected


@pytest.mark.parametrize("n_servers, k_mds, m_files", GRID)
class TestWholeSpace:
    """Every shift master and every desired file of each grid system."""

    def test_decodes_with_the_exact_mean_download(self, n_servers, k_mds, m_files):
        params = derive_params(n_servers, k_mds, m_files, 257)
        code = make_code(n_servers, k_mds, 257)
        sources = scheme.random_sources(params, make_rng(n_servers))
        _, storages = scheme.encode_system(params, sources, code)
        masters = every_shift_master(params)
        for theta in range(m_files):
            thetas = np.full(len(masters), theta)
            files, live = scheme.retrieve_batch(masters, thetas, storages, params, code)
            assert np.array_equal(files, sources[thetas])
            mean = Fraction(int(live.sum()), len(masters))
            assert mean == analysis.expected_download(params)

    def test_each_server_sees_the_same_queries_for_every_file(self, n_servers, k_mds, m_files):
        params = derive_params(n_servers, k_mds, m_files, 257)
        report = analysis.verify_privacy(params, "exhaustive", family=SHIFTS)
        assert report.passed
        assert len(report.details) == m_files * n_servers
        masters = every_shift_master(params)
        views = set()
        for theta in range(m_files):
            thetas = np.full(len(masters), theta)
            served = scheme.server_queries(masters, thetas, params).astype(np.uint8)
            for t in range(n_servers):
                views.add(frozenset(Counter(map(bytes, served[:, t])).items()))
        assert len(views) == 1

    def test_enumerated_expectation_is_the_closed_form(self, n_servers, k_mds, m_files):
        params = derive_params(n_servers, k_mds, m_files, 257)
        for theta in range(m_files):
            value = sim.exact_expectation_by_enumeration(params, theta=theta, family=SHIFTS)
            assert value == analysis.expected_download(params)

    def test_rank_identity(self, n_servers, k_mds, m_files):
        params = derive_params(n_servers, k_mds, m_files, 257)
        masters = every_shift_master(params).tolist()
        for master, theta in itertools.product(masters, range(m_files)):
            assert analysis.verify_rank_identity(master, theta, params).passed


class TestFamiliesAgree:
    def test_run_trials_reports_capacity_for_both_families(self):
        params = derive_params(5, 3, 3, 257)
        capacity = analysis.capacity(5, 3, 3)
        stats = {
            family: sim.run_trials(params, 20_000, seed=3, theta_policy="uniform", family=family)
            for family in (OMEGA, SHIFTS)
        }
        for result in stats.values():
            assert result.exact_rate == capacity
            assert abs(result.empirical_rate / capacity - 1) < Fraction(1, 50)

    def test_run_trials_keeps_omega_by_default(self):
        params = derive_params(5, 3, 3, 257)
        assert sim.run_trials(params, 300, seed=4) == sim.run_trials(params, 300, seed=4, family=OMEGA)

    def test_statistical_privacy(self):
        params = derive_params(5, 3, 3, 257)
        report = analysis.verify_privacy(
            params, "statistical", rng=make_rng(1), samples=5_000, family=SHIFTS
        )
        assert report.passed

    def test_retrieve_draws_the_family_asked_for(self):
        """retrieve draws shifts unless told; with OMEGA it draws what
        sample_master_queries draws by default."""
        params = derive_params(5, 3, 3, 257)
        sources = scheme.random_sources(params, make_rng(8))
        code = make_code(5, 3, 257)
        _, storages = scheme.encode_system(params, sources, code)
        for family in (SHIFTS, OMEGA):
            masters = scheme.sample_master_queries(params, make_rng(9), 1, family)
            expected = scheme.retrieve_batch(masters, [1], storages, params, code)
            kwargs = {} if family == SHIFTS else {"family": OMEGA}
            source, downloaded = scheme.retrieve(1, storages, params, make_rng(9), code, **kwargs)
            assert source == expected[0][0].tolist() == sources[1].tolist()
            assert downloaded == int(expected[1].sum())
