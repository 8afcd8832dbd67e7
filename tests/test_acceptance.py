"""
Acceptance suite: eight end-to-end gates on the retrieval system.

Each test prints a single "ACCEPT <name>: pass|FAIL" line so the
suite's verdict can be read off a plain pytest run.
"""

import math
import time
from fractions import Fraction

from codedpir import analysis, net, scheme, sim
from codedpir.rs import make_code

from conftest import EXAMPLE_QUERY, start_serving, stop_servers
from oracle import answer_array


def report(name: str, ok: bool) -> None:
    print(f"ACCEPT {name}: {'pass' if ok else 'FAIL'}")
    assert ok


class TestAcceptance:
    def test_1_worked_example(self):
        start = time.perf_counter()
        params = scheme.derive_params(5, 3, 3, 7)
        ok = params.file_len == 6
        ok &= analysis.capacity(5, 3, 3) == Fraction(25, 49)
        ok &= analysis.expected_download(params) == Fraction(294, 25)

        rng = scheme.make_rng(1234)
        sources = scheme.random_sources(params, rng).tolist()
        code = make_code(params.n_servers, params.k_mds, params.prime)
        _, storages = scheme.encode_system(params, sources, code)
        theta = 0
        answers = [
            scheme.server_answer(
                storages[t],
                scheme.build_server_query(EXAMPLE_QUERY, theta, t, params),
                params,
            )
            for t in range(5)
        ]
        ok &= sum(a is not None for answer in answers for a in answer) == 12
        decoded = scheme.decode(answer_array(answers), EXAMPLE_QUERY, theta, params, code)
        ok &= decoded == sources[0]
        elapsed = time.perf_counter() - start
        ok &= elapsed < 1.0
        report("worked-example", ok)

    def test_2_exhaustive_expectation(self):
        start = time.perf_counter()
        ok = True
        for n_servers in range(2, 6):
            for k_mds in range(1, n_servers):
                params = scheme.derive_params(n_servers, k_mds, 2, 257)
                if scheme.query_space_size(params) > 10**6:
                    continue
                enumerated = sim.exact_expectation_by_enumeration(params)
                n, k = params.n_reduced, params.k_reduced
                formula = n_servers * k * (1 - Fraction(k, n) ** 2)
                ok &= enumerated == formula
                ok &= enumerated == analysis.expected_download(params)
        elapsed = time.perf_counter() - start
        ok &= elapsed < 30.0
        report("exhaustive-expectation", ok)

    def test_3_monte_carlo_rate(self):
        start = time.perf_counter()
        params = scheme.derive_params(5, 3, 3, 257)
        stats = sim.run_trials(params, 100_000, seed=0)
        target_dl = Fraction(294, 25)
        target_rate = Fraction(25, 49)
        ok = abs(stats.mean_download / target_dl - 1) < 0.01
        ok &= abs(stats.empirical_rate / target_rate - 1) < 0.01
        elapsed = time.perf_counter() - start
        ok &= elapsed < 10.0
        report("monte-carlo-rate", ok)

    GRID = [(2, 1), (3, 2), (4, 2), (5, 2), (5, 3), (5, 4), (6, 4)]

    def test_4_correctness_sweep(self):
        start = time.perf_counter()
        ok = True
        for n_servers, k_mds in self.GRID:
            for m_files in (2, 3, 4):
                params = scheme.derive_params(n_servers, k_mds, m_files, 257)
                rng = scheme.make_rng(1000 * n_servers + 10 * k_mds + m_files)
                sources = scheme.random_sources(params, rng).tolist()
                code = make_code(params.n_servers, params.k_mds, params.prime)
                _, storages = scheme.encode_system(params, sources, code)
                for trial in range(100):
                    theta = trial % m_files
                    decoded, _ = scheme.retrieve(
                        theta, storages, params, rng, code, family=scheme.OMEGA
                    )
                    ok &= decoded == sources[theta]
        elapsed = time.perf_counter() - start
        ok &= elapsed < 60.0
        report("correctness-sweep", ok)

    def test_5_privacy(self):
        ok = True
        for n_servers, k_mds in ((2, 1), (3, 2), (5, 3)):
            params = scheme.derive_params(n_servers, k_mds, 2, 257)
            ok &= analysis.verify_privacy(params, "exhaustive").passed
        params = scheme.derive_params(5, 3, 3, 257)
        report_stat = analysis.verify_privacy(
            params,
            "statistical",
            rng=scheme.make_rng(0),
            samples=100_000,
            significance=0.01,
        )
        ok &= report_stat.passed
        report("privacy", ok)

    def test_6_rank_identity(self):
        ok = True
        for n_servers, k_mds, m_files in ((5, 3, 3), (4, 2, 3)):
            params = scheme.derive_params(n_servers, k_mds, m_files, 257)
            rng = scheme.make_rng(7)
            for _ in range(1000):
                master = scheme.gen_master_query(params, rng, scheme.OMEGA)
                theta = int(rng.integers(m_files))
                ok &= analysis.verify_rank_identity(master, theta, params).passed
        report("rank-identity", ok)

    def test_7_bound_check(self):
        ok = True
        for n_servers, k_mds in self.GRID:
            d = math.gcd(n_servers, k_mds)
            threshold = (
                math.floor(Fraction(k_mds, d) - Fraction(k_mds, n_servers - k_mds)) + 1
            )
            for m_files in (2, 3, 4):
                params = scheme.derive_params(n_servers, k_mds, m_files, 257)
                info = analysis.min_file_length_bound(n_servers, k_mds, m_files)
                if m_files > threshold:
                    ok &= params.file_len == k_mds * (n_servers - k_mds) // d
                    ok &= params.file_len == info.bound and info.tight
                else:
                    ok &= Fraction(params.file_len, info.bound) == Fraction(k_mds, d)
        report("bound-check", ok)

    def test_8_network_equivalence(self):
        start = time.perf_counter()
        params = scheme.derive_params(5, 3, 3, 257)
        rng = scheme.make_rng(42)
        sources = scheme.random_sources(params, rng).tolist()
        code = make_code(params.n_servers, params.k_mds, params.prime)
        _, storages = scheme.encode_system(params, sources, code)
        servers = []
        try:
            for storage in storages:
                server = net.StorageServer(storage, params)
                start_serving(server)
                servers.append(server)
            addresses = [s.server_address for s in servers]
            ok = True
            for seed in range(3):
                for theta in range(3):
                    # both draw the seed's shift master
                    local_rng = scheme.make_rng(seed)
                    local, local_dl = scheme.retrieve(
                        theta, storages, params, local_rng, code
                    )
                    remote = net.client_retrieve(addresses, theta, params, seed)
                    ok &= remote.source == local
                    ok &= remote.download_elements == local_dl
        finally:
            stop_servers(servers)
        elapsed = time.perf_counter() - start
        ok &= elapsed < 5.0
        report("network-equivalence", ok)
