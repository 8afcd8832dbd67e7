import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.stats import chisquare

from codedpir import analysis, derive_params
from codedpir import scheme, sim
from codedpir.sim import FailedTrialError, exact_expectation_by_enumeration, run_trials, sweep

from oracle import run_trials_loop

PRIMES = [7, 257, 65537, 2**31 - 1, 4294967291]


class TestRunTrials:
    def test_deterministic(self):
        params = derive_params(5, 3, 3, 257)
        a = run_trials(params, 200, seed=42)
        b = run_trials(params, 200, seed=42)
        assert a == b

    def test_seed_changes_outcome(self):
        params = derive_params(5, 3, 3, 257)
        assert run_trials(params, 200, seed=1) != run_trials(params, 200, seed=2)

    def test_single_trial(self):
        params = derive_params(4, 2, 2, 257)
        stats = run_trials(params, 1, seed=0)
        assert stats.trials == 1
        assert stats.total_download == sum(stats.per_server_load)

    def test_uniform_theta_policy(self):
        params = derive_params(3, 2, 3, 257)
        stats = run_trials(params, 300, seed=5, theta_policy="uniform")
        assert stats.trials == 300

    def test_bad_args(self):
        params = derive_params(3, 2, 2, 257)
        with pytest.raises(ValueError):
            run_trials(params, 0, seed=0)
        with pytest.raises(ValueError):
            run_trials(params, 1, seed=0, theta_policy="nope")

    @pytest.mark.parametrize("theta", [1.5, True])
    def test_non_integer_theta_is_refused(self, theta):
        """Before any trial runs, not as an IndexError after the batch."""
        with pytest.raises(scheme.ParameterError, match="^theta must be an integer"):
            run_trials(derive_params(5, 3, 3, 257), 10, seed=0, theta=theta)

    def test_per_server_load_symmetry(self):
        # expected load is identical across servers; chi-square on totals
        params = derive_params(5, 3, 3, 257)
        stats = run_trials(params, 5000, seed=7)
        assert chisquare(stats.per_server_load).pvalue >= 0.01

    @settings(max_examples=40, deadline=None)
    @given(
        n_servers=st.integers(2, 8),
        data=st.data(),
        m_files=st.integers(2, 4),
        prime=st.sampled_from(PRIMES),
        n_trials=st.integers(1, 40),
        seed=st.integers(0, 2**32),
        uniform=st.booleans(),
    )
    def test_equals_loop_oracle(self, n_servers, data, m_files, prime, n_trials, seed, uniform):
        assume(prime >= n_servers)
        k_mds = data.draw(st.integers(1, n_servers - 1))
        params = derive_params(n_servers, k_mds, m_files, prime)
        policy = "uniform" if uniform else "fixed"
        theta = data.draw(st.integers(0, m_files - 1))
        expected = run_trials_loop(params, n_trials, seed, policy, theta)
        assert run_trials(params, n_trials, seed, policy, theta) == expected

    def test_first_bad_trial_is_reported(self, monkeypatch):
        params = derive_params(5, 3, 3, 257)
        decode_batch = scheme.decode_batch

        def corrupt(answers, columns, params, code):
            files = decode_batch(answers, columns, params, code)
            files[[7, 9], 0, 0] += 1
            return files

        monkeypatch.setattr(scheme, "decode_batch", corrupt)
        with pytest.raises(FailedTrialError) as exc:
            run_trials(params, 20, seed=3, theta=2)
        assert (exc.value.trial, exc.value.theta) == (7, 2)

    def test_mean_approaches_formula(self):
        params = derive_params(5, 3, 3, 257)
        stats = run_trials(params, 20_000, seed=11)
        exact = analysis.expected_download(params)
        assert abs(stats.mean_download / exact - 1) < Fraction(1, 50)


class TestEnumeration:
    def test_tiny(self):
        params = derive_params(2, 1, 2, 257)
        assert exact_expectation_by_enumeration(params) == Fraction(3, 2)

    def test_three_two_two(self):
        params = derive_params(3, 2, 2, 257)
        assert exact_expectation_by_enumeration(params) == analysis.expected_download(params)

    def test_five_three_two(self):
        params = derive_params(5, 3, 2, 257)
        value = exact_expectation_by_enumeration(params)
        assert value == Fraction(48, 5)
        assert value == analysis.expected_download(params)

    def test_theta_invariance(self):
        params = derive_params(3, 2, 2, 257)
        assert exact_expectation_by_enumeration(params, theta=0) == \
            exact_expectation_by_enumeration(params, theta=1)

    def test_budget(self):
        params = derive_params(5, 3, 3, 7)
        with pytest.raises(analysis.BudgetExceededError):
            exact_expectation_by_enumeration(params, budget=10)


class TestSweep:
    def test_single_point(self):
        rows = sweep([(5, 3, 3)], trials=0, seed=0)
        (row,) = rows
        assert row["L"] == 6
        assert row["capacity"] == Fraction(25, 49)
        assert row["exact_download"] == Fraction(294, 25)
        assert row["bound"] == 6 and row["tight"]
        assert row["L_prev_best"] == 3 * 25
        assert row["L_original"] == 3 * 125

    def test_empty_grid(self):
        assert sweep([], trials=0, seed=0) == []

    def test_invalid_point_recorded(self):
        rows = sweep([(3, 3, 2), (5, 3, 3)], trials=0, seed=0)
        assert "error" in rows[0]
        assert rows[1]["L"] == 6

    def test_with_trials(self):
        rows = sweep([(4, 2, 2)], trials=100, seed=3)
        assert rows[0]["mean_download"] is not None
        assert rows[0]["empirical_rate"] is not None

    def test_csv_and_json(self):
        rows = sweep([(5, 3, 3), (3, 3, 2)], trials=0, seed=0)
        csv_text = sim.rows_to_csv(rows)
        lines = csv_text.strip().splitlines()
        assert lines[0] == ",".join(sim.CSV_COLUMNS)
        assert len(lines) == 2  # error row skipped in CSV
        assert "25/49" in lines[1]
        json_text = sim.rows_to_json(rows)
        assert "error" in json_text
        assert json.loads(json_text)[0]["capacity"] == "25/49"

    def test_json_refuses_values_it_has_no_rule_for(self):
        """Exact rationals become their str; anything else JSON has no
        form for is a TypeError, not a silent str."""
        assert sim.exact_json(Fraction(6, 4)) == "3/2"
        for value in (object(), 1.5j, {1, 2}):
            with pytest.raises(TypeError):
                sim.exact_json(value)
        with pytest.raises(TypeError):
            sim.rows_to_json([{"N": 5, "extra": object()}])
