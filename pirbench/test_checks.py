"""The benchmark's correctness checks accept sound output and reject faults."""

from fractions import Fraction

import numpy as np
import pytest

import checks

N, K, M = 5, 3, 3
n, k = checks.reduced(N, K)


def test_closed_forms_of_the_worked_example():
    assert checks.expected_download(N, K, M) == Fraction(294, 25)
    assert checks.expected_server_load(N, K, M) == Fraction(294, 125)
    assert checks.query_space_size(N, K, M) == 216_000


def test_corrupted_file_is_rejected():
    source = [[1, 2, 3], [4, 5, 6]]
    assert checks.files_equal([row[:] for row in source], source)
    corrupted = [row[:] for row in source]
    corrupted[1][2] = 7
    assert not checks.files_equal(corrupted, source)
    assert not checks.files_equal(source[:1], source)


def _downloads(rng, count, shift=0.0):
    """Per-retrieval element counts with the scheme's mean (plus shift)."""
    live = float(checks.live_round_probability(N, K, M))
    return rng.binomial(N * k, live, size=count) + shift


def test_download_mean_on_the_closed_form_is_accepted():
    rng = np.random.default_rng(1)
    ok, _ = checks.mean_within(_downloads(rng, 5000), checks.expected_download(N, K, M))
    assert ok


@pytest.mark.parametrize("shift", [-0.3, 0.3])
def test_download_mean_off_the_closed_form_is_rejected(shift):
    rng = np.random.default_rng(2)
    ok, _ = checks.mean_within(_downloads(rng, 5000, shift), checks.expected_download(N, K, M))
    assert not ok


def test_constant_download_is_judged_by_its_exact_mean():
    assert checks.mean_within([40] * 1000, Fraction(40))[0]
    assert not checks.mean_within([41] * 1000, Fraction(40))[0]


def test_server_loads_off_the_closed_form_are_rejected():
    expected = checks.expected_server_load(N, K, M)
    trials = 10_000
    exact = [round(float(expected) * trials)] * N
    assert checks.server_loads_within(exact, trials, k, expected)
    skewed = exact[:-1] + [round(1.2 * float(expected) * trials)]
    assert not checks.server_loads_within(skewed, trials, k, expected)


def _views(rng, retrievals, leak):
    """First two entries of each of M query columns, and θ per retrieval.

    Every column is a uniform partial permutation.  With `leak`, the
    desired column is redrawn until its first entry is outside the dummy
    range, as a client that avoids NULL rounds for its file would do.
    """
    thetas = rng.integers(0, M, size=retrievals)
    rows = np.empty((retrievals, 2, M), dtype=np.uint8)
    for r in range(retrievals):
        for i in range(M):
            column = rng.permutation(n)[:k]
            while leak and i == thetas[r] and column[0] >= n - k:
                column = rng.permutation(n)[:k]
            rows[r, :, i] = column[:2]
    return checks.column_categories(rows[:, 0], rows[:, 1], n), thetas


def test_theta_independent_view_passes():
    categories, thetas = _views(np.random.default_rng(3), 2000, leak=False)
    assert checks.theta_independence_pvalue(categories, thetas, n) >= checks.PRIVACY_ALPHA


def test_theta_dependent_view_is_rejected():
    categories, thetas = _views(np.random.default_rng(4), 2000, leak=True)
    assert checks.theta_independence_pvalue(categories, thetas, n) < checks.PRIVACY_ALPHA
