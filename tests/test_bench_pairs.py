import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


class TestSummarize:
    def test_medians_quartiles_and_runs(self):
        parent, change = [1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 3.0, 4.0, 5.0, 6.0]
        summary = bench_pairs.summarize(parent, change, "higher")
        assert summary["parent_median"] == 3.0 and summary["change_median"] == 4.0
        assert summary["parent_iqr"] == 2.0 and summary["change_iqr"] == 2.0
        assert summary["parent_runs"] == parent and summary["change_runs"] == change
        assert summary["change_better"] == 5

    @pytest.mark.parametrize("better, wins", [("higher", 1), ("lower", 2)])
    def test_direction_and_ties(self, better, wins):
        parent = [10.0, 10.0, 10.0, 10.0, 0.0]
        # higher, lower, lower, a tie under 1e-9, a tie at 0
        change = [11.0, 9.0, 9.5, 10.0 * (1 + 1e-12), 0.0]
        assert bench_pairs.summarize(parent, change, better)["change_better"] == wins


@pytest.mark.parametrize("text, seeds", [
    ("101-104", [101, 102, 103, 104]),
    ("7", [7]),
    ("1,5,9", [1, 5, 9]),
])
def test_parse_seeds(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds
