"""The summary of `bench/ab.py` on synthetic pairs."""

import pytest

from ab import format_rows, summarize


@pytest.fixture(autouse=True)
def control_beside():
    """No control run beside these tests: they time nothing."""
    yield


METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "score", "better": "higher"}]


def test_summary_of_synthetic_pairs():
    parent = [1.0, 1.2, 1.1, 1.4]
    change = [0.9, 1.0, 1.2, 1.05]
    pairs = [({"wall_s": p, "score": p}, {"wall_s": c, "score": c})
             for p, c in zip(parent, change)]
    wall, score = summarize(pairs, METRICS)
    assert wall["metric"] == "wall_s" and wall["pairs"] == 4
    assert wall["parent_median"] == pytest.approx(1.15)
    assert wall["parent_quartiles"] == pytest.approx((1.075, 1.25))
    assert wall["change_median"] == pytest.approx(1.025)
    assert wall["median_ratio"] == pytest.approx(1.025 / 1.15)
    assert wall["ratios"] == pytest.approx([0.9, 1.0 / 1.2, 1.2 / 1.1, 0.75])
    # lower is better for wall_s, higher for score: the same pairs split 3/1 and 1/3
    assert wall["wins"] == 3 and score["wins"] == 1
    table = format_rows("sweep_2d", [wall])
    assert table.startswith("| sweep_2d | wall_s | 1.15 [1.075, 1.25] | 1.025 | 3/4 | 0.891 |")


def test_one_pair_has_degenerate_quartiles():
    (row,) = summarize([({"wall_s": 2.0}, {"wall_s": 1.0})], METRICS[:1])
    assert row["parent_quartiles"] == (2.0, 2.0) and row["wins"] == 1
