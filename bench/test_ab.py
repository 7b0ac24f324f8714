"""The summary of `bench/ab.py` on synthetic pairs."""

import json
import subprocess

import pytest

import ab
from ab import RAW_METRICS, format_rows, raw_medians, run_once, side_totals, summarize


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
    assert table.startswith("| sweep_2d | wall_s | 1.15 [1.075, 1.25] | 1.025 | 3/4 | 0.891 | - |")


def test_one_pair_has_degenerate_quartiles():
    (row,) = summarize([({"wall_s": 2.0}, {"wall_s": 1.0})], METRICS[:1])
    assert row["parent_quartiles"] == (2.0, 2.0) and row["wins"] == 1


# the lines `perfbench/run.py` prints for one untraced workload
STDOUT = """== sweep_1d: 31 units, seed 0, threads 1, closed loop, one caller
  wall_s       0.184466 s
  setup_s      0.412075 s
  peak_rss_mb  40.4805 MiB
  uncorrected  median 0.17951 s, p68 0.181034 s over 31 units
  control      median 0.00445137 s; uncorrected setup median 0.395216 s
  error_rate   0 (0 failed / 31 attempted)
  context {"threads": 1}
""" + json.dumps({"correct": True, "attempted": 31, "failed": 0, "metrics": {
    "wall_s": {"value": 0.184466, "unit": "s"},
    "setup_s": {"value": 0.412075, "unit": "s"},
    "peak_rss_mb": {"value": 40.4805, "unit": "MiB"}}}) + "\n"


def test_run_once_reads_the_raw_medians_beside_the_corrected(monkeypatch, tmp_path):
    def fake_run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, stdout=STDOUT)

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    assert run_once(tmp_path, "sweep_1d", 0) == {
        "exit_code": 0, "attempted": 31, "failed": 0,
        "wall_s": 0.184466, "setup_s": 0.412075, "peak_rss_mb": 40.4805,
        "uncorrected_wall_s": 0.17951, "uncorrected_setup_s": 0.395216,
        "control_s": 0.00445137}


def test_raw_rows_follow_the_corrected_and_skip_a_missing_median():
    # "corrected up, unit flat": the control slowed, the unit did not
    parent = {"wall_s": 1.0, **raw_medians(STDOUT)}
    change = {"wall_s": 1.1, **raw_medians(STDOUT.replace("0.00445137", "0.0040467"))}
    del change["uncorrected_setup_s"]
    rows = summarize([(parent, change)], METRICS[:1] + RAW_METRICS)
    assert [r["metric"] for r in rows] == ["wall_s", "uncorrected_wall_s", "control_s"]
    assert [r["median_ratio"] for r in rows] == pytest.approx([1.1, 1.0, 0.0040467 / 0.00445137])
    assert raw_medians("no medians here") == {}


BOUNDED = [{"name": "wall_s", "better": "lower", "bound": 0.25},
           {"name": "score", "better": "higher", "bound": 0.1}]


def test_a_median_worse_than_its_bound_is_flagged():
    # wall_s 1.0 -> 1.3 is 30% worse against a 0.25 bound; score 1.0 -> 1.3
    # is better, so its bound is not in question
    pairs = [({"wall_s": 1.0, "score": 1.0}, {"wall_s": 1.3, "score": 1.3})]
    wall, score = summarize(pairs, BOUNDED)
    assert wall["bound"] == 0.25 and wall["over"]
    assert score["bound"] == 0.1 and not score["over"]
    assert "| 1.300 | 0.25 OVER |" in format_rows("sweep_1d", [wall])
    assert "| 1.300 | 0.1 |" in format_rows("sweep_1d", [score])
    # 20% worse stays inside the 0.25 bound; 0.85 is 15% worse for a higher-is-better metric
    wall, score = summarize([({"wall_s": 1.0, "score": 1.0},
                              {"wall_s": 1.2, "score": 0.85})], BOUNDED)
    assert not wall["over"] and score["over"]


def test_side_totals_sum_the_counts_of_the_last_lines():
    runs = [{"exit_code": 0, "attempted": 31, "failed": 0},
            {"exit_code": 1, "attempted": 30, "failed": 2},
            {"exit_code": 3}]  # stopped before its JSON line
    assert side_totals(runs) == "61 attempted, 2 failed, non-zero exits [1, 3]"
    assert side_totals(runs[:1]) == "31 attempted, 0 failed, non-zero exits none"


@pytest.mark.parametrize("code, stdout", [
    (1, STDOUT.replace('"correct": true', '"correct": false')
              .replace('"failed": 0', '"failed": 2')),
    (3, "== sweep_1d: 31 units\n"),
])
def test_a_failed_run_is_recorded_and_left_out_of_the_medians(monkeypatch, tmp_path, code,
                                                              stdout):
    monkeypatch.setattr(ab.subprocess, "run",
                        lambda cmd, **kwargs: subprocess.CompletedProcess(cmd, code, stdout=stdout))
    failed = run_once(tmp_path, "sweep_1d", 0)
    assert failed == ({"exit_code": 1, "attempted": 31, "failed": 2} if code == 1
                      else {"exit_code": 3})
    good = {"exit_code": 0, "wall_s": 1.0}
    pairs = [(good, {**good, "wall_s": 0.5}), (good, failed), (failed, good)]
    (row,) = summarize(pairs, METRICS[:1])
    assert row["pairs"] == 1 and row["change_median"] == 0.5
    assert summarize(pairs[1:], METRICS[:1]) == []
