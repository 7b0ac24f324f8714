"""Tests of the benchmark's tracer, layer metrics and reference check.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft

import layers
import run
import spans
import workloads


class FakeClock:
    """Each reading advances time by one tick, so durations are exact."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 1
        return self.now


def _tree(tracer):
    def leaf():
        return None

    leaf_t = tracer.wrap("leaf", leaf)

    def mid():
        leaf_t()
        leaf_t()

    mid_t = tracer.wrap("mid", mid)

    def top():
        mid_t()
        leaf_t()

    return tracer.wrap("top", top)


def test_self_time_is_duration_minus_children():
    tracer = spans.Tracer(clock=FakeClock())
    _tree(tracer)()
    table, root_s = spans.summarize(tracer.spans)
    # Ticks: top opens 1; mid 2; leaf 3-4, leaf 5-6; mid closes 7;
    # leaf 8-9; top closes 10.
    assert table["leaf"] == {"calls": 3, "s": 3, "self_s": 3, "fft_calls": 0}
    assert table["mid"]["s"] == 5 and table["mid"]["self_s"] == 3
    assert table["top"]["s"] == 9 and table["top"]["self_s"] == 9 - 5 - 1
    assert root_s == 9
    assert sum(r["self_s"] for r in table.values()) == root_s
    assert spans.check_nesting(tracer.spans)


def test_span_parents_follow_the_call_stack():
    tracer = spans.Tracer(clock=FakeClock())
    _tree(tracer)()
    names = [s[0] for s in tracer.spans]
    parents = [names[s[1]] if s[1] >= 0 else None for s in tracer.spans]
    assert list(zip(names, parents)) == [
        ("top", None), ("mid", "top"), ("leaf", "mid"), ("leaf", "mid"), ("leaf", "top"),
    ]
    assert tracer.stack == []


def test_recursive_span_counts_inclusive_time_once():
    tracer = spans.Tracer(clock=FakeClock())

    def fact(n):
        return 1 if n <= 1 else n * fact_t(n - 1)

    fact_t = tracer.wrap("fact", fact)
    assert fact_t(3) == 6
    table, root_s = spans.summarize(tracer.spans)
    assert table["fact"]["calls"] == 3
    assert table["fact"]["s"] == root_s == 5
    assert table["fact"]["self_s"] == root_s


def test_span_closes_when_the_callee_raises():
    tracer = spans.Tracer(clock=FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.stack == [] and spans.check_nesting(tracer.spans)


def test_nesting_check_rejects_a_child_outside_its_parent():
    assert not spans.check_nesting([["a", -1, 0, 5], ["b", 0, 4, 6]])
    assert not spans.check_nesting([["a", -1, 0, None]])


def test_hook_time_is_charged_to_its_own_span():
    tracer = spans.Tracer(clock=FakeClock())
    inner = tracer.wrap("inner", lambda: None, hook=lambda a, k, r: None)
    tracer.wrap("outer", lambda: inner())()
    table, root_s = spans.summarize(tracer.spans)
    assert table["inner"]["s"] == 1
    assert table[spans.HOOK_SPAN]["s"] == 1
    assert table["outer"]["self_s"] == table["outer"]["s"] - 2
    assert sum(r["self_s"] for r in table.values()) == root_s


def test_fft_entry_points_counted_once_with_computed_flops():
    tracer = spans.Tracer()
    original = np.fft.fftn
    undo = spans.install_fft(tracer)
    try:
        assert np.fft.fftn is not original
        x = np.ones((8, 16), dtype=complex)
        np.fft.ifftn(np.fft.fftn(x))
        np.fft.fft(x)  # 8 transforms of 16 points along the last axis
        scipy.fft.rfftn(np.ones((4, 4)))
    finally:
        spans.uninstall(undo)
    assert np.fft.fftn is original
    table, _ = spans.summarize(tracer.spans)
    assert table["fft"]["calls"] == 4
    n = 8 * 16
    expected = 2 * 5 * n * math.log2(n) + 8 * 5 * 16 * 4 + 0.5 * 5 * 16 * 4
    assert tracer.counters["fft.flops_computed"] == pytest.approx(expected)
    assert tracer.counters["fft.bytes_computed"] == 6 * x.nbytes + 16 * 8 + 12 * 16


def test_nested_fft_not_counted_twice():
    tracer = spans.Tracer(clock=FakeClock())
    inner = tracer.wrap("fft.numpy.fft", lambda: None)
    tracer.wrap("fft.numpy.fftn", lambda: inner())()
    table, _ = spans.summarize(tracer.spans)
    assert table["fft"]["calls"] == 1


def test_scheduled_steps_cover_each_gap():
    params = SimpleNamespace(dt=0.01, dt_factor=0.1, eps=0.2)
    assert spans.scheduled_steps(params, [0.25, 0.5]) == 50
    assert spans.scheduled_steps(params, [0.0, 0.005]) == 1


def _tiny_config(hl):
    mode = {"type": "gaussian", "amplitude": 1.0, "center": [0.0], "width": 1.0}
    return hl.parse_config({
        "dimension": 1, "gamma": 0.5, "lambda": 1.0, "box_length": 32.0,
        "points": 512,
        "modes": [{"kappa": [-2.0], "profile": mode}, {"kappa": [2.0], "profile": mode}],
        "epsilons": [0.2, 0.15], "final_time": 0.1, "sample_times": [0.05, 0.1],
        "output": "unused",
    })


def test_traced_sweep_on_a_tiny_grid():
    import hartreelab as hl
    import hartreelab.harness as harness
    import hartreelab.wkb as wkb

    cfg = _tiny_config(hl)
    original = wkb.snapshot
    tracer = spans.Tracer()
    undo = spans.install_fft(tracer) + spans.install_hartreelab(tracer)
    try:
        assert harness.snapshot is wkb.snapshot is hl.snapshot is not original
        hl.run_sweep(cfg)
    finally:
        spans.uninstall(undo)
    assert wkb.snapshot is original and harness.snapshot is original

    assert spans.check_nesting(tracer.spans)
    names = [s[0] for s in tracer.spans]
    parent_of = {
        names[i]: names[s[1]] for i, s in enumerate(tracer.spans) if s[1] >= 0
    }
    assert parent_of["wkb.action_phase"] == "wkb.snapshot"
    assert parent_of["solver.evolve"] == "harness.run_sweep"
    table, root_s = spans.summarize(tracer.spans)
    assert table["harness.run_sweep"]["calls"] == 1
    assert root_s == pytest.approx(table["harness.run_sweep"]["s"])
    assert sum(r["self_s"] for r in table.values()) == pytest.approx(root_s, rel=1e-9)
    # one snapshot at t = 0 and one per sample time, per eps, plus the
    # sweep checks' one per sample time
    assert table["wkb.snapshot"]["calls"] == 2 * 3 + 2
    assert tracer.distinct["wkb.snapshot"] == {
        (id(cfg.family), t, cfg.kernel) for t in (0.0, 0.05, 0.1)
    }
    assert table["solver.evolve"]["fft_calls"] > 0
    assert table["fft"]["calls"] >= table["solver.evolve"]["fft_calls"]

    metrics = layers.derive(table, tracer.counters, {"wkb.snapshot": 3}, 1, 0.0, 0.0)
    assert set(metrics) == {name for name, _, _ in layers.PER_LAYER}
    assert metrics["wkb.snapshot.useful_ratio"] == pytest.approx(3 / 8)
    assert metrics["harness.persist.bytes"] == 0


def _sweep_output(ref, **changes):
    records = [SimpleNamespace(eps=e, t=t, err_l2w=v) for e, t, v in ref["records"]]
    out = SimpleNamespace(
        records=records, failures={}, beta_fitted=ref["beta_fitted"],
        checks={n: SimpleNamespace(passed=True) for n in ref["checks_passed"]},
    )
    for key, value in changes.items():
        setattr(out, key, value)
    return out


def test_reference_check_counts_mismatches_as_failed_operations():
    ref = workloads.load_reference()["sweep_1d"]
    cfg = SimpleNamespace(epsilons=(0.2, 0.1, 0.05, 0.025))
    assert workloads.check_unit("sweep_1d", cfg, _sweep_output(ref), ref) == (4, 0, [])

    bad = _sweep_output(ref)
    bad.records[0].err_l2w *= 1 + 1e-6
    attempted, failed, problems = workloads.check_unit("sweep_1d", cfg, bad, ref)
    assert (attempted, failed, len(problems)) == (4, 1, 1)

    off = _sweep_output(ref, beta_fitted=ref["beta_fitted"] + 2e-9)
    assert workloads.check_unit("sweep_1d", cfg, off, ref)[1] == 4
    assert workloads.check_unit("sweep_1d", cfg, RuntimeError("x"), ref)[:2] == (4, 4)

    vref = workloads.load_reference()["validate_1d"]
    checks = {n: SimpleNamespace(passed=True) for n in vref["checks_passed"]}
    checks["algebra_bound"] = SimpleNamespace(passed=False)
    n = len(vref["checks_passed"])
    assert workloads.check_unit("validate_1d", None, checks, vref)[:2] == (n, 1)


def test_reference_holds_the_roadmap_betas():
    ref = workloads.load_reference()
    assert ref["sweep_1d"]["beta_fitted"] == 0.6398377298521276
    assert ref["sweep_2d"]["beta_fitted"] == 1.0028528384719326
    assert ref["sweep_2d_multimode"]["beta_fitted"] == 1.0773773233041737


def test_benchmark_json_lists_workloads_and_layers():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (name, wl.why) for name, wl in workloads.WORKLOADS.items()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER
    ]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert set(layers.PREDICTIONS) == {m["name"] for m in doc["per_layer"]}


def test_upper_percentile_leaves_ten_samples_beyond():
    assert run.upper_percentile(list(range(20))) is None
    pct, value = run.upper_percentile(list(range(40)))
    assert pct == 75.0 and value == 29


def test_corrected_wall_divides_by_the_bracketing_controls():
    # a host twice as slow doubles unit and control alike
    assert run.corrected_wall([2.0, 4.0, 4.0], [1.0, 1.0, 2.0, 2.0], 0.5) == pytest.approx(1.0)


def test_control_kernel_runs_no_hartreelab_code():
    tracer = spans.Tracer()
    undo = spans.install_fft(tracer)
    try:
        elapsed = workloads.Control((64,), 3)()
    finally:
        spans.uninstall(undo)
    assert elapsed > 0
    assert {s[0].split(".")[0] for s in tracer.spans} == {"fft", "trace"}
    assert sum(s[0].startswith("fft.") for s in tracer.spans) == 3 * 6
