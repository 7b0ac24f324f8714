"""Per-layer metrics of the traced run, and what each should move.

Every value is per workload unit (one ``run_sweep`` plus ``persist``, or
one ``validate_suite``), averaged over the traced units of a run, except
``config.load_config.s`` (once per run) and ``trace.overhead_s``.

``PREDICTIONS`` records, before any optimisation is measured, which
end-to-end metric each layer metric should move and on which workload.
"""

from __future__ import annotations

SPAN_LAYERS = (
    "solver.evolve",
    "wkb.snapshot",
    "wkb.action_phase",
    "wkb.assemble",
    "wkb.resonant_remainder",
    "wkb.z2_term",
    "wkb.initial_data",
    "grid.translate",
    "grid.laplacian",
    "kernel.convolve",
    "kernel.multiplier_grid",
    "norms.l2w_norm",
    "norms.wiener_norm",
    "norms.e_norm",
    "norms.check_algebra_bound",
    "norms.check_hartree_bound",
    "solver.picard_evolve",
)
SPAN_FIELDS = (("calls", "count"), ("s", "s"), ("self_s", "s"))

EXTRA = (
    ("solver.evolve.ms_per_step", "ms", "lower"),
    ("solver.evolve.fft_calls_per_step", "count", "lower"),
    ("fft.calls", "count", "lower"),
    ("fft.s", "s", "lower"),
    ("fft.flops_computed", "flop", "lower"),
    ("fft.bytes_computed", "B", "lower"),
    ("wkb.snapshot.distinct", "count", "lower"),
    ("wkb.snapshot.useful_ratio", "ratio", "higher"),
    ("kernel.multiplier_grid.distinct", "count", "lower"),
    ("kernel.multiplier_grid.useful_ratio", "ratio", "higher"),
    ("harness.validate_suite.self_s", "s", "lower"),
    ("harness.run_sweep.self_s", "s", "lower"),
    ("harness.persist.s", "s", "lower"),
    ("harness.persist.bytes", "B", "lower"),
    ("config.load_config.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

PER_LAYER = tuple(
    (f"{span}.{field}", unit, "lower")
    for span in SPAN_LAYERS
    for field, unit in SPAN_FIELDS
) + EXTRA

_SOLVER = ("wall_s", ("sweep_2d", "sweep_1d"), "no change on validate_1d")
_FFT = ("wall_s", ("sweep_2d", "sweep_1d"), "largest on sweep_2d, whose arrays exceed L2")
_SNAPSHOT = (
    "wall_s",
    ("sweep_2d_multimode", "sweep_2d"),
    "if snapshots are cached, peak_rss_mb on sweep_2d_multimode shows the cost",
)
_WKB = ("wall_s", ("sweep_2d_multimode",), "")
_KERNEL = ("wall_s", ("validate_1d", "sweep_2d_multimode"), "")
_VALIDATE = ("wall_s", ("validate_1d",), "no change on the sweeps")
_ARTIFACTS = ("wall_s", ("sweep_1d", "sweep_2d", "sweep_2d_multimode"),
              "flat today (about 1 ms); keeps artifact-writing changes visible")

_GROUPS = {
    "solver.evolve": _SOLVER,
    "fft": _FFT,
    "wkb.snapshot": _SNAPSHOT,
    "wkb.action_phase": _SNAPSHOT,
    "wkb.assemble": _WKB,
    "wkb.resonant_remainder": _WKB,
    "wkb.z2_term": _WKB,
    "wkb.initial_data": _WKB,
    "grid.translate": _WKB,
    "grid.laplacian": _WKB,
    "kernel.convolve": _KERNEL,
    "kernel.multiplier_grid": _KERNEL,
    "norms.l2w_norm": _VALIDATE,
    "norms.wiener_norm": _VALIDATE,
    "norms.e_norm": _VALIDATE,
    "norms.check_algebra_bound": _VALIDATE,
    "norms.check_hartree_bound": _VALIDATE,
    "solver.picard_evolve": _VALIDATE,
    "harness.validate_suite": _VALIDATE,
    "harness.run_sweep": _ARTIFACTS,
    "harness.persist": _ARTIFACTS,
    "config.load_config": ("setup_s", ("sweep_1d", "sweep_2d", "sweep_2d_multimode",
                                       "validate_1d"), ""),
    "trace.overhead_s": (None, (), "cost of tracing itself, per workload"),
}


def prediction(metric: str):
    """(end-to-end metric, workloads, note) the layer metric should move."""
    for group in sorted(_GROUPS, key=len, reverse=True):
        if metric == group or metric.startswith(group + "."):
            return _GROUPS[group]
    raise KeyError(metric)


PREDICTIONS = {name: prediction(name) for name, _, _ in PER_LAYER}
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def derive(table: dict, counters: dict, distinct: dict, units: int,
           load_config_s: float, overhead_s: float) -> dict:
    """Per-layer metric values from the summarised spans of ``units`` units."""
    def row(name):
        return table.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "fft_calls": 0})

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for span in SPAN_LAYERS:
        r = row(span)
        for field, _ in SPAN_FIELDS:
            out[f"{span}.{field}"] = r[field] / units
    evolve = row("solver.evolve")
    steps = counters.get("solver.evolve.steps", 0)
    out["solver.evolve.ms_per_step"] = ratio(1000.0 * evolve["s"], steps)
    out["solver.evolve.fft_calls_per_step"] = ratio(evolve["fft_calls"], steps)
    fft = row("fft")
    out["fft.calls"] = fft["calls"] / units
    out["fft.s"] = fft["s"] / units
    out["fft.flops_computed"] = counters.get("fft.flops_computed", 0.0) / units
    out["fft.bytes_computed"] = counters.get("fft.bytes_computed", 0) / units
    for span in ("wkb.snapshot", "kernel.multiplier_grid"):
        seen = distinct.get(span, 0)
        out[f"{span}.distinct"] = seen / units
        out[f"{span}.useful_ratio"] = ratio(seen, row(span)["calls"])
    out["harness.validate_suite.self_s"] = row("harness.validate_suite")["self_s"] / units
    out["harness.run_sweep.self_s"] = row("harness.run_sweep")["self_s"] / units
    out["harness.persist.s"] = row("harness.persist")["s"] / units
    out["harness.persist.bytes"] = counters.get("harness.persist.bytes", 0) / units
    out["config.load_config.s"] = load_config_s
    out["trace.overhead_s"] = overhead_s
    return out

