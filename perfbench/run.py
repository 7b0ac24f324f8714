"""hartreelab benchmark: end-to-end timings and traced per-layer metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; sources are taken from the
checkout's ``src`` and ``configs``.  Each workload runs in fresh child
processes, single-threaded, one caller in a closed loop.

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``: seconds of one unit (``run_sweep`` plus ``persist``, or
  ``validate_suite``), median over the units of the run, corrected for
  host drift by the control kernel of ``workloads.Control`` (see
  ``corrected_wall``); the uncorrected median is printed beside it;
- ``setup_s``: seconds of ``import hartreelab`` plus ``load_config``,
  median over several fresh processes, corrected the same way by a
  control kernel timed right after it;
- ``peak_rss_mb``: peak resident memory of the measuring process, MiB.

``--trace 1`` runs one untraced and one traced process and reports the
per-layer metrics of ``layers.py``.  Every unit's output is checked
against ``reference.json``; the error rate, ``failed / attempted``
operations, is printed with each workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit codes: 0
all outputs correct, 1 an output missed its reference or a tracing
check failed, 2 the checkout lacks the sources, 3 a child process
failed or overran.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
MIN_UNITS = 3  # a median of at least three units,
MAX_MEASURE_S = 28.0  # unless this much has been measured: a run stays near a minute
SETUP_SAMPLES = 2  # setup-only processes; the measuring one adds a third sample
TIME_BUDGET_S = 170.0  # every child must finish inside the 180 s run limit
CHILD_ENV = {
    "PYTHONPATH": str(ROOT / "src"),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


class ChildError(RuntimeError):
    pass


def _child(mode, name, config, seed, seconds, min_units, deadline, max_seconds=None):
    cmd = [
        sys.executable, str(HERE / "child.py"), "--mode", mode,
        "--workload", name, "--config", str(config), "--seed", str(seed),
        "--seconds", repr(seconds), "--min-units", str(min_units),
        "--max-seconds", repr(max_seconds or seconds),
        "--out", str(ROOT / workloads.WORKDIR / "out" / name),
    ]
    env = {**os.environ, **CHILD_ENV}
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildError(f"{name}: out of time before the {mode} process")
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{name}: {mode} process overran the time budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{name}: {mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def upper_percentile(samples):
    """Highest percentile with at least ten samples beyond it, as
    (percentile, value); None when that percentile would not lie above
    the median (fewer than 21 samples)."""
    n = len(samples)
    if n < 21:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def corrected_wall(walls, controls, control_ref_s):
    """Median unit time at the reference machine speed: each unit's wall
    time over the mean control time just before and after it, times the
    control's reference time."""
    ratios = [w / (0.5 * (a + b)) for w, a, b in zip(walls, controls, controls[1:])]
    return statistics.median(ratios) * control_ref_s


def run_workload(name, seed, seconds, trace, deadline):
    config = workloads.config_path(name, ROOT)
    if not trace:
        setups = [
            _child("setup", name, config, seed, 0, 0, deadline)
            for _ in range(SETUP_SAMPLES)
        ]
        res = _child("plain", name, config, seed, seconds, MIN_UNITS, deadline,
                     max_seconds=MAX_MEASURE_S)
        setups.append(res)
        ratios = [s["setup_s"] / s["setup_control"] for s in setups]
        metrics = {
            "wall_s": corrected_wall(res["walls"], res["controls"],
                                     workloads.WORKLOADS[name].control_ref_s),
            "setup_s": statistics.median(ratios) * workloads.SETUP_CONTROL["ref_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        res["setup_samples"] = [(s["setup_s"], s["setup_control"]) for s in setups]
        return res, {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}

    plain = _child("plain", name, config, seed, seconds / 2, 1, deadline)
    res = _child("traced", name, config, seed, seconds / 2, 1, deadline)
    overhead = statistics.median(res["walls"]) - statistics.median(plain["walls"])
    res["layers"]["trace.overhead_s"] = overhead
    res["untraced_walls"] = plain["walls"]
    for key in ("attempted", "failed"):
        res[key] += plain[key]
    res["problems"] = plain["problems"] + res["problems"] + res["trace_problems"]
    return res, {
        k: {"value": res["layers"][k], "unit": layers.UNITS[k]}
        for k, _, _ in layers.PER_LAYER
    }


def _report(name, seed, res, metrics, trace):
    walls = res["walls"]
    print(f"== {name}: {len(walls)} units, seed {seed}, threads "
          f"{res['context']['threads']}, closed loop, one caller"
          + (", traced" if trace else ""))
    if not trace:
        for key, unit in END_TO_END:
            print(f"  {key:<12} {metrics[key]['value']:.6g} {unit}")
        up = upper_percentile(walls)
        print(f"  uncorrected  median {statistics.median(walls):.6g} s, " + (
            f"p{up[0]:.0f} {up[1]:.6g} s over {len(walls)} units" if up else
            f"max {max(walls):.6g} s over {len(walls)} units (too few for a "
            "percentile with ten units beyond it)"))
        print(f"  control      median {statistics.median(res['controls']):.6g} s; "
              "uncorrected setup median "
              f"{statistics.median(s for s, _ in res['setup_samples']):.6g} s")
    rate = res["failed"] / res["attempted"] if res["attempted"] else math.nan
    print(f"  error_rate   {rate:.6g} ({res['failed']} failed / {res['attempted']} attempted)")
    for problem in res["problems"]:
        print(f"  problem: {problem}")
    print("  context " + json.dumps(res["context"], sort_keys=True))


def _save(name, seed, trace, res):
    path = ROOT / workloads.WORKDIR / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running child before the benchmark exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    needed = {"src/hartreelab/__init__.py"} | {
        w.config for w in workloads.WORKLOADS.values() if w.config != "generated"
    }
    missing = sorted(rel for rel in needed if not (ROOT / rel).is_file())
    if missing:
        print(f"benchmark: checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + TIME_BUDGET_S * len(names)
    attempted = failed = 0
    problems = False
    all_metrics = {}
    try:
        for name in names:
            res, metrics = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            _report(name, args.seed, res, metrics, args.trace)
            _save(name, args.seed, args.trace, res)
            attempted += res["attempted"]
            failed += res["failed"]
            problems |= bool(res["problems"])
            prefix = "" if len(names) == 1 else f"{name}."
            all_metrics.update({prefix + k: v for k, v in metrics.items()})
    except ChildError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 3
    correct = failed == 0 and not problems and attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": all_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
