"""One benchmark process: set up, run workload units, report one JSON line.

    python3 perfbench/child.py --mode {setup,plain,traced} --workload NAME
        --config PATH --seed N --seconds S --min-units K --max-seconds M
        --out DIR

``setup`` times ``import hartreelab`` plus ``load_config`` and exits.
``plain`` does the same, then runs units until ``--seconds`` have passed
and either ``--min-units`` units have run or ``--max-seconds`` have
passed, timing the workload's control kernel before the first unit and
after every unit.  ``traced`` wraps the FFT
entry points before the import and every public hartreelab function
after it, then runs units the same way with every call recorded.
``hartreelab`` is imported from ``PYTHONPATH``, which the parent points
at the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import layers
import spans
import workloads


def _args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--min-units", type=int, default=1)
    p.add_argument("--max-seconds", type=float, default=0.0)
    p.add_argument("--out", required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    tracer = None
    if args.mode == "traced":
        tracer = spans.Tracer()
        spans.install_fft(tracer)

    t0 = time.perf_counter()
    import hartreelab as hl

    if tracer is not None:
        spans.install_hartreelab(tracer)
    cfg = hl.load_config(args.config, threads=1, seed=args.seed)
    setup_s = time.perf_counter() - t0
    setup_control = load_config_s = None
    if tracer is None:
        sc = workloads.SETUP_CONTROL
        setup_control = workloads.Control(sc["shape"], sc["iters"])()
    else:
        table, _ = spans.summarize(tracer.spans)
        load_config_s = table["config.load_config"]["s"]
        tracer.spans.clear()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_control": setup_control}))
        return 0

    ref = workloads.load_reference()[args.workload]
    out_dir = Path(args.out)
    walls, attempted, failed, problems = [], 0, 0, []
    distinct = {}
    start = time.perf_counter()
    # the control kernel would add its own FFTs to a traced run
    control = None if tracer else workloads.Control(
        cfg.grid.shape, workloads.WORKLOADS[args.workload].control_iters
    )
    controls = [control()] if control else []
    while True:
        elapsed = time.perf_counter() - start
        if walls and elapsed >= args.seconds and (
            len(walls) >= args.min_units or elapsed >= args.max_seconds
        ):
            break
        t = time.perf_counter()
        try:
            output = workloads.run_unit(hl, args.workload, cfg, args.seed, out_dir)
        except Exception as exc:  # counted as failed operations, not fatal
            traceback.print_exc()
            output = exc
        walls.append(time.perf_counter() - t)
        if control:
            controls.append(control())
        a, f, p = workloads.check_unit(args.workload, cfg, output, ref)
        attempted, failed = attempted + a, failed + f
        problems += p
        if tracer is not None:
            for key, seen in tracer.distinct.items():
                distinct[key] = distinct.get(key, 0) + len(seen)
            tracer.distinct.clear()

    result = {
        "setup_s": setup_s,
        "setup_control": setup_control,
        "walls": walls,
        "controls": controls,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "context": workloads.run_context(cfg),
    }
    if tracer is not None:
        result.update(_trace_report(tracer, walls, distinct, load_config_s))
    print(json.dumps(result))
    return 0


def _trace_report(tracer, walls, distinct, load_config_s) -> dict:
    """Per-layer metrics plus the span-accounting checks.

    The self times of all spans plus the time outside every span must
    add up to the traced wall time of the units.
    """
    table, root_s = spans.summarize(tracer.spans)
    wall = sum(walls)
    remainder = wall - root_s
    self_total = sum(r["self_s"] for name, r in table.items() if name != "fft")
    problems = []
    if not spans.check_nesting(tracer.spans):
        problems.append("a span is open or lies outside its parent")
    if remainder < 0 or abs(self_total + remainder - wall) > 1e-6 * max(1.0, wall):
        problems.append(
            f"span self times {self_total!r} + remainder {remainder!r} "
            f"!= traced wall {wall!r}"
        )
    metrics = layers.derive(
        table, tracer.counters, distinct, len(walls), load_config_s, overhead_s=0.0
    )
    return {
        "layers": metrics,
        "span_table": table,
        "untraced_remainder_s": remainder,
        "trace_problems": problems,
    }


if __name__ == "__main__":
    sys.exit(main())
