"""Interleaved A/B runs of the end-to-end benchmark: a parent revision
against the working tree.

    python bench/ab.py --workload sweep_2d [--workload NAME ...]
                       [--parent REV] [--pairs N] [--seed S]

Run from anywhere inside the checkout.  The parent revision (default
HEAD, the last commit) is checked out with `git worktree add --detach`,
and the working tree's files (tracked, or untracked and not ignored) are
copied beside it, into `parent` and `change` of one temporary directory
that is removed afterwards.  Both paths then have the same length: the
heap layout of a run moves with the length of its checkout's path, and
with it the page faults of perfbench's control kernel and so `wall_s`.
Pair i runs `perfbench/run.py --workload W --seed S+i` once in each tree,
each a fresh process; the parent runs first in even pairs and second in
odd ones, so drift of the host that lasts a pair lands on both sides.

For each workload and each end-to-end metric of BENCHMARK.json the
summary prints the parent's median and quartiles, the change's median,
the change/parent ratio of the medians, the metric's BENCHMARK.json
bound, flagged `OVER` when the change's median is worse than the
parent's by more than it, the pairs the change won (lower or higher is
better as BENCHMARK.json says) and the change/parent ratio of every
pair.  Below them come the same rows for the raw medians each run
prints beside its corrected metrics (`RAW`): the uncorrected wall and
setup times and the control kernel's time.  perfbench divides each
unit by its control kernel, whose speed moves with the heap layout the
unit leaves behind, so a corrected `wall_s` that rises while the
uncorrected wall stays flat is the control's doing, not the unit's.

A run that exits non-zero is recorded with its exit code, and its pair
is left out of the rows.  Below the table, one line per side sums the
`attempted` and `failed` operations of its runs' last JSON lines and
lists the exit codes that were not 0.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


@contextlib.contextmanager
def trees(rev: str):
    """(parent, change): a detached worktree of `rev` and a copy of the
    working tree, side by side in a temporary directory."""
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        parent, change = Path(tmp) / "parent", Path(tmp) / "change"
        _git("worktree", "add", "--detach", str(parent), rev)
        try:
            for rel in _git("ls-files", "-z", "--cached", "--others",
                            "--exclude-standard").split("\0"):
                if rel and (ROOT / rel).is_file():  # a deleted file is still listed
                    (change / rel).parent.mkdir(parents=True, exist_ok=True)
                    shutil.copy2(ROOT / rel, change / rel)
            yield parent, change
        finally:
            _git("worktree", "remove", "--force", str(parent))


# the raw medians, in s, that `perfbench/run.py` prints beside its corrected metrics
RAW = {
    "uncorrected_wall_s": re.compile(r"^\s*uncorrected\s+median (\S+) s", re.M),
    "uncorrected_setup_s": re.compile(r"uncorrected setup median (\S+) s"),
    "control_s": re.compile(r"^\s*control\s+median (\S+) s", re.M),
}
RAW_METRICS = [{"name": name, "better": "lower"} for name in RAW]


def raw_medians(stdout: str) -> dict:
    """The `RAW` medians found in one run's stdout."""
    return {name: float(m.group(1)) for name, rx in RAW.items() if (m := rx.search(stdout))}


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """The exit code of one `perfbench/run.py` process in `tree`, the
    `attempted` and `failed` counts of its last line and, if it exited 0,
    its end-to-end metric values and raw medians."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:  # a run that stopped before its JSON line
        last = {}
    run = {"exit_code": proc.returncode,
           **{key: last[key] for key in ("attempted", "failed") if key in last}}
    if proc.returncode != 0 or "metrics" not in last:
        return run
    return {**run, **{name: m["value"] for name, m in last["metrics"].items()},
            **raw_medians(proc.stdout)}


def side_totals(runs: list) -> str:
    """Summed `attempted` and `failed` of one side's runs, and the exit
    codes that were not 0."""
    codes = [r["exit_code"] for r in runs if r["exit_code"] != 0]
    return (f"{sum(r.get('attempted', 0) for r in runs)} attempted, "
            f"{sum(r.get('failed', 0) for r in runs)} failed, "
            f"non-zero exits {codes or 'none'}")


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list, metrics: list) -> list:
    """One row per metric of `metrics` (BENCHMARK.json's end_to_end
    entries, then `RAW_METRICS`) from `pairs`, a list of (parent, change)
    run dicts; a pair with a run that exited non-zero is left out, and a
    metric some other run lacks gets no row.  A metric with a `bound` is
    `over` when the change's median is worse than the parent's by more
    than that fraction."""
    pairs = [pair for pair in pairs if not any(side.get("exit_code") for side in pair)]
    rows = []
    for metric in metrics:
        name = metric["name"]
        if not pairs or not all(name in side for pair in pairs for side in pair):
            continue
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        lower = metric["better"] == "lower"
        ratio = statistics.median(change) / statistics.median(parent)
        bound = metric.get("bound")
        rows.append({
            "metric": name,
            "parent_median": statistics.median(parent),
            "parent_quartiles": _quartiles(parent),
            "change_median": statistics.median(change),
            "median_ratio": ratio,
            "bound": bound,
            "over": bound is not None and (ratio - 1 if lower else 1 - ratio) > bound,
            "wins": sum(c < p if lower else c > p for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "ratios": [c / p for p, c in zip(parent, change)],
        })
    return rows


def format_rows(workload: str, rows: list) -> str:
    lines = []
    for r in rows:
        q1, q3 = r["parent_quartiles"]
        bound = "-" if r["bound"] is None else f"{r['bound']:g}" + (" OVER" if r["over"] else "")
        lines.append(
            f"| {workload} | {r['metric']} | {r['parent_median']:.4g} [{q1:.4g}, {q3:.4g}] "
            f"| {r['change_median']:.4g} | {r['wins']}/{r['pairs']} "
            f"| {r['median_ratio']:.3f} | {bound} "
            f"| {' '.join(f'{x:.3f}' for x in r['ratios'])} |")
    return "\n".join(lines)


HEADER = ("| workload | metric | parent median [q1, q3] | change median | change wins "
          "| change/parent | bound | per pair |\n|---|---|---|---|---|---|---|---|")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    p.add_argument("--pairs", type=int, default=8)
    p.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    args = p.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    tables, totals = [], []
    with trees(args.parent) as (parent, change):
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                sides = (parent, change) if i % 2 == 0 else (change, parent)
                got = {tree: run_once(tree, workload, seed) for tree in sides}
                pairs.append((got[parent], got[change]))
                print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}): exit "
                      f"{got[parent]['exit_code']} -> {got[change]['exit_code']}, "
                      + ", ".join(f"{m['name']} {got[parent][m['name']]:.4g} -> "
                                  f"{got[change][m['name']]:.4g}"
                                  for m in metrics + RAW_METRICS
                                  if m["name"] in got[parent] and m["name"] in got[change]),
                      file=sys.stderr, flush=True)
            tables.append(format_rows(workload, summarize(pairs, metrics + RAW_METRICS)))
            totals += [f"{workload} {side}: {side_totals([pair[k] for pair in pairs])}"
                       for k, side in enumerate(("parent", "change"))]
    print(HEADER)
    print("\n".join(tables))
    print("\n".join(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
