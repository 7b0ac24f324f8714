"""Fold two pytest-benchmark JSON files into one before/after record.

    python bench/compare.py BEFORE.json AFTER.json OUT.json \
        --before LABEL --after LABEL

Both files come from the same benchmark module run on the same machine.
OUT keeps the machine description, the library versions and, per
benchmark, the median, quartiles, minimum and rounds of each side (in
seconds), the benchmark's extra info (such as FFT calls per call) and
the after/before ratio of the medians.  A benchmark run on one side
only (a route the other tree lacks) keeps that side and null for the
other.

The two sides run one after the other, so drift of the host between
them lands in every ratio.  The plain-numpy control of
`bench/conftest.py` runs no hartreelab code.  Timed beside every entry,
it gives the entry's `control_s`; the after/before ratio of those is the
entry's `control_ratio`, and its `after_over_before_corrected` is the
raw `after_over_before` divided by it (null without `control_s` on both
sides).  The module's own `test_control` entry gives the top-level
`control_ratio`, the drift over the whole run.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy
import scipy

STATS = ("median", "q1", "q3", "min", "rounds")
CONTROL = "test_control"


def _stats(doc: dict) -> dict:
    return {b["name"]: {**{k: b["stats"][k] for k in STATS}, **b.get("extra_info", {})}
            for b in doc["benchmarks"]}


def _ratio(before, after):
    return after["median"] / before["median"] if before and after else None


def _pair(before, after) -> dict:
    ratio = _ratio(before, after)
    control = (after["control_s"] / before["control_s"]
               if ratio and "control_s" in before and "control_s" in after else None)
    corrected = ratio / control if control else None
    return {"before": before, "after": after, "after_over_before": ratio,
            "control_ratio": control, "after_over_before_corrected": corrected}


def _machine(doc: dict) -> dict:
    info, cpu = doc["machine_info"], doc["machine_info"]["cpu"]
    return {
        "cpu": cpu.get("brand_raw"),
        "cpus": cpu.get("count"),
        "clock": cpu.get("hz_actual_friendly"),
        "l2_bytes": cpu.get("l2_cache_size"),
        "l3_bytes": cpu.get("l3_cache_size"),
        "system": f"{info['system']} {info['release']}",
        "python": info["python_version"],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("out")
    parser.add_argument("--before", dest="before_label", required=True)
    parser.add_argument("--after", dest="after_label", required=True)
    args = parser.parse_args(argv)
    docs = [json.loads(Path(p).read_text()) for p in (args.before, args.after)]
    before, after = (_stats(d) for d in docs)
    record = {
        "machine": _machine(docs[1]),
        "before": args.before_label,
        "after": args.after_label,
        "unit": "s",
        "control_ratio": _ratio(before.get(CONTROL), after.get(CONTROL)),
        "benchmarks": {
            name: _pair(before.get(name), after.get(name))
            for name in sorted(before.keys() | after.keys())
        },
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
