"""Where a sweep's memory goes: traced peaks per stage and the peak RSS.

For `configs/reference_2d.json` and the four-mode 256^2 family of
perfbench's `sweep_2d_multimode`, `measure` runs one warm
`harness.run_sweep` unit (after a warm-up unit, so memoized multipliers
and numpy's plan caches are built) under `tracemalloc`, with each call
of the six stages of a unit wrapped:

- `snapshot`: `wkb.snapshot`, the amplitudes, one per sample time and
  one at t = 0 for the sweep's `initial_exactness`;
- `_start`: `harness._start`, the initial data of one eps;
- `_advance`: `harness._advance`, the Strang steps of one eps to a time;
- `_record`: `harness._record`, the errors and remainder of one eps;
- `_half_laplacians`: `wkb._half_laplacians`, the in-place conversion
  of a time's amplitudes into their half-Laplacians, once every record
  of the time is taken;
- `_z2_norms`: `harness._z2_norms`, the Z2 norms of one eps from the
  half-Laplacians, which finish its record.

Every figure is in state arrays, one complex128 field of the grid
(4 MiB at 512^2, 1 MiB at 256^2).  Per stage, `over_entry` is the
largest traced peak of a call over the traced memory at that call's
entry, and `over_unit` the largest over the unit's entry; `unit_peak`
is the unit's own traced peak over its entry.  The family's amplitudes
are made before the unit, so they count in no figure.  `peak_rss_mib`
is the peak resident memory of a fresh interpreter that loads the run
file and runs one unit: the `VmHWM` of its own address space (Linux).
Its `ru_maxrss` would not do: a process started by `subprocess` keeps
its parent's high-water mark from before the `exec`, so a child of a
large pytest process reads the parent's peak.  The same child reads
`VmHWM` around every stage call: `hwm_entry_mib` is the mark when the
unit starts, and `hwm_growth_mib` the mark's rise over each stage's
calls, summed.  Traced peaks alone do not predict the resident peak,
since the allocator reuses freed blocks in its own order.

`test_stage_peaks[CASE]` times one traced unit (with its warm-up),
keeps the figures in its extra info and asserts the stage bounds the
sweep is built to keep.  To
record `bench/BENCH_memory.json` from two trees, run from the root of
each with its own `src` (before, then after):

    PYTHONPATH=src python bench/test_bench_memory.py before.json --label LABEL
    PYTHONPATH=src python bench/test_bench_memory.py bench/BENCH_memory.json \
        --label LABEL --before before.json
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hartreelab import harness
from hartreelab.config import parse_config
from test_bench_layers import _four_mode_256, _reference_2d

STAGES = ("snapshot", "_start", "_advance", "_record", "_half_laplacians", "_z2_norms")
PEAK_RSS_CHILD = """\
import json, sys
from hartreelab import harness
from hartreelab.config import parse_config

def hwm():
    status = open("/proc/self/status").read()
    return int(status.split("VmHWM:")[1].split()[0]) / 1024

def wrap(name, fn):
    def staged(*args):
        before = hwm()
        try:
            return fn(*args)
        finally:
            growth[name] += hwm() - before
    return staged

stages = json.loads(sys.argv[2])
growth = dict.fromkeys(stages, 0.0)
for name in stages:
    setattr(harness, name, wrap(name, getattr(harness, name)))
cfg = parse_config(json.loads(sys.argv[1]))
entry = hwm()
harness.run_sweep(cfg)
print(json.dumps({"peak_rss_mib": hwm(), "hwm_entry_mib": entry,
                  "hwm_growth_mib": growth}))
"""
# traced peak bounds in state arrays: the unit's, per case (its six
# stages' own bounds are in `test_stage_peaks`)
UNIT_PEAK_BOUND = {"reference_2d": 7.2, "four_mode_256x256": 9.4}


def _multimode() -> dict:
    """perfbench's sweep_2d_multimode: four modes on 256^2, eight sample times."""
    doc = _four_mode_256()
    doc.update(epsilons=[0.3, 0.2, 0.15], final_time=0.5,
               sample_times=[0.0625 * i for i in range(1, 9)])
    return doc


CASES = {"reference_2d": _reference_2d, "four_mode_256x256": _multimode}


def _stages() -> list:
    """The STAGES the measured tree has: an older tree may lack one."""
    return [name for name in STAGES if hasattr(harness, name)]


class _Tracer:
    """Per-stage peaks of traced memory; the unit's peak survives the
    per-call `tracemalloc.reset_peak`."""

    def __init__(self, stages):
        self.unit_entry = tracemalloc.get_traced_memory()[0]
        self.unit_peak = 0
        self.over_entry = dict.fromkeys(stages, 0)
        self.over_unit = dict.fromkeys(stages, 0)

    def fold(self):
        self.unit_peak = max(self.unit_peak, tracemalloc.get_traced_memory()[1])

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self.fold()
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                self.over_entry[name] = max(self.over_entry[name], peak - entry)
                self.over_unit[name] = max(self.over_unit[name], peak - self.unit_entry)
                self.fold()
        return traced


def traced_unit(doc: dict) -> dict:
    """Stage peaks of one warm sweep unit of the run document `doc`."""
    cfg = parse_config(doc)
    harness.run_sweep(cfg)  # warm-up: memoized multipliers, FFT plan caches
    saved = {name: getattr(harness, name) for name in _stages()}
    tracemalloc.start()
    try:
        tracer = _Tracer(saved)
        for name in saved:
            setattr(harness, name, tracer.wrap(name, saved[name]))
        harness.run_sweep(cfg)
        tracer.fold()
    finally:
        for name, fn in saved.items():
            setattr(harness, name, fn)
        tracemalloc.stop()
    state = cfg.grid.total_points * np.dtype(np.complex128).itemsize
    return {"state_array_bytes": state,
            "unit_peak": round((tracer.unit_peak - tracer.unit_entry) / state, 3),
            "over_entry": {k: round(v / state, 3) for k, v in tracer.over_entry.items()},
            "over_unit": {k: round(v / state, 3) for k, v in tracer.over_unit.items()}}


def fresh_rss(doc: dict) -> dict:
    """Peak RSS of a fresh interpreter running one unit of `doc`, its
    `VmHWM` at the unit's entry and the rise per stage, MiB."""
    env = {"PYTHONPATH": str(Path(harness.__file__).resolve().parents[1]),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", PEAK_RSS_CHILD, json.dumps(doc),
                          json.dumps(_stages())],
                         env=env, capture_output=True, text=True, check=True)
    got = json.loads(out.stdout)
    return {"peak_rss_mib": round(got["peak_rss_mib"], 1),
            "hwm_entry_mib": round(got["hwm_entry_mib"], 1),
            "hwm_growth_mib": {k: round(v, 1) for k, v in got["hwm_growth_mib"].items()}}


def measure() -> dict:
    return {name: {**traced_unit(case()), **fresh_rss(case())}
            for name, case in CASES.items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stage_peaks(benchmark, case):
    # in state arrays over the call's entry: a snapshot of M modes holds
    # its M amplitudes and, while it forms one, a translation buffer and
    # half an array more; a record its field pair (the first of a time
    # makes both), whose remainder holds its half spectrum inside the
    # pair, and block scratch; a conversion the graded norm's two
    # half-array moduli; a Z2 pass its field buffer and block scratch (a
    # quarter array at 256^2; the norms take chunk scratch); a start u0
    # and its spectrum
    doc = CASES[case]()
    peaks = benchmark.pedantic(traced_unit, args=(doc,), rounds=1)
    benchmark.extra_info.update(peaks)
    got = peaks["over_entry"]
    assert got["snapshot"] <= len(doc["modes"]) + 1.2, got
    assert got["_record"] <= 2.3, got
    assert got["_half_laplacians"] <= 1.1, got
    assert got["_z2_norms"] <= 1.3, got
    assert got["_start"] <= 2.5, got
    assert peaks["unit_peak"] <= UNIT_PEAK_BOUND[case], peaks


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out")
    p.add_argument("--label", required=True, help="what the measured tree is")
    p.add_argument("--before", help="an earlier output of this script, kept as 'before'")
    args = p.parse_args(argv)
    side = {"label": args.label, "cases": measure()}
    machine = {"system": f"{platform.system()} {platform.release()}",
               "cpus": os.cpu_count(), "python": platform.python_version(),
               "numpy": np.__version__}
    doc = {"machine": machine,
           "unit": "state arrays (complex128 fields of the grid); peak_rss_mib in MiB"}
    if args.before:
        doc.update(before=json.loads(Path(args.before).read_text())["after"], after=side)
    else:
        doc.update(after=side)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
