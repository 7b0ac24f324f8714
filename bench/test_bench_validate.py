"""Timings of the validate suite as a user meets it, and of its kernel oracle.

- `test_validate_one_shot`: each round starts a fresh interpreter that
  runs `import hartreelab`, `load_config("configs/reference_1d.json")`
  and `validate_suite(cfg, seed=0)`, and is timed whole (interpreter
  start and imports included).  The child reports its peak resident
  memory (the `VmHWM` of its own address space, Linux), whether
  `scipy.integrate` was loaded and how many checks passed; the entry's
  extra info keeps the median peak in MiB, the flag and the count.
  `ru_maxrss` would not do: a process started by `subprocess` keeps its
  parent's high-water mark from before the `exec`, so a child of a large
  pytest process reads the parent's peak.
- `test_kernel_constant_oracle`: one warm `hartree_constant_oracle(1, 0.5)`,
  the `kernel_constant` check's quadrature.
- `test_picard_evolve[NODES]`: one warm `picard_evolve` at the
  `integrator_agreement` check's parameters (reference_1d's largest eps,
  horizon 0.1 eps, tol 1e-12) with 32 nodes, the check's count, and with
  128, which shows how the call's cost grows with the node count.  The
  FFT calls of one call are counted once, outside the timing, with the
  `fft_calls` log of `tests/conftest.py` (a pass of `rfft` or `irfft`
  calls over blocks of rows counted as one), and stored as
  `fft_calls_per_call` in the entry's extra info.
- `test_control`: the plain-numpy control of `bench/conftest.py`.

Run from the repository root:

    PYTHONPATH=src python -m pytest bench/test_bench_validate.py \
        --benchmark-min-time=0.02 --benchmark-json=validate.json

`bench/compare.py` folds two such files (before and after a change) into
`bench/BENCH_validate.json`.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from hartreelab import hartree_constant_oracle, initial_data, load_config, picard_evolve

ROOT = Path(__file__).resolve().parents[1]
ONE_SHOT_ROUNDS = 5
CHILD = """\
import json, sys
import hartreelab
cfg = hartreelab.load_config("configs/reference_1d.json")
checks = hartreelab.validate_suite(cfg, seed=0)
status = open("/proc/self/status").read()
print(json.dumps({
    "maxrss_mib": int(status.split("VmHWM:")[1].split()[0]) / 1024,
    "scipy_integrate_loaded": "scipy.integrate" in sys.modules,
    "checks_passed": sum(c.passed for c in checks.values()),
}))
"""


def test_validate_one_shot(benchmark, child_env):
    reports = []

    def one_shot():
        out = subprocess.run([sys.executable, "-c", CHILD], env=child_env, cwd=ROOT,
                             capture_output=True, text=True, check=True)
        reports.append(json.loads(out.stdout))

    benchmark.pedantic(one_shot, rounds=ONE_SHOT_ROUNDS)
    benchmark.extra_info["child_maxrss_mib"] = statistics.median(
        r["maxrss_mib"] for r in reports)
    benchmark.extra_info["scipy_integrate_loaded"] = any(
        r["scipy_integrate_loaded"] for r in reports)
    benchmark.extra_info["checks_passed"] = min(r["checks_passed"] for r in reports)
    assert all(r["checks_passed"] == 7 for r in reports)


def test_kernel_constant_oracle(benchmark):
    hartree_constant_oracle(1, 0.5)
    benchmark(hartree_constant_oracle, 1, 0.5)


@pytest.mark.parametrize("nodes", [32, 128])
def test_picard_evolve(benchmark, fft_calls, monkeypatch, nodes):
    cfg = load_config(ROOT / "configs" / "reference_1d.json")
    eps = cfg.epsilons[0]
    u0 = initial_data(cfg.family, eps)

    def run():
        return picard_evolve(u0, cfg.grid, cfg.kernel, eps, 0.1 * eps, tol=1e-12,
                             nodes=nodes)

    run()
    fft_calls.clear()
    run()
    monkeypatch.undo()
    benchmark.extra_info["fft_calls_per_call"] = len(fft_calls.passes())
    benchmark(run)


def test_control(benchmark, control):
    benchmark(control)
