"""Per-layer timings of the Strang stepper, its phase kernel and a record.

- `test_advance_step[SIZE]`: one `solver.advance` step at 8192 points
  (1D reference grid), 512^2 (2D reference grid) and 64^3 (L = 10,
  gamma = 1), on two Gaussian wave packets with carriers kappa/eps =
  -+2/eps at the smallest reference eps.  Each round continues the same
  trajectory.  The FFT calls of one step are counted once, outside the
  timing, and stored as `fft_calls_per_step` in the entry's extra info.
- `test_phase[ROUTE-SIZE]`: exp(i theta) of a carrier-sized angle array
  (kappa/eps . x up to 2560 at 8192 points, 80 at 512^2) by
  `grid.unit_phase` and by `np.exp(1j * theta)`.
- `test_record[FAMILY]`: one warm `harness._record` (errors, remainder
  and Z2 of one eps at one sample time, in its thread's field pair) for
  the 8192-point two-mode reference family at eps = 0.025, t = 0.25 and
  for the four-mode 256^2 family at eps = 0.15, t = 0.0625.  Its FFT
  calls per record are counted outside the timing and stored in the
  entry's extra info.
- `test_sweep_unit`: one warm `harness.run_sweep` over the four-mode
  256^2 family (eps = 0.3, 0.2, 0.15; eight sample times to t = 0.5),
  the unit of perfbench's `sweep_2d_multimode`.  Its minor page faults
  are stored as `minor_faults_per_unit`: a `resource.getrusage` delta
  around one unit, after a warm-up unit, in a fresh interpreter.  The
  count depends on what the process allocated and freed before: a warm
  loop of bare records reuses the heap chunks the previous record freed
  (0 faults), and a unit run in this process after the other entries
  read about 2,100 on every tree, against 28,334 in a fresh one.
- `test_control`: the plain-numpy control of `bench/conftest.py` (no
  hartreelab code); its after/before ratio is the host's drift between
  the two runs.  The same control also runs beside every entry, and its
  median there is the entry's `control_s`.

Run from the repository root:

    PYTHONPATH=src python -m pytest bench/test_bench_layers.py \
        --benchmark-min-time=0.02 --benchmark-json=layers.json

`-k "not unit_phase"` runs the module on a tree without
`grid.unit_phase`.  `bench/compare.py` folds two such files (before and
after a change) into `bench/BENCH_layers.json`, each ratio also divided
by the ratio of its own `control_s`.
"""

import functools
import json
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from hartreelab import Grid, KernelSpec, SolverParams
from hartreelab import grid as grid_module
from hartreelab import harness
from hartreelab.config import parse_config
from hartreelab.kernel import half_multiplier
from hartreelab.norms import _norms_from_raw_fft
from hartreelab.solver import advance
from hartreelab.wkb import snapshot

# size -> (grid, gamma, eps)
CASES = {"8192": (Grid(d=1, length=64.0, points=8192), 0.5, 0.025),
         "512x512": (Grid(d=2, length=16.0, points=512), 0.5, 0.05),
         "64x64x64": (Grid(d=3, length=10.0, points=64), 1.0, 0.5)}
FFT_NAMES = ("fftn", "ifftn", "rfftn", "irfftn")


def _packets(grid: Grid, eps: float) -> np.ndarray:
    """Two unit Gaussians of width 0.75 with carriers exp(-+2i x_1 / eps)."""
    coords = grid.coords()
    r2 = sum(ax**2 for ax in coords)
    return 2.0 * np.exp(-r2 / (2 * 0.75**2)) * np.cos(2.0 * coords[0] / eps)


def _counted(transform, calls: list):
    def counted(*args, **kwargs):
        calls.append(transform.__name__)
        return transform(*args, **kwargs)
    return counted


@pytest.mark.parametrize("size", sorted(CASES))
def test_advance_step(benchmark, monkeypatch, size):
    grid, gamma, eps = CASES[size]
    spec = KernelSpec(d=grid.d, gamma=gamma)
    params = SolverParams.largest_step(eps, 1.0)
    khat_half = half_multiplier(spec, grid, spec.coupling)
    raw = scipy.fft.fftn(_packets(grid, eps).astype(np.complex128))
    norm0 = sum(_norms_from_raw_fft(raw, grid))
    state = {"raw": raw}

    def step():
        state["raw"], _ = advance(state["raw"], grid, khat_half, params, 0.0,
                                  params.dt, norm0)

    calls = []
    for name in FFT_NAMES:
        monkeypatch.setattr(scipy.fft, name, _counted(getattr(scipy.fft, name), calls))
    step()
    monkeypatch.undo()
    benchmark.extra_info["fft_calls_per_step"] = len(calls)
    assert len(calls) == 4
    benchmark(step)


def _carrier_angle(size: str) -> np.ndarray:
    grid, _, eps = CASES[size]
    return (2.0 / eps) * sum(np.broadcast_to(ax, grid.shape) for ax in grid.coords())


@pytest.mark.parametrize("route", ["unit_phase", "exp"])
@pytest.mark.parametrize("size", ["8192", "512x512"])
def test_phase(benchmark, size, route):
    theta = _carrier_angle(size)
    if route == "exp":
        z = benchmark(lambda: np.exp(1j * theta))
    else:
        z = benchmark(grid_module.unit_phase, theta)
    assert z.shape == theta.shape


def _reference_1d() -> dict:
    return json.loads((Path(__file__).resolve().parents[1] / "configs"
                       / "reference_1d.json").read_text())


def _four_mode_256() -> dict:
    def mode(kappa):
        return {"kappa": kappa, "profile": {"type": "gaussian", "amplitude": 1.0,
                                            "center": [0.0, 0.0], "width": 0.75}}
    return {"dimension": 2, "gamma": 0.5, "lambda": 1.0, "box_length": 16.0,
            "points": 256,
            "modes": [mode([-2.0, 0.0]), mode([2.0, 0.0]), mode([0.0, -2.0]),
                      mode([0.0, 2.0])],
            "dt_factor": 0.1, "quadrature_nodes": 64, "output": "unused"}


# family -> (run document, eps, sample time)
RECORD_CASES = {
    "two_mode_8192": (_reference_1d, 0.025, 0.25),
    "four_mode_256x256": (_four_mode_256, 0.15, 0.0625),
}


def _record_config(family: str):
    document, eps, t = RECORD_CASES[family]
    doc = document()
    doc.update(epsilons=[eps], final_time=t, sample_times=[t])
    return parse_config(doc)


@pytest.mark.parametrize("family", sorted(RECORD_CASES))
def test_record(benchmark, monkeypatch, family):
    cfg = _record_config(family)
    run = harness._start(cfg, snapshot(cfg.family, 0.0, cfg.kernel), cfg.epsilons[0])
    t = cfg.sample_times[0]
    khat_half = half_multiplier(cfg.kernel, cfg.grid, cfg.kernel.coupling)
    assert harness._advance(cfg, khat_half, 0.0, t, run) is None
    snap = snapshot(cfg.family, t, cfg.kernel)
    record = functools.partial(harness._record, cfg, snap, threading.local(), run)
    record()  # makes this thread's field pair

    calls = []
    for name in FFT_NAMES:
        monkeypatch.setattr(scipy.fft, name, _counted(getattr(scipy.fft, name), calls))
    record()
    monkeypatch.undo()
    benchmark.extra_info["fft_calls_per_record"] = len(calls)
    assert len(calls) == 6
    benchmark(record)


UNIT_FAULTS = """\
import json, resource, sys
from hartreelab import harness
from hartreelab.config import parse_config
cfg = parse_config(json.loads(sys.argv[1]))
harness.run_sweep(cfg)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
harness.run_sweep(cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
"""


def test_sweep_unit(benchmark, child_env):
    doc = _four_mode_256()
    doc.update(epsilons=[0.3, 0.2, 0.15], final_time=0.5,
               sample_times=[0.0625 * i for i in range(1, 9)])
    out = subprocess.run([sys.executable, "-c", UNIT_FAULTS, json.dumps(doc)], env=child_env,
                         capture_output=True, text=True, check=True)
    benchmark.extra_info["minor_faults_per_unit"] = int(out.stdout)
    cfg = parse_config(doc)
    result = benchmark.pedantic(harness.run_sweep, args=(cfg,), rounds=3, warmup_rounds=1)
    assert not result.failures and len(result.records) == 24


def test_control(benchmark, control):
    benchmark(control)
