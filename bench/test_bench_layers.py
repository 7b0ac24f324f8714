"""Per-layer timings of the Strang stepper and of its phase kernel.

- `test_advance_step[SIZE]`: one `solver.advance` step at 8192 points
  (1D reference grid), 512^2 (2D reference grid) and 64^3 (L = 10,
  gamma = 1), on two Gaussian wave packets with carriers kappa/eps =
  -+2/eps at the smallest reference eps.  Each round continues the same
  trajectory.  The FFT calls of one step are counted once, outside the
  timing, and stored as `fft_calls_per_step` in the entry's extra info.
- `test_phase[ROUTE-SIZE]`: exp(i theta) of a carrier-sized angle array
  (kappa/eps . x up to 2560 at 8192 points, 80 at 512^2) by
  `grid.unit_phase` and by `np.exp(1j * theta)`.

Run from the repository root:

    PYTHONPATH=src python -m pytest bench/test_bench_layers.py \
        --benchmark-min-time=0.02 --benchmark-json=layers.json

`-k "not unit_phase"` runs the module on a tree without
`grid.unit_phase`.  `bench/compare.py` folds two such files (before and
after a change) into `bench/BENCH_layers.json`.
"""

import numpy as np
import pytest
import scipy.fft

from hartreelab import Grid, KernelSpec, SolverParams
from hartreelab import grid as grid_module
from hartreelab.kernel import _half_multiplier
from hartreelab.norms import _norms_from_raw_fft
from hartreelab.solver import advance

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
    khat_half = _half_multiplier(spec, grid, spec.coupling)
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
