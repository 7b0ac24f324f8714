"""Timings of the validate suite's random campaign fields and bounds.

- `test_draw_block[SIZE-CAMPAIGN]`: one block of
  `harness._random_band_limited` as the campaigns draw it, into a
  buffer made once: an algebra block (`Grid.block_rows` pairs, band
  |k| <= N/4 - 1) and a density block (`Grid.block_rows` fields, band
  |k| <= max(2, N/16)).
- `test_algebra_block[SIZE]`: one algebra block whole, the draw and
  `norms._algebra_bounds`.
- `test_hartree_block[SIZE]`: one Hartree block whole, the density draw
  `harness._random_smooth_density` and `norms._hartree_bounds`.

The FFT calls of one whole block are counted once, outside the timing,
with the `fft_calls` log of `tests/conftest.py`, and stored as
`fft_calls_per_call` in the entry's extra info.

SIZE is 8192 points or 256^2.  Run from the repository root:

    PYTHONPATH=src python -m pytest bench/test_bench_campaigns.py \
        --benchmark-min-time=0.02 --benchmark-json=campaigns.json

`bench/compare.py` folds two such files (before and after a change) into
`bench/BENCH_campaigns.json`.
"""

import numpy as np
import pytest

from hartreelab import Grid, KernelSpec
from hartreelab.harness import _random_band_limited, _random_smooth_density
from hartreelab.norms import _algebra_bounds, _hartree_bounds

GRIDS = {"8192": Grid(d=1, length=32.0, points=8192),
         "256x256": Grid(d=2, length=16.0, points=256)}


def _buffer(grid: Grid, lead: tuple) -> np.ndarray:
    return np.empty((*lead, *grid.shape), dtype=np.complex128)


@pytest.mark.parametrize("campaign", ["algebra", "density"])
@pytest.mark.parametrize("size", sorted(GRIDS))
def test_draw_block(benchmark, size, campaign):
    grid = GRIDS[size]
    if campaign == "algebra":
        cutoff, lead = grid.points // 4 - 1, (grid.block_rows, 2)
    else:
        cutoff, lead = max(2, grid.points // 16), (grid.block_rows,)
    rng, buf = np.random.default_rng(0), _buffer(grid, lead)
    block, w = benchmark(_random_band_limited, grid, rng, cutoff, *lead, out=buf)
    assert block.shape == (*lead, *grid.shape) and w.shape == lead


def _fft_calls(fft_calls, monkeypatch, block) -> int:
    """FFT calls of one `block()`."""
    fft_calls.clear()
    block()
    monkeypatch.undo()
    return len(fft_calls.passes())


@pytest.mark.parametrize("size", sorted(GRIDS))
def test_algebra_block(benchmark, fft_calls, monkeypatch, oracles, size):
    grid = GRIDS[size]
    cutoff, lead = grid.points // 4 - 1, (grid.block_rows, 2)
    rng, buf = np.random.default_rng(0), _buffer(grid, lead)

    def block():
        return _algebra_bounds(*_random_band_limited(grid, rng, cutoff, *lead, out=buf), grid)

    block()
    calls = benchmark.extra_info["fft_calls_per_call"] = _fft_calls(fft_calls, monkeypatch, block)
    assert calls == 2
    lhs, rhs = benchmark(block)
    assert len(lhs) == grid.block_rows
    assert np.all(oracles.holds(lhs, rhs, oracles.ALGEBRA_SLACK))


@pytest.mark.parametrize("size", sorted(GRIDS))
def test_hartree_block(benchmark, fft_calls, monkeypatch, oracles, size):
    grid = GRIDS[size]
    spec = KernelSpec(d=grid.d, gamma=0.5)
    rng, buf = np.random.default_rng(0), _buffer(grid, (grid.block_rows,))

    def block():
        density = _random_smooth_density(grid, rng, grid.block_rows, out=buf)
        return _hartree_bounds(spec, density, grid)

    block()
    calls = benchmark.extra_info["fft_calls_per_call"] = _fft_calls(fft_calls, monkeypatch, block)
    assert calls == 2
    lhs, rhs = benchmark(block)
    assert len(lhs) == grid.block_rows
    assert np.all(oracles.holds(lhs, rhs, oracles.HARTREE_SLACK))
