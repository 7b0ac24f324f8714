"""Timings of the validate suite's random campaign fields.

One block of `harness._random_band_limited` as the campaigns draw it:
an algebra block (`Grid.block_rows` pairs, band |k| <= N/4 - 1) and a
density block (`Grid.block_rows` fields, band |k| <= max(2, N/16)), at
8192 points and at 256^2.  Run from the repository root:

    PYTHONPATH=src python -m pytest bench/test_bench_campaigns.py \
        --benchmark-min-time=0.02 --benchmark-json=campaigns.json

`bench/compare.py` folds two such files (before and after a change) into
`bench/BENCH_campaigns.json`.
"""

import numpy as np
import pytest

from hartreelab import Grid
from hartreelab.harness import _random_band_limited

GRIDS = {"8192": Grid(d=1, length=32.0, points=8192),
         "256x256": Grid(d=2, length=16.0, points=256)}


@pytest.mark.parametrize("campaign", ["algebra", "density"])
@pytest.mark.parametrize("size", sorted(GRIDS))
def test_draw_block(benchmark, size, campaign):
    grid = GRIDS[size]
    if campaign == "algebra":
        cutoff, lead = grid.points // 4 - 1, (grid.block_rows, 2)
    else:
        cutoff, lead = max(2, grid.points // 16), (grid.block_rows,)
    rng = np.random.default_rng(0)
    block = benchmark(_random_band_limited, grid, rng, cutoff, *lead)
    assert block.shape == (*lead, *grid.shape)
