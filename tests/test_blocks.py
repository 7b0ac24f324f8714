"""Stacked transforms of the validation suite: the property campaigns run
in blocks of `Grid.block_rows` fields and the Picard nodes in blocks of
whole Simpson panels, and give the numbers of the field-by-field and
node-by-node loops they replace."""

import math

import numpy as np
import pytest
import scipy.fft

from hartreelab import grid as grid_module
from hartreelab import (
    Field,
    GaussianProfile,
    Grid,
    KernelSpec,
    ModeFamily,
    PicardConvergenceError,
    SweepConfig,
    picard_evolve,
    validate_suite,
)
from hartreelab.harness import _algebra_campaign, _density_envelope, _hartree_campaign
from hartreelab.kernel import convolve, half_multiplier, multiplier_grid, split_norms
from hartreelab.norms import _norms_from_raw_fft

from conftest import band_mask, in_band_coefficients

TWO_PI = 2.0 * np.pi


def one_field(grid, rng, cutoff):
    """One band-limited field, drawn the way a field-by-field loop draws it."""
    vals = scipy.fft.ifftn(in_band_coefficients(grid, rng, cutoff))
    peak = np.max(np.abs(vals))
    return vals / peak if peak > 0 else vals


def wiener(mag, grid):
    d = grid.d
    return grid.dxi**d * TWO_PI ** (-d / 2) * grid.dx**d * float(np.sum(mag))


def algebra_report(f, g, grid, slack=1e-10):
    """(lhs, rhs, holds) of the algebra bound for one pair, one field at a time."""
    cutoff = grid.points // 4 - 1
    rhs = 1.0
    for h in (f, g):
        mag = np.abs(scipy.fft.fftn(h))
        assert mag[~band_mask(grid, cutoff)].sum() <= 1e-12 * mag.sum()
        rhs *= wiener(mag, grid)
    lhs = wiener(np.abs(scipy.fft.fftn(f * g)), grid)
    return lhs, rhs, lhs <= rhs * (1 + slack)


def hartree_report(spec, h, grid, slack=1e-6):
    """(lhs, rhs, holds) of the Hartree bound for one density."""
    k1_l1, k2_sup = split_norms(spec)
    mag = np.abs(scipy.fft.fftn(h))
    lhs = wiener(TWO_PI ** (grid.d / 2) * np.abs(multiplier_grid(spec, grid)) * mag, grid)
    l1 = float(grid.dx**grid.d * np.sum(np.abs(h)))
    rhs = k1_l1 * l1 + k2_sup * wiener(mag, grid)
    return lhs, rhs, lhs <= rhs * (1 + slack)


GRIDS = [Grid(d=1, length=32.0, points=256), Grid(d=2, length=8.0, points=32)]


class TestStackedCampaigns:
    @pytest.mark.parametrize("grid", GRIDS, ids=["1d_256", "2d_32x32"])
    def test_algebra_reports_match_per_field_loop(self, grid):
        pairs = grid.block_rows + 5  # one full block and one partial
        got = list(_algebra_campaign(grid, np.random.default_rng(11), pairs))
        rng, cutoff = np.random.default_rng(11), grid.points // 4 - 1
        ref = [algebra_report(one_field(grid, rng, cutoff), one_field(grid, rng, cutoff), grid)
               for _ in range(pairs)]
        assert [(r.lhs, r.rhs, r.holds) for r in got] == ref

    @pytest.mark.parametrize("grid", GRIDS, ids=["1d_256", "2d_32x32"])
    def test_hartree_reports_match_per_field_loop(self, grid):
        spec = KernelSpec(d=grid.d, gamma=0.5)
        count = grid.block_rows + 5
        got = list(_hartree_campaign(spec, grid, np.random.default_rng(12), count))
        assert len(got) == count
        rng = np.random.default_rng(12)
        for rep in got:
            base = one_field(grid, rng, max(2, grid.points // 16))
            density = (np.abs(base) ** 2 * _density_envelope(grid)).astype(np.complex128)
            lhs, rhs, holds = hartree_report(spec, density, grid)
            assert rep.holds == holds
            assert rep.lhs == pytest.approx(lhs, rel=1e-14, abs=0)
            assert rep.rhs == pytest.approx(rhs, rel=1e-14, abs=0)

    @pytest.mark.parametrize("count", [1, 8, 9, 20])
    def test_campaign_transforms_scale_as_blocks(self, fft_calls, count):
        grid = Grid(d=1, length=32.0, points=8192)
        assert grid.block_rows == 8
        blocks = math.ceil(count / grid.block_rows)
        rng = np.random.default_rng(0)
        # per block: the draw's inverse, the factors' forward, the products'
        list(_algebra_campaign(grid, rng, count))
        assert len(fft_calls) == 3 * blocks
        fft_calls.clear()
        # per block: the draw's inverse, the densities' forward
        list(_hartree_campaign(KernelSpec(d=1, gamma=0.5), grid, rng, count))
        assert len(fft_calls) == 2 * blocks

    def test_validate_campaign_transforms_scale_as_blocks(self, fft_calls, tmp_path):
        grid = Grid(d=1, length=32.0, points=1024)
        prof = GaussianProfile(amplitude=1.0, center=(0.0,), width=1.0)
        cfg = SweepConfig(
            grid=grid, kernel=KernelSpec(d=1, gamma=0.5),
            family=ModeFamily.from_profiles(grid, [([-2.0], prof), ([2.0], prof)], gamma=0.5),
            epsilons=(0.2, 0.1), final_time=0.2, sample_times=(0.1, 0.2),
            output=str(tmp_path / "out"),
        )
        rows = grid.block_rows
        validate_suite(cfg, algebra_pairs=rows, hartree_pairs=rows)
        base = len(fft_calls)
        fft_calls.clear()
        validate_suite(cfg, algebra_pairs=3 * rows + 1, hartree_pairs=2 * rows)
        # 4 algebra blocks instead of 1, 2 Hartree blocks instead of 1
        assert len(fft_calls) - base == 3 * 3 + 2 * 1


class TestBlockRows:
    @pytest.mark.parametrize("d, points, rows", [(1, 256, 256), (1, 8192, 8),
                                                 (2, 32, 64), (2, 256, 1), (2, 512, 1),
                                                 (3, 64, 1)])
    def test_rows_within_byte_budget(self, d, points, rows):
        assert Grid(d=d, length=16.0, points=points).block_rows == rows


def per_node_picard(u0, spec, eps, horizon, tol, max_iter, nodes):
    """The node-by-node Fourier-space Picard loop on Simpson panels: one
    source (four FFTs) per node and iteration, in the arithmetic of
    `picard_evolve`.  Returns (state spectrum at the horizon, iterations)."""
    g = u0.grid
    h = horizon / nodes
    khat_half = half_multiplier(spec, g, spec.coupling)
    u_half = np.exp(-0.5j * eps * h * g.freq_norm_sq())
    u_full, u_back = u_half**2, np.conj(u_half)

    def source(raw):
        state = scipy.fft.ifftn(raw)
        state *= convolve(khat_half, state.real**2 + state.imag**2)
        return scipy.fft.fftn(state, overwrite_x=True)

    raw0 = scipy.fft.fftn(u0.values)
    current = [raw0]
    for _ in range(nodes):
        current.append(current[-1] * u_half)
    q0 = source(raw0)
    prev_inc, streak = None, 0
    for iteration in range(1, max_iter + 1):
        free = raw0
        integral = np.zeros(g.shape, dtype=np.complex128)
        q_even = q0
        inc = 0.0
        for i in range(1, nodes + 1, 2):
            q_mid, q_end = source(current[i]), source(current[i + 1])
            uq = u_half * q_even
            free_mid = free * u_half
            free = free_mid * u_half
            mid = u_half * integral + (h / 12) * (5 * uq + 8 * q_mid - u_back * q_end)
            integral = u_full * integral + (h / 3) * (u_half * (uq + 4 * q_mid) + q_end)
            q_even = q_end
            for j, new in ((i, free_mid - 1j * mid), (i + 1, free - 1j * integral)):
                inc = max(inc, sum(_norms_from_raw_fft(new - current[j], g)))
                current[j] = new
        if inc < tol:
            return scipy.fft.ifftn(current[-1]), iteration
        if prev_inc is not None and inc > prev_inc:
            streak += 1
            if streak >= 3:
                raise PicardConvergenceError("not contracting")
        else:
            streak = 0
        prev_inc = inc
    raise PicardConvergenceError("no convergence")


class TestPicardBlocks:
    @pytest.mark.parametrize("nodes", [128, 70])  # 70: one full block and a partial one
    def test_blocked_nodes_match_per_node_loop(self, fft_calls, kernel1d, nodes):
        grid = Grid(d=1, length=32.0, points=1024)
        assert grid.block_rows == 64
        x = grid.axis_coords()
        eps, horizon = 0.1, 0.01
        u0 = Field(grid, np.exp(-x**2 / 2) * np.exp(1j * 2.0 * x / eps))
        fixed = picard_evolve(u0, kernel1d, eps=eps, horizon=horizon, tol=1e-12,
                              nodes=nodes)
        blocked_calls = len(fft_calls)
        ref, iterations = per_node_picard(u0, kernel1d, eps, horizon, 1e-12, 60, nodes)
        assert np.array_equal(fixed.values, ref)
        # data forward, node-0 source, four per block and iteration, final inverse
        blocks = math.ceil(nodes / grid.block_rows)
        assert blocked_calls == 1 + 4 + 4 * blocks * iterations + 1

    @pytest.mark.parametrize("block_rows, rows", [(1, 2), (3, 2), (5, 4)])
    def test_blocks_hold_whole_panels(self, fft_calls, monkeypatch, kernel1d,
                                      block_rows, rows):
        # an odd row budget rounds down to whole panels, never below one panel
        grid = Grid(d=1, length=32.0, points=256)
        monkeypatch.setattr(grid_module, "BLOCK_BYTES", 16 * grid.total_points * block_rows)
        assert grid.block_rows == block_rows
        x = grid.axis_coords()
        eps, horizon, nodes = 0.5, 0.05, 10
        u0 = Field(grid, np.exp(-x**2 / 2) * np.exp(1j * x / eps))
        fixed = picard_evolve(u0, kernel1d, eps=eps, horizon=horizon, tol=1e-12,
                              nodes=nodes)
        blocked_calls = len(fft_calls)
        ref, iterations = per_node_picard(u0, kernel1d, eps, horizon, 1e-12, 60, nodes)
        assert np.array_equal(fixed.values, ref)
        blocks = math.ceil(nodes / rows)
        assert blocked_calls == 1 + 4 + 4 * blocks * iterations + 1
