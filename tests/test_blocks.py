"""Stacked transforms of the validation suite: the property campaigns run
in blocks of `Grid.block_rows` fields and give the numbers of the
field-by-field loops they replace; the Picard march evaluates the sources
of each Simpson panel's two nodes as one stack."""

import math

import numpy as np
import pytest

from hartreelab import (
    Field,
    GaussianProfile,
    Grid,
    KernelSpec,
    ModeFamily,
    SweepConfig,
    picard_evolve,
    validate_suite,
)
from hartreelab.harness import _algebra_campaign, _density_envelope, _hartree_campaign
from hartreelab.kernel import multiplier_grid, split_norms

from conftest import in_band_coefficients

TWO_PI = 2.0 * np.pi


def one_field(grid, rng, cutoff):
    """One band-limited field and its Wiener norm, drawn the way a
    field-by-field loop draws it: the norm is read off the drawn band."""
    coef = in_band_coefficients(grid, rng, cutoff)
    vals = np.fft.ifftn(coef)
    peak = np.max(np.abs(vals))
    scale = 1.0 / peak if peak > 0 else 1.0
    return vals * scale, wiener(np.abs(coef[band_index(grid, cutoff)]), grid) * scale


def band_index(grid, cutoff):
    """The band |k| <= cutoff of a lattice array, in the order it is drawn:
    k = 0..c, then -c..-1 on each axis."""
    inside = np.r_[0:cutoff + 1, grid.points - cutoff:grid.points]
    return np.ix_(*(inside,) * grid.d)


def wiener(mag, grid):
    d = grid.d
    return grid.dxi**d * TWO_PI ** (-d / 2) * grid.dx**d * float(np.sum(mag))


def algebra_report(f, g, grid, slack=1e-10):
    """(lhs, rhs, holds) of the algebra bound for one pair, one field at a
    time; each factor (values, norm) brings the norm of its drawn band."""
    (f, wf), (g, wg) = f, g
    lhs = wiener(np.abs(np.fft.fftn(f * g)), grid)
    rhs = wf * wg
    return lhs, rhs, lhs <= rhs * (1 + slack)


def hartree_report(spec, h, grid, slack=1e-6):
    """(lhs, rhs, holds) of the Hartree bound for one density."""
    k1_l1, k2_sup = split_norms(spec)
    mag = np.abs(np.fft.fftn(h))
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
            base, _ = one_field(grid, rng, max(2, grid.points // 16))
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
        # per block: the draw's inverse, the products' forward
        list(_algebra_campaign(grid, rng, count))
        assert len(fft_calls) == 2 * blocks
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
        assert len(fft_calls) - base == 2 * 3 + 2 * 1


class TestBlockRows:
    @pytest.mark.parametrize("d, points, rows", [(1, 256, 256), (1, 8192, 8),
                                                 (2, 32, 64), (2, 256, 1), (2, 512, 1),
                                                 (3, 64, 1)])
    def test_rows_within_byte_budget(self, d, points, rows):
        assert Grid(d=d, length=16.0, points=points).block_rows == rows


class TestPicardPanels:
    def test_each_iteration_is_one_stacked_source(self, fft_calls, monkeypatch, kernel1d):
        grid = Grid(d=1, length=32.0, points=1024)
        x = grid.axis_coords()
        eps, horizon, nodes = 0.1, 0.01, 32
        u0 = Field(grid, np.exp(-x**2 / 2) * np.exp(1j * 2.0 * x / eps))
        shapes = []
        for name in ("ifftn", "rfftn", "irfftn", "fftn"):
            def recorded(a, *args, _fn=getattr(np.fft, name), **kwargs):
                shapes.append(np.shape(a))
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, recorded)
        picard_evolve(u0, kernel1d, eps=eps, horizon=horizon, tol=1e-12, nodes=nodes)
        panel, half = (2, grid.points), (2, grid.points // 2 + 1)
        iterations = shapes.count(panel) // 3  # ifftn, rfftn and fftn read a panel
        assert iterations >= nodes // 2  # at least one per panel
        # data forward, node-0 source, one quartet per panel iteration, final inverse
        assert len(fft_calls) == 1 + 4 + 4 * iterations + 1
        quartet = ["ifftn", "rfftn", "irfftn", "fftn"]
        assert [fn.__name__ for fn in fft_calls] == (
            ["fftn"] + quartet + quartet * iterations + ["ifftn"])
        assert shapes[5:-1] == [panel, panel, half, panel] * iterations
