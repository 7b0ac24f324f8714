"""Stacked transforms of the validation suite: the property campaigns run
in blocks of `Grid.block_rows` fields and give the numbers of the
field-by-field loops they replace; the Picard march evaluates the sources
of each Simpson panel's two nodes as one stack."""

import itertools
import math

import numpy as np
import pytest

from hartreelab import (
    GaussianProfile,
    Grid,
    KernelSpec,
    ModeFamily,
    SweepConfig,
    picard_evolve,
    validate_suite,
)
from hartreelab.harness import (
    _algebra_campaign,
    _density_envelope,
    _hartree_campaign,
    _random_band_limited,
    _random_smooth_density,
)
from hartreelab.kernel import split_norms
from hartreelab.norms import _algebra_bounds, _hartree_bounds

from oracles import (
    ALGEBRA_SLACK,
    HARTREE_SLACK,
    bound_rows,
    holds,
    in_band_coefficients,
    multiplier_grid,
)

TWO_PI = 2.0 * np.pi


def one_field(grid, rng, cutoff):
    """One band-limited field and its Wiener norm, drawn the way a
    field-by-field loop draws it: the norm is read off the drawn band."""
    coef = in_band_coefficients(grid, rng, cutoff)
    return np.fft.ifftn(coef), wiener(np.abs(coef[band_index(grid, cutoff)]), grid)


def band_index(grid, cutoff):
    """The band |k| <= cutoff of a lattice array, in the order it is drawn:
    k = 0..c, then -c..-1 on each axis."""
    inside = np.r_[0:cutoff + 1, grid.points - cutoff:grid.points]
    return np.ix_(*(inside,) * grid.d)


def wiener(mag, grid):
    d = grid.d
    return grid.dxi**d * TWO_PI ** (-d / 2) * grid.dx**d * float(np.sum(mag))


def algebra_report(f, g, grid):
    """(lhs, rhs, holds) of the algebra bound for one pair, one field at a
    time; each factor (values, norm) brings the norm of its drawn band."""
    (f, wf), (g, wg) = f, g
    lhs = wiener(np.abs(np.fft.fftn(f * g)), grid)
    rhs = wf * wg
    return lhs, rhs, holds(lhs, rhs, ALGEBRA_SLACK)


def hartree_report(spec, h, grid):
    """(lhs, rhs, holds) of the Hartree bound for one density."""
    k1_l1, k2_sup = split_norms(spec)
    mag = np.abs(np.fft.fftn(h))
    lhs = wiener(TWO_PI ** (grid.d / 2) * np.abs(multiplier_grid(spec, grid)) * mag, grid)
    l1 = float(grid.dx**grid.d * np.sum(np.abs(h)))
    rhs = k1_l1 * l1 + k2_sup * wiener(mag, grid)
    return lhs, rhs, holds(lhs, rhs, HARTREE_SLACK)


GRIDS = [Grid(d=1, length=32.0, points=256), Grid(d=2, length=8.0, points=32)]


class TestStackedCampaigns:
    @pytest.mark.parametrize("grid", GRIDS, ids=["1d_256", "2d_32x32"])
    def test_algebra_reports_match_per_field_loop(self, grid):
        pairs = grid.block_rows + 5  # one full block and one partial
        got = bound_rows(_algebra_campaign(grid, np.random.default_rng(11), pairs),
                         ALGEBRA_SLACK)
        rng, cutoff = np.random.default_rng(11), grid.points // 4 - 1
        ref = [algebra_report(one_field(grid, rng, cutoff), one_field(grid, rng, cutoff), grid)
               for _ in range(pairs)]
        assert got == ref

    @pytest.mark.parametrize("grid", GRIDS, ids=["1d_256", "2d_32x32"])
    def test_hartree_reports_match_per_field_loop(self, grid):
        spec = KernelSpec(d=grid.d, gamma=0.5)
        count = grid.block_rows + 5
        got = bound_rows(_hartree_campaign(spec, grid, np.random.default_rng(12), count),
                         HARTREE_SLACK)
        assert len(got) == count
        rng = np.random.default_rng(12)
        for got_lhs, got_rhs, got_holds in got:
            base, _ = one_field(grid, rng, max(2, grid.points // 16))
            density = (np.abs(base) ** 2 * _density_envelope(grid)).astype(np.complex128)
            lhs, rhs, holds = hartree_report(spec, density, grid)
            assert got_holds == holds
            assert got_lhs == pytest.approx(lhs, rel=1e-14, abs=0)
            assert got_rhs == pytest.approx(rhs, rel=1e-14, abs=0)

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
            family=ModeFamily.from_profiles(grid, [([-2.0], prof), ([2.0], prof)]),
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


SCALES = (1e-3, 7.5, 1e3)


def excesses(bounds):
    lhs, rhs = bounds
    return (lhs - rhs) / rhs


class TestHomogeneity:
    """Each bound has one degree on both sides, (1, 1) in the algebra pair
    and 1 in the density, so the campaigns' unscaled draws give the
    verdicts and relative excesses of any positive rescale of them."""

    @pytest.mark.parametrize("grid", GRIDS, ids=["1d_256", "2d_32x32"])
    def test_algebra_rows_keep_verdict_and_excess_under_factor_scales(self, grid):
        rows, cutoff = grid.block_rows, grid.points // 4 - 1
        pairs, w = _random_band_limited(grid, np.random.default_rng(21), cutoff, rows, 2)
        base = _algebra_bounds(pairs.copy(), w, grid)
        for a, b in itertools.product(SCALES, repeat=2):
            scale = np.array([a, b])
            scaled = _algebra_bounds(pairs * scale.reshape(2, *(1,) * grid.d), w * scale,
                                     grid)
            assert np.array_equal(holds(*scaled, ALGEBRA_SLACK), holds(*base, ALGEBRA_SLACK))
            assert np.max(np.abs(excesses(scaled) - excesses(base))) <= 1e-14

    @pytest.mark.parametrize("grid", GRIDS, ids=["1d_256", "2d_32x32"])
    def test_hartree_rows_keep_verdict_and_excess_under_density_scales(self, grid):
        spec = KernelSpec(d=grid.d, gamma=0.5)
        density = _random_smooth_density(grid, np.random.default_rng(22), grid.block_rows)
        base = _hartree_bounds(spec, density, grid)
        for c in SCALES:
            scaled = _hartree_bounds(spec, c * density, grid)
            assert np.array_equal(holds(*scaled, HARTREE_SLACK), holds(*base, HARTREE_SLACK))
            assert np.max(np.abs(excesses(scaled) - excesses(base))) <= 1e-14


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
        u0 = np.exp(-x**2 / 2) * np.exp(1j * 2.0 * x / eps)
        shapes = []
        for name in ("ifftn", "fftn"):
            def recorded(a, *args, _fn=getattr(np.fft, name), **kwargs):
                shapes.append(np.shape(a))
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, recorded)
        picard_evolve(u0, grid, kernel1d, eps=eps, horizon=horizon, tol=1e-12, nodes=nodes)
        panel = (2, grid.points)
        iterations = shapes.count(panel) // 2  # ifftn and fftn read a panel
        assert iterations >= nodes // 2  # at least one per panel
        # data forward, node-0 source, one quartet of axis passes per panel
        # iteration (the convolution's real passes over blocks of the
        # panel's rows), final inverse
        assert fft_calls.axis_passes() == 1 + 4 + 4 * iterations + 1
        quartet = ["ifftn", "rfft", "irfft", "fftn"]
        assert [name for name, _ in fft_calls.passes()] == (
            ["fftn"] + quartet + quartet * iterations + ["ifftn"])
        assert shapes[3:-1] == [panel, panel] * iterations
