import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import hartreelab
from hartreelab import (
    Field,
    Grid,
    KernelSpec,
    convolve_direct,
    hartree_constant,
    hartree_constant_oracle,
    split_norms,
    zero_mode_value,
)
from hartreelab.kernel import (
    _CELL_NODES,
    _singular_cell_mass,
    convolve,
    half_multiplier,
    multiplier_grid,
)

from conftest import lattice_wavenumber, plane_wave


class TestHartreeConstant:
    def test_rejects_gamma_outside_range(self):
        with pytest.raises(ValueError, match="gamma"):
            hartree_constant(1, 1.5)
        with pytest.raises(ValueError, match="gamma"):
            hartree_constant(2, 0.0)

    def test_half_power_is_self_dual_in_1d(self):
        assert hartree_constant(1, 0.5) == pytest.approx(1.0, rel=1e-14)

    def test_coulomb_3d(self):
        assert hartree_constant(3, 1.0) == pytest.approx(
            math.sqrt(2 / math.pi), rel=1e-14
        )

    def test_2d_unit(self):
        assert hartree_constant(2, 1.0) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize(
        "d,gamma",
        [(1, 0.25), (1, 0.5), (1, 0.75), (2, 0.5), (2, 1.0), (3, 0.5), (3, 1.0), (3, 2.0)],
    )
    def test_oracle_agreement(self, d, gamma):
        formula = hartree_constant(d, gamma)
        oracle = hartree_constant_oracle(d, gamma)
        assert abs(formula - oracle) / oracle < 1e-8

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_oracle_matches_formula_to_rounding(self, d):
        # series head + Gauss-Legendre tail against the Gamma form, out to
        # both ends of (0, d)
        for gamma in [0.01, *np.linspace(0.1, d - 0.1, 12), d - 0.01]:
            formula = hartree_constant(d, gamma)
            oracle = hartree_constant_oracle(d, gamma)
            assert abs(formula - oracle) / formula < 1e-12, gamma


class TestSingularCellMass:
    @pytest.mark.parametrize("dx", [0.05, 0.375, 1.0])
    def test_2d_coulomb_closed_form(self, dx):
        # gamma = 1: the integral of 1/|z| over a square of half-width a is
        # 8 a ln(1 + sqrt 2)
        exact = 8 * (dx / 2) * math.log(1 + math.sqrt(2))
        assert abs(_singular_cell_mass(2, 1.0, dx) - exact) / exact < 1e-14

    @pytest.mark.parametrize("gamma", [0.25, 1.5])
    def test_2d_matches_refined_rule(self, gamma):
        dx = 0.375
        a = dx / 2
        nodes, weights = np.polynomial.legendre.leggauss(4 * _CELL_NODES)
        theta = (math.pi / 8) * (nodes + 1)
        wedge = (math.pi / 8) * np.dot(weights, (a / np.cos(theta)) ** (2 - gamma))
        reference = 8 * wedge / (2 - gamma)
        assert abs(_singular_cell_mass(2, gamma, dx) - reference) / reference < 1e-14


class TestKernelSpec:
    def test_autofills_constant(self):
        spec = KernelSpec(d=1, gamma=0.5)
        assert spec.c_const == pytest.approx(1.0, rel=1e-14)

    def test_rejects_gamma_at_dimension(self):
        with pytest.raises(ValueError, match="gamma"):
            KernelSpec(d=2, gamma=2.0)


class TestMultiplier:
    # on a box of length 2 pi / dxi the lattice frequency at index k is k dxi
    def test_unit_frequency(self, kernel1d):
        grid = Grid(d=1, length=2 * np.pi, points=16)
        assert multiplier_grid(kernel1d, grid)[1] == pytest.approx(1.0)

    def test_power_decay(self, kernel1d):
        grid = Grid(d=1, length=2 * np.pi, points=16)
        assert multiplier_grid(kernel1d, grid)[4] == pytest.approx(0.5)

    def test_3d_value(self):
        spec = KernelSpec(d=3, gamma=1.0)
        got = multiplier_grid(spec, Grid(d=3, length=2 * np.pi, points=8))[2, 0, 0]
        assert got == pytest.approx(hartree_constant(3, 1.0) / 4, rel=1e-12)

    def test_scaling_homogeneity(self, kernel1d):
        khat = multiplier_grid(kernel1d, Grid(d=1, length=200 * np.pi, points=4096))
        for c in (2.0, 3.7, 10.0):
            lhs = khat[round(c * 130)]
            rhs = c ** (kernel1d.gamma - kernel1d.d) * khat[130]
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestSplitNorms:
    def test_1d_closed_form(self, kernel1d):
        k1, k2 = split_norms(kernel1d)
        assert k1 == pytest.approx(4.0, rel=1e-12)
        assert k2 == pytest.approx(1.0, rel=1e-12)

    def test_3d_closed_form(self):
        spec = KernelSpec(d=3, gamma=1.0)
        k1, k2 = split_norms(spec)
        assert k1 == pytest.approx(hartree_constant(3, 1.0) * 4 * math.pi, rel=1e-12)
        assert k2 == pytest.approx(hartree_constant(3, 1.0), rel=1e-12)

    @pytest.mark.parametrize("d,gamma", [(1, 0.5), (2, 0.5), (3, 1.0)])
    def test_radial_quadrature_consistency(self, d, gamma):
        spec = KernelSpec(d=d, gamma=gamma)
        k1, _ = split_norms(spec)
        surface = {1: 2.0, 2: 2 * math.pi, 3: 4 * math.pi}[d]
        val, _ = integrate.quad(
            lambda r: surface * r ** (d - 1) * spec.c_const * r ** (gamma - d),
            0.0,
            1.0,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        assert abs(val - k1) / k1 < 1e-6


class TestConvolve:
    def test_zero_density(self, kernel1d, grid1d):
        out = convolve(half_multiplier(kernel1d, grid1d), np.zeros(grid1d.shape))
        assert np.all(out == 0)

    def test_plane_wave_eigenfunction(self, kernel1d, grid1d):
        # the multiplier is even, so cos(k0 x) shares the eigenvalue of exp(i k0 x)
        f = plane_wave(grid1d, lattice_wavenumber(grid1d, 14)).values.real
        out = convolve(half_multiplier(kernel1d, grid1d), f)
        expected = (2 * np.pi) ** 0.5 * multiplier_grid(kernel1d, grid1d)[14] * f
        assert np.max(np.abs(out - expected)) < 1e-12 * np.max(np.abs(expected))

    def test_real_density_real_output(self, kernel1d, grid1d):
        # full-lattice complex route: an even multiplier keeps K * rho real,
        # and the half-spectrum route returns its real part
        rng = np.random.default_rng(23)
        rho = np.abs(rng.standard_normal(grid1d.shape))
        full = np.fft.ifftn(
            np.fft.fftn(rho) * (2 * np.pi) ** 0.5 * multiplier_grid(kernel1d, grid1d)
        )
        assert np.max(np.abs(full.imag)) < 1e-12 * np.max(np.abs(full))
        out = convolve(half_multiplier(kernel1d, grid1d), rho)
        assert np.max(np.abs(out - full.real)) < 1e-12 * np.max(np.abs(full))

    @pytest.mark.parametrize("d, points, lead", [(2, 64, (2,)), (3, 16, ())])
    def test_stacked_multi_axis_matches_irfftn(self, d, points, lead):
        # the complex passes run in place, in irfftn's order, so the result
        # is irfftn's bit for bit
        grid = Grid(d=d, length=8.0, points=points)
        khat_half = half_multiplier(KernelSpec(d=d, gamma=0.5), grid)
        rho = np.random.default_rng(24).standard_normal((*lead, *grid.shape))
        axes = tuple(range(-d, 0))
        ref = np.fft.irfftn(np.fft.rfftn(rho, axes=axes) * khat_half, grid.shape, axes)
        assert np.array_equal(convolve(khat_half, rho), ref)

    def test_inverse_allocates_no_half_spectrum(self):
        # warm: the transform plans are cached; what is left is at most
        # numpy's fixed casting buffer for the multiplier product (128 KiB)
        grid = Grid(d=2, length=8.0, points=256)
        khat_half = half_multiplier(KernelSpec(d=2, gamma=0.5), grid)
        rho = np.random.default_rng(25).standard_normal(grid.shape)
        out = np.empty(grid.shape)
        spectrum = np.empty(khat_half.shape, dtype=np.complex128)
        convolve(khat_half, rho, out=out, spectrum=spectrum)
        tracemalloc.start()
        try:
            convolve(khat_half, rho, out=out, spectrum=spectrum)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < spectrum.nbytes // 2

    def test_positivity_on_nonnegative_density(self, kernel1d, grid1d):
        x = grid1d.axis_coords()
        out = convolve(half_multiplier(kernel1d, grid1d), np.exp(-x**2))
        assert out.min() >= -1e-8 * out.max()

    def test_agreement_with_direct_oracle(self):
        # reference comparison: 1D, gamma = 0.5, rho = exp(-x^2/2), N = 256
        grid = Grid(d=1, length=64.0, points=256)
        spec = KernelSpec(d=1, gamma=0.5)
        x = grid.axis_coords()
        rho = Field(grid, np.exp(-x**2 / 2))
        fast = convolve(half_multiplier(spec, grid), rho.values.real)
        direct = convolve_direct(spec, rho).values.real
        rel = np.max(np.abs(fast - direct)) / np.max(np.abs(fast))
        assert rel < 1e-3


class TestConvolveDirect:
    def test_zero_density(self, kernel1d):
        grid = Grid(d=1, length=64.0, points=256)
        out = convolve_direct(kernel1d, Field(grid, np.zeros(grid.shape)))
        assert np.max(np.abs(out.values)) < 1e-14

    def test_symmetric_density_symmetric_output(self, kernel1d):
        grid = Grid(d=1, length=64.0, points=256)
        x = grid.axis_coords()
        rho = Field(grid, np.exp(-x**2))
        out = convolve_direct(kernel1d, rho).values.real
        # x = 0 sits at index N/2; mirror indices pair as i <-> N-i
        mirrored = np.roll(out[::-1], 1)
        assert np.max(np.abs(out - mirrored)) < 1e-10 * np.max(np.abs(out))

    def test_self_convergence_as_grid_refines(self, kernel1d):
        spec = KernelSpec(d=1, gamma=0.5)
        errs = []
        for n in (256, 512):
            grid = Grid(d=1, length=64.0, points=n)
            x = grid.axis_coords()
            rho = Field(grid, np.exp(-x**2 / 2))
            fast = convolve(half_multiplier(spec, grid), rho.values.real)
            direct = convolve_direct(spec, rho).values.real
            errs.append(np.max(np.abs(fast - direct)) / np.max(np.abs(fast)))
        assert errs[0] / errs[1] >= 2.0

    def test_cost_guard(self, kernel1d):
        grid = Grid(d=1, length=64.0, points=2**17)
        rho = Field(grid, np.zeros(grid.shape))
        with pytest.raises(ValueError, match="guard"):
            convolve_direct(kernel1d, rho)

    def test_2d_agreement(self):
        grid = Grid(d=2, length=24.0, points=64)
        spec = KernelSpec(d=2, gamma=0.5)
        xs, ys = grid.coords()
        rho = Field(grid, np.exp(-(xs**2 + ys**2) / 2))
        fast = convolve(half_multiplier(spec, grid), rho.values.real)
        direct = convolve_direct(spec, rho).values.real
        rel = np.max(np.abs(fast - direct)) / np.max(np.abs(fast))
        assert rel < 5e-3


class TestMultiplierGrid:
    def test_memoized_and_read_only(self, kernel1d, grid1d):
        khat = multiplier_grid(kernel1d, grid1d)
        assert multiplier_grid(kernel1d, grid1d) is khat
        with pytest.raises(ValueError, match="read-only"):
            khat[0] = 1.0

    def test_rejects_dimension_mismatch(self, grid1d):
        with pytest.raises(ValueError, match="2D"):
            multiplier_grid(KernelSpec(d=2, gamma=0.5), grid1d)


class TestZeroMode:
    def test_regularized_value_formula(self, kernel1d, grid1d):
        expected = (
            kernel1d.c_const
            * (kernel1d.d / kernel1d.gamma)
            * (grid1d.dxi / 2) ** (kernel1d.gamma - kernel1d.d)
        )
        assert zero_mode_value(kernel1d, grid1d) == pytest.approx(expected, rel=1e-14)

    def test_constant_density_response(self, kernel1d, grid1d):
        out = convolve(half_multiplier(kernel1d, grid1d), np.ones(grid1d.shape))
        expected = (2 * np.pi) ** 0.5 * zero_mode_value(kernel1d, grid1d)
        assert np.max(np.abs(out - expected)) < 1e-10 * abs(expected)


def test_import_and_load_leave_scipy_integrate_unloaded():
    # scipy.integrate pulls in scipy.optimize, sparse and linalg; only the
    # tests use it
    root = Path(__file__).resolve().parents[1]
    src = str(Path(hartreelab.__file__).resolve().parents[1])
    script = (
        "import sys, hartreelab\n"
        f"hartreelab.load_config({str(root / 'configs' / 'reference_2d.json')!r})\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, cwd=root)
    assert out.stdout.strip() == "False"


def test_import_sweep_and_validate_load_no_scipy():
    # every transform runs on numpy.fft, so a run loads no scipy module;
    # a plain `scipy.fft` import alone costs more than a 1-D sweep
    root = Path(__file__).resolve().parents[1]
    src = str(Path(hartreelab.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "import hartreelab as hl\n"
        f"hl.load_config({str(root / 'configs' / 'reference_2d.json')!r})\n"
        "prof = hl.GaussianProfile(amplitude=1.0, center=(0.0,), width=1.0)\n"
        "kernel = hl.KernelSpec(d=1, gamma=0.5, coupling=1.0)\n"
        "def config(points):\n"
        "    grid = hl.Grid(d=1, length=32.0, points=points)\n"
        "    family = hl.ModeFamily.from_profiles(\n"
        "        grid, [([-1.0], prof), ([1.0], prof)], gamma=0.5)\n"
        "    return hl.SweepConfig(grid=grid, kernel=kernel, family=family,\n"
        "                          epsilons=(0.4, 0.2), final_time=0.2,\n"
        "                          sample_times=(0.1, 0.2))\n"
        "assert len(hl.run_sweep(config(256)).records) == 4\n"
        "grid = hl.Grid(d=2, length=16.0, points=64)\n"
        "prof2 = hl.GaussianProfile(amplitude=1.0, center=(0.0, 0.0), width=0.75)\n"
        "family = hl.ModeFamily.from_profiles(\n"
        "    grid, [([-2.0, 0.0], prof2), ([0.0, 2.0], prof2)], gamma=0.5)\n"
        "assert len(hl.snapshot(family, 0.5, hl.KernelSpec(d=2, gamma=0.5)).amplitudes) == 2\n"
        "checks = hl.validate_suite(config(1024), algebra_pairs=3, hartree_pairs=3)\n"
        "assert all(c.passed for c in checks.values())\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, cwd=root)
    assert out.stdout.strip() == "[]"


def test_validate_and_direct_oracle_leave_scipy_integrate_unloaded():
    # the kernel-constant oracle and the 2-D singular cell run on numpy
    # quadrature, so neither a validate run nor the direct convolution
    # loads scipy.integrate
    root = Path(__file__).resolve().parents[1]
    src = str(Path(hartreelab.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import hartreelab\n"
        "from hartreelab import Field, Grid, KernelSpec, convolve_direct\n"
        f"cfg = hartreelab.load_config({str(root / 'configs' / 'reference_1d.json')!r})\n"
        "hartreelab.validate_suite(cfg, seed=0)\n"
        "grid = Grid(d=2, length=8.0, points=16)\n"
        "xs, ys = grid.coords()\n"
        "convolve_direct(KernelSpec(d=2, gamma=1.0), Field(grid, np.exp(-(xs**2 + ys**2))))\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, cwd=root)
    assert out.stdout.strip() == "False"
