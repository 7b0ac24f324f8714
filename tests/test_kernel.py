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
    Grid,
    KernelSpec,
    hartree_constant,
    hartree_constant_oracle,
    split_norms,
    zero_mode_value,
)
from hartreelab.grid import TWO_PI
from hartreelab.kernel import _khat, convolve, half_multiplier

from oracles import _CELL_NODES, _singular_cell_mass, convolve_direct, multiplier_grid
from oracles import lattice_wavenumber, plane_wave


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
    GRIDS = [(1, 8192), (1, 256), (2, 512), (2, 256), (2, 32), (3, 64), (3, 16)]

    def test_zero_density(self, kernel1d, grid1d):
        out = convolve(half_multiplier(kernel1d, grid1d), np.zeros(grid1d.shape))
        assert np.all(out == 0)

    def test_plane_wave_eigenfunction(self, kernel1d, grid1d):
        # the multiplier is even, so cos(k0 x) shares the eigenvalue of exp(i k0 x)
        f = plane_wave(grid1d, lattice_wavenumber(grid1d, 14)).real
        out = convolve(half_multiplier(kernel1d, grid1d), f.copy())
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

    @pytest.mark.parametrize("layout", ["own_spectrum", "row_padded", "stack"])
    @pytest.mark.parametrize("d, points", GRIDS)
    def test_matches_irfftn_bitwise(self, d, points, layout):
        # K * rho written over rho, on each layout a caller hands in: a fresh
        # density (its spectrum made by the call), the [..., :N] view of a
        # row-padded buffer (the stepper) and a (2, *shape) stack (Picard).
        # The complex passes run in place in rfftn's and irfftn's order and
        # the real ones over blocks of rows, so the result is numpy's bit
        # for bit
        grid = Grid(d=d, length=8.0, points=points)
        khat_half = half_multiplier(KernelSpec(d=d, gamma=0.5), grid)
        shape = (2, *grid.shape) if layout == "stack" else grid.shape
        half_shape = (*shape[:-1], points // 2 + 1)
        spectrum = None
        if layout == "row_padded":
            rho = np.zeros((*shape[:-1], points + 1))[..., :points]
            spectrum = np.empty(half_shape, dtype=np.complex128)
        else:
            rho = np.empty(shape)
        rho[...] = np.random.default_rng(26).standard_normal(shape)
        axes = tuple(range(-d, 0))
        want = np.fft.irfftn(np.fft.rfftn(rho, axes=axes) * khat_half, grid.shape, axes)
        assert convolve(khat_half, rho, spectrum) is rho
        assert np.array_equal(rho, want)
        if spectrum is None or grid.total_points < 256**2:
            return
        # warm: the transform plans are cached; what is left is at most
        # numpy's fixed casting buffer for the multiplier product (128 KiB),
        # where a half spectrum would be half a field
        tracemalloc.start()
        try:
            convolve(khat_half, rho, spectrum)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < spectrum.nbytes // 2

    @staticmethod
    def _in_pair(d, points):
        # the density in the second float64 half of a complex field, the
        # half spectrum in the field itself (the record's remainder)
        grid = Grid(d=d, length=8.0, points=points)
        khat_half = half_multiplier(KernelSpec(d=d, gamma=0.5), grid)
        buf = np.empty(grid.shape, dtype=np.complex128)
        rho = buf.view(np.float64).reshape(2, *grid.shape)[1]
        half_shape = (*grid.shape[:-1], points // 2 + 1)
        spectrum = buf.reshape(-1)[: math.prod(half_shape)].reshape(half_shape)
        return khat_half, buf, rho, spectrum

    @pytest.mark.parametrize("d, points", GRIDS)
    def test_in_pair_matches_convolve_bitwise(self, d, points):
        # the spectrum overwrites the field while rho is still read from it:
        # the result is still numpy's bit for bit
        khat_half, buf, rho, spectrum = self._in_pair(d, points)
        rho[...] = np.random.default_rng(26).standard_normal(rho.shape)
        axes = tuple(range(-d, 0))
        want = np.fft.irfftn(np.fft.rfftn(rho, axes=axes) * khat_half, rho.shape, axes)
        assert convolve(khat_half, rho, spectrum) is rho
        assert np.shares_memory(rho, buf)
        assert np.array_equal(rho, want)

    @pytest.mark.parametrize("d, points", [(2, 256), (3, 64)])
    def test_in_pair_allocates_no_half_spectrum(self, d, points):
        # warm: what is left is numpy's fixed 128 KiB buffer, an eighth of a
        # 256^2 field or less; a half spectrum would be half a field
        khat_half, buf, rho, spectrum = self._in_pair(d, points)
        rho[...] = 1.0
        convolve(khat_half, rho, spectrum)
        tracemalloc.start()
        try:
            convolve(khat_half, rho, spectrum)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < buf.nbytes // 4

    def test_density_without_a_row_view_raises(self):
        # a transposed 3-D density cannot be viewed as rows: convolving a
        # copy would leave rho as it was
        grid = Grid(d=3, length=8.0, points=16)
        khat_half = half_multiplier(KernelSpec(d=3, gamma=0.5), grid)
        rho = np.random.default_rng(27).standard_normal(grid.shape).T
        before = rho.copy()
        with pytest.raises(ValueError, match="copy"):
            convolve(khat_half, rho)
        assert np.array_equal(rho, before)

    def test_positivity_on_nonnegative_density(self, kernel1d, grid1d):
        x = grid1d.axis_coords()
        out = convolve(half_multiplier(kernel1d, grid1d), np.exp(-x**2))
        assert out.min() >= -1e-8 * out.max()

    def test_agreement_with_direct_oracle(self):
        # reference comparison: 1D, gamma = 0.5, rho = exp(-x^2/2), N = 256
        grid = Grid(d=1, length=64.0, points=256)
        spec = KernelSpec(d=1, gamma=0.5)
        x = grid.axis_coords()
        rho = np.exp(-x**2 / 2)
        fast = convolve(half_multiplier(spec, grid), rho.copy())
        direct = convolve_direct(spec, rho, grid).real
        rel = np.max(np.abs(fast - direct)) / np.max(np.abs(fast))
        assert rel < 1e-3


class TestConvolveDirect:
    def test_zero_density(self, kernel1d):
        grid = Grid(d=1, length=64.0, points=256)
        out = convolve_direct(kernel1d, np.zeros(grid.shape), grid)
        assert np.max(np.abs(out)) < 1e-14

    def test_symmetric_density_symmetric_output(self, kernel1d):
        grid = Grid(d=1, length=64.0, points=256)
        x = grid.axis_coords()
        out = convolve_direct(kernel1d, np.exp(-x**2), grid).real
        # x = 0 sits at index N/2; mirror indices pair as i <-> N-i
        mirrored = np.roll(out[::-1], 1)
        assert np.max(np.abs(out - mirrored)) < 1e-10 * np.max(np.abs(out))

    def test_self_convergence_as_grid_refines(self, kernel1d):
        spec = KernelSpec(d=1, gamma=0.5)
        errs = []
        for n in (256, 512):
            grid = Grid(d=1, length=64.0, points=n)
            x = grid.axis_coords()
            rho = np.exp(-x**2 / 2)
            fast = convolve(half_multiplier(spec, grid), rho.copy())
            direct = convolve_direct(spec, rho, grid).real
            errs.append(np.max(np.abs(fast - direct)) / np.max(np.abs(fast)))
        assert errs[0] / errs[1] >= 2.0

    def test_cost_guard(self, kernel1d):
        grid = Grid(d=1, length=64.0, points=2**17)
        with pytest.raises(ValueError, match="guard"):
            convolve_direct(kernel1d, np.zeros(grid.shape), grid)

    def test_2d_agreement(self):
        grid = Grid(d=2, length=24.0, points=64)
        spec = KernelSpec(d=2, gamma=0.5)
        xs, ys = grid.coords()
        rho = np.exp(-(xs**2 + ys**2) / 2)
        fast = convolve(half_multiplier(spec, grid), rho.copy())
        direct = convolve_direct(spec, rho, grid).real
        rel = np.max(np.abs(fast - direct)) / np.max(np.abs(fast))
        assert rel < 5e-3


def half_khat(spec, grid):
    """Khat on the half spectrum [..., :N/2 + 1] of a real transform."""
    *lead, last = grid.freq_meshes()
    return _khat(spec, grid, (*lead, last[..., : grid.points // 2 + 1]))


class TestMultiplierGrid:
    def test_memoized_and_read_only(self, kernel1d, grid1d):
        # the scaled half-spectrum multiplier is memoized per scale; the full
        # lattice is made per call and agrees with the half on its columns
        scaled = half_multiplier(kernel1d, grid1d)
        assert half_multiplier(kernel1d, grid1d, 1) is scaled
        assert half_multiplier(kernel1d, grid1d, 2.0) is not scaled
        with pytest.raises(ValueError, match="read-only"):
            scaled[0] = 1.0
        khat = half_khat(kernel1d, grid1d)
        assert np.array_equal(scaled, TWO_PI ** 0.5 * khat)
        full = multiplier_grid(kernel1d, grid1d)
        assert np.array_equal(full[: grid1d.points // 2 + 1], khat)

    def test_negated_multiplier_is_the_negative_scale(self, grid1d):
        # the snapshot's phases negate the lambda multiplier in place of a
        # memoized -lambda one; IEEE products are sign-symmetric
        for lam in (1.0, 0.3, 2.5):
            spec = KernelSpec(d=1, gamma=0.5, coupling=lam)
            want = (-lam * TWO_PI ** 0.5) * half_khat(spec, grid1d)
            got = np.negative(half_multiplier(spec, grid1d, lam))
            assert want.tobytes() == got.tobytes()

    def test_rejects_dimension_mismatch(self, grid1d):
        with pytest.raises(ValueError, match="2D"):
            half_multiplier(KernelSpec(d=2, gamma=0.5), grid1d)


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


def test_import_loads_no_test_only_code():
    # the oracles live under tests/, and the names only tests called are
    # gone, as are the Field type and its norm wrappers
    src = str(Path(hartreelab.__file__).resolve().parents[1])
    tests = Path(__file__).resolve().parent
    script = (
        "import sys, hartreelab\n"
        "from hartreelab import cli, config, grid, harness, kernel, norms, solver, wkb\n"
        "mods = (hartreelab, cli, config, grid, harness, kernel, norms, solver, wkb)\n"
        "gone = ('SpectralField', 'forward_transform', 'inverse_transform', "
        "'spectral_l2_norm', 'NormReport', 'norm_report', 'eikonal_phase', "
        "'convolve_direct', 'multiplier_grid', 'spectral_derivative', "
        "'free_propagator', 'l1_norm', 'read_records_csv', 'action_phase_quadrature', "
        "'Field', 'l2_norm', 'wiener_norm', 'l2w_norm')\n"
        "print([n for m in mods for n in gone if hasattr(m, n)])\n"
        f"print([n for n, m in sys.modules.items() if str(getattr(m, '__file__', None))"
        f".startswith({str(tests)!r})])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(tests)]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, cwd=tests.parent)
    assert out.stdout.split("\n")[:2] == ["[]", "[]"]


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
        "        grid, [([-1.0], prof), ([1.0], prof)])\n"
        "    return hl.SweepConfig(grid=grid, kernel=kernel, family=family,\n"
        "                          epsilons=(0.4, 0.2), final_time=0.2,\n"
        "                          sample_times=(0.1, 0.2))\n"
        "assert len(hl.run_sweep(config(256)).records) == 4\n"
        "grid = hl.Grid(d=2, length=16.0, points=64)\n"
        "prof2 = hl.GaussianProfile(amplitude=1.0, center=(0.0, 0.0), width=0.75)\n"
        "family = hl.ModeFamily.from_profiles(\n"
        "    grid, [([-2.0, 0.0], prof2), ([0.0, 2.0], prof2)])\n"
        "assert len(hl.snapshot(family, 0.5, hl.KernelSpec(d=2, gamma=0.5))) == 2\n"
        "checks = hl.validate_suite(config(1024), algebra_pairs=3, hartree_pairs=3)\n"
        "assert all(c.passed for c in checks.values())\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, cwd=root)
    assert out.stdout.strip() == "[]"


def test_single_thread_sweep_loads_no_pool_or_polynomial_modules():
    # a sweep at one thread makes no pool, and only the quadrature of
    # `validate` and the oracles reads Gauss-Legendre nodes
    src = str(Path(hartreelab.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "import hartreelab as hl\n"
        "grid = hl.Grid(d=1, length=32.0, points=256)\n"
        "prof = hl.GaussianProfile(amplitude=1.0, center=(0.0,), width=1.0)\n"
        "family = hl.ModeFamily.from_profiles(grid, [([-1.0], prof), ([1.0], prof)])\n"
        "cfg = hl.SweepConfig(grid=grid, kernel=hl.KernelSpec(d=1, gamma=0.5),\n"
        "                     family=family, epsilons=(0.4, 0.2), final_time=0.2,\n"
        "                     sample_times=(0.1, 0.2), threads=1)\n"
        "assert len(hl.run_sweep(cfg).records) == 4\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('concurrent', 'numpy.polynomial'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, cwd=Path(src).parent)
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
        "from hartreelab import Grid, KernelSpec\n"
        "from oracles import convolve_direct\n"
        f"cfg = hartreelab.load_config({str(root / 'configs' / 'reference_1d.json')!r})\n"
        "hartreelab.validate_suite(cfg, seed=0)\n"
        "grid = Grid(d=2, length=8.0, points=16)\n"
        "xs, ys = grid.coords()\n"
        "convolve_direct(KernelSpec(d=2, gamma=1.0), np.exp(-(xs**2 + ys**2)), grid)\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    tests = str(Path(__file__).resolve().parent)  # where `oracles` lives
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, cwd=root)
    assert out.stdout.strip() == "False"
