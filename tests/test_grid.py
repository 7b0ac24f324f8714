import tracemalloc

import numpy as np
import pytest

from hartreelab import (
    GaussianProfile,
    Grid,
    ModeFamily,
    TableProfile,
    sample_profile,
    translate,
)
from hartreelab.grid import CHUNK, plane_wave as separable_wave, unit_phase
from hartreelab.norms import _norms

from oracles import (
    from_unitary,
    l2_wiener,
    lattice_wavenumber,
    plane_wave,
    spectral_derivative,
)


class TestGridConstruction:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            Grid(d=4, length=1.0, points=16)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            Grid(d=1, length=1.0, points=100)

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError, match="length"):
            Grid(d=1, length=-2.0, points=16)

    def test_memory_guard(self):
        with pytest.raises(ValueError, match="guard"):
            Grid(d=3, length=1.0, points=1024)

    def test_frequency_lattice_is_shifted_arrangement(self, grid1d):
        k = np.rint(grid1d.axis_freqs() * grid1d.length / (2 * np.pi)).astype(int)
        assert k.min() == -grid1d.points // 2
        assert k.max() == grid1d.points // 2 - 1


class TestFieldValidation:
    """Amplitude samples from outside the package are checked where they
    enter, at `sample_profile`, which `ModeFamily.from_profiles` calls."""

    @staticmethod
    def rejected(grid, profile, match):
        with pytest.raises(ValueError, match=match):
            sample_profile(grid, profile)
        with pytest.raises(ValueError, match=match):
            ModeFamily.from_profiles(grid, [([1.0], profile)])

    def test_shape_mismatch(self, grid1d):
        self.rejected(grid1d, TableProfile(values=[0.0] * 7), "table length")

    def test_nonfinite_rejected(self, grid1d):
        table = [0.0] * grid1d.points
        table[3] = float("nan")
        self.rejected(grid1d, TableProfile(values=table), "finite")

    def test_values_immutable(self, two_mode_family):
        for mode in two_mode_family.modes:
            with pytest.raises(ValueError):
                mode.alpha[0] = 1.0

    def test_caller_array_copied(self, grid1d):
        table = np.ones(grid1d.points)
        samples = sample_profile(grid1d, TableProfile(values=table))
        table[0] = 5.0
        assert table.flags.writeable
        assert np.all(samples == 1.0) and not samples.flags.writeable


class TestParseval:
    def test_parseval(self, grid1d):
        # the production Parseval route: the L2 norm from raw FFT moduli
        rng = np.random.default_rng(3)
        f = rng.standard_normal(grid1d.shape) + 1j * rng.standard_normal(grid1d.shape)
        phys = l2_wiener(f, grid1d)[0] ** 2
        freq = _norms(np.fft.fftn(f), grid1d)[0] ** 2
        assert abs(phys - freq) < 1e-10 * phys


class TestSpectralDerivative:
    def test_identity_multiindex(self, grid1d, gaussian_field):
        out = spectral_derivative(gaussian_field, grid1d, 0)
        assert np.array_equal(out, gaussian_field)

    def test_plane_wave_eigenfunction(self, grid1d):
        k0 = lattice_wavenumber(grid1d, 7)
        f = plane_wave(grid1d, k0)
        out = spectral_derivative(f, grid1d, 1)
        assert np.max(np.abs(out - 1j * k0 * f)) < 1e-10

    def test_gaussian_second_derivative(self, grid1d):
        x = grid1d.axis_coords()
        out = spectral_derivative(np.exp(-x**2 / 2), grid1d, 2)
        exact = (x**2 - 1) * np.exp(-x**2 / 2)  # symbolic oracle
        assert np.max(np.abs(out - exact)) < 1e-8

    def test_rejects_order_above_three(self, grid1d, gaussian_field):
        with pytest.raises(ValueError, match="exceeds 3"):
            spectral_derivative(gaussian_field, grid1d, 4)

    def test_2d_mixed_derivative(self):
        grid = Grid(d=2, length=16.0, points=64)
        xs, ys = grid.coords()
        out = spectral_derivative(np.exp(-(xs**2 + ys**2) / 2), grid, (1, 1))
        exact = xs * ys * np.exp(-(xs**2 + ys**2) / 2)
        assert np.max(np.abs(out - exact)) < 1e-8


class TestTranslate:
    def test_zero_shift_identity(self, grid1d, gaussian_field):
        assert translate(gaussian_field, grid1d, 0.0) is gaussian_field

    def test_plane_wave_modulation(self, grid1d):
        k0 = lattice_wavenumber(grid1d, 11)
        f = plane_wave(grid1d, k0)
        out = translate(f, grid1d, 1.5)
        assert np.max(np.abs(out - f * np.exp(-1j * k0 * 1.5))) < 1e-12

    def test_gaussian_against_analytic_resampling(self, grid1d):
        x = grid1d.axis_coords()
        out = translate(np.exp(-x**2 / 2), grid1d, 1.0)
        assert np.max(np.abs(out - np.exp(-((x - 1.0) ** 2) / 2))) < 1e-10

    def test_composition(self, grid1d):
        rng = np.random.default_rng(5)
        k = np.rint(np.fft.fftfreq(grid1d.points) * grid1d.points).astype(int)
        coef = (rng.standard_normal(grid1d.shape)
                + 1j * rng.standard_normal(grid1d.shape)) * (np.abs(k) <= 30)
        f = from_unitary(grid1d, coef)
        once = translate(f, grid1d, 0.7 + 1.1)
        twice = translate(translate(f, grid1d, 0.7), grid1d, 1.1)
        assert np.max(np.abs(once - twice)) < 1e-12 * np.max(np.abs(f))

    def test_commutes_with_derivative(self, grid1d):
        x = grid1d.axis_coords()
        f = np.exp(-x**2 / 2)
        a = spectral_derivative(translate(f, grid1d, 0.8), grid1d, 1)
        b = translate(spectral_derivative(f, grid1d, 1), grid1d, 0.8)
        assert np.max(np.abs(a - b)) < 1e-10

    @pytest.mark.parametrize("grid", [Grid(d=1, length=32.0, points=256),
                                      Grid(d=2, length=16.0, points=64)],
                             ids=["1d", "2d"])
    def test_real_field_matches_complex_twin_bitwise(self, grid):
        r2 = sum(ax**2 for ax in grid.coords())
        real = np.exp(-r2 / 2)
        twin = real.astype(np.complex128)
        shift = (0.7, -1.3)[:grid.d]
        got, want = translate(real, grid, shift), translate(twin, grid, shift)
        assert got.dtype == np.complex128
        assert np.array_equal(got.view(np.float64), want.view(np.float64))


    @pytest.mark.parametrize("grid", [Grid(d=1, length=32.0, points=8192),
                                      Grid(d=2, length=16.0, points=256),
                                      Grid(d=3, length=16.0, points=32)],
                             ids=["1d", "2d", "3d"])
    def test_cast_free_route_matches_fftn_of_real_samples(self, grid):
        # the samples copied into the complex buffer, then transformed in
        # place: the bits of fftn(real samples, out=), modulation, inverse
        r2 = sum(ax**2 for ax in grid.coords())
        real = np.exp(-r2 / 2)
        shift = (0.7, -1.3, 0.4)[:grid.d]
        want = np.fft.fftn(real, out=np.empty(grid.shape, dtype=np.complex128))
        want *= separable_wave(grid.freq_meshes(zero_nyquist=True), shift, -1.0)
        np.fft.ifftn(want, out=want)
        got = translate(real, grid, shift)
        assert got.tobytes() == want.tobytes()

    def test_real_field_takes_no_cast_copy(self):
        # one complex buffer and numpy's 128 KiB iterator buffer for the
        # broadcast modulation; fftn of the real samples cast a second field
        grid = Grid(d=2, length=16.0, points=256)
        r2 = sum(ax**2 for ax in grid.coords())
        real = np.exp(-r2 / 2)
        translate(real, grid, (0.7, 0.0))
        tracemalloc.start()
        try:
            translate(real, grid, (0.7, 0.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * grid.total_points * 16


class TestSampleProfile:
    def test_gaussian_peak_value(self, grid1d):
        f = sample_profile(
            grid1d, GaussianProfile(amplitude=1.0, center=(0.0,), width=1.0)
        )
        idx = np.argmin(np.abs(grid1d.axis_coords()))
        assert f[idx] == pytest.approx(1.0)

    def test_gaussian_formula_point(self, grid1d):
        f = sample_profile(
            grid1d, GaussianProfile(amplitude=2.0, center=(0.0,), width=1.0)
        )
        x = grid1d.axis_coords()
        idx = np.argmin(np.abs(x - 1.0))
        assert f[idx] == pytest.approx(2 * np.exp(-0.5), rel=1e-12)

    def test_gaussian_profile_stays_real(self, grid1d):
        f = sample_profile(
            grid1d, GaussianProfile(amplitude=1.0, center=(0.0,), width=1.0)
        )
        assert f.dtype == np.float64

    def test_table_all_ones(self, grid1d):
        f = sample_profile(grid1d, TableProfile(values=np.ones(grid1d.points)))
        assert np.all(f == 1.0)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError, match="width"):
            GaussianProfile(amplitude=1.0, center=(0.0,), width=0.0)

    def test_rejects_table_length_mismatch(self, grid1d):
        with pytest.raises(ValueError, match="table length"):
            sample_profile(grid1d, TableProfile(values=np.ones(100)))


class TestUnitPhase:
    def test_matches_complex_exp(self):
        rng = np.random.default_rng(3)
        theta = np.concatenate([
            rng.uniform(-1e4, 1e4, 200_000),
            np.pi * np.array([0.0, 0.5, -0.5, 1.0, -1.0, 3.0, -3.0]),
        ])
        z = unit_phase(theta)
        assert z.dtype == np.complex128 and z.shape == theta.shape
        assert np.max(np.abs(z - np.exp(1j * theta))) <= 1e-15
        assert np.max(np.abs(np.abs(z) - 1.0)) <= 1e-15

    def test_exact_at_zero(self):
        assert unit_phase(np.zeros(3)).tolist() == [1.0, 1.0, 1.0]

    def test_non_finite_angles_give_nan(self):
        # the divergence guard of the stepper reads a NaN phase as a NaN norm
        with np.errstate(invalid="ignore"):
            z = unit_phase(np.array([np.nan, np.inf, -np.inf]))
        assert np.all(np.isnan(z.real)) and np.all(np.isnan(z.imag))

    def test_fills_out(self):
        theta = np.linspace(-5.0, 5.0, 4 * 6).reshape(4, 6)
        out = np.empty(theta.shape, dtype=np.complex128)
        assert unit_phase(theta, out=out) is out
        assert np.array_equal(out, unit_phase(theta))

    def test_slices_are_the_whole_array_formula(self):
        # three CHUNK slices and a short one, of a strided angle array
        field = np.random.default_rng(7).uniform(-50.0, 50.0, (3 * CHUNK + 123, 2))
        theta = field.view(np.complex128)[:, 0].real
        t = np.tan(theta * 0.5)
        inv = 1.0 / (t * t + 1.0)
        got = unit_phase(theta)
        assert np.array_equal(got.real, (1.0 - t * t) * inv)
        assert np.array_equal(got.imag, (t + t) * inv)

    def test_plane_wave_at_reference_carriers(self):
        # the 1D reference's mode carriers: kappa/eps . x up to 2/0.025 * 32
        grid = Grid(d=1, length=64.0, points=8192)
        axes = grid.coords()
        for kappa in (-2.0, 2.0):
            for eps in (0.2, 0.1, 0.05, 0.025):
                offset = -0.5 * 0.5 * kappa**2 / eps
                got = separable_wave(axes, [kappa], 1.0 / eps, offset)
                angle = (kappa / eps) * axes[0]
                want = np.exp(1j * offset) * np.exp(1j * angle)
                tol = 1e-15 * np.maximum(1.0, np.abs(angle + offset))
                assert np.all(np.abs(got - want) <= tol)
