import numpy as np
import pytest
from scipy import integrate

from hartreelab import (
    Field,
    GaussianProfile,
    Grid,
    SpectralField,
    TableProfile,
    forward_transform,
    inverse_transform,
    l2_norm,
    sample_profile,
    spectral_l2_norm,
    spectral_derivative,
    translate,
)
from hartreelab.grid import plane_wave as separable_wave, unit_phase

from conftest import lattice_wavenumber, plane_wave


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
    def test_shape_mismatch(self, grid1d):
        with pytest.raises(ValueError, match="shape"):
            Field(grid1d, np.zeros(7))

    def test_nonfinite_rejected(self, grid1d):
        bad = np.zeros(grid1d.shape)
        bad[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Field(grid1d, bad)

    def test_values_immutable(self, gaussian_field):
        with pytest.raises(ValueError):
            gaussian_field.values[0] = 1.0

    def test_caller_array_copied(self, grid1d):
        raw = np.ones(grid1d.shape, dtype=np.complex128)
        f = Field(grid1d, raw)
        raw[0] = 5.0
        assert raw.flags.writeable
        assert np.all(f.values == 1.0)

    def test_adopted_array_frozen_not_copied(self, grid1d):
        fresh = np.ones(grid1d.shape, dtype=np.complex128)
        f = Field._adopt(grid1d, fresh)
        assert f.values is fresh
        assert not fresh.flags.writeable

    def test_adopt_still_scans(self, grid1d):
        bad = np.zeros(grid1d.shape, dtype=np.complex128)
        bad[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Field._adopt(grid1d, bad)
        with pytest.raises(ValueError, match="shape"):
            Field._adopt(grid1d, np.zeros(7, dtype=np.complex128))

    def test_overflowing_arithmetic_raises(self, grid1d):
        # field arithmetic takes the internal path, which still scans
        big = Field(grid1d, np.full(grid1d.shape, 1e308))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            big * 10.0


class TestForwardTransform:
    def test_zero_maps_to_zero(self, grid1d):
        F = forward_transform(Field(grid1d, np.zeros(grid1d.shape)))
        assert np.all(F.coefficients == 0)

    def test_gaussian_self_transform(self, grid1d):
        # Box is wide enough that boundary values are < 1e-14, so the
        # discrete coefficients sample exp(-xi^2/2) itself.
        x = grid1d.axis_coords()
        assert np.exp(-((grid1d.length / 2) ** 2) / 2) < 1e-14
        F = forward_transform(Field(grid1d, np.exp(-x**2 / 2)))
        xi = grid1d.axis_freqs()
        assert np.max(np.abs(F.coefficients - np.exp(-xi**2 / 2))) < 1e-10

    def test_gaussian_against_quadrature_oracle(self, grid1d):
        x = grid1d.axis_coords()
        F = forward_transform(Field(grid1d, np.exp(-x**2 / 2)))
        xi = grid1d.axis_freqs()
        for idx in (1, 5, 17):
            oracle_re, _ = integrate.quad(
                lambda s: np.exp(-s * s / 2) * np.cos(s * xi[idx]) / np.sqrt(2 * np.pi),
                -np.inf,
                np.inf,
            )
            assert abs(F.coefficients[idx].real - oracle_re) < 1e-10
            assert abs(F.coefficients[idx].imag) < 1e-12

    def test_plane_wave_single_coefficient(self, grid1d):
        k0 = lattice_wavenumber(grid1d, 12)
        F = forward_transform(plane_wave(grid1d, k0))
        coef = F.coefficients.copy()
        xi = grid1d.axis_freqs()
        peak = np.argmax(np.abs(coef))
        assert xi[peak] == pytest.approx(k0)
        expected = grid1d.length / np.sqrt(2 * np.pi)
        assert coef[peak] == pytest.approx(expected, rel=1e-12)
        coef[peak] = 0.0
        assert np.max(np.abs(coef)) < 1e-12 * expected


class TestInverseTransform:
    def test_zero(self, grid1d):
        f = inverse_transform(SpectralField(grid1d, np.zeros(grid1d.shape)))
        assert np.all(f.values == 0)

    def test_round_trip_random_band_limited(self, grid1d):
        rng = np.random.default_rng(7)
        k = np.rint(np.fft.fftfreq(grid1d.points) * grid1d.points).astype(int)
        coef = (rng.standard_normal(grid1d.shape)
                + 1j * rng.standard_normal(grid1d.shape)) * (np.abs(k) <= 40)
        f = inverse_transform(SpectralField(grid1d, coef))
        back = forward_transform(f)
        scale = np.max(np.abs(coef))
        assert np.max(np.abs(back.coefficients - coef)) < 1e-12 * scale

    def test_single_coefficient_gives_plane_wave(self, grid1d):
        coef = np.zeros(grid1d.shape, dtype=complex)
        idx = 9
        coef[idx] = grid1d.length / np.sqrt(2 * np.pi)
        f = inverse_transform(SpectralField(grid1d, coef))
        expected = plane_wave(grid1d, grid1d.axis_freqs()[idx])
        assert np.max(np.abs(f.values - expected.values)) < 1e-12

    def test_parseval(self, grid1d):
        rng = np.random.default_rng(3)
        f = Field(grid1d, rng.standard_normal(grid1d.shape)
                  + 1j * rng.standard_normal(grid1d.shape))
        phys = l2_norm(f) ** 2
        freq = spectral_l2_norm(forward_transform(f)) ** 2
        assert abs(phys - freq) < 1e-10 * phys


class TestSpectralDerivative:
    def test_identity_multiindex(self, gaussian_field):
        out = spectral_derivative(gaussian_field, 0)
        assert np.array_equal(out.values, gaussian_field.values)

    def test_plane_wave_eigenfunction(self, grid1d):
        k0 = lattice_wavenumber(grid1d, 7)
        f = plane_wave(grid1d, k0)
        out = spectral_derivative(f, 1)
        assert np.max(np.abs(out.values - 1j * k0 * f.values)) < 1e-10

    def test_gaussian_second_derivative(self, grid1d):
        x = grid1d.axis_coords()
        f = Field(grid1d, np.exp(-x**2 / 2))
        out = spectral_derivative(f, 2)
        exact = (x**2 - 1) * np.exp(-x**2 / 2)  # symbolic oracle
        assert np.max(np.abs(out.values - exact)) < 1e-8

    def test_rejects_order_above_three(self, gaussian_field):
        with pytest.raises(ValueError, match="exceeds 3"):
            spectral_derivative(gaussian_field, 4)

    def test_2d_mixed_derivative(self):
        grid = Grid(d=2, length=16.0, points=64)
        xs, ys = grid.coords()
        f = Field(grid, np.exp(-(xs**2 + ys**2) / 2))
        out = spectral_derivative(f, (1, 1))
        exact = xs * ys * np.exp(-(xs**2 + ys**2) / 2)
        assert np.max(np.abs(out.values - exact)) < 1e-8


class TestTranslate:
    def test_zero_shift_identity(self, gaussian_field):
        out = translate(gaussian_field, 0.0)
        assert np.array_equal(out.values, gaussian_field.values)

    def test_plane_wave_modulation(self, grid1d):
        k0 = lattice_wavenumber(grid1d, 11)
        f = plane_wave(grid1d, k0)
        out = translate(f, 1.5)
        assert np.max(np.abs(out.values - f.values * np.exp(-1j * k0 * 1.5))) < 1e-12

    def test_gaussian_against_analytic_resampling(self, grid1d):
        x = grid1d.axis_coords()
        f = Field(grid1d, np.exp(-x**2 / 2))
        out = translate(f, 1.0)
        assert np.max(np.abs(out.values - np.exp(-((x - 1.0) ** 2) / 2))) < 1e-10

    def test_composition(self, grid1d):
        rng = np.random.default_rng(5)
        k = np.rint(np.fft.fftfreq(grid1d.points) * grid1d.points).astype(int)
        coef = (rng.standard_normal(grid1d.shape)
                + 1j * rng.standard_normal(grid1d.shape)) * (np.abs(k) <= 30)
        f = inverse_transform(SpectralField(grid1d, coef))
        once = translate(f, 0.7 + 1.1)
        twice = translate(translate(f, 0.7), 1.1)
        assert np.max(np.abs(once.values - twice.values)) < 1e-12 * np.max(
            np.abs(f.values)
        )

    def test_commutes_with_derivative(self, grid1d):
        x = grid1d.axis_coords()
        f = Field(grid1d, np.exp(-x**2 / 2))
        a = spectral_derivative(translate(f, 0.8), 1)
        b = translate(spectral_derivative(f, 1), 0.8)
        assert np.max(np.abs(a.values - b.values)) < 1e-10


class TestSampleProfile:
    def test_gaussian_peak_value(self, grid1d):
        f = sample_profile(
            grid1d, GaussianProfile(amplitude=1.0, center=(0.0,), width=1.0)
        )
        idx = np.argmin(np.abs(grid1d.axis_coords()))
        assert f.values[idx] == pytest.approx(1.0)

    def test_gaussian_formula_point(self, grid1d):
        f = sample_profile(
            grid1d, GaussianProfile(amplitude=2.0, center=(0.0,), width=1.0)
        )
        x = grid1d.axis_coords()
        idx = np.argmin(np.abs(x - 1.0))
        assert f.values[idx] == pytest.approx(2 * np.exp(-0.5), rel=1e-12)

    def test_table_all_ones(self, grid1d):
        f = sample_profile(grid1d, TableProfile(values=np.ones(grid1d.points)))
        assert np.all(f.values == 1.0)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError, match="width"):
            GaussianProfile(amplitude=1.0, center=(0.0,), width=0.0)

    def test_rejects_table_length_mismatch(self, grid1d):
        with pytest.raises(ValueError, match="table length"):
            sample_profile(grid1d, TableProfile(values=np.ones(100)))


class TestRoundTrip2D:
    def test_round_trip(self):
        grid = Grid(d=2, length=8.0, points=32)
        rng = np.random.default_rng(11)
        f = Field(grid, rng.standard_normal(grid.shape)
                  + 1j * rng.standard_normal(grid.shape))
        back = inverse_transform(forward_transform(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12 * np.max(
            np.abs(f.values)
        )

    def test_round_trip_3d(self):
        grid = Grid(d=3, length=4.0, points=16)
        rng = np.random.default_rng(13)
        f = Field(grid, rng.standard_normal(grid.shape)
                  + 1j * rng.standard_normal(grid.shape))
        back = inverse_transform(forward_transform(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12 * np.max(
            np.abs(f.values)
        )


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
