import numpy as np
import pytest
import scipy.fft
from scipy import integrate

from hartreelab import (
    Field,
    Grid,
    Mode,
    ModeFamily,
    SpectralField,
    YNormSpec,
    inverse_transform,
    l2_norm,
    l2w_norm,
    norm_report,
    snapshot,
    translate,
    wiener_norm,
)
from hartreelab.norms import (
    _algebra_bounds,
    _graded_norm,
    _hartree_bounds,
    derivative_order,
    multi_indices,
)

from conftest import lattice_wavenumber, plane_wave


def band_limited(grid, rng, cutoff):
    k = np.rint(np.fft.fftfreq(grid.points) * grid.points).astype(int)
    inside = np.abs(k) <= cutoff
    mask = inside.reshape([-1] + [1] * (grid.d - 1))
    for ax in range(1, grid.d):
        mask = mask & inside.reshape([-1 if a == ax else 1 for a in range(grid.d)])
    coef = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    return inverse_transform(SpectralField(grid, coef * mask))


class TestDerivativeOrder:
    def test_low_dimensions(self):
        assert derivative_order(1, 0.5) == 2
        assert derivative_order(2, 1.5) == 2

    def test_3d_split(self):
        assert derivative_order(3, 0.5) == 3
        assert derivative_order(3, 1.0) == 2
        assert derivative_order(3, 2.5) == 2

    def test_spec_rejects_contradiction(self):
        with pytest.raises(ValueError, match="derivative order"):
            YNormSpec(d=3, gamma=0.5, n=2)


class TestBasicNorms:
    def test_zero_field(self, grid1d):
        z = Field(grid1d, np.zeros(grid1d.shape))
        assert l2_norm(z) == 0
        assert wiener_norm(z) == 0

    def test_l2_gaussian_closed_form(self, grid1d):
        x = grid1d.axis_coords()
        f = Field(grid1d, np.exp(-x**2 / 2))
        assert abs(l2_norm(f) - np.pi**0.25) < 1e-10

    def test_l2_homogeneity(self, gaussian_field):
        assert l2_norm(2.0 * gaussian_field) == pytest.approx(
            2 * l2_norm(gaussian_field), rel=1e-14
        )

    def test_wiener_gaussian_closed_form(self, grid1d):
        x = grid1d.axis_coords()
        f = Field(grid1d, np.exp(-x**2 / 2))
        assert abs(wiener_norm(f) - np.sqrt(2 * np.pi)) < 1e-8

    def test_wiener_plane_wave(self, grid1d):
        f = plane_wave(grid1d, lattice_wavenumber(grid1d, 9))
        assert abs(wiener_norm(f) - np.sqrt(2 * np.pi)) < 1e-10

    def test_report_sum_identity(self, gaussian_field):
        rep = norm_report(gaussian_field)
        assert rep.l2w == rep.l2 + rep.wiener

    def test_triangle_inequality(self, grid1d):
        rng = np.random.default_rng(17)
        for _ in range(20):
            f = Field(grid1d, rng.standard_normal(grid1d.shape)
                      + 1j * rng.standard_normal(grid1d.shape))
            g = Field(grid1d, rng.standard_normal(grid1d.shape)
                      + 1j * rng.standard_normal(grid1d.shape))
            assert l2_norm(f + g) <= (l2_norm(f) + l2_norm(g)) * (1 + 1e-12)
            assert wiener_norm(f + g) <= (wiener_norm(f) + wiener_norm(g)) * (
                1 + 1e-12
            )

    def test_translation_invariance(self, grid1d):
        rng = np.random.default_rng(19)
        f = band_limited(grid1d, rng, 40)
        moved = translate(f, 2.3)
        assert abs(l2_norm(moved) - l2_norm(f)) < 1e-12 * l2_norm(f)
        assert abs(wiener_norm(moved) - wiener_norm(f)) < 1e-12 * wiener_norm(f)

    def test_sup_bound_from_wiener(self, grid1d):
        rng = np.random.default_rng(21)
        for _ in range(20):
            f = band_limited(grid1d, rng, 50)
            bound = (2 * np.pi) ** (-grid1d.d / 2) * wiener_norm(f) * (1 + 1e-10)
            assert np.max(np.abs(f.values)) <= bound


class TestYNorm:
    def test_zero(self, grid1d):
        spec = YNormSpec(d=1, gamma=0.5)
        assert _graded_norm(np.zeros(grid1d.shape), grid1d, spec) == 0

    def test_dominates_base_norms(self, gaussian_field):
        spec = YNormSpec(d=1, gamma=0.5)
        raw = scipy.fft.fftn(gaussian_field.values)
        assert _graded_norm(raw, gaussian_field.grid, spec) >= l2w_norm(gaussian_field)

    def test_gaussian_against_symbolic_oracle(self, grid1d):
        # oracle route: sample the symbolic derivatives of exp(-x^2/2)
        # directly and take their norms, bypassing the FFT multiplier.
        from hartreelab import l2_norm as l2n, wiener_norm as wn

        spec = YNormSpec(d=1, gamma=0.5)
        x = grid1d.axis_coords()
        f = Field(grid1d, np.exp(-x**2 / 2))
        symbolic = [
            np.exp(-x**2 / 2),
            -x * np.exp(-x**2 / 2),
            (x**2 - 1) * np.exp(-x**2 / 2),
        ]
        expected = sum(l2n(Field(grid1d, s)) + wn(Field(grid1d, s)) for s in symbolic)
        got = _graded_norm(scipy.fft.fftn(f.values), grid1d, spec)
        assert abs(got - expected) / expected < 1e-6

    def test_gaussian_continuum_convergence(self):
        # the discrete Wiener norm of an odd derivative carries an
        # O(dxi^2) kink error at xi = 0, so continuum agreement at 1e-6
        # needs a wide box; each continuum piece is a 1D quadrature.
        grid = Grid(d=1, length=1024.0, points=8192)
        spec = YNormSpec(d=1, gamma=0.5)
        x = grid.axis_coords()
        f = Field(grid, np.exp(-x**2 / 2))
        derivs = [
            lambda s: np.exp(-s * s / 2),
            lambda s: -s * np.exp(-s * s / 2),
            lambda s: (s * s - 1) * np.exp(-s * s / 2),
        ]
        hats = [
            lambda s: np.exp(-s * s / 2),
            lambda s: np.abs(s) * np.exp(-s * s / 2),
            lambda s: s * s * np.exp(-s * s / 2),
        ]
        expected = 0.0
        for d_fun, h_fun in zip(derivs, hats):
            l2_sq, _ = integrate.quad(lambda s: np.abs(d_fun(s)) ** 2, -np.inf, np.inf)
            w, _ = integrate.quad(h_fun, -np.inf, np.inf)
            expected += np.sqrt(l2_sq) + w
        got = _graded_norm(scipy.fft.fftn(f.values), grid, spec)
        assert abs(got - expected) / expected < 1e-6

    @pytest.mark.parametrize(
        "d, points, gamma", [(1, 256, 0.5), (2, 64, 0.5), (3, 16, 0.5), (3, 16, 1.5)]
    )
    def test_matches_derivative_by_derivative(self, d, points, gamma):
        # reference: one transform pair per derivative, each norm taken
        # on the physical derivative field
        from hartreelab import spectral_derivative

        grid = Grid(d=d, length=16.0, points=points)
        f = band_limited(grid, np.random.default_rng(5 + d), points // 4)
        spec = YNormSpec(d=d, gamma=gamma)
        expected = sum(
            l2w_norm(spectral_derivative(f, eta)) for eta in multi_indices(d, spec.n)
        )
        got = _graded_norm(scipy.fft.fftn(f.values), grid, spec)
        assert abs(got - expected) < 1e-12 * expected

    def test_multi_index_counts(self):
        assert len(multi_indices(1, 2)) == 3
        assert len(multi_indices(2, 2)) == 6
        assert len(multi_indices(3, 3)) == 20


class TestENorm:
    # ||a(0)||_E of a family whose amplitudes are all the gaussian field
    def test_single_mode(self, gaussian_field, kernel1d):
        spec = YNormSpec(d=1, gamma=0.5)
        fam = ModeFamily(gaussian_field.grid, (Mode([0.0], gaussian_field),), spec)
        snap = snapshot(fam, 0.0, kernel1d)
        raw = scipy.fft.fftn(gaussian_field.values)
        assert snap.e_norm == pytest.approx(_graded_norm(raw, fam.grid, spec))

    def test_duplication_additivity(self, gaussian_field, kernel1d):
        spec = YNormSpec(d=1, gamma=0.5)
        one = ModeFamily(gaussian_field.grid, (Mode([0.0], gaussian_field),), spec)
        two = ModeFamily(gaussian_field.grid, (Mode([-2.0], gaussian_field),
                                               Mode([2.0], gaussian_field)), spec)
        single = snapshot(one, 0.0, kernel1d).e_norm
        double = snapshot(two, 0.0, kernel1d).e_norm
        assert double == pytest.approx(2 * single, rel=1e-14)


class TestAlgebraBound:
    def test_zero_factor(self, grid1d, gaussian_field):
        pair = np.stack((gaussian_field.values, np.zeros(grid1d.shape)))
        rep = _algebra_bounds(pair[None], grid1d)[0]
        assert rep.lhs == 0
        assert rep.holds

    def test_plane_wave_pair_convention_ratio(self, grid1d):
        # single plane waves have modulus-one spectra; under the unitary
        # convention the product's norm is exactly (2 pi)^(-d/2) times
        # the product of norms, which is the sharp constant here.
        f = plane_wave(grid1d, lattice_wavenumber(grid1d, 6))
        rep = _algebra_bounds(np.stack((f.values, f.values))[None], grid1d)[0]
        assert rep.holds
        assert rep.lhs / rep.rhs == pytest.approx(
            (2 * np.pi) ** (-0.5), rel=1e-10
        )

    def test_rejects_aliasing_content(self, grid1d):
        f = plane_wave(grid1d, lattice_wavenumber(grid1d, grid1d.points // 3))
        with pytest.raises(ValueError, match="anti-aliasing"):
            _algebra_bounds(np.stack((f.values, f.values))[None], grid1d)

    def test_rejects_aliasing_second_factor(self, grid1d):
        rng = np.random.default_rng(5)
        f = band_limited(grid1d, rng, grid1d.points // 4 - 1)
        g = plane_wave(grid1d, lattice_wavenumber(grid1d, grid1d.points // 3))
        with pytest.raises(ValueError, match="second factor"):
            _algebra_bounds(np.stack((f.values, g.values))[None], grid1d)

    def test_matches_separate_norms(self):
        # the shared factor spectra give the numbers of three wiener_norm calls
        rng = np.random.default_rng(7)
        for grid in (Grid(d=1, length=32.0, points=256), Grid(d=2, length=8.0, points=32)):
            f = band_limited(grid, rng, grid.points // 4 - 1)
            g = band_limited(grid, rng, grid.points // 4 - 1)
            rep = _algebra_bounds(np.stack((f.values, g.values))[None], grid)[0]
            assert rep.lhs == pytest.approx(wiener_norm(f * g), rel=1e-14)
            assert rep.rhs == pytest.approx(wiener_norm(f) * wiener_norm(g), rel=1e-14)

    def test_fft_budget(self, grid1d, fft_calls):
        # one transform per factor serves its tail check and its Wiener
        # norm, one more for the product: 3, where separate calls took 5
        rng = np.random.default_rng(11)
        f = band_limited(grid1d, rng, grid1d.points // 4 - 1)
        g = band_limited(grid1d, rng, grid1d.points // 4 - 1)
        pair = np.stack((f.values, g.values))[None]
        fft_calls.clear()
        _algebra_bounds(pair, grid1d)
        assert 0 < len(fft_calls) <= 3

    def test_random_campaign(self, grid1d):
        rng = np.random.default_rng(29)
        cutoff = grid1d.points // 4 - 1
        pairs = [[band_limited(grid1d, rng, cutoff).values for _ in range(2)]
                 for _ in range(200)]
        assert all(rep.holds for rep in _algebra_bounds(np.array(pairs), grid1d))


class TestHartreeBound:
    def test_zero_density(self, kernel1d, grid1d):
        rep = _hartree_bounds(kernel1d, np.zeros((1, *grid1d.shape)), grid1d)[0]
        assert rep.lhs == 0
        assert rep.holds

    def test_gaussian_squared(self, kernel1d, grid1d):
        x = grid1d.axis_coords()
        rep = _hartree_bounds(kernel1d, np.exp(-(x**2))[None], grid1d)[0]
        assert rep.holds

    def test_random_campaign(self, kernel1d, grid1d):
        rng = np.random.default_rng(31)
        x = grid1d.axis_coords()
        envelope = np.exp(-(x**2) / (2 * (grid1d.length / 12) ** 2))
        h = [np.abs(band_limited(grid1d, rng, grid1d.points // 16).values) ** 2 * envelope
             for _ in range(100)]
        assert all(rep.holds for rep in _hartree_bounds(kernel1d, np.array(h), grid1d))

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_convolution_formula(self, d):
        # one shared |hhat| gives the numbers of the convolve-then-transform
        # route: wiener_norm(K * h) and wiener_norm(h)
        from hartreelab import KernelSpec, l1_norm, split_norms
        from hartreelab.kernel import convolve, half_multiplier

        grid = Grid(d=d, length=16.0, points={1: 256, 2: 32}[d])
        spec = KernelSpec(d=d, gamma=0.5, coupling=1.0)
        rng = np.random.default_rng(13 + d)
        for _ in range(3):
            h = Field(grid, np.abs(band_limited(grid, rng, grid.points // 8).values) ** 2)
            rep = _hartree_bounds(spec, h.values.real[None], grid)[0]
            k1_l1, k2_sup = split_norms(spec)
            conv = convolve(half_multiplier(spec, grid), h.values.real)
            lhs = wiener_norm(Field(grid, conv))
            rhs = k1_l1 * l1_norm(h) + k2_sup * wiener_norm(h)
            assert rep.lhs == pytest.approx(lhs, rel=1e-12, abs=0)
            assert rep.rhs == pytest.approx(rhs, rel=1e-12, abs=0)

    def test_fft_budget(self, kernel1d, grid1d, fft_calls):
        # one transform of h serves both Wiener norms, where the
        # convolve-then-transform route took four
        rng = np.random.default_rng(17)
        h = Field(grid1d, np.abs(band_limited(grid1d, rng, grid1d.points // 16).values) ** 2)
        fft_calls.clear()
        _hartree_bounds(kernel1d, h.values.real[None], grid1d)
        assert len(fft_calls) == 1
