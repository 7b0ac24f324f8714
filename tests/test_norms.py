import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from hartreelab import (
    Grid,
    Mode,
    KernelSpec,
    ModeFamily,
    snapshot,
    translate,
)
from hartreelab.grid import CHUNK, padded_zeros
from hartreelab.harness import _random_band_limited
from hartreelab.norms import (
    _algebra_bounds,
    _graded_norm,
    _hartree_bounds,
    _modulus_sums,
    _norms,
    _norms_in_place,
    _wiener_from_modulus,
    derivative_order,
    multi_indices,
)
from hartreelab.wkb import _half_laplacians

from oracles import (
    ALGEBRA_SLACK,
    HARTREE_SLACK,
    from_unitary,
    holds,
    l2_wiener,
    lattice_wavenumber,
    plane_wave,
)


def band_limited(grid, rng, cutoff):
    k = np.rint(np.fft.fftfreq(grid.points) * grid.points).astype(int)
    inside = np.abs(k) <= cutoff
    mask = inside.reshape([-1] + [1] * (grid.d - 1))
    for ax in range(1, grid.d):
        mask = mask & inside.reshape([-1 if a == ax else 1 for a in range(grid.d)])
    coef = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    return from_unitary(grid, coef * mask)


class TestDerivativeOrder:
    def test_low_dimensions(self):
        assert derivative_order(1, 0.5) == 2
        assert derivative_order(2, 1.5) == 2

    def test_3d_split(self):
        assert derivative_order(3, 0.5) == 3
        assert derivative_order(3, 1.0) == 2
        assert derivative_order(3, 2.5) == 2


class TestBasicNorms:
    def test_zero_field(self, grid1d):
        assert l2_wiener(np.zeros(grid1d.shape), grid1d) == (0, 0)

    def test_l2_gaussian_closed_form(self, grid1d, gaussian_field):
        assert abs(l2_wiener(gaussian_field, grid1d)[0] - np.pi**0.25) < 1e-10

    def test_l2_homogeneity(self, grid1d, gaussian_field):
        assert l2_wiener(2.0 * gaussian_field, grid1d)[0] == pytest.approx(
            2 * l2_wiener(gaussian_field, grid1d)[0], rel=1e-14
        )

    def test_wiener_gaussian_closed_form(self, grid1d, gaussian_field):
        assert abs(l2_wiener(gaussian_field, grid1d)[1] - np.sqrt(2 * np.pi)) < 1e-8

    def test_wiener_plane_wave(self, grid1d):
        f = plane_wave(grid1d, lattice_wavenumber(grid1d, 9))
        assert abs(l2_wiener(f, grid1d)[1] - np.sqrt(2 * np.pi)) < 1e-10

    def test_report_sum_identity(self, grid1d, gaussian_field):
        # samples and their raw spectrum give one pair: Wiener bit for bit,
        # L2 by Parseval to rounding
        l2, w = l2_wiener(gaussian_field, grid1d)
        l2_raw, w_raw = _norms(np.fft.fftn(gaussian_field.astype(complex)), grid1d)
        assert w == w_raw and l2 == pytest.approx(l2_raw, rel=1e-14)

    def test_triangle_inequality(self, grid1d):
        rng = np.random.default_rng(17)
        for _ in range(20):
            f = rng.standard_normal(grid1d.shape) + 1j * rng.standard_normal(grid1d.shape)
            g = rng.standard_normal(grid1d.shape) + 1j * rng.standard_normal(grid1d.shape)
            (l2_f, w_f), (l2_g, w_g) = l2_wiener(f, grid1d), l2_wiener(g, grid1d)
            l2_total, w_total = l2_wiener(f + g, grid1d)
            assert l2_total <= (l2_f + l2_g) * (1 + 1e-12)
            assert w_total <= (w_f + w_g) * (1 + 1e-12)

    def test_translation_invariance(self, grid1d):
        rng = np.random.default_rng(19)
        f = band_limited(grid1d, rng, 40)
        (l2, w), (l2_moved, w_moved) = (l2_wiener(v, grid1d)
                                        for v in (f, translate(f, grid1d, 2.3)))
        assert abs(l2_moved - l2) < 1e-12 * l2
        assert abs(w_moved - w) < 1e-12 * w

    def test_sup_bound_from_wiener(self, grid1d):
        rng = np.random.default_rng(21)
        for _ in range(20):
            f = band_limited(grid1d, rng, 50)
            bound = (2 * np.pi) ** (-grid1d.d / 2) * l2_wiener(f, grid1d)[1] * (1 + 1e-10)
            assert np.max(np.abs(f)) <= bound


class TestChunkedModuli:
    """Every L2 and Wiener norm sums its moduli per CHUNK block in chunk
    scratch (`_modulus_sums`); the bits are those of `np.sum` over the
    whole moduli array and over its squares."""

    @pytest.mark.parametrize("d, points", [(1, 8192), (1, 2**16), (2, 256), (2, 512),
                                           (2, 32), (3, 32), (3, 64)])
    def test_match_whole_array_formulas_bitwise(self, d, points):
        grid = Grid(d=d, length=16.0, points=points)
        rng = np.random.default_rng(points + d)
        values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        values *= np.exp(rng.uniform(-30.0, 30.0, grid.shape))  # wide magnitudes
        padded = padded_zeros(grid)  # row-padded from 2D up, as the Strang state
        padded[...] = values
        turned = values.T  # Fortran order: summed in memory order, as np.sum does
        for layout in (values, padded, values.real.copy(), turned):
            mag = np.abs(layout)
            assert _modulus_sums(layout) == (np.sum(mag**2), np.sum(mag))
        raw = np.fft.fftn(values)
        mag = np.abs(raw)
        l2 = float(np.sqrt(grid.dx**grid.d * np.sum(mag**2) / grid.total_points))
        assert _norms(raw, grid) == (l2, float(_wiener_from_modulus(mag, grid)))
        samples = float(np.sqrt(grid.dx**grid.d * np.sum(np.abs(values) ** 2)))
        wiener = float(_wiener_from_modulus(mag, grid))
        assert _norms_in_place(values.copy(), grid) == (samples, wiener)

    @pytest.mark.parametrize("d, points", [(1, 256), (2, 256)])
    def test_in_place_forms_each_sum_once(self, monkeypatch, d, points):
        # L2 sums the squares of the samples, Wiener the moduli of the
        # spectrum: one sum per block each, none formed and dropped
        grid = Grid(d=d, length=16.0, points=points)
        values = np.ones(grid.shape, dtype=np.complex128)
        sums, real_sum = [], np.sum
        monkeypatch.setattr(np, "sum", lambda *a, **k: sums.append(1) or real_sum(*a, **k))
        _norms_in_place(values, grid)
        monkeypatch.undo()
        assert len(sums) == 2 * -(-grid.total_points // CHUNK)

    def test_moduli_take_chunk_scratch(self):
        grid = Grid(d=2, length=16.0, points=256)
        values = np.ones(grid.shape, dtype=np.complex128)
        _modulus_sums(values)
        tracemalloc.start()
        try:
            _modulus_sums(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * CHUNK * 8


class TestNormMemory:
    """Peaks over entry, in complex128 fields of a 512^2 grid."""

    grid = Grid(d=2, length=16.0, points=512)

    def peak_fields(self, call) -> float:
        call()  # FFT plan caches
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - entry) / (16 * self.grid.total_points)

    def test_norms_in_place_take_chunk_scratch(self):
        x, y = self.grid.coords()
        f = np.exp(-(x**2 + y**2) / 2 + 1j * x)
        assert self.peak_fields(lambda: _norms_in_place(f, self.grid)) <= 0.05

    def test_spectrum_norms_take_chunk_scratch(self):
        raw = padded_zeros(self.grid)
        raw[...] = 1.0 + 2.0j
        assert self.peak_fields(lambda: _norms(raw, self.grid)) <= 0.05


class TestYNorm:
    def test_zero(self, grid1d, kernel1d):
        assert _graded_norm(np.zeros(grid1d.shape), grid1d, kernel1d) == 0

    def test_dominates_base_norms(self, grid1d, gaussian_field, kernel1d):
        raw = np.fft.fftn(gaussian_field)
        assert _graded_norm(raw, grid1d, kernel1d) >= sum(l2_wiener(gaussian_field, grid1d))

    def test_gaussian_against_symbolic_oracle(self, grid1d, kernel1d):
        # oracle route: sample the symbolic derivatives of exp(-x^2/2)
        # directly and take their norms, bypassing the FFT multiplier.
        x = grid1d.axis_coords()
        symbolic = [
            np.exp(-x**2 / 2),
            -x * np.exp(-x**2 / 2),
            (x**2 - 1) * np.exp(-x**2 / 2),
        ]
        expected = sum(sum(l2_wiener(s, grid1d)) for s in symbolic)
        got = _graded_norm(np.fft.fftn(symbolic[0]), grid1d, kernel1d)
        assert abs(got - expected) / expected < 1e-6

    def test_gaussian_continuum_convergence(self):
        # the discrete Wiener norm of an odd derivative carries an
        # O(dxi^2) kink error at xi = 0, so continuum agreement at 1e-6
        # needs a wide box; each continuum piece is a 1D quadrature.
        grid = Grid(d=1, length=1024.0, points=8192)
        spec = KernelSpec(d=1, gamma=0.5)
        x = grid.axis_coords()
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
        got = _graded_norm(np.fft.fftn(np.exp(-x**2 / 2)), grid, spec)
        assert abs(got - expected) / expected < 1e-6

    @pytest.mark.parametrize(
        "d, points, gamma", [(1, 256, 0.5), (2, 64, 0.5), (3, 16, 0.5), (3, 16, 1.5)]
    )
    def test_matches_derivative_by_derivative(self, d, points, gamma):
        # reference: one transform pair per derivative, each norm taken
        # on the physical derivative field
        from oracles import spectral_derivative

        grid = Grid(d=d, length=16.0, points=points)
        f = band_limited(grid, np.random.default_rng(5 + d), points // 4)
        spec = KernelSpec(d=d, gamma=gamma)
        expected = sum(sum(l2_wiener(spectral_derivative(f, grid, eta), grid))
                       for eta in multi_indices(d, derivative_order(d, gamma)))
        got = _graded_norm(np.fft.fftn(f), grid, spec)
        assert abs(got - expected) < 1e-12 * expected

    @pytest.mark.parametrize("d, points", [(1, 8192), (2, 64), (3, 16)])
    def test_sums_each_derivative_in_the_one_order(self, d, points):
        # whole-array sums per multi-index, in their order: the graded norm
        # squares moduli in place, which must leave |raw| intact until eta = 0
        grid = Grid(d=d, length=16.0, points=points)
        raw = np.fft.fftn(band_limited(grid, np.random.default_rng(d), points // 4))
        spec = KernelSpec(d=d, gamma=0.5)
        xi = [np.abs(m) for m in grid.freq_meshes(zero_nyquist=True)]
        expected = 0.0
        for eta in multi_indices(d, derivative_order(d, 0.5)):
            mag = np.abs(raw)
            for x, e in zip(xi, eta):
                if e:
                    mag = mag * x**e
            l2 = np.sqrt(grid.dx**d * np.sum(mag**2) / grid.total_points)
            expected += float(l2) + float(_wiener_from_modulus(mag, grid))
        assert _graded_norm(raw, grid, spec) == expected

    def test_multi_index_counts(self):
        assert len(multi_indices(1, 2)) == 3
        assert len(multi_indices(2, 2)) == 6
        assert len(multi_indices(3, 3)) == 20


class TestENorm:
    # ||a(0)||_E of a family whose amplitudes are all the gaussian field
    def test_single_mode(self, grid1d, gaussian_field, kernel1d):
        fam = ModeFamily(grid1d, (Mode([0.0], gaussian_field),))
        e_norm = _half_laplacians(fam, snapshot(fam, 0.0, kernel1d), kernel1d)
        raw = np.fft.fftn(gaussian_field)
        assert e_norm == pytest.approx(_graded_norm(raw, fam.grid, kernel1d))

    def test_duplication_additivity(self, grid1d, gaussian_field, kernel1d):
        one = ModeFamily(grid1d, (Mode([0.0], gaussian_field),))
        two = ModeFamily(grid1d, (Mode([-2.0], gaussian_field), Mode([2.0], gaussian_field)))
        single = _half_laplacians(one, snapshot(one, 0.0, kernel1d), kernel1d)
        double = _half_laplacians(two, snapshot(two, 0.0, kernel1d), kernel1d)
        assert double == pytest.approx(2 * single, rel=1e-14)


class TestAlgebraBound:
    def test_zero_factor(self, grid1d, gaussian_field):
        pair = np.stack((gaussian_field, np.zeros(grid1d.shape, dtype=complex)))
        w = np.array([[l2_wiener(gaussian_field, grid1d)[1], 0.0]])
        (lhs,), (rhs,) = _algebra_bounds(pair[None], w, grid1d)
        assert lhs == 0
        assert holds(lhs, rhs, ALGEBRA_SLACK)

    def test_plane_wave_pair_convention_ratio(self, grid1d):
        # single plane waves have modulus-one spectra; under the unitary
        # convention the product's norm is exactly (2 pi)^(-d/2) times
        # the product of norms, which is the sharp constant here.
        f = plane_wave(grid1d, lattice_wavenumber(grid1d, 6))
        w = np.full((1, 2), l2_wiener(f, grid1d)[1])
        (lhs,), (rhs,) = _algebra_bounds(np.stack((f, f))[None], w, grid1d)
        assert holds(lhs, rhs, ALGEBRA_SLACK)
        assert lhs / rhs == pytest.approx(
            (2 * np.pi) ** (-0.5), rel=1e-10
        )

    def test_matches_separate_norms(self):
        # the drawn pair's norms and one product transform give the
        # numbers of three separate Wiener norms
        rng = np.random.default_rng(7)
        for grid in (Grid(d=1, length=32.0, points=256), Grid(d=2, length=8.0, points=32)):
            pair, w = _random_band_limited(grid, rng, grid.points // 4 - 1, 1, 2)
            f, g = (v.copy() for v in pair[0])
            (lhs,), (rhs,) = _algebra_bounds(pair, w, grid)
            (_, w_fg), (_, w_f), (_, w_g) = (l2_wiener(v, grid) for v in (f * g, f, g))
            assert lhs == pytest.approx(w_fg, rel=1e-14)
            assert rhs == pytest.approx(w_f * w_g, rel=1e-14)

    def test_fft_budget(self, grid1d, fft_calls):
        # the draw's inverse transform gives the factors and, from their
        # band, their Wiener norms; one more for the product: 2, where
        # separate calls took 5
        rng = np.random.default_rng(11)
        _algebra_bounds(*_random_band_limited(grid1d, rng, grid1d.points // 4 - 1, 1, 2),
                        grid1d)
        assert len(fft_calls) == 2

    def test_random_campaign(self, grid1d):
        rng = np.random.default_rng(29)
        pairs, w = _random_band_limited(grid1d, rng, grid1d.points // 4 - 1, 200, 2)
        lhs, rhs = _algebra_bounds(pairs, w, grid1d)
        assert len(lhs) == 200 and np.all(holds(lhs, rhs, ALGEBRA_SLACK))


class TestHartreeBound:
    def test_zero_density(self, kernel1d, grid1d):
        (lhs,), (rhs,) = _hartree_bounds(kernel1d, np.zeros((1, *grid1d.shape)), grid1d)
        assert lhs == 0
        assert holds(lhs, rhs, HARTREE_SLACK)

    def test_gaussian_squared(self, kernel1d, grid1d):
        x = grid1d.axis_coords()
        (lhs,), (rhs,) = _hartree_bounds(kernel1d, np.exp(-(x**2))[None], grid1d)
        assert holds(lhs, rhs, HARTREE_SLACK)

    def test_random_campaign(self, kernel1d, grid1d):
        rng = np.random.default_rng(31)
        x = grid1d.axis_coords()
        envelope = np.exp(-(x**2) / (2 * (grid1d.length / 12) ** 2))
        h = [np.abs(band_limited(grid1d, rng, grid1d.points // 16)) ** 2 * envelope
             for _ in range(100)]
        lhs, rhs = _hartree_bounds(kernel1d, np.array(h), grid1d)
        assert len(lhs) == 100 and np.all(holds(lhs, rhs, HARTREE_SLACK))

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_convolution_formula(self, d):
        # one shared |hhat| gives the numbers of the convolve-then-transform
        # route: the Wiener norms of K * h and of h
        from hartreelab import KernelSpec, split_norms
        from oracles import l1_norm
        from hartreelab.kernel import convolve, half_multiplier

        grid = Grid(d=d, length=16.0, points={1: 256, 2: 32}[d])
        spec = KernelSpec(d=d, gamma=0.5, coupling=1.0)
        rng = np.random.default_rng(13 + d)
        for _ in range(3):
            h = np.abs(band_limited(grid, rng, grid.points // 8)) ** 2
            (got_lhs,), (got_rhs,) = _hartree_bounds(spec, h[None], grid)
            k1_l1, k2_sup = split_norms(spec)
            conv = convolve(half_multiplier(spec, grid), h.copy())
            lhs = l2_wiener(conv, grid)[1]
            rhs = k1_l1 * l1_norm(h, grid) + k2_sup * l2_wiener(h, grid)[1]
            assert got_lhs == pytest.approx(lhs, rel=1e-12, abs=0)
            assert got_rhs == pytest.approx(rhs, rel=1e-12, abs=0)

    def test_fft_budget(self, kernel1d, grid1d, fft_calls):
        # one transform of h serves both Wiener norms, where the
        # convolve-then-transform route took four
        rng = np.random.default_rng(17)
        h = np.abs(band_limited(grid1d, rng, grid1d.points // 16)) ** 2
        fft_calls.clear()
        _hartree_bounds(kernel1d, h[None], grid1d)
        assert len(fft_calls) == 1
