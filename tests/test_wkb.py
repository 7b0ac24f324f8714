import tracemalloc

import numpy as np
import pytest

from hartreelab import (
    ContainmentError,
    GaussianProfile,
    Grid,
    KernelSpec,
    Mode,
    ModeFamily,
    ResolutionError,
    action_phase,
    ansatz_residual,
    assemble,
    initial_data,
    laplacian,
    resonant_remainder,
    snapshot,
    translate,
    transport_residual,
)
from hartreelab import wkb
from hartreelab.grid import plane_wave
from hartreelab.kernel import convolve, half_multiplier
from hartreelab.norms import derivative_order, multi_indices
from hartreelab.wkb import _averaging_factor, _mode_carrier
from oracles import action_phase_quadrature, l2_wiener, multiplier_grid, spectral_derivative


@pytest.fixture
def kernel():
    return KernelSpec(d=1, gamma=0.5, coupling=1.0)


@pytest.fixture
def single_mode_family():
    grid = Grid(d=1, length=32.0, points=512)
    return ModeFamily.from_profiles(
        grid,
        [([0.0], GaussianProfile(amplitude=1.0, center=(0.0,), width=1.0))],
    )


class TestModeFamily:
    def test_rejects_duplicate_wavevectors(self):
        grid = Grid(d=1, length=32.0, points=256)
        prof = GaussianProfile(amplitude=1.0, center=(0.0,), width=1.0)
        with pytest.raises(ValueError, match="distinct"):
            ModeFamily.from_profiles(grid, [([2.0], prof), ([2.0], prof)])

    def test_delta_is_min_separation(self, two_mode_family):
        assert two_mode_family.delta == pytest.approx(4.0)

    def test_rejects_non_decaying_amplitude(self):
        grid = Grid(d=1, length=32.0, points=256)
        prof = GaussianProfile(amplitude=1.0, center=(0.0,), width=10.0)
        with pytest.raises(ValueError, match="decay"):
            ModeFamily.from_profiles(grid, [([1.0], prof)])

    def test_rejects_empty(self):
        grid = Grid(d=1, length=32.0, points=256)
        with pytest.raises(ValueError, match="at least one"):
            ModeFamily(grid=grid, modes=())

    def test_rejects_kappa_of_another_dimension(self, grid1d, gaussian_field):
        with pytest.raises(ValueError, match="kappa has 2 components but the grid is 1D"):
            ModeFamily(grid1d, (Mode([1.0, 0.0], gaussian_field),))

    def test_rejects_amplitude_off_the_family_grid(self, grid1d, gaussian_field):
        # an array handed to Mode directly passes no `sample_profile`
        finer = Grid(d=1, length=32.0, points=2 * grid1d.points)
        nan = gaussian_field.copy()
        nan[3] = np.nan
        for grid, alpha in ((finer, gaussian_field), (grid1d, nan)):
            with pytest.raises(ValueError, match="finite samples on the family grid"):
                ModeFamily(grid, (Mode([1.0], alpha),))


class TestOscillationAverage:
    def test_zero_frequency_gives_t(self):
        w = np.array([0.0])
        out = _averaging_factor(0.7, w, np.exp(-0.7j * w))
        assert out[0] == pytest.approx(0.7)

    def test_matches_direct_quotient(self):
        w = np.array([0.5, -2.0, 10.0])
        t = 0.3
        direct = (1 - np.exp(-1j * t * w)) / (1j * w)
        got = _averaging_factor(t, w, np.exp(-1j * t * w))
        assert np.max(np.abs(got - direct)) < 1e-14

    def test_series_branch_matches_quotient(self):
        # just below the switch the direct quotient is still good to
        # ~2e-10 relative, so the series must agree with it there
        t = 1.0
        w = 9.9e-7
        series = _averaging_factor(t, np.array([w]), np.exp(-1j * t * np.array([w])))[0]
        direct = (1 - np.exp(-1j * t * w)) / (1j * w)
        assert abs(series - direct) < 1e-9


class TestActionPhase:
    def test_zero_time(self, two_mode_family, kernel):
        out = action_phase(two_mode_family, 0, 0.0, kernel)
        assert np.all(out == 0)

    def test_single_zero_mode_collapses(self, single_mode_family, kernel):
        # kappa = 0: the formula reduces to -lambda * t * (K * |alpha|^2)
        t = 0.4
        out = action_phase(single_mode_family, 0, t, kernel)
        grid = single_mode_family.grid
        rho = np.abs(single_mode_family.modes[0].alpha) ** 2
        # full-lattice K * rho, independent of the half-spectrum route
        conv = np.fft.ifftn(np.fft.fftn(rho) * multiplier_grid(kernel, grid)).real
        expected = -kernel.coupling * t * np.sqrt(2 * np.pi) * conv
        assert np.max(np.abs(out - expected)) < 1e-12 * np.max(np.abs(expected))

    def test_closed_form_vs_simpson_oracle(self, two_mode_family, kernel):
        t = 0.5
        for j in (0, 1):
            closed = action_phase(two_mode_family, j, t, kernel)
            quad = action_phase_quadrature(two_mode_family, j, t, kernel, nodes=64)
            assert np.max(np.abs(closed - quad)) < 1e-8

    def test_quadrature_fourth_order(self, two_mode_family, kernel):
        t = 0.5
        closed = action_phase(two_mode_family, 0, t, kernel)
        errs = []
        for nodes in (8, 16):
            quad = action_phase_quadrature(two_mode_family, 0, t, kernel, nodes=nodes)
            errs.append(np.max(np.abs(closed - quad)))
        assert errs[0] / errs[1] >= 8.0

    def test_quadrature_rejects_odd_nodes(self, two_mode_family, kernel):
        with pytest.raises(ValueError, match="even"):
            action_phase_quadrature(two_mode_family, 0, 0.5, kernel, nodes=9)

    def test_containment_violation_rejected(self, two_mode_family, kernel):
        with pytest.raises(ContainmentError):
            action_phase(two_mode_family, 0, 5.0, kernel)

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_phase_is_real(self, two_mode_family, kernel, t):
        assert action_phase(two_mode_family, 1, t, kernel).dtype == np.float64


class TestSnapshot:
    def test_initial_amplitudes_exact(self, two_mode_family, kernel):
        amps = snapshot(two_mode_family, 0.0, kernel)
        for mode, amp in zip(two_mode_family.modes, amps):
            assert np.array_equal(amp, mode.alpha)

    def test_zero_coupling_is_pure_transport(self, two_mode_family):
        free = KernelSpec(d=1, gamma=0.5, coupling=0.0)
        t = 0.5
        amps = snapshot(two_mode_family, t, free)
        for mode, amp in zip(two_mode_family.modes, amps):
            moved = translate(mode.alpha, two_mode_family.grid, t * mode.kappa)
            assert np.max(np.abs(amp - moved)) < 1e-12

    def test_modulus_transport_invariant(self, two_mode_family, kernel):
        t = 0.5
        amps = snapshot(two_mode_family, t, kernel)
        for mode, amp in zip(two_mode_family.modes, amps):
            moved = translate(mode.alpha, two_mode_family.grid, t * mode.kappa)
            assert np.max(np.abs(np.abs(amp) - np.abs(moved))) < 1e-10

    def test_transport_equation_residual(self, two_mode_family, kernel):
        # centered finite differences in t certify the transport law
        residuals = transport_residual(two_mode_family, 0.5, kernel, h=1e-4)
        assert max(residuals) < 1e-6

    def test_transport_residual_is_fourth_order(self, two_mode_family, kernel):
        # the extrapolated stencil leaves the h^2 term of the centered one
        # (7e-7 on this family) behind: truncation falls 16x per halving
        coarse = max(transport_residual(two_mode_family, 0.5, kernel, h=4e-2))
        fine = max(transport_residual(two_mode_family, 0.5, kernel, h=2e-2))
        assert 12 < coarse / fine < 20
        assert max(transport_residual(two_mode_family, 0.5, kernel)) < 1e-9

    def test_norm_stability_at_zero_coupling(self, two_mode_family):
        free = KernelSpec(d=1, gamma=0.5, coupling=0.0)
        grid = two_mode_family.grid
        base = sum(sum(l2_wiener(m.alpha, grid)) for m in two_mode_family.modes)
        for t in (0.3, 0.8):
            amps = snapshot(two_mode_family, t, free)
            now = sum(sum(l2_wiener(a, grid)) for a in amps)
            assert abs(now - base) < 1e-8 * base

    def test_warm_two_mode_2d_snapshot_peaks_under_four_and_a_quarter_arrays(self):
        # the first amplitude, the second's unit phase and its translation's
        # one complex buffer, plus numpy's 128 KiB iterator buffer for the
        # broadcast modulation (half an array at 128^2); the density
        # spectra are freed once both phases are built
        grid = Grid(d=2, length=16.0, points=128)
        prof = GaussianProfile(amplitude=1.0, center=(0.0, 0.0), width=0.75)
        family = ModeFamily.from_profiles(
            grid, [([-2.0, 0.0], prof), ([2.0, 0.0], prof)])
        spec = KernelSpec(d=2, gamma=0.5, coupling=1.0)
        snapshot(family, 0.25, spec)  # memoized multiplier, FFT plan caches
        tracemalloc.start()
        try:
            amps = snapshot(family, 0.25, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state = grid.total_points * np.dtype(np.complex128).itemsize
        assert peak <= 3.6 * state
        assert all(a.dtype == np.complex128 and a.flags.writeable for a in amps)


class TestAssemble:
    def test_initial_data_reproduced(self, two_mode_family, kernel):
        eps = 0.1
        direct = initial_data(two_mode_family, eps)
        assembled = assemble(two_mode_family, snapshot(two_mode_family, 0.0, kernel), 0.0,
                             eps)
        assert sum(l2_wiener(direct - assembled, two_mode_family.grid)) < 1e-12

    def test_single_frozen_mode(self, single_mode_family):
        free = KernelSpec(d=1, gamma=0.5, coupling=0.0)
        eps = 0.2
        out = assemble(single_mode_family, snapshot(single_mode_family, 0.7, free), 0.7, eps)
        alpha = single_mode_family.modes[0].alpha
        assert np.max(np.abs(out - alpha)) < 1e-12

    def test_near_orthogonal_energy(self, two_mode_family, kernel):
        # cross terms oscillate at delta/eps; the mode energies add in
        # the Pythagorean sense and the triangle bound holds as stated
        eps = 0.1
        t = 0.4
        amps = snapshot(two_mode_family, t, kernel)
        grid = two_mode_family.grid
        u = l2_wiener(assemble(two_mode_family, amps, t, eps), grid)[0]
        norms = [l2_wiener(a, grid)[0] for a in amps]
        assert u <= sum(norms) * (1 + 1e-12)
        pythagoras = np.sqrt(sum(n**2 for n in norms))
        assert abs(u - pythagoras) < 1e-8 * pythagoras

    def test_resolution_violation_rejected(self, two_mode_family, kernel):
        with pytest.raises(ResolutionError):
            assemble(two_mode_family, snapshot(two_mode_family, 0.0, kernel), 0.0, 0.01)


# (d, t): a sample time and t = 0, the sweep's first snapshot
SNAPSHOT_TIMES = [(1, 0.5), (2, 0.5), (1, 0.0), (2, 0.0)]
SNAPSHOT_IDS = ["1", "2", "1-t0", "2-t0"]


class TestZ2Term:
    def test_zero_amplitudes(self, kernel):
        grid = Grid(d=1, length=32.0, points=512)
        fam = ModeFamily.from_profiles(
            grid,
            [([0.0], GaussianProfile(amplitude=0.0, center=(0.0,), width=1.0))],
        )
        halves, _ = half_laplacians(fam, snapshot(fam, 0.0, kernel))
        out = assemble(fam, halves, 0.0, 0.1)
        assert np.all(out == 0)

    def test_gaussian_center_value(self, single_mode_family, kernel):
        # at t = 0 the single amplitude is the gaussian itself, so Z2 at
        # the center is alpha''(0)/2 = -A / (2 sigma^2)
        fam = single_mode_family
        halves, _ = half_laplacians(fam, snapshot(fam, 0.0, kernel))
        out = assemble(fam, halves, 0.0, 0.1)
        grid = fam.grid
        idx = np.argmin(np.abs(grid.axis_coords()))
        assert out[idx].real == pytest.approx(-0.5, abs=1e-8)

    def test_bounded_by_mode_norms(self, two_mode_family, kernel):
        t, eps = 0.5, 0.1
        halves, e_norm = half_laplacians(two_mode_family,
                                         snapshot(two_mode_family, t, kernel))
        z2 = sum(l2_wiener(assemble(two_mode_family, halves, t, eps), two_mode_family.grid))
        assert z2 <= e_norm * (1 + 1e-6)

    @pytest.mark.parametrize("d, t", SNAPSHOT_TIMES, ids=SNAPSHOT_IDS)
    def test_shared_half_laplacians_are_bitwise(self, d, t, two_mode_family):
        fam = two_mode_family if d == 1 else four_mode_family(128)
        spec = family_kernel(fam)
        eps = {1: 0.1, 2: 0.5}[d]
        amps = snapshot(fam, t, spec)
        halves = [0.5 * laplacian(a, fam.grid) for a in amps]
        ref = assemble(fam, halves, t, eps)
        wkb._half_laplacians(fam, amps, spec)  # in place
        assert np.array_equal(assemble(fam, amps, t, eps), ref)


def carrier_family(d, points):
    """A mode along each axis, one along the diagonal and one at rest."""
    grid = Grid(d=d, length=16.0, points=points)
    prof = GaussianProfile(amplitude=1.0, center=(0.0,) * d, width=0.75)
    kappas = [1.5 * (a + 1) * np.eye(d)[a] for a in range(d)] + [-np.ones(d), np.zeros(d)]
    return ModeFamily.from_profiles(grid, [(k, prof) for k in kappas])


class TestSuperposeBlocks:
    """`assemble` applies each carrier over blocks of leading-axis rows; the
    sum is bitwise the one full-size products give."""

    @pytest.mark.parametrize("d, points", [(1, 512), (2, 64), (3, 16)],
                             ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("rows", [3, 1, None],
                             ids=["three_rows", "row_over_chunk", "default_chunk"])
    def test_blocks_match_full_scratch(self, monkeypatch, d, points, rows):
        fam = carrier_family(d, points)
        g = fam.grid
        # random values on coarse lattices: the sum's blocks are under test,
        # not whether the lattice resolves the family
        monkeypatch.setattr(wkb, "check_resolution", lambda family, eps: None)
        row = g.total_points // g.points
        if rows == 3:  # 3 rows do not divide the power-of-two rows: a short last block
            monkeypatch.setattr(wkb, "CHUNK", 3 * row)
        elif rows == 1:  # a row longer than CHUNK is still one block
            monkeypatch.setattr(wkb, "CHUNK", max(1, row // 2))
        rng = np.random.default_rng(d)
        values = [rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
                  for _ in fam.modes]
        values[0] = values[0].real.copy()  # a real amplitude, as initial data's
        for t, eps in ((0.0, 0.3), (0.4, 0.15)):
            full = np.zeros(g.shape, dtype=np.complex128)
            for mode, v in zip(fam.modes, values):
                full += np.multiply(v, _mode_carrier(g, mode.kappa, t, eps),
                                    out=np.empty(g.shape, dtype=np.complex128))
            assert assemble(fam, values, t, eps).tobytes() == full.tobytes()


class TestSharedTerms:
    @pytest.mark.parametrize("d, t", SNAPSHOT_TIMES, ids=SNAPSHOT_IDS)
    def test_e_norm_sums_derivative_norms(self, d, t, two_mode_family):
        fam = two_mode_family if d == 1 else four_mode_family(128)
        amps = snapshot(fam, t, family_kernel(fam))
        expected = sum(
            sum(l2_wiener(spectral_derivative(a, fam.grid, eta), fam.grid))
            for a in amps
            for eta in multi_indices(d, derivative_order(d, family_kernel(fam).gamma))
        )
        _, e_norm = half_laplacians(fam, amps)
        assert abs(e_norm - expected) < 1e-12 * expected


class TestResonantRemainder:
    def test_single_mode_vanishes(self, single_mode_family, kernel):
        amps = snapshot(single_mode_family, 0.3, kernel)
        u_app = assemble(single_mode_family, amps, 0.3, 0.1)
        out = resonant_remainder(single_mode_family, amps, 0.1, kernel, u_app)
        assert np.all(out == 0)

    def test_label_swap_symmetry(self, kernel):
        grid = Grid(d=1, length=32.0, points=1024)
        prof = GaussianProfile(amplitude=1.0, center=(0.0,), width=1.0)
        fam_a = ModeFamily.from_profiles(
            grid, [([-2.0], prof), ([2.0], prof)]
        )
        fam_b = ModeFamily.from_profiles(
            grid, [([2.0], prof), ([-2.0], prof)]
        )
        t, eps = 0.4, 0.1
        amps_a, amps_b = snapshot(fam_a, t, kernel), snapshot(fam_b, t, kernel)
        a = resonant_remainder(fam_a, amps_a, eps, kernel, assemble(fam_a, amps_a, t, eps))
        b = resonant_remainder(fam_b, amps_b, eps, kernel, assemble(fam_b, amps_b, t, eps))
        assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(a))

    def test_epsilon_scaling(self, two_mode_family, kernel):
        # d - gamma = 0.5: the remainder norm should halve per 4x in eps
        t = 0.25
        norms = {}
        amps = snapshot(two_mode_family, t, kernel)
        for eps in (0.2, 0.05):
            u_app = assemble(two_mode_family, amps, t, eps)
            rem = resonant_remainder(two_mode_family, amps, eps, kernel, u_app)
            norms[eps] = sum(l2_wiener(rem, two_mode_family.grid))
        slope = np.log(norms[0.2] / norms[0.05]) / np.log(0.2 / 0.05)
        assert abs(slope - 0.5) < 0.15


class TestOutBuffers:
    """A record term given `out=` overwrites whatever the buffer held and
    returns `out`, bit for bit the term without it."""

    @pytest.mark.parametrize("name", ["single_mode_family", "two_mode_family", "4x128"])
    def test_buffers_filled_bitwise(self, name, request):
        fam = four_mode_family(128) if name == "4x128" else request.getfixturevalue(name)
        spec = family_kernel(fam)
        t, eps = 0.5, {1: 0.1, 2: 0.5}[fam.grid.d]
        amps = snapshot(fam, t, spec)

        def nan_field():
            return np.full(fam.grid.shape, np.nan, dtype=np.complex128)

        u_app = assemble(fam, amps, t, eps)
        out = nan_field()
        got = assemble(fam, amps, t, eps, out=out)
        assert got is out and got.tobytes() == u_app.tobytes()

        halves, _ = half_laplacians(fam, amps)
        out = nan_field()
        got = assemble(fam, halves, t, eps, out=out)
        assert got is out and got.tobytes() == assemble(fam, halves, t, eps).tobytes()

        out = nan_field()
        got = resonant_remainder(fam, amps, eps, spec, u_app, out=out)
        ref = resonant_remainder(fam, amps, eps, spec, u_app)
        assert got is out and got.tobytes() == ref.tobytes()


class TestAnsatzResidual:
    def test_identity_error_small(self, two_mode_family, kernel):
        assert ansatz_residual(two_mode_family, 0.5, 0.1, kernel) < 1e-6

    def test_single_mode_residual_is_z2_only(self, single_mode_family, kernel):
        t, eps = 0.4, 0.1
        assert ansatz_residual(single_mode_family, t, eps, kernel) < 1e-6

    def test_zero_coupling_residual_is_z2_exactly(self, two_mode_family):
        free = KernelSpec(d=1, gamma=0.5, coupling=0.0)
        t, eps = 0.5, 0.1
        assert ansatz_residual(two_mode_family, t, eps, free) < 1e-10


# ---------------------------------------------------------------------------
# plain-numpy copies of the full-grid formulas the separable code replaced


def full_grid_oscillation_average(t, omega):
    out = np.empty(omega.shape, dtype=np.complex128)
    theta = t * omega
    small = np.abs(theta) < 1e-6
    ws = omega[~small]
    out[~small] = (1.0 - np.exp(-1j * t * ws)) / (1j * ws)
    th = theta[small]
    out[small] = t * (1.0 - 0.5j * th - th**2 / 6.0)
    return out


def full_grid_action_phase(family, j, t, spec):
    """One density FFT per (j, l) pair and full-grid complex exponentials."""
    g = family.grid
    khat = multiplier_grid(spec, g)
    meshes = g.freq_meshes(zero_nyquist=True)
    kappa_j = family.modes[j].kappa
    acc = np.zeros(g.shape, dtype=np.complex128)
    for mode in family.modes:
        rho_raw = np.fft.fftn(np.abs(mode.alpha) ** 2)
        omega = np.zeros(g.shape)
        for ax in range(g.d):
            omega = omega + (mode.kappa[ax] - kappa_j[ax]) * meshes[ax]
        acc += rho_raw * full_grid_oscillation_average(t, omega)
    carrier = np.zeros(g.shape)
    for ax in range(g.d):
        carrier = carrier + kappa_j[ax] * meshes[ax]
    spectrum = khat * np.exp(-1j * t * carrier) * acc
    return (-spec.coupling * (2 * np.pi) ** (g.d / 2) * np.fft.ifftn(spectrum)).real


def full_grid_cross_phase(grid, kap_k, kap_l, t, eps):
    phase = np.zeros(grid.shape)
    for ax, (ck, cl) in enumerate(zip(kap_k, kap_l)):
        phase = phase + (ck - cl) * grid.coords()[ax]
    phase = phase - 0.5 * t * (float(kap_k @ kap_k) - float(kap_l @ kap_l))
    return np.exp(1j * phase / eps)


def full_grid_mode_carrier(grid, kappa, t, eps):
    phase = np.zeros(grid.shape)
    for ax, kc in zip(grid.coords(), kappa):
        phase = phase + kc * ax
    phase = (phase - 0.5 * t * float(kappa @ kappa)) / eps
    return np.exp(1j * phase)


def full_grid_remainder(family, t, eps, spec, amps):
    """Ordered double sum over k != l, one full-grid exponential per term."""
    g = family.grid
    cross = np.zeros(g.shape, dtype=np.complex128)
    for k, (mode_k, a_k) in enumerate(zip(family.modes, amps)):
        for l, (mode_l, a_l) in enumerate(zip(family.modes, amps)):
            if k != l:
                wave = full_grid_cross_phase(g, mode_k.kappa, mode_l.kappa, t, eps)
                cross = cross + a_k * np.conj(a_l) * wave
    u_app = sum(
        a * full_grid_mode_carrier(g, m.kappa, t, eps)
        for m, a in zip(family.modes, amps)
    )
    conv = np.fft.ifftn(np.fft.fftn(cross) * multiplier_grid(spec, g))
    return -(2 * np.pi) ** (g.d / 2) * conv * u_app


def half_laplacians(family, amps):
    """(1/2) Lap a_j of the amplitudes `amps`, turned in copies, and ||a||_E."""
    halves = [a.copy() for a in amps]
    return halves, wkb._half_laplacians(family, halves, family_kernel(family))


def four_mode_family(points):
    grid = Grid(d=2, length=16.0, points=points)
    prof = GaussianProfile(amplitude=1.0, center=(0.0, 0.0), width=0.75)
    kappas = ([-2.0, 0.0], [2.0, 0.0], [0.0, -2.0], [0.0, 2.0])
    return ModeFamily.from_profiles(grid, [(k, prof) for k in kappas])


def three_mode_family_1d():
    grid = Grid(d=1, length=32.0, points=1024)
    prof = GaussianProfile(amplitude=1.0, center=(0.0,), width=1.0)
    return ModeFamily.from_profiles(
        grid, [([-2.0], prof), ([0.5], prof), ([2.0], prof)]
    )


FAMILIES = {
    "four_mode_64sq": lambda: four_mode_family(64),
    "three_mode_1d": three_mode_family_1d,
}


def family_kernel(family):
    return KernelSpec(d=family.grid.d, gamma=0.5, coupling=1.0)


@pytest.mark.parametrize("name", sorted(FAMILIES))
class TestSeparableRewrite:
    def test_action_phase_matches_full_grid(self, name):
        family = FAMILIES[name]()
        spec = family_kernel(family)
        t = 0.5
        amps = snapshot(family, t, spec)
        for j in range(len(family.modes)):
            ref = full_grid_action_phase(family, j, t, spec)
            alone = action_phase(family, j, t, spec)
            assert np.max(np.abs(alone - ref)) < 1e-12
            mode = family.modes[j]
            moved = translate(mode.alpha, family.grid, t * mode.kappa) * np.exp(1j * ref)
            assert np.max(np.abs(amps[j] - moved)) < 1e-12

    def test_action_phase_inverse_is_irfftn_bit_for_bit(self, name, monkeypatch):
        # the leading-axis complex passes run in place, in irfftn's order
        family = FAMILIES[name]()
        spec = family_kernel(family)
        got = [action_phase(family, j, 0.5, spec) for j in range(len(family.modes))]
        def whole_irfftn(spectrum, out, leading):
            return np.fft.irfftn(spectrum, out.shape, tuple(range(out.ndim)), out=out)

        monkeypatch.setattr(wkb, "_inverse_into", whole_irfftn)
        for j, values in enumerate(got):
            assert np.array_equal(values, action_phase(family, j, 0.5, spec))

    def test_mode_carrier_matches_full_grid(self, name):
        family = FAMILIES[name]()
        g = family.grid
        for mode in family.modes:
            for t, eps in ((0.0, 0.3), (0.5, 0.15)):
                got = np.broadcast_to(_mode_carrier(g, mode.kappa, t, eps), g.shape)
                ref = full_grid_mode_carrier(g, mode.kappa, t, eps)
                assert np.max(np.abs(got - ref)) < 1e-12

    def test_cross_phase_matches_full_grid(self, name):
        family = FAMILIES[name]()
        g = family.grid
        t, eps = 0.5, 0.15
        for mode_k in family.modes:
            for mode_l in family.modes:
                kap_k, kap_l = mode_k.kappa, mode_l.kappa
                offset = -0.5 * t * (float(kap_k @ kap_k) - float(kap_l @ kap_l)) / eps
                got = plane_wave(g.coords(), kap_k - kap_l, 1.0 / eps, offset)
                ref = full_grid_cross_phase(g, kap_k, kap_l, t, eps)
                assert np.max(np.abs(np.broadcast_to(got, g.shape) - ref)) < 1e-12

    def test_snapshot_fft_budget(self, name, fft_calls):
        # in axis passes: one real density transform per mode, one real
        # inverse per phase and a complex translation pair per amplitude,
        # 4 d M; then a complex pair per amplitude for its graded norm and
        # half-Laplacian, 2 d M
        family = FAMILIES[name]()
        amps = snapshot(family, 0.5, family_kernel(family))
        m, d = len(family.modes), family.grid.d
        assert fft_calls.axis_passes() == 4 * d * m
        fft_calls.clear()
        wkb._half_laplacians(family, amps, family_kernel(family))
        assert fft_calls.axis_passes() == 2 * d * m


@pytest.mark.parametrize(
    "make, t, eps",
    [
        (three_mode_family_1d, 0.4, 0.1),
        # 128^2: a 64^2 lattice cannot meet the remainder resolution rule
        (lambda: four_mode_family(128), 0.5, 0.5),
    ],
    ids=["three_mode_1d", "four_mode_128sq"],
)
def test_remainder_matches_full_grid_double_sum(make, t, eps):
    family = make()
    spec = family_kernel(family)
    amps = snapshot(family, t, spec)
    got = resonant_remainder(family, amps, eps, spec, assemble(family, amps, t, eps))
    ref = full_grid_remainder(family, t, eps, spec, amps)
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def three_mode_family_3d():
    grid = Grid(d=3, length=16.0, points=32)
    prof = GaussianProfile(amplitude=1.0, center=(0.0, 0.0, 0.0), width=0.75)
    kappas = ([-2.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 2.0])
    return ModeFamily.from_profiles(grid, [(k, prof) for k in kappas])


@pytest.mark.parametrize(
    "make, t, eps",
    [(three_mode_family_1d, 0.4, 0.1), (lambda: four_mode_family(128), 0.5, 0.5),
     (three_mode_family_3d, 0.25, 0.5)],
    ids=["three_mode_1d", "four_mode_128sq", "three_mode_32cube"],
)
def test_remainder_in_its_buffer_matches_the_spectrum_route_bitwise(make, t, eps,
                                                                     monkeypatch):
    # B formed slice by slice and convolved inside `out`, its half spectrum
    # there too: the bits of B formed whole and convolved by `convolve`
    # through a spectrum of its own.  32^3 cannot meet the resolution
    # rules, which play no part in the arithmetic
    monkeypatch.setattr(wkb, "check_resolution", lambda *args, **kwargs: None)
    family = make()
    spec = family_kernel(family)
    amps = snapshot(family, t, spec)
    u_app = assemble(family, amps, t, eps)
    cross = np.square(np.abs(u_app))
    for amp in amps:
        cross -= np.square(np.abs(amp))
    want = -convolve(half_multiplier(spec, family.grid), cross) * u_app
    out = np.full(family.grid.shape, np.nan, dtype=np.complex128)
    got = resonant_remainder(family, amps, eps, spec, u_app, out=out)
    assert got is out and got.tobytes() == want.tobytes()


def test_remainder_holds_chunk_scratch_only():
    # beyond `out`: |a_j|^2 in chunk scratch and numpy's 128 KiB buffers;
    # no half spectrum (half a field) and no fresh kernel multiplier
    family = four_mode_family(256)
    spec = family_kernel(family)
    t, eps = 0.5, 0.5
    amps = snapshot(family, t, spec)
    u_app = assemble(family, amps, t, eps)
    out = np.empty(family.grid.shape, dtype=np.complex128)
    resonant_remainder(family, amps, eps, spec, u_app, out=out)
    tracemalloc.start()
    try:
        resonant_remainder(family, amps, eps, spec, u_app, out=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes // 4


def test_remainder_reads_cross_density_off_u_app(monkeypatch):
    # B = |u_app|^2 - sum_j |a_j|^2 needs no cross plane wave per mode pair
    family = four_mode_family(128)
    spec = family_kernel(family)
    t, eps = 0.5, 0.5
    amps = snapshot(family, t, spec)
    u_app = assemble(family, amps, t, eps)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return plane_wave(*args, **kwargs)

    monkeypatch.setattr(wkb, "plane_wave", counted)
    resonant_remainder(family, amps, eps, spec, u_app)
    assert calls == []
