from collections import Counter

import numpy as np
import pytest

from hartreelab import (
    ContainmentError,
    Field,
    GaussianProfile,
    Grid,
    KernelSpec,
    ModeFamily,
    ResolutionError,
    action_phase,
    action_phase_quadrature,
    ansatz_residual,
    assemble,
    eikonal_phase,
    initial_data,
    l2_norm,
    l2w_norm,
    laplacian,
    resonant_remainder,
    snapshot,
    spectral_derivative,
    translate,
    transport_residual,
    z2_term,
)
from hartreelab import wkb
from hartreelab.grid import plane_wave
from hartreelab.kernel import multiplier_grid
from hartreelab.norms import multi_indices
from hartreelab.wkb import _averaging_factor, _mode_carrier, _superpose


@pytest.fixture
def kernel():
    return KernelSpec(d=1, gamma=0.5, coupling=1.0)


@pytest.fixture
def single_mode_family():
    grid = Grid(d=1, length=32.0, points=512)
    return ModeFamily.from_profiles(
        grid,
        [([0.0], GaussianProfile(amplitude=1.0, center=(0.0,), width=1.0))],
        gamma=0.5,
    )


class TestModeFamily:
    def test_rejects_duplicate_wavevectors(self):
        grid = Grid(d=1, length=32.0, points=256)
        prof = GaussianProfile(amplitude=1.0, center=(0.0,), width=1.0)
        with pytest.raises(ValueError, match="distinct"):
            ModeFamily.from_profiles(grid, [([2.0], prof), ([2.0], prof)], gamma=0.5)

    def test_delta_is_min_separation(self, two_mode_family):
        assert two_mode_family.delta == pytest.approx(4.0)

    def test_rejects_non_decaying_amplitude(self):
        grid = Grid(d=1, length=32.0, points=256)
        prof = GaussianProfile(amplitude=1.0, center=(0.0,), width=10.0)
        with pytest.raises(ValueError, match="decay"):
            ModeFamily.from_profiles(grid, [([1.0], prof)], gamma=0.5)

    def test_rejects_empty(self):
        grid = Grid(d=1, length=32.0, points=256)
        from hartreelab.norms import YNormSpec

        with pytest.raises(ValueError, match="at least one"):
            ModeFamily(grid=grid, modes=(), nspec=YNormSpec(d=1, gamma=0.5))


class TestEikonalPhase:
    def test_zero_wavevector(self):
        grid = Grid(d=1, length=32.0, points=256)
        phi = eikonal_phase([0.0], 1.3, grid)
        assert np.all(phi.values == 0)

    def test_formula_point(self):
        grid = Grid(d=1, length=32.0, points=256)
        phi = eikonal_phase([2.0], 1.0, grid)
        x = grid.axis_coords()
        idx = np.argmin(np.abs(x - 0.5))
        assert phi.values[idx].real == pytest.approx(0.5 * 2.0 - 0.5 * 4.0)

    def test_solves_eikonal_equation(self):
        # dphi/dt + |grad phi|^2 / 2 = 0 with affine phases: closed form
        grid = Grid(d=1, length=32.0, points=256)
        kappa = 1.7
        dphi_dt = -0.5 * kappa**2
        residual = dphi_dt + 0.5 * kappa**2
        assert abs(residual) < 1e-12
        # and the sampled fields are consistent with that time slope
        h = 1e-3
        a = eikonal_phase([kappa], 1.0 + h, grid).values
        b = eikonal_phase([kappa], 1.0 - h, grid).values
        assert np.max(np.abs((a - b) / (2 * h) - dphi_dt)) < 1e-9


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
        assert np.all(out.values == 0)

    def test_single_zero_mode_collapses(self, single_mode_family, kernel):
        # kappa = 0: the formula reduces to -lambda * t * (K * |alpha|^2)
        t = 0.4
        out = action_phase(single_mode_family, 0, t, kernel)
        grid = single_mode_family.grid
        rho = np.abs(single_mode_family.modes[0].alpha.values) ** 2
        # full-lattice K * rho, independent of the half-spectrum route
        conv = np.fft.ifftn(np.fft.fftn(rho) * multiplier_grid(kernel, grid)).real
        expected = -kernel.coupling * t * np.sqrt(2 * np.pi) * conv
        assert np.max(np.abs(out.values - expected)) < 1e-12 * np.max(np.abs(expected))

    def test_closed_form_vs_simpson_oracle(self, two_mode_family, kernel):
        t = 0.5
        for j in (0, 1):
            closed = action_phase(two_mode_family, j, t, kernel)
            quad = action_phase_quadrature(two_mode_family, j, t, kernel, nodes=64)
            assert np.max(np.abs(closed.values - quad.values)) < 1e-8

    def test_quadrature_fourth_order(self, two_mode_family, kernel):
        t = 0.5
        closed = action_phase(two_mode_family, 0, t, kernel)
        errs = []
        for nodes in (8, 16):
            quad = action_phase_quadrature(two_mode_family, 0, t, kernel, nodes=nodes)
            errs.append(np.max(np.abs(closed.values - quad.values)))
        assert errs[0] / errs[1] >= 8.0

    def test_quadrature_rejects_odd_nodes(self, two_mode_family, kernel):
        with pytest.raises(ValueError, match="even"):
            action_phase_quadrature(two_mode_family, 0, 0.5, kernel, nodes=9)

    def test_containment_violation_rejected(self, two_mode_family, kernel):
        with pytest.raises(ContainmentError):
            action_phase(two_mode_family, 0, 5.0, kernel)


class TestSnapshot:
    def test_initial_amplitudes_exact(self, two_mode_family, kernel):
        snap = snapshot(two_mode_family, 0.0, kernel)
        for mode, amp in zip(two_mode_family.modes, snap.amplitudes):
            assert np.array_equal(amp.values, mode.alpha.values)

    def test_zero_coupling_is_pure_transport(self, two_mode_family):
        free = KernelSpec(d=1, gamma=0.5, coupling=0.0)
        t = 0.5
        snap = snapshot(two_mode_family, t, free)
        for mode, amp in zip(two_mode_family.modes, snap.amplitudes):
            moved = translate(mode.alpha, t * mode.kappa)
            assert np.max(np.abs(amp.values - moved.values)) < 1e-12

    def test_modulus_transport_invariant(self, two_mode_family, kernel):
        t = 0.5
        snap = snapshot(two_mode_family, t, kernel)
        for mode, amp in zip(two_mode_family.modes, snap.amplitudes):
            moved = translate(mode.alpha, t * mode.kappa)
            assert np.max(np.abs(np.abs(amp.values) - np.abs(moved.values))) < 1e-10

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
        base = sum(
            l2w_norm(m.alpha) for m in two_mode_family.modes
        )
        for t in (0.3, 0.8):
            snap = snapshot(two_mode_family, t, free)
            now = sum(l2w_norm(a) for a in snap.amplitudes)
            assert abs(now - base) < 1e-8 * base


class TestAssemble:
    def test_initial_data_reproduced(self, two_mode_family, kernel):
        eps = 0.1
        direct = initial_data(two_mode_family, eps)
        assembled = assemble(two_mode_family, snapshot(two_mode_family, 0.0, kernel), eps)
        assert l2w_norm(direct - Field(two_mode_family.grid, assembled)) < 1e-12

    def test_single_frozen_mode(self, single_mode_family):
        free = KernelSpec(d=1, gamma=0.5, coupling=0.0)
        eps = 0.2
        out = assemble(single_mode_family, snapshot(single_mode_family, 0.7, free), eps)
        alpha = single_mode_family.modes[0].alpha
        assert np.max(np.abs(out - alpha.values)) < 1e-12

    def test_near_orthogonal_energy(self, two_mode_family, kernel):
        # cross terms oscillate at delta/eps; the mode energies add in
        # the Pythagorean sense and the triangle bound holds as stated
        eps = 0.1
        t = 0.4
        snap = snapshot(two_mode_family, t, kernel)
        u = Field(two_mode_family.grid, assemble(two_mode_family, snap, eps))
        norms = [l2_norm(a) for a in snap.amplitudes]
        assert l2_norm(u) <= sum(norms) * (1 + 1e-12)
        pythagoras = np.sqrt(sum(n**2 for n in norms))
        assert abs(l2_norm(u) - pythagoras) < 1e-8 * pythagoras

    def test_resolution_violation_rejected(self, two_mode_family, kernel):
        with pytest.raises(ResolutionError):
            assemble(two_mode_family, snapshot(two_mode_family, 0.0, kernel), 0.01)


# (d, t): a sample time and t = 0, the sweep's first snapshot
SNAPSHOT_TIMES = [(1, 0.5), (2, 0.5), (1, 0.0), (2, 0.0)]
SNAPSHOT_IDS = ["1", "2", "1-t0", "2-t0"]


class TestZ2Term:
    def test_zero_amplitudes(self, kernel):
        grid = Grid(d=1, length=32.0, points=512)
        fam = ModeFamily.from_profiles(
            grid,
            [([0.0], GaussianProfile(amplitude=0.0, center=(0.0,), width=1.0))],
            gamma=0.5,
        )
        out = z2_term(fam, snapshot(fam, 0.0, kernel), 0.1)
        assert np.all(out == 0)

    def test_gaussian_center_value(self, single_mode_family, kernel):
        # at t = 0 the single amplitude is the gaussian itself, so Z2 at
        # the center is alpha''(0)/2 = -A / (2 sigma^2)
        fam = single_mode_family
        out = z2_term(fam, snapshot(fam, 0.0, kernel), 0.1)
        grid = fam.grid
        idx = np.argmin(np.abs(grid.axis_coords()))
        assert out[idx].real == pytest.approx(-0.5, abs=1e-8)

    def test_bounded_by_mode_norms(self, two_mode_family, kernel):
        t, eps = 0.5, 0.1
        snap = snapshot(two_mode_family, t, kernel)
        z2 = l2w_norm(Field(two_mode_family.grid, z2_term(two_mode_family, snap, eps)))
        assert z2 <= snap.e_norm * (1 + 1e-6)

    @pytest.mark.parametrize("d, t", SNAPSHOT_TIMES, ids=SNAPSHOT_IDS)
    def test_shared_half_laplacians_are_bitwise(self, d, t, two_mode_family):
        fam = two_mode_family if d == 1 else four_mode_family(128)
        spec = family_kernel(fam)
        eps = {1: 0.1, 2: 0.5}[d]
        snap = snapshot(fam, t, spec)
        halves = [0.5 * laplacian(a).values for a in snap.amplitudes]
        ref = _superpose(fam, halves, t, eps)
        assert np.array_equal(z2_term(fam, snap, eps), ref)


class TestSharedTerms:
    @pytest.mark.parametrize("d, t", SNAPSHOT_TIMES, ids=SNAPSHOT_IDS)
    def test_e_norm_sums_derivative_norms(self, d, t, two_mode_family):
        fam = two_mode_family if d == 1 else four_mode_family(128)
        snap = snapshot(fam, t, family_kernel(fam))
        expected = sum(
            l2w_norm(spectral_derivative(a, eta))
            for a in snap.amplitudes
            for eta in multi_indices(d, fam.nspec.n)
        )
        assert abs(snap.e_norm - expected) < 1e-12 * expected


class TestResonantRemainder:
    def test_single_mode_vanishes(self, single_mode_family, kernel):
        snap = snapshot(single_mode_family, 0.3, kernel)
        u_app = assemble(single_mode_family, snap, 0.1)
        out = resonant_remainder(single_mode_family, snap, 0.1, kernel, u_app)
        assert np.all(out == 0)

    def test_label_swap_symmetry(self, kernel):
        grid = Grid(d=1, length=32.0, points=1024)
        prof = GaussianProfile(amplitude=1.0, center=(0.0,), width=1.0)
        fam_a = ModeFamily.from_profiles(
            grid, [([-2.0], prof), ([2.0], prof)], gamma=0.5
        )
        fam_b = ModeFamily.from_profiles(
            grid, [([2.0], prof), ([-2.0], prof)], gamma=0.5
        )
        t, eps = 0.4, 0.1
        snap_a, snap_b = snapshot(fam_a, t, kernel), snapshot(fam_b, t, kernel)
        a = resonant_remainder(fam_a, snap_a, eps, kernel, assemble(fam_a, snap_a, eps))
        b = resonant_remainder(fam_b, snap_b, eps, kernel, assemble(fam_b, snap_b, eps))
        assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(a))

    def test_epsilon_scaling(self, two_mode_family, kernel):
        # d - gamma = 0.5: the remainder norm should halve per 4x in eps
        t = 0.25
        norms = {}
        snap = snapshot(two_mode_family, t, kernel)
        for eps in (0.2, 0.05):
            u_app = assemble(two_mode_family, snap, eps)
            rem = resonant_remainder(two_mode_family, snap, eps, kernel, u_app)
            norms[eps] = l2w_norm(Field(two_mode_family.grid, rem))
        slope = np.log(norms[0.2] / norms[0.05]) / np.log(0.2 / 0.05)
        assert abs(slope - 0.5) < 0.15


class TestOutBuffers:
    """A record term given `out=` (and `scratch=`) overwrites whatever the
    buffers held and returns `out`, bit for bit the term without them."""

    @pytest.mark.parametrize("name", ["single_mode_family", "two_mode_family", "4x128"])
    def test_buffers_filled_bitwise(self, name, request):
        fam = four_mode_family(128) if name == "4x128" else request.getfixturevalue(name)
        spec = family_kernel(fam)
        t, eps = 0.5, {1: 0.1, 2: 0.5}[fam.grid.d]
        snap = snapshot(fam, t, spec)

        def nan_field():
            return np.full(fam.grid.shape, np.nan, dtype=np.complex128)

        u_app = assemble(fam, snap, eps)
        out = nan_field()
        got = assemble(fam, snap, eps, out=out, scratch=nan_field())
        assert got is out and got.tobytes() == u_app.tobytes()

        out = nan_field()
        got = z2_term(fam, snap, eps, out=out, scratch=nan_field())
        assert got is out and got.tobytes() == z2_term(fam, snap, eps).tobytes()

        out = nan_field()
        got = resonant_remainder(fam, snap, eps, spec, u_app, out=out)
        ref = resonant_remainder(fam, snap, eps, spec, u_app)
        assert got is out and got.tobytes() == ref.tobytes()


class TestAnsatzResidual:
    def test_identity_error_small(self, two_mode_family, kernel):
        report = ansatz_residual(two_mode_family, 0.5, 0.1, kernel)
        assert report.identity_error < 1e-6

    def test_single_mode_residual_is_z2_only(self, single_mode_family, kernel):
        t, eps = 0.4, 0.1
        report = ansatz_residual(single_mode_family, t, eps, kernel)
        assert report.identity_error < 1e-6

    def test_zero_coupling_residual_is_z2_exactly(self, two_mode_family):
        free = KernelSpec(d=1, gamma=0.5, coupling=0.0)
        t, eps = 0.5, 0.1
        report = ansatz_residual(two_mode_family, t, eps, free)
        assert report.identity_error < 1e-10


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
        rho_raw = np.fft.fftn(np.abs(mode.alpha.values) ** 2)
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


def full_grid_remainder(family, t, eps, spec, snap):
    """Ordered double sum over k != l, one full-grid exponential per term."""
    g = family.grid
    cross = np.zeros(g.shape, dtype=np.complex128)
    for k, (mode_k, a_k) in enumerate(zip(family.modes, snap.amplitudes)):
        for l, (mode_l, a_l) in enumerate(zip(family.modes, snap.amplitudes)):
            if k != l:
                wave = full_grid_cross_phase(g, mode_k.kappa, mode_l.kappa, t, eps)
                cross = cross + a_k.values * np.conj(a_l.values) * wave
    u_app = sum(
        a.values * full_grid_mode_carrier(g, m.kappa, t, eps)
        for m, a in zip(family.modes, snap.amplitudes)
    )
    conv = np.fft.ifftn(np.fft.fftn(cross) * multiplier_grid(spec, g))
    return -(2 * np.pi) ** (g.d / 2) * conv * u_app


def four_mode_family(points):
    grid = Grid(d=2, length=16.0, points=points)
    prof = GaussianProfile(amplitude=1.0, center=(0.0, 0.0), width=0.75)
    kappas = ([-2.0, 0.0], [2.0, 0.0], [0.0, -2.0], [0.0, 2.0])
    return ModeFamily.from_profiles(grid, [(k, prof) for k in kappas], gamma=0.5)


def three_mode_family_1d():
    grid = Grid(d=1, length=32.0, points=1024)
    prof = GaussianProfile(amplitude=1.0, center=(0.0,), width=1.0)
    return ModeFamily.from_profiles(
        grid, [([-2.0], prof), ([0.5], prof), ([2.0], prof)], gamma=0.5
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
        snap = snapshot(family, t, spec)
        for j in range(len(family.modes)):
            ref = full_grid_action_phase(family, j, t, spec)
            alone = action_phase(family, j, t, spec).values
            assert np.max(np.abs(alone - ref)) < 1e-12
            mode = family.modes[j]
            moved = translate(mode.alpha, t * mode.kappa).values * np.exp(1j * ref)
            assert np.max(np.abs(snap.amplitudes[j].values - moved)) < 1e-12

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
        # one real density transform per mode, one real inverse per phase,
        # a complex translation pair per amplitude and a complex pair per
        # amplitude for its graded norm and half-Laplacian
        family = FAMILIES[name]()
        snapshot(family, 0.5, family_kernel(family))
        m = len(family.modes)
        counts = Counter(fn.__name__ for fn in fft_calls)
        assert counts == {"rfftn": m, "irfftn": m, "fftn": 2 * m, "ifftn": 2 * m}


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
    snap = snapshot(family, t, spec)
    got = resonant_remainder(family, snap, eps, spec, assemble(family, snap, eps))
    ref = full_grid_remainder(family, t, eps, spec, snap)
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def test_remainder_reads_cross_density_off_u_app(monkeypatch):
    # B = |u_app|^2 - sum_j |a_j|^2 needs no cross plane wave per mode pair
    family = four_mode_family(128)
    spec = family_kernel(family)
    t, eps = 0.5, 0.5
    snap = snapshot(family, t, spec)
    u_app = assemble(family, snap, eps)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return plane_wave(*args, **kwargs)

    monkeypatch.setattr(wkb, "plane_wave", counted)
    resonant_remainder(family, snap, eps, spec, u_app)
    assert calls == []
