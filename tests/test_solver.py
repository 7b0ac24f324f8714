import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from hartreelab import (
    DivergenceError,
    Field,
    Grid,
    KernelSpec,
    SolverParams,
    evolve,
    free_propagator,
    initial_data,
    l2_norm,
    l2w_norm,
    load_config,
    picard_evolve,
    wiener_norm,
    zero_mode_value,
)
from hartreelab.kernel import convolve, half_multiplier, multiplier_grid
from hartreelab.norms import _norms_from_raw_fft
from hartreelab.solver import advance

from conftest import lattice_wavenumber, plane_wave


class TestSolverParams:
    def test_rejects_dt_above_resolution_rule(self):
        with pytest.raises(ValueError, match="resolution rule"):
            SolverParams(eps=0.1, dt=0.05, final_time=1.0)

    def test_rejects_dt_factor_above_quarter(self):
        with pytest.raises(ValueError, match="dt_factor"):
            SolverParams(eps=1.0, dt=0.01, final_time=1.0, dt_factor=0.3)

    def test_rejects_dt_above_final_time(self):
        with pytest.raises(ValueError, match="dt"):
            SolverParams(eps=10.0, dt=0.5, final_time=0.1)


class TestFreePropagator:
    def test_zero_time_identity(self, gaussian_field):
        out = free_propagator(gaussian_field, 0.1, 0.0)
        assert np.array_equal(out.values, gaussian_field.values)

    def test_plane_wave_phase(self, grid1d):
        k0 = lattice_wavenumber(grid1d, 8)
        f = plane_wave(grid1d, k0)
        out = free_propagator(f, 0.5, 0.3)
        expected = f.values * np.exp(-1j * 0.5 * 0.3 * k0**2 / 2)
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_norm_preservation(self, gaussian_field):
        out = free_propagator(gaussian_field, 0.2, 1.7)
        assert abs(l2_norm(out) - l2_norm(gaussian_field)) < 1e-12 * l2_norm(
            gaussian_field
        )
        assert abs(wiener_norm(out) - wiener_norm(gaussian_field)) < 1e-12 * (
            wiener_norm(gaussian_field)
        )


class TestHartreePotential:
    # lambda * (K * |u|^2) as the stepper forms it
    def test_zero_state(self, kernel1d, grid1d):
        khat_half = half_multiplier(kernel1d, grid1d, kernel1d.coupling)
        out = convolve(khat_half, np.zeros(grid1d.shape))
        assert np.all(out == 0)

    def test_zero_coupling(self, grid1d, gaussian_field):
        spec = KernelSpec(d=1, gamma=0.5, coupling=0.0)
        khat_half = half_multiplier(spec, grid1d, spec.coupling)
        out = convolve(khat_half, np.abs(gaussian_field.values) ** 2)
        assert np.all(out == 0)

    def test_constant_density_gives_constant(self, kernel1d, grid1d):
        u = plane_wave(grid1d, lattice_wavenumber(grid1d, 5))
        khat_half = half_multiplier(kernel1d, grid1d, kernel1d.coupling)
        out = convolve(khat_half, np.abs(u.values) ** 2)
        expected = (
            kernel1d.coupling
            * (2 * np.pi) ** 0.5
            * zero_mode_value(kernel1d, grid1d)
        )
        assert np.max(np.abs(out - expected)) < 1e-10 * abs(expected)

    def test_output_is_real(self, kernel1d, gaussian_field):
        khat_half = half_multiplier(kernel1d, gaussian_field.grid, kernel1d.coupling)
        out = convolve(khat_half, np.abs(gaussian_field.values) ** 2)
        assert np.all(np.imag(out) == 0)


def one_step(u, spec, params):
    """A single Strang step of length params.dt through evolve."""
    return evolve(u, spec, params, [params.dt]).state_at(params.dt)


class TestStrangStep:
    def test_zero_coupling_equals_free_flow(self, grid1d, gaussian_field):
        spec = KernelSpec(d=1, gamma=0.5, coupling=0.0)
        params = SolverParams(eps=0.5, dt=0.01, final_time=0.01)
        stepped = one_step(gaussian_field, spec, params)
        free = free_propagator(gaussian_field, 0.5, 0.01)
        assert np.max(np.abs(stepped.values - free.values)) < 1e-13

    def test_mass_preserved_per_step(self, kernel1d, gaussian_field):
        params = SolverParams(eps=0.5, dt=0.01, final_time=0.01)
        out = one_step(gaussian_field, kernel1d, params)
        assert abs(l2_norm(out) - l2_norm(gaussian_field)) < 1e-12 * l2_norm(
            gaussian_field
        )

    def test_exact_reverse_with_frozen_potential(self, kernel1d, gaussian_field):
        eps, dt = 0.5, 0.01
        params = SolverParams(eps=eps, dt=dt, final_time=dt)
        half = free_propagator(gaussian_field, eps, dt / 2)
        khat_half = half_multiplier(kernel1d, half.grid, kernel1d.coupling)
        frozen = convolve(khat_half, np.abs(half.values) ** 2)
        forward = one_step(gaussian_field, kernel1d, params)
        # undo with the same frozen potential: the three factors invert
        back = free_propagator(forward, eps, -dt / 2)
        back = Field(back.grid, back.values * np.exp(1j * dt * frozen))
        back = free_propagator(back, eps, -dt / 2)
        assert np.max(np.abs(back.values - gaussian_field.values)) < 1e-12

    def test_second_order_self_convergence(self, kernel1d):
        grid = Grid(d=1, length=32.0, points=512)
        x = grid.axis_coords()
        u0 = Field(grid, np.exp(-x**2 / 2) * np.exp(1j * 2.0 * x / 0.5))
        eps, horizon = 0.5, 0.04

        def run(dt):
            params = SolverParams(eps=eps, dt=dt, final_time=horizon)
            return evolve(u0, kernel1d, params, [horizon]).state_at(horizon)

        ref = run(horizon / 128)
        errs = [
            l2_norm(run(horizon / n) - ref) for n in (4, 8, 16)
        ]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for order in orders:
            assert abs(order - 2.0) <= 0.2


def divergence_case():
    # a gigantic attractive coupling spreads the spectrum within one
    # step; the grid must be fine enough that the Wiener norm has
    # room to overshoot the 4x ball
    grid = Grid(d=1, length=32.0, points=2048)
    spec = KernelSpec(d=1, gamma=0.5, coupling=-5e4)
    x = grid.axis_coords()
    u0 = Field(grid, 5.0 * np.exp(-x**2 / 2))
    return u0, spec, SolverParams(eps=1.0, dt=0.1, final_time=4.0)


def six_fft_strang(u0, spec, eps, dt_request, samples):
    """Reference Strang loop: kinetic half-steps and the potential each
    take their own forward/inverse FFT pair, six transforms per step.

    Returns the states and the l2 norms at the samples, t = 0 first, and
    raises DivergenceError at the same step and time as evolve.
    """
    g = u0.grid
    khat = multiplier_grid(spec, g)
    freq_sq = g.freq_norm_sq()

    def norms(raw):
        l2 = math.sqrt(g.dx**g.d * np.sum(np.abs(raw) ** 2) / g.total_points)
        wiener = g.dxi**g.d * (2 * np.pi) ** (-g.d / 2) * g.dx**g.d * np.sum(np.abs(raw))
        return l2, wiener

    def potential(v):
        rho_hat = np.fft.fftn(np.abs(v) ** 2)
        conv = (2 * np.pi) ** (g.d / 2) * np.fft.ifftn(khat * rho_hat)
        return spec.coupling * conv.real

    state = np.array(u0.values, dtype=np.complex128)
    l2_0, w_0 = norms(np.fft.fftn(state))
    states, masses = [state], [l2_0]
    t_prev = 0.0
    for t_next in samples:
        n_steps = max(1, math.ceil((t_next - t_prev) / dt_request - 1e-12))
        dt = (t_next - t_prev) / n_steps
        kin_half = np.exp(-0.25j * eps * dt * freq_sq)
        for step in range(n_steps):
            state = np.fft.ifftn(np.fft.fftn(state) * kin_half)
            state = state * np.exp(-1j * dt * potential(state))
            raw = np.fft.fftn(state) * kin_half
            l2, wiener = norms(raw)
            if l2 + wiener > 4.0 * (l2_0 + w_0):
                t_fail = t_prev + (step + 1) * dt
                raise DivergenceError(t_fail, (l2 + wiener) / (l2_0 + w_0))
            state = np.fft.ifftn(raw)
        states.append(state)
        masses.append(l2)
        t_prev = t_next
    return states, masses


REFERENCE_1D = Path(__file__).resolve().parents[1] / "configs" / "reference_1d.json"


@pytest.fixture(scope="module")
def validate_picard():
    """picard_evolve by node count at the validate suite's parameters:
    reference_1d's largest eps, horizon 0.1 eps, tol 1e-12."""
    cfg = load_config(REFERENCE_1D)
    eps = cfg.epsilons[0]
    u0 = initial_data(cfg.family, eps)
    return lambda nodes: picard_evolve(u0, cfg.kernel, eps, 0.1 * eps, tol=1e-12,
                                       nodes=nodes)


def physical_picard(u0, spec, eps, horizon, tol, max_iter, nodes):
    """Reference Duhamel fixed point with the node states in physical
    space: composite Simpson on panels of two node steps, the midpoint
    from the quadratic through the panel's three sources.  Every free
    step and every propagation of the integral or a source takes its own
    forward/inverse FFT pair, and each increment norm one more FFT.

    Returns the state at the horizon; raises PicardConvergenceError on the
    same growth and iteration rules as picard_evolve.
    """
    from hartreelab import PicardConvergenceError

    g = u0.grid
    h = horizon / nodes
    khat = multiplier_grid(spec, g)

    def step(v, steps=1):
        """The free flow over `steps` node steps (negative runs it back)."""
        return np.fft.ifftn(np.fft.fftn(v) * np.exp(-0.5j * eps * steps * h * g.freq_norm_sq()))

    def source(v):
        conv = (2 * np.pi) ** (g.d / 2) * np.fft.ifftn(khat * np.fft.fftn(np.abs(v) ** 2))
        return spec.coupling * conv.real * v

    def l2w(v):
        l2 = math.sqrt(g.dx**g.d * np.sum(np.abs(v) ** 2))
        wiener = g.dxi**g.d * (2 * np.pi) ** (-g.d / 2) * g.dx**g.d * np.sum(
            np.abs(np.fft.fftn(v))
        )
        return l2 + wiener

    free = [np.array(u0.values, dtype=np.complex128)]
    for _ in range(nodes):
        free.append(step(free[-1]))
    current = list(free)
    prev_inc, streak = None, 0
    for _ in range(max_iter):
        q = [source(v) for v in current]
        new = [free[0]]
        integral = np.zeros(g.shape, dtype=np.complex128)
        for k in range(0, nodes, 2):
            mid = step(integral) + (h / 12) * (
                5 * step(q[k]) + 8 * q[k + 1] - step(q[k + 2], -1))
            integral = step(integral, 2) + (h / 3) * (
                step(q[k], 2) + 4 * step(q[k + 1]) + q[k + 2])
            new += [free[k + 1] - 1j * mid, free[k + 2] - 1j * integral]
        inc = max(l2w(a - b) for a, b in zip(new, current))
        current = new
        if inc < tol:
            return current[-1]
        if prev_inc is not None and inc > prev_inc:
            streak += 1
            if streak >= 3:
                raise PicardConvergenceError("increment grew; not contracting")
        else:
            streak = 0
        prev_inc = inc
    raise PicardConvergenceError("no convergence")


class TestEvolve:
    def test_free_gaussian_closed_form(self):
        grid = Grid(d=1, length=32.0, points=512)
        spec = KernelSpec(d=1, gamma=0.5, coupling=0.0)
        x = grid.axis_coords()
        u0 = Field(grid, np.exp(-x**2 / 2))
        eps, t_end = 0.3, 1.0
        params = SolverParams(eps=eps, dt=0.25 * eps, final_time=t_end, dt_factor=0.25)
        traj = evolve(u0, spec, params, [t_end])
        sigma_sq = 1.0 + 1j * eps * t_end
        exact = np.exp(-(x**2) / (2 * sigma_sq)) / np.sqrt(sigma_sq)
        err = l2_norm(traj.state_at(t_end) - Field(grid, exact))
        assert err < 1e-6

    def test_free_plane_wave_matches_propagator(self, grid1d):
        spec = KernelSpec(d=1, gamma=0.5, coupling=0.0)
        k0 = lattice_wavenumber(grid1d, 6)
        u0 = plane_wave(grid1d, k0)
        params = SolverParams(eps=0.4, dt=0.02, final_time=0.2)
        traj = evolve(u0, spec, params, [0.1, 0.2])
        for t in (0.1, 0.2):
            expected = free_propagator(u0, 0.4, t)
            assert np.max(np.abs(traj.state_at(t).values - expected.values)) < 1e-12

    def test_mass_log_constant(self, kernel1d, gaussian_field):
        params = SolverParams(eps=0.5, dt=0.05, final_time=0.5)
        traj = evolve(gaussian_field, kernel1d, params, [0.25, 0.5])
        assert traj.mass_drift() < 1e-10

    def test_gauge_covariance(self, kernel1d, gaussian_field):
        params = SolverParams(eps=0.5, dt=0.05, final_time=0.2)
        phase = np.exp(1j * 0.7)
        a = evolve(gaussian_field, kernel1d, params, [0.2]).state_at(0.2)
        b = evolve(phase * gaussian_field, kernel1d, params, [0.2]).state_at(0.2)
        assert np.max(np.abs(b.values - phase * a.values)) < 1e-12

    def test_sample_times_hit_exactly(self, kernel1d, gaussian_field):
        params = SolverParams(eps=0.5, dt=0.03, final_time=0.5)
        traj = evolve(gaussian_field, kernel1d, params, [0.17, 0.5])
        assert traj.times == (0.0, 0.17, 0.5)

    def test_divergence_guard_reports_time(self):
        u0, spec, params = divergence_case()
        with pytest.raises(DivergenceError) as err:
            evolve(u0, spec, params, [4.0])
        assert err.value.time > 0

    def test_divergence_guard_trips_on_nan(self, kernel1d, gaussian_field):
        # NaN > 4 norm0 is False, so the guard must test for staying inside
        g = gaussian_field.grid
        raw = scipy.fft.fftn(gaussian_field.values)
        norm0 = sum(_norms_from_raw_fft(raw, g))
        raw[3] = np.nan
        params = SolverParams(eps=0.5, dt=0.05, final_time=0.5)
        khat_half = half_multiplier(kernel1d, g, kernel1d.coupling)
        with pytest.raises(DivergenceError) as err:
            advance(raw, g, khat_half, params, 0.0, 0.5, norm0)
        assert err.value.time == pytest.approx(0.05)

    def test_matches_six_fft_reference_2d(self):
        # two sample intervals with different step lengths, 101 steps
        grid = Grid(d=2, length=16.0, points=64)
        spec = KernelSpec(d=2, gamma=1.0, coupling=1.0)
        x, y = grid.coords()
        eps, samples = 0.1, [0.555, 1.0]
        u0 = Field(grid, np.exp(-(x**2 + y**2) / 2 + 1j * (0.5 * x - 0.3 * y) / eps))
        params = SolverParams(eps=eps, dt=0.1 * eps, final_time=1.0)
        traj = evolve(u0, spec, params, samples)
        states, masses = six_fft_strang(u0, spec, eps, params.dt, samples)
        for t, state in zip(traj.times, states):
            assert np.max(np.abs(traj.state_at(t).values - state)) < 1e-12
        for got, want in zip(traj.mass_log, masses):
            assert abs(got - want) < 1e-12 * want

    def test_divergence_time_matches_six_fft_reference(self):
        u0, spec, params = divergence_case()
        with pytest.raises(DivergenceError) as fused:
            evolve(u0, spec, params, [4.0])
        with pytest.raises(DivergenceError) as reference:
            six_fft_strang(u0, spec, params.eps, params.dt, [4.0])
        assert fused.value.time == reference.value.time

    def test_guard_keeps_its_t0_reference_in_later_gaps(self):
        # a gentler attraction leaves the ball in the second sample gap;
        # the guard there still compares against 4x the t = 0 norm
        u0, _, _ = divergence_case()
        spec = KernelSpec(d=1, gamma=0.5, coupling=-2.0)
        params = SolverParams(eps=1.0, dt=0.05, final_time=4.0)
        samples = [0.1, 4.0]
        with pytest.raises(DivergenceError) as fused:
            evolve(u0, spec, params, samples)
        with pytest.raises(DivergenceError) as reference:
            six_fft_strang(u0, spec, params.eps, params.dt, samples)
        assert fused.value.time > samples[0]
        assert fused.value.time == reference.value.time

    def test_rejects_sample_outside_horizon(self, kernel1d, gaussian_field):
        params = SolverParams(eps=0.5, dt=0.05, final_time=0.5)
        with pytest.raises(ValueError, match="outside"):
            evolve(gaussian_field, kernel1d, params, [0.7])


class TestPicard:
    def test_zero_coupling_is_free_flight(self, grid1d, gaussian_field):
        spec = KernelSpec(d=1, gamma=0.5, coupling=0.0)
        out = picard_evolve(gaussian_field, spec, eps=0.5, horizon=0.05)
        expected = free_propagator(gaussian_field, 0.5, 0.05)
        assert np.max(np.abs(out.values - expected.values)) < 1e-13

    def test_zero_state_stays_zero(self, kernel1d, grid1d):
        zero = Field(grid1d, np.zeros(grid1d.shape))
        out = picard_evolve(zero, kernel1d, eps=0.5, horizon=0.05)
        assert np.all(out.values == 0)

    def test_non_contraction_reported(self):
        # far outside the contraction horizon the iterates run away and
        # the three-growth guard reports leaving the ball
        from hartreelab import PicardConvergenceError

        grid = Grid(d=1, length=32.0, points=512)
        x = grid.axis_coords()
        u0 = Field(grid, 4.0 * np.exp(-x**2 / 2))
        spec = KernelSpec(d=1, gamma=0.5, coupling=8.0)
        with pytest.raises(PicardConvergenceError, match="contracting"):
            picard_evolve(u0, spec, eps=0.5, horizon=1.0, tol=1e-10,
                          max_iter=25, nodes=16)
        with pytest.raises(PicardConvergenceError, match="contracting"):
            physical_picard(u0, spec, 0.5, 1.0, tol=1e-10, max_iter=25, nodes=16)

    def test_default_horizon_is_tenth_of_eps(self, grid1d, gaussian_field):
        spec = KernelSpec(d=1, gamma=0.5, coupling=0.0)
        out = picard_evolve(gaussian_field, spec, eps=0.5)
        expected = free_propagator(gaussian_field, 0.5, 0.05)
        assert np.max(np.abs(out.values - expected.values)) < 1e-13

    def test_cross_integrator_agreement(self, kernel1d):
        grid = Grid(d=1, length=32.0, points=1024)
        x = grid.axis_coords()
        eps, horizon = 0.1, 0.01
        u0 = Field(grid, np.exp(-x**2 / 2) * np.exp(1j * 2.0 * x / eps))
        params = SolverParams(eps=eps, dt=horizon / 32, final_time=horizon)
        stepped = evolve(u0, kernel1d, params, [horizon]).state_at(horizon)
        fixed = picard_evolve(u0, kernel1d, eps=eps, horizon=horizon,
                              tol=1e-12, nodes=32)
        assert l2w_norm(stepped - fixed) < 1e-6

    def test_matches_physical_space_reference(self, kernel1d):
        # the setup of test_cross_integrator_agreement
        grid = Grid(d=1, length=32.0, points=1024)
        x = grid.axis_coords()
        eps, horizon = 0.1, 0.01
        u0 = Field(grid, np.exp(-x**2 / 2) * np.exp(1j * 2.0 * x / eps))
        fixed = picard_evolve(u0, kernel1d, eps=eps, horizon=horizon,
                              tol=1e-12, nodes=32)
        ref = physical_picard(u0, kernel1d, eps, horizon, tol=1e-12,
                              max_iter=60, nodes=32)
        assert np.max(np.abs(fixed.values - ref)) < 1e-12

    def test_simpson_order_at_validate_parameters(self, validate_picard):
        ref = validate_picard(256)
        errs = [l2w_norm(validate_picard(n) - ref) for n in (16, 32, 64)]
        for coarse, fine in zip(errs, errs[1:]):
            assert abs(coarse / fine - 16.0) <= 2.0
        assert errs[1] < 5e-9  # the validate suite's 32 nodes

    def test_node_stack_memory_at_validate_parameters(self, validate_picard):
        validate_picard(32)  # warm: caches and transform plans are not the stack
        tracemalloc.start()
        try:
            validate_picard(32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 33 node spectra of 8192 points are 4.1 MiB; one 8-row block and its
        # transforms about 4 MiB more
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("nodes", [0, 1, 7, 33, -2])
    def test_odd_or_too_few_nodes_rejected(self, gaussian_field, kernel1d, nodes):
        with pytest.raises(ValueError, match="even and at least 2"):
            picard_evolve(gaussian_field, kernel1d, eps=0.5, horizon=0.05, nodes=nodes)

    def test_default_node_count_is_even(self, gaussian_field):
        # horizon / (0.1 eps) = 8.8: nine nodes by the resolution rule, ten by Simpson
        spec = KernelSpec(d=1, gamma=0.5, coupling=0.1)
        out = picard_evolve(gaussian_field, spec, eps=0.5, horizon=0.44, tol=1e-12)
        ten = picard_evolve(gaussian_field, spec, eps=0.5, horizon=0.44, tol=1e-12,
                            nodes=10)
        assert np.array_equal(out.values, ten.values)
