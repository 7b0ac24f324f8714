import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hartreelab import (
    DivergenceError,
    Grid,
    KernelSpec,
    SolverParams,
    initial_data,
    load_config,
    picard_evolve,
    zero_mode_value,
)
from hartreelab import config, harness, solver
from hartreelab.config import ConfigError
from hartreelab.kernel import convolve, half_multiplier
from hartreelab.norms import _norms, _wiener_from_modulus
from hartreelab.grid import CHUNK, padded_zeros
from hartreelab.solver import advance
from hartreelab.wkb import snapshot
from oracles import free_propagator, l2_wiener, lattice_wavenumber, multiplier_grid
from oracles import plane_wave, strang_run


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
    def test_zero_time_identity(self, grid1d, gaussian_field):
        out = free_propagator(gaussian_field, grid1d, 0.1, 0.0)
        assert np.array_equal(out, gaussian_field)

    def test_plane_wave_phase(self, grid1d):
        k0 = lattice_wavenumber(grid1d, 8)
        f = plane_wave(grid1d, k0)
        out = free_propagator(f, grid1d, 0.5, 0.3)
        expected = f * np.exp(-1j * 0.5 * 0.3 * k0**2 / 2)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_norm_preservation(self, grid1d, gaussian_field):
        out = free_propagator(gaussian_field, grid1d, 0.2, 1.7)
        (l2, w), (l2_0, w_0) = l2_wiener(out, grid1d), l2_wiener(gaussian_field, grid1d)
        assert abs(l2 - l2_0) < 1e-12 * l2_0
        assert abs(w - w_0) < 1e-12 * w_0


class TestHartreePotential:
    # lambda * (K * |u|^2) as the stepper forms it
    def test_zero_state(self, kernel1d, grid1d):
        khat_half = half_multiplier(kernel1d, grid1d, kernel1d.coupling)
        out = convolve(khat_half, np.zeros(grid1d.shape))
        assert np.all(out == 0)

    def test_zero_coupling(self, grid1d, gaussian_field):
        spec = KernelSpec(d=1, gamma=0.5, coupling=0.0)
        khat_half = half_multiplier(spec, grid1d, spec.coupling)
        out = convolve(khat_half, np.abs(gaussian_field) ** 2)
        assert np.all(out == 0)

    def test_constant_density_gives_constant(self, kernel1d, grid1d):
        u = plane_wave(grid1d, lattice_wavenumber(grid1d, 5))
        khat_half = half_multiplier(kernel1d, grid1d, kernel1d.coupling)
        out = convolve(khat_half, np.abs(u) ** 2)
        expected = (
            kernel1d.coupling
            * (2 * np.pi) ** 0.5
            * zero_mode_value(kernel1d, grid1d)
        )
        assert np.max(np.abs(out - expected)) < 1e-10 * abs(expected)

    def test_output_is_real(self, kernel1d, grid1d, gaussian_field):
        khat_half = half_multiplier(kernel1d, grid1d, kernel1d.coupling)
        out = convolve(khat_half, np.abs(gaussian_field) ** 2)
        assert np.all(np.imag(out) == 0)


def one_step(u, grid, spec, params):
    """A single Strang step of length params.dt through `advance`."""
    return strang_run(u, grid, spec, params, [params.dt])[0][-1]


class TestStrangStep:
    def test_zero_coupling_equals_free_flow(self, grid1d, gaussian_field):
        spec = KernelSpec(d=1, gamma=0.5, coupling=0.0)
        params = SolverParams(eps=0.5, dt=0.01, final_time=0.01)
        stepped = one_step(gaussian_field, grid1d, spec, params)
        free = free_propagator(gaussian_field, grid1d, 0.5, 0.01)
        assert np.max(np.abs(stepped - free)) < 1e-13

    def test_mass_preserved_per_step(self, kernel1d, grid1d, gaussian_field):
        params = SolverParams(eps=0.5, dt=0.01, final_time=0.01)
        out = one_step(gaussian_field, grid1d, kernel1d, params)
        l2_0 = l2_wiener(gaussian_field, grid1d)[0]
        assert abs(l2_wiener(out, grid1d)[0] - l2_0) < 1e-12 * l2_0

    def test_exact_reverse_with_frozen_potential(self, kernel1d, grid1d, gaussian_field):
        eps, dt = 0.5, 0.01
        params = SolverParams(eps=eps, dt=dt, final_time=dt)
        half = free_propagator(gaussian_field, grid1d, eps, dt / 2)
        khat_half = half_multiplier(kernel1d, grid1d, kernel1d.coupling)
        frozen = convolve(khat_half, np.abs(half) ** 2)
        forward = one_step(gaussian_field, grid1d, kernel1d, params)
        # undo with the same frozen potential: the three factors invert
        back = free_propagator(forward, grid1d, eps, -dt / 2)
        back = free_propagator(back * np.exp(1j * dt * frozen), grid1d, eps, -dt / 2)
        assert np.max(np.abs(back - gaussian_field)) < 1e-12

    def test_second_order_self_convergence(self, kernel1d):
        grid = Grid(d=1, length=32.0, points=512)
        x = grid.axis_coords()
        u0 = np.exp(-x**2 / 2) * np.exp(1j * 2.0 * x / 0.5)
        eps, horizon = 0.5, 0.04

        def run(dt):
            params = SolverParams(eps=eps, dt=dt, final_time=horizon)
            return strang_run(u0, grid, kernel1d, params, [horizon])[0][-1]

        ref = run(horizon / 128)
        errs = [l2_wiener(run(horizon / n) - ref, grid)[0] for n in (4, 8, 16)]
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
    u0 = 5.0 * np.exp(-x**2 / 2)
    return u0, grid, spec, SolverParams(eps=1.0, dt=0.1, final_time=4.0)


def six_fft_strang(u0, g, spec, eps, dt_request, samples):
    """Reference Strang loop: kinetic half-steps and the potential each
    take their own forward/inverse FFT pair, six transforms per step.

    Returns the states and the l2 norms at the samples, t = 0 first, and
    raises DivergenceError at the same step and time as `advance`.
    """
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

    state = np.array(u0, dtype=np.complex128)
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
    return lambda nodes: picard_evolve(u0, cfg.grid, cfg.kernel, eps, 0.1 * eps,
                                       tol=1e-12, nodes=nodes)


def physical_picard(u0, g, spec, eps, horizon, tol, max_iter, nodes):
    """Reference Duhamel fixed point with the node states in physical
    space: composite Simpson on panels of two node steps, the midpoint
    from the quadratic through the panel's three sources.  Every free
    step and every propagation of the integral or a source takes its own
    forward/inverse FFT pair, and each increment norm one more FFT.

    Returns the state at the horizon; raises PicardConvergenceError on the
    same growth and iteration rules as picard_evolve.
    """
    from hartreelab import PicardConvergenceError

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

    free = [np.array(u0, dtype=np.complex128)]
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
        u0 = np.exp(-x**2 / 2)
        eps, t_end = 0.3, 1.0
        params = SolverParams(eps=eps, dt=0.25 * eps, final_time=t_end, dt_factor=0.25)
        stepped = strang_run(u0, grid, spec, params, [t_end])[0][-1]
        sigma_sq = 1.0 + 1j * eps * t_end
        exact = np.exp(-(x**2) / (2 * sigma_sq)) / np.sqrt(sigma_sq)
        err = l2_wiener(stepped - exact, grid)[0]
        assert err < 1e-6

    def test_free_plane_wave_matches_propagator(self, grid1d):
        spec = KernelSpec(d=1, gamma=0.5, coupling=0.0)
        k0 = lattice_wavenumber(grid1d, 6)
        u0 = plane_wave(grid1d, k0)
        params = SolverParams(eps=0.4, dt=0.02, final_time=0.2)
        states, _ = strang_run(u0, grid1d, spec, params, [0.1, 0.2])
        for t, state in zip((0.1, 0.2), states[1:]):
            expected = free_propagator(u0, grid1d, 0.4, t)
            assert np.max(np.abs(state - expected)) < 1e-12

    def test_mass_log_constant(self, kernel1d, grid1d, gaussian_field):
        params = SolverParams(eps=0.5, dt=0.05, final_time=0.5)
        _, masses = strang_run(gaussian_field, grid1d, kernel1d, params, [0.25, 0.5])
        assert max(abs(m - masses[0]) for m in masses) / masses[0] < 1e-10

    def test_gauge_covariance(self, kernel1d, grid1d, gaussian_field):
        params = SolverParams(eps=0.5, dt=0.05, final_time=0.2)
        phase = np.exp(1j * 0.7)
        a = strang_run(gaussian_field, grid1d, kernel1d, params, [0.2])[0][-1]
        b = strang_run(phase * gaussian_field, grid1d, kernel1d, params, [0.2])[0][-1]
        assert np.max(np.abs(b - phase * a)) < 1e-12

    def test_sample_times_hit_exactly(self, kernel1d, grid1d, gaussian_field):
        params = SolverParams(eps=0.5, dt=0.03, final_time=0.5)
        # each gap is cut into equal steps ending on its sample time: the
        # states match the six-FFT loop, which cuts the gaps that way
        samples = [0.17, 0.5]
        states, _ = strang_run(gaussian_field, grid1d, kernel1d, params, samples)
        reference, _ = six_fft_strang(gaussian_field, grid1d, kernel1d, 0.5, 0.03, samples)
        for state, want in zip(states, reference):
            assert np.max(np.abs(state - want)) < 1e-12

    def test_divergence_guard_reports_time(self):
        u0, grid, spec, params = divergence_case()
        with pytest.raises(DivergenceError) as err:
            strang_run(u0, grid, spec, params, [4.0])
        assert err.value.time > 0

    def test_divergence_guard_trips_on_nan(self, kernel1d, grid1d, gaussian_field):
        # NaN > 4 norm0 is False, so the guard must test for staying inside
        g = grid1d
        raw = np.fft.fftn(gaussian_field)
        norm0 = sum(_norms(raw, g))
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
        u0 = np.exp(-(x**2 + y**2) / 2 + 1j * (0.5 * x - 0.3 * y) / eps)
        params = SolverParams(eps=eps, dt=0.1 * eps, final_time=1.0)
        got_states, got_masses = strang_run(u0, grid, spec, params, samples)
        states, masses = six_fft_strang(u0, grid, spec, eps, params.dt, samples)
        for got, state in zip(got_states, states):
            assert np.max(np.abs(got - state)) < 1e-12
        for got, want in zip(got_masses, masses):
            assert abs(got - want) < 1e-12 * want

    def test_divergence_time_matches_six_fft_reference(self):
        u0, grid, spec, params = divergence_case()
        with pytest.raises(DivergenceError) as fused:
            strang_run(u0, grid, spec, params, [4.0])
        with pytest.raises(DivergenceError) as reference:
            six_fft_strang(u0, grid, spec, params.eps, params.dt, [4.0])
        assert fused.value.time == reference.value.time

    def test_guard_keeps_its_t0_reference_in_later_gaps(self):
        # a gentler attraction leaves the ball in the second sample gap;
        # the guard there still compares against 4x the t = 0 norm
        u0, grid, _, _ = divergence_case()
        spec = KernelSpec(d=1, gamma=0.5, coupling=-2.0)
        params = SolverParams(eps=1.0, dt=0.05, final_time=4.0)
        samples = [0.1, 4.0]
        with pytest.raises(DivergenceError) as fused:
            strang_run(u0, grid, spec, params, samples)
        with pytest.raises(DivergenceError) as reference:
            six_fft_strang(u0, grid, spec, params.eps, params.dt, samples)
        assert fused.value.time > samples[0]
        assert fused.value.time == reference.value.time

    def test_rejects_sample_outside_horizon(self):
        # the run file is where simulate's and the sweep's sample times come from
        cfg = load_config(REFERENCE_1D)
        with pytest.raises(ValueError, match=r"lie in \(0, final_time\]"):
            dataclasses.replace(cfg, sample_times=(cfg.final_time * 1.4,))


def count_steps(monkeypatch) -> list:
    """A list that grows by one per Strang step: `advance` convolves once
    per step (and Picard once per iteration)."""
    steps, real = [], solver.convolve
    monkeypatch.setattr(solver, "convolve",
                        lambda *args, **kwargs: steps.append(1) or real(*args, **kwargs))
    return steps


class TestStepCount:
    """`solver.step_count` is the one step-count rule: the sweep's and the
    validate suite's budgets count the steps `advance` takes."""

    def test_sweep_budget_counts_the_steps_advance_takes(self, monkeypatch):
        cfg = load_config(REFERENCE_1D)
        cfg = dataclasses.replace(cfg, epsilons=cfg.epsilons[:2])
        steps = count_steps(monkeypatch)
        harness.run_sweep(cfg)
        assert len(steps) > 2 * len(cfg.sample_times)
        monkeypatch.setattr(config, "STEP_BUDGET", len(steps))
        dataclasses.replace(cfg)
        monkeypatch.setattr(config, "STEP_BUDGET", len(steps) - 1)
        with pytest.raises(ValueError, match="step budget rule"):
            dataclasses.replace(cfg)

    def test_validate_budget_counts_the_steps_advance_takes(self, monkeypatch):
        # horizon / dt = 65.00000000000001: advance takes 65 steps, not 66
        cfg = dataclasses.replace(load_config(REFERENCE_1D), dt_factor=0.1 / 65)
        monkeypatch.setattr(harness, "_algebra_campaign", lambda *args: iter(()))
        monkeypatch.setattr(harness, "_hartree_campaign", lambda *args: iter(()))
        steps = count_steps(monkeypatch)

        class Evolved(Exception):
            """Raised once the integrator check has stepped past its budget."""

        def advance_then_stop(*args):
            solver.advance(*args)
            raise Evolved

        monkeypatch.setattr(harness, "advance", advance_then_stop)
        with pytest.raises(Evolved):
            harness.validate_suite(cfg)
        assert len(steps) == 65
        monkeypatch.setattr(harness, "STEP_BUDGET", 65)
        with pytest.raises(Evolved):
            harness.validate_suite(cfg)
        monkeypatch.setattr(harness, "STEP_BUDGET", 64)
        with pytest.raises(ConfigError, match="asks for 65 Strang steps"):
            harness.validate_suite(cfg)


def full_array_unit_phase(theta, out):
    """The half-angle kernel as one pass per operation over the whole array."""
    t = np.multiply(theta, 0.5)
    np.tan(t, out=t)
    t_sq = np.multiply(t, t)
    inv = np.add(t_sq, 1.0)
    np.divide(1.0, inv, out=inv)
    np.subtract(1.0, t_sq, out=t_sq)
    np.multiply(t_sq, inv, out=out.real)
    t += t
    np.multiply(t, inv, out=out.imag)
    return out


def whole_array_norms(raw, grid):
    """(l2, wiener) from `np.sum` over the whole moduli array and over its
    squares: the order the guard of `advance` takes."""
    mag = np.abs(raw)
    l2 = math.sqrt(grid.dx**grid.d * np.sum(mag**2) / grid.total_points)
    return l2, float(_wiener_from_modulus(mag, grid))


def full_array_advance(raw, grid, khat_half, params, t_prev, t_next, norm0):
    """The Strang loop of `advance` with every pointwise stage one pass
    over the whole arrays and K * |u|^2 by numpy's whole-array `rfftn` and
    `irfftn`: the oracle for its slices of CHUNK points and the row blocks
    of `kernel.convolve`."""
    dt_request = min(params.dt, params.dt_factor * params.eps)
    gap = t_next - t_prev
    n_steps = max(1, math.ceil(gap / dt_request - 1e-12))
    dt = gap / n_steps
    theta = -0.25 * params.eps * dt * grid.freq_norm_sq()
    kin_half = full_array_unit_phase(theta, np.empty(grid.shape, dtype=complex))
    kin_full = kin_half**2
    phase = np.empty(grid.shape, dtype=complex)
    density, imag_sq, potential = np.empty((3, *grid.shape))
    raw *= kin_half
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            state = np.fft.ifftn(raw, out=raw)
            np.multiply(state.real, state.real, out=density)
            np.multiply(state.imag, state.imag, out=imag_sq)
            density += imag_sq
            # numpy's whole-array real pair, independent of `kernel.convolve`
            angle = np.fft.irfftn(np.fft.rfftn(density) * khat_half, grid.shape,
                                  tuple(range(grid.d)), out=potential)
            angle *= -dt
            state *= full_array_unit_phase(angle, phase)
            raw = np.fft.fftn(state, out=state)
            l2, wiener = whole_array_norms(raw, grid)
            if not l2 + wiener <= 4.0 * norm0:
                raise DivergenceError(t_prev + (step + 1) * dt, (l2 + wiener) / norm0)
            raw *= kin_full if step < n_steps - 1 else kin_half
    return raw, l2


def chunked_case(d, points, coupling):
    """A Gaussian with a carrier on a grid of several CHUNK slices."""
    grid = Grid(d=d, length=16.0 if d == 2 else 8.0, points=points)
    spec = KernelSpec(d=d, gamma=1.0, coupling=coupling)
    coords = grid.coords()
    r2 = sum(c**2 for c in coords)
    carrier = sum(k * c for k, c in zip((0.5, -0.3, 0.2), coords))
    u0 = np.exp(-r2 / 2 + 1j * carrier / 0.1)
    return grid, spec, u0


def gap_outcomes(step, grid, spec, u0, params, samples, nan_at=None):
    """(spectrum, l2) after each gap, or the DivergenceError's (time, ratio)."""
    khat_half = half_multiplier(spec, grid, spec.coupling)
    raw = np.fft.fftn(u0, out=padded_zeros(grid))  # as a sweep holds it
    norm0 = sum(_norms(raw, grid))
    if nan_at is not None:
        raw[nan_at] = np.nan
    outcomes, t_prev = [], 0.0
    try:
        for t_next in samples:
            raw, l2 = step(raw, grid, khat_half, params, t_prev, t_next, norm0)
            outcomes.append((raw.copy(), l2))
            t_prev = t_next
    except DivergenceError as exc:
        outcomes.append((exc.time, exc.ratio))
    return outcomes


class TestChunkedStages:
    """`advance` runs its pointwise stages over slices of CHUNK points and
    its real transforms over blocks of rows; on grids of several slices it
    must match the whole-array loop bitwise."""

    @pytest.mark.parametrize("d, points, slices", [(2, 128, 2), (3, 32, 4)])
    def test_bitwise_equal_to_full_array_loop(self, d, points, slices):
        grid, spec, u0 = chunked_case(d, points, coupling=1.0)
        assert grid.total_points == slices * CHUNK
        params = SolverParams(eps=0.1, dt=0.01, final_time=0.1)
        samples = [0.035, 0.1]  # two gaps with different step lengths
        got = gap_outcomes(advance, grid, spec, u0, params, samples)
        want = gap_outcomes(full_array_advance, grid, spec, u0, params, samples)
        assert len(got) == len(want) == 2
        for (raw, l2), (raw_ref, l2_ref) in zip(got, want):
            assert np.array_equal(raw, raw_ref)
            assert l2 == l2_ref

    def test_divergence_trip_matches_full_array_loop(self):
        # a weak attraction leaves the 4x ball in the second gap, at t = 0.3
        grid, spec, _ = chunked_case(2, 128, coupling=-0.5)
        x, y = grid.coords()
        u0 = 3.0 * np.exp(-(x**2 + y**2) / 2)
        params = SolverParams(eps=1.0, dt=0.05, final_time=4.0)
        samples = [0.1, 4.0]
        got = gap_outcomes(advance, grid, spec, u0, params, samples)
        want = gap_outcomes(full_array_advance, grid, spec, u0, params, samples)
        assert len(got) == len(want) == 2
        (time, ratio), (time_ref, ratio_ref) = got[1], want[1]
        assert isinstance(time, float) and isinstance(time_ref, float)
        assert (time, ratio) == (time_ref, ratio_ref)
        assert time == pytest.approx(0.3)

    def test_nan_state_trips_the_guard(self):
        grid, spec, u0 = chunked_case(2, 128, coupling=1.0)
        params = SolverParams(eps=0.1, dt=0.01, final_time=0.1)
        # a NaN in the second slice, which the first slice must not hide
        got = gap_outcomes(advance, grid, spec, u0, params, [0.1], nan_at=(100, 3))
        want = gap_outcomes(full_array_advance, grid, spec, u0, params, [0.1],
                            nan_at=(100, 3))
        (time, ratio), (time_ref, ratio_ref) = got[0], want[0]
        assert isinstance(time, float) and isinstance(time_ref, float)
        assert time == time_ref == pytest.approx(0.01)
        assert math.isnan(ratio) and math.isnan(ratio_ref)

    def test_warm_step_peak_under_four_state_arrays(self):
        grid, spec, u0 = chunked_case(2, 256, coupling=1.0)
        params = SolverParams(eps=0.1, dt=0.01, final_time=0.02)
        khat_half = half_multiplier(spec, grid, spec.coupling)
        raw = np.fft.fftn(u0, out=padded_zeros(grid))  # as a sweep holds it
        norm0 = sum(_norms(raw, grid))
        warm = np.fft.fftn(u0, out=padded_zeros(grid))
        advance(warm, grid, khat_half, params, 0.0, 0.02, norm0)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            advance(raw, grid, khat_half, params, 0.0, 0.02, norm0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - entry < 4 * raw.nbytes


class TestPaddedLayout:
    """The stepping state of d >= 2 lives in the [..., :N] view of a buffer
    whose rows carry one pad element (`grid.padded_zeros`)."""

    @pytest.mark.parametrize("shape", [(512, 512), (32, 32, 32)])
    def test_transforms_of_padded_view_match_contiguous_bitwise(self, shape):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((*shape, 2)).view(np.complex128)[..., 0]
        grid = Grid(d=len(shape), length=8.0, points=shape[0])
        view = padded_zeros(grid)
        assert not view.flags.c_contiguous and view.base.shape[-1] == shape[-1] + 1
        view[...] = a
        np.fft.fftn(view, out=view)
        assert np.array_equal(view, np.fft.fftn(a))
        np.fft.ifftn(view, out=view)
        assert np.array_equal(view, np.fft.ifftn(np.fft.fftn(a)))
        assert not view.base[..., -1].any()

    def test_one_dimension_keeps_the_plain_array(self, grid1d):
        raw = padded_zeros(grid1d)
        assert raw.flags.c_contiguous and raw.shape == grid1d.shape and not raw.any()

    @pytest.mark.parametrize("d, points", [(2, 128), (3, 32)])
    def test_contiguous_and_padded_states_step_bitwise_alike(self, d, points):
        grid, spec, u0 = chunked_case(d, points, coupling=1.0)
        params = SolverParams(eps=0.1, dt=0.01, final_time=0.1)
        khat_half = half_multiplier(spec, grid, spec.coupling)
        plain = np.fft.fftn(u0)
        padded = np.fft.fftn(u0, out=padded_zeros(grid))
        norm0 = sum(_norms(plain, grid))
        got = advance(padded, grid, khat_half, params, 0.0, 0.035, norm0)
        want = advance(plain, grid, khat_half, params, 0.0, 0.035, norm0)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        assert not padded.base[..., points:].any()

    @pytest.mark.parametrize("layout", ["column_slice", "transposed", "short_pad"])
    def test_advance_refuses_other_strided_layouts(self, layout):
        grid, spec, u0 = chunked_case(2, 128, coupling=1.0)
        n = grid.points
        wide = np.ones((n, n + (2 if layout == "short_pad" else 8)), dtype=complex)
        raw = {"column_slice": wide[:, 4:4 + n], "short_pad": wide[:, :n],
               "transposed": np.fft.fftn(u0).T}[layout]
        before = wide.copy()
        params = SolverParams(eps=0.1, dt=0.01, final_time=0.1)
        khat_half = half_multiplier(spec, grid, spec.coupling)
        with pytest.raises(ValueError, match="row-padded"):
            advance(raw, grid, khat_half, params, 0.0, 0.01, 1.0)
        assert np.array_equal(wide, before)

    def test_pads_stay_zero_through_advance_and_record(self):
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs"
                          / "reference_2d.json")
        cfg = dataclasses.replace(cfg, epsilons=(cfg.epsilons[0],))
        run = harness._start(cfg, cfg.epsilons[0])
        pads = run.raw.base[..., cfg.grid.points:]
        assert pads.shape == (cfg.grid.points, 1) and not pads.any()
        t = cfg.sample_times[0]
        khat_half = half_multiplier(cfg.kernel, cfg.grid, cfg.kernel.coupling)
        assert harness._advance(cfg, khat_half, 0.0, t, run) is None
        assert run.raw.base is pads.base and not pads.any()
        amps = snapshot(cfg.family, t, cfg.kernel)
        harness._record(cfg, amps, t, {}, run)
        assert not pads.any()
        harness._half_laplacians(cfg.family, amps, cfg.kernel)
        harness._z2_norms(cfg, amps, t, {}, run)
        assert len(run.records) == 1 and not pads.any()


class TestPicard:
    def test_zero_coupling_is_free_flight(self, grid1d, gaussian_field):
        spec = KernelSpec(d=1, gamma=0.5, coupling=0.0)
        out = picard_evolve(gaussian_field, grid1d, spec, eps=0.5, horizon=0.05)
        expected = free_propagator(gaussian_field, grid1d, 0.5, 0.05)
        assert np.max(np.abs(out - expected)) < 1e-13

    def test_zero_state_stays_zero(self, kernel1d, grid1d):
        out = picard_evolve(np.zeros(grid1d.shape), grid1d, kernel1d, eps=0.5, horizon=0.05)
        assert np.all(out == 0)

    def test_non_contraction_reported(self):
        # far outside the contraction horizon the iterates run away and
        # the three-growth guard reports leaving the ball
        from hartreelab import PicardConvergenceError

        grid = Grid(d=1, length=32.0, points=512)
        x = grid.axis_coords()
        u0 = 4.0 * np.exp(-x**2 / 2)
        spec = KernelSpec(d=1, gamma=0.5, coupling=8.0)
        with pytest.raises(PicardConvergenceError, match="contracting"):
            picard_evolve(u0, grid, spec, eps=0.5, horizon=1.0, tol=1e-10,
                          max_iter=25, nodes=16)
        with pytest.raises(PicardConvergenceError, match="contracting"):
            physical_picard(u0, grid, spec, 0.5, 1.0, tol=1e-10, max_iter=25, nodes=16)

    def test_default_horizon_is_tenth_of_eps(self, grid1d, gaussian_field):
        spec = KernelSpec(d=1, gamma=0.5, coupling=0.0)
        out = picard_evolve(gaussian_field, grid1d, spec, eps=0.5)
        expected = free_propagator(gaussian_field, grid1d, 0.5, 0.05)
        assert np.max(np.abs(out - expected)) < 1e-13

    def test_cross_integrator_agreement(self, kernel1d):
        grid = Grid(d=1, length=32.0, points=1024)
        x = grid.axis_coords()
        eps, horizon = 0.1, 0.01
        u0 = np.exp(-x**2 / 2) * np.exp(1j * 2.0 * x / eps)
        params = SolverParams(eps=eps, dt=horizon / 32, final_time=horizon)
        stepped = strang_run(u0, grid, kernel1d, params, [horizon])[0][-1]
        fixed = picard_evolve(u0, grid, kernel1d, eps=eps, horizon=horizon,
                              tol=1e-12, nodes=32)
        assert sum(l2_wiener(stepped - fixed, grid)) < 1e-6

    def test_matches_physical_space_reference(self, kernel1d):
        # the setup of test_cross_integrator_agreement
        grid = Grid(d=1, length=32.0, points=1024)
        x = grid.axis_coords()
        eps, horizon = 0.1, 0.01
        u0 = np.exp(-x**2 / 2) * np.exp(1j * 2.0 * x / eps)
        fixed = picard_evolve(u0, grid, kernel1d, eps=eps, horizon=horizon,
                              tol=1e-12, nodes=32)
        ref = physical_picard(u0, grid, kernel1d, eps, horizon, tol=1e-12,
                              max_iter=60, nodes=32)
        assert np.max(np.abs(fixed - ref)) < 1e-12

    def test_simpson_order_at_validate_parameters(self, validate_picard):
        ref = validate_picard(256)
        grid = load_config(REFERENCE_1D).grid
        errs = [sum(l2_wiener(validate_picard(n) - ref, grid)) for n in (16, 32, 64)]
        for coarse, fine in zip(errs, errs[1:]):
            assert abs(coarse / fine - 16.0) <= 2.0
        assert errs[1] < 5e-9  # the validate suite's 32 nodes

    def test_memory_flat_in_nodes_at_validate_parameters(self, validate_picard):
        validate_picard(32)  # warm: caches and transform plans are not state
        peaks = {}
        for nodes in (32, 128):
            tracemalloc.start()
            try:
                validate_picard(nodes)
                peaks[nodes] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # a fixed number of 8192-point state arrays of 128 KiB, whatever the nodes
        assert peaks[32] < 4 * 2**20
        assert abs(peaks[128] - peaks[32]) <= 0.05 * peaks[32]

    def test_failure_names_its_panel(self, grid1d, gaussian_field, kernel1d):
        from hartreelab import PicardConvergenceError

        with pytest.raises(PicardConvergenceError,
                           match="after 1 iterations on the panel ending at t = 0.01 "):
            picard_evolve(gaussian_field, grid1d, kernel1d, eps=0.5, horizon=0.05,
                          tol=1e-30, max_iter=1, nodes=10)

    @pytest.mark.parametrize("nodes", [0, 1, 7, 33, -2])
    def test_odd_or_too_few_nodes_rejected(self, grid1d, gaussian_field, kernel1d, nodes):
        with pytest.raises(ValueError, match="even and at least 2"):
            picard_evolve(gaussian_field, grid1d, kernel1d, eps=0.5, horizon=0.05,
                          nodes=nodes)

    def test_default_node_count_is_even(self, grid1d, gaussian_field):
        # horizon / (0.1 eps) = 8.8: nine nodes by the resolution rule, ten by Simpson
        spec = KernelSpec(d=1, gamma=0.5, coupling=0.1)
        out = picard_evolve(gaussian_field, grid1d, spec, eps=0.5, horizon=0.44, tol=1e-12)
        ten = picard_evolve(gaussian_field, grid1d, spec, eps=0.5, horizon=0.44, tol=1e-12,
                            nodes=10)
        assert np.array_equal(out, ten)
