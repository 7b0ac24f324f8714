"""Time integration for the semiclassical Hartree flow.

The equation, written as an evolution law,

    du/dt = i (eps/2) Lap u - i lambda (K * |u|^2) u,

splits into two exactly solvable pieces: the free flow is a modulus-one
frequency multiplier, and the potential flow is a pointwise phase since
the potential only sees |u|, which it preserves.  Strang alternation
kinetic-potential-kinetic gives the production integrator; each factor
is unitary, so mass is conserved to rounding per step.

The loop keeps the state in Fourier space, so adjacent kinetic
half-steps merge into one full step; a step costs four FFTs (complex
inverse, a real pair for K * |u|^2 on the half spectrum, complex
forward) and one vectorised tangent (`grid.unit_phase` for the
potential phase), and each sample one more inverse to record the state.
The kinetic multipliers are built by `unit_phase` once per call;
`free_propagator` and the Picard node multiplier keep `np.exp` as
independent references.
`advance` runs that loop over one inter-sample gap; `evolve` and the
lockstep sweep in `harness` both call it, so they share one loop.

A Picard iteration of the Duhamel integral form

    u(t) = U(t) u0 - i lambda integral_0^t U(t - tau) (K*|u|^2) u dtau

serves as an independent cross-check on short horizons; it is never the
production path because its contraction horizon shrinks with the data.
Its node states live in Fourier space as well: the free flow is a power
of the one-node multiplier, the trapezoidal Duhamel recursion

    I_i = (I_{i-1} + h/2 q_{i-1}) U(h) + h/2 q_i

runs on the spectra q of the source (K * |u|^2) u, and the increment
norms come from the spectra by Parseval.  The node spectra live in one
(nodes + 1, *shape) array; each block of `Grid.block_rows` nodes takes
the sources of the previous iterate from four stacked FFTs (complex
inverse, the real pair for the potentials, complex forward), then the
recursion walks its nodes in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .grid import Field, unit_phase
from .kernel import KernelSpec, _convolve_real, _half_multiplier
from .norms import _norms_from_raw_fft

MAX_DT_FACTOR = 0.25


class DivergenceError(RuntimeError):
    """The combined norm left the stability ball during evolution."""

    def __init__(self, time: float, ratio: float):
        self.time = time
        self.ratio = ratio
        growth = (f"grew to {ratio:.3g}x its initial value" if math.isfinite(ratio)
                  else "became non-finite")
        super().__init__(
            f"combined norm {growth} at t = {time:.6g}; the run left the stability ball"
        )


class PicardConvergenceError(RuntimeError):
    """The fixed-point iteration failed to contract."""


@dataclass(frozen=True)
class SolverParams:
    """Time-stepping parameters.

    dt must respect the resolution rule dt <= dt_factor * eps: the
    potential phase and the splitting commutators carry oscillation
    coupled to eps, and the factor (default 0.1, never above 0.25) was
    fixed by self-convergence studies.
    """

    eps: float
    dt: float
    final_time: float
    dt_factor: float = 0.1

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not 0 < self.dt <= self.final_time:
            raise ValueError(
                f"dt must satisfy 0 < dt <= final_time, got dt={self.dt}, "
                f"T={self.final_time}"
            )
        if not 0 < self.dt_factor <= MAX_DT_FACTOR:
            raise ValueError(
                f"dt_factor must lie in (0, {MAX_DT_FACTOR}], got {self.dt_factor}"
            )
        if self.dt > self.dt_factor * self.eps * (1 + 1e-12):
            raise ValueError(
                f"dt = {self.dt} violates the resolution rule "
                f"dt <= dt_factor * eps = {self.dt_factor * self.eps}"
            )

    @classmethod
    def largest_step(cls, eps: float, final_time: float, dt_factor: float = 0.1):
        """The largest dt the resolution rule allows, capped at final_time."""
        return cls(eps, min(dt_factor * eps, final_time), final_time, dt_factor)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled states of one evolution run, starting at t = 0."""

    times: tuple
    states: tuple
    mass_log: tuple

    def __post_init__(self):
        if self.times[0] != 0.0 or any(
            b <= a for a, b in zip(self.times, self.times[1:])
        ):
            raise ValueError("sample times must be strictly increasing from 0")

    def state_at(self, t: float) -> Field:
        for tt, ss in zip(self.times, self.states):
            if math.isclose(tt, t, rel_tol=1e-12, abs_tol=1e-15):
                return ss
        raise KeyError(f"no recorded state at t = {t}")

    def mass_drift(self) -> float:
        m0 = self.mass_log[0]
        return max(abs(m - m0) for m in self.mass_log) / m0


def free_propagator(f: Field, eps: float, t: float) -> Field:
    """exp(i eps t Lap / 2): frequency phase exp(-i eps t |xi|^2 / 2)."""
    if t == 0.0:
        return f
    g = f.grid
    phase = np.exp(-0.5j * eps * t * g.freq_norm_sq())
    return Field._adopt(g, scipy.fft.ifftn(scipy.fft.fftn(f.values) * phase))


def advance(raw, grid, khat_half, params: SolverParams, t_prev: float, t_next: float,
            norm0: float) -> tuple:
    """Strang steps carrying the raw spectrum `raw` from t_prev to t_next.

    The gap is cut into the fewest equal steps no longer than the
    requested dt, so t_next is hit exactly; khat_half is
    `kernel._half_multiplier(spec, grid, lambda)`.  `raw` is consumed;
    returns the spectrum at t_next and its L2 norm.  The run is aborted
    once the combined norm exceeds 4 norm0, norm0 being its value at
    t = 0: the stability ball of the local existence argument.
    """
    dt_request = min(params.dt, params.dt_factor * params.eps)
    gap = t_next - t_prev
    n_steps = max(1, math.ceil(gap / dt_request - 1e-12))
    dt = gap / n_steps
    kin_half = unit_phase(-0.25 * params.eps * dt * grid.freq_norm_sq())
    kin_full = kin_half**2
    phase = np.empty(grid.shape, dtype=np.complex128)
    density, imag_sq = np.empty(grid.shape), np.empty(grid.shape)
    raw *= kin_half
    with np.errstate(over="ignore", invalid="ignore"):  # the guard reports a NaN
        for step in range(n_steps):
            state = scipy.fft.ifftn(raw, overwrite_x=True)
            np.multiply(state.real, state.real, out=density)
            np.multiply(state.imag, state.imag, out=imag_sq)
            density += imag_sq
            # -dt after the transform: an overflowing potential gives a NaN phase
            angle = _convolve_real(khat_half, density)
            angle *= -dt
            state *= unit_phase(angle, out=phase)
            raw = scipy.fft.fftn(state, overwrite_x=True)
            # |kin_half| = 1, so these are the norms after the half-step
            l2, wiener = _norms_from_raw_fft(raw, grid)
            if not l2 + wiener <= 4.0 * norm0:  # a NaN norm trips the guard too
                raise DivergenceError(t_prev + (step + 1) * dt, (l2 + wiener) / norm0)
            raw *= kin_full if step < n_steps - 1 else kin_half
    return raw, l2


def evolve(u0: Field, spec: KernelSpec, params: SolverParams, samples) -> Trajectory:
    """Integrate up to final_time, recording the state at each sample.

    One `advance` per inter-sample gap, the loop a sweep runs as well.
    """
    g = u0.grid
    times = sorted({float(s) for s in samples})
    for t in times:
        if t < 0 or t > params.final_time * (1 + 1e-12):
            raise ValueError(f"sample time {t} outside [0, T = {params.final_time}]")

    khat_half = _half_multiplier(spec, g, spec.coupling)
    raw = scipy.fft.fftn(np.array(u0.values, dtype=np.complex128), overwrite_x=True)
    l2_0, w_0 = _norms_from_raw_fft(raw, g)

    rec_times, rec_states, rec_mass = [0.0], [u0], [l2_0]
    t_prev = 0.0
    for t_next in times:
        if t_next == 0.0:
            continue
        raw, l2 = advance(raw, g, khat_half, params, t_prev, t_next, l2_0 + w_0)
        rec_times.append(t_next)
        rec_states.append(Field._adopt(g, scipy.fft.ifftn(raw)))
        rec_mass.append(l2)
        t_prev = t_next

    return Trajectory(tuple(rec_times), tuple(rec_states), tuple(rec_mass))


def picard_evolve(
    u0: Field,
    spec: KernelSpec,
    eps: float,
    horizon: float = None,
    tol: float = 1e-10,
    max_iter: int = 60,
    nodes: int = None,
) -> Field:
    """Duhamel fixed point at time `horizon` (small; defaults to 0.1*eps).

    The time integral is composite-trapezoidal on a node grid obeying
    the same resolution rule as the stepper.  Successive-iterate
    increments are measured in the combined norm, sup over nodes; three
    consecutive increases are reported as leaving the contraction ball.
    """
    g = u0.grid
    if horizon is None:
        horizon = 0.1 * eps
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if nodes is None:
        nodes = max(8, math.ceil(horizon / (0.1 * eps)))
    h = horizon / nodes

    khat_half = _half_multiplier(spec, g, spec.coupling)
    u_half = np.exp(-0.5j * eps * h * g.freq_norm_sq())
    axes = tuple(range(1, g.d + 1))

    def sources(raw):
        """Raw spectra of (K * |u|^2) u, u the states of a stack of raw spectra."""
        state = scipy.fft.ifftn(raw, axes=axes)
        state *= _convolve_real(khat_half, state.real**2 + state.imag**2)
        return scipy.fft.fftn(state, axes=axes, overwrite_x=True)

    # raw spectra of the node states, seeded by the free flow; node 0 is
    # the data and never changes, so neither does I_0 + h/2 q_0
    current = np.empty((nodes + 1, *g.shape), dtype=np.complex128)
    current[0] = scipy.fft.fftn(u0.values)
    for i in range(nodes):
        np.multiply(current[i], u_half, out=current[i + 1])
    carry0 = (h / 2) * sources(current[:1])[0]
    prev_inc = None
    growth_streak = 0

    for iteration in range(1, max_iter + 1):
        free, carry = current[0], carry0
        inc = 0.0
        for start in range(1, nodes + 1, g.block_rows):
            block = current[start:start + g.block_rows]
            q = sources(block)  # of the previous iterate, read before the block moves
            for node, q_i in zip(block, q):
                free = free * u_half
                integral = carry * u_half + (h / 2) * q_i
                carry = integral + (h / 2) * q_i
                new = free - 1j * integral
                inc = max(inc, sum(_norms_from_raw_fft(new - node, g)))
                node[...] = new
            del q, q_i  # freed before the next block's sources are built
        if inc < tol:
            return Field._adopt(g, scipy.fft.ifftn(current[-1]))
        if prev_inc is not None and inc > prev_inc:
            growth_streak += 1
            if growth_streak >= 3:
                raise PicardConvergenceError(
                    f"increment grew for three consecutive iterations "
                    f"(last {inc:.3g}); the map is not contracting on this horizon"
                )
        else:
            growth_streak = 0
        prev_inc = inc

    raise PicardConvergenceError(
        f"no convergence after {max_iter} iterations (last increment {prev_inc:.3g})"
    )
