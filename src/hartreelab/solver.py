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
of the one-node multiplier U = U(h), and the integral runs on the
spectra q of the source (K * |u|^2) u by composite Simpson on panels of
two node steps,

    I_{2k+2} = U^2 I_{2k} + h/3 (U^2 q_{2k} + 4 U q_{2k+1} + q_{2k+2}),
    I_{2k+1} = U I_{2k} + h/12 (5 U q_{2k} + 8 q_{2k+1} - conj(U) q_{2k+2}),

the midpoint integrating the quadratic through the same three propagated
sources U(t - tau) q(tau); it is not carried, so the panel ends keep the
fourth order of Simpson, and the error falls 16x per doubling of nodes.
The increment norms come from the spectra by Parseval.  The node spectra
live in one (nodes + 1, *shape) array, (nodes + 1) N^d 16 B: 4.1 MiB for
the validate suite's 32 nodes at 8192 points, 33 MiB at 256^2, 132 MiB
at 64^3.  Each block of whole panels (`Grid.block_rows` rounded down to
even, at least 2) takes the sources of the previous iterate from four
stacked FFTs (complex inverse, the real pair for the potentials, complex
forward), then the recursion walks its panels in order, carrying the
source of the last node into the next block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .grid import Field, unit_phase
from .kernel import KernelSpec, convolve, half_multiplier
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
    `kernel.half_multiplier(spec, grid, lambda)`.  `raw` is consumed;
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
            angle = convolve(khat_half, density)
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

    khat_half = half_multiplier(spec, g, spec.coupling)
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


@np.errstate(over="ignore", invalid="ignore")  # a non-finite increment raises
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

    The time integral is composite Simpson on an even node count obeying
    the same resolution rule as the stepper.  Successive-iterate
    increments are measured in the combined norm, sup over nodes; three
    consecutive increases, or a non-finite increment, are reported as
    leaving the contraction ball.
    """
    g = u0.grid
    if horizon is None:
        horizon = 0.1 * eps
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if nodes is None:
        nodes = max(8, math.ceil(horizon / (0.1 * eps)))
        nodes += nodes % 2
    if nodes < 2 or nodes % 2:
        raise ValueError(f"nodes must be even and at least 2, got {nodes}")
    h = horizon / nodes
    rows = max(2, g.block_rows - g.block_rows % 2)  # whole panels per block

    khat_half = half_multiplier(spec, g, spec.coupling)
    u_half = np.exp(-0.5j * eps * h * g.freq_norm_sq())
    u_full, u_back = u_half**2, np.conj(u_half)
    axes = tuple(range(1, g.d + 1))

    def sources(raw):
        """Raw spectra of (K * |u|^2) u, u the states of a stack of raw spectra."""
        state = scipy.fft.ifftn(raw, axes=axes)
        state *= convolve(khat_half, state.real**2 + state.imag**2)
        return scipy.fft.fftn(state, axes=axes, overwrite_x=True)

    # raw spectra of the node states, seeded by the free flow; node 0 is
    # the data and never changes, so neither does q_0
    current = np.empty((nodes + 1, *g.shape), dtype=np.complex128)
    current[0] = scipy.fft.fftn(u0.values)
    for i in range(nodes):
        np.multiply(current[i], u_half, out=current[i + 1])
    q0 = sources(current[:1])[0]
    prev_inc = None
    growth_streak = 0

    for iteration in range(1, max_iter + 1):
        free, integral, q_even = current[0], np.zeros(g.shape, dtype=np.complex128), q0
        inc = 0.0
        for start in range(1, nodes + 1, rows):
            block = current[start:start + rows]
            q = sources(block)  # of the previous iterate, read before the block moves
            for k in range(0, len(block), 2):
                q_mid, q_end = q[k], q[k + 1]
                uq = u_half * q_even
                free_mid = free * u_half
                free = free_mid * u_half
                mid = u_half * integral + (h / 12) * (5 * uq + 8 * q_mid - u_back * q_end)
                integral = u_full * integral + (h / 3) * (u_half * (uq + 4 * q_mid) + q_end)
                for node, new in ((block[k], free_mid - 1j * mid),
                                  (block[k + 1], free - 1j * integral)):
                    step = sum(_norms_from_raw_fft(new - node, g))
                    if not math.isfinite(step):  # max() would drop a NaN
                        raise PicardConvergenceError(
                            f"increment became non-finite in iteration {iteration}")
                    inc = max(inc, step)
                    node[...] = new
                q_even = q_end
            q_even = q_even.copy()  # carried on; q is freed before the next block's sources
            del q, q_mid, q_end
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
