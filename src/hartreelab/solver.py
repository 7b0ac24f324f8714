"""Time integration for the semiclassical Hartree flow.

The equation, written as an evolution law,

    du/dt = i (eps/2) Lap u - i lambda (K * |u|^2) u,

splits into two exactly solvable pieces: the free flow is a modulus-one
frequency multiplier, and the potential flow is a pointwise phase since
the potential only sees |u|, which it preserves.  Strang alternation
kinetic-potential-kinetic gives the production integrator; each factor
is unitary, so mass is conserved to rounding per step.

The loop keeps the state in Fourier space, so adjacent kinetic
half-steps merge into one full step; a step costs 4 d axis passes of
the transform (complex inverse, the real pair of `kernel.convolve` for
K * |u|^2 on the half spectrum, complex forward) and
one vectorised tangent (`grid.unit_phase` for the potential phase), and
each sample one more inverse to record the state.  Between the
transforms, three pointwise stages run over consecutive slices of
`grid.CHUNK` points, so each slice's working set stays in L2 and no
full-size temporary is made: |u|^2 into one real buffer; the phase
exp(-i dt V) of the potential the convolution wrote over it, applied to
the state; and the moduli of the new spectrum into the same buffer with
the kinetic multiply.  The guard sums those moduli and their squares
in the one order of `norms`.  A grid of at most CHUNK points is one slice.
In 2D and 3D the spectrum, the real buffer and both kinetic multipliers
are row-padded (`grid.padded_zeros`): the [..., :N] view of a buffer
with N + 1 elements per row.  A contiguous complex row of 512 points is
8 KiB, so the leading-axis passes of every complex transform would read
columns at a power-of-two stride, which maps a column onto the same
cache sets; the padded stride does not, and numpy transforms the view
bitwise as the contiguous array.  `start` allocates the spectrum that
way once; `advance` transforms it in place, and its stages slice the
padded buffers whole, over pads that stay zero.
The kinetic multipliers are built by `unit_phase` once per call; the
Picard node multiplier keeps `np.exp` as an independent reference.
`advance` runs that loop over one inter-sample gap, from `start`, for
every command (simulate, validate's integrator check, the sweep).

A Picard iteration of the Duhamel integral form

    u(t) = U(t) u0 - i lambda integral_0^t U(t - tau) (K*|u|^2) u dtau

serves as an independent cross-check on short horizons; it is never the
production path because its contraction horizon shrinks with the data.
Its node states s_j live in Fourier space as well: the free flow is a
power of the one-node multiplier U = U(h), and the integral runs on the
spectra q of the source (K * |u|^2) u by composite Simpson on panels of
two node steps.  U^2 moves the free flow and the Duhamel integral of
node 2k alike, so the panel rule reads on the states,

    s_{2k+2} = U^2 s_{2k} - i h/3 (U^2 q_{2k} + 4 U q_{2k+1} + q_{2k+2}),
    s_{2k+1} = U s_{2k} - i h/12 (5 U q_{2k} + 8 q_{2k+1} - conj(U) q_{2k+2}),

the midpoint integrating the quadratic through the same three propagated
sources U(t - tau) q(tau); it is not carried, so the panel ends keep the
fourth order of Simpson, and the error falls 16x per doubling of nodes.
Panel k's two nodes depend only on node 2k and on themselves, so the
fixed point is reached by a march: each panel seeds its two nodes with
the free flow of node 2k, holds them as one (2, *shape) stack whose
sources come from four stacked FFTs (complex inverse, the real pair for
the potentials, complex forward), and iterates until its increment,
measured from the spectra by Parseval, falls below tol; its end node and
source then start the next panel.  The call holds a fixed number of
state arrays whatever the node count, and `max_iter` and the growth
guard count per panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import CHUNK, _slices, padded_zeros, unit_phase
from .kernel import KernelSpec, convolve, half_multiplier
from .norms import _norms, _norms_from_modulus

DT_FACTOR = 0.1  # default dt / eps of the resolution rule
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
    coupled to eps, and the factor (default DT_FACTOR, never above
    MAX_DT_FACTOR) was
    fixed by self-convergence studies.
    """

    eps: float
    dt: float
    final_time: float
    dt_factor: float = DT_FACTOR

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not 0 < self.dt_factor <= MAX_DT_FACTOR:
            raise ValueError(
                f"dt_factor must lie in (0, {MAX_DT_FACTOR}], got {self.dt_factor}"
            )
        if not 0 < self.dt <= self.final_time:
            raise ValueError(
                f"dt must satisfy 0 < dt <= final_time, got dt={self.dt}, "
                f"T={self.final_time}"
            )
        if self.dt > self.dt_factor * self.eps * (1 + 1e-12):
            raise ValueError(
                f"dt = {self.dt} violates the resolution rule "
                f"dt <= dt_factor * eps = {self.dt_factor * self.eps}"
            )

    @classmethod
    def largest_step(cls, eps: float, final_time: float, dt_factor: float = DT_FACTOR):
        """The largest dt the resolution rule allows, capped at final_time."""
        return cls(eps, min(dt_factor * eps, final_time), final_time, dt_factor)


def step_count(gap: float, params: SolverParams) -> float:
    """Strang steps `advance` takes over a gap: the fewest equal steps no
    longer than the requested dt, as a float (a subnormal dt's may be inf)."""
    return max(1.0, np.ceil(gap / min(params.dt, params.dt_factor * params.eps) - 1e-12))


def start(values: np.ndarray, grid) -> tuple:
    """(raw, l2, wiener): the raw spectrum of the samples `values`, in the
    layout `advance` steps (`grid.padded_zeros`), and its norms."""
    raw = np.fft.fftn(values, out=padded_zeros(grid))
    return (raw, *_norms(raw, grid))


def _backing(raw: np.ndarray, grid) -> np.ndarray:
    """The C-contiguous buffer the stages of `advance` slice: raw itself, or
    the row-padded buffer of which raw is the [..., :N] view
    (`grid.padded_zeros`).  Any other layout is refused, since the stages
    write the whole buffer."""
    if raw.flags.c_contiguous:
        return raw
    base, n = raw.base, grid.points
    if not (isinstance(base, np.ndarray) and base.flags.c_contiguous
            and base.dtype == raw.dtype and raw.shape == grid.shape
            and base.shape == (*grid.shape[:-1], n + 1)
            and raw.strides == base.strides
            and raw.ctypes.data == base.ctypes.data):
        raise ValueError("raw must be C-contiguous or the [..., :N] view of a "
                         "row-padded buffer (grid.padded_zeros)")
    return base


def advance(raw, grid, khat_half, params: SolverParams, t_prev: float, t_next: float,
            norm0: float) -> tuple:
    """Strang steps carrying the raw spectrum `raw` from t_prev to t_next.

    The gap is cut into the fewest equal steps no longer than the
    requested dt, so t_next is hit exactly; khat_half is
    `kernel.half_multiplier(spec, grid, lambda)`.  `raw`, C-contiguous or
    a `grid.padded_zeros` view with zero pads (any other layout raises
    ValueError), is transformed in place; returns the spectrum at t_next
    and its L2 norm.
    The run is aborted once the combined norm exceeds 4 norm0, norm0
    being its value at t = 0: the stability ball of the local existence
    argument.

    The real buffer and the kinetic multipliers share raw's layout, so
    the pointwise stages run over slices of the contiguous buffers, pads
    included: a pad of the state is 0, |0|^2 = 0, the phase of a zero
    potential is 1 and 0 kin = 0, so the pads stay zero.  The guard sums
    a contiguous copy of the moduli, in the spectrum's spent bytes, in the
    order `norms._modulus_sums` takes on the unpadded array.
    """
    gap = t_next - t_prev
    n_steps = int(step_count(gap, params))
    dt = gap / n_steps
    full = _backing(raw, grid)  # with the pads
    real_full = np.zeros(full.shape)  # the kinetic angle; per step |u|^2, V, moduli
    real = real_full[..., :grid.points]
    np.multiply(grid.freq_norm_sq(), -0.25 * params.eps * dt, out=real)
    kin_half = unit_phase(real_full)
    kin_full = kin_half**2
    spectrum = np.empty(khat_half.shape, dtype=complex)
    moduli = real if real.flags.c_contiguous else (
        spectrum.view(np.float64).reshape(-1)[:grid.total_points].reshape(grid.shape))
    parts = list(zip(*map(_slices, (full, real_full, kin_half, kin_full))))
    n = min(full.size, CHUNK)
    phase, imag_sq = np.empty(n, dtype=complex), np.empty(n)
    full *= kin_half
    with np.errstate(over="ignore", invalid="ignore"):  # the guard reports a NaN
        for step in range(n_steps):
            np.fft.ifftn(raw, out=raw)
            for u, rho, _, _ in parts:
                np.multiply(u.real, u.real, out=rho)
                rho += np.multiply(u.imag, u.imag, out=imag_sq[:u.size])
            convolve(khat_half, real, spectrum)
            for u, angle, _, _ in parts:
                # -dt after the transform: an overflowing potential gives a NaN phase
                angle *= -dt
                u *= unit_phase(angle, out=phase[:u.size])
            np.fft.fftn(raw, out=raw)
            # moduli before the kinetic multiply: |kin| = 1, so the norms are the same
            last = step == n_steps - 1
            for u, mag, half, whole in parts:
                np.abs(u, out=mag)
                u *= half if last else whole
            if moduli is not real:
                np.copyto(moduli, real)
            l2, wiener = _norms_from_modulus(moduli, grid)
            if not l2 + wiener <= 4.0 * norm0:  # a NaN norm trips the guard too
                raise DivergenceError(t_prev + (step + 1) * dt, (l2 + wiener) / norm0)
    return raw, l2


@np.errstate(over="ignore", invalid="ignore")  # a non-finite increment raises
def picard_evolve(
    u0: np.ndarray,
    grid,
    spec: KernelSpec,
    eps: float,
    horizon: float = None,
    tol: float = 1e-10,
    max_iter: int = 60,
    nodes: int = None,
) -> np.ndarray:
    """Duhamel fixed point at time `horizon` (small; defaults to 0.1*eps).

    The time integral is composite Simpson on an even node count obeying
    the same resolution rule as the stepper, solved panel by panel.  Each
    panel iterates its two nodes until the increment, in the combined
    norm and sup over the two, is below `tol`; at most `max_iter`
    iterations per panel.  Three consecutive increases, or a non-finite
    increment, are reported as leaving the contraction ball, naming the
    end time of the panel.
    """
    if horizon is None:
        horizon = 0.1 * eps
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if nodes is None:
        nodes = max(8, math.ceil(horizon / (DT_FACTOR * eps)))
        nodes += nodes % 2
    if nodes < 2 or nodes % 2:
        raise ValueError(f"nodes must be even and at least 2, got {nodes}")
    h = horizon / nodes

    khat_half = half_multiplier(spec, grid, spec.coupling)
    u_half = np.exp(-0.5j * eps * h * grid.freq_norm_sq())
    u_full, u_back = u_half**2, np.conj(u_half)
    axes = tuple(range(1, grid.d + 1))

    def sources(raw):
        """Raw spectra of (K * |u|^2) u, u the states of a stack of raw spectra."""
        state = np.fft.ifftn(raw, axes=axes)
        state *= convolve(khat_half, state.real**2 + state.imag**2)
        return np.fft.fftn(state, axes=axes, out=state)

    start = np.fft.fftn(u0)  # s_{2k}, node 0 first
    q_start = sources(start[None])[0]  # q_{2k}
    panel, known, new = np.empty((3, 2, *grid.shape), dtype=np.complex128)

    for k in range(nodes // 2):
        where = f"on the panel ending at t = {(2 * k + 2) * h:.6g}"
        np.multiply(u_half, start, out=panel[0])  # the seed: free flow of node 2k
        np.multiply(u_full, start, out=panel[1])
        uq = u_half * q_start
        known[0] = panel[0] - (5j * h / 12) * uq  # the terms in s_{2k} and q_{2k}
        known[1] = panel[1] - (1j * h / 3) * (u_half * uq)
        prev_inc, growth_streak = math.inf, 0
        for iteration in range(1, max_iter + 1):
            q_mid, q_end = sources(panel)
            new[0] = known[0] - (1j * h / 12) * (8 * q_mid - u_back * q_end)
            new[1] = known[1] - (1j * h / 3) * (4 * u_half * q_mid + q_end)
            # each increment overwrites its row of the old iterate, spent by now
            steps = [sum(_norms(np.subtract(n, p, out=p), grid)) for n, p in zip(new, panel)]
            panel, new = new, panel
            if not all(map(math.isfinite, steps)):  # max() would drop a NaN
                raise PicardConvergenceError(
                    f"increment became non-finite in iteration {iteration} {where}")
            inc = max(steps)
            if inc < tol:
                break
            growth_streak = growth_streak + 1 if inc > prev_inc else 0
            if growth_streak >= 3:
                raise PicardConvergenceError(
                    f"increment grew for three consecutive iterations (last {inc:.3g}) "
                    f"{where}; the map is not contracting on this horizon"
                )
            prev_inc = inc
        else:
            raise PicardConvergenceError(
                f"no convergence after {max_iter} iterations {where} "
                f"(last increment {inc:.3g})"
            )
        start[...], q_start = panel[1], q_end

    return np.fft.ifftn(start)
