"""Multiphase WKB construction: phases, transported amplitudes, remainders.

The approximate solution is

    u_app(t, x) = sum_j a_j(t, x) exp(i phi_j(t, x) / eps),

with plane-wave phases phi_j = kappa_j . x - t |kappa_j|^2 / 2 solving
the eikonal equation exactly, and amplitudes transported along rays:

    a_j(t, x) = alpha_j(x - t kappa_j) exp(i Theta_j(t, x)),
    Theta_j   = -lambda integral_0^t (K * sum_l |alpha_l(. + (tau - t) kappa_j
                                       - tau kappa_l)|^2)(x) dtau.

The accumulated phase Theta_j has a closed frequency-side form: each
translated density contributes a modulation, and the time integral of
the resulting oscillation is the averaging factor

    E(t, w) = (1 - exp(-i t w)) / (i w),   E(t, 0) = t,

so that

    Theta_j_hat(t, xi) = -lambda (2 pi)^{d/2} Khat(xi) exp(-i t kappa_j . xi)
                          * sum_l rho_l_hat(xi) E(t, (kappa_l - kappa_j) . xi).

`action_phase` sums that closed form on the half spectrum of the real
densities, so Theta_j is real by construction (the tests hold a
composite-Simpson oracle over the time variable).  Exponentials are
plane waves built separably by `grid.plane_wave`, and the amplitude
phase exp(i Theta_j) is one `grid.unit_phase`.  A snapshot of M modes
at t > 0 holds its M amplitudes alone, as writable complex arrays, and
costs M r2c + M c2r + 2 M c2c FFTs: shared density spectra, one inverse
per phase (its d - 1 leading-axis complex passes run in place) and a
pair per translated amplitude.  It keeps no phase.
`_half_laplacians` then turns each amplitude, in place, into its
eps-free term (1/2) Lap a_j: one forward transform per amplitude serves
its graded norm toward ||a(t)||_E, to the derivative order the kernel's
(d, gamma) fixes, and its half-Laplacian (2 M FFTs).

Expansion bookkeeping: after the eikonal and transport cancellations,
plugging the ansatz into the equation leaves exactly

    eps^2 Z2 + eps lambda r,
    Z2 = (1/2) sum_j (Lap a_j) exp(i phi_j / eps),
    r  = -(K * B) u_app,   B = sum_{k != l} a_k conj(a_l)
                                exp(i (phi_k - phi_l) / eps),

which `resonant_remainder` returns as a sample array and `ansatz_residual`
checks as a relative error.  One sum, `assemble`, applies the mode
carriers to every superposition: u0, u_app, Z2 and dt u_app (it and the
remainder fill an `out=` buffer when given, as a sweep does).  The
cross density B is what the averaged density rho = sum_j |a_j|^2 leaves
of |u_app|^2, so B = |u_app|^2 - sum_j |a_j|^2.  The remainder forms B,
K * B and the convolution's half spectrum inside its `out` buffer, as
two views that it hands to `kernel.convolve`, with chunk scratch beside
it and no array of field size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations

import numpy as np

from .grid import (
    CHUNK,
    GaussianProfile,
    Grid,
    _laplacian_from_raw,
    _slices,
    laplacian,
    plane_wave,
    profile_bandwidth,
    profile_support_radius,
    sample_profile,
    translate,
    unit_phase,
)
from .kernel import KernelSpec, _inverse_into, convolve, half_multiplier
from .norms import _graded_norm, _norms_in_place

CONTAINMENT_MARGIN = 0.1  # fraction of L kept clear at the box edge
RESOLUTION_FACTOR = 1.5
DECAY_THRESHOLD = 1e-12


class ContainmentError(ValueError):
    """A translated amplitude support would touch the box margin."""


class ResolutionError(ValueError):
    """The lattice cannot carry the oscillation for the requested eps."""


@dataclass(frozen=True, eq=False)
class Mode:
    """One plane-wave channel: wavevector plus initial amplitude samples."""

    kappa: np.ndarray
    alpha: np.ndarray
    profile: object = None

    def __post_init__(self):
        kappa = np.asarray(self.kappa, dtype=float).reshape(-1).copy()
        kappa.setflags(write=False)
        object.__setattr__(self, "kappa", kappa)


@dataclass(frozen=True, eq=False)
class ModeFamily:
    """Finite family of separated modes.

    delta is the minimal pairwise wavevector distance; the construction
    requires it strictly positive, and the remainder constant scales
    like delta**(gamma - d).  Each mode's support radius and bandwidth
    are its Gaussian profile's, else measured off its samples.
    """

    grid: Grid
    modes: tuple
    delta: float = field(init=False)
    support_radii: tuple = field(init=False)
    bandwidth_max: float = field(init=False)

    def __post_init__(self):
        if not self.modes:
            raise ValueError("mode family must contain at least one mode")
        modes = tuple(self.modes)
        object.__setattr__(self, "modes", modes)
        g = self.grid
        for m in modes:
            if m.kappa.shape != (g.d,):
                raise ValueError(
                    f"kappa has {m.kappa.shape[0]} components but the grid is {g.d}D"
                )
            if m.alpha.shape != g.shape or not np.all(np.isfinite(m.alpha)):
                raise ValueError("all amplitudes must be finite samples on the family grid")
        delta = min(
            (float(np.linalg.norm(a.kappa - b.kappa)) for a, b in combinations(modes, 2)),
            default=math.inf,
        )
        if delta <= 0:
            raise ValueError("mode wavevectors must be pairwise distinct (delta > 0)")
        object.__setattr__(self, "delta", delta)
        self._check_decay()
        radii, bandwidths = zip(*map(self._reach, modes))
        object.__setattr__(self, "support_radii", radii)
        object.__setattr__(self, "bandwidth_max", max(bandwidths))

    def _reach(self, m: Mode) -> tuple:
        """(support radius, bandwidth) of one mode's amplitude."""
        if isinstance(m.profile, GaussianProfile):
            center = max(abs(c) for c in m.profile.center)
            return center + m.profile.support_radius(), m.profile.bandwidth()
        return (profile_support_radius(m.alpha, self.grid, DECAY_THRESHOLD),
                profile_bandwidth(m.alpha, self.grid, DECAY_THRESHOLD))

    def _check_decay(self):
        g = self.grid
        edge = g.length / 2 - CONTAINMENT_MARGIN * g.length
        band = np.broadcast_to(
            reduce(np.logical_or, (np.abs(ax) >= edge for ax in g.coords())), g.shape
        )
        for m in self.modes:
            mag = np.abs(m.alpha)
            if mag[band].max() > DECAY_THRESHOLD * max(mag.max(), 1.0):
                raise ValueError(
                    "an initial amplitude does not decay below 1e-12 inside "
                    "the containment margin of the box"
                )

    @property
    def kappa_max(self) -> float:
        return max(float(np.linalg.norm(m.kappa)) for m in self.modes)

    @classmethod
    def from_profiles(cls, grid: Grid, entries) -> "ModeFamily":
        """Build from (kappa, profile) pairs, sampling each amplitude."""
        modes = []
        for kappa, profile in entries:
            alpha = sample_profile(grid, profile)
            modes.append(
                Mode(kappa=np.asarray(kappa, dtype=float), alpha=alpha, profile=profile)
            )
        return cls(grid=grid, modes=tuple(modes))


def check_containment(family: ModeFamily, t: float):
    """Every translated support must stay 10% of L clear of the edge."""
    g = family.grid
    limit = g.length / 2 - CONTAINMENT_MARGIN * g.length
    reach = family.kappa_max * abs(t)
    for radius in family.support_radii:
        if radius + reach > limit:
            raise ContainmentError(
                f"translated support radius {radius + reach:.3g} "
                f"exceeds the safe half-box {limit:.3g} at t = {t:.3g}; "
                "periodization would corrupt the translated amplitudes"
            )


def check_resolution(family: ModeFamily, eps: float, for_remainder: bool = False):
    """The lattice must resolve kappa/eps oscillation plus envelope width."""
    g = family.grid
    if for_remainder:
        needed = 2 * family.kappa_max / eps + 2 * family.bandwidth_max
    else:
        needed = RESOLUTION_FACTOR * (family.kappa_max / eps + family.bandwidth_max)
    if g.max_frequency < needed:
        raise ResolutionError(
            f"max lattice frequency {g.max_frequency:.4g} is below the "
            f"{needed:.4g} required for eps = {eps} "
            f"({'remainder' if for_remainder else 'ansatz'} rule)"
        )


def _averaging_factor(t: float, omega: np.ndarray, wave: np.ndarray) -> np.ndarray:
    """E(t, w) = (1 - exp(-i t w)) / (i w), E(t, 0) = t, given wave =
    exp(-i t w) of the same shape; overwrites wave.  Near t*w = 0 the
    quotient cancels catastrophically, so a cubic series takes over."""
    small = np.abs(omega) * abs(t) < 1e-6
    wave -= 1.0
    np.divide(wave, omega, out=wave, where=~small)
    wave *= 1j
    th = t * omega[small]
    wave[small] = t * (1.0 - 0.5j * th - th**2 / 6.0)
    return wave


def _density_spectra(family: ModeFamily) -> list:
    """rfftn(|alpha_l|^2) per mode: the half spectra every phase sums over."""
    return [np.fft.rfftn(np.abs(m.alpha) ** 2) for m in family.modes]


def action_phase(
    family: ModeFamily, j: int, t: float, spec: KernelSpec, spectra: list = None
) -> np.ndarray:
    """Accumulated Hartree phase Theta_j = lambda S_j via the closed form;
    `snapshot` passes the density spectra its M phases share."""
    g = family.grid
    if not 0 <= j < len(family.modes):
        raise IndexError(f"mode index {j} out of range")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    check_containment(family, t)
    if t == 0.0 or spec.coupling == 0.0:
        return np.zeros(g.shape)

    if spectra is None:
        spectra = _density_spectra(family)
    meshes = [m[..., : g.points // 2 + 1] for m in g.freq_meshes(zero_nyquist=True)]
    kappa_j = family.modes[j].kappa
    acc = np.zeros(spectra[0].shape, dtype=np.complex128)
    for mode, rho_hat in zip(family.modes, spectra):
        dk = mode.kappa - kappa_j
        omega = sum((c * m for c, m in zip(dk, meshes) if c), np.zeros((1,) * g.d))
        acc += rho_hat * _averaging_factor(t, omega, plane_wave(meshes, dk, -t))

    acc *= plane_wave(meshes, kappa_j, -t)
    # the bits of half_multiplier(spec, g, -lambda), negated from the memoized
    # lambda multiplier the stepper uses, so no entry is held for -lambda
    acc *= np.negative(half_multiplier(spec, g, spec.coupling))
    return _inverse_into(acc, np.empty(g.shape), range(g.d - 1))


def snapshot(family: ModeFamily, t: float, spec: KernelSpec) -> tuple:
    """Amplitudes a_j(t) = exp(i Theta_j(t)) alpha_j(. - t kappa_j), one
    writable complex array per mode (modulus: pure translation).

    The M `action_phase` calls share one set of density spectra (M real
    FFTs), freed once the M real phases are built; each phase then goes
    straight into `unit_phase`, times one `translate` array, and is
    dropped.  At t = 0 no transform runs: the shift and the phase are
    zero, so a_j(0) = alpha_j exactly.
    """
    check_containment(family, t)
    spectra = _density_spectra(family) if t > 0 and spec.coupling != 0.0 else None
    phases = [action_phase(family, j, t, spec, spectra) for j in range(len(family.modes))]
    del spectra
    amps = []
    for mode in family.modes:
        amp = unit_phase(phases.pop(0))
        amp *= translate(mode.alpha, family.grid, t * mode.kappa)
        amps.append(amp)
    return tuple(amps)


def _half_laplacians(family: ModeFamily, amps, spec: KernelSpec) -> float:
    """Turn each amplitude array of `amps` into (1/2) Lap a_j in place and
    return ||a||_E, graded to the order `spec` fixes: one forward transform
    per amplitude, in the amplitude's buffer, serves its graded norm and its
    half-Laplacian (2 M FFTs)."""
    e_norm = 0.0
    for amp in amps:
        raw = np.fft.fftn(amp, out=amp)
        e_norm += _graded_norm(raw, family.grid, spec)
        _laplacian_from_raw(raw, family.grid, 0.5)  # 0.5 is exact
    return e_norm


def _mode_carrier(grid: Grid, kappa: np.ndarray, t: float, eps: float) -> np.ndarray:
    """exp(i phi / eps) with phi = kappa . x - t |kappa|^2 / 2, broadcastable."""
    offset = -0.5 * t * float(kappa @ kappa) / eps
    return plane_wave(grid.coords(), kappa, 1.0 / eps, offset)


def assemble(family: ModeFamily, values, t: float, eps: float, out=None) -> np.ndarray:
    """sum_j values_j exp(i phi_j(t) / eps), one value array per mode, into
    `out` if given (zeroed first): u0 from alpha_j at t = 0, u_app from
    a_j, Z2 from (1/2) Lap a_j and dt u_app from the waves' rates.

    Each carrier applies over blocks of leading-axis rows of at most CHUNK
    points (one row if a row is longer), so a product is a block-sized
    temporary, bitwise the full-size product's block.
    """
    check_resolution(family, eps)
    g = family.grid
    if out is None:
        out = np.zeros(g.shape, dtype=np.complex128)
    else:
        out.fill(0)
    rows = min(g.points, max(1, CHUNK * g.points // g.total_points))
    scratch = np.empty((rows, *g.shape[1:]), dtype=np.complex128)
    for mode, v in zip(family.modes, values):
        carrier = _mode_carrier(g, mode.kappa, t, eps)
        for lo in range(0, g.points, rows):
            block = slice(lo, lo + rows)
            dst = out[block]
            factor = carrier[block] if len(carrier) > 1 else carrier
            dst += np.multiply(v[block], factor, out=scratch[:len(dst)])
    return out


def initial_data(family: ModeFamily, eps: float) -> np.ndarray:
    """Superposition of eps-oscillatory plane waves: the shared initial state."""
    return assemble(family, (mode.alpha for mode in family.modes), 0.0, eps)


def resonant_remainder(family: ModeFamily, amps, eps: float, spec: KernelSpec,
                       u_app: np.ndarray, out=None) -> np.ndarray:
    """Cross-mode term r = -(K * B) u_app of a record, zero for a single mode,
    into `out` (C-contiguous) if given; u_app holds what `assemble` returned
    for the amplitudes `amps`.

    The cross density is read off the assembled field, whose diagonal
    terms are the averaged density: B = |u_app|^2 - sum_j |a_j|^2.  B forms
    slice by slice in the second float64 half of `out`, each |a_j|^2 in
    chunk scratch; `kernel.convolve` turns it into K * B there through a
    half spectrum over the first float64 half of `out` and B's first
    2 N^(d-1) floats; r then fills `out` slice by slice, over K * B already
    read.  Beyond `out` the call holds chunk scratch only.
    """
    g = family.grid
    if out is None:
        out = np.empty(g.shape, dtype=np.complex128)
    if len(family.modes) == 1:
        out.fill(0)
        return out
    check_resolution(family, eps, for_remainder=True)
    cross = out.view(np.float64).reshape(2, *g.shape)[1]
    half_shape = (*g.shape[:-1], g.points // 2 + 1)
    spectrum = out.reshape(-1)[: math.prod(half_shape)].reshape(half_shape)
    mod_sq = np.empty(min(g.total_points, CHUNK))
    for b, u, *parts in zip(*map(_slices, (cross, u_app, *amps))):
        np.square(np.abs(u, out=b), out=b)
        for part in parts:
            b -= np.square(np.abs(part, out=mod_sq[:b.size]), out=mod_sq[:b.size])
    conv = convolve(half_multiplier(spec, g), cross, spectrum)
    for c, u, r in zip(*map(_slices, (np.negative(conv, out=conv), u_app, out))):
        np.multiply(c, u, out=r)
    return out


def _transport_rates(family: ModeFamily, amps: tuple, spec: KernelSpec) -> list:
    """dt a_j by the transport law: -kappa_j . grad a_j - i lambda (K * rho) a_j,
    rho = sum_l |a_l|^2, with the drift applied as one i kappa_j . xi multiplier."""
    g = family.grid
    rho = sum(np.abs(amp) ** 2 for amp in amps)
    potential = convolve(half_multiplier(spec, g, spec.coupling), rho)
    meshes = g.freq_meshes(zero_nyquist=True)
    rates = []
    for mode, amp in zip(family.modes, amps):
        drift = sum(1j * k * m for k, m in zip(mode.kappa, meshes))
        advect = np.fft.ifftn(np.fft.fftn(amp) * drift)
        rates.append(-advect - 1j * potential * amp)
    return rates


def transport_residual(
    family: ModeFamily, t: float, spec: KernelSpec, h: float = 1e-4
) -> list:
    """Fourth-order finite-difference residual of the transport law, per mode.

    Certifies that the closed-form amplitudes satisfy

        dt a_j + kappa_j . grad a_j + i lambda (K * sum_l |a_l|^2) a_j = 0

    with the time derivative taken numerically, i.e. independently of
    the algebra that produced the closed form: (4 D(h/2) - D(h)) / 3, D
    the centered difference (lower points clamped at t = 0).  Returned
    values are max residual / max |a_j|.
    """
    def slope(step: float) -> list:
        lo, hi = max(t - step, 0.0), t + step
        ends = zip(snapshot(family, hi, spec), snapshot(family, lo, spec))
        return [(p - m) / (hi - lo) for p, m in ends]

    mids = snapshot(family, t, spec)
    rates = _transport_rates(family, mids, spec)
    out = []
    for mid, coarse, fine, rate in zip(mids, slope(h), slope(h / 2), rates):
        resid = (4 * fine - coarse) / 3 - rate
        scale = np.max(np.abs(mid))
        out.append(float(np.max(np.abs(resid)) / scale) if scale > 0 else 0.0)
    return out


def ansatz_residual(family: ModeFamily, t: float, eps: float, spec: KernelSpec) -> float:
    """Relative error ||lhs - rhs|| / ||rhs|| (L2 + Wiener) of the expansion
    identity

        i eps dt u_app + (eps^2/2) Lap u_app - eps lambda (K*|u_app|^2) u_app
            = eps^2 Z2 + eps lambda r.

    The time derivative of each amplitude is supplied by the transport
    law; the Laplacian of the assembled field and the full nonlinearity
    are evaluated spectrally on the oscillatory field itself, so the
    identity genuinely tests the eikonal and transport cancellations.
    """
    check_resolution(family, eps, for_remainder=True)
    g = family.grid
    amps = snapshot(family, t, spec)
    u_app = assemble(family, amps, t, eps)

    rates = _transport_rates(family, amps, spec)
    # d/dt (a_j exp(i phi_j / eps)) = (dt a_j - i |kappa_j|^2 / (2 eps) a_j) exp(...)
    wave_rates = (
        dadt - 0.5j * float(mode.kappa @ mode.kappa) / eps * amp
        for mode, amp, dadt in zip(family.modes, amps, rates)
    )
    dudt = assemble(family, wave_rates, t, eps)

    khat_half = half_multiplier(spec, g, spec.coupling)
    nonlinear = convolve(khat_half, np.abs(u_app) ** 2) * u_app
    lap = laplacian(u_app, g)
    lhs = 1j * eps * dudt + 0.5 * eps**2 * lap - eps * nonlinear

    # the half-Laplacians without ||a(t)||_E, each from a fresh spectrum
    halves = (_laplacian_from_raw(np.fft.fftn(a), g, 0.5) for a in amps)
    z2 = assemble(family, halves, t, eps)
    rem = resonant_remainder(family, amps, eps, spec, u_app)
    rhs = eps**2 * z2 + eps * spec.coupling * rem

    err = sum(_norms_in_place(np.subtract(lhs, rhs, out=lhs), g))
    rhs_norm = sum(_norms_in_place(rhs, g))
    return err / rhs_norm if rhs_norm > 0 else (0.0 if err == 0 else math.inf)
