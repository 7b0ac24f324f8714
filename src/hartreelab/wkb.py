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
densities, so Theta_j is real by construction; `action_phase_quadrature`
is the independent composite-Simpson oracle over the time variable.
Exponentials are plane waves built separably by `grid.plane_wave`, and
the amplitude phase exp(i Theta_j) is one `grid.unit_phase`.  A
snapshot of M modes costs M r2c + M c2r + 2 M c2c FFTs (shared density
spectra, one inverse per phase, a pair per translated amplitude) and
keeps no phase.  `with_shared_terms` adds 2 M more for its eps-free
terms (one transform per amplitude serves its graded norm and
half-Laplacian); a record per eps then transforms no amplitude.

Expansion bookkeeping: after the eikonal and transport cancellations,
plugging the ansatz into the equation leaves exactly

    eps^2 Z2 + eps lambda r,
    Z2 = (1/2) sum_j (Lap a_j) exp(i phi_j / eps),
    r  = -(K * B) u_app,   B = sum_{k != l} a_k conj(a_l)
                                exp(i (phi_k - phi_l) / eps),

which `z2_term`, `resonant_remainder` and `ansatz_residual` expose.  The
cross density B is what the averaged density rho = sum_j |a_j|^2 leaves
of |u_app|^2, so B = |u_app|^2 - sum_j |a_j|^2.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations

import numpy as np
import scipy.fft

from .grid import (
    Field,
    GaussianProfile,
    Grid,
    _laplacian_from_raw,
    laplacian,
    plane_wave,
    profile_bandwidth,
    profile_support_radius,
    sample_profile,
    translate,
    unit_phase,
)
from .kernel import KernelSpec, _convolve_real, _half_multiplier
from .norms import YNormSpec, _graded_norm, l2w_norm

CONTAINMENT_MARGIN = 0.1  # fraction of L kept clear at the box edge
RESOLUTION_FACTOR = 1.5
DECAY_THRESHOLD = 1e-12


class ContainmentError(ValueError):
    """A translated amplitude support would touch the box margin."""


class ResolutionError(ValueError):
    """The lattice cannot carry the oscillation for the requested eps."""


@dataclass(frozen=True, eq=False)
class Mode:
    """One plane-wave channel: wavevector plus initial amplitude."""

    kappa: np.ndarray
    alpha: Field
    profile: object = None
    support_radius: float = field(init=False)
    bandwidth: float = field(init=False)

    def __post_init__(self):
        kappa = np.asarray(self.kappa, dtype=float).reshape(-1).copy()
        kappa.setflags(write=False)
        object.__setattr__(self, "kappa", kappa)
        grid = self.alpha.grid
        if kappa.shape != (grid.d,):
            raise ValueError(
                f"kappa has {kappa.shape[0]} components but the grid is {grid.d}D"
            )
        if isinstance(self.profile, GaussianProfile):
            center = max(abs(c) for c in self.profile.center)
            radius = center + self.profile.support_radius()
            bw = self.profile.bandwidth()
        else:
            radius = profile_support_radius(grid, self.alpha, DECAY_THRESHOLD)
            bw = profile_bandwidth(grid, self.alpha, DECAY_THRESHOLD)
        object.__setattr__(self, "support_radius", float(radius))
        object.__setattr__(self, "bandwidth", float(bw))


@dataclass(frozen=True, eq=False)
class ModeFamily:
    """Finite family of separated modes with its norm grading.

    delta is the minimal pairwise wavevector distance; the construction
    requires it strictly positive, and the remainder constant scales
    like delta**(gamma - d).
    """

    grid: Grid
    modes: tuple
    nspec: YNormSpec
    delta: float = field(init=False)

    def __post_init__(self):
        if not self.modes:
            raise ValueError("mode family must contain at least one mode")
        modes = tuple(self.modes)
        object.__setattr__(self, "modes", modes)
        for m in modes:
            if m.alpha.grid != self.grid:
                raise ValueError("all amplitudes must live on the family grid")
        delta = min(
            (float(np.linalg.norm(a.kappa - b.kappa)) for a, b in combinations(modes, 2)),
            default=math.inf,
        )
        if delta <= 0:
            raise ValueError("mode wavevectors must be pairwise distinct (delta > 0)")
        object.__setattr__(self, "delta", delta)
        self._check_decay()

    def _check_decay(self):
        g = self.grid
        edge = g.length / 2 - CONTAINMENT_MARGIN * g.length
        band = np.broadcast_to(
            reduce(np.logical_or, (np.abs(ax) >= edge for ax in g.coords())), g.shape
        )
        for m in self.modes:
            mag = np.abs(m.alpha.values)
            if mag[band].max() > DECAY_THRESHOLD * max(mag.max(), 1.0):
                raise ValueError(
                    "an initial amplitude does not decay below 1e-12 inside "
                    "the containment margin of the box"
                )

    @property
    def kappa_max(self) -> float:
        return max(float(np.linalg.norm(m.kappa)) for m in self.modes)

    @property
    def bandwidth_max(self) -> float:
        return max(m.bandwidth for m in self.modes)

    @classmethod
    def from_profiles(cls, grid: Grid, entries, gamma: float) -> "ModeFamily":
        """Build from (kappa, profile) pairs, sampling each amplitude."""
        modes = []
        for kappa, profile in entries:
            alpha = sample_profile(grid, profile)
            modes.append(
                Mode(kappa=np.asarray(kappa, dtype=float), alpha=alpha, profile=profile)
            )
        return cls(
            grid=grid, modes=tuple(modes), nspec=YNormSpec(d=grid.d, gamma=gamma)
        )


@dataclass(frozen=True, eq=False)
class WkbSnapshot:
    """Amplitudes a_j(t) at one time, plus the eps-free (1/2) Lap a_j and
    ||a(t)||_E once `with_shared_terms` ran."""

    t: float
    amplitudes: tuple
    half_laplacians: tuple = None
    e_norm: float = None


@dataclass(frozen=True, eq=False)
class AnsatzReport:
    residual: Field
    identity_error: float


def check_containment(family: ModeFamily, t: float):
    """Every translated support must stay 10% of L clear of the edge."""
    g = family.grid
    limit = g.length / 2 - CONTAINMENT_MARGIN * g.length
    reach = family.kappa_max * abs(t)
    for m in family.modes:
        if m.support_radius + reach > limit:
            raise ContainmentError(
                f"translated support radius {m.support_radius + reach:.3g} "
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


def eikonal_phase(kappa, t: float, grid: Grid) -> Field:
    """phi(t, x) = kappa . x - t |kappa|^2 / 2, sampled on the grid."""
    kappa = np.asarray(kappa, dtype=float).reshape(-1)
    if kappa.shape != (grid.d,):
        raise ValueError(f"kappa must have {grid.d} components")
    phase = sum((kc * ax for ax, kc in zip(grid.coords(), kappa)), np.zeros(grid.shape))
    return Field._adopt(grid, phase - 0.5 * t * float(kappa @ kappa))


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
    return [scipy.fft.rfftn(np.abs(m.alpha.values) ** 2) for m in family.modes]


def action_phase(
    family: ModeFamily, j: int, t: float, spec: KernelSpec, spectra: list = None
) -> Field:
    """Accumulated Hartree phase Theta_j = lambda S_j via the closed form;
    `snapshot` passes the density spectra its M phases share."""
    g = family.grid
    if not 0 <= j < len(family.modes):
        raise IndexError(f"mode index {j} out of range")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    check_containment(family, t)
    if t == 0.0 or spec.coupling == 0.0:
        return Field._adopt(g, np.zeros(g.shape))

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
    acc *= _half_multiplier(spec, g, -spec.coupling)
    return Field._adopt(g, scipy.fft.irfftn(acc, s=g.shape, overwrite_x=True))


def _translated_density(family: ModeFamily, j: int, tau: float, t: float) -> np.ndarray:
    """sum_l rho_l displaced by (t - tau) kappa_j + tau kappa_l.

    Gaussian profiles are resampled analytically, which keeps this
    oracle independent of the spectral translation machinery; table
    profiles fall back to spectral translation.
    """
    g = family.grid
    kappa_j = family.modes[j].kappa
    total = np.zeros(g.shape)
    for mode in family.modes:
        shift = (t - tau) * kappa_j + tau * mode.kappa
        if isinstance(mode.profile, GaussianProfile):
            p = mode.profile
            r2 = sum((ax - c - s) ** 2 for ax, c, s in zip(g.coords(), p.center, shift))
            total = total + abs(p.amplitude) ** 2 * np.exp(-r2 / p.width**2)
        else:
            moved = translate(Field._adopt(g, np.abs(mode.alpha.values) ** 2), shift)
            total = total + moved.values.real
    return total


def action_phase_quadrature(
    family: ModeFamily, j: int, t: float, spec: KernelSpec, nodes: int = 64
) -> Field:
    """Composite-Simpson oracle for the accumulated phase."""
    g = family.grid
    if nodes < 8 or nodes % 2:
        raise ValueError(f"nodes must be even and at least 8, got {nodes}")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    check_containment(family, t)
    if t == 0.0 or spec.coupling == 0.0:
        return Field._adopt(g, np.zeros(g.shape))

    khat_half = _half_multiplier(spec, g)
    taus = np.linspace(0.0, t, nodes + 1)
    weights = np.ones(nodes + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (t / nodes) / 3.0

    total = np.zeros(g.shape)
    for tau, w in zip(taus, weights):
        dens = _translated_density(family, j, float(tau), t)
        total = total + w * _convolve_real(khat_half, dens)
    return Field._adopt(g, -spec.coupling * total)


def snapshot(family: ModeFamily, t: float, spec: KernelSpec) -> WkbSnapshot:
    """Transported amplitudes at time t; modulus is pure translation.

    The M `action_phase` calls share one set of density spectra (M real
    FFTs); each phase is dropped once its amplitude is built.
    """
    check_containment(family, t)
    spectra = _density_spectra(family) if t > 0 and spec.coupling != 0.0 else None
    amps = []
    for j, mode in enumerate(family.modes):
        amp = unit_phase(action_phase(family, j, t, spec, spectra).values.real)
        amp *= translate(mode.alpha, t * mode.kappa).values
        amps.append(Field._adopt(family.grid, amp))
    return WkbSnapshot(t=t, amplitudes=tuple(amps))


def with_shared_terms(family: ModeFamily, snap: WkbSnapshot) -> WkbSnapshot:
    """snap with its half-Laplacians and ||a(t)||_E: one forward transform
    per amplitude serves its graded norm and its Laplacian (2 M FFTs)."""
    halves, total = [], 0.0
    for amp in snap.amplitudes:
        raw = scipy.fft.fftn(amp.values)
        total += _graded_norm(raw, family.grid, family.nspec)
        halves.append(0.5 * _laplacian_from_raw(raw, family.grid))
    return dataclasses.replace(snap, half_laplacians=tuple(halves), e_norm=total)


def _mode_carrier(grid: Grid, kappa: np.ndarray, t: float, eps: float) -> np.ndarray:
    """exp(i phi / eps) with phi = kappa . x - t |kappa|^2 / 2, broadcastable."""
    offset = -0.5 * t * float(kappa @ kappa) / eps
    return plane_wave(grid.coords(), kappa, 1.0 / eps, offset)


def _superpose(family: ModeFamily, values, t: float, eps: float) -> np.ndarray:
    """sum_j values_j exp(i phi_j(t) / eps), one value array per mode."""
    out = np.zeros(family.grid.shape, dtype=np.complex128)
    for mode, v in zip(family.modes, values):
        out += v * _mode_carrier(family.grid, mode.kappa, t, eps)
    return out


def initial_data(family: ModeFamily, eps: float) -> Field:
    """Superposition of eps-oscillatory plane waves: the shared initial state."""
    check_resolution(family, eps)
    alphas = (mode.alpha.values for mode in family.modes)
    return Field._adopt(family.grid, _superpose(family, alphas, 0.0, eps))


def assemble(family: ModeFamily, snap: WkbSnapshot, eps: float) -> Field:
    """u_app(t) = sum_j a_j exp(i phi_j / eps) at the snapshot's time."""
    check_resolution(family, eps)
    amps = (amp.values for amp in snap.amplitudes)
    return Field._adopt(family.grid, _superpose(family, amps, snap.t, eps))


def z2_term(family: ModeFamily, snap: WkbSnapshot, eps: float) -> Field:
    """Z2 = (1/2) sum_j (Lap a_j) exp(i phi_j / eps) from the half-Laplacians
    of a `with_shared_terms` snapshot."""
    if snap.half_laplacians is None:
        raise ValueError(
            "z2_term needs the half-Laplacians of a snapshot passed through "
            "with_shared_terms"
        )
    check_resolution(family, eps)
    return Field._adopt(family.grid, _superpose(family, snap.half_laplacians, snap.t, eps))


def resonant_remainder(
    family: ModeFamily, snap: WkbSnapshot, eps: float, spec: KernelSpec, u_app: Field
) -> Field:
    """Cross-mode term r = -(K * B) u_app of a record, zero for a single mode.

    The diagonal terms of |u_app|^2 are the averaged density
    sum_j |a_j|^2, so the cross density is read off the assembled field:
    B = |u_app|^2 - sum_j |a_j|^2.
    """
    g = family.grid
    if len(family.modes) == 1:
        return Field._adopt(g, np.zeros(g.shape))
    check_resolution(family, eps, for_remainder=True)
    cross = np.abs(u_app.values) ** 2
    for amp in snap.amplitudes:
        cross -= np.abs(amp.values) ** 2
    conv = _convolve_real(_half_multiplier(spec, g), cross)
    return Field._adopt(g, -conv * u_app.values)


def _transport_rates(family: ModeFamily, snap: WkbSnapshot, spec: KernelSpec) -> list:
    """dt a_j by the transport law: -kappa_j . grad a_j - i lambda (K * rho) a_j,
    rho = sum_l |a_l|^2, with the drift applied as one i kappa_j . xi multiplier."""
    g = family.grid
    rho = sum(np.abs(amp.values) ** 2 for amp in snap.amplitudes)
    potential = _convolve_real(_half_multiplier(spec, g, spec.coupling), rho)
    meshes = g.freq_meshes(zero_nyquist=True)
    rates = []
    for mode, amp in zip(family.modes, snap.amplitudes):
        drift = sum(1j * k * m for k, m in zip(mode.kappa, meshes))
        advect = scipy.fft.ifftn(scipy.fft.fftn(amp.values) * drift)
        rates.append(-advect - 1j * potential * amp.values)
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
        ends = zip(snapshot(family, hi, spec).amplitudes, snapshot(family, lo, spec).amplitudes)
        return [(p.values - m.values) / (hi - lo) for p, m in ends]

    snap_mid = snapshot(family, t, spec)
    rates = _transport_rates(family, snap_mid, spec)
    out = []
    for mid, coarse, fine, rate in zip(snap_mid.amplitudes, slope(h), slope(h / 2), rates):
        resid = (4 * fine - coarse) / 3 - rate
        scale = np.max(np.abs(mid.values))
        out.append(float(np.max(np.abs(resid)) / scale) if scale > 0 else 0.0)
    return out


def ansatz_residual(
    family: ModeFamily, t: float, eps: float, spec: KernelSpec
) -> AnsatzReport:
    """Check the expansion identity

        i eps dt u_app + (eps^2/2) Lap u_app - eps lambda (K*|u_app|^2) u_app
            = eps^2 Z2 + eps lambda r.

    The time derivative of each amplitude is supplied by the transport
    law; the Laplacian of the assembled field and the full nonlinearity
    are evaluated spectrally on the oscillatory field itself, so the
    identity genuinely tests the eikonal and transport cancellations.
    """
    check_resolution(family, eps, for_remainder=True)
    snap = with_shared_terms(family, snapshot(family, t, spec))
    g = family.grid
    u_app = assemble(family, snap, eps)

    rates = _transport_rates(family, snap, spec)
    # d/dt (a_j exp(i phi_j / eps)) = (dt a_j - i |kappa_j|^2 / (2 eps) a_j) exp(...)
    wave_rates = (
        dadt - 0.5j * float(mode.kappa @ mode.kappa) / eps * amp.values
        for mode, amp, dadt in zip(family.modes, snap.amplitudes, rates)
    )
    dudt = _superpose(family, wave_rates, t, eps)

    khat_half = _half_multiplier(spec, g, spec.coupling)
    nonlinear = _convolve_real(khat_half, np.abs(u_app.values) ** 2) * u_app.values
    lhs = 1j * eps * dudt + 0.5 * eps**2 * laplacian(u_app).values - eps * nonlinear

    z2 = z2_term(family, snap, eps)
    rem = resonant_remainder(family, snap, eps, spec, u_app)
    rhs = eps**2 * z2.values + eps * spec.coupling * rem.values

    residual = Field._adopt(g, lhs - rhs)
    rhs_norm = l2w_norm(Field._adopt(g, rhs))
    err = l2w_norm(residual) / rhs_norm if rhs_norm > 0 else (
        0.0 if l2w_norm(residual) == 0 else math.inf
    )
    return AnsatzReport(residual=residual, identity_error=err)
