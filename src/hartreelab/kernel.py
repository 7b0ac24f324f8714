"""The power-law interaction kernel K(x) = |x|**(-gamma).

Under the unitary transform convention the kernel's multiplier is

    Khat(xi) = C(d, gamma) * |xi|**(gamma - d),
    C(d, gamma) = 2**(d/2 - gamma) * Gamma((d - gamma)/2) / Gamma(gamma/2),

valid for 0 < gamma < d.  The Gamma-function form of the constant is a
derivation, not a copied table value, so `hartree_constant_oracle`
recomputes it from the Gaussian pairing identity

    integral K(x) g_hat(x) dx = C * integral |xi|**(gamma-d) g(xi) dxi

as a ratio of two radial moments, each the exact series of its head on
[0, 1] plus a Gauss-Legendre tail, with no use of the Gamma function;
the validation suite aborts on mismatch.

The undefined multiplier at xi = 0 is replaced by the average of Khat
over the ball of radius dxi/2, which is finite because the singularity
is integrable and consistent as dxi -> 0:

    Khat(0) := C * (d/gamma) * (dxi/2)**(gamma - d).

Every spectral K * rho takes one route: `convolve` applies the
half-spectrum multiplier of `half_multiplier` to a real density or a
stack of them, in place, through a half spectrum the caller may place
anywhere, the density's own buffer included (the sweep's remainder).
`action_phase` takes the inverse half of the same passes.  The independent
quadrature oracle (direct summation, never an FFT), `convolve_direct`,
lives with the tests, in `tests/oracles.py`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, TWO_PI

SPHERE_SURFACE = {1: 2.0, 2: TWO_PI, 3: 2 * TWO_PI}


@functools.lru_cache(maxsize=None)
def _legendre_rule(nodes: int) -> tuple:
    """Gauss-Legendre rule on [-1, 1]; `numpy.polynomial` loads on first use."""
    return np.polynomial.legendre.leggauss(nodes)


def _check_exponent(d: int, gamma: float):
    if d not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {d}")
    if not 0 < gamma < d:
        raise ValueError(
            f"gamma must lie in (0, d) = (0, {d}) (gamma constraint), got {gamma}"
        )


def hartree_constant(d: int, gamma: float) -> float:
    """C(d, gamma) making F(|x|**-gamma) = C |xi|**(gamma-d)."""
    _check_exponent(d, gamma)
    return 2 ** (d / 2 - gamma) * math.gamma((d - gamma) / 2) / math.gamma(gamma / 2)


def hartree_constant_oracle(d: int, gamma: float) -> float:
    """Gaussian-pairing quadrature estimate of C(d, gamma).

    Pairing K with the self-dual Gaussian exp(-r**2/2) and passing to
    radial coordinates reduces both sides to radial moments
    M(s) = integral_0^inf r**(s-1) exp(-r^2/2) dr:

        C = M(d - gamma) / M(gamma).

    On [0, 1] the exponential series integrates term by term to
    sum_k (-1/2)**k / (k! (s + 2k)), exact at the algebraic singularity
    (30 terms; the last is below 1e-40).  On [1, 12] the integrand is
    smooth and 32-node Gauss-Legendre takes it; the integral past 12 is
    below 1e-30.  Neither piece uses the Gamma function.
    """
    _check_exponent(d, gamma)

    def moment(s: float) -> float:
        head = math.fsum((-0.5) ** k / (math.factorial(k) * (s + 2 * k))
                         for k in range(30))
        tail = _gauss_legendre(lambda r: r ** (s - 1) * np.exp(-r * r / 2), 1.0, 12.0, 32)
        return head + tail

    return moment(d - gamma) / moment(gamma)


def _gauss_legendre(f, lo: float, hi: float, nodes: int) -> float:
    """Gauss-Legendre rule with `nodes` points for a vectorised f on [lo, hi]."""
    x, w = _legendre_rule(nodes)
    half = (hi - lo) / 2
    return half * float(np.dot(w, f(lo + half * (x + 1))))


@dataclass(frozen=True)
class KernelSpec:
    """Kernel parameters: dimension, exponent and coupling, with the
    multiplier constant c_const = hartree_constant(d, gamma) derived."""

    d: int
    gamma: float
    coupling: float = 1.0
    c_const: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "c_const", hartree_constant(self.d, self.gamma))


def zero_mode_value(spec: KernelSpec, grid: Grid) -> float:
    """Average of Khat over the ball |xi| <= dxi/2 (regularized zero mode)."""
    return spec.c_const * (spec.d / spec.gamma) * (grid.dxi / 2) ** (spec.gamma - spec.d)


def split_norms(spec: KernelSpec) -> tuple:
    """(||K1||_L1, ||K2||_Linf) for the unit-ball / complement split of Khat.

    The L1 piece is the closed-form radial integral
    C * sigma_{d-1} / gamma; the sup of the outer piece is C, attained as
    |xi| -> 1+.
    """
    k1_l1 = spec.c_const * SPHERE_SURFACE[spec.d] / spec.gamma
    k2_sup = spec.c_const
    return k1_l1, k2_sup


def _khat(spec: KernelSpec, grid: Grid, meshes) -> np.ndarray:
    """Khat at the broadcast frequency `meshes`, with the regularized zero mode."""
    mag = np.sqrt(functools.reduce(np.add, (m**2 for m in meshes)))
    out = np.empty(mag.shape)
    nz = mag > 0
    out[nz] = spec.c_const * mag[nz] ** (spec.gamma - spec.d)
    out[~nz] = zero_mode_value(spec, grid)
    return out


def half_multiplier(spec: KernelSpec, grid: Grid, scale: float = 1.0) -> np.ndarray:
    """scale (2pi)^{d/2} Khat on the half spectrum of a real transform, one
    read-only array per (spec, grid, scale): with lambda = 1 the sweep's
    remainder reads the stepper's."""
    if grid.d != spec.d:
        raise ValueError(f"kernel is {spec.d}D but grid is {grid.d}D")
    return _scaled_half_khat(spec, grid, float(scale))


@functools.lru_cache(maxsize=4)
def _scaled_half_khat(spec: KernelSpec, grid: Grid, scale: float) -> np.ndarray:
    """Khat on the half spectrum [..., :N/2 + 1], scaled as `half_multiplier` says."""
    *lead, last = grid.freq_meshes()
    # Khat stays a temporary, so numpy writes the product into its buffer
    out = (scale * TWO_PI ** (grid.d / 2)) * _khat(
        spec, grid, (*lead, last[..., : grid.points // 2 + 1]))
    out.setflags(write=False)
    return out


def convolve(khat_half: np.ndarray, rho: np.ndarray, spectrum=None) -> np.ndarray:
    """K * rho of a real density (or stack) over the axes of khat_half
    (`half_multiplier`, scaled), written over rho (returned): numpy's
    rfftn / irfftn bit for bit, via `spectrum` if given.  The last-axis
    real passes run over blocks of half the rows, ascending, then
    descending, which keeps each block's input and output apart when
    `spectrum` lies in rho's own buffer.  A rho that is no view of rows
    raises ValueError.
    """
    n = rho.shape[-1]
    rows = rho.reshape(-1, n, copy=False)
    if spectrum is None:
        spectrum = np.empty((*rho.shape[:-1], n // 2 + 1), dtype=np.complex128)
    half = spectrum.reshape(len(rows), -1, copy=False)
    for block in _row_blocks(len(rows)):
        np.fft.rfft(rows[block], axis=-1, out=half[block])
    leading = range(rho.ndim - khat_half.ndim, rho.ndim - 1)
    for ax in reversed(leading):
        np.fft.fft(spectrum, axis=ax, out=spectrum)
    spectrum *= khat_half
    return _inverse_into(spectrum, rho, leading)


def _row_blocks(rows: int) -> list:
    block = max(1, rows // 2)  # a single row numpy transforms from a copy
    return [slice(lo, lo + block) for lo in range(0, rows, block)]


def _inverse_into(spectrum: np.ndarray, out: np.ndarray, leading) -> np.ndarray:
    """numpy's irfftn of the half `spectrum` into `out` (returned), bit for
    bit: the complex passes over the `leading` axes in place over spectrum,
    then the last axis over blocks of rows, descending."""
    for ax in leading:
        np.fft.ifft(spectrum, axis=ax, out=spectrum)
    rows = out.reshape(-1, out.shape[-1], copy=False)
    half = spectrum.reshape(len(rows), -1, copy=False)
    for block in reversed(_row_blocks(len(rows))):
        np.fft.irfft(half[block], rows.shape[-1], axis=-1, out=rows[block])
    return out
