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
stack of them.  `convolve_direct` is the independent quadrature oracle
(direct summation, never an FFT).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Field, Grid, TWO_PI

SPHERE_SURFACE = {1: 2.0, 2: TWO_PI, 3: 2 * TWO_PI}

DIRECT_COST_GUARD = 2**16  # quadratic-cost cap on total points for the oracle
_NEAR_CELL_RADIUS = 4  # cells around the singularity given exact/refined masses
_CELL_NODES = 16  # Gauss-Legendre nodes of the 2-D singular cell's angle integral
_legendre_rule = functools.lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


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


def multiplier_grid(spec: KernelSpec, grid: Grid) -> np.ndarray:
    """Khat sampled on the dual lattice with the regularized zero mode.

    Memoized per (spec, grid): every caller shares one read-only array.
    """
    if grid.d != spec.d:
        raise ValueError(f"kernel is {spec.d}D but grid is {grid.d}D")
    return _multiplier_grid(spec, grid)


@functools.lru_cache(maxsize=4)
def _multiplier_grid(spec: KernelSpec, grid: Grid) -> np.ndarray:
    mag = np.sqrt(grid.freq_norm_sq())
    out = np.empty(grid.shape)
    nz = mag > 0
    out[nz] = spec.c_const * mag[nz] ** (spec.gamma - spec.d)
    out[~nz] = zero_mode_value(spec, grid)
    out.setflags(write=False)
    return out


def half_multiplier(spec: KernelSpec, grid: Grid, scale: float = 1.0) -> np.ndarray:
    """scale (2pi)^{d/2} Khat on the half spectrum of a real transform."""
    khat = multiplier_grid(spec, grid)[..., : grid.points // 2 + 1]
    return (scale * TWO_PI ** (grid.d / 2)) * khat


def convolve(khat_half: np.ndarray, rho: np.ndarray, out=None, spectrum=None) -> np.ndarray:
    """K * rho of a real density (or stack) by one real transform pair over the axes
    of khat_half (`half_multiplier`, scaled), via `spectrum` into `out` if given;
    the inverse's complex passes run in place (numpy's irfftn allocates them)."""
    axes = tuple(range(-khat_half.ndim, 0))
    rho_hat = np.fft.rfftn(rho, axes=axes, out=spectrum)
    rho_hat *= khat_half
    for ax in axes[:-1]:
        np.fft.ifft(rho_hat, axis=ax, out=rho_hat)
    return np.fft.irfftn(rho_hat, rho.shape[-1:], axes[-1:], out=out)


# ---------------------------------------------------------------------------
# direct-quadrature oracle


def _cell_mass_1d(z: np.ndarray, dx: float, gamma: float) -> np.ndarray:
    """Exact integral of |u|**-gamma over every cell [z-dx/2, z+dx/2]."""
    antideriv = lambda u: np.sign(u) * np.abs(u) ** (1 - gamma) / (1 - gamma)
    return antideriv(z + dx / 2) - antideriv(z - dx / 2)


def _singular_cell_mass(d: int, gamma: float, dx: float) -> float:
    """Integral of |z|**-gamma over the cell containing the origin."""
    if d == 1:
        return 2 * (dx / 2) ** (1 - gamma) / (1 - gamma)
    if d == 2:
        # polar reduction over the square of half-width dx/2: eight smooth wedges
        f = lambda th: (dx / 2 / np.cos(th)) ** (2 - gamma)
        return 8.0 * _gauss_legendre(f, 0.0, math.pi / 4, _CELL_NODES) / (2 - gamma)
    # d == 3: ball of equal volume; the few-percent cell-shape error only
    # moves one quadrature weight and is far below the oracle tolerances
    # used at d = 3 resolutions.
    radius = dx * (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
    return 4.0 * math.pi * radius ** (3 - gamma) / (3 - gamma)


def _gauss_cell_mass(z_cell: np.ndarray, dx: float, gamma: float) -> float:
    """Gauss-Legendre integral of |z|**-gamma over one off-origin cell."""
    nodes, weights = _legendre_rule(8)
    half = dx / 2
    d = len(z_cell)
    grids = np.meshgrid(*[z + half * nodes for z in z_cell], indexing="ij")
    wts = np.meshgrid(*[half * weights] * d, indexing="ij")
    r = np.sqrt(sum(g**2 for g in grids))
    w = functools.reduce(np.multiply, wts)
    return float(np.sum(w * r ** (-gamma)))


def _direct_weights(spec: KernelSpec, grid: Grid, images: int) -> np.ndarray:
    """Quadrature weights: integral of the periodized kernel per cell.

    Nearest-image cells carry exact (1D) or refined (2D/3D near the
    singularity) kernel masses; far cells and all image shells use the
    midpoint value times the cell volume, which is accurate because the
    kernel is smooth there.
    """
    n = grid.points
    offs = ((np.arange(n) + n // 2) % n) - n // 2
    z_axes = [offs * grid.dx] * grid.d

    if grid.d == 1:
        z = z_axes[0]
        w = _cell_mass_1d(z, grid.dx, spec.gamma)
        for m in range(1, images + 1):
            w = w + grid.dx * (
                np.abs(z + m * grid.length) ** (-spec.gamma)
                + np.abs(z - m * grid.length) ** (-spec.gamma)
            )
        return w + grid.dx * _image_tail_curvature(spec, grid, images, z**2)

    meshes = np.meshgrid(*z_axes, indexing="ij")
    r = np.sqrt(sum(m**2 for m in meshes))
    w = np.zeros(grid.shape)
    nz = r > 0
    w[nz] = grid.dx**grid.d * r[nz] ** (-spec.gamma)
    # refined masses near the singularity
    near = _NEAR_CELL_RADIUS
    for idx in np.ndindex(*(2 * near + 1,) * grid.d):
        cell = tuple(i - near for i in idx)
        z_cell = np.array([c * grid.dx for c in cell])
        pos = tuple(c % grid.points for c in cell)
        if all(c == 0 for c in cell):
            w[pos] = _singular_cell_mass(grid.d, spec.gamma, grid.dx)
        else:
            w[pos] = _gauss_cell_mass(z_cell, grid.dx, spec.gamma)
    # image shells (smooth; midpoint rule)
    for shell in np.ndindex(*(2 * images + 1,) * grid.d):
        vec = tuple(s - images for s in shell)
        if all(v == 0 for v in vec):
            continue
        shifted = sum(
            (m + v * grid.length) ** 2 for m, v in zip(meshes, vec)
        )
        w = w + grid.dx**grid.d * shifted ** (-spec.gamma / 2)
    z_sq = sum(m**2 for m in meshes)
    return w + grid.dx**grid.d * _image_tail_curvature(spec, grid, images, z_sq)


def _image_tail_curvature(
    spec: KernelSpec, grid: Grid, images: int, z_sq: np.ndarray
) -> np.ndarray:
    """Quadratic-in-z part of the discarded image sum.

    The truncated images beyond the shell M contribute, per unit cell,
    approximately L**-d * integral_{|u| > R} K(u + z) du with
    R = (M + 1/2) L.  Odd terms cancel by lattice symmetry and the
    constant is absorbed by the DC alignment, leaving the curvature
    (|z|^2 / (2 d L^d)) * integral_{r > R} Lap K, which closes in d = 1
    and d = 2.  In d = 3 that integral diverges for gamma <= 1, so no
    correction is applied and the oracle is simply coarser there.
    """
    radius = (images + 0.5) * grid.length
    g = spec.gamma
    if grid.d == 1:
        return z_sq * g * radius ** (-g - 1) / grid.length
    if grid.d == 2:
        return z_sq / (4 * grid.length**2) * TWO_PI * g * radius ** (-g)
    return np.zeros_like(z_sq)


def convolve_direct(spec: KernelSpec, rho: Field, images: int = None) -> Field:
    """Direct-summation quadrature of the periodic convolution K * rho.

    This is the oracle route: no FFT anywhere.  The kernel is periodized
    by explicit image summation; because the raw image sum diverges in
    its mean for gamma <= 1, the constant (DC) response is pinned to the
    same regularized zero-mode value the spectral route uses, so the two
    routes target one well-defined operator and the comparison exercises
    the multiplier constant and normalization at every nonzero mode.
    """
    g = rho.grid
    if g.d != spec.d:
        raise ValueError(f"kernel is {spec.d}D but grid is {g.d}D")
    if g.total_points > DIRECT_COST_GUARD:
        raise ValueError(
            f"direct convolution refused: {g.total_points} points exceeds "
            f"the quadratic-cost guard {DIRECT_COST_GUARD}"
        )
    if images is None:
        images = {1: 64, 2: 8, 3: 4}[g.d]

    w = _direct_weights(spec, g, images)
    vals = rho.values

    if g.d == 1:
        n = g.points
        w_lin = np.fft.fftshift(w)  # index p <-> displacement (p - N/2) dx
        tiled = np.concatenate([vals, vals, vals])
        full = np.convolve(w_lin, tiled)
        out = full[3 * n // 2 : 3 * n // 2 + n]
    else:
        out = np.zeros(g.shape, dtype=np.complex128)
        for idx in np.ndindex(*g.shape):
            wt = w[idx]
            out = out + wt * np.roll(vals, shift=idx, axis=tuple(range(g.d)))

    dc_target = TWO_PI ** (g.d / 2) * zero_mode_value(spec, g)
    out = out + (dc_target - w.sum()) * vals.mean()
    return Field._adopt(g, out)
