"""Independent references that only the tests call.

`convolve_direct` is the direct-quadrature oracle for the spectral
convolution `hartreelab.kernel.convolve`: direct summation of the
periodized kernel, never an FFT.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from hartreelab.grid import TWO_PI, Field, Grid
from hartreelab.kernel import KernelSpec, _gauss_legendre, _legendre_rule, zero_mode_value

DIRECT_COST_GUARD = 2**16  # quadratic-cost cap on total points for the oracle
_NEAR_CELL_RADIUS = 4  # cells around the singularity given exact/refined masses
_CELL_NODES = 16  # Gauss-Legendre nodes of the 2-D singular cell's angle integral


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
