"""Discrete L2, Wiener, combined, derivative-graded and mode-summed norms.

All norms are Riemann sums under the transform convention fixed in
`grid`, so they converge to their continuum counterparts as the box and
resolution grow.  The combined norm is the sum

    ||f||_{L2 cap W} = ||f||_{L2} + ||f||_W,

which is the quantity the two-space estimates actually manipulate.

Two inequality checkers make the function-space estimates testable:
the pointwise-product bound on Wiener norms (with anti-aliasing
preconditions so the discrete product is exact) and the convolution
bound assembled from the kernel split.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.fft

from .grid import TWO_PI, Field, SpectralField
from .kernel import KernelSpec, multiplier_grid, split_norms


def derivative_order(d: int, gamma: float) -> int:
    """Derivative depth of the graded norm: 2 in low dimension, 3 only
    for d = 3 with gamma below 1."""
    if d in (1, 2):
        return 2
    if d == 3:
        return 3 if gamma < 1.0 else 2
    raise ValueError(f"dimension must be 1, 2 or 3, got {d}")


@dataclass(frozen=True)
class YNormSpec:
    d: int
    gamma: float
    n: int = None

    def __post_init__(self):
        expected = derivative_order(self.d, self.gamma)
        if self.n is None:
            object.__setattr__(self, "n", expected)
        elif self.n != expected:
            raise ValueError(
                f"derivative order n={self.n} contradicts the rule value "
                f"{expected} for d={self.d}, gamma={self.gamma}"
            )


@dataclass(frozen=True)
class NormReport:
    l2: float
    wiener: float
    l2w: float

    def __post_init__(self):
        if any(v < 0 for v in (self.l2, self.wiener, self.l2w)):
            raise ValueError("norms must be nonnegative")


def l2_norm(f: Field) -> float:
    g = f.grid
    return float(np.sqrt(g.dx**g.d * np.sum(np.abs(f.values) ** 2)))


def l1_norm(f: Field) -> float:
    g = f.grid
    return float(g.dx**g.d * np.sum(np.abs(f.values)))


def wiener_norm(f: Field) -> float:
    """dxi^d sum |fhat|; the phase factors have modulus one, so the raw
    FFT moduli suffice."""
    return _wiener_from_modulus(np.abs(scipy.fft.fftn(f.values)), f.grid)


def l2w_norm(f: Field) -> float:
    return l2_norm(f) + wiener_norm(f)


def spectral_l2_norm(F: SpectralField) -> float:
    g = F.grid
    return float(np.sqrt(g.dxi**g.d * np.sum(np.abs(F.coefficients) ** 2)))


def norm_report(f: Field) -> NormReport:
    l2 = l2_norm(f)
    w = wiener_norm(f)
    return NormReport(l2=l2, wiener=w, l2w=l2 + w)


def multi_indices(d: int, max_order: int) -> list:
    """All multi-indices eta with |eta| <= max_order, lexicographic."""
    etas = itertools.product(range(max_order + 1), repeat=d)
    return [eta for eta in etas if sum(eta) <= max_order]


def _wiener_from_modulus(mag: np.ndarray, grid) -> float:
    """Wiener norm of the physical field whose raw FFT has modulus `mag`."""
    d = grid.d
    return grid.dxi**d * TWO_PI ** (-d / 2) * grid.dx**d * float(np.sum(mag))


def _norms_from_raw_fft(raw: np.ndarray, grid) -> tuple:
    """(l2, wiener) of the physical field whose raw FFT (or its modulus)
    is given; the L2 norm comes from Parseval."""
    mag = np.abs(raw)
    l2 = math.sqrt(grid.dx**grid.d * np.sum(mag**2) / grid.total_points)
    return l2, _wiener_from_modulus(mag, grid)


def y_norm(f: Field, spec: YNormSpec) -> float:
    """Sum of combined norms of all derivatives up to order n.

    One transform serves every multi-index: d^eta f has the raw spectrum
    raw (i xi)^eta, whose modulus |raw| |xi|^eta gives both norms.
    """
    g = f.grid
    if g.d != spec.d:
        raise ValueError(f"field is {g.d}D but norm spec is {spec.d}D")
    return _graded_norm(scipy.fft.fftn(f.values), g, spec)


def _graded_norm(raw: np.ndarray, grid, spec: YNormSpec) -> float:
    """`y_norm` of the physical field whose raw FFT is given."""
    mag = np.abs(raw)
    xi = [np.abs(m) for m in grid.freq_meshes(zero_nyquist=True)]
    total = 0.0
    for eta in multi_indices(spec.d, spec.n):
        weighted = reduce(np.multiply, (x**e for x, e in zip(xi, eta) if e), mag)
        total += sum(_norms_from_raw_fft(weighted, grid))
    return total


def e_norm(amplitudes, spec: YNormSpec) -> float:
    """l1-over-modes of the graded norm; empty families have norm zero."""
    return float(sum(y_norm(a, spec) for a in amplitudes))


@dataclass(frozen=True)
class BoundReport:
    lhs: float
    rhs: float
    holds: bool


def _tail_fraction(mag: np.ndarray, grid, cutoff_index: int) -> float:
    """Fraction of the spectral L1 mass |raw| = mag carried by |k| > cutoff
    on some axis."""
    total = mag.sum()
    if total == 0:
        return 0.0
    return float(mag[~grid.band_mask(cutoff_index)].sum() / total)


def check_algebra_bound(f: Field, g: Field, slack: float = 1e-10) -> BoundReport:
    """||f g||_W <= ||f||_W ||g||_W on alias-free pairs.

    Both factors must be band-limited to half the lattice so the sampled
    pointwise product carries no aliased content; pairs violating that
    are rejected rather than silently measured.  Three transforms: one
    per factor, whose modulus serves both its tail check and its Wiener
    norm, and one for the product.
    """
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    grid = f.grid
    cutoff = grid.points // 4 - 1
    rhs = 1.0
    for name, h in (("first", f), ("second", g)):
        mag = np.abs(scipy.fft.fftn(h.values))
        if _tail_fraction(mag, grid, cutoff) > 1e-12:
            raise ValueError(
                f"{name} factor has spectral mass above the anti-aliasing "
                f"cutoff |k| <= {cutoff}; the discrete product would alias"
            )
        rhs *= _wiener_from_modulus(mag, grid)
    product = scipy.fft.fftn(f.values * g.values, overwrite_x=True)
    lhs = _wiener_from_modulus(np.abs(product), grid)
    return BoundReport(lhs=lhs, rhs=rhs, holds=lhs <= rhs * (1 + slack))


def check_hartree_bound(spec: KernelSpec, h: Field, slack: float = 1e-6) -> BoundReport:
    """||K * h||_W <= ||K1||_L1 ||h||_L1 + ||K2||_Linf ||h||_W, from one
    transform: K * h has the raw spectrum (2pi)^{d/2} Khat hhat."""
    k1_l1, k2_sup = split_norms(spec)
    grid = h.grid
    mag = np.abs(scipy.fft.fftn(h.values))
    conv_mag = TWO_PI ** (grid.d / 2) * np.abs(multiplier_grid(spec, grid)) * mag
    lhs = _wiener_from_modulus(conv_mag, grid)
    rhs = k1_l1 * l1_norm(h) + k2_sup * _wiener_from_modulus(mag, grid)
    return BoundReport(lhs=lhs, rhs=rhs, holds=lhs <= rhs * (1 + slack))
