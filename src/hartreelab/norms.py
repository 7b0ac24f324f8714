"""Discrete L2, Wiener, combined and derivative-graded norms.

All norms are Riemann sums under the transform convention fixed in
`grid`, so they converge to their continuum counterparts as the box and
resolution grow.  They read raw `numpy.fft` spectra: `_wiener_from_modulus`
applies the convention's scale to their moduli, and an L2 norm taken
from a spectrum follows Parseval.  The combined norm is the sum

    ||f||_{L2 cap W} = ||f||_{L2} + ||f||_W,

which is the quantity the two-space estimates actually manipulate.
The L2 and Wiener norms of one field take its moduli in chunk scratch,
bitwise the whole-array sums (`_modulus_sum`).

Two inequality checkers make the function-space estimates testable:
the pointwise-product bound on Wiener norms and the convolution bound
assembled from the kernel split.  Both check stacks with a leading
batch axis row by row.  The product bound takes its factors' norms from
their random draw, which reads them off the band and checks there the
anti-aliasing precondition that keeps the discrete product exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .grid import CHUNK, TWO_PI, Field
from .kernel import KernelSpec, half_multiplier, split_norms


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
    """Graded-norm parameters; the derivative order n is derived."""

    d: int
    gamma: float
    n: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", derivative_order(self.d, self.gamma))


def _modulus_sum(values: np.ndarray, power: int) -> float:
    """sum |values|**power (power 1 or 2), the moduli formed per CHUNK
    slice in chunk scratch.  numpy sums 2^k > 128 contiguous float64 terms
    in memory order as the sum of their two halves; a field's point count
    is a power of two, so each slice is a subtree of that recursion, and
    adding neighbouring slice sums level by level rebuilds the levels
    above: bitwise `np.sum` of the full moduli array."""
    flat = values.ravel(order="K")  # memory order: a view of a contiguous field
    parts = [flat[lo:lo + CHUNK] for lo in range(0, flat.size, CHUNK)]
    mag = np.empty(parts[0].size)
    sums = np.empty(len(parts))
    for i, part in enumerate(parts):
        m = np.abs(part, out=mag[:part.size])
        sums[i] = np.sum(np.square(m, out=m) if power == 2 else m)
    while sums.size > 1:
        sums = sums[0::2] + sums[1::2]
    return sums[0]


def _l2(values: np.ndarray, grid) -> float:
    """L2 norm of the field with samples `values`."""
    return float(np.sqrt(grid.dx**grid.d * _modulus_sum(values, 2)))


def _wiener(raw: np.ndarray, grid) -> float:
    """Wiener norm of the field whose raw FFT is `raw`: dxi^d sum |fhat|;
    the phase factors have modulus one, so the raw FFT moduli suffice."""
    return float(_wiener_scale(grid) * _modulus_sum(raw, 1))


def l2_norm(f: Field) -> float:
    return _l2(f.values, f.grid)


def wiener_norm(f: Field) -> float:
    return _wiener(np.fft.fftn(f.values), f.grid)


def l2w_norm(f: Field) -> float:
    return l2_norm(f) + wiener_norm(f)


def multi_indices(d: int, max_order: int) -> list:
    """All multi-indices eta with |eta| <= max_order, lexicographic."""
    etas = itertools.product(range(max_order + 1), repeat=d)
    return [eta for eta in etas if sum(eta) <= max_order]


def _wiener_scale(grid) -> float:
    """The convention's factor from a sum of raw FFT moduli to a Wiener norm."""
    d = grid.d
    return grid.dxi**d * TWO_PI ** (-d / 2) * grid.dx**d


def _wiener_from_modulus(mag: np.ndarray, grid):
    """Wiener norm of each field (row of a stack) whose raw FFT has modulus `mag`."""
    return _wiener_scale(grid) * np.sum(mag, axis=tuple(range(-grid.d, 0)))


def _norms_from_raw_fft(raw: np.ndarray, grid) -> tuple:
    """(l2, wiener) of the physical field whose raw FFT is given."""
    return _norms_from_modulus(np.abs(raw), grid)


def _norms_from_modulus(mag: np.ndarray, grid) -> tuple:
    """(l2, wiener) of the physical field whose raw FFT has modulus `mag`;
    the L2 norm comes from Parseval."""
    flat = mag.reshape(-1)
    # einsum sums in numpy's own loop: a BLAS dot splits a long sum over a
    # thread count the environment sets, and its rounding with it
    l2 = math.sqrt(grid.dx**grid.d * np.einsum("i,i->", flat, flat) / grid.total_points)
    return l2, float(_wiener_from_modulus(mag, grid))


def _graded_norm(raw: np.ndarray, grid, spec: YNormSpec) -> float:
    """Sum of combined norms of the derivatives up to order n of the field
    whose raw FFT is given: d^eta f has the raw spectrum raw (i xi)^eta,
    whose moduli form in one buffer."""
    mag = np.abs(raw)
    xi = [np.abs(m) for m in grid.freq_meshes(zero_nyquist=True)]
    buf = np.empty_like(mag)
    total = 0.0
    for eta in multi_indices(spec.d, spec.n):
        weighted = reduce(lambda w, f: np.multiply(w, f, out=buf),
                          (x**e for x, e in zip(xi, eta) if e), mag)
        total += sum(_norms_from_modulus(weighted, grid))
    return total


@dataclass(frozen=True)
class BoundReport:
    lhs: float
    rhs: float
    holds: bool


def _reports(lhs, rhs, slack: float) -> list:
    return [BoundReport(lhs=float(a), rhs=float(b), holds=bool(a <= b * (1 + slack)))
            for a, b in zip(lhs, rhs)]


def _algebra_bounds(pairs: np.ndarray, w: np.ndarray, grid, slack: float = 1e-10) -> list:
    """||f g||_W <= ||f||_W ||g||_W per row of a stack of factor pairs
    (rows, 2, *shape) with their Wiener norms w (rows, 2).

    Both factors must be band-limited to |k| <= N/4 - 1 so the sampled
    pointwise product carries no aliased content.  The campaign's draw,
    `harness._random_band_limited`, rejects a band above that cutoff and
    reads each factor's norm off the band it drew, so one stacked
    transform serves: the products', formed in place over the first
    factors.
    """
    product = np.multiply(pairs[:, 0], pairs[:, 1], out=pairs[:, 0])
    np.fft.fftn(product, axes=tuple(range(-grid.d, 0)), out=product)
    lhs = _wiener_from_modulus(np.abs(product), grid)
    return _reports(lhs, w[:, 0] * w[:, 1], slack)


def _hartree_bounds(spec: KernelSpec, h: np.ndarray, grid, slack: float = 1e-6) -> list:
    """||K * h||_W <= ||K1||_L1 ||h||_L1 + ||K2||_Linf ||h||_W per row of a
    stack of real densities, from one stacked real transform: K * h has
    the raw spectrum (2pi)^{d/2} Khat hhat.

    A real density's spectrum is conjugate-symmetric, so the half spectrum
    of `rfftn` holds every modulus once, apart from the last axis's
    columns 1 .. N/2 - 1, whose mirror images it omits: the Wiener sums
    count those twice.  Khat > 0 is even, so it scales the half spectrum
    as it does the full one, with no modulus taken.
    """
    k1_l1, k2_sup = split_norms(spec)
    axes = tuple(range(-grid.d, 0))
    mag = np.abs(np.fft.rfftn(h, axes=axes))
    mag[..., 1:grid.points // 2] *= 2
    l1 = grid.dx**grid.d * np.sum(np.abs(h), axis=axes)
    rhs = k1_l1 * l1 + k2_sup * _wiener_from_modulus(mag, grid)
    mag *= half_multiplier(spec, grid)
    return _reports(_wiener_from_modulus(mag, grid), rhs, slack)
