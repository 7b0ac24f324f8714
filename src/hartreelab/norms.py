"""Discrete L2, Wiener, combined and derivative-graded norms.

All norms are Riemann sums under the transform convention fixed in
`grid`, so they converge to their continuum counterparts as the box and
resolution grow.  They read raw `numpy.fft` spectra: `_wiener_scale`
applies the convention's scale to the sum of their moduli.  The combined
norm is the sum

    ||f||_{L2 cap W} = ||f||_{L2} + ||f||_W,

which is the quantity the two-space estimates actually manipulate.

Every L2 and Wiener norm sums in one order, numpy's pairwise `np.sum`
of the moduli and of their squares (`_modulus_sums`, in chunk scratch):
a raw spectrum gives both, L2 by Parseval (`_norms`); samples give L2,
then Wiener from their spectrum (`_norms_in_place`).  The stepping guard
and the graded norm sum the moduli they hold (`_norms_from_modulus`).

Two inequality checkers make the function-space estimates testable:
the pointwise-product bound on Wiener norms and the convolution bound
assembled from the kernel split.  Both return the two sides, lhs and
rhs, per row of a stack with a leading batch axis; the validation
campaigns compare them under their slack.  The product bound takes its
factors' norms from their random draw, which reads them off the band
and checks there the anti-aliasing precondition that keeps the discrete
product exact.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np

from .grid import CHUNK, TWO_PI
from .kernel import KernelSpec, half_multiplier, split_norms


def derivative_order(d: int, gamma: float) -> int:
    """Derivative depth of the graded norm: 2 in low dimension, 3 only
    for d = 3 with gamma below 1."""
    if d in (1, 2):
        return 2
    if d == 3:
        return 3 if gamma < 1.0 else 2
    raise ValueError(f"dimension must be 1, 2 or 3, got {d}")


def _modulus_sums(values: np.ndarray, squares: bool = True, moduli: bool = True) -> tuple:
    """The sums of (sum |v|^2, sum |v|) that `squares` and `moduli` ask for,
    of a contiguous or row-padded field, its moduli formed in chunk scratch,
    CHUNK points of whole rows at a time: bitwise `np.sum` of
    np.abs(values)**2 and np.abs(values).  numpy sums 2^k > 128 contiguous
    float64 terms as the sum of their two halves, so each block of a
    power-of-two field is a subtree, and adding neighbouring block sums
    level by level rebuilds the levels above."""
    if values.flags.f_contiguous:
        values = values.T  # the same memory order, read as C order
    rows = values.reshape(-1, min(values.shape[-1], CHUNK), copy=False)
    per = CHUNK // rows.shape[1]
    parts = [rows[lo:lo + per] for lo in range(0, len(rows), per)]
    mag = np.empty(parts[0].shape)
    sums = np.empty((squares + moduli, len(parts)))
    for i, part in enumerate(parts):
        m = np.abs(part, out=mag[:len(part)])
        if moduli:
            sums[-1, i] = np.sum(m)
        if squares:
            sums[0, i] = np.sum(np.square(m, out=m))
    while sums.shape[1] > 1:
        sums = sums[:, 0::2] + sums[:, 1::2]
    return tuple(sums[:, 0])


def _norms(raw: np.ndarray, grid) -> tuple:
    """(l2, wiener) of the field whose raw FFT is `raw`, L2 by Parseval."""
    squares, moduli = _modulus_sums(raw)
    l2 = math.sqrt(grid.dx**grid.d * squares / grid.total_points)
    return l2, float(_wiener_scale(grid) * moduli)


def _norms_in_place(values: np.ndarray, grid) -> tuple:
    """(l2, wiener) of the field with samples `values`: L2 from them, then
    Wiener from the spectrum the forward transform writes over them."""
    l2 = math.sqrt(grid.dx**grid.d * _modulus_sums(values, moduli=False)[0])
    np.fft.fftn(values, out=values)
    return l2, float(_wiener_scale(grid) * _modulus_sums(values, squares=False)[0])


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


def _norms_from_modulus(mag: np.ndarray, grid) -> tuple:
    """`_norms` of the field whose raw FFT has the C-contiguous moduli
    `mag`, bitwise; `mag` is squared in place."""
    wiener = float(_wiener_scale(grid) * np.sum(mag))
    squares = np.sum(np.square(mag, out=mag))
    return math.sqrt(grid.dx**grid.d * squares / grid.total_points), wiener


def _graded_norm(raw: np.ndarray, grid, spec: KernelSpec) -> float:
    """Sum of combined norms of the derivatives up to the kernel's order
    n = derivative_order(d, gamma) of the field whose raw FFT is given:
    d^eta f has the raw spectrum raw (i xi)^eta, whose moduli form in one
    buffer.  The sums square their moduli in place, so eta = 0, whose
    moduli are |raw| itself, goes last."""
    mag = np.abs(raw)
    xi = [np.abs(m) for m in grid.freq_meshes(zero_nyquist=True)]
    buf = np.empty_like(mag)
    terms = []
    for eta in reversed(multi_indices(spec.d, derivative_order(spec.d, spec.gamma))):
        weighted = reduce(lambda w, f: np.multiply(w, f, out=buf),
                          (x**e for x, e in zip(xi, eta) if e), mag)
        terms.append(sum(_norms_from_modulus(weighted, grid)))
    return sum(reversed(terms))


def _algebra_bounds(pairs: np.ndarray, w: np.ndarray, grid) -> tuple:
    """(lhs, rhs) of ||f g||_W <= ||f||_W ||g||_W per row of a stack of
    factor pairs (rows, 2, *shape) with their Wiener norms w (rows, 2).

    Both factors must be band-limited to |k| <= N/4 - 1 so the sampled
    pointwise product carries no aliased content.  The campaign's draw,
    `harness._random_band_limited`, rejects a band above that cutoff and
    reads each factor's norm off the band it drew, so one stacked
    transform serves: the products', formed in place over the first
    factors.
    """
    product = np.multiply(pairs[:, 0], pairs[:, 1], out=pairs[:, 0])
    np.fft.fftn(product, axes=tuple(range(-grid.d, 0)), out=product)
    return _wiener_from_modulus(np.abs(product), grid), w[:, 0] * w[:, 1]


def _hartree_bounds(spec: KernelSpec, h: np.ndarray, grid) -> tuple:
    """(lhs, rhs) of ||K * h||_W <= ||K1||_L1 ||h||_L1 + ||K2||_Linf ||h||_W
    per row of a stack of real densities, from one stacked real transform:
    K * h has the raw spectrum (2pi)^{d/2} Khat hhat.

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
    return _wiener_from_modulus(mag, grid), rhs
