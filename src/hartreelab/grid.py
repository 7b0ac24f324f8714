"""Periodic grids, real and complex fields, and the fixed Fourier convention.

Everything downstream uses the continuum normalization

    fhat(xi) = (2*pi)**(-d/2) * integral f(x) exp(-i x.xi) dx,

realized as a Riemann sum on the box [-L/2, L/2)**d with N samples per
axis and the dual lattice xi_k = 2*pi*k/L, k in [-N/2, N/2):

    fhat(xi_k) ~ (2*pi)**(-d/2) * dx**d * (-1)**(k1+...+kd) * fftn(f)[k],

the sign carrying the box offset -L/2.  For fields that decay inside the
box this approximates the continuum transform.  The package transforms
with raw `numpy.fft` and applies the convention where a number depends
on it: `norms._wiener_scale` scales sums of raw moduli (the signs have
modulus one and drop out), and `kernel.half_multiplier` carries the
(2*pi)**(d/2) of the convolution theorem.

The Nyquist row (k = -N/2) is kept in the lattice but its frequency is
zeroed inside derivative and modulation multipliers; this removes the
asymmetric Nyquist artifact in odd derivatives while leaving the
identity multi-index exact.

Every transform in the package goes through one backend, `numpy.fft`
(a field transformed in place passes itself as `out=`), and every array
exp(i theta) on the hot paths through one kernel, `unit_phase`: a
vectorised half-angle tangent in place of scalar cos and sin, run over
consecutive slices of CHUNK points (`_slices`) so that its scratch stays
in L2, as the Strang step's pointwise stages slice their arrays.

In 2D and 3D the Strang state is row-padded (`padded_zeros`): the
[..., :N] view of a buffer with N + 1 elements per row, so no transform
pass reads columns at a power-of-two stride (see `solver`).  numpy
transforms the padded view bitwise as it does the contiguous array.
Fields are plain sample arrays with their grid passed beside them; a
sampled profile stays real (read-only float64), and `translate` works
in one array: the samples copied into a complex buffer, then forward
transform, modulation and inverse in place there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

MAX_TOTAL_POINTS = 2**26  # memory guard on N**d
BLOCK_BYTES = 2**20  # byte budget of one stack of complex fields
CHUNK = 8192  # points per slice of a pointwise pass: its working set stays in L2

TWO_PI = 2.0 * np.pi


def _slices(a: np.ndarray) -> list:
    """Views of consecutive CHUNK points of a C-contiguous or 1-D array `a`;
    the last may be shorter."""
    return [a.reshape(-1, copy=False)[lo:lo + CHUNK] for lo in range(0, a.size, CHUNK)]


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the box [-L/2, L/2)**d.

    Attributes:
        d: spatial dimension, 1, 2 or 3 (d = 3 is supported at coarse
           resolution only; the total-point guard caps the size).
        length: box edge length L per axis.
        points: samples N per axis; an even power of two.
    """

    d: int
    length: float
    points: int

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        if not self.length > 0:
            raise ValueError(f"box length must be positive, got {self.length}")
        if not _is_power_of_two(self.points):
            raise ValueError(
                f"points per axis must be an even power of two, got {self.points}"
            )
        if self.points**self.d > MAX_TOTAL_POINTS:
            raise ValueError(
                f"total points {self.points}**{self.d} exceeds the memory guard "
                f"2**26 = {MAX_TOTAL_POINTS}"
            )

    @property
    def dx(self) -> float:
        return self.length / self.points

    @property
    def dxi(self) -> float:
        return TWO_PI / self.length

    @property
    def shape(self) -> tuple:
        return (self.points,) * self.d

    @property
    def total_points(self) -> int:
        return self.points**self.d

    @property
    def block_rows(self) -> int:
        """Complex fields per stack within BLOCK_BYTES; one from 256**2 up."""
        return max(1, BLOCK_BYTES // (16 * self.total_points))

    @property
    def max_frequency(self) -> float:
        """Largest resolved frequency magnitude pi*N/L per axis."""
        return np.pi * self.points / self.length

    def axis_coords(self) -> np.ndarray:
        """Sample positions -L/2 + m*dx along one axis."""
        return -self.length / 2 + self.dx * np.arange(self.points)

    def _on_axes(self, v: np.ndarray) -> tuple:
        """One broadcastable copy of the 1-D array v per axis."""
        return tuple(
            v.reshape([-1 if a == ax else 1 for a in range(self.d)])
            for ax in range(self.d)
        )

    def coords(self) -> tuple:
        """Broadcastable coordinate arrays, one per axis."""
        return self._on_axes(self.axis_coords())

    def axis_freqs(self, zero_nyquist: bool = False) -> np.ndarray:
        """Dual lattice 2*pi*k/L in FFT order, k in [-N/2, N/2)."""
        k = np.rint(np.fft.fftfreq(self.points) * self.points).astype(int)
        xi = TWO_PI * k / self.length
        if zero_nyquist:
            xi[k == -self.points // 2] = 0.0
        return xi

    def freq_meshes(self, zero_nyquist: bool = False) -> tuple:
        """Broadcastable frequency arrays, one per axis."""
        return self._on_axes(self.axis_freqs(zero_nyquist=zero_nyquist))

    def freq_norm_sq(self) -> np.ndarray:
        """|xi|**2 on the full lattice (Nyquist kept; even multiplier)."""
        meshes = self.freq_meshes(zero_nyquist=False)
        return reduce(np.add, (m**2 for m in meshes))


def unit_phase(theta, out=None) -> np.ndarray:
    """exp(i theta) of a real array from the half-angle tangent.

    With t = tan(theta/2), cos theta = (1 - t^2)/(1 + t^2) and
    sin theta = 2t/(1 + t^2): one tangent, which numpy 2 evaluates in
    SIMD, and a few multiplies, where float64 cos, sin and complex exp
    run as scalar libm calls (complex exp is 2.3-3.4x slower at 8192
    points and 512^2, `bench/BENCH_layers.json`).
    Against exp(i theta) the error is at most 4e-16 for |theta| <= 1e4;
    tan(theta/2) stays finite at finite theta, so no branch is needed.
    A NaN or infinite theta gives NaN.  The work runs over consecutive
    slices of CHUNK points with chunk-sized scratch, so no full-size
    temporary is made.  `out`, a C-contiguous complex array of theta's
    shape, is filled and returned.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if out is None:
        out = np.empty(theta.shape, dtype=np.complex128)
    n = min(theta.size, CHUNK)
    t, t_sq, inv = np.empty(n), np.empty(n), np.empty(n)
    # theta.reshape(-1) copies only if theta's strides do not merge
    for angle, z in zip(_slices(theta.reshape(-1)), _slices(out)):
        if z.size < n:  # the last of several slices may be shorter
            t, t_sq, inv = t[:z.size], t_sq[:z.size], inv[:z.size]
        np.multiply(angle, 0.5, out=t)
        np.tan(t, out=t)
        np.multiply(t, t, out=t_sq)
        np.add(t_sq, 1.0, out=inv)
        np.divide(1.0, inv, out=inv)
        np.subtract(1.0, t_sq, out=t_sq)
        np.multiply(t_sq, inv, out=z.real)
        t += t
        np.multiply(t, inv, out=z.imag)
    return out


def padded_zeros(grid: Grid) -> np.ndarray:
    """A zeroed complex array of the grid's shape; for d >= 2 the [..., :N]
    view of a (*shape[:-1], N + 1) buffer, its `base`, whose pads stay zero
    unless written through the buffer.  In 1D a plain array."""
    if grid.d == 1:
        return np.zeros(grid.shape, dtype=np.complex128)
    padded = np.zeros((*grid.shape[:-1], grid.points + 1), dtype=np.complex128)
    return padded[..., :grid.points]


def plane_wave(axes, kappa, scale: float = 1.0, offset: float = 0.0) -> np.ndarray:
    """exp(i (scale * kappa . x + offset)) as a product of 1-D exponentials.

    `axes` are broadcastable per-axis arrays (`Grid.coords()` or
    `Grid.freq_meshes()`).  An axis with kappa = 0 contributes no factor,
    so the result may broadcast against the grid instead of filling it.
    Each axis factor is a `unit_phase`.
    """
    wave = np.full((1,) * len(axes), np.exp(1j * offset))
    for ax, k in zip(axes, kappa):
        if k:
            wave = wave * unit_phase((scale * k) * ax)
    return wave


def laplacian(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Sum of pure second derivatives of the samples, one transform pair."""
    return _laplacian_from_raw(np.fft.fftn(values), grid)


def _laplacian_from_raw(raw: np.ndarray, grid: Grid, scale: float = 1.0) -> np.ndarray:
    """scale Lap f from the raw FFT of f, which it overwrites; one inverse transform."""
    raw *= -scale * reduce(np.add, (m**2 for m in grid.freq_meshes(zero_nyquist=True)))
    return np.fft.ifftn(raw, out=raw)


def translate(values: np.ndarray, grid: Grid, shift) -> np.ndarray:
    """f(. - shift) of the samples f = `values` via frequency modulation,
    periodic wrap at the edges, in one complex copy of the samples: the bits
    of `fftn` of real samples, without the complex copy numpy would cast
    them into.  A zero shift returns `values` itself."""
    s = np.atleast_1d(np.asarray(shift, dtype=float))
    if s.shape != (grid.d,):
        raise ValueError(f"shift must have {grid.d} components, got shape {s.shape}")
    if not s.any():
        return values
    moved = np.array(values, dtype=np.complex128)
    np.fft.fftn(moved, out=moved)
    moved *= plane_wave(grid.freq_meshes(zero_nyquist=True), s, -1.0)
    return np.fft.ifftn(moved, out=moved)


@dataclass(frozen=True)
class GaussianProfile:
    """Envelope A * exp(-|x - c|**2 / (2 sigma**2))."""

    amplitude: float
    center: tuple
    width: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if not self.width > 0:
            raise ValueError(
                f"gaussian width must be positive (width constraint), got {self.width}"
            )

    def sample(self, grid: Grid) -> np.ndarray:
        if len(self.center) != grid.d:
            raise ValueError(
                f"center has {len(self.center)} components, grid is {grid.d}D"
            )
        r2 = np.zeros(grid.shape)
        for ax, c in zip(grid.coords(), self.center):
            r2 = r2 + (ax - c) ** 2
        return self.amplitude * np.exp(-r2 / (2 * self.width**2))

    def support_radius(self) -> float:
        """6 sigma; the envelope is below ~1.5e-8 A outside, and the
        containment margin adds further slack on top."""
        return 6.0 * self.width

    def bandwidth(self) -> float:
        # Fourier transform decays like exp(-sigma^2 xi^2 / 2); 6/sigma is
        # where it has dropped below ~1e-8.
        return 6.0 / self.width


@dataclass(frozen=True, eq=False)
class TableProfile:
    """User-supplied sample table, one value per grid point."""

    values: np.ndarray

    def sample(self, grid: Grid) -> np.ndarray:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.size != grid.total_points:
            raise ValueError(
                f"table length {arr.size} does not match grid total {grid.total_points}"
            )
        return arr.reshape(grid.shape)


def sample_profile(grid: Grid, spec) -> np.ndarray:
    """Realize a profile specification as read-only float64 samples on the
    grid, in a new array, so a caller's table array stays writable; a table
    of the wrong length or a non-finite sample is refused."""
    if not isinstance(spec, (GaussianProfile, TableProfile)):
        raise ValueError(f"unsupported profile specification: {type(spec).__name__}")
    samples = np.array(spec.sample(grid), dtype=np.float64)
    if not np.all(np.isfinite(samples)):
        raise ValueError("profile contains non-finite entries")
    samples.setflags(write=False)
    return samples


def profile_support_radius(values: np.ndarray, grid: Grid, threshold: float) -> float:
    """Empirical per-axis support extent max|x_ax| where |f| > threshold*max."""
    return _extent(grid, np.abs(values), threshold, grid.coords())


def profile_bandwidth(values: np.ndarray, grid: Grid, threshold: float) -> float:
    """Empirical spectral radius max|xi| where |fhat| > threshold*max."""
    mag = np.abs(np.fft.fftn(values))  # |fhat| up to a constant factor
    return _extent(grid, mag, threshold, grid.freq_meshes())


def _extent(grid: Grid, mag: np.ndarray, threshold: float, axes) -> float:
    """Largest |axis value| over the points where mag > threshold*max."""
    peak = mag.max()
    if peak == 0:
        return 0.0
    mask = mag > threshold * peak
    return max(float(np.abs(np.broadcast_to(ax, grid.shape))[mask].max()) for ax in axes)
