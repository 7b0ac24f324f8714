"""Periodic grids, complex fields, and the fixed Fourier convention.

Everything downstream uses the continuum normalization

    fhat(xi) = (2*pi)**(-d/2) * integral f(x) exp(-i x.xi) dx,

realized as a Riemann sum on the box [-L/2, L/2)**d with N samples per
axis and the dual lattice xi_k = 2*pi*k/L, k in [-N/2, N/2).  Discrete
transforms of fields that decay inside the box are then direct
approximations of their continuum counterparts, so norms and multiplier
operators need no rescaling anywhere else.

The Nyquist row (k = -N/2) is kept in the lattice but its frequency is
zeroed inside derivative and modulation multipliers; this removes the
asymmetric Nyquist artifact in odd derivatives while leaving the
identity multi-index exact.

Every transform in the package goes through one backend, `numpy.fft`
(a field transformed in place passes itself as `out=`), and every array
exp(i theta) on the hot paths through one kernel, `unit_phase`: a
vectorised half-angle tangent in place of scalar cos and sin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

MAX_TOTAL_POINTS = 2**26  # memory guard on N**d
BLOCK_BYTES = 2**20  # byte budget of one stack of complex fields

TWO_PI = 2.0 * np.pi


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

    def _axis_indices(self) -> np.ndarray:
        """Lattice indices k in FFT order, k in [-N/2, N/2)."""
        return np.rint(np.fft.fftfreq(self.points) * self.points).astype(int)

    def axis_freqs(self, zero_nyquist: bool = False) -> np.ndarray:
        """Dual lattice 2*pi*k/L in FFT order, k in [-N/2, N/2)."""
        k = self._axis_indices()
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

    def alternating_signs(self) -> np.ndarray:
        """(-1)**(k1+...+kd): the phase factor carrying the box offset -L/2."""
        s = np.where(self._axis_indices() % 2 == 0, 1.0, -1.0)
        return reduce(np.multiply, self._on_axes(s))


def unit_phase(theta, out=None) -> np.ndarray:
    """exp(i theta) of a real array from the half-angle tangent.

    With t = tan(theta/2), cos theta = (1 - t^2)/(1 + t^2) and
    sin theta = 2t/(1 + t^2): one tangent, which numpy 2 evaluates in
    SIMD, and a few multiplies, where float64 cos, sin and complex exp
    run as scalar libm calls (complex exp is 2.3-3.4x slower at 8192
    points and 512^2, `bench/BENCH_layers.json`).
    Against exp(i theta) the error is at most 4e-16 for |theta| <= 1e4;
    tan(theta/2) stays finite at finite theta, so no branch is needed.
    A NaN or infinite theta gives NaN.  `out`, a complex array of
    theta's shape, is filled and returned.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if out is None:
        out = np.empty(theta.shape, dtype=np.complex128)
    t = np.multiply(theta, 0.5)
    np.tan(t, out=t)
    t_sq = np.multiply(t, t)
    inv = np.add(t_sq, 1.0)
    np.divide(1.0, inv, out=inv)
    np.subtract(1.0, t_sq, out=t_sq)
    np.multiply(t_sq, inv, out=out.real)
    t += t
    np.multiply(t, inv, out=out.imag)
    return out


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


def _validated_samples(grid: Grid, values, what: str, copy: bool = True) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != grid.shape:
        raise ValueError(
            f"{what} shape {arr.shape} does not match grid shape {grid.shape}"
        )
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValueError(f"{what} contains non-finite entries")
    if copy:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Field:
    """Complex samples on the physical grid.  Immutable after construction:
    `Field(grid, values)` copies; `Field._adopt` freezes a fresh array in place."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _validated_samples(self.grid, self.values, "field")
        )

    @classmethod
    def _adopt(cls, grid: Grid, values) -> "Field":
        field = object.__new__(cls)
        object.__setattr__(field, "grid", grid)
        object.__setattr__(
            field, "values", _validated_samples(grid, values, "field", copy=False)
        )
        return field

    def __add__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field._adopt(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field._adopt(self.grid, self.values - other.values)

    def __mul__(self, other) -> "Field":
        if isinstance(other, Field):
            self._check_same_grid(other)
            return Field._adopt(self.grid, self.values * other.values)
        return Field._adopt(self.grid, self.values * other)

    __rmul__ = __mul__

    def _check_same_grid(self, other: "Field"):
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Complex coefficients on the dual lattice, FFT ordering."""

    grid: Grid
    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self,
            "coefficients",
            _validated_samples(self.grid, self.coefficients, "spectral field"),
        )


def forward_transform(f: Field) -> SpectralField:
    """Discrete realization of fhat(xi_k) under the unitary convention."""
    g = f.grid
    scale = (TWO_PI) ** (-g.d / 2) * g.dx**g.d
    coef = scale * g.alternating_signs() * np.fft.fftn(f.values)
    return SpectralField(g, coef)


def inverse_transform(F: SpectralField) -> Field:
    """Inverse of forward_transform; the pair round-trips to rounding."""
    g = F.grid
    scale = (TWO_PI) ** (g.d / 2) / g.dx**g.d
    vals = scale * np.fft.ifftn(F.coefficients * g.alternating_signs())
    return Field._adopt(g, vals)


def _multiindex(grid: Grid, eta) -> tuple:
    if np.isscalar(eta):
        if grid.d != 1:
            raise ValueError("scalar derivative order is only allowed in 1D")
        eta = (int(eta),)
    eta = tuple(int(e) for e in eta)
    if len(eta) != grid.d:
        raise ValueError(f"multi-index length {len(eta)} does not match d={grid.d}")
    if any(e < 0 for e in eta):
        raise ValueError(f"multi-index entries must be nonnegative, got {eta}")
    return eta


def spectral_derivative(f: Field, eta) -> Field:
    """Mixed partial derivative d^eta f via the (i*xi)**eta multiplier.

    eta is a multi-index of total order at most 3 (the largest derivative
    order any norm in this package uses).  Exact for band-limited fields.
    """
    g = f.grid
    eta = _multiindex(g, eta)
    order = sum(eta)
    if order > 3:
        raise ValueError(f"derivative order |eta| = {order} exceeds 3")
    if order == 0:
        return f
    meshes = g.freq_meshes(zero_nyquist=True)
    ones = np.ones(g.shape, dtype=np.complex128)
    mult = reduce(np.multiply, ((1j * m) ** e for m, e in zip(meshes, eta) if e), ones)
    return Field._adopt(g, np.fft.ifftn(np.fft.fftn(f.values) * mult))


def laplacian(f: Field) -> Field:
    """Sum of pure second derivatives, one transform pair."""
    return Field._adopt(f.grid, _laplacian_from_raw(np.fft.fftn(f.values), f.grid))


def _laplacian_from_raw(raw: np.ndarray, grid: Grid) -> np.ndarray:
    """Lap f from the raw FFT of f, which it overwrites; one inverse transform."""
    raw *= -reduce(np.add, (m**2 for m in grid.freq_meshes(zero_nyquist=True)))
    return np.fft.ifftn(raw, out=raw)


def translate(f: Field, shift) -> Field:
    """f(. - shift) via frequency modulation, periodic wrap at the edges."""
    g = f.grid
    s = np.atleast_1d(np.asarray(shift, dtype=float))
    if s.shape != (g.d,):
        raise ValueError(f"shift must have {g.d} components, got shape {s.shape}")
    if not s.any():
        return f
    wave = plane_wave(g.freq_meshes(zero_nyquist=True), s, -1.0)
    return Field._adopt(g, np.fft.ifftn(np.fft.fftn(f.values) * wave))


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
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.size != grid.total_points:
            raise ValueError(
                f"table length {arr.size} does not match grid total {grid.total_points}"
            )
        return arr.reshape(grid.shape)


def sample_profile(grid: Grid, spec) -> Field:
    """Realize a profile specification as a Field on the grid."""
    if not isinstance(spec, (GaussianProfile, TableProfile)):
        raise ValueError(f"unsupported profile specification: {type(spec).__name__}")
    return Field(grid, spec.sample(grid))


def profile_support_radius(grid: Grid, f: Field, threshold: float = 1e-12) -> float:
    """Empirical per-axis support extent max|x_ax| where |f| > threshold*max."""
    return _extent(grid, np.abs(f.values), threshold, grid.coords())


def profile_bandwidth(grid: Grid, f: Field, threshold: float = 1e-12) -> float:
    """Empirical spectral radius max|xi| where |fhat| > threshold*max."""
    coef = np.abs(forward_transform(f).coefficients)
    return _extent(grid, coef, threshold, f.grid.freq_meshes())


def _extent(grid: Grid, mag: np.ndarray, threshold: float, axes) -> float:
    """Largest |axis value| over the points where mag > threshold*max."""
    peak = mag.max()
    if peak == 0:
        return 0.0
    mask = mag > threshold * peak
    return max(float(np.abs(np.broadcast_to(ax, grid.shape))[mask].max()) for ax in axes)
