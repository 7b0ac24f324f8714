import numpy as np
import pytest
import scipy.fft

from hartreelab import Field, GaussianProfile, Grid, KernelSpec, ModeFamily


@pytest.fixture
def grid1d():
    return Grid(d=1, length=32.0, points=256)


@pytest.fixture
def grid1d_fine():
    return Grid(d=1, length=32.0, points=1024)


@pytest.fixture
def kernel1d():
    return KernelSpec(d=1, gamma=0.5, coupling=1.0)


@pytest.fixture
def gaussian_field(grid1d):
    x = grid1d.axis_coords()
    return Field(grid1d, np.exp(-x**2 / 2))


def lattice_wavenumber(grid, index):
    """A frequency guaranteed to be on the dual lattice."""
    return 2 * np.pi * index / grid.length


def in_band_coefficients(grid, rng, cutoff):
    """Spectrum of one random field drawn inside its band |k| <= cutoff only:
    interleaved (re, im) N(0, 1) pairs in C order over the FFT-order
    positions of k = 0..c, then -c..-1 on each axis; exact zeros elsewhere."""
    n = grid.points
    assert 2 * cutoff + 1 <= n
    inside = np.r_[0:cutoff + 1, n - cutoff:n]
    draws = rng.standard_normal((inside.size,) * grid.d + (2,))
    band = np.empty(draws.shape[:-1], dtype=np.complex128)
    band.real, band.imag = draws[..., 0], draws[..., 1]
    coef = np.zeros(grid.shape, dtype=np.complex128)
    coef[np.ix_(*(inside,) * grid.d)] = band
    return coef


def band_mask(grid, cutoff):
    """True where |k| <= cutoff on every axis, FFT order."""
    inside = np.abs(np.rint(np.fft.fftfreq(grid.points) * grid.points)) <= cutoff
    mask = inside
    for _ in range(grid.d - 1):
        mask = np.logical_and.outer(mask, inside)
    return mask


def plane_wave(grid, k0):
    phase = np.zeros(grid.shape)
    k0 = np.atleast_1d(np.asarray(k0, dtype=float))
    for ax, kc in zip(grid.coords(), k0):
        phase = phase + kc * ax
    return Field(grid, np.exp(1j * phase))


@pytest.fixture
def two_mode_family():
    grid = Grid(d=1, length=32.0, points=1024)
    return ModeFamily.from_profiles(
        grid,
        [
            ([-2.0], GaussianProfile(amplitude=1.0, center=(0.0,), width=1.0)),
            ([2.0], GaussianProfile(amplitude=1.0, center=(0.0,), width=1.0)),
        ],
        gamma=0.5,
    )


FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")


@pytest.fixture
def fft_calls(monkeypatch):
    """List that records every numpy.fft / scipy.fft transform call made
    while the test runs."""
    calls = []
    for module in (np.fft, scipy.fft):
        for fname in FFT_NAMES:
            def counted(*args, _fn=getattr(module, fname), **kwargs):
                calls.append(_fn)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, fname, counted)
    return calls
