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
