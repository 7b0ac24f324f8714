import weakref

import numpy as np
import pytest

from hartreelab import GaussianProfile, Grid, KernelSpec, ModeFamily


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
    return np.exp(-x**2 / 2)


@pytest.fixture
def two_mode_family():
    grid = Grid(d=1, length=32.0, points=1024)
    return ModeFamily.from_profiles(
        grid,
        [
            ([-2.0], GaussianProfile(amplitude=1.0, center=(0.0,), width=1.0)),
            ([2.0], GaussianProfile(amplitude=1.0, center=(0.0,), width=1.0)),
        ],
    )


FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")


class TransformLog(list):
    """(name, number of axes transformed) of each numpy.fft call."""

    def __init__(self):
        super().__init__()
        self._blocks = []  # per call: an `rfft` or `irfft` continuing the last one's pass
        self._last = lambda: None  # a weak reference to the last input's owner

    def record(self, name: str, a, axes):
        block = name in ("rfft", "irfft") and bool(self) and self[-1][0] == name
        self.append((name, np.ndim(a) if axes is None else len(axes)))
        while isinstance(getattr(a, "base", None), np.ndarray):
            a = a.base
        self._blocks.append(block and self._last() is a)
        self._last = weakref.ref(a) if isinstance(a, np.ndarray) else lambda: None

    def clear(self):
        super().clear()
        self._blocks.clear()

    def passes(self) -> list:
        """The calls, each run of `rfft` or `irfft` calls over blocks of
        rows of one array (one pass) merged into one."""
        return [call for call, block in zip(self, self._blocks) if not block]

    def axis_passes(self) -> int:
        """Axes transformed, a pass over blocks of rows counted once: a
        transform budget that holds whatever the block rule."""
        return sum(axes for _, axes in self.passes())


@pytest.fixture
def fft_calls(monkeypatch):
    """`TransformLog` of every numpy.fft transform call made while the test
    runs (or until `monkeypatch.undo()`)."""
    calls = TransformLog()
    for name in FFT_NAMES:
        def counted(a, *args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            axes = kwargs.get("axes", args[1] if len(args) > 1 else None)
            calls.record(_name, a, axes if _name.endswith("n") else (-1,))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls
