"""The plain-numpy control kernel shared by the benchmark modules, and the
environment of the fresh interpreters some entries start.

The control runs no hartreelab code: a fixed transform pair, product and
modulus sum on a 256^2 array.  `control_beside` times it just before and
just after every benchmark entry and stores the median of those runs as
the entry's `control_s`, so `compare.py` can divide each entry by the
host's speed at the moment the entry ran.
"""

import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

import hartreelab

CONTROL_RUNS = 10  # control runs on each side of an entry


@pytest.fixture(scope="session")
def control():
    # glibc serves a block above its mmap threshold (128 KiB at start) by
    # mmap, and raises the threshold to the size of each such block freed:
    # one 8 MiB block makes the control's 1 MiB arrays heap blocks from its
    # first timing on, not only after the first entry's arrays were freed
    np.empty(8 << 20, dtype=np.uint8)  # freed as soon as made
    z = np.random.default_rng(0).standard_normal((256, 256, 2)).view(np.complex128)[..., 0]

    def kernel():
        w = np.fft.ifftn(np.fft.fftn(z))
        return float(np.sum(np.abs(w * z)))

    return kernel


def _control_times(control) -> list:
    times = []
    for _ in range(CONTROL_RUNS):
        t = time.perf_counter()
        control()
        times.append(time.perf_counter() - t)
    return times


@pytest.fixture(autouse=True)
def control_beside(benchmark, control):
    before = _control_times(control)
    yield
    benchmark.extra_info["control_s"] = statistics.median(before + _control_times(control))


@pytest.fixture(scope="session")
def child_env():
    """Environment in which a child process imports the hartreelab this
    process imported (the tree under test, parent or change)."""
    src = str(Path(hartreelab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
