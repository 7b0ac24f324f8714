"""Per-layer timings of the Strang stepper, its phase kernel and a record.

- `test_advance_step[SIZE]`: one `solver.advance` step at 8192 points
  (1D reference grid), 512^2 (2D reference grid) and 64^3 (L = 10,
  gamma = 1), on two Gaussian wave packets with carriers kappa/eps =
  -+2/eps at the smallest reference eps, its spectrum held as a sweep
  holds it (`grid.padded_zeros`: rows padded by one element in 2D and 3D).
  Each round continues the same trajectory.  The FFT calls of one step
  are counted once, outside the timing, and stored as
  `fft_calls_per_step` in the entry's extra info; the entry asserts the
  step's transform work as 4 d axis passes.
- `test_fft_pair[SIZE-LAYOUT]`: one in-place `np.fft.fftn` + `ifftn`
  pair at 256^2 and 512^2, on a contiguous array and on the [:, :N] view
  of an (N, N + 1) buffer, the layout of the Strang state.  No hartreelab
  code runs; the pair shows what the power-of-two row stride costs.
- `test_phase[ROUTE-SIZE]`: exp(i theta) of a carrier-sized angle array
  (kappa/eps . x up to 2560 at 8192 points, 80 at 512^2) by
  `grid.unit_phase` and by `np.exp(1j * theta)`, each into one `out=`
  buffer made once, so neither route times the allocator.
- `test_snapshot[FAMILY]`: one warm `wkb.snapshot` at t > 0 (the
  amplitudes alone) of the two-mode reference_2d family at t = 0.25 and
  of the four-mode 256^2 family at t = 0.0625.
- `test_start`: one warm `harness._start` (initial data and raw spectrum
  of one eps) on reference_2d at eps = 0.05.
- `test_record[FAMILY]`: one warm `harness._record` and
  `harness._z2_norms` (errors and remainder from the amplitudes, then Z2
  from their half-Laplacians, of one eps at one sample time, in its
  thread's field buffers; the half-Laplacians are a converted copy of the
  snapshot, made once outside the timing) for
  the 8192-point two-mode reference family at eps = 0.025, t = 0.25 and
  for the four-mode 256^2 family at eps = 0.15, t = 0.0625.  Its FFT
  calls per record are counted outside the timing and stored in the
  entry's extra info; the entry asserts the record's transform work as
  6 d axis passes, whichever calls run them.  `test_snapshot` and
  `test_start` store theirs as `fft_calls_per_call`, and beside it
  `peak_state_arrays`: the call's tracemalloc peak over its entry, in
  complex128 fields of the grid.
- `test_norms[SIZE-LAYER]`: one warm call of each norm layer a sweep or
  a validate run takes, at 8192 points and 512^2, on the complex
  samples of `test_advance_step`'s packets: `norms._norms_in_place`
  (L2 and Wiener norms of a field whose samples it transforms in place,
  refilled outside the timing; the records' route) and
  `norms._graded_norm` (the graded norm of a raw spectrum, the share of
  ||a||_E per amplitude).  Each stores
  `fft_calls_per_call` and `peak_state_arrays` as `test_snapshot` does.
- `test_persist`: one `harness.persist` of the reference_2d sweep result
  (its records.csv, summary.json and convergence.svg) into a fresh
  directory; it stores `fft_calls_per_call` (0) and `bytes_written`, the
  size of the three files.
- `test_sweep_unit`: one warm `harness.run_sweep` over the four-mode
  256^2 family (eps = 0.3, 0.2, 0.15; eight sample times to t = 0.5),
  the unit of perfbench's `sweep_2d_multimode`.  Its minor page faults
  are stored as `minor_faults_per_unit`: a `resource.getrusage` delta
  around one unit, after a warm-up unit, in a fresh interpreter.  The
  count depends on what the process allocated and freed before: a warm
  loop of bare records reuses the heap chunks the previous record freed
  (0 faults), and a unit run in this process after the other entries
  read about 2,100 on every tree, against 28,334 in a fresh one.
- `test_control`: the plain-numpy control of `bench/conftest.py` (no
  hartreelab code); its after/before ratio is the host's drift between
  the two runs.  The same control also runs beside every entry, and its
  median there is the entry's `control_s`.

Every FFT count is taken with the `fft_calls` log of `tests/conftest.py`,
outside the timing, a pass of `rfft` or `irfft` calls over blocks of rows
counted as one call.

Run from the repository root:

    PYTHONPATH=src python -m pytest bench/test_bench_layers.py \
        --benchmark-min-time=0.02 --benchmark-json=layers.json

`-k "not unit_phase"` runs the module on a tree without
`grid.unit_phase`.  `bench/compare.py` folds two such files (before and
after a change) into `bench/BENCH_layers.json`, each ratio also divided
by the ratio of its own `control_s`.
"""

import functools
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hartreelab import Grid, KernelSpec, SolverParams
from hartreelab import grid as grid_module
from hartreelab import harness
from hartreelab.config import parse_config
from hartreelab.kernel import half_multiplier
from hartreelab.norms import _graded_norm, _norms, _norms_in_place
from hartreelab.solver import advance
from hartreelab.wkb import snapshot

# size -> (grid, gamma, eps)
CASES = {"8192": (Grid(d=1, length=64.0, points=8192), 0.5, 0.025),
         "512x512": (Grid(d=2, length=16.0, points=512), 0.5, 0.05),
         "64x64x64": (Grid(d=3, length=10.0, points=64), 1.0, 0.5)}


def _packets(grid: Grid, eps: float) -> np.ndarray:
    """Two unit Gaussians of width 0.75 with carriers exp(-+2i x_1 / eps)."""
    coords = grid.coords()
    r2 = sum(ax**2 for ax in coords)
    return 2.0 * np.exp(-r2 / (2 * 0.75**2)) * np.cos(2.0 * coords[0] / eps)


@pytest.mark.parametrize("size", sorted(CASES))
def test_advance_step(benchmark, fft_calls, monkeypatch, size):
    grid, gamma, eps = CASES[size]
    spec = KernelSpec(d=grid.d, gamma=gamma)
    params = SolverParams.largest_step(eps, 1.0)
    khat_half = half_multiplier(spec, grid, spec.coupling)
    raw = np.fft.fftn(_packets(grid, eps), out=grid_module.padded_zeros(grid))
    norm0 = sum(_norms(raw, grid))
    state = {"raw": raw}

    def step():
        state["raw"], _ = advance(state["raw"], grid, khat_half, params, 0.0,
                                  params.dt, norm0)

    fft_calls.clear()
    step()
    monkeypatch.undo()
    benchmark.extra_info["fft_calls_per_step"] = len(fft_calls.passes())
    assert fft_calls.axis_passes() == 4 * grid.d
    benchmark(step)


@pytest.mark.parametrize("layout", ["contiguous", "padded"])
@pytest.mark.parametrize("size", ["256x256", "512x512"])
def test_fft_pair(benchmark, size, layout):
    n = int(size.split("x")[0])
    rows = n + (layout == "padded")
    z = np.zeros((n, rows), dtype=np.complex128)[:, :n]
    draw = np.random.default_rng(0).standard_normal((n, n, 2))
    z[...] = draw.view(np.complex128)[..., 0]
    assert z.flags.c_contiguous == (layout == "contiguous")

    def pair():
        np.fft.ifftn(np.fft.fftn(z, out=z), out=z)

    benchmark(pair)


def _carrier_angle(size: str) -> np.ndarray:
    grid, _, eps = CASES[size]
    return (2.0 / eps) * sum(np.broadcast_to(ax, grid.shape) for ax in grid.coords())


@pytest.mark.parametrize("route", ["unit_phase", "exp"])
@pytest.mark.parametrize("size", ["8192", "512x512"])
def test_phase(benchmark, size, route):
    theta = _carrier_angle(size)
    out = np.empty(theta.shape, complex)  # so no route times the allocator's state
    if route == "exp":
        z = benchmark(lambda: np.exp(np.multiply(theta, 1j, out=out), out=out))
    else:
        z = benchmark(grid_module.unit_phase, theta, out)
    assert z.shape == theta.shape


def _reference(name: str) -> dict:
    return json.loads((Path(__file__).resolve().parents[1] / "configs"
                       / f"{name}.json").read_text())


_reference_1d = functools.partial(_reference, "reference_1d")
_reference_2d = functools.partial(_reference, "reference_2d")


def _four_mode_256() -> dict:
    def mode(kappa):
        return {"kappa": kappa, "profile": {"type": "gaussian", "amplitude": 1.0,
                                            "center": [0.0, 0.0], "width": 0.75}}
    return {"dimension": 2, "gamma": 0.5, "lambda": 1.0, "box_length": 16.0,
            "points": 256,
            "modes": [mode([-2.0, 0.0]), mode([2.0, 0.0]), mode([0.0, -2.0]),
                      mode([0.0, 2.0])],
            "dt_factor": 0.1, "output": "unused"}


# family -> (run document, eps, sample time)
RECORD_CASES = {
    "two_mode_8192": (_reference_1d, 0.025, 0.25),
    "four_mode_256x256": (_four_mode_256, 0.15, 0.0625),
}


def _record_config(family: str, cases: dict = RECORD_CASES):
    document, eps, t = cases[family]
    doc = document()
    doc.update(epsilons=[eps], final_time=t, sample_times=[t])
    return parse_config(doc)


@pytest.mark.parametrize("family", sorted(RECORD_CASES))
def test_record(benchmark, fft_calls, monkeypatch, family):
    cfg = _record_config(family)
    run = harness._start(cfg, cfg.epsilons[0])
    t = cfg.sample_times[0]
    khat_half = half_multiplier(cfg.kernel, cfg.grid, cfg.kernel.coupling)
    assert harness._advance(cfg, khat_half, 0.0, t, run) is None
    amps = snapshot(cfg.family, t, cfg.kernel)
    halves = tuple(a.copy() for a in amps)
    harness._half_laplacians(cfg.family, halves, cfg.kernel)
    buffers = {}

    def record():
        harness._record(cfg, amps, t, buffers, run)
        harness._z2_norms(cfg, halves, t, buffers, run)

    record()  # makes this thread's field buffers

    fft_calls.clear()
    record()
    monkeypatch.undo()
    benchmark.extra_info["fft_calls_per_record"] = len(fft_calls.passes())
    # state inverse, the error's and r's and Z2's Wiener norms, the
    # remainder's real convolution pair: six transforms over d axes each
    assert fft_calls.axis_passes() == 6 * cfg.grid.d
    benchmark(record)


def _fft_calls_and_peak(fft_calls, monkeypatch, call, grid) -> tuple:
    """FFT calls of one `call()`, left in `fft_calls`, and its traced peak
    over its entry, in complex128 fields of `grid`."""
    fft_calls.clear()
    call()
    monkeypatch.undo()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return len(fft_calls.passes()), round(peak / (16 * grid.total_points), 3)


# family -> (run document, eps, sample time)
SNAPSHOT_CASES = {
    "two_mode_512x512": (_reference_2d, 0.05, 0.25),
    "four_mode_256x256": (_four_mode_256, 0.15, 0.0625),
}


@pytest.mark.parametrize("family", sorted(SNAPSHOT_CASES))
def test_snapshot(benchmark, fft_calls, monkeypatch, family):
    cfg = _record_config(family, SNAPSHOT_CASES)
    call = functools.partial(snapshot, cfg.family, cfg.sample_times[0], cfg.kernel)
    call()  # memoized multiplier, FFT plan caches
    calls, peak = _fft_calls_and_peak(fft_calls, monkeypatch, call, cfg.grid)
    benchmark.extra_info.update(fft_calls_per_call=calls, peak_state_arrays=peak)
    # per mode a density spectrum, the phase inverse and translate's pair
    assert fft_calls.axis_passes() == 4 * cfg.grid.d * len(cfg.family.modes)
    benchmark(call)


def test_start(benchmark, fft_calls, monkeypatch):
    cfg = _record_config("two_mode_512x512", SNAPSHOT_CASES)
    call = functools.partial(harness._start, cfg, cfg.epsilons[0])
    call()
    calls, peak = _fft_calls_and_peak(fft_calls, monkeypatch, call, cfg.grid)
    benchmark.extra_info.update(fft_calls_per_call=calls, peak_state_arrays=peak)
    assert calls == 1  # the spectrum
    benchmark(call)


NORM_LAYERS = {"_norms_in_place": 1, "_graded_norm": 0}  # FFT calls


@pytest.mark.parametrize("layer", sorted(NORM_LAYERS))
@pytest.mark.parametrize("size", ["8192", "512x512"])
def test_norms(benchmark, fft_calls, monkeypatch, size, layer):
    grid, gamma, eps = CASES[size]
    samples = _packets(grid, eps).astype(np.complex128)
    buf = np.empty_like(samples)
    call = {
        "_norms_in_place": functools.partial(_norms_in_place, buf, grid),
        "_graded_norm": functools.partial(_graded_norm, np.fft.fftn(samples), grid,
                                          KernelSpec(d=grid.d, gamma=gamma)),
    }[layer]

    def refill():  # `_norms_in_place` transforms its field in place
        np.copyto(buf, samples)
        return (), {}

    def refilled():
        refill()
        return call()

    refilled()  # FFT plan caches
    calls, peak = _fft_calls_and_peak(fft_calls, monkeypatch, refilled, grid)
    benchmark.extra_info.update(fft_calls_per_call=calls, peak_state_arrays=peak)
    assert calls == NORM_LAYERS[layer]
    benchmark.pedantic(call, setup=refill, rounds=20)


@pytest.fixture(scope="module")
def reference_2d_result():
    return harness.run_sweep(parse_config(_reference_2d()))


def test_persist(benchmark, fft_calls, monkeypatch, tmp_path, reference_2d_result):
    call = functools.partial(harness.persist, reference_2d_result, tmp_path)
    fft_calls.clear()
    paths = call()
    monkeypatch.undo()
    benchmark.extra_info.update(fft_calls_per_call=len(fft_calls.passes()),
                                bytes_written=sum(p.stat().st_size for p in paths.values()))
    assert len(fft_calls) == 0 and len(paths) == 3
    benchmark(call)


UNIT_FAULTS = """\
import json, resource, sys
from hartreelab import harness
from hartreelab.config import parse_config
cfg = parse_config(json.loads(sys.argv[1]))
harness.run_sweep(cfg)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
harness.run_sweep(cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
"""


def test_sweep_unit(benchmark, child_env):
    doc = _four_mode_256()
    doc.update(epsilons=[0.3, 0.2, 0.15], final_time=0.5,
               sample_times=[0.0625 * i for i in range(1, 9)])
    out = subprocess.run([sys.executable, "-c", UNIT_FAULTS, json.dumps(doc)], env=child_env,
                         capture_output=True, text=True, check=True)
    benchmark.extra_info["minor_faults_per_unit"] = int(out.stdout)
    cfg = parse_config(doc)
    result = benchmark.pedantic(harness.run_sweep, args=(cfg,), rounds=3, warmup_rounds=1)
    assert not result.failures and len(result.records) == 24


def test_control(benchmark, control):
    benchmark(control)
