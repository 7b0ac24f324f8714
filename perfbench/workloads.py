"""Workload definitions, one workload unit, and the reference-output check.

Every workload runs on the sources in the checkout, single-threaded
(``threads=1``), one caller in a closed loop: a unit starts only when
the previous one has finished.  The sweeps take fixed inputs, so their
reference outputs hold for every seed; ``validate_1d`` draws its
property campaigns from the seed, and its reference is the set of
checks that pass, which holds for every seed as well.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
WORKDIR = ".perfbench"
# setup_s is corrected by a small 1-D control kernel run right after it
SETUP_CONTROL = {"shape": (8192,), "iters": 80, "ref_s": 0.085}
BETA_TOL = 1e-9  # absolute, the beta_fitted tolerance of the roadmap
ERR_REL_TOL = 1e-9  # relative, per-record err_l2w


@dataclass(frozen=True)
class Workload:
    kind: str  # "sweep" or "validate"
    config: str  # path relative to the checkout root, or "generated"
    why: str
    control_iters: int  # control-kernel steps, about a tenth of a unit's time
    control_ref_s: float  # the control's median time on the reference machine


WORKLOADS = {
    "sweep_1d": Workload(
        "sweep", "configs/reference_1d.json",
        "1D reference sweep: 8192-point arrays fit in L2, so per-step Python "
        "overhead weighs most; the solver dominates",
        control_iters=80, control_ref_s=0.085,
    ),
    "sweep_2d": Workload(
        "sweep", "configs/reference_2d.json",
        "2D reference sweep: 512x512 arrays exceed L2 and evolve's FFTs "
        "dominate; headline workload for the stepper",
        control_iters=28, control_ref_s=1.15,
    ),
    "sweep_2d_multimode": Workload(
        "sweep", "generated",
        "four-mode 256x256 sweep with 8 sample times: WKB snapshot, remainder "
        "and assemble dominate, evolve is a small share",
        control_iters=120, control_ref_s=0.85,
    ),
    "validate_1d": Workload(
        "validate", "configs/reference_1d.json",
        "validate suite with seeded campaigns: norms, kernel bounds and "
        "picard_evolve dominate; evolve is about 2%",
        control_iters=500, control_ref_s=0.43,
    ),
}


def multimode_config() -> dict:
    """Four Gaussian modes at kappa = (+-2, 0), (0, +-2) on 256^2, L = 16."""
    def mode(kappa):
        return {
            "kappa": kappa,
            "profile": {"type": "gaussian", "amplitude": 1.0,
                        "center": [0.0, 0.0], "width": 0.75},
        }
    return {
        "dimension": 2,
        "gamma": 0.5,
        "lambda": 1.0,
        "box_length": 16.0,
        "points": 256,
        "modes": [mode([-2.0, 0.0]), mode([2.0, 0.0]), mode([0.0, -2.0]), mode([0.0, 2.0])],
        "epsilons": [0.3, 0.2, 0.15],
        "final_time": 0.5,
        "sample_times": [0.0625 * i for i in range(1, 9)],
        "dt_factor": 0.1,
        "quadrature_nodes": 64,
        "output": f"{WORKDIR}/out/sweep_2d_multimode",
    }


def config_path(name: str, root: Path) -> Path:
    """Path of the workload's run file, writing the generated one if needed."""
    wl = WORKLOADS[name]
    if wl.config != "generated":
        return root / wl.config
    path = root / WORKDIR / "configs" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(multimode_config(), indent=2) + "\n")
    return path


def run_unit(hl, name: str, cfg, seed: int, out_dir: Path):
    """One workload unit: ``run_sweep`` plus ``persist``, or ``validate_suite``."""
    if WORKLOADS[name].kind == "sweep":
        result = hl.run_sweep(cfg)
        hl.persist(result, out_dir)
        return result
    return hl.validate_suite(cfg, seed=seed)


class Control:
    """Fixed split-step loop in plain numpy on an array of the workload's
    grid shape; it runs no hartreelab code.

    Each step makes the calls a Strang step of the seed's solver makes:
    three transform pairs, a convolution potential, a phase and two norms.
    A shared host speeds up and slows down for seconds at a time (whole
    runs of sweep_1d read 0.47 s or 0.76 s).  Timing this kernel next to
    every unit and dividing by it takes that drift out, because the drift
    slows both alike while a change to hartreelab moves only the unit.
    """

    def __init__(self, shape, iters: int):
        # imported here so that a child's timed setup still imports numpy
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.u0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self.kinetic = np.exp(-1j * rng.random(shape))
        self.kernel = rng.random(shape)
        self.iters = iters

    def __call__(self) -> float:
        np, u = self.np, self.u0
        guard = 0.0
        t = time.perf_counter()
        for _ in range(self.iters):
            u = np.fft.ifftn(np.fft.fftn(u) * self.kinetic)
            potential = np.fft.ifftn(self.kernel * np.fft.fftn(np.abs(u) ** 2)).real
            u = u * np.exp(-1e-3j * potential)
            raw = np.fft.fftn(u) * self.kinetic
            guard += math.sqrt(np.sum(np.abs(raw) ** 2)) + float(np.sum(np.abs(raw)))
            u = np.fft.ifftn(raw)
        elapsed = time.perf_counter() - t
        if not math.isfinite(guard):
            raise FloatingPointError("control kernel diverged")
        return elapsed


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def check_unit(name: str, cfg, output, ref: dict):
    """(attempted, failed, problems) for one unit's output.

    An operation is one eps solve of a sweep or one check of the validate
    suite.  ``output`` is the unit's result, or the exception it raised,
    in which case every operation of the unit failed.
    """
    if WORKLOADS[name].kind == "validate":
        names = sorted(ref["checks_passed"])
        if isinstance(output, BaseException):
            return len(names), len(names), [f"validate_suite raised {output!r}"]
        bad = [n for n in names if n not in output or not output[n].passed]
        return len(names), len(bad), [f"check {n} did not pass" for n in bad]

    eps_all = [float(e) for e in cfg.epsilons]
    if isinstance(output, BaseException):
        return len(eps_all), len(eps_all), [f"sweep raised {output!r}"]
    problems = []
    bad_eps = {float(e) for e in output.failures}
    problems += [f"eps={e:g} failed: {msg}" for e, msg in output.failures.items()]
    got = {(r.eps, r.t): r.err_l2w for r in output.records}
    for eps, t, err in ref["records"]:
        value = got.get((eps, t))
        if value is None or not math.isclose(value, err, rel_tol=ERR_REL_TOL, abs_tol=0.0):
            bad_eps.add(eps)
            problems.append(f"err_l2w at eps={eps:g}, t={t:g} is {value!r}, reference {err!r}")
    beta = output.beta_fitted
    if beta is None or abs(beta - ref["beta_fitted"]) > BETA_TOL:
        bad_eps.update(eps_all)
        problems.append(f"beta_fitted {beta!r}, reference {ref['beta_fitted']!r}")
    passed = sorted(n for n, c in output.checks.items() if c.passed)
    if passed != sorted(ref["checks_passed"]):
        bad_eps.update(eps_all)
        problems.append(f"sweep checks passing {passed}, reference {ref['checks_passed']}")
    return len(eps_all), len(bad_eps), problems


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    """Per-core data/unified cache sizes by level, from sysfs, in bytes."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
        out[f"L{level}_bytes"] = int(size.rstrip("KM")) * scale
    return out


def run_context(cfg) -> dict:
    """Machine, library versions and the workload's per-array working set."""
    import numpy
    import scipy

    caches = _cache_sizes()
    array_bytes = cfg.grid.total_points * 16  # one complex128 field
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": cfg.threads,
        "array_points": cfg.grid.total_points,
        "array_bytes": array_bytes,
        "array_vs_L2": array_bytes / caches["L2_bytes"] if "L2_bytes" in caches else None,
    }
