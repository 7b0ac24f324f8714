"""The JSON run file: schema, defaults, cross-field validation and echo.

Schema (all keys required unless marked optional, every number finite):

    {
      "dimension": int,                  1, 2 or 3
      "gamma": float,                    0 < gamma < dimension
      "lambda": float,                   coupling
      "box_length": float,               in LENGTH_RANGE
      "points": int,                     power of two per axis
      "modes": [
        {"kappa": [float, ...],
         "profile": {"type": "gaussian", "amplitude": float,
                     "center": [float, ...], "width": float}
                 or {"type": "table", "values": [float, ...]}},
        ...
      ],
      "epsilons": [float, ...],          strictly decreasing, in LENGTH_RANGE
      "final_time": float,
      "sample_times": [float, ...],      in (0, final_time], increasing
      "dt_factor": float,                optional, default 0.1, in (0, 0.25]
      "output": str
    }

A Gaussian width lies in LENGTH_RANGE and each center component within
its top in size; so does each eps, which sets the wavelength
2 pi eps / |kappa| (the kinetic angle eps dt |xi|^2 stays finite).  A
table profile's values are a flat list, one per grid point.  Keys
outside the schema are ignored.
`SweepConfig.to_json_dict` echoes a configuration in this schema, table
values included, so `parse_config` reloads an echo to the same
configuration.

Every cross-field rule (resolution, containment, mode separation, the
range of each amplitude's peak modulus, the step budget) is checked at
load time so a bad configuration fails before any compute, with the
violated rule named in the message.  Each rule is checked once, by the
object that owns it (`dt_factor` by `solver.SolverParams`, for every
eps); `parse_config` checks the JSON types and the length range of the
box length, of each eps and of each Gaussian width and center, before
any sampling.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .grid import GaussianProfile, Grid, TableProfile
from .kernel import KernelSpec
from .solver import DT_FACTOR, SolverParams, step_count
from .wkb import ModeFamily, check_containment, check_resolution

AMPLITUDE_RANGE = (1e-100, 1e100)  # the cube of a peak stays a normal float64
# box length and Gaussian width (|center| up to its top): every squared
# distance, and its ratio to a squared width, stays a finite float64
LENGTH_RANGE = (1e-50, 1e50)
STEP_BUDGET = 10**6  # Strang steps of the sweep schedule, over all eps


class ConfigError(ValueError):
    """A configuration file violates the schema or a cross-field rule."""


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: kernel, modes, grid, epsilon ladder, schedule, output."""

    grid: Grid
    kernel: KernelSpec
    family: ModeFamily
    epsilons: tuple
    final_time: float
    sample_times: tuple
    dt_factor: float = DT_FACTOR
    output: str = None
    threads: int = 1
    seed: int = 0

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        object.__setattr__(self, "epsilons", eps)
        if not eps or any(e <= 0 for e in eps):
            raise ValueError("epsilons must be a nonempty list of positive values")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilons must be strictly decreasing")
        samples = tuple(float(t) for t in self.sample_times)
        object.__setattr__(self, "sample_times", samples)
        if not samples or any(t <= 0 or t > self.final_time * (1 + 1e-12)
                                  for t in samples):
            raise ValueError("sample times must be nonempty and lie in (0, final_time]")
        if any(b <= a for a, b in zip(samples, samples[1:])):
            raise ValueError("sample times must be strictly increasing")
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.family.grid != self.grid:
            raise ValueError("mode family grid differs from the sweep grid")
        if self.kernel.d != self.grid.d:
            raise ValueError("kernel dimension differs from the grid dimension")
        lo, hi = AMPLITUDE_RANGE
        for m in self.family.modes:
            # the remainder and its constant's denominator scale like the
            # cube of the peak, and a zero peak leaves no rate to fit
            peak = float(abs(m.alpha).max())
            if not lo <= peak <= hi:
                raise ValueError(f"an initial amplitude peaks at {peak:.3g}, outside "
                                 f"[{lo:g}, {hi:g}] (amplitude range rule)")
        steps = 0.0  # in floats: a tiny dt_factor's count may pass the float range
        for e in eps:
            params = SolverParams.largest_step(e, self.final_time, self.dt_factor)
            steps += sum(step_count(b - a, params) for a, b in zip((0.0, *samples), samples))
            check_resolution(self.family, e)
            if len(self.family.modes) > 1:
                check_resolution(self.family, e, for_remainder=True)
        if steps > STEP_BUDGET:
            raise ValueError(f"the schedule asks for {steps:.4g} Strang steps over all "
                             f"eps, above the budget of {STEP_BUDGET:.0e} (step budget rule)")
        check_containment(self.family, self.final_time)

    def to_json_dict(self) -> dict:
        """Canonical echo of the configuration in the run-file schema."""
        modes = []
        for m in self.family.modes:
            profile = m.profile
            if isinstance(profile, GaussianProfile):
                profile = {
                    "type": "gaussian",
                    "amplitude": float(profile.amplitude),
                    "center": [float(c) for c in profile.center],
                    "width": float(profile.width),
                }
            else:
                # the sampled amplitude is the table itself
                values = m.alpha.ravel().tolist()
                profile = {"type": "table", "values": values}
            modes.append({"kappa": [float(k) for k in m.kappa], "profile": profile})
        return {
            "dimension": self.grid.d,
            "gamma": self.kernel.gamma,
            "lambda": self.kernel.coupling,
            "box_length": self.grid.length,
            "points": self.grid.points,
            "modes": modes,
            "epsilons": list(self.epsilons),
            "final_time": self.final_time,
            "sample_times": list(self.sample_times),
            "dt_factor": self.dt_factor,
            "output": self.output,
        }


def _need(doc: dict, key: str):
    if key not in doc:
        raise ConfigError(f"missing required key '{key}'")
    return doc[key]


def _is_number(v) -> bool:
    """A finite JSON number: NaN, Infinity and ints past the float range fail."""
    numeric = isinstance(v, (int, float)) and not isinstance(v, bool)
    return numeric and abs(v) <= sys.float_info.max


def _number(doc: dict, key: str) -> float:
    v = _need(doc, key)
    if not _is_number(v):
        raise ConfigError(f"'{key}' must be a finite number, got {v!r}")
    return float(v)


def _length(value: float, key: str, signed: bool = False) -> float:
    """`value` if its size lies in LENGTH_RANGE (a signed one may also be 0)."""
    lo, hi = LENGTH_RANGE
    if not (abs(value) <= hi if signed else lo <= value <= hi):
        bounds = f"|{key}| <= {hi:g}" if signed else f"[{lo:g}, {hi:g}]"
        raise ConfigError(f"'{key}' is {value:g}, outside {bounds} (length range rule)")
    return value


def _number_list(doc: dict, key: str) -> list:
    v = _need(doc, key)
    if not isinstance(v, list) or not all(_is_number(x) for x in v):
        raise ConfigError(f"'{key}' must be a list of finite numbers")
    return [float(x) for x in v]


def _integer(doc: dict, key: str) -> int:
    v = _need(doc, key)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"'{key}' must be an integer, got {type(v).__name__}")
    return v


def _object(v, what: str) -> dict:
    if not isinstance(v, dict):
        raise ConfigError(f"{what} must be an object")
    return v


def _vector(obj: dict, key: str, d: int) -> list:
    v = _need(obj, key)
    if not isinstance(v, list) or len(v) != d or not all(_is_number(c) for c in v):
        raise ConfigError(
            f"'{key}' must be a list of {d} finite numbers matching the dimension"
        )
    return [float(c) for c in v]


def _parse_profile(profile: dict, d: int):
    kind = profile.get("type")
    if kind == "gaussian":
        center = [_length(c, "center", signed=True) for c in _vector(profile, "center", d)]
        return GaussianProfile(amplitude=_number(profile, "amplitude"), center=center,
                               width=_length(_number(profile, "width"), "width"))
    if kind == "table":
        return TableProfile(values=_number_list(profile, "values"))
    raise ConfigError(f"unknown profile type {kind!r}")


def parse_config(doc: dict, threads: int = 1, seed: int = 0) -> SweepConfig:
    try:
        doc = _object(doc, "configuration root")
        d = _integer(doc, "dimension")
        gamma = _number(doc, "gamma")
        coupling = _number(doc, "lambda")
        length = _length(_number(doc, "box_length"), "box_length")
        grid = Grid(d=d, length=length, points=_integer(doc, "points"))
        kernel = KernelSpec(d=d, gamma=gamma, coupling=coupling)
        modes = _need(doc, "modes")
        if not isinstance(modes, list):
            raise ConfigError("'modes' must be a list")
        entries = []
        for entry in modes:
            entry = _object(entry, "each mode")
            kappa = _vector(entry, "kappa", d)
            profile = _object(_need(entry, "profile"), "each mode's 'profile'")
            entries.append((kappa, _parse_profile(profile, d)))
        epsilons = [_length(e, "epsilons") for e in _number_list(doc, "epsilons")]
        sample_times = _number_list(doc, "sample_times")
        final_time = _number(doc, "final_time")
        dt_factor = _number(doc, "dt_factor") if "dt_factor" in doc else DT_FACTOR
        output = _need(doc, "output")
        if not isinstance(output, str):
            raise ConfigError("'output' must be a string path")
        return SweepConfig(
            grid=grid,
            kernel=kernel,
            family=ModeFamily.from_profiles(grid, entries),
            epsilons=epsilons,
            final_time=final_time,
            sample_times=sample_times,
            dt_factor=dt_factor,
            output=output,
            threads=threads,
            seed=seed,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except OverflowError as exc:  # a derived constant, e.g. Gamma(gamma / 2)
        raise ConfigError(f"a value derived from the configuration overflows: {exc}") from exc


def load_config(path, threads: int = 1, seed: int = 0) -> SweepConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"configuration file not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("configuration is not valid JSON: nested too deeply") from exc
    except OSError as exc:
        raise ConfigError(f"configuration file cannot be read: {exc}") from exc
    return parse_config(doc, threads=threads, seed=seed)
