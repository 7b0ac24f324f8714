"""JSON run configurations: schema validation with rule-naming errors.

Schema (all keys required unless marked optional, every number finite):

    {
      "dimension": int,                  1, 2 or 3
      "gamma": float,                    0 < gamma < dimension
      "lambda": float,                   coupling
      "box_length": float,               > 0
      "points": int,                     power of two per axis
      "modes": [
        {"kappa": [float, ...],
         "profile": {"type": "gaussian", "amplitude": float,
                     "center": [float, ...], "width": float}},
        ...
      ],
      "epsilons": [float, ...],          strictly decreasing, positive
      "final_time": float,
      "sample_times": [float, ...],      in (0, final_time], increasing
      "dt_factor": float,                optional, default 0.1, in (0, 0.25]
      "quadrature_nodes": int,           optional, default 64, even >= 8
      "output": str
    }

Every cross-field rule (resolution, containment, mode separation) is
checked at load time so a bad configuration fails before any compute,
with the violated rule named in the message.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .grid import GaussianProfile, Grid, TableProfile
from .harness import SweepConfig
from .kernel import KernelSpec
from .wkb import ModeFamily


class ConfigError(ValueError):
    """A configuration file violates the schema or a cross-field rule."""


_REQUIRED = (
    "dimension",
    "gamma",
    "lambda",
    "box_length",
    "points",
    "modes",
    "epsilons",
    "final_time",
    "sample_times",
    "output",
)


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


def _number_list(doc: dict, key: str) -> tuple:
    v = _need(doc, key)
    if not isinstance(v, list) or not v:
        raise ConfigError(f"'{key}' must be a nonempty list")
    if not all(_is_number(x) for x in v):
        raise ConfigError(f"'{key}' entries must be finite numbers")
    return tuple(float(x) for x in v)


def _integer(doc: dict, key: str) -> int:
    v = _need(doc, key)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"'{key}' must be an integer, got {type(v).__name__}")
    return v


def _vector(obj, key: str, d: int) -> list:
    v = obj.get(key)
    if not isinstance(v, list) or len(v) != d or not all(_is_number(c) for c in v):
        raise ConfigError(
            f"'{key}' must be a list of {d} finite numbers matching the dimension"
        )
    return [float(c) for c in v]


def _parse_profile(entry: dict, d: int):
    profile = entry.get("profile")
    if not isinstance(profile, dict):
        raise ConfigError("each mode needs a 'profile' object")
    kind = profile.get("type")
    if kind == "gaussian":
        for k in ("amplitude", "center", "width"):
            if k not in profile:
                raise ConfigError(f"gaussian profile missing '{k}'")
        amplitude = _number(profile, "amplitude")
        width = _number(profile, "width")
        if width <= 0:
            raise ConfigError(
                f"gaussian width must be positive (width constraint), got {width}"
            )
        if amplitude == 0:
            # a zero mode leaves no resonant remainder to fit a rate to
            raise ConfigError("gaussian amplitude must be nonzero")
        return GaussianProfile(
            amplitude=amplitude,
            center=tuple(_vector(profile, "center", d)),
            width=width,
        )
    if kind == "table":
        values = profile.get("values")
        if not isinstance(values, list) or not all(_is_number(x) for x in values):
            raise ConfigError("table profile needs a 'values' list of finite numbers")
        return TableProfile(values=values)
    raise ConfigError(f"unknown profile type {kind!r}")


def parse_config(doc: dict, threads: int = 1, seed: int = 0) -> SweepConfig:
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be a JSON object")
    for key in _REQUIRED:
        _need(doc, key)

    d = _integer(doc, "dimension")
    if d not in (1, 2, 3):
        raise ConfigError(f"dimension must be 1, 2 or 3, got {d}")
    gamma = _number(doc, "gamma")
    if not 0 < gamma < d:
        raise ConfigError(
            f"gamma must satisfy 0 < gamma < dimension (gamma constraint), "
            f"got gamma={gamma} with dimension={d}"
        )
    coupling = _number(doc, "lambda")
    length = _number(doc, "box_length")
    points = _integer(doc, "points")

    try:
        grid = Grid(d=d, length=length, points=points)
        kernel = KernelSpec(d=d, gamma=gamma, coupling=coupling)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    modes_doc = _need(doc, "modes")
    if not isinstance(modes_doc, list) or not modes_doc:
        raise ConfigError("'modes' must be a nonempty list")
    entries = []
    for entry in modes_doc:
        if not isinstance(entry, dict):
            raise ConfigError("each mode must be an object")
        kappa = _vector(entry, "kappa", d)
        entries.append((kappa, _parse_profile(entry, d)))

    epsilons = _number_list(doc, "epsilons")
    sample_times = _number_list(doc, "sample_times")
    final_time = _number(doc, "final_time")
    dt_factor = _number(doc, "dt_factor") if "dt_factor" in doc else 0.1
    nodes = doc.get("quadrature_nodes", 64)
    if not isinstance(nodes, int) or nodes < 8 or nodes % 2:
        raise ConfigError(
            f"quadrature_nodes must be an even integer >= 8, got {nodes}"
        )
    output = _need(doc, "output")
    if not isinstance(output, str):
        raise ConfigError("'output' must be a string path")

    try:
        family = ModeFamily.from_profiles(grid, entries, gamma)
        return SweepConfig(
            grid=grid,
            kernel=kernel,
            family=family,
            epsilons=epsilons,
            final_time=final_time,
            sample_times=sample_times,
            dt_factor=dt_factor,
            quadrature_nodes=nodes,
            output=output,
            threads=threads,
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path, threads: int = 1, seed: int = 0) -> SweepConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"configuration file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    return parse_config(doc, threads=threads, seed=seed)
