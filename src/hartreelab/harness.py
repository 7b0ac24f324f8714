"""Sweep orchestration: numerics vs asymptotics, rate fitting, artifacts.

A sweep runs the full integrator and the WKB construction side by side
over a decreasing list of eps, records error norms at the sample times,
fits the log-log decay rate, and compares it against the guaranteed
exponent beta = min(1, d - gamma).  The guarantee is an upper bound
with an unquantified constant, so the acceptance stance is
"fitted slope >= beta - 0.15", never "slope == beta".

Both entry points take a `config.SweepConfig`; the run file, its
defaults and its rules belong to `config`, not here.

The eps run in lockstep: between sample times each eps holds only its
raw spectrum and t = 0 scalars.  At each t every eps is advanced, one
WKB snapshot (with its eps-free terms (1/2) Lap a_j and ||a(t)||_E) is
built, each eps assembles one u_app for its error and remainder, and
the snapshot is dropped before the next advance.  `--threads N` maps
each time's per-eps advances and records over N threads.

A record works in two complex field buffers, U and A, instead of fresh
full-size arrays, passed as the `out=`/`scratch=` of the public `wkb`
record terms: u_app goes into U; u - u_app, then r, pass through A
(the state as the spectrum's inverse transform written into A, since
the spectrum must survive for the next advance); Z2 then takes U.  Each
field's L2 sum is read before its forward transform overwrites it.  The
buffers live from a time's snapshot to that time's last record and are
dropped with the snapshot; every worker thread has its own pair.

The validation campaigns draw and check their fields in stacks of
`Grid.block_rows`.  Each field draws only the coefficients inside its
band, so a stack reads the random stream a field-by-field loop reads.
A campaign draws every block into one buffer, the last, partial one
into a leading slice; the algebra products form in place in it.

Artifacts: a CSV of per-(eps, t) records, a JSON summary embedding the
full configuration, and a standalone SVG log-log plot with one data
polyline per sample time and a single reference line at slope beta.
Outputs are deterministic: fixed orders, 17-significant-digit floats,
no timestamps.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import SweepConfig
from .grid import Field, Grid, translate
from .kernel import (
    KernelSpec,
    half_multiplier,
    hartree_constant,
    hartree_constant_oracle,
)
from .norms import l2w_norm, _wiener_from_modulus
from .norms import _algebra_bounds, _hartree_bounds, _l2, _norms_from_raw_fft, _wiener
from .solver import DivergenceError, SolverParams, advance, evolve
from .solver import picard_evolve
from .wkb import (
    ansatz_residual,
    assemble,
    check_resolution,
    initial_data,
    resonant_remainder,
    snapshot,
    transport_residual,
    z2_term,
)

CSV_COLUMNS = ("eps", "t", "err_l2", "err_w", "err_l2w", "r_norm", "z2_norm", "mass_drift")


def expected_rate(d: int, gamma: float) -> float:
    """beta = min(1, d - gamma)."""
    if not 0 < gamma < d:
        raise ValueError(f"gamma must lie in (0, {d}), got {gamma}")
    return min(1.0, d - gamma)


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    residual: float


def fit_rate(points) -> RateFit:
    """Ordinary least squares of log(err) on log(eps)."""
    pts = [(float(e), float(v)) for e, v in points]
    if len(pts) < 2:
        raise ValueError(f"need at least two points to fit a rate, got {len(pts)}")
    if any(e <= 0 or v <= 0 for e, v in pts):
        raise ValueError("rate fitting requires strictly positive entries")
    x = np.log([e for e, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    misfit = y - (slope * x + intercept)
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        residual=float(np.sqrt(np.mean(misfit**2))),
    )


@dataclass(frozen=True)
class SweepRecord:
    eps: float
    t: float
    err_l2: float
    err_w: float
    err_l2w: float
    r_norm: float
    z2_norm: float
    mass_drift: float


@dataclass(frozen=True)
class CheckOutcome:
    passed: bool
    margin: float
    detail: str = ""


def _below(value: float, tol: float, detail: str) -> CheckOutcome:
    """Passes iff value < tol, with the normalized headroom as margin."""
    return CheckOutcome(passed=value < tol, margin=(tol - value) / tol, detail=detail)


@dataclass(frozen=True, eq=False)
class SweepResult:
    records: tuple
    beta_expected: float
    beta_fitted: float
    c_fitted: float
    fit_residual: float
    checks: dict
    failures: dict
    config: SweepConfig


@dataclass(eq=False)
class _EpsRun:
    """One eps between sample times: raw spectrum, t = 0 scalars, records."""

    eps: float
    params: SolverParams
    raw: np.ndarray
    norm0: float
    mass0: float
    init_err: float
    mass: float = None
    records: list = field(default_factory=list)


def _start(cfg: SweepConfig, snap0, eps: float) -> _EpsRun:
    """Initial data of one eps, its t = 0 error and its raw spectrum."""
    u0 = initial_data(cfg.family, eps)
    init_err = l2w_norm(u0 - Field._adopt(cfg.grid, assemble(cfg.family, snap0, eps)))
    params = SolverParams.largest_step(eps, cfg.final_time, cfg.dt_factor)
    raw = np.fft.fftn(u0.values)
    l2_0, w_0 = _norms_from_raw_fft(raw, cfg.grid)
    return _EpsRun(eps, params, raw, l2_0 + w_0, l2_0, init_err)


def _advance(cfg: SweepConfig, khat_half, t_prev: float, t: float, run: _EpsRun):
    """Step one eps to t; its DivergenceError is returned, not raised."""
    try:
        run.raw, run.mass = advance(run.raw, cfg.grid, khat_half, run.params,
                                    t_prev, t, run.norm0)
    except DivergenceError as exc:
        return exc


def _field_pair(buffers: threading.local, grid: Grid) -> tuple:
    """This thread's two complex field buffers in `buffers`, made on first use."""
    pair = getattr(buffers, "pair", None)
    if pair is None:
        pair = buffers.pair = tuple(np.empty(grid.shape, dtype=np.complex128)
                                    for _ in range(2))
    return pair


def _norms_in_place(values: np.ndarray, grid: Grid) -> tuple:
    """(L2, Wiener) of a field whose samples may be overwritten: the forward
    transform for the Wiener norm lands in `values`."""
    l2 = _l2(values, grid)
    return l2, _wiener(np.fft.fftn(values, out=values), grid)


@np.errstate(over="ignore", invalid="ignore")  # the finite check below reports it
def _record(cfg: SweepConfig, snap, buffers: threading.local, run: _EpsRun):
    """Errors, remainder and Z2 of one eps at the snapshot's time, in the
    calling thread's field pair (U, A) of `buffers`: u_app in U serves the
    error and the remainder, each measured field passes through A, and Z2
    takes U once u_app is spent."""
    eps, g = run.eps, cfg.grid
    u, a = _field_pair(buffers, g)
    u_app = assemble(cfg.family, snap, eps, out=u, scratch=a)
    err = np.fft.ifftn(run.raw, out=a)  # the spectrum stays for the next advance
    err_l2, err_w = _norms_in_place(np.subtract(err, u_app, out=err), g)
    r_l2, r_w = _norms_in_place(
        resonant_remainder(cfg.family, snap, eps, cfg.kernel, u_app, out=a), g)
    z2_l2, z2_w = _norms_in_place(z2_term(cfg.family, snap, eps, out=u, scratch=a), g)
    norms = (err_l2, err_w, r_l2, r_w, z2_l2, z2_w)
    if not all(map(math.isfinite, norms)):
        raise FloatingPointError(f"a record field at eps = {eps}, t = {snap.t} "
                                 "contains non-finite entries")
    drift = abs(run.mass - run.mass0) / run.mass0
    run.records.append(SweepRecord(eps, snap.t, err_l2, err_w, err_l2 + err_w,
                                   r_l2 + r_w, z2_l2 + z2_w, drift))


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Advance every eps in lockstep through the sample times, fit the rate,
    check bounds."""
    khat_half = half_multiplier(cfg.kernel, cfg.grid, cfg.kernel.coupling)
    failures, e_norms = {}, {}
    with ThreadPoolExecutor(cfg.threads) if cfg.threads > 1 else nullcontext() as pool:
        each = pool.map if pool else map
        snap = snapshot(cfg.family, 0.0, cfg.kernel)
        runs = list(each(functools.partial(_start, cfg, snap), cfg.epsilons))
        init_errs = {run.eps: run.init_err for run in runs}  # failed eps count too
        t_prev = 0.0
        for t in cfg.sample_times:
            del snap  # one snapshot with its terms at a time, none while stepping
            step = functools.partial(_advance, cfg, khat_half, t_prev, t)
            outcomes = list(each(step, runs))
            failures.update((r.eps, str(x)) for r, x in zip(runs, outcomes) if x)
            runs = [r for r, x in zip(runs, outcomes) if not x]
            if not runs:
                break
            snap = snapshot(cfg.family, t, cfg.kernel)
            e_norms[t] = snap.e_norm
            buffers = threading.local()  # a field pair per worker, this time only
            list(each(functools.partial(_record, cfg, snap, buffers), runs))
            del buffers
            t_prev = t

    # deterministic order: config order, then t ascending
    records = [r for run in runs for r in run.records]
    worst = [(run.eps, max(r.err_l2w for r in run.records)) for run in runs]

    beta_expected = expected_rate(cfg.kernel.d, cfg.kernel.gamma)
    if len(worst) >= 2:
        fit = fit_rate(worst)
        beta_fitted = fit.slope
        c_fitted = math.exp(fit.intercept)
        fit_residual = fit.residual
    else:
        beta_fitted = c_fitted = fit_residual = None

    checks = _sweep_checks(cfg, records, init_errs, beta_expected, beta_fitted, worst,
                           e_norms)
    return SweepResult(
        records=tuple(records),
        beta_expected=beta_expected,
        beta_fitted=beta_fitted,
        c_fitted=c_fitted,
        fit_residual=fit_residual,
        checks=checks,
        failures=failures,
        config=cfg,
    )


def _sweep_checks(cfg, records, init_errs, beta_expected, beta_fitted, worst,
                  e_norms) -> dict:
    """Bound checks on the measured records; margins are normalized
    headroom (tolerance - measured) / tolerance, passing iff >= 0.
    init_errs maps every eps, failed or not, to its t = 0 error; e_norms
    maps each sample time with records to ||a(t)||_E."""
    checks = {}

    init_worst = max(init_errs.values())
    checks["initial_exactness"] = _below(
        init_worst, 1e-12, f"max t=0 error {init_worst:.3e}"
    )

    if beta_fitted is not None:
        floor = beta_expected - 0.15
        checks["rate_lower_bound"] = CheckOutcome(
            passed=beta_fitted >= floor,
            margin=(beta_fitted - floor) / max(beta_expected, 1e-12),
            detail=f"fitted {beta_fitted:.4f} vs floor {floor:.4f}",
        )
        drops = [
            worst[i + 1][1] < worst[i][1] for i in range(len(worst) - 1)
        ]
        checks["error_monotone"] = CheckOutcome(
            passed=all(drops),
            margin=1.0 if all(drops) else -1.0,
            detail=f"{sum(drops)}/{len(drops)} consecutive drops",
        )

    z2_ok, z2_margin = True, math.inf
    for r in records:
        limit = e_norms[r.t] * (1 + 1e-6)
        z2_ok &= r.z2_norm <= limit
        z2_margin = min(z2_margin, (limit - r.z2_norm) / limit)
    checks["z2_bound"] = CheckOutcome(
        passed=z2_ok,
        margin=z2_margin if records else 0.0,
        detail="||Z2|| <= ||a||_E at every record",
    )

    if len(cfg.family.modes) > 1 and len(worst) >= 2:
        d, gamma = cfg.kernel.d, cfg.kernel.gamma
        spreads = []
        for t in cfg.sample_times:
            consts = [
                r.r_norm
                / (cfg.family.delta ** (gamma - d) * e_norms[t] ** 3 * r.eps ** (d - gamma))
                for r in records
                if r.t == t
            ]
            mean = sum(consts) / len(consts)
            spreads.append(max(abs(c - mean) / mean for c in consts))
        checks["remainder_constant_stable"] = CheckOutcome(
            passed=max(spreads) <= 0.2,
            margin=(0.2 - max(spreads)) / 0.2,
            detail=f"max spread {max(spreads):.3f} over sample times",
        )
        r_fit = fit_rate(
            [(e, max(r.r_norm for r in records if r.eps == e)) for e, _ in worst]
        )
        checks["remainder_rate"] = CheckOutcome(
            passed=abs(r_fit.slope - (d - gamma)) <= 0.15,
            margin=(0.15 - abs(r_fit.slope - (d - gamma))) / 0.15,
            detail=f"fitted {r_fit.slope:.4f} vs d-gamma {d - gamma:.4f}",
        )
    return checks


# ---------------------------------------------------------------------------
# validation suite


def _random_band_limited(grid: Grid, rng, cutoff: int, *lead, out=None) -> tuple:
    """Stack (*lead, *grid.shape) of random fields with spectra inside
    |k| <= cutoff and peak modulus one, and the (*lead) Wiener norms of
    the fields.

    Only the band is drawn: iid N(0, 1) real and imaginary parts,
    interleaved (re, im) per coefficient, the coefficients in C order
    over the box |k| <= cutoff (k = 0..c, then -c..-1 per axis) and one
    field after the other, so a stack reads the stream as a loop of
    one-field draws does.  Every other coefficient is an exact zero.
    The band lands in the lattice as 2^d slabs, the k >= 0 and k < 0
    halves of every axis.  A cutoff above N/4 - 1 is rejected: below it
    the pointwise product of two drawn fields carries no aliased content.
    Each Wiener norm is read off the drawn band, times the field's 1/peak
    scale.  `out`, a complex buffer of the stack's shape, is zeroed and
    drawn into in place.
    """
    n = grid.points
    if cutoff > n // 4 - 1:
        raise ValueError(f"band cutoff {cutoff} exceeds the anti-aliasing cutoff "
                         f"|k| <= {n // 4 - 1}; the discrete product would alias")
    band = rng.standard_normal((*lead, *(2 * cutoff + 1,) * grid.d, 2))
    band = band.view(np.complex128)[..., 0]
    w = _wiener_from_modulus(np.abs(band), grid)
    coef = np.empty((*lead, *grid.shape), dtype=np.complex128) if out is None else out
    coef.fill(0)
    lo, hi = cutoff + 1, cutoff
    halves = ((slice(0, lo), slice(0, lo)), (slice(lo, lo + hi), slice(n - hi, n)))
    for slabs in itertools.product(halves, repeat=grid.d):
        coef[(..., *(dst for _, dst in slabs))] = band[(..., *(src for src, _ in slabs))]
    del band
    axes = tuple(range(-grid.d, 0))
    vals = np.fft.ifftn(coef, axes=axes, out=coef)
    peak = np.max(np.abs(vals), axis=axes, keepdims=True)
    peak[peak == 0] = 1.0  # an all-zero field stays zero
    scale = 1.0 / peak
    parts = vals.view(np.float64)  # numpy divides complex by real as a * (1 / c)
    parts *= scale
    return vals, w * scale.reshape(lead)


@functools.lru_cache(maxsize=4)
def _density_envelope(grid: Grid) -> np.ndarray:
    """Gaussian envelope of width L/12 for the random densities, read-only."""
    r2 = np.zeros(grid.shape)
    for ax in grid.coords():
        r2 = r2 + ax**2
    envelope = np.exp(-r2 / (2 * (grid.length / 12) ** 2))
    envelope.setflags(write=False)
    return envelope


def _random_smooth_density(grid: Grid, rng, *lead, out=None) -> np.ndarray:
    """Stack (*lead, *grid.shape) of nonnegative, smooth, decaying
    densities: |band-limited field (drawn into `out`)|^2 under a Gaussian
    envelope."""
    base, _ = _random_band_limited(grid, rng, max(2, grid.points // 16), *lead, out=out)
    return np.abs(base) ** 2 * _density_envelope(grid)


def _algebra_campaign(grid: Grid, rng, pairs: int):
    """Algebra reports of `pairs` random alias-free pairs, in blocks in one buffer."""
    rows, cutoff = grid.block_rows, grid.points // 4 - 1
    buf = np.empty((min(rows, pairs), 2, *grid.shape), dtype=np.complex128)
    for start in range(0, pairs, rows):
        block, w = _random_band_limited(grid, rng, cutoff, min(rows, pairs - start), 2,
                                        out=buf[:pairs - start])
        yield from _algebra_bounds(block, w, grid)


def _hartree_campaign(spec: KernelSpec, grid: Grid, rng, densities: int):
    """Hartree reports of `densities` random densities, in blocks in one buffer."""
    rows = grid.block_rows
    buf = np.empty((min(rows, densities), *grid.shape), dtype=np.complex128)
    for start in range(0, densities, rows):
        block = _random_smooth_density(grid, rng, min(rows, densities - start),
                                       out=buf[:densities - start])
        yield from _hartree_bounds(spec, block, grid)


def _campaign(reports, scale: float, what: str) -> CheckOutcome:
    """Violations and worst relative excess over a stream of bound reports;
    the margin is the worst excess in units of `scale`."""
    worst_excess, violations = -math.inf, 0
    for rep in reports:
        excess = (rep.lhs - rep.rhs) / rep.rhs if rep.rhs > 0 else 0.0
        worst_excess = max(worst_excess, excess)
        violations += not rep.holds
    return CheckOutcome(
        passed=violations == 0,
        margin=-worst_excess / scale if worst_excess > 0 else 1.0,
        detail=f"{violations} violations in {what}, worst excess {worst_excess:.3e}",
    )


def validate_suite(
    cfg: SweepConfig,
    algebra_pairs: int = 1000,
    hartree_pairs: int = 500,
    seed: int = None,
) -> dict:
    """Property campaigns plus cross-route consistency checks.

    Returns name -> CheckOutcome; failures are reported, never raised.
    """
    # ansatz_identity needs the remainder rule: fail before the campaigns
    check_resolution(cfg.family, cfg.epsilons[-1], for_remainder=True)
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    checks = {}

    c_formula = hartree_constant(cfg.kernel.d, cfg.kernel.gamma)
    c_oracle = hartree_constant_oracle(cfg.kernel.d, cfg.kernel.gamma)
    rel = abs(c_formula - c_oracle) / abs(c_oracle)
    checks["kernel_constant"] = CheckOutcome(
        passed=rel <= 1e-8,
        margin=(1e-8 - rel) / 1e-8,
        detail=f"relative deviation {rel:.3e}",
    )

    checks["algebra_bound"] = _campaign(
        _algebra_campaign(cfg.grid, rng, algebra_pairs), 1e-10, f"{algebra_pairs} pairs"
    )
    checks["hartree_bound"] = _campaign(
        _hartree_campaign(cfg.kernel, cfg.grid, rng, hartree_pairs),
        1e-6, f"{hartree_pairs} densities",
    )

    eps = cfg.epsilons[0]
    horizon = 0.1 * eps
    u0 = initial_data(cfg.family, eps)
    params = SolverParams(
        eps=eps, dt=min(cfg.dt_factor * eps, horizon / 64), final_time=horizon,
        dt_factor=cfg.dt_factor,
    )
    traj = evolve(u0, cfg.kernel, params, [horizon])
    fixed = picard_evolve(
        u0, cfg.kernel, eps, horizon, tol=1e-12, nodes=32
    )
    gap = l2w_norm(traj.state_at(horizon) - fixed)
    checks["integrator_agreement"] = _below(
        gap, 1e-5, f"split-step vs fixed-point gap {gap:.3e} at horizon {horizon:.3g}"
    )

    t_ref = cfg.sample_times[-1]
    eps_ref = cfg.epsilons[-1]
    report = ansatz_residual(cfg.family, t_ref, eps_ref, cfg.kernel)
    checks["ansatz_identity"] = _below(
        report.identity_error, 1e-6,
        f"identity error {report.identity_error:.3e} at t={t_ref}, eps={eps_ref}",
    )

    snap = snapshot(cfg.family, t_ref, cfg.kernel)
    worst_mod = 0.0
    for mode, amp in zip(cfg.family.modes, snap.amplitudes):
        moved = translate(mode.alpha, t_ref * mode.kappa)
        worst_mod = max(
            worst_mod,
            float(np.max(np.abs(np.abs(amp.values) - np.abs(moved.values)))),
        )
    checks["modulus_transport"] = _below(
        worst_mod, 1e-10, f"max modulus deviation {worst_mod:.3e}"
    )

    worst_tr = max(transport_residual(cfg.family, t_ref, cfg.kernel))
    checks["transport_equation"] = _below(
        worst_tr, 1e-6, f"max finite-difference transport residual {worst_tr:.3e}"
    )
    return checks


# ---------------------------------------------------------------------------
# persistence


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def persist(result: SweepResult, output) -> dict:
    """Write records.csv, summary.json and convergence.svg under `output`.

    Returns the mapping of artifact kind to path.  Numeric CSV fields
    are printed at 17 significant digits so re-reading reproduces them
    bit-exactly.
    """
    out = Path(output)
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "csv": out / "records.csv",
            "json": out / "summary.json",
            "svg": out / "convergence.svg",
        }
        csv_lines = [",".join(CSV_COLUMNS)] + [
            ",".join(_fmt(getattr(r, col)) for col in CSV_COLUMNS) for r in result.records
        ]
        paths["csv"].write_text("\n".join(csv_lines) + "\n")

        summary = {
            "config_echo": result.config.to_json_dict(),
            "beta_expected": result.beta_expected,
            "beta_fitted": result.beta_fitted,
            "c_fitted": result.c_fitted,
            "fit_residual": result.fit_residual,
            "checks": {
                name: {"pass": c.passed, "margin": c.margin}
                for name, c in sorted(result.checks.items())
            },
        }
        if result.failures:
            summary["failures"] = {
                _fmt(e): msg for e, msg in sorted(result.failures.items())
            }
        paths["json"].write_text(json.dumps(summary, indent=2) + "\n")

        paths["svg"].write_text(_render_svg(result))
        return paths
    except OSError as exc:
        raise OSError(f"cannot write sweep artifacts under {out}: {exc}") from exc


def read_records_csv(path) -> list:
    """Re-read a records CSV into SweepRecord values (round-trip exact)."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ValueError(f"unexpected CSV header in {path}")
    return [
        SweepRecord(**dict(zip(CSV_COLUMNS, map(float, line.split(",")))))
        for line in lines[1:]
    ]


def _render_svg(result: SweepResult) -> str:
    """Standalone SVG 1.1 log-log plot.

    Exactly one <polyline> per sample time (err_l2w against eps) and one
    <line> reference segment with slope beta_expected; axes and ticks
    are <path> and <text> elements so the element counts stay a stable
    structural contract.
    """
    width, height = 640, 480
    ml, mr, mt, mb = 70, 20, 20, 50
    body = []
    series = {}
    for r in result.records:
        if r.err_l2w > 0:
            series.setdefault(r.t, []).append((r.eps, r.err_l2w))

    pts_all = [p for pts in series.values() for p in pts]
    header = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n'
    )
    body.append(
        f'<path d="M {ml} {mt} L {ml} {height - mb} L {width - mr} {height - mb}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    body.append(
        f'<text x="{width / 2:.0f}" y="{height - 12}" font-size="14" '
        'text-anchor="middle">eps (log)</text>'
    )
    body.append(
        f'<text x="16" y="{height / 2:.0f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 16 {height / 2:.0f})">combined-norm error (log)</text>'
    )

    if pts_all:
        lx = [math.log10(e) for e, _ in pts_all]
        ly = [math.log10(v) for _, v in pts_all]
        x0, x1 = min(lx), max(lx)
        y0, y1 = min(ly), max(ly)
        if x1 - x0 < 1e-9:
            x0, x1 = x0 - 0.5, x1 + 0.5
        pad = 0.1 * max(y1 - y0, 0.5)
        y0, y1 = y0 - pad, y1 + pad

        def to_px(e, v):
            fx = (math.log10(e) - x0) / (x1 - x0)
            fy = (math.log10(v) - y0) / (y1 - y0)
            return ml + fx * (width - ml - mr), (height - mb) - fy * (height - mt - mb)

        palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
        for i, (t, pts) in enumerate(sorted(series.items())):
            pts = sorted(pts)
            coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in (to_px(e, v) for e, v in pts))
            body.append(
                f'<polyline class="data" points="{coords}" fill="none" '
                f'stroke="{palette[i % len(palette)]}" stroke-width="1.5"/>'
            )
            ex, ey = to_px(*sorted(pts)[-1])
            body.append(
                f'<text x="{ex + 4:.2f}" y="{ey:.2f}" font-size="11">t={t:g}</text>'
            )

        beta = result.beta_expected
        e_lo, e_hi = 10**x0, 10**x1
        anchor_e, anchor_v = max(pts_all)
        c_ref = 1.5 * anchor_v / anchor_e**beta
        xa, ya = to_px(e_lo, c_ref * e_lo**beta)
        xb, yb = to_px(e_hi, c_ref * e_hi**beta)
        body.append(
            f'<line class="reference" x1="{xa:.2f}" y1="{ya:.2f}" '
            f'x2="{xb:.2f}" y2="{yb:.2f}" stroke="gray" stroke-width="1" '
            'stroke-dasharray="6,4"/>'
        )
        body.append(
            f'<text x="{(xa + xb) / 2:.2f}" y="{(ya + yb) / 2 - 6:.2f}" '
            f'font-size="11" fill="gray">slope beta = {beta:g}</text>'
        )
        for frac in (0.0, 0.5, 1.0):
            e_tick = 10 ** (x0 + frac * (x1 - x0))
            px, _ = to_px(e_tick, 10**y0)
            body.append(
                f'<path d="M {px:.2f} {height - mb} L {px:.2f} {height - mb + 5}" '
                'stroke="black" stroke-width="1"/>'
            )
            body.append(
                f'<text x="{px:.2f}" y="{height - mb + 18}" font-size="11" '
                f'text-anchor="middle">{e_tick:.3g}</text>'
            )
            v_tick = 10 ** (y0 + frac * (y1 - y0))
            _, py = to_px(10**x0, v_tick)
            body.append(
                f'<path d="M {ml - 5} {py:.2f} L {ml} {py:.2f}" '
                'stroke="black" stroke-width="1"/>'
            )
            body.append(
                f'<text x="{ml - 8}" y="{py + 4:.2f}" font-size="11" '
                f'text-anchor="end">{v_tick:.2g}</text>'
            )

    return header + "\n".join(body) + "\n</svg>\n"
