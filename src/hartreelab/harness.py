"""Sweep orchestration: numerics vs asymptotics, rate fitting, artifacts.

A sweep runs the full integrator and the WKB construction side by side
over a decreasing list of eps, records error norms at the sample times,
fits the log-log decay rate, and compares it against the guaranteed
exponent beta = min(1, d - gamma).  The guarantee is an upper bound
with an unquantified constant, so the acceptance stance is
"fitted slope >= beta - 0.15", never "slope == beta".

Artifacts: a CSV of per-(eps, t) records, a JSON summary embedding the
full configuration, and a standalone SVG log-log plot with one data
polyline per sample time and a single reference line at slope beta.
Outputs are deterministic: fixed orders, 17-significant-digit floats,
no timestamps.
"""

from __future__ import annotations

import functools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.fft

from .grid import Field, Grid, translate
from .kernel import (
    KernelSpec,
    hartree_constant,
    hartree_constant_oracle,
)
from .norms import (
    NormReport,
    check_algebra_bound,
    check_hartree_bound,
    e_norm,
    l2w_norm,
    norm_report,
)
from .solver import MAX_DT_FACTOR, DivergenceError, SolverParams, evolve, picard_evolve
from .wkb import (
    ModeFamily,
    ansatz_residual,
    assemble,
    check_containment,
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


def error_report(u_exact: Field, u_app: Field) -> NormReport:
    if u_exact.grid != u_app.grid:
        raise ValueError("fields live on different grids")
    return norm_report(u_exact - u_app)


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
class SweepConfig:
    """One sweep: kernel, modes, grid, epsilon ladder, schedule, output."""

    grid: Grid
    kernel: KernelSpec
    family: ModeFamily
    epsilons: tuple
    final_time: float
    sample_times: tuple
    dt_factor: float = 0.1
    quadrature_nodes: int = 64
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
        if not samples or any(
            t <= 0 or t > self.final_time * (1 + 1e-12) for t in samples
        ):
            raise ValueError("sample times must lie in (0, final_time]")
        if any(b <= a for a, b in zip(samples, samples[1:])):
            raise ValueError("sample times must be strictly increasing")
        if not 0 < self.dt_factor <= MAX_DT_FACTOR:
            raise ValueError(f"dt_factor must lie in (0, {MAX_DT_FACTOR}]")
        if self.family.grid != self.grid:
            raise ValueError("mode family grid differs from the sweep grid")
        if self.kernel.d != self.grid.d:
            raise ValueError("kernel dimension differs from the grid dimension")
        for e in eps:
            check_resolution(self.family, e)
        check_containment(self.family, self.final_time)

    def to_json_dict(self) -> dict:
        """Canonical echo of the configuration (same schema as input files)."""
        modes = []
        for m in self.family.modes:
            entry = {"kappa": [float(k) for k in m.kappa]}
            profile = getattr(m, "profile", None)
            if profile is not None and hasattr(profile, "width"):
                entry["profile"] = {
                    "type": "gaussian",
                    "amplitude": float(profile.amplitude),
                    "center": [float(c) for c in profile.center],
                    "width": float(profile.width),
                }
            else:
                entry["profile"] = {"type": "table"}
            modes.append(entry)
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
            "quadrature_nodes": self.quadrature_nodes,
            "output": self.output,
        }


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


def _run_single_eps(cfg: SweepConfig, eps: float):
    """Evolve one eps and measure errors at every sample time."""
    u0 = initial_data(cfg.family, eps)
    init_err = l2w_norm(u0 - assemble(cfg.family, 0.0, eps, cfg.kernel))
    params = SolverParams(
        eps=eps,
        dt=min(cfg.dt_factor * eps, cfg.final_time),
        final_time=cfg.final_time,
        dt_factor=cfg.dt_factor,
    )
    traj = evolve(u0, cfg.kernel, params, cfg.sample_times)
    mass0 = traj.mass_log[0]

    records = []
    for idx, t in enumerate(cfg.sample_times):
        snap = snapshot(cfg.family, t, cfg.kernel)
        u_app = assemble(cfg.family, t, eps, cfg.kernel, snap=snap)
        rep = error_report(traj.state_at(t), u_app)
        r_norm = l2w_norm(resonant_remainder(cfg.family, t, eps, cfg.kernel, snap=snap))
        z2_norm = l2w_norm(z2_term(cfg.family, t, eps, cfg.kernel, snap=snap))
        drift = abs(traj.mass_log[1 + idx] - mass0) / mass0
        records.append(
            SweepRecord(
                eps=eps,
                t=t,
                err_l2=rep.l2,
                err_w=rep.wiener,
                err_l2w=rep.l2w,
                r_norm=r_norm,
                z2_norm=z2_norm,
                mass_drift=drift,
            )
        )
    return records, init_err


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Run every eps (concurrently when asked), fit the rate, check bounds."""
    results = {}
    failures = {}
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            futures = {e: pool.submit(_run_single_eps, cfg, e) for e in cfg.epsilons}
            for e, fut in futures.items():
                try:
                    results[e] = fut.result()
                except DivergenceError as exc:
                    failures[e] = str(exc)
    else:
        for e in cfg.epsilons:
            try:
                results[e] = _run_single_eps(cfg, e)
            except DivergenceError as exc:
                failures[e] = str(exc)

    records = []
    init_errs = {}
    for e in cfg.epsilons:  # deterministic order: config order, then t ascending
        if e in results:
            recs, ie = results[e]
            records.extend(recs)
            init_errs[e] = ie

    beta_expected = expected_rate(cfg.kernel.d, cfg.kernel.gamma)
    worst = [
        (e, max(r.err_l2w for r in results[e][0]))
        for e in cfg.epsilons
        if e in results
    ]
    if len(worst) >= 2:
        fit = fit_rate(worst)
        beta_fitted = fit.slope
        c_fitted = math.exp(fit.intercept)
        fit_residual = fit.residual
    else:
        beta_fitted = c_fitted = fit_residual = None

    checks = _sweep_checks(cfg, records, init_errs, beta_expected, beta_fitted, worst)
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


def _sweep_checks(cfg, records, init_errs, beta_expected, beta_fitted, worst) -> dict:
    """Bound checks on the measured records; margins are normalized
    headroom (tolerance - measured) / tolerance, passing iff >= 0."""
    checks = {}

    init_worst = max(init_errs.values()) if init_errs else math.inf
    checks["initial_exactness"] = CheckOutcome(
        passed=init_worst < 1e-12,
        margin=(1e-12 - init_worst) / 1e-12,
        detail=f"max t=0 error {init_worst:.3e}",
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

    # Remainder and expansion bounds need the mode norms per sample time;
    # the amplitudes carry no eps, so one snapshot per t serves all eps.
    e_norms = {}
    for t in cfg.sample_times:
        snap = snapshot(cfg.family, t, cfg.kernel)
        e_norms[t] = e_norm(snap.amplitudes, cfg.family.nspec)

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
        stable = True
        spreads = []
        for t in cfg.sample_times:
            consts = [
                r.r_norm
                / (cfg.family.delta ** (gamma - d) * e_norms[t] ** 3 * r.eps ** (d - gamma))
                for r in records
                if r.t == t
            ]
            mean = sum(consts) / len(consts)
            spread = max(abs(c - mean) / mean for c in consts)
            spreads.append(spread)
            stable &= spread <= 0.2
        checks["remainder_constant_stable"] = CheckOutcome(
            passed=stable,
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


def _random_band_limited(grid: Grid, rng, cutoff: int) -> Field:
    """Random field whose spectrum lives strictly inside |k| <= cutoff."""
    coef = np.empty(grid.shape, dtype=np.complex128)
    coef.real = rng.standard_normal(grid.shape)
    coef.imag = rng.standard_normal(grid.shape)
    coef *= grid.band_mask(cutoff)
    vals = scipy.fft.ifftn(coef, overwrite_x=True)
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals /= peak
    return Field(grid, vals)


@functools.lru_cache(maxsize=4)
def _density_envelope(grid: Grid) -> np.ndarray:
    """Gaussian envelope of width L/12 for the random densities, read-only."""
    r2 = np.zeros(grid.shape)
    for ax in grid.coords():
        r2 = r2 + ax**2
    envelope = np.exp(-r2 / (2 * (grid.length / 12) ** 2))
    envelope.setflags(write=False)
    return envelope


def _random_smooth_density(grid: Grid, rng) -> Field:
    """Nonnegative, smooth, decaying density: |band-limited field|^2 under
    a Gaussian envelope."""
    base = _random_band_limited(grid, rng, max(2, grid.points // 16))
    return Field(grid, np.abs(base.values) ** 2 * _density_envelope(grid))


def validate_suite(
    cfg: SweepConfig,
    algebra_pairs: int = 1000,
    hartree_pairs: int = 500,
    seed: int = None,
    fault_kernel_constant: bool = False,
) -> dict:
    """Property campaigns plus cross-route consistency checks.

    Returns name -> CheckOutcome; failures are reported, never raised.
    The fault flag corrupts the kernel constant before the constant
    check only, as a self-test hook for the exit-code contract.
    """
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    checks = {}

    c_formula = hartree_constant(cfg.kernel.d, cfg.kernel.gamma)
    if fault_kernel_constant:
        c_formula *= 1.1
    c_oracle = hartree_constant_oracle(cfg.kernel.d, cfg.kernel.gamma)
    rel = abs(c_formula - c_oracle) / abs(c_oracle)
    checks["kernel_constant"] = CheckOutcome(
        passed=rel <= 1e-8,
        margin=(1e-8 - rel) / 1e-8,
        detail=f"relative deviation {rel:.3e}",
    )

    worst_excess = -math.inf
    violations = 0
    for _ in range(algebra_pairs):
        f = _random_band_limited(cfg.grid, rng, cfg.grid.points // 4 - 1)
        g = _random_band_limited(cfg.grid, rng, cfg.grid.points // 4 - 1)
        rep = check_algebra_bound(f, g)
        excess = (rep.lhs - rep.rhs) / rep.rhs if rep.rhs > 0 else 0.0
        worst_excess = max(worst_excess, excess)
        violations += not rep.holds
    checks["algebra_bound"] = CheckOutcome(
        passed=violations == 0,
        margin=-worst_excess / 1e-10 if worst_excess > 0 else 1.0,
        detail=f"{violations} violations in {algebra_pairs} pairs, "
        f"worst excess {worst_excess:.3e}",
    )

    worst_excess = -math.inf
    violations = 0
    for _ in range(hartree_pairs):
        h = _random_smooth_density(cfg.grid, rng)
        rep = check_hartree_bound(cfg.kernel, h)
        excess = (rep.lhs - rep.rhs) / rep.rhs if rep.rhs > 0 else 0.0
        worst_excess = max(worst_excess, excess)
        violations += not rep.holds
    checks["hartree_bound"] = CheckOutcome(
        passed=violations == 0,
        margin=-worst_excess / 1e-6 if worst_excess > 0 else 1.0,
        detail=f"{violations} violations in {hartree_pairs} densities, "
        f"worst excess {worst_excess:.3e}",
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
        u0, cfg.kernel, eps, horizon, tol=1e-12, nodes=128
    )
    gap = l2w_norm(traj.state_at(horizon) - fixed)
    checks["integrator_agreement"] = CheckOutcome(
        passed=gap < 1e-5,
        margin=(1e-5 - gap) / 1e-5,
        detail=f"split-step vs fixed-point gap {gap:.3e} at horizon {horizon:.3g}",
    )

    t_ref = cfg.sample_times[-1]
    eps_ref = cfg.epsilons[-1]
    report = ansatz_residual(cfg.family, t_ref, eps_ref, cfg.kernel)
    checks["ansatz_identity"] = CheckOutcome(
        passed=report.identity_error < 1e-6,
        margin=(1e-6 - report.identity_error) / 1e-6,
        detail=f"identity error {report.identity_error:.3e} at t={t_ref}, eps={eps_ref}",
    )

    snap = snapshot(cfg.family, t_ref, cfg.kernel)
    worst_mod = 0.0
    for mode, amp in zip(cfg.family.modes, snap.amplitudes):
        moved = translate(mode.alpha, t_ref * mode.kappa)
        worst_mod = max(
            worst_mod,
            float(np.max(np.abs(np.abs(amp.values) - np.abs(moved.values)))),
        )
    checks["modulus_transport"] = CheckOutcome(
        passed=worst_mod < 1e-10,
        margin=(1e-10 - worst_mod) / 1e-10,
        detail=f"max modulus deviation {worst_mod:.3e}",
    )

    worst_tr = max(transport_residual(cfg.family, t_ref, cfg.kernel))
    checks["transport_equation"] = CheckOutcome(
        passed=worst_tr < 1e-6,
        margin=(1e-6 - worst_tr) / 1e-6,
        detail=f"max finite-difference transport residual {worst_tr:.3e}",
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
        csv_lines = [",".join(CSV_COLUMNS)]
        for r in result.records:
            csv_lines.append(
                ",".join(_fmt(getattr(r, col)) for col in CSV_COLUMNS)
            )
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
    out = []
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        out.append(SweepRecord(**dict(zip(CSV_COLUMNS, vals))))
    return out


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
