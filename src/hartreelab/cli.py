"""Command-line front end.

    hartreelab simulate --config run.json    single-eps trajectory norms
    hartreelab sweep    --config run.json    eps sweep + rate fit + artifacts
    hartreelab validate --config run.json    property/consistency suite

Exit codes: 0 success, 1 validation-suite failure, 2 configuration
error (also a resolution or containment rule broken during a run), 3
runtime error (divergence guard, Picard non-contraction, a numpy
floating-point fault, unwritable output), mapped in `main` alone.
sweep exits 0 even when the rate check fails; the JSON summary records
the failure so CI can assert on it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .harness import _fmt, persist, run_sweep, validate_suite
from .norms import norm_report
from .solver import DivergenceError, PicardConvergenceError, SolverParams, evolve
from .wkb import ContainmentError, ResolutionError, initial_data

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hartreelab",
        description="Pseudospectral laboratory for the semiclassical "
        "singular Hartree equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("simulate", "integrate a single-eps configuration, write trajectory norms"),
        ("sweep", "run the eps sweep, fit the convergence rate, write artifacts"),
        ("validate", "run the property and consistency suite"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, help="path to the JSON run file")
        if name == "sweep":
            cmd.add_argument("--threads", type=int, default=1, help="worker threads")
        if name == "validate":
            cmd.add_argument(
                "--seed", type=int, default=0, help="seed for property-test campaigns"
            )
            cmd.add_argument(
                "--inject-kernel-fault",
                action="store_true",
                help=argparse.SUPPRESS,  # self-test hook for the exit contract
            )
    return parser


def cmd_simulate(cfg) -> int:
    if len(cfg.epsilons) != 1:
        print(
            "config error: simulate requires exactly one epsilon, got "
            f"{len(cfg.epsilons)}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    eps = cfg.epsilons[0]
    u0 = initial_data(cfg.family, eps)
    params = SolverParams.largest_step(eps, cfg.final_time, cfg.dt_factor)
    traj = evolve(u0, cfg.kernel, params, cfg.sample_times)

    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["t,l2,wiener,l2w,mass_drift"]
    mass0 = traj.mass_log[0]
    for t, state, mass in zip(traj.times, traj.states, traj.mass_log):
        rep = norm_report(state)
        row = (t, rep.l2, rep.wiener, rep.l2w, abs(mass - mass0) / mass0)
        lines.append(",".join(_fmt(v) for v in row))
    (out / "trajectory.csv").write_text("\n".join(lines) + "\n")
    print(f"trajectory written to {out / 'trajectory.csv'}")
    return EXIT_OK


def cmd_sweep(cfg) -> int:
    result = run_sweep(cfg)
    persist(result, cfg.output)
    fitted = "n/a" if result.beta_fitted is None else f"{result.beta_fitted:.4f}"
    print(
        f"sweep complete: beta_expected={result.beta_expected:.4f} "
        f"beta_fitted={fitted}; artifacts in {Path(cfg.output)}"
    )
    for name, check in sorted(result.checks.items()):
        print(f"  {name}: {'pass' if check.passed else 'FAIL'} "
              f"(margin {check.margin:+.3f}) {check.detail}")
    for eps, msg in sorted(result.failures.items()):
        print(f"  eps={eps:g} failed: {msg}")
    return EXIT_OK


def cmd_validate(cfg, fault: bool) -> int:
    checks = validate_suite(cfg, seed=cfg.seed, fault_kernel_constant=fault)
    all_ok = True
    for name, check in sorted(checks.items()):
        status = "pass" if check.passed else "FAIL"
        all_ok &= check.passed
        print(f"{name}: {status} (margin {check.margin:+.3f}) {check.detail}")
    return EXIT_OK if all_ok else EXIT_VALIDATION


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, threads=getattr(args, "threads", 1),
                          seed=getattr(args, "seed", 0))
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        return cmd_validate(cfg, getattr(args, "inject_kernel_fault", False))
    except (ConfigError, ResolutionError, ContainmentError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, PicardConvergenceError, FloatingPointError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
