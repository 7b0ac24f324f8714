"""Acceptance suite: one test per criterion, each printing a PASS line.

The reference 1D configuration: gamma = 0.5, coupling 1, two unit
Gaussian modes at kappa = -2 and +2 (separation 4), box 64 with 8192
points, horizon 0.5 sampled at {0.25, 0.5}, eps in {0.2, 0.1, 0.05,
0.025}.  The 2D configuration: gamma = 0.5 on a 512^2 grid over box 16
with width-0.75 modes at kappa = (+-2, 0), eps in {0.2, 0.1, 0.05}.
"""

import copy
import json

import numpy as np
import pytest

import baseline

from hartreelab import (
    GaussianProfile,
    Grid,
    KernelSpec,
    ModeFamily,
    SolverParams,
    SweepConfig,
    action_phase,
    ansatz_residual,
    assemble,
    expected_rate,
    hartree_constant,
    hartree_constant_oracle,
    initial_data,
    picard_evolve,
    run_sweep,
    snapshot,
    translate,
    validate_suite,
)
from oracles import action_phase_quadrature, free_propagator, l2_wiener, strang_run


def _gaussian_modes(kappas, width, d):
    return [
        (list(k) if hasattr(k, "__len__") else [k],
         GaussianProfile(amplitude=1.0, center=(0.0,) * d, width=width))
        for k in kappas
    ]


@pytest.fixture(scope="module")
def config_1d():
    grid = Grid(d=1, length=64.0, points=8192)
    kernel = KernelSpec(d=1, gamma=0.5, coupling=1.0)
    family = ModeFamily.from_profiles(
        grid, _gaussian_modes([-2.0, 2.0], width=1.0, d=1)
    )
    return SweepConfig(
        grid=grid,
        kernel=kernel,
        family=family,
        epsilons=(0.2, 0.1, 0.05, 0.025),
        final_time=0.5,
        sample_times=(0.25, 0.5),
    )


@pytest.fixture(scope="module")
def result_1d(config_1d):
    return run_sweep(config_1d)


@pytest.fixture(scope="module")
def config_2d():
    grid = Grid(d=2, length=16.0, points=512)
    kernel = KernelSpec(d=2, gamma=0.5, coupling=1.0)
    family = ModeFamily.from_profiles(
        grid, _gaussian_modes([(-2.0, 0.0), (2.0, 0.0)], width=0.75, d=2)
    )
    return SweepConfig(
        grid=grid,
        kernel=kernel,
        family=family,
        epsilons=(0.2, 0.1, 0.05),
        final_time=0.5,
        sample_times=(0.25, 0.5),
    )


@pytest.fixture(scope="module")
def result_2d(config_2d):
    return run_sweep(config_2d)


@pytest.fixture(scope="module")
def suite_1d(config_1d):
    return validate_suite(config_1d, algebra_pairs=1000, hartree_pairs=500, seed=0)


def test_criterion_1_rate_verification_1d(result_1d):
    assert not result_1d.failures
    beta = result_1d.beta_expected
    assert beta == expected_rate(1, 0.5) == 0.5
    assert result_1d.beta_fitted >= beta - 0.15

    # one fitted C over the sweep: the per-point constants err / eps^beta
    # must sit within a factor-2 band of their pinned-slope fit
    worst = {}
    for r in result_1d.records:
        worst[r.eps] = max(worst.get(r.eps, 0.0), r.err_l2w)
    consts = [err / eps**beta for eps, err in worst.items()]
    c_single = float(np.exp(np.mean(np.log(consts))))
    spread = max(max(consts) / c_single, c_single / min(consts))
    assert spread <= 2.0
    assert all(err <= 2.0 * c_single * eps**beta for eps, err in worst.items())
    print(
        f"\nACCEPTANCE 1: PASS  rate 1D: beta_fitted={result_1d.beta_fitted:.4f} "
        f">= {beta - 0.15:.2f}; single-C spread {spread:.3f} <= 2"
    )


def test_criterion_2_rate_verification_2d(result_2d):
    assert not result_2d.failures
    assert result_2d.beta_expected == expected_rate(2, 0.5) == 1.0
    assert result_2d.beta_fitted >= 0.85
    print(
        f"\nACCEPTANCE 2: PASS  rate 2D: beta_fitted={result_2d.beta_fitted:.4f} >= 0.85"
    )


def test_criterion_3_remainder_scaling(config_1d, result_1d):
    d, gamma = 1, 0.5
    check = result_1d.checks["remainder_rate"]
    assert check.passed, check.detail
    stability = result_1d.checks["remainder_constant_stable"]
    assert stability.passed, stability.detail
    print(
        f"\nACCEPTANCE 3: PASS  remainder: {check.detail}; {stability.detail} (<= 0.2)"
    )


def test_criterion_4_expansion_identity(config_1d):
    worst = 0.0
    for eps in config_1d.epsilons:
        for t in config_1d.sample_times:
            worst = max(worst, ansatz_residual(config_1d.family, t, eps, config_1d.kernel))
    assert worst < 1e-6
    print(f"\nACCEPTANCE 4: PASS  expansion identity error {worst:.3e} < 1e-6")


def test_criterion_5_functional_inequality_campaigns(suite_1d):
    algebra = suite_1d["algebra_bound"]
    hartree = suite_1d["hartree_bound"]
    assert algebra.passed, algebra.detail
    assert hartree.passed, hartree.detail
    print(
        f"\nACCEPTANCE 5: PASS  algebra campaign: {algebra.detail}; "
        f"convolution campaign: {hartree.detail}"
    )


def test_criterion_6_kernel_constant_oracle():
    pairs = [(1, 0.25), (1, 0.5), (1, 0.75), (2, 0.5), (2, 1.0),
             (3, 0.5), (3, 1.0), (3, 2.0)]
    worst = 0.0
    for d, gamma in pairs:
        formula = hartree_constant(d, gamma)
        oracle = hartree_constant_oracle(d, gamma)
        worst = max(worst, abs(formula - oracle) / abs(oracle))
    assert worst < 1e-8
    print(
        f"\nACCEPTANCE 6: PASS  kernel constant vs quadrature oracle: "
        f"worst relative deviation {worst:.3e} < 1e-8 over {len(pairs)} pairs"
    )


def test_criterion_7_solver_integrity(config_1d, result_1d, suite_1d):
    drift = max(r.mass_drift for r in result_1d.records)
    assert drift < 1e-10

    # Strang self-convergence on the reference family
    eps, horizon, grid = 0.1, 0.04, config_1d.grid
    u0 = initial_data(config_1d.family, eps)

    def run(dt):
        params = SolverParams(eps=eps, dt=dt, final_time=horizon)
        return strang_run(u0, grid, config_1d.kernel, params, [horizon])[0][-1]

    ref = run(horizon / 128)
    errs = [l2_wiener(run(horizon / n) - ref, grid)[0] for n in (4, 8, 16)]
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    for order in orders:
        assert abs(order - 2.0) <= 0.2

    # fixed-point cross-check at the stated parameters
    eps_x, horizon_x = 0.1, 0.01
    u0x = initial_data(config_1d.family, eps_x)
    params = SolverParams(eps=eps_x, dt=horizon_x / 32, final_time=horizon_x)
    stepped = strang_run(u0x, grid, config_1d.kernel, params, [horizon_x])[0][-1]
    fixed = picard_evolve(
        u0x, grid, config_1d.kernel, eps_x, horizon_x, tol=1e-12, nodes=64
    )
    gap = sum(l2_wiener(stepped - fixed, grid))
    assert gap < 1e-5

    # the free flow is an exact isometry for both norms
    probe = initial_data(config_1d.family, 0.1)
    (l2, w), (l2_0, w_0) = (l2_wiener(v, grid)
                            for v in (free_propagator(probe, grid, 0.1, 0.37), probe))
    assert abs(l2 - l2_0) < 1e-12 * l2_0
    assert abs(w - w_0) < 1e-12 * w_0

    # Wiener norm stays inside twice its initial value over the horizon
    for eps in (config_1d.epsilons[0], config_1d.epsilons[-1]):
        u0 = initial_data(config_1d.family, eps)
        params = SolverParams(
            eps=eps, dt=0.1 * eps, final_time=config_1d.final_time
        )
        states, _ = strang_run(u0, grid, config_1d.kernel, params, config_1d.sample_times)
        w0 = l2_wiener(u0, grid)[1]
        assert all(l2_wiener(s, grid)[1] <= 2 * w0 for s in states)

    agree = suite_1d["integrator_agreement"]
    assert agree.passed, agree.detail
    print(
        f"\nACCEPTANCE 7: PASS  mass drift {drift:.2e} < 1e-10; split order "
        f"{orders} within 2 +- 0.2; fixed-point gap {gap:.3e} < 1e-5; "
        "free flow isometric to 1e-12; Wiener norm within 2x initial"
    )


def test_criterion_8_wkb_internal_consistency(config_1d):
    fam, kern = config_1d.family, config_1d.kernel

    worst_action = 0.0
    for j in range(len(fam.modes)):
        closed = action_phase(fam, j, 0.5, kern)
        quad = action_phase_quadrature(fam, j, 0.5, kern, nodes=128)
        worst_action = max(worst_action, float(np.max(np.abs(closed - quad))))
    assert worst_action < 1e-8

    worst_mod = 0.0
    for t in config_1d.sample_times:
        for mode, amp in zip(fam.modes, snapshot(fam, t, kern)):
            moved = translate(mode.alpha, fam.grid, t * mode.kappa)
            worst_mod = max(worst_mod, float(np.max(np.abs(np.abs(amp) - np.abs(moved)))))
    assert worst_mod < 1e-10

    worst_init, amps0 = 0.0, snapshot(fam, 0.0, kern)
    for eps in config_1d.epsilons:
        u_app = assemble(fam, amps0, 0.0, eps)
        gap = sum(l2_wiener(initial_data(fam, eps) - u_app, fam.grid))
        worst_init = max(worst_init, gap)
    assert worst_init < 1e-12

    print(
        f"\nACCEPTANCE 8: PASS  action closed-form vs quadrature {worst_action:.3e} "
        f"< 1e-8; modulus transport {worst_mod:.3e} < 1e-10; "
        f"t=0 error {worst_init:.3e} < 1e-12"
    )


def test_baseline_numbers_pinned(result_1d, result_2d, suite_1d, tmp_path):
    # every record to 1e-12 relative (mass drift, at rounding level, to
    # 1e-13 absolute), beta_fitted to 1e-9, the validate lines and the
    # simulate trajectory lines verbatim
    pinned = json.loads(baseline.PATH.read_text())
    for name, result in (("reference_1d", result_1d), ("reference_2d", result_2d)):
        want = pinned["sweeps"][name]
        assert abs(result.beta_fitted - want["beta_fitted"]) <= 1e-9, name
        rows = baseline.record_rows(result)
        assert len(rows) == len(want["records"]), name
        for (*got, drift), (*ref, ref_drift) in zip(rows, want["records"]):
            assert got == pytest.approx(ref, rel=1e-12, abs=0), (name, got[:2])
            assert abs(drift - ref_drift) <= 1e-13, (name, got[:2])
    assert baseline.validate_lines(suite_1d) == pinned["validate_reference_1d_seed_0"]
    assert baseline.simulate_lines(tmp_path) == pinned["simulate_reference_1d_eps_0.2"]
    print("\nBASELINE: PASS  records, beta_fitted, validate and simulate lines "
          "match tests/baseline.json")


def test_baseline_diff_exits_1_on_any_move():
    # synthetic fresh and pinned files: an identical pair exits 0, and a
    # moved record field, a missing record, a moved validate number or a
    # moved trajectory column each exits 1
    pinned = {"sweeps": {"s": {"beta_fitted": 0.5,
                               "records": [[0.1, 0.25, 1.0, 2.0, 3.0, 4.0, 0.0]]}},
              "validate_reference_1d_seed_0": ["a: pass (margin +0.500) gap 1.0e-03"],
              "simulate_reference_1d_eps_0.2": ["t,l2", "0,1.5"]}
    lines, status = baseline.diff(copy.deepcopy(pinned), pinned)
    assert status == 0 and all(line.endswith("relative 0, absolute 0") for line in lines)
    moved, fewer, line, column = (copy.deepcopy(pinned) for _ in range(4))
    moved["sweeps"]["s"]["records"][0][2] = 1.0000000000000002
    fewer["sweeps"]["s"]["records"] = []
    line["validate_reference_1d_seed_0"] = ["a: pass (margin +0.500) gap 1.1e-03"]
    column["simulate_reference_1d_eps_0.2"] = ["t,l2", "0,1.25"]
    for fresh in (moved, fewer, line, column):
        lines, status = baseline.diff(fresh, pinned)
        assert status == 1, lines
