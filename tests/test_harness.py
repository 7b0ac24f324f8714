import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from hartreelab import (
    GaussianProfile,
    Grid,
    KernelSpec,
    ModeFamily,
    SweepConfig,
    TableProfile,
    expected_rate,
    fit_rate,
    persist,
    run_sweep,
    validate_suite,
)
from hartreelab import grid as grid_module
from hartreelab import harness, solver, wkb
from hartreelab.harness import (
    SweepRecord,
    _algebra_campaign,
    _hartree_campaign,
    _random_band_limited,
    _random_smooth_density,
    _sweep_checks,
)
from hartreelab.kernel import half_multiplier
from hartreelab.solver import DivergenceError, SolverParams
from hartreelab.wkb import (
    _half_laplacians,
    assemble,
    initial_data,
    resonant_remainder,
    snapshot,
)

from oracles import (
    ALGEBRA_SLACK,
    HARTREE_SLACK,
    band_mask,
    bound_rows,
    in_band_coefficients,
    l2_wiener,
    read_records_csv,
    strang_run,
)


@pytest.fixture
def small_config(tmp_path):
    grid = Grid(d=1, length=32.0, points=1024)
    kernel = KernelSpec(d=1, gamma=0.5, coupling=1.0)
    family = ModeFamily.from_profiles(
        grid,
        [
            ([-2.0], GaussianProfile(amplitude=1.0, center=(0.0,), width=1.0)),
            ([2.0], GaussianProfile(amplitude=1.0, center=(0.0,), width=1.0)),
        ],
    )
    return SweepConfig(
        grid=grid,
        kernel=kernel,
        family=family,
        epsilons=(0.2, 0.1),
        final_time=0.2,
        sample_times=(0.1, 0.2),
        output=str(tmp_path / "out"),
    )


def per_eps_reference(cfg):
    """The sweep as one independent run per eps: `advance` over every
    sample gap, then a snapshot per (eps, t) for the records and one
    per t for the checks, and the t = 0 error of the snapshot at t = 0.
    Returns (records, beta_fitted, checks, failures)."""
    records, failures, worst = [], {}, []
    init_err = max(sum(l2_wiener(a - m.alpha, cfg.grid))
                   for a, m in zip(snapshot(cfg.family, 0.0, cfg.kernel), cfg.family.modes))
    for eps in cfg.epsilons:
        u0 = initial_data(cfg.family, eps)
        params = SolverParams(
            eps=eps,
            dt=min(cfg.dt_factor * eps, cfg.final_time),
            final_time=cfg.final_time,
            dt_factor=cfg.dt_factor,
        )
        try:
            states, masses = strang_run(u0, cfg.grid, cfg.kernel, params, cfg.sample_times)
        except DivergenceError as exc:
            failures[eps] = str(exc)
            continue
        recs = []
        for idx, t in enumerate(cfg.sample_times):
            amps = snapshot(cfg.family, t, cfg.kernel)
            u_app = assemble(cfg.family, amps, t, eps)
            halves = [0.5 * grid_module.laplacian(a, cfg.grid) for a in amps]
            err_l2, err_w = l2_wiener(states[1 + idx] - u_app, cfg.grid)
            recs.append(
                SweepRecord(
                    eps=eps,
                    t=t,
                    err_l2=err_l2,
                    err_w=err_w,
                    err_l2w=err_l2 + err_w,
                    r_norm=sum(l2_wiener(resonant_remainder(
                        cfg.family, amps, eps, cfg.kernel, u_app), cfg.grid)),
                    z2_norm=sum(l2_wiener(assemble(cfg.family, halves, t, eps), cfg.grid)),
                    mass_drift=abs(masses[1 + idx] - masses[0]) / masses[0],
                )
            )
        records.extend(recs)
        worst.append((eps, max(r.err_l2w for r in recs)))
    e_norms = {
        t: _half_laplacians(cfg.family, snapshot(cfg.family, t, cfg.kernel), cfg.kernel)
        for t in cfg.sample_times
    }
    beta_expected = expected_rate(cfg.kernel.d, cfg.kernel.gamma)
    beta_fitted = fit_rate(worst).slope if len(worst) >= 2 else None
    checks = _sweep_checks(
        cfg, records, init_err, beta_expected, beta_fitted, worst, e_norms
    )
    return records, beta_fitted, checks, failures


def three_mode_config(**changes):
    grid = Grid(d=2, length=16.0, points=128)
    prof = GaussianProfile(amplitude=1.0, center=(0.0, 0.0), width=0.75)
    family = ModeFamily.from_profiles(
        grid, [([-2.0, 0.0], prof), ([2.0, 0.0], prof), ([0.0, 2.0], prof)]
    )
    args = dict(
        grid=grid,
        kernel=KernelSpec(d=2, gamma=0.5, coupling=1.0),
        family=family,
        epsilons=(0.6, 0.5),
        final_time=0.2,
        sample_times=(0.1, 0.2),
    )
    args.update(changes)
    return SweepConfig(**args)


def with_epsilons(cfg, epsilons, **changes):
    args = {name: getattr(cfg, name) for name in cfg.__dataclass_fields__}
    args.update(epsilons=epsilons, **changes)
    return SweepConfig(**args)


class TestExpectedRate:
    def test_schrodinger_poisson_case(self):
        assert expected_rate(3, 1.0) == 1.0

    def test_half_power_1d(self):
        assert expected_rate(1, 0.5) == 0.5

    def test_2d_saturates_at_one(self):
        assert expected_rate(2, 0.5) == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            expected_rate(1, 1.5)


class TestErrorReport:
    # a record's error is the L2 and Wiener norms of u - u_app
    def test_identical_fields(self, gaussian_field, grid1d):
        assert l2_wiener(gaussian_field - gaussian_field, grid1d) == (0, 0)

    def test_zero_approximation(self, gaussian_field, grid1d):
        err = l2_wiener(gaussian_field - np.zeros(grid1d.shape), grid1d)
        assert err == pytest.approx(l2_wiener(gaussian_field, grid1d))


class TestFitRate:
    def test_two_point_slope(self):
        fit = fit_rate([(0.1, 0.01), (0.05, 0.005)])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)

    def test_exact_power_law(self):
        c = 0.37
        pts = [(e, c * e**0.5) for e in (0.1, 0.05, 0.025)]
        fit = fit_rate(pts)
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.residual < 1e-12

    def test_noisy_power_law(self):
        rng = np.random.default_rng(41)
        truth = 0.8
        pts = [
            (e, 2.0 * e**truth * (1 + 0.01 * rng.uniform(-1, 1)))
            for e in np.geomspace(0.2, 0.01, 12)
        ]
        fit = fit_rate(pts)
        assert abs(fit.slope - truth) < 0.02

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            fit_rate([(0.1, 0.0), (0.05, 0.005)])

    def test_rejects_single_point(self):
        with pytest.raises(ValueError, match="two points"):
            fit_rate([(0.1, 0.01)])


class TestSweepConfig:
    def test_rejects_increasing_epsilons(self, small_config):
        with pytest.raises(ValueError, match="decreasing"):
            SweepConfig(
                grid=small_config.grid,
                kernel=small_config.kernel,
                family=small_config.family,
                epsilons=(0.1, 0.2),
                final_time=0.2,
                sample_times=(0.2,),
            )

    def test_rejects_sample_after_final_time(self, small_config):
        with pytest.raises(ValueError, match="sample times"):
            SweepConfig(
                grid=small_config.grid,
                kernel=small_config.kernel,
                family=small_config.family,
                epsilons=(0.2, 0.1),
                final_time=0.2,
                sample_times=(0.3,),
            )

    def test_rejects_unresolvable_epsilon(self, small_config):
        with pytest.raises(Exception, match="lattice frequency"):
            SweepConfig(
                grid=small_config.grid,
                kernel=small_config.kernel,
                family=small_config.family,
                epsilons=(0.2, 0.01),
                final_time=0.2,
                sample_times=(0.2,),
            )


class TestRunSweep:
    def test_gaussian_table_runs_as_the_gaussian(self, small_config):
        # a table of real numbers samples as float64, as the Gaussian does,
        # so the sweep runs the same real arithmetic on it, bit for bit
        entries = [(m.kappa, TableProfile(values=m.alpha.ravel().tolist()))
                   for m in small_config.family.modes]
        family = ModeFamily.from_profiles(small_config.grid, entries)
        assert all(m.alpha.dtype == np.float64 for m in family.modes)
        table = with_epsilons(small_config, small_config.epsilons, family=family)
        assert run_sweep(table).records == run_sweep(small_config).records

    def test_degenerate_free_single_mode(self):
        # zero coupling, zero wavevector, tiny horizon: the integrator
        # must match the frozen envelope to splitting tolerance
        grid = Grid(d=1, length=32.0, points=256)
        kernel = KernelSpec(d=1, gamma=0.5, coupling=0.0)
        family = ModeFamily.from_profiles(
            grid,
            [([0.0], GaussianProfile(amplitude=1.0, center=(0.0,), width=1.0))],
        )
        horizon = 1e-8
        cfg = SweepConfig(
            grid=grid,
            kernel=kernel,
            family=family,
            epsilons=(0.2, 0.1, 0.05),
            final_time=horizon,
            sample_times=(horizon,),
        )
        result = run_sweep(cfg)
        assert all(r.err_l2w < 1e-8 for r in result.records)

    def test_two_epsilon_sweep_records_and_fit(self, small_config):
        result = run_sweep(small_config)
        assert len(result.records) == 4  # 2 eps x 2 sample times
        assert result.beta_expected == 0.5
        assert result.beta_fitted is not None
        assert result.checks["initial_exactness"].passed
        assert not result.failures

    def test_single_epsilon_gives_no_fit(self, small_config):
        cfg = SweepConfig(
            grid=small_config.grid,
            kernel=small_config.kernel,
            family=small_config.family,
            epsilons=(0.2,),
            final_time=0.2,
            sample_times=(0.2,),
        )
        result = run_sweep(cfg)
        assert result.beta_fitted is None
        assert result.c_fitted is None

    def test_divergent_epsilon_marked_not_fatal(self):
        # a violently attractive coupling trips the stability guard for
        # every eps; the sweep must record the failures and carry on
        grid = Grid(d=1, length=32.0, points=2048)
        kernel = KernelSpec(d=1, gamma=0.5, coupling=-5e4)
        family = ModeFamily.from_profiles(
            grid,
            [([0.0], GaussianProfile(amplitude=5.0, center=(0.0,), width=1.0))],
        )
        cfg = SweepConfig(
            grid=grid,
            kernel=kernel,
            family=family,
            epsilons=(1.0, 0.5),
            final_time=2.0,
            sample_times=(2.0,),
        )
        result = run_sweep(cfg)
        assert set(result.failures) == {1.0, 0.5}
        assert result.records == ()
        assert result.beta_fitted is None

    def test_threaded_matches_sequential(self, small_config):
        seq = run_sweep(small_config)
        par_cfg = SweepConfig(
            grid=small_config.grid,
            kernel=small_config.kernel,
            family=small_config.family,
            epsilons=small_config.epsilons,
            final_time=small_config.final_time,
            sample_times=small_config.sample_times,
            output=small_config.output,
            threads=2,
        )
        par = run_sweep(par_cfg)
        for a, b in zip(seq.records, par.records):
            assert a == b

    # three modes give a nonzero remainder, so the per-time shared terms
    # (half-Laplacians, ||a||_E) feed every record and check
    @pytest.mark.parametrize(
        "kappas",
        [([-2.0, 0.0], [2.0, 0.0]), ([-2.0, 0.0], [2.0, 0.0], [0.0, 2.0])],
        ids=["two_modes", "three_modes"],
    )
    def test_threaded_matches_sequential_2d(self, tmp_path, kappas):
        # the eps workers share the memoized kernel multiplier; start cold
        # so both threads race to fill it
        from hartreelab.kernel import _scaled_half_khat

        runs = {}
        for threads in (1, 2):
            _scaled_half_khat.cache_clear()
            runs[threads] = run_sweep(small_2d_config(kappas, threads))
            persist(runs[threads], tmp_path / str(threads))
        assert len(runs[1].records) == 4
        assert runs[2].records == runs[1].records
        assert runs[2].beta_fitted == runs[1].beta_fitted
        assert runs[2].checks == runs[1].checks
        one, two = ((tmp_path / str(n) / "records.csv").read_bytes() for n in (1, 2))
        assert one == two


def small_2d_config(kappas, threads=1):
    """Gaussian modes at `kappas` on 128^2, two eps, two sample times."""
    grid = Grid(d=2, length=16.0, points=128)
    prof = GaussianProfile(amplitude=1.0, center=(0.0, 0.0), width=0.75)
    return SweepConfig(
        grid=grid,
        kernel=KernelSpec(d=2, gamma=0.5, coupling=1.0),
        family=ModeFamily.from_profiles(grid, [(k, prof) for k in kappas]),
        epsilons=(0.6, 0.5),
        final_time=0.2,
        sample_times=(0.1, 0.2),
        threads=threads,
    )


class TestRecordsFirst:
    """Each time's records read the amplitudes; each amplitude then turns
    into its half-Laplacian in place, and the Z2 pass reads those."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_half_laplacians_overwrite_the_amplitudes_after_the_records(
            self, monkeypatch, threads):
        cfg = small_2d_config(([-2.0, 0.0], [2.0, 0.0]), threads)
        events, amps, halves, pairs = [], [], [], []
        real = {name: getattr(harness, name)
                for name in ("snapshot", "_record", "_half_laplacians", "_z2_norms")}

        def snapshot_spy(family, t, spec):
            time_amps = real["snapshot"](family, t, spec)
            events.append("snapshot")
            amps.append(time_amps)
            return time_amps

        def record_spy(cfg, time_amps, t, buffers, run):
            events.append("record")
            pairs.append(buffers)
            return real["_record"](cfg, time_amps, t, buffers, run)

        def convert_spy(family, arrays, spec):
            events.append("convert")
            assert not any(pairs)  # every worker's field pair is dropped
            return real["_half_laplacians"](family, arrays, spec)

        def z2_spy(cfg, arrays, t, buffers, run):
            events.append("z2")
            halves.append(arrays)
            return real["_z2_norms"](cfg, arrays, t, buffers, run)

        for name, spy in (("snapshot", snapshot_spy), ("_record", record_spy),
                          ("_half_laplacians", convert_spy), ("_z2_norms", z2_spy)):
            monkeypatch.setattr(harness, name, spy)
        result = run_sweep(cfg)
        # the t = 0 snapshot first, then no record runs after a conversion:
        # two eps, two sample times
        each_time = ["snapshot", "record", "record", "convert", "z2", "z2"]
        assert events == ["snapshot", *each_time * 2]
        assert len(result.records) == 4
        assert len(halves) == 4
        for time_amps, z2_halves in zip(amps[1:], halves[::2]):
            assert len(z2_halves) == 2
            assert all(np.shares_memory(h, a) for h, a in zip(z2_halves, time_amps))


class TestZ2First:
    """A time's Z2 pass comes before the next time's records, and its
    half-Laplacians are freed by then: a sweep holds one set of mode arrays."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_records_run_after_the_half_laplacians_are_freed(self, monkeypatch, threads):
        cfg = small_2d_config(([-2.0, 0.0], [2.0, 0.0]), threads)
        halves, record_times = [], []
        real_z2, real_record = harness._z2_norms, harness._record

        def z2_spy(cfg, arrays, t, buffers, run):
            halves.extend(weakref.ref(h) for h in arrays)
            return real_z2(cfg, arrays, t, buffers, run)

        def record_spy(cfg, amps, t, buffers, run):
            assert all(ref() is None for ref in halves)  # freed, not only hidden
            record_times.append((t, len(amps)))
            return real_record(cfg, amps, t, buffers, run)

        monkeypatch.setattr(harness, "_z2_norms", z2_spy)
        monkeypatch.setattr(harness, "_record", record_spy)
        result = run_sweep(cfg)
        assert len(halves) == 2 * 2 * 2  # modes x eps x times
        assert all(ref() is None for ref in halves)
        assert len(record_times) == len(result.records) == 4
        assert sorted(record_times) == [(0.1, 2), (0.1, 2), (0.2, 2), (0.2, 2)]


class TestLockstepSweep:
    """run_sweep advances every eps together and builds one snapshot per
    time; it must give the per-eps sweep's numbers exactly."""

    def assert_matches_reference(self, result, cfg):
        records, beta_fitted, checks, failures = per_eps_reference(cfg)
        assert result.records == tuple(records)
        assert result.beta_fitted == beta_fitted
        assert result.failures == failures
        assert set(result.checks) == set(checks)
        for name, check in checks.items():
            assert result.checks[name].margin == check.margin, name
            assert result.checks[name].passed == check.passed, name

    def test_bitwise_match_2d_three_modes(self):
        cfg = three_mode_config()
        result = run_sweep(cfg)
        assert len(result.records) == 4
        assert "remainder_rate" in result.checks
        self.assert_matches_reference(result, cfg)

    def test_bitwise_match_1d(self, small_config):
        cfg = with_epsilons(small_config, (0.2, 0.15, 0.1))
        self.assert_matches_reference(run_sweep(cfg), cfg)

    def test_one_snapshot_per_time(self, small_config, monkeypatch):
        seen = []
        real = wkb.snapshot

        def counted(family, t, spec):
            seen.append(t)
            return real(family, t, spec)

        monkeypatch.setattr(harness, "snapshot", counted)
        monkeypatch.setattr(wkb, "snapshot", counted)
        cfg = with_epsilons(small_config, (0.2, 0.15, 0.1))
        run_sweep(cfg)
        assert seen == [0.0, *cfg.sample_times]  # t = 0 once, for initial_exactness

    def test_two_mode_sweep_makes_no_t0_term_transforms(self, small_config, fft_calls):
        # a t = 0 snapshot transforms nothing (zero phases and shifts): the
        # sweep's only t = 0 transforms are each eps's spectrum and, once
        # per sweep, the Wiener norm of each a_j(0) - alpha_j
        cfg = with_epsilons(small_config, (0.2, 0.1))
        n_eps, n_times, n_modes = len(cfg.epsilons), len(cfg.sample_times), 2
        assert len(cfg.family.modes) == n_modes and cfg.grid.d == 1
        snapshot(cfg.family, 0.0, cfg.kernel)
        assert fft_calls == []
        steps = sum(
            max(1, math.ceil((b - a) / (cfg.dt_factor * eps) - 1e-12))
            for eps in cfg.epsilons
            for a, b in zip((0.0, *cfg.sample_times), cfg.sample_times)
        )
        result = run_sweep(cfg)
        assert len(result.records) == n_eps * n_times
        assert len(fft_calls) == (n_eps + n_modes + 4 * steps + 6 * n_modes * n_times
                                  + 6 * n_eps * n_times)
        assert result.checks["initial_exactness"].detail == "max t=0 error 0.000e+00"

    def test_initial_exactness_sees_a_phase_offset_at_t0(self, small_config,
                                                         monkeypatch):
        # Theta_j(0) = 0 is part of the t = 0 amplitude path: a phase off
        # by 1e-9 at t = 0 alone must fail the check
        real = wkb.action_phase

        def offset_at_t0(family, j, t, spec, spectra=None):
            theta = real(family, j, t, spec, spectra)
            return theta + 1e-9 if t == 0.0 else theta

        monkeypatch.setattr(wkb, "action_phase", offset_at_t0)
        check = run_sweep(with_epsilons(small_config, (0.2, 0.1))).checks["initial_exactness"]
        assert not check.passed and check.detail != "max t=0 error 0.000e+00"

    def test_initial_exactness_sees_a_moved_zero_shift(self, small_config, monkeypatch):
        # the zero-shift translate is part of the t = 0 amplitude path: one
        # that moves its field by one dx must fail the check
        real = wkb.translate

        def moved(f, grid, shift):
            s = np.atleast_1d(np.asarray(shift, dtype=float))
            return real(f, grid, s if s.any() else s + grid.dx)

        monkeypatch.setattr(wkb, "translate", moved)
        check = run_sweep(with_epsilons(small_config, (0.2, 0.1))).checks["initial_exactness"]
        assert not check.passed and check.detail != "max t=0 error 0.000e+00"

    def test_transform_budget(self, fft_calls, monkeypatch):
        # in axis passes (a pass over blocks of rows counted once), on a d-D
        # grid: per sample time 4 d M for the snapshot, then a forward and
        # an inverse per amplitude for its eps-free terms (||a||_E and its
        # half-Laplacian), 2 d M, however many eps there are; once per
        # sweep d M, the Wiener norms of a_j(0) - alpha_j (a t = 0 snapshot
        # transforms nothing); per record 6 d (state inverse, error Wiener
        # norm, the remainder's real convolution pair, the Wiener norms of
        # r and Z2); per eps at t = 0: d; per Strang step: 4 d
        cfg = three_mode_config()
        d = cfg.grid.d
        n_eps, n_times, n_modes = len(cfg.epsilons), len(cfg.sample_times), 3
        counts = {"laplacian": 0, "assemble": 0, "advance_passes": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        def advance_counted(*args, **kwargs):
            before = fft_calls.axis_passes()
            out = real_advance(*args, **kwargs)
            counts["advance_passes"] += fft_calls.axis_passes() - before
            return out

        real_advance = harness.advance
        monkeypatch.setattr(harness, "advance", advance_counted)
        laplacian_counted = counting("laplacian", grid_module.laplacian)
        monkeypatch.setattr(grid_module, "laplacian", laplacian_counted)
        monkeypatch.setattr(wkb, "laplacian", laplacian_counted)
        # every carrier sum is `assemble`: u0 once per eps at t = 0, u_app
        # and Z2 once per record
        assemble_counted = counting("assemble", wkb.assemble)
        monkeypatch.setattr(wkb, "assemble", assemble_counted)
        monkeypatch.setattr(harness, "assemble", assemble_counted)

        result = run_sweep(cfg)
        assert len(result.records) == n_eps * n_times
        steps = sum(
            max(1, math.ceil((b - a) / (cfg.dt_factor * eps) - 1e-12))
            for eps in cfg.epsilons
            for a, b in zip((0.0, *cfg.sample_times), cfg.sample_times)
        )
        assert counts["advance_passes"] == 4 * d * steps
        assert fft_calls.axis_passes() - counts["advance_passes"] == d * (
            n_eps + n_modes + 6 * n_modes * n_times + 6 * n_eps * n_times)
        assert counts["laplacian"] == 0
        assert counts["assemble"] == n_eps + 2 * n_eps * n_times

    @pytest.fixture
    def doomed_middle_eps(self, monkeypatch):
        """Make eps = 0.15 trip the divergence guard in its second gap, alone
        and in the sweep alike: past the first sample time its
        guard reference shrinks eightfold, so the real check fires."""
        real = solver.advance

        def touchy(raw, grid, khat_half, params, t_prev, t_next, norm0):
            if params.eps == 0.15 and t_prev > 0:
                norm0 = norm0 / 8
            return real(raw, grid, khat_half, params, t_prev, t_next, norm0)

        monkeypatch.setattr(solver, "advance", touchy)
        monkeypatch.setattr(harness, "advance", touchy)
        return 0.15

    # threads = 3 gives each of the three eps its own worker
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_mid_sweep_divergence(self, small_config, doomed_middle_eps, threads):
        cfg = with_epsilons(small_config, (0.2, 0.15, 0.1), threads=threads)
        result = run_sweep(cfg)
        assert set(result.failures) == {doomed_middle_eps}
        assert {r.eps for r in result.records} == {0.2, 0.1}
        assert len(result.records) == 4
        assert result.beta_fitted is not None

        params = SolverParams(
            eps=doomed_middle_eps,
            dt=cfg.dt_factor * doomed_middle_eps,
            final_time=cfg.final_time,
            dt_factor=cfg.dt_factor,
        )
        u0 = initial_data(cfg.family, doomed_middle_eps)
        with pytest.raises(DivergenceError) as alone:
            strang_run(u0, cfg.grid, cfg.kernel, params, cfg.sample_times)
        assert alone.value.time > cfg.sample_times[0]
        assert result.failures[doomed_middle_eps] == str(alone.value)
        self.assert_matches_reference(result, cfg)


def four_mode_config():
    """The four modes kappa = (+-2, 0), (0, +-2) on 256^2, one eps, one time."""
    grid = Grid(d=2, length=16.0, points=256)
    prof = GaussianProfile(amplitude=1.0, center=(0.0, 0.0), width=0.75)
    kappas = ([-2.0, 0.0], [2.0, 0.0], [0.0, -2.0], [0.0, 2.0])
    return SweepConfig(
        grid=grid,
        kernel=KernelSpec(d=2, gamma=0.5, coupling=1.0),
        family=ModeFamily.from_profiles(grid, [(k, prof) for k in kappas]),
        epsilons=(0.15,),
        final_time=0.0625,
        sample_times=(0.0625,),
    )


def first_record_inputs(cfg):
    """(amplitudes, run) of the first eps at the first sample time, as
    `run_sweep` hands them to `_record`."""
    run = harness._start(cfg, cfg.epsilons[0])
    khat_half = half_multiplier(cfg.kernel, cfg.grid, cfg.kernel.coupling)
    t = cfg.sample_times[0]
    assert harness._advance(cfg, khat_half, 0.0, t, run) is None
    return snapshot(cfg.family, t, cfg.kernel), run


class TestRecord:
    """A record measures its fields in a reusable pair of field buffers."""

    def test_warm_record_allocates_under_two_fields(self):
        cfg = four_mode_config()
        amps, run = first_record_inputs(cfg)
        t, buffers = cfg.sample_times[0], {}
        harness._record(cfg, amps, t, buffers, run)  # makes this thread's pair
        raw, norms = run.raw.copy(), run.norms
        tracemalloc.start()
        try:
            harness._record(cfg, amps, t, buffers, run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the pair aside, the record holds `assemble`'s block scratch (plus
        # numpy's iterator buffer for a broadcast carrier) and chunk scratch
        item = np.dtype(np.complex128).itemsize
        assert peak < (grid_module.CHUNK + np.getbufsize()) * item + 64 * 1024
        assert run.norms == norms
        assert np.array_equal(run.raw, raw)  # the spectrum survives the record

    def test_non_finite_field_rejected(self):
        cfg = three_mode_config()
        halves, run = first_record_inputs(cfg)
        t = cfg.sample_times[0]
        harness._record(cfg, halves, t, {}, run)  # the record only measures
        _half_laplacians(cfg.family, halves, cfg.kernel)
        halves[1][5, 7] = np.inf
        with pytest.raises(FloatingPointError, match="non-finite"):
            harness._z2_norms(cfg, halves, t, {}, run)
        assert run.records == []


class TestZ2Pass:
    def test_holds_one_field_and_block_scratch(self):
        # Z2 superposes into the thread's one buffer with block-sized
        # scratch (plus numpy's iterator buffer for a broadcast carrier);
        # the norms then form their moduli in chunk scratch
        cfg = four_mode_config()
        halves, run = first_record_inputs(cfg)
        t, eps = cfg.sample_times[0], cfg.epsilons[0]
        harness._record(cfg, halves, t, {}, run)
        _half_laplacians(cfg.family, halves, cfg.kernel)
        harness._z2_norms(cfg, halves, t, {}, run)  # FFT plan caches
        item = np.dtype(np.complex128).itemsize
        field_bytes = cfg.grid.total_points * item
        block_bytes = (grid_module.CHUNK + np.getbufsize()) * item
        (u,) = harness._fields({}, cfg.grid, 1)

        def peak_over_entry(fn, *args):
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - entry

        tracemalloc.start()
        try:
            superpose = peak_over_entry(assemble, cfg.family, halves, t, eps, u)
            cold = peak_over_entry(harness._z2_norms, cfg, halves, t, {},
                                   run)
        finally:
            tracemalloc.stop()
        assert superpose < block_bytes + 64 * 1024
        assert cold < field_bytes + block_bytes + 64 * 1024


class TestUnitPeak:
    def test_warm_two_mode_unit_peaks_under_six_and_a_half_arrays(self):
        # the unit peaks in the first record of a time: the M = 2
        # amplitudes, the two eps's row-padded spectra and the record's
        # field pair, plus block scratch (a quarter array at 256^2); the
        # record's remainder and norms add nothing of field size
        grid = Grid(d=2, length=16.0, points=256)
        prof = GaussianProfile(amplitude=1.0, center=(0.0, 0.0), width=0.75)
        kappas = ([-2.0, 0.0], [2.0, 0.0])
        cfg = SweepConfig(
            grid=grid,
            kernel=KernelSpec(d=2, gamma=0.5, coupling=1.0),
            family=ModeFamily.from_profiles(grid, [(k, prof) for k in kappas]),
            epsilons=(0.6, 0.5),
            final_time=0.2,
            sample_times=(0.1, 0.2),
        )
        run_sweep(cfg)  # memoized multiplier, FFT plan caches
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            run_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state = grid.total_points * np.dtype(np.complex128).itemsize
        assert peak - entry <= 6.5 * state


class TestValidateSuite:
    def test_default_passes(self, small_config):
        checks = validate_suite(small_config, algebra_pairs=50, hartree_pairs=25)
        for name, outcome in checks.items():
            assert outcome.passed, f"{name}: {outcome.detail}"

    def test_builds_amplitudes_only_and_no_graded_norm(self, small_config, monkeypatch):
        # the transport and modulus checks read the amplitudes alone and the
        # ansatz identity the amplitudes and their half-Laplacians; no check
        # reads ||a(t)||_E, so seven amplitude sets are built (one for the
        # identity, five for the transport stencil, one for the moduli) and
        # no graded norm
        calls = []
        for module, name in ((harness, "snapshot"), (wkb, "snapshot"),
                             (wkb, "_graded_norm")):
            real = getattr(module, name)

            def counted(*args, real=real, name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(module, name, counted)
        validate_suite(small_config, algebra_pairs=5, hartree_pairs=5)
        assert calls == ["snapshot"] * 7

    def test_kernel_fault_detected(self, small_config, monkeypatch):
        real = harness.hartree_constant
        monkeypatch.setattr(harness, "hartree_constant", lambda d, g: 1.1 * real(d, g))
        checks = validate_suite(small_config, algebra_pairs=5, hartree_pairs=5)
        assert not checks["kernel_constant"].passed

    def test_wrong_transport_speed_fails_the_transport_equation(self, small_config,
                                                                monkeypatch):
        # amplitudes carried at 1.5 kappa_j: transport_equation must see the
        # drift that the transport law does not account for
        real = wkb.translate

        def fast(f, grid, shift):
            return real(f, grid, 1.5 * np.atleast_1d(np.asarray(shift, dtype=float)))

        monkeypatch.setattr(wkb, "translate", fast)
        monkeypatch.setattr(harness, "translate", fast)
        checks = validate_suite(small_config, algebra_pairs=5, hartree_pairs=5)
        assert not checks["transport_equation"].passed


class TestCampaign:
    """`_campaign` on synthetic (lhs, rhs) blocks: a row holds when
    lhs <= rhs (1 + slack), and the margin is the worst relative excess in
    units of the slack."""

    def test_the_edge_row_passes_and_the_next_float_up_fails(self):
        slack, rhs = 1e-6, np.array([3.0])
        edge = rhs * (1 + slack)
        passed = harness._campaign([(edge, rhs)], slack, "one row")
        assert passed.passed and passed.detail.startswith("0 violations in one row")
        failed = harness._campaign([(np.nextafter(edge, np.inf), rhs)], slack, "one row")
        assert not failed.passed and failed.detail.startswith("1 violations")

    def test_zero_rhs_gives_zero_excess(self):
        blocks = [(np.array([0.0, 0.5]), np.array([0.0, 1.0]))]
        outcome = harness._campaign(blocks, 1e-10, "two rows")
        # row 0 has no excess by definition, row 1 is 50% under its bound
        assert outcome.passed and outcome.margin == 1.0
        assert outcome.detail == "0 violations in two rows, worst excess 0.000e+00"

    def test_validate_suite_passes_the_oracle_slacks(self, small_config, monkeypatch):
        # the tests judge campaign rows with the slacks validate_suite uses
        seen = []

        def spy(blocks, slack, what):
            seen.append(slack)
            return campaign(blocks, slack, what)

        campaign = harness._campaign
        monkeypatch.setattr(harness, "_campaign", spy)
        validate_suite(small_config, algebra_pairs=2, hartree_pairs=2)
        assert seen == [ALGEBRA_SLACK, HARTREE_SLACK]

    def test_margin_is_the_worst_excess_in_units_of_the_slack(self):
        slack = 1e-2
        blocks = [(np.array([1.0, 1.005]), np.array([1.0, 1.0])),
                  (np.array([1.02, 0.5]), np.array([1.0, 1.0]))]
        outcome = harness._campaign(blocks, slack, "four rows")
        excess = (1.02 - 1.0) / 1.0
        assert not outcome.passed
        assert outcome.margin == -excess / slack
        assert outcome.detail == f"1 violations in four rows, worst excess {excess:.3e}"


FIELD_GRIDS = [Grid(d=1, length=32.0, points=256), Grid(d=2, length=8.0, points=32),
               Grid(d=3, length=8.0, points=16)]
FIELD_GRID_IDS = ["1d_256", "2d_32x32", "3d_16x16x16"]
CAMPAIGN_CUTOFFS = {  # the band of each campaign's fields
    "algebra": lambda grid: grid.points // 4 - 1,
    "density": lambda grid: max(2, grid.points // 16),
}


def inverse_inputs(monkeypatch):
    """List that keeps a copy of every array handed to numpy.fft.ifftn."""
    seen = []
    real_ifftn = np.fft.ifftn

    def keep(x, *args, **kwargs):
        seen.append(np.array(x))
        return real_ifftn(x, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifftn", keep)
    return seen


class TestRandomFields:
    def test_band_limited_draw_unchanged(self, monkeypatch):
        # the spectrum handed to the inverse transform is, bit for bit, an
        # independent one-field draw of the band's coefficients only
        grid = Grid(d=2, length=8.0, points=32)
        seen = inverse_inputs(monkeypatch)
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        got, _ = _random_band_limited(grid, rng, 7)
        coef = in_band_coefficients(grid, ref_rng, 7)
        assert np.array_equal(seen[0].view(np.float64), coef.view(np.float64))
        assert np.array_equal(got, np.fft.ifftn(coef))
        # both consumed the same stretch of the stream
        assert rng.standard_normal() == ref_rng.standard_normal()

    @pytest.mark.parametrize("campaign", sorted(CAMPAIGN_CUTOFFS))
    @pytest.mark.parametrize("grid", FIELD_GRIDS, ids=FIELD_GRID_IDS)
    def test_coefficients_are_an_in_band_draw(self, monkeypatch, grid, campaign):
        cutoff = CAMPAIGN_CUTOFFS[campaign](grid)
        seen = inverse_inputs(monkeypatch)
        _random_band_limited(grid, np.random.default_rng(5), cutoff)
        coef = in_band_coefficients(grid, np.random.default_rng(5), cutoff)
        assert np.array_equal(seen[0].view(np.float64), coef.view(np.float64))
        inside = band_mask(grid, cutoff)
        assert np.all(seen[0][inside] != 0)
        assert np.all(seen[0][~inside].view(np.float64) == 0)

    @pytest.mark.parametrize("campaign", sorted(CAMPAIGN_CUTOFFS))
    @pytest.mark.parametrize("grid", FIELD_GRIDS, ids=FIELD_GRID_IDS)
    def test_field_consumes_two_normals_per_band_coefficient(self, grid, campaign):
        cutoff = CAMPAIGN_CUTOFFS[campaign](grid)
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        _random_band_limited(grid, rng, cutoff)
        ref_rng.standard_normal(2 * (2 * cutoff + 1) ** grid.d)
        assert rng.standard_normal() == ref_rng.standard_normal()

    @pytest.mark.parametrize("campaign, normals", [("algebra", 2 * 4095),
                                                   ("density", 2 * 1025)])
    def test_campaign_field_normals_at_8192(self, campaign, normals):
        grid = Grid(d=1, length=32.0, points=8192)
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        _random_band_limited(grid, rng, CAMPAIGN_CUTOFFS[campaign](grid))
        ref_rng.standard_normal(normals)
        assert rng.standard_normal() == ref_rng.standard_normal()

    @pytest.mark.parametrize("campaign, lead", [("algebra", (3, 2)), ("density", (5,))])
    @pytest.mark.parametrize("grid", FIELD_GRIDS, ids=FIELD_GRID_IDS)
    def test_stack_equals_one_row_draws(self, grid, campaign, lead):
        cutoff = CAMPAIGN_CUTOFFS[campaign](grid)
        got, w = _random_band_limited(grid, np.random.default_rng(9), cutoff, *lead)
        assert w.shape == lead
        rng = np.random.default_rng(9)
        rows = [_random_band_limited(grid, rng, cutoff) for _ in range(math.prod(lead))]
        assert np.array_equal(got.reshape(-1, *grid.shape), np.stack([v for v, _ in rows]))
        assert np.array_equal(w.reshape(-1), [n for _, n in rows])

    @pytest.mark.parametrize("campaign", sorted(CAMPAIGN_CUTOFFS))
    @pytest.mark.parametrize("grid", FIELD_GRIDS, ids=FIELD_GRID_IDS)
    def test_norms_are_the_wiener_norms_of_the_fields(self, grid, campaign):
        # read off the band, against a forward transform of each field
        vals, w = _random_band_limited(grid, np.random.default_rng(12),
                                       CAMPAIGN_CUTOFFS[campaign](grid), 3)
        for row, norm in zip(vals, w):
            assert norm == pytest.approx(l2_wiener(row, grid)[1], rel=1e-14, abs=0)

    @pytest.mark.parametrize("grid", FIELD_GRIDS, ids=FIELD_GRID_IDS)
    def test_draw_into_reused_buffer_equals_fresh_draw(self, grid):
        # a full block, then a partial one into a leading slice of the
        # same buffer, whatever the buffer held before
        cutoff, rows = grid.points // 4 - 1, 3
        buf = np.full((rows, 2, *grid.shape), np.nan + 1j * np.nan)
        rng, ref_rng = np.random.default_rng(13), np.random.default_rng(13)
        for count in (rows, 2):
            got, w = _random_band_limited(grid, rng, cutoff, count, 2, out=buf[:count])
            ref, ref_w = _random_band_limited(grid, ref_rng, cutoff, count, 2)
            assert np.shares_memory(got, buf)
            assert np.array_equal(got.view(np.float64), ref.view(np.float64))
            assert np.array_equal(w, ref_w)

    @pytest.mark.parametrize("grid", FIELD_GRIDS, ids=FIELD_GRID_IDS)
    def test_rejects_cutoff_above_anti_aliasing(self, grid):
        # above |k| <= N/4 - 1 the product of two drawn fields would alias
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match="anti-aliasing"):
            _random_band_limited(grid, rng, grid.points // 4, 1, 2)
        _random_band_limited(grid, rng, grid.points // 4 - 1, 1, 2)

    def test_campaign_reports_do_not_depend_on_block_rows(self, monkeypatch):
        grid = Grid(d=1, length=32.0, points=256)
        spec = KernelSpec(d=1, gamma=0.5)

        def reports():
            rng = np.random.default_rng(10)
            return (bound_rows(_algebra_campaign(grid, rng, 7), ALGEBRA_SLACK),
                    bound_rows(_hartree_campaign(spec, grid, rng, 7), HARTREE_SLACK))

        stacked = reports()
        monkeypatch.setattr(grid_module, "BLOCK_BYTES", 16 * grid.total_points * 3)
        assert grid.block_rows == 3
        assert reports() == stacked

    def test_smooth_density_unchanged(self):
        grid = Grid(d=1, length=32.0, points=256)
        got = _random_smooth_density(grid, np.random.default_rng(8))
        base, _ = _random_band_limited(grid, np.random.default_rng(8), grid.points // 16)
        (x,) = grid.coords()
        envelope = np.exp(-(x**2) / (2 * (grid.length / 12) ** 2))
        assert np.array_equal(got, np.abs(base) ** 2 * envelope)


BLAS_SWEEP = """\
import sys
import hartreelab as hl
grid = hl.Grid(d=2, length=20.0, points=128)
prof = hl.GaussianProfile(amplitude=1.0, center=(0.0, 0.0), width=1.0)
cfg = hl.SweepConfig(
    grid=grid, kernel=hl.KernelSpec(d=2, gamma=0.5),
    family=hl.ModeFamily.from_profiles(grid, [([1.0, 0.0], prof)]),
    epsilons=(0.4, 0.3, 0.2), final_time=0.2, sample_times=(0.1, 0.2))
hl.persist(hl.run_sweep(cfg), sys.argv[1])
"""


def test_records_do_not_depend_on_blas_threads(tmp_path):
    # the guard's L2 sums run over 128^2 moduli, long enough for a BLAS dot
    # to split them over its threads and round by the thread count
    src = str(Path(harness.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", BLAS_SWEEP, str(tmp_path / threads)],
                       env=env, check=True, capture_output=True)
    records = [(tmp_path / t / "records.csv").read_bytes() for t in ("1", "2")]
    assert len(records[0].splitlines()) == 1 + 6
    assert records[0] == records[1]


class TestPersist:
    def test_artifacts_written(self, small_config, tmp_path):
        result = run_sweep(small_config)
        paths = persist(result, tmp_path / "artifacts")
        for p in paths.values():
            assert p.is_file()

    def test_csv_round_trip_bit_exact(self, small_config, tmp_path):
        result = run_sweep(small_config)
        paths = persist(result, tmp_path / "artifacts")
        back = read_records_csv(paths["csv"])
        assert len(back) == len(result.records)
        for a, b in zip(result.records, back):
            for col in ("eps", "t", "err_l2", "err_w", "err_l2w",
                        "r_norm", "z2_norm", "mass_drift"):
                assert getattr(a, col) == getattr(b, col)

    def test_empty_records_header_only(self, small_config, tmp_path):
        from hartreelab import SweepResult

        empty = SweepResult(
            records=(),
            beta_expected=0.5,
            beta_fitted=None,
            c_fitted=None,
            fit_residual=None,
            checks={},
            failures={},
            config=small_config,
        )
        paths = persist(empty, tmp_path / "empty")
        lines = paths["csv"].read_text().splitlines()
        assert len(lines) == 1
        summary = json.loads(paths["json"].read_text())
        assert summary["beta_fitted"] is None
        assert summary["c_fitted"] is None

    def test_svg_structure(self, small_config, tmp_path):
        result = run_sweep(small_config)
        paths = persist(result, tmp_path / "artifacts")
        svg = paths["svg"].read_text()
        assert svg.startswith("<?xml")
        assert 'version="1.1"' in svg
        assert svg.count("<polyline") == len(small_config.sample_times)
        assert svg.count("<line") == 1
        assert "http://" not in svg.replace("http://www.w3.org/2000/svg", "")

    def test_json_summary_keys(self, small_config, tmp_path):
        result = run_sweep(small_config)
        paths = persist(result, tmp_path / "artifacts")
        summary = json.loads(paths["json"].read_text())
        for key in ("config_echo", "beta_expected", "beta_fitted",
                    "c_fitted", "fit_residual", "checks"):
            assert key in summary
        assert summary["config_echo"]["dimension"] == 1
        assert summary["config_echo"]["points"] == 1024
        for outcome in summary["checks"].values():
            assert set(outcome) == {"pass", "margin"}

    def test_deterministic_artifacts(self, small_config, tmp_path):
        r1 = run_sweep(small_config)
        r2 = run_sweep(small_config)
        p1 = persist(r1, tmp_path / "a")
        p2 = persist(r2, tmp_path / "b")
        for kind in ("csv", "json", "svg"):
            assert p1[kind].read_bytes() == p2[kind].read_bytes()
