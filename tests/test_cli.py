import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartreelab import (
    ConfigError,
    DivergenceError,
    PicardConvergenceError,
    load_config,
)
from hartreelab import cli
from hartreelab.cli import main


def base_config(tmp_path, **overrides):
    doc = {
        "dimension": 1,
        "gamma": 0.5,
        "lambda": 1.0,
        "box_length": 32.0,
        "points": 1024,
        "modes": [
            {
                "kappa": [-2.0],
                "profile": {
                    "type": "gaussian",
                    "amplitude": 1.0,
                    "center": [0.0],
                    "width": 1.0,
                },
            },
            {
                "kappa": [2.0],
                "profile": {
                    "type": "gaussian",
                    "amplitude": 1.0,
                    "center": [0.0],
                    "width": 1.0,
                },
            },
        ],
        "epsilons": [0.2, 0.1],
        "final_time": 0.2,
        "sample_times": [0.1, 0.2],
        "output": str(tmp_path / "out"),
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigLoading:
    def test_valid_config_loads(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config(tmp_path)))
        assert cfg.grid.points == 1024
        assert cfg.kernel.gamma == 0.5
        assert len(cfg.family.modes) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_gamma_constraint_named(self, tmp_path):
        doc = base_config(tmp_path, gamma=1.5)
        with pytest.raises(ConfigError, match="gamma constraint"):
            load_config(write_config(tmp_path, doc))

    def test_missing_key_named(self, tmp_path):
        doc = base_config(tmp_path)
        del doc["epsilons"]
        with pytest.raises(ConfigError, match="epsilons"):
            load_config(write_config(tmp_path, doc))

    def test_duplicate_kappa_rejected(self, tmp_path):
        doc = base_config(tmp_path)
        doc["modes"][1]["kappa"] = [-2.0]
        with pytest.raises(ConfigError, match="distinct"):
            load_config(write_config(tmp_path, doc))

    def test_bad_width_rejected(self, tmp_path):
        doc = base_config(tmp_path)
        doc["modes"][0]["profile"]["width"] = -1.0
        with pytest.raises(ConfigError, match="width"):
            load_config(write_config(tmp_path, doc))

    def test_odd_quadrature_nodes_rejected(self, tmp_path):
        doc = base_config(tmp_path, quadrature_nodes=9)
        with pytest.raises(ConfigError, match="quadrature_nodes"):
            load_config(write_config(tmp_path, doc))


class TestSimulate:
    def test_minimal_run(self, tmp_path):
        doc = base_config(tmp_path, epsilons=[0.2])
        code = main(["simulate", "--config", write_config(tmp_path, doc)])
        assert code == 0
        assert (tmp_path / "out" / "trajectory.csv").is_file()
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,l2,wiener,l2w,mass_drift"
        assert len(lines) == 4  # header + t=0 + two samples

    def test_horizon_shorter_than_one_step(self, tmp_path, capsys):
        # final_time < dt_factor * eps: the step is capped at final_time,
        # as in a sweep of the same file
        ref = Path(__file__).resolve().parents[1] / "configs" / "reference_1d.json"
        doc = json.loads(ref.read_text())
        doc.update(points=1024, epsilons=[0.2], final_time=0.01, sample_times=[0.01],
                   output=str(tmp_path / "out"))
        path = write_config(tmp_path, doc)
        for command in ("simulate", "sweep"):
            assert main([command, "--config", path]) == 0
        assert "Traceback" not in capsys.readouterr().err
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "0.01"]

    def test_multiple_epsilons_is_config_error(self, tmp_path):
        code = main(
            ["simulate", "--config", write_config(tmp_path, base_config(tmp_path))]
        )
        assert code == 2

    def test_gamma_out_of_range_exits_2(self, tmp_path, capsys):
        doc = base_config(tmp_path, gamma=1.5, epsilons=[0.2])
        code = main(["simulate", "--config", write_config(tmp_path, doc)])
        assert code == 2
        assert "gamma" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.json")])
        assert code == 2

    @pytest.mark.parametrize(
        "command, flag",
        [("simulate", "--threads"), ("validate", "--threads"),
         ("simulate", "--seed"), ("sweep", "--seed")],
    )
    def test_flag_the_command_ignores_exits_2(self, tmp_path, capsys, command, flag):
        path = write_config(tmp_path, base_config(tmp_path, epsilons=[0.2]))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", path, flag, "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSweep:
    def test_reference_style_run(self, tmp_path):
        code = main(["sweep", "--config", write_config(tmp_path, base_config(tmp_path))])
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["beta_fitted"] is not None
        assert (tmp_path / "out" / "records.csv").is_file()
        assert (tmp_path / "out" / "convergence.svg").is_file()

    def test_duplicate_kappa_exits_2(self, tmp_path):
        doc = base_config(tmp_path)
        doc["modes"][1]["kappa"] = [-2.0]
        code = main(["sweep", "--config", write_config(tmp_path, doc)])
        assert code == 2

    @pytest.mark.parametrize("dt_factor", [0.5, "abc"])
    def test_bad_dt_factor_exits_2(self, tmp_path, capsys, dt_factor):
        doc = base_config(tmp_path, dt_factor=dt_factor)
        code = main(["sweep", "--config", write_config(tmp_path, doc)])
        assert code == 2
        err = capsys.readouterr().err
        assert "dt_factor" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exits_2(self, tmp_path, capsys, threads):
        path = write_config(tmp_path, base_config(tmp_path))
        code = main(["sweep", "--config", path, "--threads", threads])
        assert code == 2
        err = capsys.readouterr().err
        assert "threads" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_remainder_rule_checked_at_load(self, tmp_path, capsys):
        # 256 points resolve the ansatz at eps = 0.25 but not the
        # two-mode remainder (25.13 < 28)
        doc = base_config(tmp_path, points=256, epsilons=[0.25, 0.2])
        code = main(["sweep", "--config", write_config(tmp_path, doc)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "remainder rule" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        target = tmp_path / "blocked"
        target.write_text("file, not a directory")
        doc = base_config(tmp_path, output=str(target / "sub"))
        code = main(["sweep", "--config", write_config(tmp_path, doc)])
        assert code == 3
        assert "blocked" in capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path))
        main(["sweep", "--config", path])
        first = {
            name: (tmp_path / "out" / name).read_bytes()
            for name in ("records.csv", "summary.json", "convergence.svg")
        }
        main(["sweep", "--config", path])
        for name, blob in first.items():
            assert (tmp_path / "out" / name).read_bytes() == blob


class TestValidate:
    def test_default_config_passes(self, tmp_path, capsys):
        code = main(
            ["validate", "--config", write_config(tmp_path, base_config(tmp_path))]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "kernel_constant: pass" in out

    def test_injected_fault_exits_1(self, tmp_path, capsys):
        code = main(
            [
                "validate",
                "--config",
                write_config(tmp_path, base_config(tmp_path)),
                "--inject-kernel-fault",
            ]
        )
        assert code == 1
        assert "kernel_constant: FAIL" in capsys.readouterr().out

    def test_3d_low_gamma_derivative_order(self, tmp_path):
        doc = base_config(
            tmp_path,
            dimension=3,
            gamma=0.5,
            points=64,
            box_length=16.0,
            epsilons=[0.5],
            final_time=0.05,
            sample_times=[0.05],
            modes=[
                {
                    "kappa": [0.1, 0.0, 0.0],
                    "profile": {
                        "type": "gaussian",
                        "amplitude": 1.0,
                        "center": [0.0, 0.0, 0.0],
                        "width": 0.85,
                    },
                }
            ],
        )
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.family.nspec.n == 3

    def test_single_mode_below_remainder_rule(self, tmp_path, capsys):
        # a single mode has no remainder, so the sweep runs; the ansatz
        # identity of validate needs the remainder rule (12.57 < 14.52)
        doc = base_config(
            tmp_path, dimension=3, points=64, box_length=16.0, epsilons=[0.5],
            final_time=0.05, sample_times=[0.05],
            modes=[{"kappa": [0.1, 0.0, 0.0],
                    "profile": {"type": "gaussian", "amplitude": 1.0,
                                "center": [0.0, 0.0, 0.0], "width": 0.85}}],
        )
        path = write_config(tmp_path, doc)
        assert main(["sweep", "--config", path]) == 0
        assert main(["validate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "remainder rule" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["sweep", "validate", "simulate"])
    @pytest.mark.parametrize(
        "path, bad",
        [(("lambda",), float("nan")), (("final_time",), float("nan")),
         (("box_length",), float("inf")), (("lambda",), 10**400),
         (("modes", 0, "profile"), {"type": "table", "values": [{}]})],
        ids=["lambda_nan", "final_time_nan", "box_length_inf", "lambda_past_float",
             "table_entry_dict"],
    )
    def test_non_finite_or_non_numeric_value_exits_2(
        self, tmp_path, capsys, command, path, bad
    ):
        # json reads NaN and Infinity; the schema accepts finite numbers only
        doc = base_config(tmp_path, epsilons=[0.2])
        *parents, key = path
        holder = doc
        for p in parents:
            holder = holder[p]
        holder[key] = bad
        code = main([command, "--config", write_config(tmp_path, doc)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "finite number" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the input
    def test_nan_state_trips_the_divergence_guard(self, tmp_path, capsys):
        # lambda = 1e306 overflows the first potential: the state turns NaN
        doc = base_config(tmp_path, **{"lambda": 1e306})
        path = write_config(tmp_path, doc)
        assert main(["sweep", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "eps=0.2 failed" in out and "eps=0.1 failed" in out
        assert main(["validate", "--config", path]) == 3
        assert capsys.readouterr().err.startswith("runtime error: ")


class TestRuntimeErrors:
    @pytest.mark.parametrize(
        "command, target", [("sweep", "run_sweep"), ("validate", "validate_suite")]
    )
    @pytest.mark.parametrize(
        "error",
        [
            DivergenceError(0.1, 4.5),
            PicardConvergenceError("increment grew for three consecutive iterations"),
            FloatingPointError("action phase acquired an imaginary part"),
        ],
        ids=["divergence", "picard", "imaginary_part"],
    )
    def test_exits_3_without_traceback(
        self, tmp_path, capsys, monkeypatch, command, target, error
    ):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, target, fail)
        code = main([command, "--config", write_config(tmp_path, base_config(tmp_path))])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ")
        assert "Traceback" not in err


MISSING = object()
BAD_VALUES = ({}, True, 0, -1, "abc", [], float("nan"), float("inf"), MISSING)
FUZZ_KEYS = (
    ("dimension",), ("gamma",), ("lambda",), ("box_length",), ("points",),
    ("modes",), ("epsilons",), ("final_time",), ("sample_times",),
    ("dt_factor",), ("quadrature_nodes",), ("output",),
    ("modes", 0), ("modes", 0, "kappa"), ("modes", 0, "profile"),
    ("modes", 0, "profile", "type"), ("modes", 0, "profile", "amplitude"),
    ("modes", 0, "profile", "center"), ("modes", 0, "profile", "width"),
    ("epsilons", 0), ("sample_times", 0),
)


def fuzz_base_config(out_dir):
    """A 256-point, two-eps config that sweeps in well under a second,
    with every optional key present so that each can be broken."""
    doc = base_config(out_dir, points=256, epsilons=[0.4, 0.2], dt_factor=0.1,
                      quadrature_nodes=64)
    for mode in doc["modes"]:
        mode["kappa"] = [mode["kappa"][0] / 2]
    return doc


class TestExitCodeFuzz:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(path=st.sampled_from(FUZZ_KEYS), bad=st.sampled_from(BAD_VALUES))
    def test_broken_key_maps_to_exit_code(self, path, bad):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            doc = fuzz_base_config(tmp)
            *parents, key = path
            holder = doc
            for p in parents:
                holder = holder[p]
            if bad is MISSING:
                del holder[key]
            else:
                holder[key] = bad
            err = io.StringIO()
            cwd = os.getcwd()
            os.chdir(tmp)  # a bare string "output" lands in the temporary dir
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    code = main(["sweep", "--config", write_config(tmp, doc)])
            finally:
                os.chdir(cwd)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
