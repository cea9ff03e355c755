"""End-to-end checks of the command line interface via subprocess."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import greybox as gb


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "greybox.cli", *argv],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def datadir(tmp_path_factory):
    """Generated example 1 CSVs shared by the pipeline tests."""
    out = tmp_path_factory.mktemp("ex1")
    proc = run_cli("generate", "--example", "example1", "--seed", "0", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return out


class TestGenerate:
    def test_writes_all_files_and_manifest(self, datadir):
        for name in ("zd", "zt", "zs", "zv"):
            assert (datadir / f"{name}.csv").exists()
        manifest = json.loads((datadir / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["example"] == "example1"
        assert manifest["seed"] == 0
        assert manifest["rows"]["zd"] == 100
        assert manifest["rows"]["zt"] == 400
        assert manifest["rows"]["zs"] == 50
        assert manifest["rows"]["zv"] == 2000

    def test_byte_identical_across_runs(self, datadir, tmp_path):
        proc = run_cli(
            "generate", "--example", "example1", "--seed", "0", "--out", str(tmp_path)
        )
        assert proc.returncode == 0
        for name in ("zd", "zt", "zs", "zv"):
            assert (tmp_path / f"{name}.csv").read_bytes() == (
                datadir / f"{name}.csv"
            ).read_bytes()

    def test_seed_changes_data(self, tmp_path):
        proc = run_cli(
            "generate", "--example", "example1", "--seed", "7", "--out", str(tmp_path)
        )
        assert proc.returncode == 0
        first = gb.read_csv(tmp_path / "zd.csv")
        second = gb.make_example1_datasets(0)[0]
        assert not (first.output == second.output).all()

    def test_unknown_example_exits_2(self, tmp_path):
        proc = run_cli(
            "generate", "--example", "nosuch", "--seed", "0", "--out", str(tmp_path)
        )
        assert proc.returncode == 2


@pytest.fixture(scope="module")
def trained(datadir, tmp_path_factory):
    """WLS model trained from file-based datasets."""
    out = tmp_path_factory.mktemp("train")
    config = {
        "structure": {"builtin": "example1"},
        "datasets": {"zd": str(datadir / "zd.csv"), "zs": str(datadir / "zs.csv")},
        "lambda": 0.3,
        "algorithm": "wls",
    }
    path = out / "config.json"
    path.write_text(json.dumps(config))
    proc = run_cli("train", "--config", str(path), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return out


class TestTrain:
    def test_outputs_and_manifest(self, trained):
        model = gb.load_model(trained / "model.json")
        assert isinstance(model, gb.PolynomialModel)
        manifest = json.loads((trained / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["train"]["lambda"] == 0.3
        assert manifest["train"]["algorithm"] == "wls"
        assert manifest["summary"]["j_d"] > 0
        assert manifest["summary"]["j_s_hat"] >= 0

    def test_recovers_true_parameters(self, trained):
        import numpy as np

        from greybox.models import EXAMPLE1_TRUE_THETA

        model = gb.load_model(trained / "model.json")
        assert np.allclose(model.theta, EXAMPLE1_TRUE_THETA, atol=0.1)

    def test_lambda_flag_overrides_config(self, datadir, trained, tmp_path):
        config = json.loads((trained / "config.json").read_text())
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc = run_cli(
            "train", "--config", str(path), "--lambda", "0.6", "--out", str(tmp_path)
        )
        assert proc.returncode == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["train"]["lambda"] == 0.6

    def test_singular_problem_exits_3(self, trained, tmp_path):
        config = json.loads((trained / "config.json").read_text())
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc = run_cli(
            "train", "--config", str(path), "--lambda", "1.0", "--out", str(tmp_path)
        )
        assert proc.returncode == 3
        assert "rank deficient" in proc.stderr

    def test_missing_config_file_exits_2(self, tmp_path):
        proc = run_cli(
            "train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)
        )
        assert proc.returncode == 2

    def test_missing_out_exits_2(self, trained):
        proc = run_cli("train", "--config", str(trained / "config.json"))
        assert proc.returncode == 2
        assert "output directory" in proc.stderr

    def test_lambda_without_statics_exits_2(self, datadir, tmp_path):
        config = {
            "structure": {"builtin": "example1"},
            "datasets": {"zd": str(datadir / "zd.csv")},
            "lambda": 0.3,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc = run_cli("train", "--config", str(path), "--out", str(tmp_path))
        assert proc.returncode == 2
        assert "steady-state" in proc.stderr

    def test_generator_datasets_in_config(self, tmp_path):
        config = {
            "structure": {"builtin": "example1"},
            "datasets": {"generator": "example1", "seed": 3},
            "lambda": 0.2,
            "algorithm": "wls",
            "out": str(tmp_path),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc = run_cli("train", "--config", str(path))
        assert proc.returncode == 0
        assert (tmp_path / "model.json").exists()

    def test_weighted_lm_writes_trace(self, tmp_path):
        config = {
            "structure": {"builtin": "example2"},
            "datasets": {"generator": "example2", "seed": 0},
            "lambda": 0.2,
            "algorithm": "weighted_lm",
            "lm": {"max_iterations": 3},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc = run_cli("train", "--config", str(path), "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "iteration,j_d,j_s_hat,j_sd,wall_time_ms,model_evaluations"
        assert len(lines) >= 2
        model = gb.load_model(tmp_path / "model.json")
        assert isinstance(model, gb.MlpModel)

    def test_ga_legacy_writes_legacy_trace(self, tmp_path):
        config = {
            "structure": {"builtin": "example1"},
            "datasets": {"generator": "example1", "seed": 0},
            "lambda": 0.5,
            "algorithm": "ga_legacy",
            "ga": {"population_size": 6, "generations": 2},
            "fixed_point": {"fixed_horizon": 5},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc = run_cli("train", "--config", str(path), "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "iteration,j_d,j_s_legacy,j_sd,wall_time_ms,model_evaluations"
        assert len(lines) == 1 + 2 + 1  # header, initial row, one per generation


class TestEval:
    def test_one_step(self, datadir, trained, tmp_path):
        proc = run_cli(
            "eval", "--model", str(trained / "model.json"),
            "--data", str(datadir / "zt.csv"), "--mode", "one-step",
            "--out", str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["mode"] == "one-step"
        assert 0 < metrics["rmse_one_step"] < 1.0
        lines = (tmp_path / "predictions.csv").read_text().splitlines()
        assert lines[0] == "y,y_hat,residual"

    def test_free_run(self, datadir, trained, tmp_path):
        proc = run_cli(
            "eval", "--model", str(trained / "model.json"),
            "--data", str(datadir / "zt.csv"), "--mode", "free-run",
            "--out", str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["diverged"] is False
        assert metrics["rmse"] < 1.0
        lines = (tmp_path / "freerun.csv").read_text().splitlines()
        assert lines[0] == "y,y_hat"

    def test_static_curve(self, datadir, trained, tmp_path):
        proc = run_cli(
            "eval", "--model", str(trained / "model.json"),
            "--data", str(datadir / "zs.csv"), "--mode", "static-curve",
            "--out", str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["n_points"] == 50
        assert metrics["n_converged"] > 0
        lines = (tmp_path / "static_curve.csv").read_text().splitlines()
        assert lines[0] == "u1_bar,y_bar,converged"

    def test_mode_data_mismatch_exits_2(self, datadir, trained, tmp_path):
        proc = run_cli(
            "eval", "--model", str(trained / "model.json"),
            "--data", str(datadir / "zs.csv"), "--mode", "one-step",
            "--out", str(tmp_path),
        )
        assert proc.returncode == 2
        assert "dynamical record" in proc.stderr


class TestSweep:
    def test_full_sweep_with_selections(self, tmp_path):
        config = {
            "structure": {"builtin": "example1"},
            "datasets": {"generator": "example1", "seed": 0},
            "algorithm": "wls",
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc = run_cli(
            "sweep", "--config", str(path), "--grid", "0.1,0.5,0.9",
            "--out", str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        assert "swept 3 lambdas (3 trained)" in proc.stdout
        for name in ("sweep.csv", "pareto.csv", "model_min_corr.json",
                     "model_min_rmse_zt.json"):
            assert (tmp_path / name).exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["selections"]) == {"min_corr", "min_rmse_zt"}
        assert manifest["grid"] == [0.1, 0.5, 0.9]
        model = gb.load_model(tmp_path / "model_min_rmse_zt.json")
        assert isinstance(model, gb.PolynomialModel)

    def test_sweep_without_zt_skips_that_selection(self, datadir, tmp_path):
        config = {
            "structure": {"builtin": "example1"},
            "datasets": {"zd": str(datadir / "zd.csv"), "zs": str(datadir / "zs.csv")},
            "algorithm": "wls",
            "grid": [0.2, 0.6],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc = run_cli("sweep", "--config", str(path), "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert not (tmp_path / "model_min_rmse_zt.json").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["selections"]) == {"min_corr"}

    def test_grid_object_in_config(self, datadir, tmp_path):
        config = {
            "structure": {"builtin": "example1"},
            "datasets": {"zd": str(datadir / "zd.csv"), "zs": str(datadir / "zs.csv")},
            "algorithm": "wls",
            "grid": {"start": 0.1, "stop": 0.3, "count": 3},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc = run_cli("sweep", "--config", str(path), "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4

    def test_untrainable_point_is_reported_not_fatal(self, datadir, tmp_path):
        config = {
            "structure": {"builtin": "example1"},
            "datasets": {"zd": str(datadir / "zd.csv"), "zs": str(datadir / "zs.csv")},
            "algorithm": "wls",
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc = run_cli(
            "sweep", "--config", str(path), "--grid", "0.2,0.6,1.0",
            "--out", str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        assert "swept 3 lambdas (2 trained)" in proc.stdout
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert "rank deficient" in lines[3]

    def test_sweep_without_statics_exits_2(self, datadir, tmp_path):
        config = {
            "structure": {"builtin": "example1"},
            "datasets": {"zd": str(datadir / "zd.csv")},
            "algorithm": "wls",
            "grid": [0.2],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc = run_cli("sweep", "--config", str(path), "--out", str(tmp_path))
        assert proc.returncode == 2
        assert "steady-state" in proc.stderr


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize(
    "algorithm,example",
    [("weighted_lm", "example1"), ("wls", "example2"), ("ols", "example2")],
)
def test_structure_algorithm_mismatch_exits_2(command, algorithm, example, tmp_path):
    config = {
        "structure": {"builtin": example},
        "datasets": {"generator": example, "seed": 0},
        "algorithm": algorithm,
        "lambda": 0.3,
        "grid": [0.3, 0.6],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    proc = run_cli(command, "--config", str(path), "--out", str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"{algorithm} needs a" in proc.stderr
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize(
    "name,row,column,cell", [("zd", 5, "y", "nan"), ("zs", 3, "y_bar", "inf")]
)
def test_non_finite_cell_exits_2(command, name, row, column, cell, datadir, tmp_path):
    lines = (datadir / f"{name}.csv").read_text().splitlines()
    cells = lines[row - 1].split(",")
    cells[lines[0].split(",").index(column)] = cell
    lines[row - 1] = ",".join(cells)
    (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
    datasets = {key: str(datadir / f"{key}.csv") for key in ("zd", "zs")}
    datasets[name] = str(tmp_path / f"{name}.csv")
    config = {
        "structure": {"builtin": "example1"},
        "datasets": datasets,
        "algorithm": "wls",
        "lambda": 0.3,
        "grid": [0.3],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    proc = run_cli(command, "--config", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"non-finite cell {cell!r}, row {row}, column {column}" in proc.stderr


def test_example1_script_runs(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_example1.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sweep.csv").exists()


def test_import_does_not_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, greybox; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
