"""End-to-end checks of the command line interface, in a subprocess or
through ``greybox.cli.main``."""

import csv
import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import greybox as gb
from greybox.cli import build_parser, main
from greybox.estimation import ALGORITHMS, write_trace_csv
from greybox.steady_state import write_static_curve_csv
from greybox.sweep import write_sweep_csv


# child interpreters import greybox from where this one did, so the tests
# also run from a checkout that was never installed
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(gb.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
}


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "greybox.cli", *argv],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def load_json(path):
    """A JSON artefact, read as strict JSON: NaN and Infinity, which Python's
    json reads and writes by default, fail the test."""
    return json.loads(Path(path).read_text(), parse_constant=_refuse_constant)


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
        second = gb.make_datasets("example1", 0)[0]
        assert not (first.output == second.output).all()

    def test_unknown_example_exits_2(self, tmp_path):
        proc = run_cli(
            "generate", "--example", "nosuch", "--seed", "0", "--out", str(tmp_path)
        )
        assert proc.returncode == 2

    def test_negative_seed_exits_2(self, tmp_path):
        # numpy seeds must be nonnegative; refused before numpy sees them
        proc = run_cli(
            "generate", "--example", "example1", "--seed", "-1", "--out", str(tmp_path)
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and "seed" in proc.stderr


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
        model = gb.model_from_json(load_json(trained / "model.json"))
        assert isinstance(model, gb.PolynomialModel)
        manifest = load_json(trained / "manifest.json")
        assert manifest["command"] == "train"
        assert manifest["train"]["lambda"] == 0.3
        assert manifest["train"]["algorithm"] == "wls"
        assert manifest["summary"]["j_d"] > 0
        assert manifest["summary"]["j_s_hat"] >= 0

    def test_recovers_true_parameters(self, trained):
        import numpy as np

        from greybox.models import EXAMPLE1_TRUE_THETA

        model = gb.model_from_json(load_json(trained / "model.json"))
        assert np.allclose(model.theta, EXAMPLE1_TRUE_THETA, atol=0.1)

    def test_lambda_flag_overrides_config(self, datadir, trained, tmp_path):
        config = load_json(trained / "config.json")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc = run_cli(
            "train", "--config", str(path), "--lambda", "0.6", "--out", str(tmp_path)
        )
        assert proc.returncode == 0
        manifest = load_json(tmp_path / "manifest.json")
        assert manifest["train"]["lambda"] == 0.6

    def test_singular_problem_exits_3(self, trained, tmp_path):
        config = load_json(trained / "config.json")
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
        model = gb.model_from_json(load_json(tmp_path / "model.json"))
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

    def test_seed_reaches_the_ga(self, tmp_path):
        # --seed sets init_seed, which seeds the GA's generator as well
        config = {
            "structure": {"builtin": "example1"},
            "datasets": {"generator": "example1", "seed": 0},
            "lambda": 0.5,
            "algorithm": "ga_legacy",
            "ga": {"population_size": 4, "generations": 1},
            "fixed_point": {"fixed_horizon": 5},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        models = []
        for seed in ("0", "1"):
            out = tmp_path / f"seed{seed}"
            assert main(["train", "--config", str(path), "--seed", seed, "--out", str(out)]) == 0
            assert load_json(out / "manifest.json")["train"]["init_seed"] == int(seed)
            models.append((out / "model.json").read_bytes())
        assert models[0] != models[1]

    def test_removed_ols_algorithm_exits_2(self, trained, tmp_path):
        # the black box is wls at lambda 0 without zs; ols is no longer a choice
        proc = run_cli(
            "train", "--config", str(trained / "config.json"), "--algorithm", "ols",
            "--out", str(tmp_path),
        )
        assert proc.returncode == 2
        assert "invalid choice: 'ols'" in proc.stderr


class TestEval:
    def test_one_step(self, datadir, trained, tmp_path):
        proc = run_cli(
            "eval", "--model", str(trained / "model.json"),
            "--data", str(datadir / "zt.csv"), "--mode", "one-step",
            "--out", str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        metrics = load_json(tmp_path / "metrics.json")
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
        metrics = load_json(tmp_path / "metrics.json")
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
        metrics = load_json(tmp_path / "metrics.json")
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
        manifest = load_json(tmp_path / "manifest.json")
        assert set(manifest["selections"]) == {"min_corr", "min_rmse_zt"}
        assert manifest["grid"] == [0.1, 0.5, 0.9]
        model = gb.model_from_json(load_json(tmp_path / "model_min_rmse_zt.json"))
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
        manifest = load_json(tmp_path / "manifest.json")
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

    def test_failed_point_leaves_its_costs_empty(self, tmp_path):
        # lambda = 1 is rank deficient for example1: its row names the error
        # and, as every missing score, reads empty, not nan, in both costs
        config = {
            "structure": {"builtin": "example1"},
            "datasets": {"generator": "example1", "seed": 0},
            "algorithm": "wls",
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc = run_cli(
            "sweep", "--config", str(path), "--grid", "0.5,1.0", "--out", str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        with open(tmp_path / "sweep.csv", newline="") as fh:
            trained, failed = csv.DictReader(fh)
        assert failed["lambda"] == "1.0" and "SingularityError" in failed["error"]
        assert failed["j_d"] == "" and failed["j_s_hat"] == ""
        assert trained["error"] == "" and float(trained["j_d"]) > 0.0

    def test_pareto_rows_are_the_sweep_rows(self, datadir, tmp_path):
        config = {
            "structure": {"builtin": "example1"},
            "datasets": {"zd": str(datadir / "zd.csv"), "zs": str(datadir / "zs.csv")},
            "algorithm": "wls",
        }
        path, out = tmp_path / "config.json", tmp_path / "out"
        path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(path), "--grid", "0.1,0.3,0.5,0.7,0.9,1.0",
                     "--out", str(out)]) == 0
        sweep_rows = (out / "sweep.csv").read_bytes().splitlines()
        pareto_rows = (out / "pareto.csv").read_bytes().splitlines()
        by_lambda = {row.split(b",")[0]: row for row in sweep_rows[1:]}
        assert pareto_rows[0] == sweep_rows[0]
        assert len(pareto_rows) > 2
        for row in pareto_rows[1:]:
            assert row == by_lambda[row.split(b",")[0]]

    def test_sweep_without_statics_exits_2(self, datadir, tmp_path):
        # every point is scored on j_s_hat, even lambda 0's, which trains without zs
        for grid in ([0.0], [0.2]):
            config = {
                "structure": {"builtin": "example1"},
                "datasets": {"zd": str(datadir / "zd.csv")},
                "algorithm": "wls",
                "grid": grid,
            }
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            proc = run_cli("sweep", "--config", str(path), "--out", str(tmp_path))
            assert proc.returncode == 2
            assert "steady-state" in proc.stderr


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize(
    "algorithm,example",
    [("weighted_lm", "example1"), ("wls", "example2")],
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


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("typo", ["lamda", "datasets.zvv", "grid.cout"])
def test_misspelt_config_key_exits_2(command, typo, datadir, tmp_path, capsys):
    # a key no block knows was ignored, so the run went on without its entry
    block, _, key = typo.rpartition(".")
    entries = {
        "": {"lamda": 0.5},
        "datasets": {"datasets": {
            **{name: str(datadir / f"{name}.csv") for name in ("zd", "zt", "zs")},
            "zvv": str(datadir / "zv.csv"),
        }},
        "grid": {"grid": {"start": 0.1, "stop": 0.9, "cout": 3}},
    }[block]
    assert _run(datadir, tmp_path, command, entries) == 2
    err = capsys.readouterr().err
    assert f"unknown {block or 'config'} key {key!r}" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize(
    "where,key",
    [
        ("builtin", "buitin"),
        ("file", "fiel"),
        ("model file", "comment"),
        ("inline model", "comment"),
        ("inline model", "n_hidden"),
        ("inline regressors", "include_constnt"),
    ],
)
def test_misspelt_structure_key_exits_2(command, where, key, datadir, tmp_path, capsys):
    # a key the structure block or a model document does not list was
    # ignored: a second builtin went unread, a misspelt include_constant
    # kept the constant slot
    doc = gb.model_to_json(gb.example_structure("example1"))
    model_path = tmp_path / "model.json"
    if where == "model file":
        doc[key] = "x"
    model_path.write_text(json.dumps(doc))
    if where == "inline regressors":
        doc["regressors"][key] = False
    elif where == "inline model":
        doc[key] = 1
    structure = {
        "builtin": {"builtin": "example1", key: "example2"},
        "file": {"file": str(model_path), key: str(model_path)},
        "model file": {"file": str(model_path)},
    }.get(where, doc)
    assert _run(datadir, tmp_path, command, {"structure": structure}) == 2
    block = {"builtin": "structure", "file": "structure", "inline regressors": "regressors"}
    err = capsys.readouterr().err
    assert f"unknown {block.get(where, 'model')} key {key!r}" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key",
    ["structure.file", "datasets.zd", "datasets.zt", "datasets.zs", "datasets.zv", "out"],
)
def test_non_string_path_exits_2(key, datadir, tmp_path, capsys):
    # a path is a JSON string: open() would take an integer for a file descriptor
    config = {
        "structure": {"builtin": "example1"},
        "datasets": {name: str(datadir / f"{name}.csv") for name in ("zd", "zt", "zs", "zv")},
        "algorithm": "wls",
        "lambda": 0.3,
        "out": str(tmp_path / "out"),
    }
    block, _, name = key.rpartition(".")
    if block == "structure":
        config["structure"] = {"file": -1}
    else:
        (config[block] if block else config)[name] = -1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err, err


INFINITE_TOLERANCE = b"""{
  "structure": {"builtin": "example1"},
  "datasets": {"generator": "example1"},
  "algorithm": "ga_legacy",
  "lambda": 0.5,
  "grid": [0.5],
  "ga": {"population_size": 2, "generations": 0},
  "fixed_point": {"tolerance": Infinity}
}"""


@pytest.mark.parametrize(
    "content",
    [b'{"lambda": ' + b"1" * 5000 + b"}", b"\x80{}", INFINITE_TOLERANCE,
     b'{"theta": [NaN], "lambda": -Infinity}'],
    ids=["long-integer", "not-utf8", "infinite-tolerance", "nan-and-minus-infinity"],
)
def test_undecodable_json_exits_2(content, datadir, tmp_path, capsys):
    # Python's json reads NaN and Infinity, which are not JSON: an infinite
    # tolerance made every fixed point converge after two steps
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    out = str(tmp_path / "out")
    for argv in (
        ["train", "--config", str(path), "--out", out],
        ["sweep", "--config", str(path), "--out", out],
        ["eval", "--model", str(path), "--data", str(datadir / "zd.csv"), "--mode", "one-step",
         "--out", out],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err and "Traceback" not in err, err


@pytest.mark.parametrize(
    "content,named",
    [
        (b"u1,y\n1.0,2.0\n\xff\xfe,3\n", "zd.csv: undecodable bytes"),
        (b"\xef\xbb\xbfu1,y\n1.0,2.0\n\xff\xfe,3\n", "zd.csv: undecodable bytes"),
        (b"u1,y\n1.0,2.0\n" + b"1" * 200_000 + b",3\n", "zd.csv: field larger than field limit"),
    ],
    ids=["not-utf8", "bom-then-not-utf8", "over-long-cell"],
)
def test_unreadable_csv_exits_2(content, named, datadir, trained, tmp_path, capsys):
    path = tmp_path / "zd.csv"
    path.write_bytes(content)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"structure": {"builtin": "example1"}, "datasets": {"zd": str(path)}, "algorithm": "wls"}
    ))
    out = str(tmp_path / "out")
    for argv in (
        ["train", "--config", str(config), "--out", out],
        ["eval", "--model", str(trained / "model.json"), "--data", str(path), "--mode", "one-step",
         "--out", out],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err, err


def test_negative_zero_lambda_is_written_as_zero(datadir, tmp_path):
    # -0.0 == 0.0, so it passes every range check, but json and the CSV
    # writer keep its sign
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "structure": {"builtin": "example1"}, "algorithm": "wls",
        "datasets": {name: str(datadir / f"{name}.csv") for name in ("zd", "zt", "zs")},
    }))
    swept, trained = tmp_path / "sweep", tmp_path / "train"
    assert main(["sweep", "--config", str(config), "--grid=-0.0,0.5", "--out", str(swept)]) == 0
    with open(swept / "sweep.csv", newline="") as fh:
        assert [row["lambda"] for row in csv.DictReader(fh)] == ["0.0", "0.5"]
    assert main(["train", "--config", str(config), "--lambda", "-0.0", "--out", str(trained)]) == 0
    for manifest in (swept / "manifest.json", trained / "manifest.json"):
        assert "-0.0" not in manifest.read_text()
    assert load_json(swept / "manifest.json")["grid"] == [0.0, 0.5]
    assert load_json(trained / "manifest.json")["train"]["lambda"] == 0.0


def test_csv_with_a_byte_order_mark_reads_as_without(datadir, trained, tmp_path):
    # spreadsheets save "CSV UTF-8" with a leading byte-order mark
    for name, content in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(content + (datadir / "zd.csv").read_bytes())
        out = tmp_path / name
        argv = ["eval", "--model", str(trained / "model.json"), "--data", str(path),
                "--mode", "one-step", "--out", str(out)]
        assert main(argv) == 0
    assert (tmp_path / "bom" / "predictions.csv").read_bytes() == (
        tmp_path / "plain" / "predictions.csv"
    ).read_bytes()


@pytest.mark.parametrize(
    "example,where,value,named",
    [
        ("example1", ("regressors", "output_lags"), [1.7, 2], "output lags"),
        ("example1", ("regressors", "output_lags"), [True, 2], "output lags"),
        ("example1", ("regressors", "input_lags"), [[1, 2.5]], "input channel 1 lags"),
        ("example1", ("regressors", "include_constant"), "no", "include_constant"),
        ("example1", ("regressors", "include_constant"), 1, "include_constant"),
        ("example1", ("terms",), [[2.9], [3], [2, 3], [1, 3], [1, 4]], "term index"),
        ("example1", ("terms",), [[2], [True], [2, 3], [1, 3], [1, 4]], "term index"),
        ("example2", ("n_hidden",), 1.5, "n_hidden"),
        ("example2", ("n_hidden",), True, "n_hidden"),
        ("example1", ("theta",), ["0.1", 0.0, 0.0, 0.0, 0.0], "theta entry"),
        ("example1", ("theta",), [True, 0.0, 0.0, 0.0, 0.0], "theta entry"),
        ("example1", ("packing_version",), True, "packing_version"),
        # lags size the buffers of every run: refused at load, before any is built
        ("example1", ("regressors", "output_lags"), [1, 10**9],
         "output lags must be an integer in [1, 1000000], got 1000000000"),
    ],
    ids=["float-lag", "bool-lag", "float-input-lag", "string-constant", "int-constant",
         "float-term-index", "bool-term-index", "float-n-hidden", "bool-n-hidden",
         "string-theta", "bool-theta", "bool-packing-version", "huge-lag"],
)
def test_bad_model_document_exits_2(example, where, value, named, datadir, tmp_path, capsys):
    # lags, term indices and n_hidden are integers, theta entries numbers,
    # packing_version the integer 1 and include_constant a boolean, in a
    # config's structure block and in a model file alike
    doc = gb.model_to_json(gb.example_structure(example))
    *parents, last = where
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    algorithm = "wls" if example == "example1" else "weighted_lm"
    entries = {"structure": doc, "algorithm": algorithm, "lm": {"max_iterations": 1}}
    assert _run(datadir, tmp_path, "train", entries) == 2
    assert main(["eval", "--model", str(model), "--data", str(datadir / "zd.csv"),
                 "--mode", "one-step", "--out", str(tmp_path / "eval")]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 2 and all(named in e for e in errors), errors


@pytest.mark.parametrize(
    "command,regressors,zt_rows,named",
    [
        ("train", {"output_lags": [1, 200]}, None,
         "dataset 'zd' is too short: 100 samples for max lag 200"),
        ("train", {"input_lags": [[1], [1]]}, None,
         "dataset 'zd' has 1 input channels, the structure expects 2"),
        ("sweep", {"input_lags": [[1], [1]]}, None,
         "dataset 'zd' has 1 input channels, the structure expects 2"),
        ("sweep", {}, 2, "dataset 'zt' is too short: 2 samples for max lag 2"),
        ("sweep", {"input_lags": [[1, 10**9]]}, None,
         "input channel 1 lags must be an integer in [1, 1000000], got 1000000000"),
    ],
    ids=["train-long-lag", "train-channels", "sweep-channels", "sweep-short-zt",
         "sweep-huge-lag"],
)
def test_structure_that_does_not_fit_the_data_exits_2(
    command, regressors, zt_rows, named, datadir, tmp_path, capsys
):
    # checked against every dataset the command touches, before any fit
    doc = gb.model_to_json(gb.example_structure("example1"))
    doc["regressors"].update(regressors)
    datasets = {key: str(datadir / f"{key}.csv") for key in ("zd", "zt", "zs", "zv")}
    if zt_rows is not None:
        lines = (datadir / "zt.csv").read_text().splitlines()
        (tmp_path / "zt.csv").write_text("\n".join(lines[: 1 + zt_rows]) + "\n")
        datasets["zt"] = str(tmp_path / "zt.csv")
    assert _run(datadir, tmp_path, command, {"structure": doc, "datasets": datasets}) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err, err
    assert not (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.parametrize(
    "regressors,name,mode,named",
    [
        ({"output_lags": [1, 200]}, "zd", "one-step", "is too short: 100 samples for max lag 200"),
        ({"output_lags": [1, 200]}, "zd", "free-run", "is too short: 100 samples for max lag 200"),
        ({"input_lags": [[1], [1]]}, "zs", "static-curve",
         "has 1 input channels, the structure expects 2"),
    ],
    ids=["one-step-long-lag", "free-run-long-lag", "static-curve-channels"],
)
def test_eval_structure_that_does_not_fit_the_data_exits_2(
    regressors, name, mode, named, datadir, tmp_path, capsys
):
    doc = gb.model_to_json(gb.example_structure("example1"))
    doc["regressors"].update(regressors)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    data = str(datadir / f"{name}.csv")
    argv = ["eval", "--model", str(model), "--data", data, "--mode", mode,
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"dataset {data!r} {named}" in err and "Traceback" not in err, err


def test_free_run_of_an_input_free_record_exits_0(tmp_path):
    # a y-only record fits an output-lag-only polynomial, scores one step
    # ahead and free-runs: the run takes its length from the output
    zd = tmp_path / "zd.csv"
    zd.write_text("y\n" + "\n".join(repr(0.5**k) for k in range(20)) + "\n")
    structure = {
        "kind": "polynomial",
        "packing_version": 1,
        "regressors": {"output_lags": [1], "input_lags": []},
        "terms": [[1]],
        "theta": [0.0],
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"structure": structure, "datasets": {"zd": str(zd)}, "algorithm": "wls"}
    ))
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    evaluate = ["eval", "--model", str(tmp_path / "run" / "model.json"), "--data", str(zd),
                "--out", str(tmp_path / "eval"), "--mode"]
    assert main([*evaluate, "one-step"]) == 0
    assert main([*evaluate, "free-run"]) == 0
    metrics = load_json(tmp_path / "eval" / "metrics.json")
    assert metrics["diverged"] is False and math.isfinite(metrics["rmse"])
    lines = (tmp_path / "eval" / "freerun.csv").read_text().splitlines()
    assert lines[0] == "y,y_hat" and len(lines) == 21


@pytest.mark.parametrize("mode,data,cost", [("one-step", "zd", "j_d"),
                                            ("static-curve", "zs", "j_s_hat")])
def test_overflowing_cost_is_written_as_null(mode, data, cost, tmp_path):
    # y(k) = 1e200 + 0.5 y(k-1): squared residuals overflow to inf, which is
    # the cost, without a numpy warning, and strict JSON holds it as null
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "kind": "polynomial",
        "packing_version": 1,
        "regressors": {"output_lags": [1], "input_lags": [[]]},
        "terms": [[], [1]],
        "theta": [1e200, 0.5],
    }))
    (tmp_path / "zd.csv").write_text(
        "u1,y\n" + "".join(f"{k / 10!r},{0.5**k!r}\n" for k in range(20))
    )
    (tmp_path / "zs.csv").write_text("u1_bar,y_bar\n0.0,0.0\n1.0,0.5\n")
    out = tmp_path / "eval"
    argv = ["eval", "--model", str(model), "--data", str(tmp_path / f"{data}.csv"),
            "--mode", mode, "--out", str(out)]
    assert main(argv) == 0
    metrics = load_json(out / "metrics.json")
    assert metrics[cost] is None
    if mode == "one-step":
        assert metrics["rmse_one_step"] == 1e6
    else:
        assert metrics["n_converged"] == 0


def test_one_step_prediction_that_overflows_does_not_warn(tmp_path):
    # y(k-1)^2 over outputs of 1e200 overflows in the prediction itself, not
    # only in the cost: no RuntimeWarning, which the test settings make an error
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "kind": "polynomial",
        "packing_version": 1,
        "regressors": {"output_lags": [1], "input_lags": []},
        "terms": [[1, 1]],
        "theta": [1.0],
    }))
    (tmp_path / "zd.csv").write_text("y\n" + "1e200\n" * 20)
    out = tmp_path / "eval"
    argv = ["eval", "--model", str(model), "--data", str(tmp_path / "zd.csv"),
            "--mode", "one-step", "--out", str(out)]
    assert main(argv) == 0
    metrics = load_json(out / "metrics.json")
    assert metrics["j_d"] is None and metrics["rmse_one_step"] == 1e6


@pytest.mark.parametrize("command, code", [("sweep", 3), ("train", 3), ("eval", 0)])
def test_overflow_keeps_the_exit_code_without_a_warning(command, code, tmp_path):
    # over outputs of 1e200, y(k-1)^2 overflows in the design matrix and
    # y(k-1)^2 u(k-1) multiplies inf by 0: each is non-finite without a
    # RuntimeWarning, which the test settings make an error, so a fit fails
    # as singular and a one-step evaluation writes a null cost
    def polynomial(input_lags, terms):
        return {"kind": "polynomial", "packing_version": 1,
                "regressors": {"output_lags": [1], "input_lags": input_lags},
                "terms": terms, "theta": [1.0] * len(terms)}

    zd, out = tmp_path / "zd.csv", tmp_path / "out"
    datasets, flags = {"zd": str(zd)}, []
    if command == "eval":
        zd.write_text("u1,y\n" + "0.0,1e200\n" * 20)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(polynomial([[1]], [[1, 1, 2]])))
        argv = ["eval", "--model", str(model), "--data", str(zd), "--mode", "one-step"]
    else:
        if command == "sweep":
            zd.write_text("u1,y\n" + "".join(f"{k / 10!r},1e200\n" for k in range(20)))
            (tmp_path / "zs.csv").write_text("u1_bar,y_bar\n0.0,0.0\n1.0,0.5\n")
            datasets["zs"] = str(tmp_path / "zs.csv")
            structure, flags = polynomial([[1]], [[1, 1], [2]]), ["--grid", "0.0,0.5"]
        else:
            zd.write_text("y\n" + "1e200\n" * 20)
            structure = polynomial([], [[1, 1]])
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"structure": structure, "datasets": datasets, "algorithm": "wls"}
        ))
        argv = [command, "--config", str(config)]
    assert main([*argv, *flags, "--out", str(out)]) == code
    if command == "sweep":
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        assert [row["error"].split(":")[0] for row in rows] == ["SingularityError"] * 2
        # no point trained, so the front is empty: its file holds the header alone
        header = (out / "sweep.csv").read_bytes().splitlines()[0]
        assert (out / "pareto.csv").read_bytes() == header + b"\r\n"
    if command == "eval":
        metrics = load_json(out / "metrics.json")
        assert metrics["j_d"] is None and metrics["rmse_one_step"] == 1e6


def test_import_does_not_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, greybox; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_readme_config_trains(tmp_path):
    # the config documented in README.md must stay one that train accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    _, _, after = readme.partition("A config is a JSON object:\n\n```json\n")
    block, fence, _ = after.partition("```")
    assert fence, "no config block in README.md"
    config = json.loads(block)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    proc = run_cli("train", "--config", str(path), "--out", str(tmp_path / "run"))
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["train"]["lm"] == config["lm"]
    # the whole training block, every solver default filled in; a sweep
    # writes the same block without the lambda it does not fix
    block = {
        "algorithm": "wls",
        "fixed_point": {"fixed_horizon": 15, "max_iterations": 500, "tolerance": 1e-10},
        "ga": {"generations": 21, "population_size": 40},
        "init_seed": 0,
        "lm": {"max_iterations": 60, "n_starts": 3},
    }
    assert manifest["train"] == {"lambda": 0.3, **block}
    proc = run_cli("sweep", "--config", str(path), "--out", str(tmp_path / "sweep"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "sweep" / "manifest.json").read_text())["train"] == block
    del config["fixed_point"]
    path.write_text(json.dumps(config))
    proc = run_cli("train", "--config", str(path), "--out", str(tmp_path / "no_fp"))
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "no_fp" / "manifest.json").read_text())
    # without the block the GA's default, the 15-step horizon, is recorded
    assert manifest["train"] == {"lambda": 0.3, **block}


def test_readme_solver_keys_match_configs():
    # README lists each solver block's keys with their defaults; a key added,
    # removed or re-defaulted in the config classes must not leave it stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = readme.partition("The solver blocks accept these keys, all optional:\n\n")[2]
    bullets = re.split(r"^- `(\w+)`:", after.partition("\n\n")[0], flags=re.M)[1:]
    documented = {
        block: {key: json.loads(default)
                for key, default in re.findall(r"`(\w+)`\s+\((?:default )?([^,)]+)", text)}
        for block, text in zip(bullets[::2], bullets[1::2])
    }
    classes = {"lm": gb.LmConfig, "ga": gb.GaConfig, "fixed_point": gb.FixedPointConfig}
    assert documented == {
        block: {f.name: f.default for f in dataclasses.fields(cls)}
        for block, cls in classes.items()
    }


def test_readme_example1_recipe_runs(tmp_path, monkeypatch):
    # the example1 recipe in README.md must run as written, and its pick must
    # stay well ahead of the black-box model on the validation record
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    _, _, after = readme.partition("#### example1")
    section, found, _ = after.partition("#### example2")
    assert found, "no example1 recipe in README.md"
    monkeypatch.chdir(tmp_path)
    for block in re.finditer(r"```json\n(.*?)```", section, re.S):
        name = re.findall(r"`(\w+\.json)`", section[: block.start()])[-1]
        Path(name).write_text(block.group(1))
    commands = section.partition("```sh\n")[2].partition("```")[0].splitlines()
    assert commands and all(line.startswith("greybox ") for line in commands)
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
    blackbox = json.loads(Path("ex1/blackbox/zv/metrics.json").read_text())["rmse"]
    manifest = json.loads(Path("ex1/sweep/manifest.json").read_text())
    lam = manifest["selections"]["min_rmse_zt"]["lambda"]
    with open("ex1/sweep/sweep.csv") as fh:
        pick = next(float(r["rmse_zv"]) for r in csv.DictReader(fh) if float(r["lambda"]) == lam)
    assert blackbox >= 3 * pick, (blackbox, pick)
    for name in ("min_corr", "min_rmse_zt"):
        assert Path(f"ex1/{name}/static_curve.csv").exists()


def test_readme_csv_headers_match_the_writers(tmp_path):
    # README quotes the sweep.csv and solver-trace headers; the writers
    # take theirs from ParetoPoint and TraceRecord
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sweep_header = re.search(r"`(lambda,[^`]*)`", readme)
    trace_header = re.search(r"`(iteration,[^`]*)`", readme)
    assert sweep_header and trace_header, "no CSV header lines in README.md"
    write_sweep_csv(tmp_path / "sweep.csv", [])
    write_trace_csv(tmp_path / "trace.csv", [], "j_s_hat")
    assert (tmp_path / "sweep.csv").read_text().splitlines() == [sweep_header[1]]
    assert (tmp_path / "trace.csv").read_text().splitlines() == [trace_header[1]]


def test_readme_api_table_is_the_package_exports():
    # README's "Python API" table has one row per name in greybox.__all__,
    # so an export cannot be added or dropped without the table following
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.partition("\n## Python API\n")[2].partition("\n## ")[0]
    names = re.findall(r"^\| `(\w+)` \|", section, re.M)
    assert len(names) == len(set(names)), "a name is listed twice"
    assert set(names) == set(gb.__all__)


def test_readme_python_blocks_run():
    # README's Python examples run as written, in one namespace (the second
    # uses the first's datasets), so a name the package stops exporting
    # cannot linger in them
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 2, "expected the Quick start and the gb.fit blocks"
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["model"].theta.shape == namespace["blackbox"].theta.shape


def test_readme_example2_evaluation_count():
    # the weighted-LM evaluation count quoted in README.md's example2 section
    # must be what its sweep makes, so the figure cannot go stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.partition("#### example2")[2].partition("\n## ")[0]
    config = json.loads(
        re.search(r"`ex2_sweep.json`:\n\n```json\n(.*?)```", section, re.S).group(1)
    )
    seed = int(re.search(r"greybox generate --example example2 --seed (\d+)", section).group(1))
    quoted = re.search(r"Levenberg-Marquardt sweep fits in about [\d.]+ s\s+with\s+(\d+)\s+model",
                       section)
    assert quoted, "no weighted-LM evaluation count in README.md's example2 section"
    zd, zt, zs, zv = gb.make_datasets("example2", seed)
    grid = config["grid"]
    points = gb.run_sweep(
        gb.example_structure(config["structure"]["builtin"]), zd, zt, zs,
        gb.LambdaGrid.linspace(grid["start"], grid["stop"], grid["count"]),
        gb.TrainConfig(algorithm=config["algorithm"], lm=gb.LmConfig(**config["lm"])),
    )
    assert all(p.error is None for p in points)
    assert sum(p.eval_count for p in points) == int(quoted.group(1))


def _run(datadir, tmp, command, entries, flags=()):
    """main on an example1 config with ``entries``; an uncaught exception
    fails the calling test with its traceback."""
    config = {
        "structure": {"builtin": "example1"},
        "datasets": {key: str(datadir / f"{key}.csv") for key in ("zd", "zt", "zs")},
        "algorithm": "wls",
        "lambda": 0.5,
        "grid": [0.5],
        **entries,
    }
    path = Path(tmp) / "config.json"
    path.write_text(json.dumps(config))
    return main([command, "--config", str(path), *flags, "--out", str(Path(tmp) / "out")])


@pytest.mark.parametrize(
    "entries,flags,named",
    [
        ({"grid": [0.5]}, ["--grid", "nan"], "lambda"),
        ({"grid": [0.5]}, ["--grid", "0.5,nan"], "lambda"),
        ({"grid": [0.2, math.nan]}, [], "NaN is not a JSON number"),
        ({"grid": {"start": 0.1, "stop": 0.9, "count": 2.7}}, [], "count"),
        ({"grid": {"start": 0.1, "stop": 0.9, "count": True}}, [], "count"),
        ({"grid": [True, 0.5]}, [], "grid value"),
        ({"grid": ["0.5"]}, [], "grid value"),
        ({"grid": {"start": "0.1", "stop": 0.9, "count": 3}}, [], "grid start"),
        ({"grid": {"start": 0.1, "stop": False, "count": 3}}, [], "grid stop"),
    ],
    ids=["flag-nan", "flag-with-nan", "list-with-nan", "float-count", "bool-count",
         "list-with-bool", "list-with-string", "string-start", "bool-stop"],
)
def test_bad_grid_exits_2(entries, flags, named, datadir, tmp_path, capsys):
    assert _run(datadir, tmp_path, "sweep", entries, flags) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.parametrize("flag,value", [("--fp-max-iterations", "0"), ("--fp-horizon", "-3")])
def test_eval_bad_fixed_point_flag_exits_2(flag, value, datadir, trained, tmp_path, capsys):
    argv = ["eval", "--model", str(trained / "model.json"), "--data", str(datadir / "zs.csv"),
            "--mode", "static-curve", flag, value, "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "fixed_point" in capsys.readouterr().err


def test_successive_calls_see_only_their_own_arguments(datadir, trained, tmp_path):
    # main parses with one parser per process, so a call must not inherit
    # the flags of an earlier call, of this subcommand or another
    assert build_parser() is build_parser()
    model = trained / "model.json"
    argv = ["eval", "--model", str(model), "--data", str(datadir / "zs.csv"),
            "--mode", "static-curve"]
    assert main([*argv, "--fp-horizon", "5", "--fp-max-iterations", "7",
                 "--out", str(tmp_path / "flags")]) == 0
    assert main(["generate", "--example", "example1", "--out", str(tmp_path / "gen")]) == 0
    assert json.loads((tmp_path / "gen" / "manifest.json").read_text())["seed"] == 0
    assert main([*argv, "--out", str(tmp_path / "defaults")]) == 0
    zs = gb.read_csv(datadir / "zs.csv")
    configs = {
        "flags": gb.FixedPointConfig(max_iterations=7, fixed_horizon=5),
        "defaults": gb.FixedPointConfig(),
    }
    for out, config in configs.items():
        write_static_curve_csv(
            tmp_path / f"{out}.csv", gb.model_static_curve(gb.load_model(model), zs.u_bar, config)
        )
        got = (tmp_path / out / "static_curve.csv").read_bytes()
        assert got == (tmp_path / f"{out}.csv").read_bytes(), out


# Hypothesis properties of the CLI boundary: whatever a config, a CSV cell or
# a flag holds, main returns 0, 2 or 3 and never raises.  Counts are drawn
# from small ranges, so the runs that do train stay cheap.
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
)
json_values = st.one_of(json_scalars, st.lists(json_scalars, max_size=2))
counts = st.one_of(st.integers(-1, 3), json_scalars)
lambdas = st.one_of(st.floats(0.0, 1.0), json_values)


def is_number(value):
    """A JSON number; bools and numeric strings are not lambdas."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def requested_grid(doc, text):
    """Sorted distinct lambdas a valid grid asks for; None for an invalid one."""
    try:
        if text:
            values = [float(p) for p in text.split(",") if p.strip()]
        elif isinstance(doc, dict):
            count = doc["count"]
            if isinstance(count, bool) or not isinstance(count, int) or count < 1:
                return None
            if not (is_number(doc["start"]) and is_number(doc["stop"])):
                return None
            with np.errstate(all="ignore"):
                values = np.linspace(float(doc["start"]), float(doc["stop"]), count).tolist()
        elif isinstance(doc, list):
            if not all(is_number(v) for v in doc):
                return None
            values = [float(v) for v in doc]
        else:
            return None
    except (TypeError, ValueError, OverflowError):
        return None
    values = sorted(set(values))
    return values if values and all(0.0 <= v <= 1.0 for v in values) else None


@given(
    grid=st.one_of(
        st.lists(lambdas, max_size=3),
        st.fixed_dictionaries(
            {"start": st.one_of(st.floats(0.0, 1.0), lambdas),
             "stop": st.one_of(st.floats(0.0, 1.0), lambdas),
             "count": counts}
        ),
        json_scalars,
    ),
    grid_text=st.one_of(
        st.none(),
        st.lists(
            st.sampled_from(["0.1", "0.5", "1", "", "nan", "inf", "1.5", "x"]),
            min_size=1, max_size=3,
        ).map(",".join),
    ),
)
@example(grid=[0.5], grid_text="nan")
@example(grid=[0.2, math.nan], grid_text=None)
@example(grid={"start": 0.1, "stop": 0.9, "count": 2.7}, grid_text=None)
@example(grid=[True, "0.5"], grid_text=None)
def test_fuzzed_grid_exits_2_or_sweeps_it(datadir, grid, grid_text):
    flags = [] if grid_text is None else [f"--grid={grid_text}"]
    with tempfile.TemporaryDirectory() as tmp:
        code = _run(datadir, tmp, "sweep", {"grid": grid}, flags)
        assert code in (0, 2, 3)
        wanted = requested_grid(grid, grid_text)
        if wanted is None:
            assert code == 2  # an invalid grid is refused, never truncated
        elif code == 0:
            manifest = json.loads((Path(tmp) / "out" / "manifest.json").read_text())
            assert manifest["grid"] == wanted


# per config entry: values it accepts, and anything at all
VALID_ENTRIES = {
    "lambda": st.floats(0.0, 1.0),
    "lm": st.fixed_dictionaries(
        {}, optional={"max_iterations": st.integers(0, 3), "n_starts": st.integers(1, 2)}
    ),
    "ga": st.fixed_dictionaries(
        {"population_size": st.integers(2, 3), "generations": st.integers(0, 2)},
    ),
    "fixed_point": st.fixed_dictionaries(
        {"max_iterations": st.integers(1, 3)},
        optional={"fixed_horizon": st.integers(1, 3), "tolerance": st.floats(1e-12, 1.0)},
    ),
}
# beyond sys.maxsize or the float range: never a valid count, so no draw asks
# for a huge run that is valid
huge = st.sampled_from([10**20, 10**400, -(10**400)])
any_counts = st.one_of(counts, huge)
any_numbers = st.one_of(json_values, huge)
FUZZED_ENTRIES = {
    "lambda": st.one_of(lambdas, huge),
    "lm": st.fixed_dictionaries(
        {}, optional={"max_iterations": any_counts, "n_starts": any_counts}
    ),
    "ga": st.fixed_dictionaries(
        {"population_size": any_counts, "generations": any_counts},
        optional={"init_spread": any_numbers},
    ),
    "fixed_point": st.fixed_dictionaries(
        {"max_iterations": any_counts},
        optional={"fixed_horizon": any_counts, "tolerance": any_numbers,
                  "divergence_bound": any_numbers},
    ),
}


def is_count(value, low, high=sys.maxsize):
    """An integer in [low, high]; bools are not counts."""
    return is_number(value) and isinstance(value, int) and low <= value <= high


def is_real(value, low, high):
    """A JSON number in [low, high]; NaN and integers beyond the float range
    are not."""
    try:
        return is_number(value) and low <= float(value) <= high
    except OverflowError:
        return False


# per solver key, whether README's rules admit a value
SOLVER_KEY_RULES = {
    "lm": {
        "max_iterations": lambda v: is_count(v, 0),
        "n_starts": lambda v: is_count(v, 1, 10**6),
    },
    "ga": {
        "population_size": lambda v: is_count(v, 2, 10**6),
        "generations": lambda v: is_count(v, 0),
        "init_spread": lambda v: False,  # removed: an unknown key
    },
    "fixed_point": {
        "max_iterations": lambda v: is_count(v, 1),
        "fixed_horizon": lambda v: v is None or is_count(v, 1),
        "tolerance": lambda v: is_real(v, 0.0, sys.float_info.max) and v > 0,
        "divergence_bound": lambda v: False,  # removed: an unknown key
    },
}


def valid_entry(key, value):
    """Whether a config entry is one that train and sweep must accept."""
    if key == "lambda":
        return is_real(value, 0.0, 1.0)
    return all(SOLVER_KEY_RULES[key][name](v) for name, v in value.items())


@st.composite
def config_entries(draw):
    """One entry fuzzed, the others valid, so the fuzzed one is reached."""
    fuzzed = draw(st.sampled_from(sorted(FUZZED_ENTRIES)))
    return {
        key: draw(FUZZED_ENTRIES[key] if key == fuzzed else VALID_ENTRIES[key])
        for key in FUZZED_ENTRIES
    }


@given(
    command=st.sampled_from(["train", "sweep"]),
    # out of the set: a removed name, a misspelt one, null and a list
    algorithm=st.sampled_from(["wls", "ols", "ga_legacy", "weighted_lm", "lm", None, ["wls"]]),
    entries=config_entries(),
)
@example(
    command="train", algorithm="ga_legacy",
    entries={"lambda": 0.5, "ga": {"population_size": 3, "generations": 1,
                                   "init_spread": "wide"}},
)
@example(
    command="train", algorithm="wls",
    entries={"lambda": 0.5, "fixed_point": {"max_iterations": 3, "tolerance": True}},
)
@example(
    command="sweep", algorithm="wls", entries={"lambda": 0.5, "lm": {"n_starts": 10**400}}
)
@example(command="train", algorithm="lm", entries={"lambda": 0.5})
@example(
    command="train", algorithm="ga_legacy",
    entries={"lambda": 0.5, "ga": {"population_size": 3, "generations": 1, "init_spread": 0.1},
             "fixed_point": {"max_iterations": 3, "divergence_bound": 1e6}},
)
def test_fuzzed_config_exits_0_2_or_3(datadir, command, algorithm, entries):
    with tempfile.TemporaryDirectory() as tmp:
        code = _run(datadir, tmp, command, {"algorithm": algorithm, **entries})
    assert code in (0, 2, 3)
    valid = algorithm in ALGORITHMS and all(
        valid_entry(key, value) for key, value in entries.items()
    )
    if not valid:
        assert code == 2  # an invalid entry is refused, never run or ignored


def test_overflowing_ga_exits_3_without_warnings(tmp_path, capsys):
    # a population past the float range is a numerical failure, reported
    # without a floating-point warning on the way: y(k) = 1.5e308 u(k-1) on
    # inputs near 1e-10 gives a black box, the GA's seed, of 1.5e308
    u = 1e-10 * np.random.default_rng(0).standard_normal(40)
    zd = gb.DynDataset(inputs=(u,), output=np.concatenate([[0.0], 1.5e308 * u[:-1]]))
    zs = gb.SteadyDataset(u_bar=np.array([[0.0], [1e-10]]), y_bar=np.array([0.0, 1.5e298]))
    gb.write_csv(tmp_path / "zd.csv", zd)
    gb.write_csv(tmp_path / "zs.csv", zs)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "structure": {"kind": "polynomial", "packing_version": 1, "terms": [[1]], "theta": [0.0],
                      "regressors": {"output_lags": [], "input_lags": [[1]]}},
        "datasets": {"zd": str(tmp_path / "zd.csv"), "zs": str(tmp_path / "zs.csv")},
        "algorithm": "ga_legacy",
        "lambda": 0.5,
        "ga": {"population_size": 3, "generations": 3},
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "numerical failure: GA overflowed" in capsys.readouterr().err


@given(
    command=st.sampled_from(["train", "sweep"]),
    algorithm=st.sampled_from(["wls", "ga_legacy"]),
    name=st.sampled_from(["zd", "zs"]),
    row=st.integers(1, 5),
    column=st.integers(0, 1),
    cell=st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr), st.text(max_size=4)),
)
@example(command="sweep", algorithm="ga_legacy", name="zs", row=3, column=1, cell="1e300")
def test_fuzzed_csv_cell_exits_0_2_or_3(datadir, command, algorithm, name, row, column, cell):
    lines = (datadir / f"{name}.csv").read_text().splitlines()
    cells = lines[row].split(",")
    cells[column] = cell
    lines[row] = ",".join(cells)
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / f"{name}.csv"
        bad.write_text("\n".join(lines) + "\n")
        datasets = {key: str(datadir / f"{key}.csv") for key in ("zd", "zt", "zs")}
        datasets[name] = str(bad)
        code = _run(datadir, tmp, command, {
            "datasets": datasets,
            "algorithm": algorithm,
            "ga": {"population_size": 3, "generations": 2},
            "fixed_point": {"fixed_horizon": 3},  # every pair converges
        })
    assert code in (0, 2, 3)
    if not re.search(r'[,"\r\n]', cell):  # the cell keeps its place in the row
        try:
            finite = math.isfinite(float(cell))
        except ValueError:
            finite = False
        if not finite:
            assert code == 2



def _sweep_with_output(datadir, tmp, name, row, structure, grid):
    """``main``'s sweep with the measured output of ``row`` of ``name``'s
    record set to 1e200, warnings as errors and no ``np.errstate`` around
    it; the exit code and the rows of sweep.csv."""
    lines = (datadir / f"{name}.csv").read_text().splitlines()
    cells = lines[row].split(",")
    cells[lines[0].split(",").index("y")] = "1e200"
    lines[row] = ",".join(cells)
    datasets = {key: str(datadir / f"{key}.csv") for key in ("zd", "zt", "zs")}
    datasets[name] = str(Path(tmp) / f"{name}.csv")
    Path(datasets[name]).write_text("\n".join(lines) + "\n")
    config, out = Path(tmp) / "config.json", Path(tmp) / "out"
    config.write_text(
        json.dumps({"structure": structure, "datasets": datasets, "algorithm": "wls"})
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sweep", "--config", str(config), "--grid", grid, "--out", str(out)])
    with open(out / "sweep.csv", newline="") as fh:
        return code, list(csv.DictReader(fh))


def test_sweep_caps_the_rmse_of_an_overflowing_record(datadir, tmp_path):
    # the free run over zt is finite, but its error against the measured
    # 1e200 overflows when squared: the RMSE caps, as rmse() caps it
    code, rows = _sweep_with_output(
        datadir, tmp_path, "zt", 11, {"builtin": "example1"}, "0.3,0.5"
    )
    assert code == 0
    assert [(r["rmse_zt"], r["diverged_zt"]) for r in rows] == [("1000000.0", "false")] * 2


def test_sweep_leaves_a_correlation_that_is_not_finite_empty(datadir, tmp_path):
    # fitted on the steady states alone, a linear model free-runs finitely
    # over zd, whose last measured output is 1e200, so the correlation of
    # the error with it is NaN: an empty cell that min-corr skips
    linear = {
        "kind": "polynomial", "packing_version": 1,
        "regressors": {"output_lags": [1], "input_lags": [[1]]},
        "terms": [[1], [2]], "theta": [0.0, 0.0],
    }
    n_rows = len((datadir / "zd.csv").read_text().splitlines())
    code, rows = _sweep_with_output(datadir, tmp_path, "zd", n_rows - 1, linear, "1.0")
    assert code == 0
    assert [(r["corr_dm"], r["diverged_zd"]) for r in rows] == [("", "false")]
    assert math.isfinite(float(rows[0]["rmse_zt"]))
    assert list(load_json(tmp_path / "out" / "manifest.json")["selections"]) == ["min_rmse_zt"]

@given(
    mode=st.sampled_from(["one-step", "free-run", "static-curve"]),
    data=st.sampled_from(["zs", "zv"]),
    max_iterations=st.one_of(st.none(), st.integers(-3, 5).map(str), st.text(max_size=2)),
    horizon=st.one_of(st.none(), st.integers(-3, 5).map(str), st.text(max_size=2)),
)
@example(mode="static-curve", data="zs", max_iterations="0", horizon=None)
def test_fuzzed_eval_flags_exit_0_2_or_3(datadir, trained, mode, data, max_iterations, horizon):
    argv = ["eval", "--model", str(trained / "model.json"),
            "--data", str(datadir / f"{data}.csv"), "--mode", mode]
    if max_iterations is not None:
        argv.append(f"--fp-max-iterations={max_iterations}")
    if horizon is not None:
        argv.append(f"--fp-horizon={horizon}")
    with tempfile.TemporaryDirectory() as tmp:
        code = main([*argv, "--out", tmp])
    assert code in (0, 2, 3)
