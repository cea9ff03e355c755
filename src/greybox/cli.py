"""Command-line front end: generate, train, sweep, eval.

Exit codes: 0 on success, 2 for usage or configuration problems, 3 for
numerical failures (singular solves, divergence, empty selections).
Every run writes a manifest.json echoing the resolved configuration so the
artifacts can be reproduced bit-identically (wall-time fields aside).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .data import (
    DynDataset,
    SteadyDataset,
    make_example1_datasets,
    make_example2_datasets,
    read_csv,
    write_csv,
    write_table,
)
from .errors import ConfigError, CsvFormatError, GreyboxError, SelectionError
from .estimation import ALGORITHMS, GaConfig, LmConfig, TrainConfig, write_trace_csv
from .models import (
    build_regression_matrix,
    example_structure,
    free_run_on_dataset,
    load_model,
    model_from_json,
    save_model,
)
from .steady_state import (
    FixedPointConfig,
    cost_jd,
    cost_js_hat,
    model_static_curve,
    write_static_curve_csv,
)
from .sweep import (
    LambdaGrid,
    decide_min_corr,
    decide_min_rmse_zt,
    fit,
    pareto_front,
    rmse,
    run_sweep,
    write_sweep_csv,
)

GENERATORS = {"example1": make_example1_datasets, "example2": make_example2_datasets}


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return doc


def _resolve_structure(doc):
    if not isinstance(doc, dict):
        raise ConfigError("structure must be a JSON object")
    if "builtin" in doc:
        try:
            return example_structure(doc["builtin"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if "file" in doc:
        return load_model(doc["file"])
    return model_from_json(doc)


def _resolve_datasets(doc):
    """Returns (zd, zt, zs, zv); any of the last three may be None."""
    if not isinstance(doc, dict):
        raise ConfigError("datasets must be a JSON object")
    if "generator" in doc:
        name = doc["generator"]
        if name not in GENERATORS:
            raise ConfigError(f"unknown generator {name!r}, expected {sorted(GENERATORS)}")
        seed = doc.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ConfigError(f"generator seed must be a nonnegative integer, got {seed!r}")
        return GENERATORS[name](seed)
    if "zd" not in doc:
        raise ConfigError("datasets needs a 'zd' path (or a 'generator' entry)")

    def load(key, want):
        if key not in doc or doc[key] is None:
            return None
        ds = read_csv(doc[key])
        if not isinstance(ds, want):
            raise ConfigError(
                f"dataset {key!r} at {doc[key]} is a "
                f"{type(ds).__name__}, expected {want.__name__}"
            )
        return ds

    zd = load("zd", DynDataset)
    zt = load("zt", DynDataset)
    zs = load("zs", SteadyDataset)
    zv = load("zv", DynDataset)
    return zd, zt, zs, zv


def _subconfig(cls, doc, name):
    if doc is None:
        return cls()
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a JSON object")
    try:
        return cls(**doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} config: {exc}") from exc


def _config_lambda(value, key: str) -> float:
    """A lambda from the config: a JSON number, not a bool or a string that
    ``float()`` would take."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{key} must lie in [0, 1], got {value!r}") from None


def _train_config(cfg: dict, args) -> TrainConfig:
    lam = args.lam
    if lam is None:
        lam = _config_lambda(cfg.get("lambda", 0.0), "lambda")
    algorithm = args.algorithm or cfg.get("algorithm", "wls")
    init_seed = args.seed if args.seed is not None else cfg.get("init_seed", 0)
    try:
        return TrainConfig(
            lam=lam,
            algorithm=algorithm,
            lm=_subconfig(LmConfig, cfg.get("lm"), "lm"),
            ga=_subconfig(GaConfig, cfg.get("ga"), "ga"),
            init_seed=init_seed,
        )
    except (TypeError, ValueError) as exc:  # e.g. "lambda": 1.5
        raise ConfigError(str(exc)) from exc


def _fp_config(cfg: dict) -> FixedPointConfig | None:
    doc = cfg.get("fixed_point")
    if doc is None:
        return None
    return _subconfig(FixedPointConfig, doc, "fixed_point")


def _train_manifest(train: TrainConfig, fp_config: FixedPointConfig | None) -> dict:
    """The manifest's ``train`` block, less the lambda a sweep does not fix."""
    return {
        "algorithm": train.algorithm,
        "init_seed": train.init_seed,
        "lm": asdict(train.lm),
        "ga": asdict(train.ga),
        "fixed_point": None if fp_config is None else asdict(fp_config),
    }


def _out_dir(args, cfg=None) -> Path:
    out = args.out or (cfg or {}).get("out")
    if not out:
        raise ConfigError("no output directory: pass --out or set 'out' in the config")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_generate(args) -> int:
    out = _out_dir(args)
    zd, zt, zs, zv = GENERATORS[args.example](args.seed)
    names = {"zd": zd, "zt": zt, "zs": zs, "zv": zv}
    rows = {}
    for name, ds in names.items():
        write_csv(out / f"{name}.csv", ds)
        rows[name] = ds.n_pairs if isinstance(ds, SteadyDataset) else ds.sample_count
    _write_json(
        out / "manifest.json",
        {
            "command": "generate",
            "example": args.example,
            "seed": args.seed,
            "files": {name: f"{name}.csv" for name in names},
            "rows": rows,
        },
    )
    print(f"wrote {', '.join(sorted(names))} to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    out = _out_dir(args, cfg)
    if "structure" not in cfg:
        raise ConfigError("config needs a 'structure' entry")
    structure = _resolve_structure(cfg["structure"])
    zd, _, zs, _ = _resolve_datasets(cfg.get("datasets", {}))
    if zd is None:
        raise ConfigError("training needs a dynamical record 'zd'")
    train = _train_config(cfg, args)
    fp_config = _fp_config(cfg)
    model, trace = fit(structure, zd, zs, train, fp_config)
    save_model(out / "model.json", model)
    outputs = {"model": "model.json"}
    if trace is not None:
        static_label = "j_s_legacy" if train.algorithm == "ga_legacy" else "j_s_hat"
        write_trace_csv(out / "trace.csv", trace, static_label)
        outputs["trace"] = "trace.csv"
    j_d = cost_jd(model, zd)
    summary = {"j_d": j_d}
    if zs is not None:
        summary["j_s_hat"] = cost_js_hat(model, zs)
    _write_json(
        out / "manifest.json",
        {
            "command": "train",
            "structure": cfg["structure"],
            "datasets": cfg.get("datasets", {}),
            "train": {"lambda": train.lam, **_train_manifest(train, fp_config)},
            "outputs": outputs,
            "summary": summary,
        },
    )
    print(
        f"trained {train.algorithm} at lambda={train.lam}: "
        + ", ".join(f"{k}={v:.6g}" for k, v in summary.items())
    )
    return 0


def _parse_grid(cfg: dict, args) -> LambdaGrid:
    try:
        if args.grid:
            return LambdaGrid.parse(args.grid)
        doc = cfg.get("grid")
        if doc is None:
            raise ConfigError("no lambda grid: pass --grid or set 'grid' in the config")
        if isinstance(doc, dict):
            count = doc["count"]
            if isinstance(count, bool) or not isinstance(count, int):
                raise ConfigError(f"grid count must be an integer, got {count!r}")
            start = _config_lambda(doc["start"], "grid start")
            stop = _config_lambda(doc["stop"], "grid stop")
            return LambdaGrid.linspace(start, stop, count)
        if isinstance(doc, list):
            return LambdaGrid(values=tuple(_config_lambda(v, "grid value") for v in doc))
        raise ConfigError("grid must be a list or a {start, stop, count} object")
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad lambda grid: {exc}") from exc


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    out = _out_dir(args, cfg)
    if "structure" not in cfg:
        raise ConfigError("config needs a 'structure' entry")
    structure = _resolve_structure(cfg["structure"])
    zd, zt, zs, zv = _resolve_datasets(cfg.get("datasets", {}))
    if zd is None:
        raise ConfigError("sweeping needs a dynamical record 'zd'")
    if zs is None:
        raise ConfigError("sweeping needs steady-state data 'zs'")
    grid = _parse_grid(cfg, args)
    train = _train_config(cfg, args)
    fp_config = _fp_config(cfg)
    points = run_sweep(
        structure, zd, zt, zs, grid, train, zv=zv, fp_config=fp_config
    )
    write_sweep_csv(out / "sweep.csv", points)
    write_sweep_csv(out / "pareto.csv", pareto_front(points))
    outputs = {"sweep": "sweep.csv", "pareto": "pareto.csv"}
    selections = {}
    failures = []
    try:
        chosen = decide_min_corr(points)
        _write_json(out / "model_min_corr.json", chosen.model)
        outputs["model_min_corr"] = "model_min_corr.json"
        selections["min_corr"] = {"lambda": chosen.lam, "corr_dm": chosen.corr_dm}
    except SelectionError as exc:
        failures.append(f"min_corr: {exc}")
    if zt is not None:
        try:
            chosen = decide_min_rmse_zt(points)
            _write_json(out / "model_min_rmse_zt.json", chosen.model)
            outputs["model_min_rmse_zt"] = "model_min_rmse_zt.json"
            selections["min_rmse_zt"] = {"lambda": chosen.lam, "rmse_zt": chosen.rmse_zt}
        except SelectionError as exc:
            failures.append(f"min_rmse_zt: {exc}")
    _write_json(
        out / "manifest.json",
        {
            "command": "sweep",
            "structure": cfg.get("structure"),
            "datasets": cfg.get("datasets", {}),
            "grid": list(grid),
            "train": _train_manifest(train, fp_config),
            "outputs": outputs,
            "selections": selections,
        },
    )
    for line in failures:
        print(f"selection failed: {line}", file=sys.stderr)
    trained = sum(1 for p in points if p.error is None)
    print(f"swept {len(points)} lambdas ({trained} trained) into {out}")
    if failures and not selections:
        raise SelectionError("; ".join(failures))
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    data = read_csv(args.data)
    out = _out_dir(args)
    metrics = {"mode": args.mode, "model": str(args.model), "data": str(args.data)}
    outputs = {}
    if args.mode == "one-step":
        if not isinstance(data, DynDataset):
            raise ConfigError("one-step evaluation needs a dynamical record")
        psi, target = build_regression_matrix(model.spec, data)
        predicted = model.predict(psi)
        write_table(
            out / "predictions.csv",
            ["y", "y_hat", "residual"],
            [target, predicted, target - predicted],
        )
        outputs["predictions"] = "predictions.csv"
        metrics["j_d"] = cost_jd(model, data)
        metrics["rmse_one_step"] = rmse(predicted, target)
    elif args.mode == "free-run":
        if not isinstance(data, DynDataset):
            raise ConfigError("free-run evaluation needs a dynamical record")
        result = free_run_on_dataset(model, data)
        write_table(
            out / "freerun.csv", ["y", "y_hat"], [data.output, result.y]
        )
        outputs["freerun"] = "freerun.csv"
        k0 = model.spec.max_lag
        metrics["diverged"] = result.diverged
        metrics["diverged_at"] = result.diverged_at
        metrics["rmse"] = rmse(result.y[k0:], data.output[k0:])
    else:
        if not isinstance(data, SteadyDataset):
            raise ConfigError("static-curve evaluation needs steady-state data")
        fp_config = _subconfig(
            FixedPointConfig,
            {"max_iterations": args.fp_max_iterations, "fixed_horizon": args.fp_horizon},
            "fixed_point",
        )
        curve = model_static_curve(model, data.u_bar, fp_config)
        write_static_curve_csv(out / "static_curve.csv", curve)
        outputs["static_curve"] = "static_curve.csv"
        metrics["j_s_hat"] = cost_js_hat(model, data)
        metrics["n_points"] = int(curve.converged.size)
        metrics["n_converged"] = int(np.count_nonzero(curve.converged))
        mask = curve.converged
        if np.any(mask):
            metrics["rmse_static"] = rmse(curve.y_bar[mask], data.y_bar[mask])
    _write_json(out / "metrics.json", metrics)
    _write_json(
        out / "manifest.json",
        {
            "command": "eval",
            "mode": args.mode,
            "model": str(args.model),
            "data": str(args.data),
            "outputs": {**outputs, "metrics": "metrics.json"},
        },
    )
    shown = {k: v for k, v in metrics.items() if isinstance(v, (int, float, bool))}
    print(f"eval {args.mode}: " + ", ".join(f"{k}={v}" for k, v in sorted(shown.items())))
    return 0


def _seed(text: str) -> int:
    """The --seed options' type: numpy seeds must be nonnegative integers."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be a nonnegative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greybox",
        description="NARX identification from dynamical records and steady-state pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write benchmark dataset CSVs")
    p.add_argument("--example", required=True, choices=sorted(GENERATORS))
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("train", help="fit one model from a JSON config")
    p.add_argument("--config", help="JSON config path")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--seed", type=_seed, default=None, help="override init_seed")
    p.add_argument("--algorithm", choices=ALGORITHMS)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("sweep", help="train across a lambda grid and select")
    p.add_argument("--config", help="JSON config path")
    p.add_argument("--grid", help="comma-separated lambda values")
    p.add_argument("--seed", type=_seed, default=None, help="override init_seed")
    p.add_argument("--algorithm", choices=ALGORITHMS)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_sweep, lam=None)

    p = sub.add_parser("eval", help="score a saved model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--mode", required=True, choices=["one-step", "free-run", "static-curve"])
    p.add_argument("--fp-max-iterations", type=int, default=500)
    p.add_argument("--fp-horizon", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (ConfigError, CsvFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GreyboxError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
