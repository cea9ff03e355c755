"""Command-line front end: generate, train, sweep, eval.

Exit codes: 0 on success, 2 for usage or configuration problems, 3 for
numerical failures (singular solves, divergence, empty selections).
Every run writes a manifest.json echoing the resolved configuration so the
artifacts can be reproduced bit-identically (wall-time fields aside).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .data import (
    SYSTEMS,
    DynDataset,
    SteadyDataset,
    make_datasets,
    read_csv,
    read_json,
    write_csv,
    write_json,
    write_table,
)
from .errors import (
    ConfigError,
    CsvFormatError,
    GreyboxError,
    SelectionError,
    _check_keys,
    _require_count,
)
from .estimation import ALGORITHMS, GaConfig, LmConfig, TrainConfig, write_trace_csv
from .models import (
    _check_data_fits,
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
    sweep_csv_rows,
    write_sweep_csv,
)

GENERATORS = {name: functools.partial(make_datasets, name) for name in SYSTEMS}

# the keys a train or sweep config may hold, each command accepting all of
# them so that one file can hold both a lambda and a grid
_CONFIG_KEYS = (
    "structure", "datasets", "lambda", "algorithm", "init_seed",
    "lm", "ga", "fixed_point", "grid", "out",
)
_DATASET_KEYS = ("generator", "seed", "zd", "zt", "zs", "zv")
_GRID_KEYS = ("start", "stop", "count")


def _load_config(path) -> dict:
    try:
        doc = read_json(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return doc


def _finite_or_none(value: float) -> float | None:
    """A cost as the artefacts write it: null where it is not finite (it
    overflowed), since strict JSON has no infinity or NaN."""
    return value if math.isfinite(value) else None


def _path(value, key: str) -> str:
    """A path from the config: a JSON string, never a number that ``open``
    would take for a file descriptor."""
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a path string, got {value!r}")
    return value


def _generate(name: str, seed):
    """The named generator's (zd, zt, zs, zv), from a seed checked first."""
    try:
        seed = _require_count(seed, "generator seed", 0, math.inf)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return GENERATORS[name](seed)


def _resolve_structure(doc):
    if not isinstance(doc, dict):
        raise ConfigError("structure must be a JSON object")
    if "builtin" in doc:
        _check_keys(doc, ("builtin",), "structure")
        try:
            return example_structure(doc["builtin"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if "file" in doc:
        _check_keys(doc, ("file",), "structure")
        return load_model(_path(doc["file"], "structure.file"))
    return model_from_json(doc)


def _resolve_datasets(doc):
    """Returns (zd, zt, zs, zv); any of the last three may be None."""
    if not isinstance(doc, dict):
        raise ConfigError("datasets must be a JSON object")
    if "generator" in doc:
        name = doc["generator"]
        if not isinstance(name, str) or name not in GENERATORS:
            raise ConfigError(f"unknown generator {name!r}, expected {sorted(GENERATORS)}")
        return _generate(name, doc.get("seed", 0))
    if "zd" not in doc:
        raise ConfigError("datasets needs a 'zd' path (or a 'generator' entry)")

    def load(key, want):
        if key not in doc or doc[key] is None:
            return None
        ds = read_csv(_path(doc[key], f"datasets.{key}"))
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
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a JSON object")
    try:
        return cls(**doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} config: {exc}") from exc


def _train_config(cfg: dict, args) -> TrainConfig:
    """The config's training block, flags first; an absent or null solver
    block keeps :class:`TrainConfig`'s default."""
    blocks = {
        name: _subconfig(cls, cfg[name], name)
        for name, cls in (("lm", LmConfig), ("ga", GaConfig), ("fixed_point", FixedPointConfig))
        if cfg.get(name) is not None
    }
    try:
        return TrainConfig(
            lam=args.lam if args.lam is not None else cfg.get("lambda", 0.0),
            algorithm=args.algorithm or cfg.get("algorithm", "wls"),
            init_seed=args.seed if args.seed is not None else cfg.get("init_seed", 0),
            **blocks,
        )
    except (TypeError, ValueError) as exc:  # e.g. "lambda": 1.5
        raise ConfigError(str(exc)) from exc


def _train_manifest(train: TrainConfig) -> dict:
    """The manifest's ``train`` block, less the lambda a sweep does not fix."""
    doc = asdict(train)
    del doc["lam"]
    return doc


def _out_dir(args, cfg=None) -> Path:
    out = args.out or (cfg or {}).get("out")
    if not out:
        raise ConfigError("no output directory: pass --out or set 'out' in the config")
    path = Path(_path(out, "out"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_generate(args) -> int:
    zd, zt, zs, zv = _generate(args.example, args.seed)
    out = _out_dir(args)
    names = {"zd": zd, "zt": zt, "zs": zs, "zv": zv}
    rows = {}
    for name, ds in names.items():
        write_csv(out / f"{name}.csv", ds)
        rows[name] = ds.n_pairs if isinstance(ds, SteadyDataset) else ds.sample_count
    write_json(
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


def _training_inputs(args, needs: str):
    """What train and sweep read first: the config, the output directory,
    the structure and (zd, zt, zs, zv), of which ``needs`` requires zd.
    A key that its block does not list is refused first, and the output
    directory is made last."""
    cfg = _load_config(args.config) if args.config else {}
    _check_keys(cfg, _CONFIG_KEYS, "config")
    _check_keys(cfg.get("datasets"), _DATASET_KEYS, "datasets")
    _check_keys(cfg.get("grid"), _GRID_KEYS, "grid")
    if "structure" not in cfg:
        raise ConfigError("config needs a 'structure' entry")
    structure = _resolve_structure(cfg["structure"])
    datasets = _resolve_datasets(cfg.get("datasets", {}))
    if datasets[0] is None:
        raise ConfigError(f"{needs} needs a dynamical record 'zd'")
    return cfg, _out_dir(args, cfg), structure, datasets


def cmd_train(args) -> int:
    cfg, out, structure, (zd, _, zs, _) = _training_inputs(args, "training")
    train = _train_config(cfg, args)
    model, trace = fit(structure, zd, zs, train)
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
    write_json(
        out / "manifest.json",
        {
            "command": "train",
            "structure": cfg["structure"],
            "datasets": cfg.get("datasets", {}),
            "train": {"lambda": train.lam, **_train_manifest(train)},
            "outputs": outputs,
            "summary": {k: _finite_or_none(v) for k, v in summary.items()},
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
            return LambdaGrid.linspace(doc["start"], doc["stop"], doc["count"])
        if isinstance(doc, list):
            return LambdaGrid(values=tuple(doc))
        raise ConfigError("grid must be a list or a {start, stop, count} object")
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad lambda grid: {exc}") from exc


def cmd_sweep(args) -> int:
    cfg, out, structure, (zd, zt, zs, zv) = _training_inputs(args, "sweeping")
    grid = _parse_grid(cfg, args)
    train = _train_config(cfg, args)
    points = run_sweep(structure, zd, zt, zs, grid, train, zv=zv)
    rows = sweep_csv_rows(points)
    write_sweep_csv(out / "sweep.csv", rows)
    # the front's rows are the sweep's own, formatted once
    row_of = {id(p): row for p, row in zip(points, rows)}
    write_sweep_csv(out / "pareto.csv", [row_of[id(p)] for p in pareto_front(points)])
    outputs = {"sweep": "sweep.csv", "pareto": "pareto.csv"}
    selections = {}
    failures = []
    # (name, decision maker, the score it minimises), built per call so that
    # each decision maker is looked up by its module-level name
    deciders = [("min_corr", decide_min_corr, "corr_dm")]
    if zt is not None:
        deciders.append(("min_rmse_zt", decide_min_rmse_zt, "rmse_zt"))
    for name, decide, score in deciders:
        try:
            chosen = decide(points)
        except SelectionError as exc:
            failures.append(f"{name}: {exc}")
            continue
        save_model(out / f"model_{name}.json", chosen.model)
        outputs[f"model_{name}"] = f"model_{name}.json"
        selections[name] = {"lambda": chosen.lam, score: getattr(chosen, score)}
    write_json(
        out / "manifest.json",
        {
            "command": "sweep",
            "structure": cfg["structure"],
            "datasets": cfg.get("datasets", {}),
            "grid": list(grid),
            "train": _train_manifest(train),
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
    _check_data_fits(model.spec, {str(args.data): data})
    out = _out_dir(args)
    metrics = {"mode": args.mode, "model": str(args.model), "data": str(args.data)}
    outputs = {}
    if args.mode == "one-step":
        if not isinstance(data, DynDataset):
            raise ConfigError("one-step evaluation needs a dynamical record")
        psi, target = build_regression_matrix(model.spec, data)
        # cost_jd's arithmetic: an overflow, or an inf * 0 in a prediction, is not finite
        with np.errstate(over="ignore", invalid="ignore"):
            predicted = model.predict(psi)
            residual = target - predicted
            j_d = float(np.mean(residual**2))
        write_table(
            out / "predictions.csv", ["y", "y_hat", "residual"], [target, predicted, residual]
        )
        outputs["predictions"] = "predictions.csv"
        metrics["j_d"] = _finite_or_none(j_d)
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
        flags = {"max_iterations": args.fp_max_iterations, "fixed_horizon": args.fp_horizon}
        fp_config = _subconfig(
            FixedPointConfig, {k: v for k, v in flags.items() if v is not None}, "fixed_point"
        )
        curve = model_static_curve(model, data.u_bar, fp_config)
        write_static_curve_csv(out / "static_curve.csv", curve)
        outputs["static_curve"] = "static_curve.csv"
        metrics["j_s_hat"] = _finite_or_none(cost_js_hat(model, data))
        metrics["n_points"] = int(curve.converged.size)
        metrics["n_converged"] = int(np.count_nonzero(curve.converged))
        mask = curve.converged
        if np.any(mask):
            metrics["rmse_static"] = rmse(curve.y_bar[mask], data.y_bar[mask])
    write_json(out / "metrics.json", metrics)
    write_json(
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


@functools.cache  # parsing leaves the parser as it was, so a process builds one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greybox",
        description="NARX identification from dynamical records and steady-state pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write benchmark dataset CSVs")
    p.add_argument("--example", required=True, choices=sorted(GENERATORS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("train", help="fit one model from a JSON config")
    p.add_argument("--config", help="JSON config path")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--seed", type=int, default=None, help="override init_seed, every draw's seed")
    p.add_argument("--algorithm", choices=ALGORITHMS)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("sweep", help="train across a lambda grid and select")
    p.add_argument("--config", help="JSON config path")
    p.add_argument("--grid", help="comma-separated lambda values")
    p.add_argument("--seed", type=int, default=None, help="override init_seed, every draw's seed")
    p.add_argument("--algorithm", choices=ALGORITHMS)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_sweep, lam=None)

    p = sub.add_parser("eval", help="score a saved model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--mode", required=True, choices=["one-step", "free-run", "static-curve"])
    p.add_argument("--fp-max-iterations", type=int, default=None)
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
