"""Polynomial benchmark: lambda sweep, decision makers, black-box comparison.

Generates the first benchmark's datasets for one seed, sweeps the weighted
least squares estimator over a nine-point lambda grid, and prints the
trade-off table together with both decision-maker selections and the
lambda = 0 black-box baseline.  Artifacts (sweep table, Pareto front,
selected models, static curves) land in the output directory.
"""

import argparse
import json
from pathlib import Path

import numpy as np

import greybox as gb
from greybox.steady_state import write_static_curve_csv
from greybox.sweep import score_free_run, write_sweep_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="results/example1")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    zd, zt, zs, zv = gb.make_example1_datasets(args.seed)
    structure = gb.example_structure("example1")
    grid = gb.LambdaGrid.linspace(0.1, 0.9, 9)
    points = gb.run_sweep(
        structure, zd, zt, zs, grid, gb.TrainConfig(algorithm="wls"), zv=zv
    )
    write_sweep_csv(out / "sweep.csv", points)
    write_sweep_csv(out / "pareto.csv", gb.pareto_front(points))

    print(f"seed {args.seed}: {zd.sample_count} training samples, "
          f"{zs.n_pairs} steady-state pairs")
    print(f"{'lambda':>7} {'j_d':>12} {'j_s_hat':>12} {'rmse_zt':>10} {'rmse_zv':>10}")
    for p in points:
        print(f"{p.lam:7.2f} {p.j_d:12.4e} {p.j_s_hat:12.4e} "
              f"{p.rmse_zt:10.4f} {p.rmse_zv:10.4f}")

    blackbox = gb.fit_wls(structure, zd, None, 0.0)
    bb_rmse, bb_diverged, _ = score_free_run(blackbox, zv)
    by_corr = gb.decide_min_corr(points)
    by_test = gb.decide_min_rmse_zt(points)
    print(f"\nblack-box (lambda=0) validation rmse: {bb_rmse:.4f}"
          + (" [diverged]" if bb_diverged else ""))
    print(f"min correlation pick:  lambda={by_corr.lam:.2f} "
          f"validation rmse {by_corr.rmse_zv:.4f}")
    print(f"min test rmse pick:    lambda={by_test.lam:.2f} "
          f"validation rmse {by_test.rmse_zv:.4f}")

    for name, point in (("min_corr", by_corr), ("min_rmse_zt", by_test)):
        with open(out / f"model_{name}.json", "w") as fh:
            json.dump(point.model, fh, indent=2, sort_keys=True)
            fh.write("\n")
        curve = gb.model_static_curve(
            point.fitted_model(), np.linspace(-1.0, 3.0, 50)
        )
        write_static_curve_csv(out / f"static_curve_{name}.csv", curve)
    print(f"\nartifacts in {out}")


if __name__ == "__main__":
    main()
