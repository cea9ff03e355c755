"""The benchmark's workloads: which example, algorithm, grid and datasets a
session uses.

Every workload runs the same session, ``greybox sweep`` then ``greybox eval
--mode static-curve`` on the min-RMSE(zt) pick; they differ in which layer
does most of the work.
"""

from __future__ import annotations

from dataclasses import dataclass

GRID9 = ",".join(f"{0.1 * i:.1f}" for i in range(1, 10))


@dataclass(frozen=True)
class Workload:
    name: str
    example: str  # built-in structure and dataset generator
    train: dict  # training part of the sweep config
    grid: str  # --grid argument of the sweep
    pool: int  # distinct datasets an end-to-end run cycles through
    trace_pool: int  # distinct datasets a traced pass covers
    fits: tuple[str, ...]  # estimation functions the sweep must call
    fixed_dataset: int | None = None  # dataset seed used whatever --seed is

    @property
    def n_points(self) -> int:
        return len(self.grid.split(","))

    def dataset_seeds(self, seed: int, count: int) -> list[int]:
        """Generator seeds of the first ``count`` pool datasets for ``seed``."""
        if self.fixed_dataset is not None:
            return [self.fixed_dataset] * count
        return [1000 * seed + j for j in range(count)]


WORKLOADS = {
    w.name: w
    for w in (
        # Free-run scoring of the polynomial is ~91 % of the sweep and the WLS
        # solve ~3 %; CSV I/O and CLI overhead weigh most here.  The
        # pick's rmse_zv spans three decades across datasets, so the quality
        # medians need 128 of them to repeat within ~0.1 between seeds.
        Workload(
            name="ex1_wls",
            example="example1",
            train={"algorithm": "wls"},
            grid=GRID9,
            pool=128,
            trace_pool=8,
            fits=("fit_wls",),
        ),
        # Weighted LM with the settings of acceptance criteria 2 and 3: about
        # half fitting, half MLP free-run; no polynomial free-run.  Quality
        # varies little across datasets; 32 keep its medians within ~0.06.
        Workload(
            name="ex2_lm",
            example="example2",
            train={"algorithm": "weighted_lm", "lm": {"max_iterations": 60, "n_starts": 3}},
            grid=GRID9,
            pool=32,
            trace_pool=4,
            fits=("fit_weighted_lm",),
        ),
        # Criterion 3's GA baseline on its dataset (example2, seed 0), cut to
        # one generation at one lambda: the default 21 generations take ~7 s
        # per lambda, and the medians of the two or three such sessions a run
        # holds spread by 0.35 on a noisy host.  Per candidate the cost is
        # unchanged, and cost_js_legacy, so fixed_point_iterate, is still
        # ~85 % of a session.  The GA's model quality swings by 3x from one
        # dataset or GA seed to the next, so every session repeats the same
        # inputs.
        Workload(
            name="ex2_ga",
            example="example2",
            train={"algorithm": "ga_legacy", "ga": {"generations": 1},
                   "fixed_point": {"fixed_horizon": 15}},
            grid="0.5",
            pool=1,
            trace_pool=1,
            fits=("fit_ga_legacy", "fit_weighted_lm"),
            fixed_dataset=0,
        ),
    )
}
