"""Training, lambda sweeps, free-run scoring, and decision makers.

:func:`fit` is the single training entry point: it checks that the
algorithm suits the structure and dispatches to the estimator.  A sweep
trains one model per lambda on the grid, scores each on free-run metrics,
and hands the resulting points to a decision maker: smallest absolute
correlation between free-run error and measured output, or smallest
free-run RMSE over the test record.  Ties break toward the smaller lambda;
diverged or failed points never win.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .data import DynDataset, SteadyDataset, write_table
from .errors import ConfigError, GreyboxError, SelectionError, _require_count, _require_number
from .estimation import (
    TraceRecord,
    TrainConfig,
    fit_ga_legacy,
    fit_weighted_lm,
    fit_wls,
)
from .models import (
    EvalCounter,
    MlpModel,
    Model,
    PolynomialModel,
    _check_data_fits,
    free_run_on_dataset,
)
from .steady_state import cost_jd, cost_js_hat

RMSE_CAP = 1e6


@dataclass(frozen=True)
class LambdaGrid:
    """Distinct weighting values in [0, 1], kept sorted."""

    values: tuple[float, ...]

    def __post_init__(self):
        # + 0.0 turns a -0.0 into 0.0, which the artefacts would write signed
        vals = {_require_number(v, "grid value", 0, 1) + 0.0 for v in self.values}
        if not vals:
            raise ValueError("lambda grid must not be empty")
        object.__setattr__(self, "values", tuple(sorted(vals)))

    @classmethod
    def linspace(cls, start: float, stop: float, count: int) -> "LambdaGrid":
        start = _require_number(start, "grid start", 0, 1)
        stop = _require_number(stop, "grid stop", 0, 1)
        count = _require_count(count, "grid count", 1)
        return cls(values=tuple(np.linspace(start, stop, count)))

    @classmethod
    def parse(cls, text: str) -> "LambdaGrid":
        """Comma-separated values, e.g. "0.1,0.2,0.5"."""
        return cls(values=tuple(float(p) for p in text.split(",") if p.strip()))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


@dataclass
class ParetoPoint:
    """One lambda on the sweep: its fitted model and the model's scores.

    ``model`` is the fitted model, None exactly when training failed, and
    then the failure text lands in ``error`` and every score stays None.  A
    free run that diverged reads ``RMSE_CAP`` in its RMSE field, None in
    ``corr_dm``, and sets its ``diverged_*`` flag; the RMSE fields stay None
    when their record was not given.  A run that did not diverge but whose
    error against the record overflows, e.g. a measured output of 1e200,
    also reads ``RMSE_CAP`` in its RMSE field, without the flag, and None in
    ``corr_dm`` when the correlation is not finite: an empty cell, which
    :func:`decide_min_corr` skips.  ``warm_from`` is the lambda whose
    fitted parameters started this fit, None for a seeded start or an
    algorithm that does not warm-start.
    """

    lam: float
    model: Model | None = None
    j_d: float | None = None
    j_s_hat: float | None = None
    rmse_zt: float | None = None
    diverged_zt: bool = False
    rmse_zv: float | None = None
    diverged_zv: bool = False
    corr_dm: float | None = None
    diverged_zd: bool = False
    train_time_ms: int = 0
    eval_count: int = 0
    error: str | None = None
    warm_from: float | None = None


def rmse(predicted, actual) -> float:
    """Root mean squared error, clipped to ``RMSE_CAP`` and on non-finite input."""
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predicted.shape != actual.shape:
        raise ValueError(f"shape mismatch {predicted.shape} vs {actual.shape}")
    if predicted.size == 0:
        raise ValueError("rmse needs at least one sample")
    with np.errstate(over="ignore"):  # an error that overflows is capped
        return _root_mean_square(predicted - actual)


def _root_mean_square(diff: np.ndarray) -> float:
    # np.mean's arithmetic: one pairwise sum over all elements, then / size
    if not np.isfinite(diff).all():
        return RMSE_CAP
    return min(math.sqrt(np.add.reduce(diff * diff, axis=None) / diff.size), RMSE_CAP)


def abs_error_correlation(residual, reference) -> float:
    """Absolute Pearson correlation; degenerate (constant) inputs give 0.

    One pass of ``np.std``'s own arithmetic, so the result has the bits of
    ``|mean(dr * dy)| / (std(residual) * std(reference))``: each mean is a
    pairwise sum divided by the size, each deviation ``d`` from its mean is
    formed once and serves both its standard deviation, the square root of
    the mean of ``d * d``, and the covariance.
    """
    residual = np.asarray(residual, dtype=float)
    reference = np.asarray(reference, dtype=float)
    n = residual.size
    dr = residual - np.add.reduce(residual, axis=None) / n
    dy = reference - np.add.reduce(reference, axis=None) / n
    r_std = math.sqrt(np.add.reduce(dr * dr, axis=None) / n)
    y_std = math.sqrt(np.add.reduce(dy * dy, axis=None) / n)
    if r_std == 0.0 or y_std == 0.0:
        return 0.0
    # the covariance stays a numpy scalar: if r_std * y_std underflows to 0,
    # the quotient is inf or nan with numpy's warning, not ZeroDivisionError
    return abs(np.add.reduce(dr * dy, axis=None) / n / (r_std * y_std))


def _free_run_error(model: Model, data: DynDataset, inputs: list | None = None):
    """``(error, measured)`` over the free run's predicted region, the error
    being measured minus predicted, or None when the run diverged;
    ``inputs`` may hold the record's input lists."""
    result = free_run_on_dataset(model, data, bound=RMSE_CAP, _inputs=inputs)
    if result.diverged:
        return None
    k0 = model.spec.max_lag
    measured = data.output[k0:]
    return measured - result.y[k0:], measured


def _free_run_rmse(model: Model, data: DynDataset, inputs: list | None = None):
    """The free-run RMSE over the predicted region and the divergence flag,
    ``RMSE_CAP`` when the run diverged."""
    scored = _free_run_error(model, data, inputs)
    # squaring -error gives the bits of squaring error, so this is rmse(predicted, measured)
    return (RMSE_CAP, True) if scored is None else (_root_mean_square(scored[0]), False)


# structure kind each closed-form or gradient algorithm needs; the GA takes any
_STRUCTURE_FOR = {"ols": PolynomialModel, "wls": PolynomialModel, "weighted_lm": MlpModel}


def _check_trainable(structure: Model, algorithm: str, lam: float, **datasets) -> None:
    """Raise ConfigError unless ``algorithm`` suits the structure at ``lam``
    and the structure fits each of ``datasets`` (zd, zs, zt, zv by name,
    None when absent)."""
    need = _STRUCTURE_FOR.get(algorithm)
    if need is not None and not isinstance(structure, need):
        kind = "polynomial" if need is PolynomialModel else "mlp"
        raise ConfigError(
            f"{algorithm} needs a {kind} structure, got {type(structure).__name__}"
        )
    needs_zs = algorithm == "ga_legacy" or (lam > 0 and algorithm != "ols")
    if needs_zs and datasets.get("zs") is None:
        raise ConfigError(f"{algorithm} at lambda {lam} needs steady-state data 'zs'")
    _check_data_fits(structure.spec, datasets)


def _ga_seed_model(structure: Model, zd: DynDataset, train: TrainConfig) -> Model:
    """The lambda = 0 black-box fit that seeds the GA baseline's population."""
    algorithm = "weighted_lm" if isinstance(structure, MlpModel) else "ols"
    return fit(structure, zd, None, replace(train, lam=0.0, algorithm=algorithm))[0]


def fit(
    structure: Model,
    zd: DynDataset,
    zs: SteadyDataset | None,
    train: TrainConfig,
    counter: EvalCounter | None = None,
    seed_model: Model | None = None,
) -> tuple[Model, list[TraceRecord] | None]:
    """Train one model at ``train.lam`` with ``train.algorithm``, under the
    solver settings ``train`` holds.

    Returns the fitted model and the solver trace (None for the closed-form
    ``ols`` and ``wls``).  ``counter`` receives every model evaluation of the
    fit itself.  ``weighted_lm`` runs ``train.lm``: a single start from
    ``seed_model``'s parameters when given, else its seeded multi-start.
    ``ga_legacy`` runs ``train.ga`` from ``seed_model``, the lambda = 0
    black-box fit, which is made here when not given, and iterates each
    steady state with ``train.fixed_point``.  Raises ConfigError when the
    algorithm does not suit the structure, the structure does not fit the
    data, or steady-state data is missing.
    """
    _check_trainable(structure, train.algorithm, train.lam, zd=zd, zs=zs)
    if train.algorithm == "ols":  # wls on the dynamic record alone, whatever lambda
        return fit_wls(structure, zd, None, 0.0, counter=counter), None
    if train.algorithm == "wls":
        return fit_wls(structure, zd, zs, train.lam, counter=counter), None
    if train.algorithm == "weighted_lm":
        return fit_weighted_lm(
            structure, zd, zs, train.lam, train.lm, init_seed=train.init_seed,
            theta0=None if seed_model is None else seed_model.theta, counter=counter,
        )
    if seed_model is None:
        seed_model = _ga_seed_model(structure, zd, train)
    return fit_ga_legacy(
        seed_model, zd, zs, train.lam, train.ga, train.fixed_point, counter=counter
    )


def run_sweep(
    structure: Model,
    zd: DynDataset,
    zt: DynDataset | None,
    zs: SteadyDataset,
    grid: LambdaGrid,
    train: TrainConfig,
    zv: DynDataset | None = None,
) -> list[ParetoPoint]:
    """Train one model per lambda with :func:`fit` and score it.

    Every point trains with ``train``'s algorithm and solver settings at its
    own lambda; ``train.lam`` itself is not read.

    Lambdas run in ascending order.  ``weighted_lm`` continues along the
    grid: the first lambda runs the seeded multi-start, and each later one
    runs a single start from the parameters of the last lambda that trained
    (its ``warm_from``), since neighbouring lambdas have neighbouring optima.
    Until some lambda has trained, each one runs the seeded multi-start.
    ``ols`` and ``wls`` are closed-form and every lambda is independent; for
    the GA baseline the black-box seed model is trained once up front and
    shared, and each lambda gets its own GA stream.

    A per-lambda SingularityError or DivergenceError is recorded on the
    point instead of aborting the sweep; a structure or dataset the
    algorithm cannot use, or missing steady-state data, which scores every
    point, raises ConfigError before any fit.
    """
    if zs is None:
        raise ConfigError("sweeping needs steady-state data 'zs'")
    _check_trainable(structure, train.algorithm, max(grid), zd=zd, zs=zs, zt=zt, zv=zv)
    seed_model = None
    if train.algorithm == "ga_legacy":
        seed_model = _ga_seed_model(structure, zd, train)
    # each record's input lists, converted once for every point's free runs
    zd_u, zt_u, zv_u = ([c.tolist() for c in d.inputs] if d else None for d in (zd, zt, zv))
    points = []
    for i, lam in enumerate(grid):
        point = ParetoPoint(lam=lam)
        if train.algorithm == "weighted_lm":
            last = next((p for p in reversed(points) if p.model is not None), None)
            if last is not None:
                seed_model, point.warm_from = last.model, last.lam
        ga = train.ga
        if train.algorithm == "ga_legacy":
            stream = np.random.SeedSequence((ga.seed, i)).generate_state(1, np.uint64)
            ga = replace(ga, seed=int(stream[0]))
        point_train = replace(train, lam=lam, ga=ga)
        counter = EvalCounter()
        start = time.perf_counter()
        try:
            point.model, _ = fit(structure, zd, zs, point_train, counter=counter,
                                 seed_model=seed_model)
        except GreyboxError as exc:
            point.error = f"{type(exc).__name__}: {exc}"
        point.train_time_ms = int(round((time.perf_counter() - start) * 1e3))
        point.eval_count = counter.count
        points.append(point)
        if point.model is None:
            continue
        point.j_d = cost_jd(point.model, zd)
        point.j_s_hat = cost_js_hat(point.model, zs)
        # only the scores a point keeps: the correlation on zd, the RMSE on zt
        # and zv; an error that overflows when squared caps the RMSE and
        # leaves the correlation not finite, which is stored as None
        with np.errstate(over="ignore", invalid="ignore"):
            scored = _free_run_error(point.model, zd, zd_u)
            point.diverged_zd = scored is None
            if scored is not None:
                corr = abs_error_correlation(*scored)
                point.corr_dm = corr if math.isfinite(corr) else None
            if zt is not None:
                point.rmse_zt, point.diverged_zt = _free_run_rmse(point.model, zt, zt_u)
            if zv is not None:
                point.rmse_zv, point.diverged_zv = _free_run_rmse(point.model, zv, zv_u)
    return points


def _admissible(points: list[ParetoPoint]) -> list[ParetoPoint]:
    return [p for p in points if p.model is not None]


def _smallest(points: list[ParetoPoint], field: str, diverged: str, what: str) -> ParetoPoint:
    """Admissible point with the smallest finite ``field``, skipping points
    flagged ``diverged``; ties break toward the smaller lambda."""
    candidates = [
        p
        for p in _admissible(points)
        if getattr(p, field) is not None
        and not getattr(p, diverged)
        and math.isfinite(getattr(p, field))
    ]
    if not candidates:
        raise SelectionError(f"no candidate with a finite {what}")
    return min(candidates, key=lambda p: (getattr(p, field), p.lam))


def decide_min_corr(points: list[ParetoPoint]) -> ParetoPoint:
    """Point whose free-run error correlates least with the measured output.

    Candidates whose free-run over the identification record diverged are
    excluded.  Ties break toward the smaller lambda.
    """
    return _smallest(points, "corr_dm", "diverged_zd", "error correlation")


def decide_min_rmse_zt(points: list[ParetoPoint]) -> ParetoPoint:
    """Point with the smallest free-run RMSE over the test record.

    Diverged candidates are excluded; ties break toward the smaller lambda.
    """
    return _smallest(points, "rmse_zt", "diverged_zt", "test RMSE")


def pareto_front(points: list[ParetoPoint]) -> list[ParetoPoint]:
    """Non-dominated points in the (j_d, j_s_hat) plane, sorted by lambda.

    Point q dominates p when q is no worse in both costs and strictly
    better in at least one.  Points with non-finite costs never enter.
    """
    valid = [
        p
        for p in _admissible(points)
        if math.isfinite(p.j_d) and math.isfinite(p.j_s_hat)
    ]
    front = []
    for p in valid:
        dominated = any(
            (q.j_d <= p.j_d and q.j_s_hat <= p.j_s_hat)
            and (q.j_d < p.j_d or q.j_s_hat < p.j_s_hat)
            for q in valid
        )
        if not dominated:
            front.append(p)
    return sorted(front, key=lambda p: p.lam)


def write_sweep_csv(path, points: list[ParetoPoint]) -> None:
    """One row per point, one column per :class:`ParetoPoint` field in
    order, ``model`` left out and ``lam`` headed ``lambda``."""
    names = [f.name for f in fields(ParetoPoint) if f.name != "model"]
    header = ["lambda" if name == "lam" else name for name in names]
    write_table(path, header, [[getattr(p, name) for p in points] for name in names])
