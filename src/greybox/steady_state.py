"""Fixed points of NARX models and the static/dynamic cost functions.

A model's steady state at constant input u_bar solves y = F(psi_bar(u_bar, y)).
Two routes to a static cost coexist here:

- the legacy route iterates the map numerically per operating point
  (:func:`fixed_point_iterate`), paying one model evaluation per iteration;
- the substituted route plugs the measured pair straight into the one-step
  predictor (:func:`cost_js_hat`), paying a single evaluation per point, and
  is zero exactly where the legacy cost is zero.

Every cost helper accepts an optional :class:`~greybox.models.EvalCounter`
so callers can account model evaluations precisely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DynDataset, SteadyDataset
from .models import (
    EvalCounter,
    Model,
    build_regression_matrix,
    build_static_regressors,
)


@dataclass(frozen=True)
class FixedPointConfig:
    """Controls for numeric fixed-point iteration.

    When ``fixed_horizon`` is set the iteration runs exactly that many steps
    (tolerance-based stopping is disabled), mirroring schemes that budget a
    constant number of steps per operating point.  ``init_at_target`` starts
    the iteration at the measured y_bar instead of zero.
    """

    max_iterations: int = 500
    fixed_horizon: int | None = None
    tolerance: float = 1e-10
    divergence_bound: float = 1e6
    init_at_target: bool = False

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.fixed_horizon is not None and self.fixed_horizon < 1:
            raise ValueError("fixed_horizon must be positive when set")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.divergence_bound <= 0:
            raise ValueError("divergence_bound must be positive")


@dataclass(frozen=True)
class FixedPointResult:
    y_bar: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class CostReport:
    """Cost decomposition of one model at one weighting."""

    lam: float
    j_d: float
    j_s_hat: float
    j_sd: float
    j_s_legacy: float | None = None


def fixed_point_iterate(
    model: Model,
    u_bar,
    config: FixedPointConfig | None = None,
    y0: float | None = None,
    counter: EvalCounter | None = None,
) -> FixedPointResult:
    """Iterate the model at constant input until the output settles.

    ``u_bar`` is a scalar for single-input models or one value per channel.
    The iteration starts from ``y0`` (default 0) replicated across the output
    lags and stops when the last ``len(output_lags)`` successive differences
    all fall below the tolerance, when the budget runs out, or when the
    value leaves the divergence bound.  With ``fixed_horizon`` set it runs
    exactly that many steps and reports converged unless it diverged.
    """
    config = config or FixedPointConfig()
    spec = model.spec
    u = np.atleast_1d(np.asarray(u_bar, dtype=float))
    if u.size != spec.n_inputs:
        raise ValueError(f"u_bar has {u.size} channels, spec needs {spec.n_inputs}")

    psi = np.empty(len(spec))
    if spec.include_constant:
        psi[0] = 1.0
    y_slots = []
    for pos, ch, lag in spec._gather:
        if ch < 0:
            y_slots.append((pos, lag))
        else:
            psi[pos] = u[ch]

    n_lags = max(1, len(spec.output_lags))
    hist = np.full(max(1, spec.max_output_lag), 0.0 if y0 is None else float(y0))
    recent = [math.inf] * n_lags
    bound = config.divergence_bound
    budget = config.fixed_horizon if config.fixed_horizon is not None else config.max_iterations
    predict = model._predict_psi

    value = float(hist[0])
    for it in range(1, budget + 1):
        for pos, lag in y_slots:
            psi[pos] = hist[lag - 1]
        value = predict(psi)
        if counter is not None:
            counter.add(1)
        if not (-bound <= value <= bound):  # also catches NaN
            return FixedPointResult(y_bar=value, iterations=it, converged=False)
        recent[it % n_lags] = abs(value - hist[0])
        if spec.max_output_lag > 1:
            hist[1:] = hist[:-1]
        hist[0] = value
        if config.fixed_horizon is None and all(d < config.tolerance for d in recent):
            return FixedPointResult(y_bar=value, iterations=it, converged=True)
    return FixedPointResult(
        y_bar=value, iterations=budget, converged=config.fixed_horizon is not None
    )


def cost_jd(model: Model, zd: DynDataset, counter: EvalCounter | None = None) -> float:
    """Mean squared one-step prediction error over the usable samples."""
    psi, target = build_regression_matrix(model.spec, zd)
    if counter is not None:
        counter.add(psi.shape[0])
    residual = target - model.predict(psi)
    return float(np.mean(residual**2))


def cost_js_hat(model: Model, zs: SteadyDataset, counter: EvalCounter | None = None) -> float:
    """Mean squared static residual via direct regressor substitution.

    Each steady pair is turned into a pseudo-regressor (all output slots at
    y_bar, input slots at u_bar) and pushed through the one-step predictor,
    so no fixed-point iteration happens: one evaluation per pair.
    """
    psi_bar = build_static_regressors(model.spec, zs)
    if counter is not None:
        counter.add(psi_bar.shape[0])
    residual = zs.y_bar - model.predict(psi_bar)
    return float(np.mean(residual**2))


def cost_js_legacy(
    model: Model,
    zs: SteadyDataset,
    config: FixedPointConfig | None = None,
    counter: EvalCounter | None = None,
) -> float:
    """Mean squared static residual via numeric fixed-point iteration.

    Each pair costs as many model evaluations as the iteration takes.
    Non-converged or diverged points contribute the divergence bound
    squared; converged residuals are capped at the same value.
    """
    config = config or FixedPointConfig()
    cap = config.divergence_bound**2
    total = 0.0
    for u_row, y_meas in zs.pairs():
        y0 = y_meas if config.init_at_target else None
        res = fixed_point_iterate(model, u_row, config, y0=y0, counter=counter)
        if res.converged and math.isfinite(res.y_bar):
            total += min((y_meas - res.y_bar) ** 2, cap)
        else:
            total += cap
    return total / zs.n_pairs


def cost_report(
    model: Model,
    zd: DynDataset,
    zs: SteadyDataset,
    lam: float,
    config: FixedPointConfig | None = None,
    include_legacy: bool = False,
    counter: EvalCounter | None = None,
) -> CostReport:
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    j_d = cost_jd(model, zd, counter)
    j_s_hat = cost_js_hat(model, zs, counter)
    j_s_legacy = (
        cost_js_legacy(model, zs, config, counter) if include_legacy else None
    )
    return CostReport(
        lam=lam,
        j_d=j_d,
        j_s_hat=j_s_hat,
        j_sd=(1.0 - lam) * j_d + lam * j_s_hat,
        j_s_legacy=j_s_legacy,
    )


@dataclass(frozen=True)
class StaticCurve:
    """Model steady-state output over an input grid, with per-point flags.

    Points whose iteration diverged or ran out of budget keep NaN in
    ``y_bar`` and False in ``converged``; finite pairs are not guaranteed,
    which is why this is not a :class:`~greybox.data.SteadyDataset`.
    """

    u_bar: np.ndarray
    y_bar: np.ndarray
    converged: np.ndarray

    def to_steady_dataset(self) -> SteadyDataset:
        """Converged points only."""
        mask = self.converged
        if not np.any(mask):
            raise ValueError("no converged points on the static curve")
        return SteadyDataset(u_bar=self.u_bar[mask], y_bar=self.y_bar[mask])


def model_static_curve(
    model: Model,
    u_bar_grid,
    config: FixedPointConfig | None = None,
    counter: EvalCounter | None = None,
) -> StaticCurve:
    """Trace the model's static curve by fixed-point iteration per grid point."""
    grid = np.asarray(u_bar_grid, dtype=float)
    if grid.ndim == 1:
        grid = grid.reshape(-1, 1)
    if grid.ndim != 2 or grid.shape[0] < 1:
        raise ValueError(f"grid must be (n_points, n_inputs), got shape {grid.shape}")
    y = np.full(grid.shape[0], np.nan)
    flags = np.zeros(grid.shape[0], dtype=bool)
    for j in range(grid.shape[0]):
        res = fixed_point_iterate(model, grid[j], config, counter=counter)
        if res.converged and math.isfinite(res.y_bar):
            y[j] = res.y_bar
            flags[j] = True
    return StaticCurve(u_bar=grid, y_bar=y, converged=flags)


def write_static_curve_csv(path, curve: StaticCurve) -> None:
    """Steady-pair CSV schema plus a trailing ``converged`` column."""
    from .data import write_table

    m = curve.u_bar.shape[1]
    header = [f"u{i + 1}_bar" for i in range(m)] + ["y_bar", "converged"]
    columns = [curve.u_bar[:, i] for i in range(m)] + [
        curve.y_bar,
        ["true" if c else "false" for c in curve.converged],
    ]
    write_table(path, header, columns)
