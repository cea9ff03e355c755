"""Steady states of NARX models and the static/dynamic cost functions.

A model's steady state at constant input u_bar solves y = F(psi_bar(u_bar, y)).
The identification method never solves it: :func:`cost_js_hat` plugs each
measured pair into the one-step predictor, one evaluation per pair, and is
zero exactly where the iterated static residual is zero.  Fixed points serve
only the GA baseline's :func:`cost_js_legacy` and the static-curve check
:func:`model_static_curve`; :func:`fixed_point_iterate` finds them as a free
run at constant input, on the same recurrence kernel as
:func:`~greybox.models.free_run`.

The static curve and :func:`fixed_point_iterate` step with the model's
``_step``, built once per call.  :func:`cost_js_legacy` steps with
``_predict_psi`` instead, which unpacks the parameters on every call: the GA
baseline is kept deliberately unhoisted, so it keeps paying per step what
the original scheme paid.  Both steps return the same bits.

Every cost helper accepts an optional :class:`~greybox.models.EvalCounter`
so callers can account model evaluations precisely.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .data import DynDataset, SteadyDataset, write_table
from .errors import _require_count, _require_number
from .models import (
    EvalCounter,
    Model,
    _recurrence,
    build_regression_matrix,
    build_static_regressors,
)


_WINDOW = 1024  # free-run samples held at once, whatever the step budget
_MAX_DIVERGENCE_BOUND = 1e150  # its square, the legacy cost's cap, stays finite


@dataclass(frozen=True)
class FixedPointConfig:
    """Stopping rules for a fixed point found as a free run at constant input.

    The run converges once the last ``len(output_lags)`` successive
    differences fall below ``tolerance``, fails after ``max_iterations``
    steps, and diverges as soon as a value leaves ``[-divergence_bound,
    divergence_bound]``.  With ``fixed_horizon`` set it takes exactly that
    many steps, ignoring the tolerance as schemes that budget a constant
    number of steps per operating point do, and converges unless it diverged.
    """

    max_iterations: int = 500
    fixed_horizon: int | None = None
    tolerance: float = 1e-10
    divergence_bound: float = 1e6

    def __post_init__(self):
        _require_count(self.max_iterations, "max_iterations", 1)
        if self.fixed_horizon is not None:
            _require_count(self.fixed_horizon, "fixed_horizon", 1)
        positive = math.ulp(0.0)  # the smallest positive float, so 0 is excluded
        _require_number(self.tolerance, "tolerance", positive, math.inf)
        _require_number(
            self.divergence_bound, "divergence_bound", positive, _MAX_DIVERGENCE_BOUND
        )


@dataclass(frozen=True)
class FixedPointResult:
    y_bar: float
    iterations: int
    converged: bool


def fixed_point_iterate(
    model: Model,
    u_bar,
    config: FixedPointConfig | None = None,
    counter: EvalCounter | None = None,
) -> FixedPointResult:
    """Free-run the model at constant input until the output settles.

    ``u_bar`` is a scalar for single-input models or one value per channel.
    Every output lag starts at 0, and the run stops as
    :class:`FixedPointConfig` describes.  ``y_bar`` is the last value
    computed, also when the run diverged.
    """
    return _fixed_point(model.spec, model._step(), u_bar, config or FixedPointConfig(), counter)


def _fixed_point(spec, step, u_bar, config: FixedPointConfig, counter) -> FixedPointResult:
    u = np.atleast_1d(np.asarray(u_bar, dtype=float))
    if u.size != spec.n_inputs:
        raise ValueError(f"u_bar has {u.size} channels, spec needs {spec.n_inputs}")

    horizon = config.fixed_horizon
    budget = horizon if horizon is not None else config.max_iterations
    k0 = max(1, spec.max_lag)
    y = [0.0] * (k0 + min(budget, _WINDOW))
    channels = [[level] * len(y) for level in u.tolist()]
    n_lags = max(1, len(spec.output_lags))
    bound = config.divergence_bound
    settled = iterations = 0
    converged = None
    while converged is None:
        for k, value in _recurrence(spec, step, y, channels, k0):
            iterations += 1
            if not (-bound <= value <= bound):  # also catches NaN
                converged = False
                break
            settled = settled + 1 if abs(value - y[k - 1]) < config.tolerance else 0
            y[k] = value
            if (horizon is None and settled == n_lags) or iterations == budget:
                converged = horizon is not None or settled == n_lags
                break
        else:  # the window is full: keep the lagged outputs and run on
            y[:k0] = y[-k0:]
    if counter is not None:
        counter.add(iterations)
    return FixedPointResult(y_bar=value, iterations=iterations, converged=converged)


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

    The model's static curve at the pairs' inputs, each point costing as
    many model evaluations as its iteration takes.  Non-converged or
    diverged points contribute the divergence bound squared; converged
    residuals are capped at the same value.
    """
    config = config or FixedPointConfig()
    # the faithful per-call step, not the hoisted one: this is the baseline
    curve = _static_curve(model.spec, model._predict_psi, zs.u_bar, config, counter)
    bound = config.divergence_bound
    terms = [  # clipped before squaring, so a huge measured value cannot overflow
        min(abs(y_meas - y_fp), bound) ** 2 if ok else bound**2
        for y_meas, y_fp, ok in zip(
            zs.y_bar.tolist(), curve.y_bar.tolist(), curve.converged.tolist()
        )
    ]
    # summed in pair order: np.mean's pairwise sum would change the last bits
    return functools.reduce(operator.add, terms, 0.0) / zs.n_pairs


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


def model_static_curve(
    model: Model,
    u_bar_grid,
    config: FixedPointConfig | None = None,
    counter: EvalCounter | None = None,
) -> StaticCurve:
    """Trace the model's static curve by fixed-point iteration per grid point."""
    return _static_curve(
        model.spec, model._step(), u_bar_grid, config or FixedPointConfig(), counter
    )


def _static_curve(spec, step, u_bar_grid, config: FixedPointConfig, counter) -> StaticCurve:
    grid = np.asarray(u_bar_grid, dtype=float)
    if grid.ndim == 1:
        grid = grid.reshape(-1, 1)
    if grid.ndim != 2 or grid.shape[0] < 1:
        raise ValueError(f"grid must be (n_points, n_inputs), got shape {grid.shape}")
    y = np.full(grid.shape[0], np.nan)
    flags = np.zeros(grid.shape[0], dtype=bool)
    for j in range(grid.shape[0]):
        res = _fixed_point(spec, step, grid[j], config, counter)
        if res.converged and math.isfinite(res.y_bar):
            y[j] = res.y_bar
            flags[j] = True
    return StaticCurve(u_bar=grid, y_bar=y, converged=flags)


def write_static_curve_csv(path, curve: StaticCurve) -> None:
    """Steady-pair CSV schema plus a trailing ``converged`` column."""
    m = curve.u_bar.shape[1]
    header = [f"u{i + 1}_bar" for i in range(m)] + ["y_bar", "converged"]
    columns = [curve.u_bar[:, i] for i in range(m)] + [
        curve.y_bar,
        ["true" if c else "false" for c in curve.converged],
    ]
    write_table(path, header, columns)
