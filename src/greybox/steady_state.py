"""Steady states of NARX models and the static/dynamic cost functions.

A model's steady state at constant input u_bar solves y = F(psi_bar(u_bar, y)).
The identification method never solves it.  It rests on two one-step costs,
each the mean squared residual of the one-step predictor: :func:`cost_jd`
over the dynamical record, and :func:`cost_js_hat`, which plugs each
measured pair into the predictor, one evaluation per pair, and is zero
exactly where the iterated static residual is zero.  Fixed points serve
only the GA baseline's :func:`cost_js_legacy` and the static-curve check
:func:`model_static_curve`, which finds them as free runs at constant input,
one per input level; a single fixed point is a one-level curve.

The static curve runs the fixed-point loop generated once per structure
(``model._loops``) from the step body of the model's free run (see
:func:`~greybox.models._generate_loops`): a plain loop over the step
count, with the inputs and the lagged outputs held in locals, each output
lag shifted from the one before it at the end of a step, and each step one
expression over the polynomial terms or MLP nodes, with the parameters
bound as locals on entry.  It holds no list, except that an output lag
whose predecessor is not gathered (a gap in the lags) is read from a ring
of the last outputs, as many as the largest such lag.
:func:`cost_js_legacy` runs the loop that same generator emits for the
regressor spec with a call to ``_predict_psi`` as its step, which unpacks
the parameters on every call: the GA baseline is kept deliberately
unhoisted, so it keeps paying per step what the original scheme paid.  A
polynomial's two loops return the same bits; an MLP's plain-float step
rounds differently from numpy's ``@`` and ``np.tanh``, and the two differ
by at most
8 eps (|b0| + sum_i |w_out_i| (1 + |b_i| + sum_j |w_ij psi_j|)) per step
(see :func:`~greybox.models._mlp_loops`).

Every cost helper accepts an optional :class:`~greybox.models.EvalCounter`
so callers can account model evaluations precisely.  A one-step cost whose
prediction or square overflows is non-finite, never a warning.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .data import DynDataset, SteadyDataset, write_table
from .errors import _require_count, _require_number
from .models import EvalCounter, Model, build_regression_matrix, build_static_regressors

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
        _require_number(self.tolerance, "tolerance", positive, sys.float_info.max)
        _require_number(
            self.divergence_bound, "divergence_bound", positive, _MAX_DIVERGENCE_BOUND
        )


def cost_jd(model: Model, zd: DynDataset, counter: EvalCounter | None = None) -> float:
    """Mean squared one-step prediction error over the usable samples."""
    psi, target = build_regression_matrix(model.spec, zd)
    return _mean_squared_residual(model, psi, target, counter)


def cost_js_hat(model: Model, zs: SteadyDataset, counter: EvalCounter | None = None) -> float:
    """Mean squared static residual via direct regressor substitution.

    Each steady pair is turned into a pseudo-regressor (all output slots at
    y_bar, input slots at u_bar) and pushed through the one-step predictor,
    so no fixed-point iteration happens: one evaluation per pair.
    """
    psi_bar = build_static_regressors(model.spec, zs)
    return _mean_squared_residual(model, psi_bar, zs.y_bar, counter)


def _mean_squared_residual(model: Model, psi, target, counter: EvalCounter | None) -> float:
    """Mean of (target - F(psi))^2, one model evaluation per row of ``psi``.

    A prediction or cost that overflows, or an inf * 0 inside a design
    matrix, comes out non-finite without a warning."""
    if counter is not None:
        counter.add(psi.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        residual = target - model.predict(psi)
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
    # the faithful per-call step, not the model's own loop: this is the baseline
    loop = functools.partial(model.spec._legacy_loops.fixed_point, (model._predict_psi,))
    curve = _static_curve(model.spec, loop, zs.u_bar, config, counter)
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
    """Trace the model's static curve by fixed-point iteration per grid point.

    ``u_bar_grid`` holds one row per input level and one column per input
    channel (a 1-D grid is one channel; a model without inputs takes
    ``np.empty((1, 0))``).  Each level's run starts with every output lag
    at 0 and stops as :class:`FixedPointConfig` describes.  ``counter``
    receives the steps of all levels, so a single fixed point is
    ``model_static_curve(model, [[u1, ...]], config, counter)``: its value
    is ``y_bar[0]``, NaN unless ``converged[0]``.
    """
    loop = functools.partial(model._loops.fixed_point, model.theta.tolist())
    return _static_curve(model.spec, loop, u_bar_grid, config or FixedPointConfig(), counter)


def _static_curve(spec, loop, u_bar_grid, config: FixedPointConfig, counter) -> StaticCurve:
    grid = np.asarray(u_bar_grid, dtype=float)
    if grid.ndim == 1:
        grid = grid.reshape(-1, 1)
    if grid.ndim != 2 or grid.shape[0] < 1:
        raise ValueError(f"grid must be (n_points, n_inputs), got shape {grid.shape}")
    if grid.shape[1] != spec.n_inputs:
        raise ValueError(f"u_bar has {grid.shape[1]} channels, spec needs {spec.n_inputs}")
    horizon = config.fixed_horizon
    budget = horizon if horizon is not None else config.max_iterations
    settle = max(1, len(spec.output_lags)) if horizon is None else -1
    y = np.full(grid.shape[0], np.nan)
    flags = np.zeros(grid.shape[0], dtype=bool)
    steps = 0
    for j, u in enumerate(grid.tolist()):
        y_bar, iterations, converged = loop(
            *u, budget, settle, config.tolerance, config.divergence_bound
        )
        steps += iterations
        if converged and math.isfinite(y_bar):
            y[j] = y_bar
            flags[j] = True
    if counter is not None:
        counter.add(steps)
    return StaticCurve(u_bar=grid, y_bar=y, converged=flags)


def write_static_curve_csv(path, curve: StaticCurve) -> None:
    """Steady-pair CSV schema plus a trailing ``converged`` column."""
    m = curve.u_bar.shape[1]
    header = [f"u{i + 1}_bar" for i in range(m)] + ["y_bar", "converged"]
    columns = [curve.u_bar[:, i] for i in range(m)] + [curve.y_bar, curve.converged]
    write_table(path, header, columns)
