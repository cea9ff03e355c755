"""Parameter estimation: weighted least squares, damped least squares, GA.

Three fitting routes; the first two share :func:`build_stacked_system`, which
stacks the dynamic rows and one static pseudo-sample row per steady-state pair:

- :func:`fit_wls` solves linear-in-parameter models in closed form under the
  diagonal weighting W = diag[(1-lam) I_Nd, lam I_Ns];
- :func:`fit_weighted_lm` minimizes the squared norm of the stacked error
  vector E = [(1-lam)(y - F(psi)); lam(y_bar - F(psi_bar))] by damped
  Gauss-Newton steps with an analytic Jacobian, the workhorse for MLP models;
- :func:`fit_ga_legacy` is a deliberately faithful baseline that scores the
  static residual by numeric fixed-point iteration per operating point, so
  its per-candidate cost is dominated by the iteration horizon.

Note the two weighting conventions: WLS applies (1-lam), lam to squared
residuals, the error vector applies them to the residuals themselves.  Both
are kept as stated; they coincide at lam = 0 and rank the same interpolating
optima (zero residuals are zero under either convention).
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .data import DynDataset, SteadyDataset, write_table
from .errors import (
    _MAX_HELD_COUNT,
    DivergenceError,
    SingularityError,
    _require_count,
    _require_number,
)
from .models import (
    EvalCounter,
    MlpModel,
    Model,
    PolynomialModel,
    _mlp_forward,
    _mlp_unpack,
    build_regression_matrix,
    build_static_regressors,
)
from .steady_state import FixedPointConfig, cost_js_legacy

ALGORITHMS = ("ols", "wls", "weighted_lm", "ga_legacy")


# Levenberg-Marquardt damping: the first trial's damping, the factor a
# rejected step multiplies it by and an accepted one divides it by, and the
# damping at which the solver gives up.  It also stops once the gradient or
# the step falls below its tolerance.
_LM_INITIAL_DAMPING = 1e-3
_LM_DAMPING_FACTOR = 10.0
_LM_MAX_DAMPING = 1e14
_LM_GRADIENT_TOLERANCE = 1e-10
_LM_STEP_TOLERANCE = 1e-12

# GA operators: per-gene mutation scale relative to the population spread
# (also the initial spread when GaConfig.init_spread is None), the share of
# children bred by blend crossover, tournament size, and the blend margin.
_GA_MUTATION_SCALE = 0.1
_GA_CROSSOVER_RATE = 0.9
_GA_TOURNAMENT_SIZE = 3
_GA_BLEND_ALPHA = 0.5

@dataclass(frozen=True)
class LmConfig:
    max_iterations: int = 200
    n_starts: int = 1

    def __post_init__(self):
        _require_count(self.max_iterations, "max_iterations", 0)
        _require_count(self.n_starts, "n_starts", 1, _MAX_HELD_COUNT)


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 40
    generations: int = 21
    init_spread: float | None = None
    seed: int = 0

    def __post_init__(self):
        _require_count(self.population_size, "population_size", 2, _MAX_HELD_COUNT)
        _require_count(self.generations, "generations", 0)
        if self.init_spread is not None:
            finite = sys.float_info.max
            _require_number(self.init_spread, "init_spread", -finite, finite)
        _require_count(self.seed, "seed", 0, math.inf)


@dataclass(frozen=True)
class TrainConfig:
    """One training run: weighting, algorithm, and per-algorithm knobs."""

    lam: float = 0.0
    algorithm: str = "wls"
    lm: LmConfig = field(default_factory=LmConfig)
    ga: GaConfig = field(default_factory=GaConfig)
    init_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "lam", _require_number(self.lam, "lambda", 0, 1))
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}, expected {ALGORITHMS}")
        _require_count(self.init_seed, "init_seed", 0, math.inf)


@dataclass(frozen=True)
class StackedSystem:
    """Regressor rows, targets, and diagonal weights of the stacked system.

    Dynamic rows come first with weight (1-lam), then the static
    pseudo-samples with weight lam: one per steady-state pair, every output
    slot at y_bar and every input slot at u_bar.  ``weights`` is the
    diagonal of W.  Without steady-state data there are no static rows.
    """

    psi: np.ndarray
    y: np.ndarray
    weights: np.ndarray
    n_dynamic: int
    n_static: int


def build_stacked_system(
    model: Model, zd: DynDataset, zs: SteadyDataset | None, lam: float
) -> StackedSystem:
    """Stack the dynamic rows and the static pseudo-samples of either model kind."""
    _require_number(lam, "lambda", 0, 1)
    psi_d, y_d = build_regression_matrix(model.spec, zd)
    if zs is None:
        if lam != 0.0:
            raise ValueError("a nonzero lambda needs steady-state data")
        psi, y, n_s = psi_d, y_d, 0
    else:
        psi = np.vstack([psi_d, build_static_regressors(model.spec, zs)])
        y = np.concatenate([y_d, zs.y_bar])
        n_s = zs.n_pairs
    n_d = psi_d.shape[0]
    weights = np.concatenate([np.full(n_d, 1.0 - lam), np.full(n_s, lam)])
    return StackedSystem(psi=psi, y=y, weights=weights, n_dynamic=n_d, n_static=n_s)


def _solve_weighted(phi: np.ndarray, y: np.ndarray, weights: np.ndarray) -> np.ndarray:
    sw = np.sqrt(weights)
    a = phi * sw[:, None]
    b = y * sw
    # e.g. a design matrix overflowed to inf; LAPACK would print illegal-value
    # complaints to stderr before failing on it
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise SingularityError("least squares system is not finite", cond=math.inf)
    try:
        theta, _, rank, sv = np.linalg.lstsq(a, b, rcond=None)
    except np.linalg.LinAlgError as exc:  # e.g. the SVD does not converge
        raise SingularityError(f"least squares failed: {exc}", cond=math.inf) from None
    q = phi.shape[1]
    if rank < q:
        if sv.size and sv[-1] > 0:
            cond = float(sv[0] / sv[-1])
        else:
            cond = math.inf
        raise SingularityError(
            f"weighted normal equations are rank deficient ({rank} < {q})", cond=cond
        )
    return theta


def fit_wls(
    model: PolynomialModel,
    zd: DynDataset,
    zs: SteadyDataset | None,
    lam: float,
    counter: EvalCounter | None = None,
) -> PolynomialModel:
    """Weighted least squares over dynamic rows and static pseudo-samples.

    Solves (Phi^T W Phi) theta = Phi^T W Y, Phi the design matrix of the
    stacked rows and W = diag[(1-lam) I, lam I], equivalently an ordinary LS
    fit on rows scaled by the square roots of the weights.  Without
    steady-state data (``zs`` None, ``lam`` 0) this is ordinary least
    squares on the dynamic record.  Raises SingularityError (with the
    condition number) when the weighted system is numerically rank
    deficient, e.g. at lam = 1 for structures whose static columns collapse,
    and with an infinite one when the system is not finite or the solve
    itself fails.  ``counter`` gets one model evaluation per row, dynamic
    and static, once the solve succeeds.
    """
    if not isinstance(model, PolynomialModel):
        raise TypeError("closed-form least squares needs a linear-in-parameters model")
    stacked = build_stacked_system(model, zd, zs, lam)
    theta = _solve_weighted(model.design_matrix(stacked.psi), stacked.y, stacked.weights)
    if counter is not None:
        counter.add(stacked.y.size)
    return model.with_theta(theta)


def mlp_jacobian(model: MlpModel, psi_rows: np.ndarray) -> np.ndarray:
    """d F / d theta, one row per regressor row, columns in packing order."""
    psi_rows = np.atleast_2d(np.asarray(psi_rows, dtype=float))
    x = model._features(psi_rows)
    _, hidden = _mlp_forward(model.theta, model.n_hidden, x)
    return _mlp_jacobian(model.theta, model.n_hidden, x, hidden)


def _mlp_jacobian(theta: np.ndarray, nh: int, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The Jacobian at ``theta`` from the hidden activations ``t`` that
    :func:`~greybox.models._mlp_forward` returned for the same rows."""
    n, nf = x.shape
    _, w_out, _, _ = _mlp_unpack(theta, nh, nf)
    d = 1.0 - t**2
    jac = np.empty((n, theta.size))
    jac[:, 0] = 1.0
    jac[:, 1 : 1 + nh] = t
    for i in range(nh):
        base = 1 + nh + i * (1 + nf)
        scaled = w_out[i] * d[:, i]
        jac[:, base] = scaled
        jac[:, base + 1 : base + 1 + nf] = scaled[:, None] * x
    return jac


def init_mlp_theta(model: MlpModel, seed: int) -> np.ndarray:
    """Seeded uniform [-0.5, 0.5] draw, scaled down by layer fan-in."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-0.5, 0.5, model.n_params)
    nh = model.n_hidden
    theta[: 1 + nh] /= math.sqrt(1 + nh)
    theta[1 + nh :] /= math.sqrt(1 + model.spec.n_features)
    return theta


@dataclass(frozen=True)
class TraceRecord:
    """One optimizer milestone: costs, timing, and evaluation accounting."""

    iteration: int
    j_d: float
    j_s: float
    j_sd: float
    cost: float
    wall_time_ms: float
    model_evaluations: int


def _trace_recorder(counter: EvalCounter):
    """A TraceRecord factory stamping the wall time and the evaluations
    ``counter`` has seen since this call."""
    t0 = time.perf_counter()
    start = counter.count

    def record(iteration, j_d, j_s, j_sd, cost) -> TraceRecord:
        return TraceRecord(
            iteration=iteration,
            j_d=float(j_d),
            j_s=float(j_s),
            j_sd=float(j_sd),
            cost=float(cost),
            wall_time_ms=(time.perf_counter() - t0) * 1e3,
            model_evaluations=counter.count - start,
        )

    return record


def write_trace_csv(path, trace: list[TraceRecord], static_label: str = "j_s_hat") -> None:
    header = ["iteration", "j_d", static_label, "j_sd", "wall_time_ms", "model_evaluations"]
    columns = [
        [str(r.iteration) for r in trace],
        [r.j_d for r in trace],
        [r.j_s for r in trace],
        [r.j_sd for r in trace],
        [r.wall_time_ms for r in trace],
        [str(r.model_evaluations) for r in trace],
    ]
    write_table(path, header, columns)


def fit_weighted_lm(
    model: MlpModel,
    zd: DynDataset,
    zs: SteadyDataset | None,
    lam: float,
    config: LmConfig | None = None,
    init_seed: int = 0,
    theta0: np.ndarray | None = None,
    counter: EvalCounter | None = None,
) -> tuple[MlpModel, list[TraceRecord]]:
    """Damped least squares on the stacked error vector E = weights * r.

    r is the one-step residual over the whole stack of
    :func:`build_stacked_system`, dynamic rows and static pseudo-samples
    alike, so each evaluation is one ``predict`` and each Jacobian one
    :func:`mlp_jacobian` call.  The parameter vector starts from a seeded
    random draw (or ``theta0`` when given; with ``n_starts`` > 1 several
    seeded starts run and the lowest final cost wins).  Each outer iteration
    either accepts a step, shrinking the damping, or rejects it and inflates
    the damping; accepted steps never increase the squared error norm.  The
    trace holds the initial state plus one record per accepted step.

    A start whose initial cost or Jacobian goes non-finite is skipped; when
    every start does, the first one's DivergenceError, naming the iteration,
    is raised.
    """
    config = config or LmConfig()
    stacked = build_stacked_system(model, zd, zs, lam)
    psi, y, weights = stacked.psi, stacked.y, stacked.weights
    n_d, n_s = stacked.n_dynamic, stacked.n_static
    counter = counter if counter is not None else EvalCounter()
    trace_record = _trace_recorder(counter)
    nh, x = model.n_hidden, model._features(psi)

    # straight from theta: a model per trial would re-validate and copy it;
    # the hidden activations are kept for the Jacobian at an accepted trial
    def evaluate(theta):
        predicted, hidden = _mlp_forward(theta, nh, x)
        r = y - predicted
        counter.add(y.size)
        return weights * r, r, hidden

    def jacobian(theta, hidden):
        return -weights[:, None] * _mlp_jacobian(theta, nh, x, hidden)

    def record(iteration, r, cost):
        j_d = float(np.mean(r[:n_d] ** 2)) if n_d else 0.0
        j_s = float(np.mean(r[n_d:] ** 2)) if n_s else 0.0
        return trace_record(iteration, j_d, j_s, (1.0 - lam) * j_d + lam * j_s, cost)

    def minimize_from(theta_start):
        theta = np.asarray(theta_start, dtype=float).copy()
        e, r, hidden = evaluate(theta)
        cost = float(e @ e)
        if not math.isfinite(cost):
            raise DivergenceError("non-finite cost at the initial parameters", index=0)
        trace = [record(0, r, cost)]
        mu = _LM_INITIAL_DAMPING
        accepted = 0
        jac = None
        identity = np.eye(theta.size)
        for it in range(1, config.max_iterations + 1):
            if jac is None:
                jac = jacobian(theta, hidden)
                if not np.all(np.isfinite(jac)):
                    raise DivergenceError(
                        f"non-finite jacobian at iteration {it}", index=it
                    )
                grad = jac.T @ e
                hess = jac.T @ jac
            if np.max(np.abs(grad)) < _LM_GRADIENT_TOLERANCE:
                break
            try:
                delta = np.linalg.solve(hess + mu * identity, -grad)
            except np.linalg.LinAlgError:
                mu *= _LM_DAMPING_FACTOR
                if mu > _LM_MAX_DAMPING:
                    break
                continue
            if np.linalg.norm(delta) <= _LM_STEP_TOLERANCE * (
                np.linalg.norm(theta) + _LM_STEP_TOLERANCE
            ):
                break
            trial = theta + delta
            e_t, r_t, hidden_t = evaluate(trial)
            cost_t = float(e_t @ e_t)
            if math.isfinite(cost_t) and cost_t < cost:
                theta, e, r, hidden, cost = trial, e_t, r_t, hidden_t, cost_t
                mu = max(mu / _LM_DAMPING_FACTOR, 1e-15)
                accepted += 1
                trace.append(record(accepted, r, cost))
                jac = None
            else:
                mu *= _LM_DAMPING_FACTOR
                if mu > _LM_MAX_DAMPING:
                    break
        return theta, cost, trace

    if theta0 is not None:
        starts = [np.asarray(theta0, dtype=float)]
    else:
        seeds = np.random.SeedSequence(init_seed).generate_state(config.n_starts, np.uint64)
        starts = [init_mlp_theta(model, int(s)) for s in seeds]

    best = failure = None
    for theta_start in starts:
        try:
            theta, cost, trace = minimize_from(theta_start)
        except DivergenceError as exc:
            failure = failure or exc
            continue
        if best is None or cost < best[1]:
            best = (theta, cost, trace)
    if best is None:
        raise failure
    return model.with_theta(best[0]), best[2]


def fit_ga_legacy(
    seed_model: Model,
    zd: DynDataset,
    zs: SteadyDataset,
    lam: float,
    config: GaConfig | None = None,
    fp_config: FixedPointConfig | None = None,
    counter: EvalCounter | None = None,
) -> tuple[Model, list[TraceRecord]]:
    """Real-coded GA minimizing (1-lam) J_d + lam J_s with iterated statics.

    The seed model's parameters join the initial population unchanged; the
    rest are Gaussian perturbations of them.  Selection is by tournament,
    recombination by blend crossover, mutation Gaussian with a per-gene
    scale of a tenth of the population spread, and the best
    individual is carried over unchanged each generation.  The static cost
    runs a fixed-horizon fixed-point iteration per operating point (default
    15 steps), which is what makes this baseline expensive.

    Returns the best individual and one trace record per generation
    (including generation zero, the evaluated initial population).  A
    candidate whose cost is NaN never wins; a population that overflows the
    float range raises DivergenceError.
    """
    _require_number(lam, "lambda", 0, 1)
    config = config or GaConfig()
    fp_config = fp_config or FixedPointConfig(fixed_horizon=15)
    rng = np.random.default_rng(config.seed)
    psi_d, y_d = build_regression_matrix(seed_model.spec, zd)
    counter = counter if counter is not None else EvalCounter()
    record = _trace_recorder(counter)

    def objective(theta):
        cand = seed_model.with_theta(theta)
        r_d = y_d - cand.predict(psi_d)
        counter.add(y_d.size)
        j_d = float(np.mean(r_d**2))
        j_s = cost_js_legacy(cand, zs, fp_config, counter=counter)
        cost = (1.0 - lam) * j_d + lam * j_s
        return (math.inf if math.isnan(cost) else cost), j_d, j_s  # NaN never wins

    q = seed_model.n_params
    base_theta = np.asarray(seed_model.theta, dtype=float)
    spread = config.init_spread if config.init_spread is not None else _GA_MUTATION_SCALE
    scale = np.maximum(np.abs(base_theta), 1.0)
    pop = np.empty((config.population_size, q))
    pop[0] = base_theta
    pop[1:] = base_theta + spread * scale * rng.standard_normal((config.population_size - 1, q))
    scores = np.array([objective(ind) for ind in pop])

    def best_index():
        return int(np.argmin(scores[:, 0]))

    def trace_record(gen):
        cost, j_d, j_s = scores[best_index()]
        return record(gen, j_d, j_s, cost, cost)

    def tournament():
        picks = rng.integers(config.population_size, size=_GA_TOURNAMENT_SIZE)
        return picks[np.argmin(scores[picks, 0])]

    trace = [trace_record(0)]
    for gen in range(1, config.generations + 1):
        sigma = _GA_MUTATION_SCALE * np.maximum(np.std(pop, axis=0), 1e-8)
        new_pop = np.empty_like(pop)
        new_scores = np.empty_like(scores)
        b = best_index()
        new_pop[0] = pop[b]
        new_scores[0] = scores[b]
        for i in range(1, config.population_size):
            pa = pop[tournament()]
            pb = pop[tournament()]
            if rng.random() < _GA_CROSSOVER_RATE:
                lo = np.minimum(pa, pb)
                hi = np.maximum(pa, pb)
                margin = _GA_BLEND_ALPHA * (hi - lo)
                try:
                    child = rng.uniform(lo - margin, hi + margin)
                except OverflowError as exc:  # parents beyond the float range
                    raise DivergenceError(f"GA overflowed in generation {gen}") from exc
            else:
                child = pa.copy()
            child = child + sigma * rng.standard_normal(q)
            new_pop[i] = child
            new_scores[i] = objective(child)
        pop, scores = new_pop, new_scores
        trace.append(trace_record(gen))

    b = best_index()
    return seed_model.with_theta(pop[b]), trace
