"""Parameter estimation: weighted least squares, damped least squares, GA.

Three fitting routes share the same data plumbing:

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
import time
from dataclasses import dataclass, field

import numpy as np

from .data import DynDataset, SteadyDataset, write_table
from .errors import DivergenceError, SingularityError
from .models import (
    EvalCounter,
    MlpModel,
    Model,
    PolynomialModel,
    build_regression_matrix,
    build_static_regressors,
)
from .steady_state import FixedPointConfig, cost_js_legacy

ALGORITHMS = ("ols", "wls", "weighted_lm", "ga_legacy")


@dataclass(frozen=True)
class LmConfig:
    max_iterations: int = 200
    initial_damping: float = 1e-3
    damping_increase: float = 10.0
    damping_decrease: float = 10.0
    max_damping: float = 1e14
    gradient_tolerance: float = 1e-10
    step_tolerance: float = 1e-12
    n_starts: int = 1

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")
        if self.initial_damping <= 0 or self.damping_increase <= 1 or self.damping_decrease <= 1:
            raise ValueError("damping controls must be positive (factors above 1)")
        if self.n_starts < 1:
            raise ValueError("n_starts must be positive")


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 40
    generations: int = 21
    mutation_scale: float = 0.1
    crossover_rate: float = 0.9
    tournament_size: int = 3
    blend_alpha: float = 0.5
    init_spread: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.generations < 0:
            raise ValueError("generations must be nonnegative")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must lie in [0, 1]")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be positive")


@dataclass(frozen=True)
class TrainConfig:
    """One training run: weighting, algorithm, and per-algorithm knobs."""

    lam: float = 0.0
    algorithm: str = "wls"
    lm: LmConfig = field(default_factory=LmConfig)
    ga: GaConfig = field(default_factory=GaConfig)
    init_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must lie in [0, 1], got {self.lam}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}, expected {ALGORITHMS}")


@dataclass(frozen=True)
class StackedSystem:
    """Design matrix, targets, and diagonal weights for the linear solve.

    Dynamic rows come first with weight (1-lam), static pseudo-sample rows
    follow with weight lam.  ``weights`` is the diagonal of W.
    """

    psi: np.ndarray
    y: np.ndarray
    weights: np.ndarray
    n_dynamic: int
    n_static: int


def _split_data(model: Model, zd: DynDataset, zs: SteadyDataset | None, lam: float = 0.0):
    psi_d, y_d = build_regression_matrix(model.spec, zd)
    if zs is None:
        if lam != 0.0:
            raise ValueError("a nonzero lambda needs steady-state data")
        psi_s = np.empty((0, len(model.spec)))
        y_s = np.empty(0)
    else:
        psi_s = build_static_regressors(model.spec, zs)
        y_s = zs.y_bar
    return psi_d, y_d, psi_s, y_s


def build_stacked_system(
    model: PolynomialModel, zd: DynDataset, zs: SteadyDataset | None, lam: float
) -> StackedSystem:
    """Assemble the weighted linear system for a polynomial model."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    psi_d, y_d, psi_s, y_s = _split_data(model, zd, zs, lam)
    phi_d = model.design_matrix(psi_d)
    phi_s = model.design_matrix(psi_s) if psi_s.shape[0] else np.empty((0, model.n_params))
    psi = np.vstack([phi_d, phi_s])
    y = np.concatenate([y_d, y_s])
    weights = np.concatenate(
        [np.full(phi_d.shape[0], 1.0 - lam), np.full(phi_s.shape[0], lam)]
    )
    return StackedSystem(
        psi=psi, y=y, weights=weights, n_dynamic=phi_d.shape[0], n_static=phi_s.shape[0]
    )


def _solve_weighted(phi: np.ndarray, y: np.ndarray, weights: np.ndarray) -> np.ndarray:
    sw = np.sqrt(weights)
    a = phi * sw[:, None]
    b = y * sw
    try:
        theta, _, rank, sv = np.linalg.lstsq(a, b, rcond=None)
    except np.linalg.LinAlgError as exc:  # e.g. a design matrix overflowed to inf
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


def fit_ols(
    model: PolynomialModel, zd: DynDataset, counter: EvalCounter | None = None
) -> PolynomialModel:
    """Ordinary least squares on the dynamic record alone.

    ``counter`` gets one model evaluation per row once the solve succeeds.
    """
    if not isinstance(model, PolynomialModel):
        raise TypeError("closed-form least squares needs a linear-in-parameters model")
    psi_d, y_d = build_regression_matrix(model.spec, zd)
    phi = model.design_matrix(psi_d)
    theta = _solve_weighted(phi, y_d, np.ones(phi.shape[0]))
    if counter is not None:
        counter.add(phi.shape[0])
    return model.with_theta(theta)


def fit_wls(
    model: PolynomialModel,
    zd: DynDataset,
    zs: SteadyDataset | None,
    lam: float,
    counter: EvalCounter | None = None,
) -> PolynomialModel:
    """Weighted least squares over dynamic rows and static pseudo-samples.

    Solves (Psi^T W Psi) theta = Psi^T W Y with W = diag[(1-lam) I, lam I],
    equivalently an ordinary LS fit on rows scaled by the square roots of
    the weights.  Raises SingularityError (with the condition number) when
    the weighted system is numerically rank deficient, e.g. at lam = 1 for
    structures whose static columns collapse, and with an infinite one when
    the solve itself fails.  ``counter`` gets one model evaluation per row,
    dynamic and static, once the solve succeeds.
    """
    if not isinstance(model, PolynomialModel):
        raise TypeError("closed-form least squares needs a linear-in-parameters model")
    stacked = build_stacked_system(model, zd, zs, lam)
    theta = _solve_weighted(stacked.psi, stacked.y, stacked.weights)
    if counter is not None:
        counter.add(stacked.psi.shape[0])
    return model.with_theta(theta)


def mlp_jacobian(model: MlpModel, psi_rows: np.ndarray) -> np.ndarray:
    """d F / d theta, one row per regressor row, columns in packing order."""
    psi_rows = np.atleast_2d(np.asarray(psi_rows, dtype=float))
    n = psi_rows.shape[0]
    _, w_out, b_h, w_h = model.unpack()
    x = model._features(psi_rows)
    t = np.tanh(x @ w_h.T + b_h)
    d = 1.0 - t**2
    nh = model.n_hidden
    nf = model.spec.n_features
    jac = np.empty((n, model.n_params))
    jac[:, 0] = 1.0
    jac[:, 1 : 1 + nh] = t
    for i in range(nh):
        base = 1 + nh + i * (1 + nf)
        scaled = w_out[i] * d[:, i]
        jac[:, base] = scaled
        jac[:, base + 1 : base + 1 + nf] = scaled[:, None] * x
    return jac


def model_jacobian(model: Model, psi_rows: np.ndarray) -> np.ndarray:
    """Jacobian of the one-step prediction w.r.t. the parameter vector."""
    if isinstance(model, PolynomialModel):
        return model.design_matrix(psi_rows)
    return mlp_jacobian(model, psi_rows)


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
    """Damped least squares on the stacked error vector.

    The parameter vector starts from a seeded random draw (or ``theta0``
    when given; with ``n_starts`` > 1 several seeded starts run and the
    lowest final cost wins).  Each outer iteration either accepts a step,
    shrinking the damping, or rejects it and inflates the damping; accepted
    steps never increase the squared error norm.  The trace holds the
    initial state plus one record per accepted step.

    Raises DivergenceError, naming the iteration, if the Jacobian goes
    non-finite.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    config = config or LmConfig()
    psi_d, y_d, psi_s, y_s = _split_data(model, zd, zs, lam)
    n_d, n_s = psi_d.shape[0], psi_s.shape[0]
    rows_per_eval = n_d + n_s
    t0 = time.perf_counter()
    evals = 0

    def evaluate(theta):
        nonlocal evals
        cand = model.with_theta(theta)
        r_d = y_d - cand.predict(psi_d)
        r_s = y_s - cand.predict(psi_s) if n_s else np.empty(0)
        evals += rows_per_eval
        if counter is not None:
            counter.add(rows_per_eval)
        e = np.concatenate([(1.0 - lam) * r_d, lam * r_s])
        return e, r_d, r_s

    def jacobian(theta):
        cand = model.with_theta(theta)
        j_d = model_jacobian(cand, psi_d)
        blocks = [-(1.0 - lam) * j_d]
        if n_s:
            blocks.append(-lam * model_jacobian(cand, psi_s))
        return np.vstack(blocks)

    def record(iteration, rd, rs, cost):
        j_d = float(np.mean(rd**2)) if n_d else 0.0
        j_s = float(np.mean(rs**2)) if n_s else 0.0
        return TraceRecord(
            iteration=iteration,
            j_d=j_d,
            j_s=j_s,
            j_sd=(1.0 - lam) * j_d + lam * j_s,
            cost=cost,
            wall_time_ms=(time.perf_counter() - t0) * 1e3,
            model_evaluations=evals,
        )

    def minimize_from(theta_start):
        theta = np.asarray(theta_start, dtype=float).copy()
        e, r_d, r_s = evaluate(theta)
        cost = float(e @ e)
        if not math.isfinite(cost):
            raise DivergenceError("non-finite cost at the initial parameters", index=0)
        trace = [record(0, r_d, r_s, cost)]
        mu = config.initial_damping
        accepted = 0
        jac = None
        identity = np.eye(theta.size)
        for it in range(1, config.max_iterations + 1):
            if jac is None:
                jac = jacobian(theta)
                if not np.all(np.isfinite(jac)):
                    raise DivergenceError(
                        f"non-finite jacobian at iteration {it}", index=it
                    )
                grad = jac.T @ e
                hess = jac.T @ jac
            if np.max(np.abs(grad)) < config.gradient_tolerance:
                break
            try:
                delta = np.linalg.solve(hess + mu * identity, -grad)
            except np.linalg.LinAlgError:
                mu *= config.damping_increase
                if mu > config.max_damping:
                    break
                continue
            if np.linalg.norm(delta) <= config.step_tolerance * (
                np.linalg.norm(theta) + config.step_tolerance
            ):
                break
            trial = theta + delta
            e_t, rd_t, rs_t = evaluate(trial)
            cost_t = float(e_t @ e_t)
            if math.isfinite(cost_t) and cost_t < cost:
                theta, e, r_d, r_s, cost = trial, e_t, rd_t, rs_t, cost_t
                mu = max(mu / config.damping_decrease, 1e-15)
                accepted += 1
                trace.append(record(accepted, r_d, r_s, cost))
                jac = None
            else:
                mu *= config.damping_increase
                if mu > config.max_damping:
                    break
        return theta, cost, trace

    if theta0 is not None:
        starts = [np.asarray(theta0, dtype=float)]
    else:
        seeds = np.random.SeedSequence(init_seed).generate_state(config.n_starts, np.uint64)
        starts = [init_mlp_theta(model, int(s)) for s in seeds]

    best = None
    for theta_start in starts:
        theta, cost, trace = minimize_from(theta_start)
        if best is None or cost < best[1]:
            best = (theta, cost, trace)
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
    scale of ``mutation_scale`` times the population spread, and the best
    individual is carried over unchanged each generation.  The static cost
    runs a fixed-horizon fixed-point iteration per operating point (default
    15 steps), which is what makes this baseline expensive.

    Returns the best individual and one trace record per generation
    (including generation zero, the evaluated initial population).
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    config = config or GaConfig()
    fp_config = fp_config or FixedPointConfig(fixed_horizon=15)
    rng = np.random.default_rng(config.seed)
    psi_d, y_d = build_regression_matrix(seed_model.spec, zd)
    n_d = psi_d.shape[0]
    t0 = time.perf_counter()
    evals = 0

    def objective(theta):
        nonlocal evals
        cand = seed_model.with_theta(theta)
        r_d = y_d - cand.predict(psi_d)
        evals += n_d
        if counter is not None:
            counter.add(n_d)
        j_d = float(np.mean(r_d**2))
        local = EvalCounter()
        j_s = cost_js_legacy(cand, zs, fp_config, counter=local)
        evals += local.count
        if counter is not None:
            counter.add(local.count)
        return (1.0 - lam) * j_d + lam * j_s, j_d, j_s

    q = seed_model.n_params
    base_theta = np.asarray(seed_model.theta, dtype=float)
    spread = config.init_spread if config.init_spread is not None else config.mutation_scale
    scale = np.maximum(np.abs(base_theta), 1.0)
    pop = np.empty((config.population_size, q))
    pop[0] = base_theta
    pop[1:] = base_theta + spread * scale * rng.standard_normal((config.population_size - 1, q))
    scores = np.array([objective(ind) for ind in pop])

    def best_index():
        return int(np.argmin(scores[:, 0]))

    def trace_record(gen):
        b = best_index()
        cost, j_d, j_s = scores[b]
        return TraceRecord(
            iteration=gen,
            j_d=float(j_d),
            j_s=float(j_s),
            j_sd=float(cost),
            cost=float(cost),
            wall_time_ms=(time.perf_counter() - t0) * 1e3,
            model_evaluations=evals,
        )

    def tournament():
        picks = rng.integers(config.population_size, size=config.tournament_size)
        return picks[np.argmin(scores[picks, 0])]

    trace = [trace_record(0)]
    alpha = config.blend_alpha
    for gen in range(1, config.generations + 1):
        sigma = config.mutation_scale * np.maximum(np.std(pop, axis=0), 1e-8)
        new_pop = np.empty_like(pop)
        new_scores = np.empty_like(scores)
        b = best_index()
        new_pop[0] = pop[b]
        new_scores[0] = scores[b]
        for i in range(1, config.population_size):
            pa = pop[tournament()]
            pb = pop[tournament()]
            if rng.random() < config.crossover_rate:
                lo = np.minimum(pa, pb)
                hi = np.maximum(pa, pb)
                span = hi - lo
                child = rng.uniform(lo - alpha * span, hi + alpha * span)
            else:
                child = pa.copy()
            child = child + sigma * rng.standard_normal(q)
            new_pop[i] = child
            new_scores[i] = objective(child)
        pop, scores = new_pop, new_scores
        trace.append(trace_record(gen))

    b = best_index()
    return seed_model.with_theta(pop[b]), trace
