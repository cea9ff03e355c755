"""Parameter estimation: weighted least squares, damped least squares, GA.

Three fitting routes, one per algorithm; the first two share
:func:`build_stacked_system`, which stacks the dynamic rows and one static
pseudo-sample row per steady-state pair, and which a lambda sweep builds
once, since only the weights move with lambda:

- :func:`fit_wls` solves linear-in-parameter models in closed form under the
  diagonal weighting W = diag[(1-lam) I_Nd, lam I_Ns] (lam = 0: the black box);
- :func:`fit_weighted_lm` minimizes the squared norm of the stacked error
  vector E = [(1-lam)(y - F(psi)); lam(y_bar - F(psi_bar))] for MLP models:
  it solves the linear output layer exactly at every evaluation and takes
  damped Gauss-Newton steps over the hidden layer alone, with an analytic
  Jacobian, so the output layer of every model it returns is solved;
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
from dataclasses import dataclass, field, fields

import numpy as np

# The LAPACK gufuncs that np.linalg.solve (for a vector right-hand side),
# np.linalg.inv and np.linalg.lstsq call, without those wrappers' per-call
# argument checks, which cost several times the solve at the LM's sizes and
# about a third of the WLS solve.  Called with the wrappers' signature (and,
# for lstsq, its rcond and a one-column right-hand side) they return the same
# bits.  They do not raise: a factorisation that fails sets the invalid flag,
# gesv's filling its whole result with NaN, which the LM's errstate ignores;
# _lstsq sets lstsq's own errstate, which turns the flag into an error.  This
# import is private to numpy; tests/test_estimation.py::TestLapackGufuncs
# fails if it moves or changes.
from numpy.linalg._umath_linalg import inv as _lapack_inv
from numpy.linalg._umath_linalg import lstsq as _lapack_lstsq
from numpy.linalg._umath_linalg import solve1 as _lapack_solve

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
    _mlp_hidden,
    _mlp_output,
    _mlp_split,
    build_regression_matrix,
    build_static_regressors,
)
from .steady_state import FixedPointConfig, _mean_squared_residual, cost_js_legacy

ALGORITHMS = ("wls", "weighted_lm", "ga_legacy")

_EPS = float(np.finfo(float).eps)


# Levenberg-Marquardt damping: the first trial's damping, the factor a
# rejected step multiplies it by and an accepted one divides it by, and the
# damping at which the solver gives up.  It also stops once the gradient or
# the step falls below its tolerance, once the step's predicted fall in the
# cost is at most _LM_FTOL of the cost (MINPACK's ftol test), and before it
# accepts a step whose output layer's normal matrix is conditioned worse
# than the bound (1-norm) and worse than at the current point.
_LM_INITIAL_DAMPING = 1e-3
_LM_DAMPING_FACTOR = 10.0
_LM_MAX_DAMPING = 1e14
_LM_GRADIENT_TOLERANCE = 1e-10
_LM_STEP_TOLERANCE = 1e-12
_LM_FTOL = 1e-12
_LM_MAX_OUTPUT_CONDITION = 1e4

# GA operators: per-gene mutation scale relative to the population spread (and
# the initial spread, relative to the seed's genes), the share of children bred
# by blend crossover, tournament size, and the blend margin.
_GA_MUTATION_SCALE = 0.1
_GA_CROSSOVER_RATE = 0.9
_GA_TOURNAMENT_SIZE = 3
_GA_BLEND_ALPHA = 0.5
_GA_FIXED_POINT = FixedPointConfig(fixed_horizon=15)  # the GA's static cost unless set


@dataclass(frozen=True)
class LmConfig:
    max_iterations: int = 200
    n_starts: int = 1

    def __post_init__(self):
        _require_count(self.max_iterations, "max_iterations", 0)
        _require_count(self.n_starts, "n_starts", 1, _MAX_HELD_COUNT)


@dataclass(frozen=True)
class GaConfig:
    """The GA's size; its operators and its initial spread are fixed."""

    population_size: int = 40
    generations: int = 21

    def __post_init__(self):
        _require_count(self.population_size, "population_size", 2, _MAX_HELD_COUNT)
        _require_count(self.generations, "generations", 0)


@dataclass(frozen=True)
class TrainConfig:
    """One training run: the config's whole training block.

    The weighting, the algorithm, the seed of every random draw (LM starts
    and GA), and each solver's settings: ``lm`` for ``weighted_lm``, ``ga``
    and ``fixed_point`` for ``ga_legacy``, whose iterated static cost runs
    ``fixed_point`` (by default :func:`fit_ga_legacy`'s 15-step horizon).
    """

    lam: float = 0.0
    algorithm: str = "wls"
    lm: LmConfig = field(default_factory=LmConfig)
    ga: GaConfig = field(default_factory=GaConfig)
    init_seed: int = 0
    fixed_point: FixedPointConfig = _GA_FIXED_POINT

    def __post_init__(self):
        # + 0.0 turns a -0.0 into 0.0, which the artefacts would write signed
        object.__setattr__(self, "lam", _require_number(self.lam, "lambda", 0, 1) + 0.0)
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}, expected {ALGORITHMS}")
        _require_count(self.init_seed, "init_seed", 0, math.inf)


@dataclass(frozen=True)
class StackedSystem:
    """Regressor rows and targets of the stacked system, which no lambda
    changes; each fit takes its weights from :meth:`weights`.

    Dynamic rows come first, then the static pseudo-samples: one per
    steady-state pair, every output slot at y_bar and every input slot at
    u_bar.  Without steady-state data there are no static rows.
    ``features`` is the model's expansion of the rows, which depends on its
    structure and not on its parameters: a polynomial's design matrix, one
    column per term, or an MLP's non-constant slots transposed, one
    contiguous row per slot.  The fits of a sweep share the arrays, and no
    fit writes to them.
    """

    psi: np.ndarray
    y: np.ndarray
    features: np.ndarray
    n_dynamic: int
    n_static: int

    def weights(self, lam: float) -> np.ndarray:
        """The diagonal of W = diag[(1-lam) I_Nd, lam I_Ns]."""
        _require_number(lam, "lambda", 0, 1)
        if lam != 0.0 and not self.n_static:
            raise ValueError("a nonzero lambda needs steady-state data")
        return np.concatenate([np.full(self.n_dynamic, 1.0 - lam), np.full(self.n_static, lam)])


def build_stacked_system(model: Model, zd: DynDataset, zs: SteadyDataset | None) -> StackedSystem:
    """Stack the dynamic rows and the static pseudo-samples of either model
    kind, and expand them for its structure."""
    psi_d, y_d = build_regression_matrix(model.spec, zd)
    if zs is None:
        psi, y, n_s = psi_d, y_d, 0
    else:
        psi = np.vstack([psi_d, build_static_regressors(model.spec, zs)])
        y = np.concatenate([y_d, zs.y_bar])
        n_s = zs.n_pairs
    if isinstance(model, PolynomialModel):
        # a design matrix that overflows is not finite, which the solve reports
        with np.errstate(over="ignore", invalid="ignore"):
            features = model.design_matrix(psi)
    else:
        features = np.ascontiguousarray(model._features(psi).T)
    return StackedSystem(psi=psi, y=y, features=features, n_dynamic=psi_d.shape[0], n_static=n_s)


def _lstsq_failed(err, flag):
    # np.linalg.lstsq's own text for this failure
    raise SingularityError(
        "least squares failed: SVD did not converge in Linear Least Squares", cond=math.inf
    )


def _lstsq(a: np.ndarray, b: np.ndarray):
    """``(x, rank, singular values)`` of ``np.linalg.lstsq(a, b, rcond=None)``
    for a vector ``b``, with its bits, from the gufunc it calls.  Raises
    SingularityError where lstsq raises LinAlgError, when the SVD does not
    converge."""
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        x, _, rank, sv = _lapack_lstsq(a, b[:, None], _EPS * max(a.shape), signature="ddd->ddid")
    return x[:, 0], rank, sv


def _solve_weighted(phi: np.ndarray, y: np.ndarray, weights: np.ndarray) -> np.ndarray:
    sw = np.sqrt(weights)
    # e.g. a design matrix that overflowed to inf, which a zero weight turns
    # into NaN; LAPACK would print illegal-value complaints to stderr before
    # failing on it
    with np.errstate(over="ignore", invalid="ignore"):
        a = phi * sw[:, None]
        b = y * sw
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise SingularityError("least squares system is not finite", cond=math.inf)
    theta, rank, sv = _lstsq(a, b)
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
    stacked: StackedSystem | None = None,
) -> PolynomialModel:
    """Weighted least squares over dynamic rows and static pseudo-samples.

    Solves (Phi^T W Phi) theta = Phi^T W Y, Phi the design matrix of the
    stacked rows and W = diag[(1-lam) I, lam I], equivalently an ordinary LS
    fit on rows scaled by the square roots of the weights.  Without
    steady-state data (``zs`` None, ``lam`` 0) this is ordinary least
    squares on the dynamic record.  ``stacked``, when given, is
    :func:`build_stacked_system` of ``model``, ``zd`` and ``zs``, built once
    for several lambdas.  Raises SingularityError (with the condition
    number) when the weighted system is numerically rank deficient, e.g. at
    lam = 1 for structures whose static columns collapse, and with an
    infinite one when the system is not finite or the solve itself fails.
    ``counter`` gets one model evaluation per row, dynamic and static, once
    the solve succeeds.
    """
    if not isinstance(model, PolynomialModel):
        raise TypeError("closed-form least squares needs a linear-in-parameters model")
    if stacked is None:
        stacked = build_stacked_system(model, zd, zs)
    theta = _solve_weighted(stacked.features, stacked.y, stacked.weights(lam))
    if counter is not None:
        counter.add(stacked.y.size)
    return model.with_theta(theta)


def mlp_jacobian(model: MlpModel, psi_rows: np.ndarray) -> np.ndarray:
    """d F / d theta, one row per regressor row, columns in packing order.

    The result is the transpose of a C-order (parameters, rows) array."""
    psi_rows = np.atleast_2d(np.asarray(psi_rows, dtype=float))
    x_t = model._features(psi_rows).T
    c, blocks = _mlp_split(model.theta, model.n_hidden)
    jac_t = np.empty((model.n_params, x_t.shape[1]))
    jac_t[0] = 1.0
    return _mlp_jacobian(c[1:], x_t, _mlp_hidden(blocks, x_t), 1.0, jac_t).T


def _mlp_jacobian(
    w_out: np.ndarray, x_t: np.ndarray, t: np.ndarray, scale, out: np.ndarray
) -> np.ndarray:
    """Fill ``out`` below its first row with the transposed Jacobian of a
    network with output weights ``w_out``, one row per parameter, each
    column multiplied by ``scale`` (a scalar or one value per regressor row),
    and return it.  ``x_t`` holds the features and ``t`` the hidden
    activations, one row per feature or node.  The first row, b0's, is
    ``scale`` itself and left to the caller, who may set it once for many
    fills."""
    nh, nf = w_out.size, x_t.shape[0]
    np.multiply(scale, t, out=out[1 : 1 + nh])
    slopes = 1.0 - t**2
    for i, slope in enumerate(slopes):
        base = 1 + nh + i * (1 + nf)
        slope *= w_out[i]
        np.multiply(scale, slope, out=out[base])
        rows = np.multiply(slope, x_t, out=out[base + 1 : base + 1 + nf])
        rows *= scale
    return out


def _norm_1(a: np.ndarray) -> float:
    """The 1-norm (largest absolute column sum) of a small matrix, summed in
    numpy's order on Python floats, which beats numpy's reductions at this
    size; NaN when an entry is NaN, as numpy's maximum gives it."""
    sums = [sum(map(abs, column)) for column in a.T.tolist()]
    return math.nan if math.isnan(sum(sums)) else max(sums)


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
    """One row per record, one column per :class:`TraceRecord` field in
    order, ``cost`` left out and ``j_s`` headed ``static_label``."""
    keys = [f.name for f in fields(TraceRecord) if f.name != "cost"]
    header = [static_label if key == "j_s" else key for key in keys]
    write_table(path, header, [[getattr(r, key) for r in trace] for key in keys])


def fit_weighted_lm(
    model: MlpModel,
    zd: DynDataset,
    zs: SteadyDataset | None,
    lam: float,
    config: LmConfig | None = None,
    init_seed: int = 0,
    theta0: np.ndarray | None = None,
    counter: EvalCounter | None = None,
    stacked: StackedSystem | None = None,
) -> tuple[MlpModel, list[TraceRecord]]:
    """Damped least squares on the stacked error vector E = weights * r,
    separated into the hidden layer, which LM iterates, and the output layer,
    which is solved.

    r is the one-step residual over the whole stack of
    :func:`build_stacked_system`, dynamic rows and static pseudo-samples
    alike; ``stacked``, when given, is that system of ``model``, ``zd`` and
    ``zs``, built once for several lambdas.  The network output
    b0 + sum_i w_out_i tanh(.) is linear in the
    output layer c = (b0, w_out), so for hidden parameters p (the node
    blocks, theta[1 + n_hidden:]) the best c is a weighted linear least
    squares solution (variable projection; Golub and Pereyra, 1973).  LM runs
    over p alone.  p starts from a seeded random draw (or from ``theta0``, a
    1-D vector of ``model.n_params`` values, whose output layer is not read;
    with ``n_starts`` > 1 several seeded starts run and the lowest final
    cost wins).  Each outer iteration either accepts a step, shrinking the
    damping, or rejects it and inflates the damping; accepted steps never
    increase the squared error norm.  The returned parameters are the full
    theta = (c, p), and c is always the solved one, so even with
    ``max_iterations`` 0 the output layer of the result is the weighted
    least squares fit for the start's hidden layer.  The trace holds the
    initial state plus one record per accepted step.

    Each evaluation (a start or a trial) works on p alone, as one block per
    node, its bias then its weights: it runs the hidden layer over the
    transposed regressor rows, forms A = w [1, tanh] over the stacked rows,
    solves c from the (1 + n_hidden)-square normal equations
    A^T A c = A^T (w y), both sides from one small gemm, with LAPACK's gesv
    gufunc, the one ``np.linalg.solve`` wraps, and forms the output
    c[1:] tanh + c[0].  It counts one model evaluation per stacked row; the
    linear solve is not counted.
    theta is assembled once, when a start returns.  Set once per fit: the
    rows w and w y of that gemm, the view of A^T, and the Jacobian's b0 row,
    which is -w at every point.  Taken once per accepted point: the
    Jacobian of E over the full theta, filled as its (parameters, rows)
    transpose, as :func:`mlp_jacobian` fills it, below E in one array, so
    that one BLAS gemm gives J^T E and J^T J; the gradient test; the step's
    right-hand side; and |p| for the step test.  Checks on a few numbers
    (c finite, the gradient test, the 1-norms) run on Python floats, summed
    in numpy's order, so they decide as numpy's reductions would.

    LM's system is Kaufman's (1975) reduced one: the Schur complement of
    the output-layer block, J_p^T J_p - J_p^T J_c (J_c^T J_c)^-1 J_c^T J_p,
    with its two triangles averaged so that it is exactly symmetric, and the
    gradient J_p^T E, since J_c^T E = 0 at the solved c.  (J_c^T J_c)^-1 is
    the inverse of the point's own output-layer normal matrix.

    LM also stops, without evaluating the trial, when the step's predicted
    reduction is at most ``_LM_FTOL`` (1e-12) of the cost e^T e, the test
    on the predicted reduction in MINPACK (Moré, 1978).  For the step
    delta that solves (H + mu I) delta = -g, with H and g the reduced
    system and gradient above, the quadratic model of e^T e predicts the
    fall delta^T H delta + 2 mu delta^T delta, which is
    delta^T (-g) + mu delta^T delta.  This ends the streak of rejected
    trials after a start's last useful step, whose damping otherwise grows
    tenfold per evaluation until the step test fires, and tails of accepted
    steps that each gain less than that share of the cost.

    Besides the gradient, step and predicted-reduction tests, LM stops
    before it accepts a step whose output-layer normal matrix is
    conditioned worse than ``_LM_MAX_OUTPUT_CONDITION`` (1-norm) and worse
    than at the current point.  Past it a node turns linear while b0 and
    w_out grow to cancel each other: on example2 seed 0 at lam 0.9 the cost
    falls by only 3e-5 relative while w_out grows to about 1600, and the
    free-run scores of such a model no longer repeat to 1e-12 under another
    float evaluation order.

    A trial whose output layer cannot be solved (c is not finite, which
    includes the all-NaN c that gesv returns for a singular normal matrix)
    or whose cost is not finite is rejected.  A start where either happens,
    or whose Jacobian goes non-finite, is skipped; when every start is, the
    first one's DivergenceError, naming the iteration (0 for the start
    itself), is raised.  A step that holds a NaN, as the step of a singular
    system does, is a rejected trial that is never evaluated: it inflates
    the damping on the same path as a rejected evaluation.  Numpy's
    floating-point warnings are silenced inside a start, as
    ``np.linalg.solve`` silences them around its solve, since a non-finite
    start or trial and a singular solve are handled here.
    """
    config = config or LmConfig()
    q = model.n_params
    if theta0 is not None:
        starts = [np.asarray(theta0, dtype=float)]
        if starts[0].shape != (q,):
            raise ValueError(
                f"theta0 must be a 1-D vector of the model's {q} parameters, "
                f"got shape {starts[0].shape}"
            )
    else:
        seeds = np.random.SeedSequence(init_seed).generate_state(config.n_starts, np.uint64)
        starts = [init_mlp_theta(model, int(s)) for s in seeds]
    if stacked is None:
        stacked = build_stacked_system(model, zd, zs)
    y, weights, x_t = stacked.y, stacked.weights(lam), stacked.features
    n_d, n_s = stacked.n_dynamic, stacked.n_static
    counter = counter if counter is not None else EvalCounter()
    trace_record = _trace_recorder(counter)
    nh = model.n_hidden
    nc = 1 + nh  # the output layer's values lead theta
    neg_w = -weights
    # A = w [1, tanh] transposed, one row per output-layer value, above w y,
    # so that one matrix product with A gives both sides of c's equations
    basis = np.empty((nc + 1, y.size))
    basis[0] = weights
    np.multiply(weights, y, out=basis[nc])
    basis_t = basis[:nc].T
    # E in the first row and the Jacobian of E, one row per parameter, below
    # it, so that one matrix product gives both J^T E and J^T J: numpy sends
    # J^T J alone to BLAS syrk, which is slower than gemm at these sizes.
    # b0's row of the Jacobian is -w at every point
    system = np.empty((1 + q, y.size))
    jac_t = system[1:]
    jac_t[0] = neg_w

    # the point at hidden parameters p, or None when its output layer cannot
    # be solved: (cost, c, e, r, hidden, gram), the hidden activations and
    # the output layer's normal matrix kept for the step system
    def evaluate(p):
        hidden = _mlp_hidden(p.reshape(nh, -1), x_t)
        counter.add(y.size)
        np.multiply(weights, hidden, out=basis[1:nc])
        products = basis @ basis_t
        gram = products[:nc]
        # all NaN when gram is singular, e.g. a node whose tanh is zero on every row
        c = _lapack_solve(gram, products[nc], signature="dd->d")
        if not all(map(math.isfinite, c.tolist())):
            return None
        r = _mlp_output(c, hidden)
        np.subtract(y, r, out=r)
        e = weights * r
        return float(e @ e), c, e, r, hidden, gram

    def invert(gram):
        """The inverse of an output layer's normal matrix and its 1-norm
        condition number (the matrix is symmetric).  gram is never singular:
        its solve for c just succeeded, and inv factors it the same way."""
        inverse = _lapack_inv(gram, signature="d->d")
        return inverse, _norm_1(gram) * _norm_1(inverse)

    def step_system(point, inverse, it):
        _, c, e, _, hidden, _ = point
        system[0] = e
        _mlp_jacobian(c[1:], x_t, hidden, neg_w, jac_t)
        products = system @ jac_t.T
        # a non-finite entry of J makes its diagonal entry of J^T J non-finite
        if not np.isfinite(products).all() and not np.isfinite(jac_t).all():
            raise DivergenceError(f"non-finite jacobian at iteration {it}", index=it)
        grad, hess = products[0, nc:], products[1 + nc :, nc:]
        hess -= products[1 + nc :, :nc] @ (inverse @ products[1 : 1 + nc, nc:])
        # gemm may round the two triangles differently
        hess += hess.T
        hess *= 0.5
        return grad, hess

    def record(iteration, point):
        cost, r = point[0], point[3]
        j_d = float(np.add.reduce(r[:n_d] ** 2)) / n_d
        j_s = float(np.add.reduce(r[n_d:] ** 2)) / n_s if n_s else 0.0
        return trace_record(iteration, j_d, j_s, (1.0 - lam) * j_d + lam * j_s, cost)

    # a start or trial that overflows is handled below: DivergenceError for
    # the start, rejection for a trial; so is a singular solve's NaN
    @np.errstate(all="ignore")
    def minimize_from(theta_start):
        p = np.array(theta_start[nc:], dtype=float)
        point = evaluate(p)
        if point is None:
            raise DivergenceError("singular output layer at the initial parameters", index=0)
        if not math.isfinite(point[0]):
            raise DivergenceError("non-finite cost at the initial parameters", index=0)
        trace = [record(0, point)]
        inverse, cond = invert(point[5])
        mu = _LM_INITIAL_DAMPING
        accepted = 0
        neg_grad = None
        identity = np.eye(p.size)
        for it in range(1, config.max_iterations + 1):
            # the gradient, the system and |p| change only with the point
            if neg_grad is None:
                grad, hess = step_system(point, inverse, it)
                if all(abs(g) < _LM_GRADIENT_TOLERANCE for g in grad.tolist()):
                    break
                neg_grad = -grad
                step_floor = _LM_STEP_TOLERANCE * (math.sqrt(p @ p) + _LM_STEP_TOLERANCE)
            delta = _lapack_solve(hess + mu * identity, neg_grad, signature="dd->d")
            # NaN when the system is singular (or holds a NaN): a rejected
            # trial, never evaluated; inf squares to inf, never to NaN
            step_squared = delta @ delta
            if math.sqrt(step_squared) <= step_floor:
                break
            # the fall in e^T e the quadratic model predicts for delta,
            # delta^T H delta + 2 mu delta^T delta; a NaN step fails the test
            if delta @ neg_grad + mu * step_squared <= _LM_FTOL * point[0]:
                break
            p_trial = p + delta
            trial = None if math.isnan(step_squared) else evaluate(p_trial)
            # the current cost is finite, so this also rejects a NaN or inf one
            if trial is not None and trial[0] < point[0]:
                inverse_t, cond_t = invert(trial[5])
                # past the bound the output cancels more digits in every step
                if cond_t > max(_LM_MAX_OUTPUT_CONDITION, cond):
                    break
                p, point, inverse, cond = p_trial, trial, inverse_t, cond_t
                mu = max(mu / _LM_DAMPING_FACTOR, 1e-15)
                accepted += 1
                trace.append(record(accepted, point))
                neg_grad = None
            else:
                mu *= _LM_DAMPING_FACTOR
                if mu > _LM_MAX_DAMPING:
                    break
        return np.concatenate((point[1], p)), point[0], trace

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
    fp_config: FixedPointConfig = _GA_FIXED_POINT,
    counter: EvalCounter | None = None,
    seed: int = 0,
) -> tuple[Model, list[TraceRecord]]:
    """Real-coded GA minimizing (1-lam) J_d + lam J_s with iterated statics.

    The seed model's parameters join the initial population unchanged; the
    rest are Gaussian perturbations of them, a tenth of max(|gene|, 1) in
    scale.  Every draw comes from one generator seeded with ``seed``.
    Selection is by tournament, recombination by blend crossover, mutation
    Gaussian with a per-gene scale of a tenth of the population spread, and
    the best individual is carried over unchanged each generation.  The
    static cost runs ``fp_config``'s fixed-point iteration per operating
    point (by default 15 steps), which is what makes this baseline expensive.

    Returns the best individual and one trace record per generation
    (including generation zero, the evaluated initial population).  A
    candidate whose cost is NaN never wins; a population that overflows the
    float range raises DivergenceError.
    """
    _require_number(lam, "lambda", 0, 1)
    config = config or GaConfig()
    rng = np.random.default_rng(seed)
    psi_d, y_d = build_regression_matrix(seed_model.spec, zd)
    counter = counter if counter is not None else EvalCounter()
    record = _trace_recorder(counter)

    def objective(theta):
        cand = seed_model.with_theta(theta)
        j_d = _mean_squared_residual(cand, psi_d, y_d, counter)
        j_s = cost_js_legacy(cand, zs, fp_config, counter=counter)
        cost = (1.0 - lam) * j_d + lam * j_s
        return (math.inf if math.isnan(cost) else cost), j_d, j_s  # NaN never wins

    q = seed_model.n_params
    base_theta = np.asarray(seed_model.theta, dtype=float)
    scale = np.maximum(np.abs(base_theta), 1.0)

    def best_index():
        return int(np.argmin(scores[:, 0]))

    def trace_record(gen):
        cost, j_d, j_s = scores[best_index()]
        return record(gen, j_d, j_s, cost, cost)

    def tournament():
        picks = rng.integers(config.population_size, size=_GA_TOURNAMENT_SIZE)
        return picks[np.argmin(scores[picks, 0])]

    # a population past the float range overflows silently, to inf and NaN;
    # the blend below then raises DivergenceError
    with np.errstate(over="ignore", invalid="ignore"):
        pop = np.empty((config.population_size, q))
        pop[0] = base_theta
        draws = rng.standard_normal((config.population_size - 1, q))
        pop[1:] = base_theta + _GA_MUTATION_SCALE * scale * draws
        scores = np.array([objective(ind) for ind in pop])
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
