"""NARX model structures: lag layouts, polynomial and MLP predictors, free runs.

A regressor vector at sample k is laid out as

    psi(k-1) = [1, y(k-1), ..., y(k-n_y), u1(k-1), ..., u1(k-n_u1), u2(...), ...]

with the leading constant slot optional.  Both model families consume this
layout: the polynomial model multiplies selected slots together per term,
the MLP feeds the non-constant slots through a tanh hidden layer.

A model checks its terms or node count and its parameters when it is
built.  ``with_theta`` checks only the new parameters' length: it copies
the model with them, so the spec, the terms and any loops already resolved
carry over.

Time stepping has one generator, :func:`_generate_loops`, which compiles a
free run and a fixed-point run once per structure as plain loops over
Python floats, with the input-driven work of a step (an MLP node's input
sum, a polynomial's coefficient of each output monomial) computed outside
the recurrence; its docstring is the one full account of those loops, of
how they round against ``_predict_psi`` and of what they cost.
:func:`free_run_on_dataset` and
:func:`~greybox.steady_state.model_static_curve` run them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import islice
from operator import add, mul
from typing import Callable, NamedTuple, Union

import numpy as np

from .data import DynDataset, SteadyDataset, read_json, write_json
from .errors import _MAX_HELD_COUNT, ConfigError, _check_keys, _require_count, _require_number

MODEL_PACKING_VERSION = 1
DIVERGENCE_BOUND = 1e6  # past it a run has diverged; rmse and cost_js_legacy cap at it

_CHUNK = 32  # operands in one generated sum or product
_BLOCK = 4096  # samples whose parts a free run holds at once


def _check_lags(lags, name: str) -> tuple[int, ...]:
    out = tuple(_require_count(lag, name, 1, _MAX_HELD_COUNT) for lag in lags)
    if len(set(out)) != len(out) or list(out) != sorted(out):
        raise ValueError(f"{name} must be sorted and duplicate-free, got {out}")
    return out


@dataclass(frozen=True)
class RegressorSpec:
    """Which lagged outputs and inputs feed the one-step predictor.

    ``input_lags`` holds one lag tuple per input channel, so channels can use
    entirely different delay sets.
    """

    output_lags: tuple[int, ...]
    input_lags: tuple[tuple[int, ...], ...]
    include_constant: bool = True

    def __post_init__(self):
        object.__setattr__(self, "output_lags", _check_lags(self.output_lags, "output lags"))
        object.__setattr__(
            self,
            "input_lags",
            tuple(
                _check_lags(lags, f"input channel {i + 1} lags")
                for i, lags in enumerate(self.input_lags)
            ),
        )
        object.__setattr__(self, "include_constant", bool(self.include_constant))

    def __len__(self) -> int:
        return int(self.include_constant) + self.n_features

    @cached_property
    def n_features(self) -> int:
        """Number of non-constant regressor slots."""
        return len(self.output_lags) + sum(len(lags) for lags in self.input_lags)

    @property
    def n_inputs(self) -> int:
        return len(self.input_lags)

    @property
    def max_output_lag(self) -> int:
        return max(self.output_lags, default=0)

    @cached_property
    def max_lag(self) -> int:
        input_max = max((max(lags, default=0) for lags in self.input_lags), default=0)
        return max(self.max_output_lag, input_max)

    @cached_property
    def _gather(self) -> tuple[tuple[int, int, int], ...]:
        # (psi slot, source channel, lag); channel -1 is the output.
        slots = []
        pos = 1 if self.include_constant else 0
        for lag in self.output_lags:
            slots.append((pos, -1, lag))
            pos += 1
        for ch, lags in enumerate(self.input_lags):
            for lag in lags:
                slots.append((pos, ch, lag))
                pos += 1
        return tuple(slots)

    @cached_property
    def _legacy_loops(self) -> "_Loops":
        """A fixed point, without a free run, that gathers psi(k-1) into a
        fresh list at every step and calls ``step(psi)``, its one parameter,
        on it: the GA baseline's per-call step, shared over this spec."""
        psi = ", ".join(f"x{pos}" for pos in range(len(self)))
        return _generate_loops(self, ["[step] = params"],
                               [f"psi = [{psi}]", "acc = step(psi)"], range(len(self)))

    def check(self, data: DynDataset | SteadyDataset, name: str = "data") -> None:
        """Raise ValueError unless ``data`` has this spec's input channel
        count and, for a dynamical record, more samples than the largest
        lag; ``name`` labels the message."""
        if data.n_inputs != self.n_inputs:
            raise ValueError(
                f"{name} has {data.n_inputs} input channels, "
                f"the structure expects {self.n_inputs}"
            )
        if isinstance(data, DynDataset) and data.sample_count <= self.max_lag:
            raise ValueError(
                f"{name} is too short: {data.sample_count} samples for max lag {self.max_lag}"
            )


def build_regression_matrix(spec: RegressorSpec, data: DynDataset):
    """One-step regressors and targets over every usable sample.

    Returns ``(psi, target)`` where row i of ``psi`` is psi(k-1) for
    k = max_lag + i and ``target[i] = y(k)``.  Raises ValueError as
    :meth:`RegressorSpec.check` does.
    """
    spec.check(data)
    k0 = spec.max_lag
    n = data.sample_count
    psi = np.empty((n - k0, len(spec)))
    if spec.include_constant:
        psi[:, 0] = 1.0
    y = data.output
    for pos, ch, lag in spec._gather:
        src = y if ch < 0 else data.inputs[ch]
        psi[:, pos] = src[k0 - lag : n - lag]
    return psi, y[k0:].copy()


def _check_data_fits(spec: RegressorSpec, datasets: dict) -> None:
    """Raise ConfigError naming the first dataset in ``datasets`` (name to
    dataset, None skipped) that ``spec`` does not fit, as
    :meth:`RegressorSpec.check` decides."""
    for name, data in datasets.items():
        if data is not None:
            try:
                spec.check(data, f"dataset {name!r}")
            except ValueError as exc:
                raise ConfigError(str(exc)) from None


def build_static_regressors(spec: RegressorSpec, zs: SteadyDataset) -> np.ndarray:
    """Static pseudo-regressors, one row per steady-state pair.

    At a fixed point every lagged output equals y_bar and every lagged input
    equals the pair's u_bar, so the row is the regressor vector with all
    output slots set to y_bar_j and all channel slots set to u_bar_j.
    Raises ValueError as :meth:`RegressorSpec.check` does.
    """
    spec.check(zs)
    psi = np.empty((zs.n_pairs, len(spec)))
    if spec.include_constant:
        psi[:, 0] = 1.0
    for pos, ch, _ in spec._gather:
        psi[:, pos] = zs.y_bar if ch < 0 else zs.u_bar[:, ch]
    return psi


@dataclass
class EvalCounter:
    """Running count of one-step model evaluations, for cost accounting."""

    count: int = 0

    def add(self, n: int = 1) -> None:
        self.count += n


def _flat_theta(theta, size: int, needs: str) -> np.ndarray:
    """``theta`` as a new flat float array, the one rule for a model's
    parameters; raises ValueError unless it holds ``size`` values, ``needs``
    saying what asks for them."""
    theta = np.asarray(theta, dtype=float).reshape(-1).copy()
    if theta.size != size:
        raise ValueError(f"{needs} {size} parameters, got {theta.size}")
    return theta


class _Model:
    """What both model kinds share: their parameter count and ``with_theta``."""

    @property
    def n_params(self) -> int:
        return self.theta.size

    def with_theta(self, theta):
        """A copy of this model with ``theta`` as its parameters.  The spec,
        the structure and any loops already resolved carry over unchecked,
        since the model's constructor checked them and none depends on
        ``theta``."""
        theta = _flat_theta(theta, self.theta.size, "the model takes")
        # set one by one: copy.copy's one __dict__ update slows every
        # attribute load of the copy on CPython 3.11, and the GA baseline's
        # per-call step loads several
        model = object.__new__(type(self))
        for name, value in {**vars(self), "theta": theta}.items():
            object.__setattr__(model, name, value)
        return model


@dataclass(frozen=True)
class PolynomialModel(_Model):
    """Linear-in-parameters polynomial NARX model.

    Each term is a tuple of regressor-slot indices whose values are
    multiplied together; the empty tuple is a constant term.  The prediction
    is the term products weighted by ``theta``.
    """

    spec: RegressorSpec
    terms: tuple[tuple[int, ...], ...]
    theta: np.ndarray

    def __post_init__(self):
        last = len(self.spec) - 1
        canon = tuple(
            tuple(sorted(_require_count(i, "term index", 0, last) for i in t))
            for t in self.terms
        )
        if len(set(canon)) != len(canon):
            raise ValueError("duplicate polynomial terms after canonicalization")
        theta = _flat_theta(self.theta, len(canon), f"{len(canon)} terms take")
        object.__setattr__(self, "terms", canon)
        object.__setattr__(self, "theta", theta)

    def design_matrix(self, psi_rows: np.ndarray) -> np.ndarray:
        """Expand regressor rows into per-term product columns, each
        multiplied in place left to right in term order, as
        ``np.multiply.reduce`` over the term's columns would."""
        psi_rows = np.atleast_2d(np.asarray(psi_rows, dtype=float))
        cols = np.empty((psi_rows.shape[0], len(self.terms)))
        for j, term in enumerate(self.terms):
            col = cols[:, j]
            if len(term) < 2:
                col[:] = psi_rows[:, term[0]] if term else 1.0
                continue
            np.multiply(psi_rows[:, term[0]], psi_rows[:, term[1]], out=col)
            for i in term[2:]:
                col *= psi_rows[:, i]
        return cols

    def predict(self, psi_rows: np.ndarray) -> np.ndarray:
        return self.design_matrix(psi_rows) @ self.theta

    def _predict_psi(self, psi) -> float:
        """The prediction at one regressor vector, in the loops' order: the
        sum over ``_groups`` of each coefficient times its ``monomial``, the
        coefficient summing its terms' parameters times their ``factors``."""
        values = []
        for monomial, coefficient in self._groups:
            c = reduce(add, [reduce(mul, [psi[i] for i in factors], self.theta[j])
                             for j, factors in coefficient])
            values.append(reduce(mul, [psi[i] for i in monomial], c))
        return float(reduce(add, values)) if values else 0.0

    @cached_property
    def _groups(self) -> tuple:
        """The terms grouped by their output slots, ``monomial``, in order of
        first appearance: ``((monomial, ((j, factors), ...)), ...)``, the
        term j's other slots being its ``factors``."""
        outputs = {pos for pos, ch, _ in self.spec._gather if ch < 0}
        groups = {}
        for j, term in enumerate(self.terms):
            monomial = tuple(i for i in term if i in outputs)
            groups.setdefault(monomial, []).append((j, tuple(i for i in term if i not in outputs)))
        return tuple((monomial, tuple(coefficient)) for monomial, coefficient in groups.items())

    @cached_property
    def _loops(self) -> "_Loops":
        return _polynomial_loops(self.spec, self._groups)


@dataclass(frozen=True)
class MlpModel(_Model):
    """Single-hidden-layer tanh NARX model.

    Parameter packing (stable across save/load, version 1):

    - ``theta[0]``: output bias
    - ``theta[1 : 1 + n_hidden]``: output weights, one per hidden node
    - then one block of ``1 + n_features`` values per hidden node, in node
      order: the node bias followed by its weights over the non-constant
      regressor slots, in spec order.

    The constant regressor slot, when present, is ignored: biases are
    explicit parameters.
    """

    spec: RegressorSpec
    n_hidden: int
    theta: np.ndarray

    def __post_init__(self):
        nh = _require_count(self.n_hidden, "n_hidden", 1)
        theta = _flat_theta(self.theta, self.n_params_for(self.spec, nh),
                            f"{nh} hidden nodes over {self.spec.n_features} regressors take")
        object.__setattr__(self, "n_hidden", nh)
        object.__setattr__(self, "theta", theta)

    @staticmethod
    def n_params_for(spec: RegressorSpec, n_hidden: int) -> int:
        return 1 + n_hidden + n_hidden * (1 + spec.n_features)

    def unpack(self):
        """Views (output_bias, output_weights, hidden_bias, hidden_weights)."""
        # sliced from theta directly, not through _mlp_split's c: the GA
        # baseline's fixed-point loop unpacks once per step
        theta, nh = self.theta, self.n_hidden
        blocks = theta[1 + nh :].reshape(nh, -1)
        return theta[0], theta[1 : 1 + nh], blocks[:, 0], blocks[:, 1:]

    def _features(self, psi_rows: np.ndarray) -> np.ndarray:
        start = 1 if self.spec.include_constant else 0
        return psi_rows[:, start:]

    def predict(self, psi_rows: np.ndarray) -> np.ndarray:
        psi_rows = np.atleast_2d(np.asarray(psi_rows, dtype=float))
        c, blocks = _mlp_split(self.theta, self.n_hidden)
        return _mlp_output(c, _mlp_hidden(blocks, self._features(psi_rows).T))

    def _predict_psi(self, psi) -> float:
        b0, w_out, b_h, w_h = self.unpack()
        start = 1 if self.spec.include_constant else 0
        z = w_h @ psi[start:] + b_h
        return float(b0 + w_out @ np.tanh(z))

    @cached_property
    def _loops(self) -> "_Loops":
        return _mlp_loops(self.spec, self.n_hidden)


def _mlp_split(theta: np.ndarray, n_hidden: int):
    """Views of packed parameters: the output layer c = (b0, w_out) and the
    hidden layer's blocks, one row per node holding its bias then its
    weights."""
    return theta[: 1 + n_hidden], theta[1 + n_hidden :].reshape(n_hidden, -1)


def _mlp_hidden(blocks: np.ndarray, x_t: np.ndarray) -> np.ndarray:
    """The hidden layer's tanh activations, one row per node, for the
    hidden layer's ``blocks`` (see :func:`_mlp_split`) over the non-constant
    regressors ``x_t``, one row per feature and one column per sample."""
    hidden = blocks[:, 1:] @ x_t
    hidden += blocks[:, :1]
    return np.tanh(hidden, out=hidden)


def _mlp_output(c: np.ndarray, hidden: np.ndarray) -> np.ndarray:
    """The network's outputs from the output layer ``c`` = (b0, w_out) and
    the hidden activations."""
    out = c[1:] @ hidden
    out += c[0]
    return out


Model = Union[PolynomialModel, MlpModel]


@dataclass(frozen=True)
class FreeRunResult:
    """Free-run trajectory with divergence bookkeeping.

    ``y[:max_lag]`` holds the initial history; entries from ``diverged_at``
    onward are NaN when the run diverged.
    """

    y: np.ndarray
    diverged_at: int | None = None

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None


def free_run_on_dataset(model: Model, data: DynDataset) -> FreeRunResult:
    """Simulate the model on its own past predictions over a record.

    The run takes the record's inputs and its length, and is seeded with
    its first ``max_lag`` outputs; later outputs are not read.  A run whose
    prediction leaves ``[-DIVERGENCE_BOUND, DIVERGENCE_BOUND]`` or goes
    non-finite is flagged instead of raising, with NaN from that sample on.
    The loop runs the whole record and the first such sample is found
    afterwards: Python's float arithmetic and ``math.tanh`` overflow to inf
    and NaN without raising, so every value before it keeps its bits.
    """
    model.spec.check(data)
    k0 = model.spec.max_lag
    n = data.sample_count
    y = data.output[:k0].tolist()
    model._loops.free_run(model.theta.tolist(), y, n, *data.inputs)
    y = np.fromiter(y, float, n)
    outside = ~(np.abs(y[k0:]) <= DIVERGENCE_BOUND)  # also catches NaN
    first = int(outside.argmax())
    if not outside[first]:
        return FreeRunResult(y=y)
    y[k0 + first :] = np.nan
    return FreeRunResult(y=y, diverged_at=k0 + first)


class _Loops(NamedTuple):
    """A structure's loops from :func:`_generate_loops`; the GA baseline's have no free run."""

    free_run: Callable | None
    fixed_point: Callable


def _generate_loops(spec: RegressorSpec, head, body, slots, parts=None) -> _Loops:
    """The one generator of the loops that run a model through time.

    It writes Python source for two functions, a free run and a
    fixed-point run at constant input, the way :mod:`dataclasses` builds
    its methods, and compiles it once per structure:
    :func:`_polynomial_loops` and :func:`_mlp_loops` cache it per
    polynomial spec and term groups or MLP spec and node count, and every
    fit of that structure shares it.

    ``body`` holds the lines of one step: they read regressor slot ``pos``
    of psi(k-1) as the local ``x{pos}`` (only the ``slots`` given are
    gathered) and leave y(k) in ``acc``.  ``head`` holds the lines run on
    entry, which bind the names ``body`` reads from ``params``, the first
    argument of each loop, so a parameter is never written as text and
    rounded.  The step is one expression over plain Python floats, the sum
    of a polynomial's groups, ``acc = c0 * x_a + c1 + ...``, or of the MLP
    nodes, ``acc = bias + w0 * tanh(z0 + v0_0 * x_a + ...) + ...``, with
    any product or sum past ``_CHUNK`` (32) operands split into chunks of
    its own temporary (:func:`_fold`).

    ``parts`` maps a name to the lines that compute it from the input slots
    among ``slots`` alone, with ``+`` and ``*``: an MLP node's bias and
    input-lag terms, a polynomial's coefficient that reads an input.  The
    body reads a part by its name and no input slot, so the part leaves the
    loop.  The free run computes the parts over the record's input arrays
    one block of ``_BLOCK`` samples at a time, slot ``x{pos}`` being the
    slice ``u{ch}[start - lag : stop - lag]``, under ``np.errstate(over=
    "ignore", invalid="ignore")``, and iterates their ``.tolist()``: what it
    holds besides the trajectory is bounded by the block, not the record.
    The fixed point computes them once on entry.  Both run the same text,
    and numpy's elementwise ``+`` and ``*`` round as Python's float
    operations do, in any block, so a part holds the same bits in both.
    Only the GA baseline's loops (``RegressorSpec._legacy_loops``) read
    input slots without parts, and they have no free run (None).

    Each gathered output lag is held in its local from one step to the next
    and shifted at the end of the step: lag 1 takes the step's ``acc``, and
    a lag whose predecessor (lag - 1) is gathered takes that local.  Only a
    lag without a gathered predecessor is read from the outputs.  Neither
    the code nor the work of a step grows with the size of a lag.

    ``free_run(params, y, n, u0, u1, ...)`` steps k = max_lag, ..., n - 1
    over input arrays of ``n`` samples and appends y(k) to the list ``y``,
    which holds the first max_lag outputs.  In each block an output lag
    read from ``y`` is an ``islice`` of it, zipped with the others and the
    parts' lists (a lone source is looped over as it is, a ``range`` drives
    a loop without one); a list iterator reads its element when it
    advances, so each y(k - lag) is stored before it is read.  It tests no
    value: Python's float arithmetic and ``math.tanh`` overflow to inf and
    NaN without raising, and numpy's warnings are off for the parts, so the
    run goes on to the end of the record and :func:`free_run_on_dataset`
    finds where it diverged.

    ``fixed_point(params, u0, u1, ..., budget, settle, tolerance, bound)``
    runs ``for k in range(1, budget + 1)`` from zero outputs at constant
    inputs.  An output lag without a gathered predecessor is read from a
    ring of the last h outputs, h the largest such lag, at index ``(k -
    lag) % h``.  It stops when a value leaves ``[-bound, bound]`` or is
    NaN, after ``budget`` steps, or once ``settle`` successive differences
    fall inside ``(-tolerance, tolerance)`` (``settle`` is -1 under a fixed
    horizon, where every run that does not diverge converges), and returns
    ``(y_bar, iterations, converged)`` with the last value computed.

    ``_predict_psi`` computes a step's value too, but unpacks the
    parameters on every call: it is the GA baseline's deliberately
    unhoisted step, and the tests' scalar path.  A polynomial's loops
    return its bits, since it sums in their grouped order.  An MLP's do
    not: ``math.tanh`` and sums in the node order above round differently
    from numpy's ``np.tanh`` and ``@``, and one step of the two differs by
    at most 8 eps (|b0| + sum_i |w_out_i| (1 + |b_i| + sum_j |w_ij
    psi_j|)), eps being the float64 machine epsilon.
    """
    parts = parts or {}
    reads = {pos: (ch, lag) for pos, ch, lag in spec._gather}
    gathered = {reads[pos]: f"x{pos}" for pos in set(slots) if pos in reads}
    # with parts, the input slots are read by the parts alone
    hoisted = {key: name for key, name in gathered.items() if parts and key[0] >= 0}
    gathered = {key: name for key, name in gathered.items() if key not in hoisted}
    inputs = [f"u{ch}" for ch in range(spec.n_inputs)]
    m = spec.max_lag
    constant = [f"x{pos} = 1.0" for pos in sorted(set(slots) - reads.keys())]
    run_head, fixed_head, block = [*head, *constant], [*head, *constant], []
    if parts:
        block = ['with np.errstate(over="ignore", invalid="ignore"):',
                 *(f"    {name} = u{ch}[start - {lag}:stop - {lag}]"
                   for (ch, lag), name in sorted(hoisted.items())),
                 *(f"    {line}" for lines in parts.values() for line in lines)]
        fixed_head += [f"{name} = u{ch}" for (ch, _), name in sorted(hoisted.items())]
        fixed_head += [line for lines in parts.values() for line in lines]
    run_head.append("append = y.append")
    run_shifts, ring, fixed_shifts = [], [], []
    # within a source the higher lags shift first, so each takes the old value
    for (ch, lag), name in sorted(gathered.items(), key=lambda item: (item[0][0], -item[0][1])):
        if ch >= 0:  # inputs are constant in a fixed point
            fixed_head.append(f"{name} = u{ch}")
            continue
        before = gathered.get((ch, lag - 1), "acc" if lag == 1 else None)
        if before is None:
            ring.append((name, lag))
        else:
            run_head.append(f"{name} = y[{m - lag}]")
            run_shifts.append(f"{name} = {before}")
            fixed_head.append(f"{name} = 0.0")
            fixed_shifts.append(f"{name} = {before}")
    run_names = [*parts, *(name for name, _ in ring)]
    run_sources = [*(f"{name}.tolist()" for name in parts),
                   *(f"islice(y, start - {lag}, stop - {lag})" for _, lag in ring)]
    if len(run_sources) != 1:  # a lone source is looped over as it is
        run_sources = [f"zip({', '.join(run_sources)})" if run_sources else "range(stop - start)"]
    h = max((lag for _, lag in ring), default=0)
    if ring:
        fixed_head.append(f"y = [0.0] * {h}")
        fixed_shifts.append(f"y[k % {h}] = acc")
    lines = []
    if not any(ch >= 0 for ch, _ in gathered):  # no input is read per sample
        lines = [
            f"def free_run({', '.join(['params', 'y', 'n', *inputs])}):",
            *(f"    {line}" for line in run_head),
            f"    for start in range({m}, n, {_BLOCK}):",
            f"        stop = min(start + {_BLOCK}, n)",
            *(f"        {line}" for line in block),
            f"        for {', '.join(run_names) or '_'} in {run_sources[0]}:",
            *(f"            {line}" for line in body),
            "            append(acc)",
            *(f"            {line}" for line in run_shifts),
            "",
        ]
    lines += [
        f"def fixed_point({', '.join(['params', *inputs, 'budget', 'settle', 'tolerance', 'bound'])}):",
        *(f"    {line}" for line in fixed_head),
        "    prev = 0.0",
        "    settled = 0",
        "    for k in range(1, budget + 1):",
        *(f"        {name} = y[(k - {lag}) % {h}]" for name, lag in ring),
        *(f"        {line}" for line in body),
        "        if not (-bound <= acc <= bound):  # also catches NaN",
        "            return acc, k, False",
        "        settled = settled + 1 if -tolerance < acc - prev < tolerance else 0",
        "        if settled == settle:",
        "            return acc, k, True",
        *(f"        {line}" for line in fixed_shifts),
        "        prev = acc",
        "    return acc, budget, settle < 0",
    ]
    namespace = {"islice": islice, "math": math, "np": np}
    exec(compile("\n".join(lines), "<greybox loops>", "exec"), namespace)
    return _Loops(namespace.get("free_run"), namespace["fixed_point"])


@lru_cache(maxsize=64)
def _polynomial_loops(spec: RegressorSpec, groups) -> _Loops:
    """Loops over ``PolynomialModel._predict_psi``'s products and sums, in
    the order of its ``groups`` and over plain floats, so they return its
    bits.  A coefficient that reads an input is a part (see
    :func:`_generate_loops`), one that reads none is computed on entry; the
    constant slot is the literal 1.0.  Example1 steps ``acc = c0 * x2 + c1
    + c2 * x1`` over the parts ``c0 = t0 + t2 * x3``, ``c1 = t1 * x3`` and
    ``c2 = t3 * x3 + t4 * x4``."""
    inputs = {pos for pos, ch, _ in spec._gather if ch >= 0}
    head, parts, body, values, slots = [], {}, [], [], set()
    for g, (monomial, coefficient) in enumerate(groups):
        lines, products = [], []
        for j, factors in coefficient:
            spill, product = _fold(f"p{j}", "*", [f"t{j}", *(
                f"x{i}" if i in inputs else "1.0" for i in factors)])
            lines += spill
            products.append(product)
        spill, c = _fold(f"c{g}", "+", products)
        read = {i for _, factors in coefficient for i in factors if i in inputs}
        if len(coefficient) > 1 or coefficient[0][1]:  # more than a bare parameter
            lines += [*spill, f"c{g} = {c}"]
            c = f"c{g}"
            (parts.setdefault(c, []) if read else head).extend(lines)
        spill, value = _fold(f"g{g}", "*", [c, *(f"x{i}" for i in monomial)])
        body += spill
        values.append(value)
        slots |= read | set(monomial)
    spill, total = _fold("acc", "+", values or ["0.0"])
    body += [*spill, f"acc = {total}"]
    names = ", ".join(f"t{j}" for j in range(sum(len(c) for _, c in groups)))
    return _generate_loops(spec, [f"[{names}] = params", *head], body, slots, parts)


@lru_cache(maxsize=64)
def _mlp_loops(spec: RegressorSpec, n_hidden: int) -> _Loops:
    """Loops over b0 + sum_i w_out_i tanh(b_i + sum_j w_ij psi_j), summed
    left to right over plain floats with ``math.tanh``, the parameters
    named in :class:`MlpModel`'s packing order.  Each node sums its bias,
    then its input-lag terms, then its output-lag terms, each group in
    slot order; the bias and the input-lag terms are the node's part
    ``z{i}`` (see :func:`_generate_loops`) when the spec has an input
    slot.  They differ from ``_predict_psi`` by the rounding bound
    :func:`_generate_loops` gives."""
    start = 1 if spec.include_constant else 0
    outputs = [pos for pos, ch, _ in spec._gather if ch < 0]
    inputs = [pos for pos, ch, _ in spec._gather if ch >= 0]
    names = ["bias", *(f"w{i}" for i in range(n_hidden))]
    body, nodes, parts = [], ["bias"], {}
    for i in range(n_hidden):
        names += [f"b{i}", *(f"v{i}_{j}" for j in range(spec.n_features))]
        terms = [f"b{i}", *(f"v{i}_{pos - start} * x{pos}" for pos in inputs)]
        if inputs:
            lines, part = _fold(f"z{i}", "+", terms)
            parts[f"z{i}"] = [*lines, f"z{i} = {part}"]
            terms = [f"z{i}"]
        lines, inner = _fold(f"s{i}", "+", [*terms, *(f"v{i}_{pos - start} * x{pos}"
                                                      for pos in outputs)])
        body += lines
        nodes.append(f"w{i} * tanh({inner})")
    lines, total = _fold("acc", "+", nodes)
    body += [*lines, f"acc = {total}"]
    return _generate_loops(spec, ["tanh = math.tanh", f"[{', '.join(names)}] = params"],
                           body, range(start, len(spec)), parts)


def _fold(target: str, op: str, operands: list[str]) -> tuple[list[str], str]:
    """``(lines, expr)``: ``expr`` folds ``operands`` left to right with
    ``op``, once ``lines`` have folded all but the last chunk into
    ``target``.  No expression holds more than ``_CHUNK`` operands: a longer
    chain nests too deep for the compiler."""
    lines = []
    while len(operands) > _CHUNK:
        lines.append(f"{target} = {f' {op} '.join(operands[:_CHUNK])}")
        operands = [target, *operands[_CHUNK:]]
    return lines, f" {op} ".join(operands)


# ---------------------------------------------------------------------------
# serialization

def model_to_json(model: Model) -> dict:
    doc = {
        "packing_version": MODEL_PACKING_VERSION,
        "regressors": {
            "output_lags": list(model.spec.output_lags),
            "input_lags": [list(lags) for lags in model.spec.input_lags],
            "include_constant": model.spec.include_constant,
        },
        "theta": [float(v) for v in model.theta],
    }
    if isinstance(model, PolynomialModel):
        doc["kind"] = "polynomial"
        doc["terms"] = [list(t) for t in model.terms]
    else:
        doc["kind"] = "mlp"
        doc["n_hidden"] = model.n_hidden
    return doc


# the keys of a model document: these, and the kind's own shape key
_MODEL_KEYS = ("packing_version", "kind", "regressors", "theta")
_SHAPE_KEYS = {"polynomial": "terms", "mlp": "n_hidden"}
_REGRESSOR_KEYS = ("output_lags", "input_lags", "include_constant")


def model_from_json(doc: dict) -> Model:
    """The model a :func:`model_to_json` document describes.  Raises
    ConfigError for a bad document, also for a key it does not list."""
    try:
        version = doc["packing_version"]
        if type(version) is not int or version != MODEL_PACKING_VERSION:  # not true or 1.0
            raise ConfigError(
                f"unsupported packing version {version!r}: packing_version must be "
                f"the integer {MODEL_PACKING_VERSION}"
            )
        kind = doc["kind"]
        if not isinstance(kind, str) or kind not in _SHAPE_KEYS:
            raise ConfigError(f"unknown model kind {kind!r}")
        _check_keys(doc, (*_MODEL_KEYS, _SHAPE_KEYS[kind]), "model")
        reg = doc["regressors"]
        _check_keys(reg, _REGRESSOR_KEYS, "regressors")
        constant = reg.get("include_constant", True)
        if not isinstance(constant, bool):
            raise ValueError(f"include_constant must be true or false, got {constant!r}")
        spec = RegressorSpec(
            output_lags=tuple(reg["output_lags"]),
            input_lags=tuple(tuple(l) for l in reg["input_lags"]),
            include_constant=constant,
        )
        if not isinstance(doc["theta"], list):
            raise ValueError(f"theta must be a list of numbers, got {doc['theta']!r}")
        finite = sys.float_info.max
        theta = np.array(
            [_require_number(v, "theta entry", -finite, finite) for v in doc["theta"]]
        )
        if kind == "polynomial":
            terms = tuple(tuple(t) for t in doc["terms"])
            return PolynomialModel(spec=spec, terms=terms, theta=theta)
        return MlpModel(spec=spec, n_hidden=doc["n_hidden"], theta=theta)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad model description: {exc}") from exc


def save_model(path, model: Model) -> None:
    write_json(path, model_to_json(model))


def load_model(path) -> Model:
    return model_from_json(read_json(path))


# ---------------------------------------------------------------------------
# benchmark structures

EXAMPLE1_TRUE_THETA = np.array([0.75, 0.25, -0.2, 0.0, 0.0])


def example_structure(name: str) -> Model:
    """Model structure matched to a built-in benchmark system.

    ``example1``: five-term bilinear polynomial over psi = [1, y(k-1),
    y(k-2), u(k-1), u(k-2)]; the generating system corresponds to
    EXAMPLE1_TRUE_THETA (the last two terms are spurious).  ``example2``:
    single-hidden-node tanh network over the same lag window, 7 parameters.
    Both are returned with zeroed parameters.
    """
    spec = RegressorSpec(output_lags=(1, 2), input_lags=((1, 2),))
    if name == "example1":
        terms = ((2,), (3,), (2, 3), (1, 3), (1, 4))
        return PolynomialModel(spec=spec, terms=terms, theta=np.zeros(len(terms)))
    if name == "example2":
        return MlpModel(spec=spec, n_hidden=1, theta=np.zeros(7))
    raise ValueError(f"unknown structure {name!r}, expected 'example1' or 'example2'")
