"""NARX model structures: lag layouts, polynomial and MLP predictors, free runs.

A regressor vector at sample k is laid out as

    psi(k-1) = [1, y(k-1), ..., y(k-n_y), u1(k-1), ..., u1(k-n_u1), u2(...), ...]

with the leading constant slot optional.  Both model families consume this
layout: the polynomial model multiplies selected slots together per term,
the MLP feeds the non-constant slots through a tanh hidden layer.

Time stepping has one generator, :func:`_generate_loops`.  From the lines
of one step it writes the source of two functions, a free run and a
fixed-point run at constant input, and compiles it.  Each loop gathers the
lagged samples by zipping an ``islice`` of each list, offset by its lag.
Each model generates its loops once (``_loops``), from a step over plain
Python floats that is one expression, a sum of the polynomial terms,
``acc = 0.0 + t_0 * x_a * x_b + ...``, or of the MLP nodes,
``acc = bias + w_0 * tanh(b_0 + v_0_0 * x_a + ...) + ...``, with any
product or sum past 32 operands split into chunks of its own temporary.
The free run checks no bound per sample: :func:`free_run_on_dataset`
finds where the run left it afterwards.  The model's parameters are bound
as locals on entry from one tuple, never written as text, so no value is
rounded and every fit of one structure shares the compiled code.
:func:`free_run_on_dataset`, the one free run, and
:func:`~greybox.steady_state.model_static_curve`, the one run to fixed
points, call them.  ``_predict_psi`` computes the same value but unpacks
the parameters on every call; it is kept only as the deliberately
unhoisted step of the GA baseline's fixed-point cost, which runs the loops
the same generator emits for the spec with ``step(psi)`` as the body
(``RegressorSpec._legacy_loops``), and for the tests that check the scalar
path against the batch one.  The polynomial loops return the same bits as
``_predict_psi``.  The MLP loops do not: ``math.tanh`` and left-to-right
sums round differently from numpy's ``np.tanh`` and ``@``, and one step of
the two differs by at most
8 eps (|b0| + sum_i |w_out_i| (1 + |b_i| + sum_j |w_ij psi_j|)), eps being
the float64 machine epsilon.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from typing import Callable, NamedTuple, Union

import numpy as np

from .data import DynDataset, SteadyDataset, read_json, write_json
from .errors import _MAX_HELD_COUNT, ConfigError, _check_keys, _require_count, _require_number

MODEL_PACKING_VERSION = 1

_WINDOW = 1024  # fixed-point samples held at once, whatever the step budget
_CHUNK = 32  # operands in one generated sum or product


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
        """Loops that gather psi(k-1) into a fresh list at every sample and
        call ``step(psi)``, their last argument, on it: the GA baseline's
        per-call step, shared by every model over this spec."""
        psi = ", ".join(f"x{pos}" for pos in range(len(self)))
        return _generate_loops(self, [f"psi = [{psi}]", "acc = step(psi)"], {},
                               range(len(self)), extra="step")

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


@dataclass(frozen=True)
class PolynomialModel:
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
        theta = np.asarray(self.theta, dtype=float).reshape(-1).copy()
        if theta.size != len(canon):
            raise ValueError(f"{len(canon)} terms but {theta.size} parameters")
        object.__setattr__(self, "terms", canon)
        object.__setattr__(self, "theta", theta)

    @property
    def n_params(self) -> int:
        return self.theta.size

    def with_theta(self, theta) -> "PolynomialModel":
        return PolynomialModel(spec=self.spec, terms=self.terms, theta=theta)

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
        acc = 0.0
        for weight, term in zip(self.theta, self.terms):
            p = weight
            for i in term:
                p *= psi[i]
            acc += p
        return float(acc)

    @cached_property
    def _loops(self) -> "_Loops":
        """Free run and fixed point over ``_predict_psi``'s products and sum,
        in its order and over plain floats, so they return its bits."""
        params, body, products = {}, [], ["0.0"]
        for j, (weight, term) in enumerate(zip(self.theta.tolist(), self.terms)):
            params[f"t{j}"] = weight
            lines, product = _fold(f"p{j}", "*", [f"t{j}", *(f"x{i}" for i in term)])
            body += lines
            products.append(product)
        lines, total = _fold("acc", "+", products)
        body += [*lines, f"acc = {total}"]
        return _generate_loops(self.spec, body, params, {i for t in self.terms for i in t})


@dataclass(frozen=True)
class MlpModel:
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
        object.__setattr__(self, "n_hidden", _require_count(self.n_hidden, "n_hidden", 1))
        theta = np.asarray(self.theta, dtype=float).reshape(-1).copy()
        expected = self.n_params_for(self.spec, self.n_hidden)
        if theta.size != expected:
            raise ValueError(
                f"packing needs {expected} parameters for {self.n_hidden} hidden "
                f"nodes over {self.spec.n_features} regressors, got {theta.size}"
            )
        object.__setattr__(self, "theta", theta)

    @staticmethod
    def n_params_for(spec: RegressorSpec, n_hidden: int) -> int:
        return 1 + n_hidden + n_hidden * (1 + spec.n_features)

    @property
    def n_params(self) -> int:
        return self.theta.size

    def with_theta(self, theta) -> "MlpModel":
        return MlpModel(spec=self.spec, n_hidden=self.n_hidden, theta=theta)

    def unpack(self):
        """Views (output_bias, output_weights, hidden_bias, hidden_weights)."""
        return _mlp_unpack(self.theta, self.n_hidden, self.spec.n_features)

    def _features(self, psi_rows: np.ndarray) -> np.ndarray:
        start = 1 if self.spec.include_constant else 0
        return psi_rows[:, start:]

    def predict(self, psi_rows: np.ndarray) -> np.ndarray:
        psi_rows = np.atleast_2d(np.asarray(psi_rows, dtype=float))
        hidden = _mlp_hidden(self.theta, self.n_hidden, self._features(psi_rows).T)
        return _mlp_output(self.theta, self.n_hidden, hidden)

    def _predict_psi(self, psi) -> float:
        b0, w_out, b_h, w_h = self.unpack()
        start = 1 if self.spec.include_constant else 0
        z = w_h @ psi[start:] + b_h
        return float(b0 + w_out @ np.tanh(z))

    @cached_property
    def _loops(self) -> "_Loops":
        """Free run and fixed point over
        b0 + sum_i w_out_i tanh(b_i + sum_j w_ij psi_j), summed left to right
        over plain floats, with ``math.tanh``.

        They do not return the same bits as ``_predict_psi``, whose ``@`` and
        ``np.tanh`` round differently; one step of the two differs by at most
        8 eps (|b0| + sum_i |w_out_i| (1 + |b_i| + sum_j |w_ij psi_j|)).
        """
        b0, w_out, b_h, w_h = self.unpack()
        start = 1 if self.spec.include_constant else 0
        params = {"tanh": math.tanh, "bias": float(b0)}
        body, nodes = [], ["bias"]
        for i, (w, b, weights) in enumerate(zip(w_out.tolist(), b_h.tolist(), w_h.tolist())):
            params[f"w{i}"], params[f"b{i}"] = w, b
            terms = [f"b{i}"]
            for j, v in enumerate(weights):
                params[f"v{i}_{j}"] = v
                terms.append(f"v{i}_{j} * x{start + j}")
            lines, inner = _fold(f"z{i}", "+", terms)
            body += lines
            nodes.append(f"w{i} * tanh({inner})")
        lines, total = _fold("acc", "+", nodes)
        body += [*lines, f"acc = {total}"]
        return _generate_loops(self.spec, body, params, range(start, len(self.spec)))


def _mlp_unpack(theta: np.ndarray, n_hidden: int, n_features: int):
    blocks = theta[1 + n_hidden :].reshape(n_hidden, 1 + n_features)
    return theta[0], theta[1 : 1 + n_hidden], blocks[:, 0], blocks[:, 1:]


def _mlp_hidden(theta: np.ndarray, n_hidden: int, x_t: np.ndarray) -> np.ndarray:
    """The hidden layer's tanh activations, one row per node, for packed
    parameters over the non-constant regressors ``x_t``, one row per feature
    and one column per sample; the output layer's values are not read."""
    _, _, b_h, w_h = _mlp_unpack(theta, n_hidden, x_t.shape[0])
    hidden = w_h @ x_t
    hidden += b_h[:, None]
    return np.tanh(hidden, out=hidden)


def _mlp_output(theta: np.ndarray, n_hidden: int, hidden: np.ndarray) -> np.ndarray:
    """The network's outputs from its hidden activations."""
    out = theta[1 : 1 + n_hidden] @ hidden
    out += theta[0]
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


def free_run_on_dataset(model: Model, data: DynDataset, bound: float = 1e6) -> FreeRunResult:
    """Simulate the model on its own past predictions over a record.

    The run takes the record's inputs and its length, and is seeded with
    its first ``max_lag`` outputs; later outputs are not read.  A run whose
    prediction leaves ``[-bound, bound]`` or goes non-finite is flagged
    instead of raising, with NaN from that sample on.  The loop runs the
    whole record and the first such sample is found afterwards: Python's
    float arithmetic and ``math.tanh`` overflow to inf and NaN without
    raising, so every value before it keeps its bits.
    """
    model.spec.check(data)
    k0 = model.spec.max_lag
    n = data.sample_count
    y = data.output[:k0].tolist() + [0.0] * (n - k0)
    model._loops.free_run(y, *(c.tolist() for c in data.inputs))
    y = np.array(y)
    outside = ~(np.abs(y[k0:]) <= bound)  # also catches NaN
    first = int(outside.argmax())
    if not outside[first]:
        return FreeRunResult(y=y)
    y[k0 + first :] = np.nan
    return FreeRunResult(y=y, diverged_at=k0 + first)


class _Loops(NamedTuple):
    """A model's time-stepping loops, generated by :func:`_generate_loops`."""

    free_run: Callable
    fixed_point: Callable


def _generate_loops(spec: RegressorSpec, body, params: dict, slots, extra: str = "") -> _Loops:
    """The one generator of the loops that run a model through time.

    ``body`` holds the lines of one step: they read regressor slot ``pos``
    of psi(k-1) as the local ``x{pos}`` (only the ``slots`` given are
    gathered) and leave y(k) in ``acc``.  ``params`` maps names to values
    that each function binds as locals on entry, from one tuple in its
    globals, so parameters enter as names and never as text; the only text
    that varies is the body and the spec's validated lags.  ``extra`` names
    one more trailing argument, passed through to the body.

    The samples are gathered by one ``zip`` over ``range`` and an
    ``islice`` per lagged slot.  A list iterator reads its element when it
    advances, so the output's slices see each y(k - 1) stored the step
    before.

    ``free_run(y, u0, u1, ...)`` steps k = max_lag, ..., len(y) - 1 over
    the output list ``y`` and the input lists, storing y(k) in place, and
    tests no value: :func:`free_run_on_dataset` finds where a run diverged.

    ``fixed_point(u0, u1, ..., budget, settle, tolerance, bound)`` runs from
    zero outputs at constant inputs, holding at most ``_WINDOW`` samples
    after the max(1, max_lag) initial ones and shifting the lagged outputs
    back when the window is full.  Each pass over the window is cut to the
    budget left, so the step count is read off ``k`` and not kept per step.
    It stops when a value leaves ``[-bound, bound]`` or is NaN, after
    ``budget`` steps, or once ``settle`` successive differences fall inside
    ``(-tolerance, tolerance)`` (``settle`` is -1 under a fixed horizon,
    where every run that does not diverge converges), and returns
    ``(y_bar, iterations, converged)`` with the last value computed;
    :func:`~greybox.steady_state.model_static_curve` calls it once per
    input level.
    """
    reads = {pos: (ch, lag) for pos, ch, lag in spec._gather}
    inputs = [f"u{ch}" for ch in range(spec.n_inputs)]
    k0 = max(1, spec.max_lag)
    bind = [f"({', '.join(params)},) = _params"] if params else []
    run_head, fixed_head = list(bind), list(bind)
    run_names, fixed_names = ["k"], ["k"]
    run_sources = [f"range({spec.max_lag}, len(y))"]
    fixed_sources = [f"range({k0}, min(n, {k0} + budget - done))"]
    for pos in sorted(set(slots)):
        if pos not in reads:  # the constant slot
            run_head.append(f"x{pos} = 1.0")
            fixed_head.append(f"x{pos} = 1.0")
            continue
        ch, lag = reads[pos]
        run_names.append(f"x{pos}")
        if ch < 0:
            run_sources.append(f"islice(y, {spec.max_lag - lag}, None)")
            fixed_names.append(f"x{pos}")
            fixed_sources.append(f"islice(y, {k0 - lag}, None)")
        else:  # inputs are constant in a fixed point
            run_sources.append(f"islice(u{ch}, {spec.max_lag - lag}, None)")
            fixed_head.append(f"x{pos} = u{ch}")
    tail = [extra] if extra else []
    # the trailing comma keeps k an int when no slot is gathered
    lines = [
        f"def free_run({', '.join(['y', *inputs, *tail])}):",
        *(f"    {line}" for line in run_head),
        f"    for {', '.join(run_names)}, in zip({', '.join(run_sources)}):",
        *(f"        {line}" for line in body),
        "        y[k] = acc",
        "",
        f"def fixed_point({', '.join([*inputs, 'budget', 'settle', 'tolerance', 'bound', *tail])}):",
        *(f"    {line}" for line in fixed_head),
        f"    y = [0.0] * ({k0} + min(budget, {_WINDOW}))",
        "    n = len(y)",
        "    prev = 0.0",
        "    settled = done = 0",
        "    while True:",
        f"        for {', '.join(fixed_names)}, in zip({', '.join(fixed_sources)}):",
        *(f"            {line}" for line in body),
        "            if not (-bound <= acc <= bound):  # also catches NaN",
        f"                return acc, done + k - {k0 - 1}, False",
        "            settled = settled + 1 if -tolerance < acc - prev < tolerance else 0",
        "            y[k] = prev = acc",
        "            if settled == settle:",
        f"                return acc, done + k - {k0 - 1}, True",
        f"        done += k - {k0 - 1}",
        "        if done == budget:",
        "            return acc, done, settle < 0",
        "        # the window is full: keep the lagged outputs and run on",
        f"        y[:{k0}] = y[-{k0}:]",
    ]
    namespace = {"_params": tuple(params.values()), "islice": islice}
    exec(_compile_loops("\n".join(lines)), namespace)
    return _Loops(namespace["free_run"], namespace["fixed_point"])


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


@lru_cache(maxsize=64)
def _compile_loops(source: str):
    # the text holds no parameter, so every fit of one structure shares it
    return compile(source, "<greybox loops>", "exec")


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
