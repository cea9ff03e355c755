"""NARX model structures: lag layouts, polynomial and MLP predictors, free-run.

A regressor vector at sample k is laid out as

    psi(k-1) = [1, y(k-1), ..., y(k-n_y), u1(k-1), ..., u1(k-n_u1), u2(...), ...]

with the leading constant slot optional.  Both model families consume this
layout: the polynomial model multiplies selected slots together per term,
the MLP feeds the non-constant slots through a tanh hidden layer.

Time stepping has one loop, :func:`_recurrence`, which gathers psi(k-1) from
Python-list buffers and calls a step function on it.  Each model builds its
step once (``_step``), with its parameters hoisted out of the loop, and
:func:`free_run` uses it.  ``_predict_psi`` computes the same value but
unpacks the parameters on every call; it is kept only as the deliberately
unhoisted step of the GA baseline's fixed-point cost (and for the tests that
check the scalar path against the batch one).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .data import DynDataset, SteadyDataset
from .errors import ConfigError, _require_count, _require_number

MODEL_PACKING_VERSION = 1


def _check_lags(lags, name: str) -> tuple[int, ...]:
    out = tuple(_require_count(lag, name, 1) for lag in lags)
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

    @property
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


def build_regression_matrix(spec: RegressorSpec, data: DynDataset):
    """One-step regressors and targets over every usable sample.

    Returns ``(psi, target)`` where row i of ``psi`` is psi(k-1) for
    k = max_lag + i and ``target[i] = y(k)``.  Raises ValueError if the
    dataset is too short to produce a single row or its channel count does
    not match the spec.
    """
    if data.n_inputs != spec.n_inputs:
        raise ValueError(
            f"spec expects {spec.n_inputs} input channels, dataset has {data.n_inputs}"
        )
    k0 = spec.max_lag
    n = data.sample_count
    rows = n - k0
    if rows < 1:
        raise ValueError(f"dataset too short: {n} samples for max lag {k0}")
    psi = np.empty((rows, len(spec)))
    if spec.include_constant:
        psi[:, 0] = 1.0
    y = data.output
    for pos, ch, lag in spec._gather:
        src = y if ch < 0 else data.inputs[ch]
        psi[:, pos] = src[k0 - lag : n - lag]
    return psi, y[k0:].copy()


def _check_data_fits(spec: RegressorSpec, datasets: dict) -> None:
    """Raise ConfigError naming the first dataset in ``datasets`` (name to
    dataset, None skipped) whose channel count differs from the spec's, or
    dynamical record no longer than the largest lag."""
    for name, data in datasets.items():
        if data is None:
            continue
        if data.n_inputs != spec.n_inputs:
            raise ConfigError(
                f"dataset {name!r} has {data.n_inputs} input channels, "
                f"the structure expects {spec.n_inputs}"
            )
        if isinstance(data, DynDataset) and data.sample_count <= spec.max_lag:
            raise ConfigError(
                f"dataset {name!r} is too short: {data.sample_count} samples "
                f"for max lag {spec.max_lag}"
            )


def build_static_regressors(spec: RegressorSpec, zs: SteadyDataset) -> np.ndarray:
    """Static pseudo-regressors, one row per steady-state pair.

    At a fixed point every lagged output equals y_bar and every lagged input
    equals the pair's u_bar, so the row is the regressor vector with all
    output slots set to y_bar_j and all channel slots set to u_bar_j.
    """
    if zs.n_inputs != spec.n_inputs:
        raise ValueError(
            f"spec expects {spec.n_inputs} input channels, dataset has {zs.n_inputs}"
        )
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
        """Expand regressor rows into per-term product columns."""
        psi_rows = np.atleast_2d(np.asarray(psi_rows, dtype=float))
        cols = np.empty((psi_rows.shape[0], len(self.terms)))
        for j, term in enumerate(self.terms):
            if term:
                cols[:, j] = np.multiply.reduce(psi_rows[:, term], axis=1)
            else:
                cols[:, j] = 1.0
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

    def _step(self):
        """``_predict_psi`` over plain floats, in the same product and sum
        order, so it returns the same bits."""
        pairs = tuple(zip(self.theta.tolist(), self.terms))

        def step(psi) -> float:
            acc = 0.0
            for p, term in pairs:
                for i in term:
                    p *= psi[i]
                acc += p
            return acc

        return step


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
        return _mlp_forward(self.theta, self.n_hidden, self._features(psi_rows))[0]

    def _predict_psi(self, psi) -> float:
        b0, w_out, b_h, w_h = self.unpack()
        start = 1 if self.spec.include_constant else 0
        z = w_h @ psi[start:] + b_h
        return float(b0 + w_out @ np.tanh(z))

    def _step(self):
        """``_predict_psi`` with the unpacking done once; the numpy operations
        are the same, so it returns the same bits."""
        b0, w_out, b_h, w_h = self.unpack()
        start = 1 if self.spec.include_constant else 0

        def step(psi) -> float:
            z = w_h @ psi[start:] + b_h
            return float(b0 + w_out @ np.tanh(z))

        return step


def _mlp_unpack(theta: np.ndarray, n_hidden: int, n_features: int):
    blocks = theta[1 + n_hidden :].reshape(n_hidden, 1 + n_features)
    return theta[0], theta[1 : 1 + n_hidden], blocks[:, 0], blocks[:, 1:]


def _mlp_forward(theta: np.ndarray, n_hidden: int, features: np.ndarray):
    """MLP outputs for packed parameters over rows of non-constant regressors,
    and the hidden layer's tanh activations, one column per node."""
    b0, w_out, b_h, w_h = _mlp_unpack(theta, n_hidden, features.shape[1])
    hidden = np.tanh(features @ w_h.T + b_h)
    return b0 + hidden @ w_out, hidden


Model = Union[PolynomialModel, MlpModel]


@dataclass(frozen=True)
class FreeRunResult:
    """Free-run trajectory with divergence bookkeeping.

    ``y[:max_lag]`` holds the initial history; entries from the divergence
    point onward are NaN when ``diverged`` is set.
    """

    y: np.ndarray
    diverged: bool
    diverged_at: int | None = None


def free_run(
    model: Model,
    inputs: Sequence[Sequence[float]],
    init: Sequence[float] | None = None,
    bound: float = 1e6,
) -> FreeRunResult:
    """Simulate the model on its own past predictions.

    ``inputs`` is one sequence per input channel.  ``init`` seeds the first
    ``max_lag`` outputs (right-aligned, zero-padded; defaults to zeros).
    The run stops early when a prediction leaves ``[-bound, bound]`` or goes
    non-finite, and the result is flagged instead of raising.
    """
    spec = model.spec
    channels = [np.asarray(u, dtype=float) for u in inputs]
    if len(channels) != spec.n_inputs:
        raise ValueError(f"spec expects {spec.n_inputs} input channels, got {len(channels)}")
    if channels:
        n = channels[0].size
        if any(c.size != n for c in channels):
            raise ValueError("input channels must share one length")
    else:
        raise ValueError("free run needs at least one input channel for its length")
    k0 = spec.max_lag
    if n <= k0:
        raise ValueError(f"need more than {k0} samples, got {n}")
    y = [0.0] * n
    if init is not None:
        head = np.asarray(init, dtype=float).reshape(-1)
        if head.size > k0:
            raise ValueError(f"init has {head.size} values, max lag is {k0}")
        if head.size:
            y[k0 - head.size : k0] = head.tolist()
    for k, value in _recurrence(spec, model._step(), y, [c.tolist() for c in channels], k0):
        if not (-bound <= value <= bound):  # also catches NaN
            y[k:] = [math.nan] * (n - k)
            return FreeRunResult(y=np.array(y), diverged=True, diverged_at=k)
        y[k] = value
    return FreeRunResult(y=np.array(y), diverged=False)


def _recurrence(spec: RegressorSpec, step, y: list, channels: list, start: int):
    """The one loop that runs a model through time, for free runs and fixed points.

    Yields ``(k, step(psi(k-1)))`` for k = start, ..., len(y) - 1, gathering
    psi(k-1) from the output buffer ``y`` and the input ``channels``, all
    Python lists, into a list whose constant slot stays 1.0.  The caller
    stores y(k) in place before asking for the next step, or stops early.
    """
    psi = [1.0] * len(spec)  # every slot but the constant one is gathered
    gather = [(pos, y if ch < 0 else channels[ch], lag) for pos, ch, lag in spec._gather]
    for k in range(start, len(y)):
        for pos, src, lag in gather:
            psi[pos] = src[k - lag]
        yield k, step(psi)


def free_run_on_dataset(model: Model, data: DynDataset, bound: float = 1e6) -> FreeRunResult:
    """Free-run over a dataset's inputs, seeded with its measured outputs."""
    k0 = model.spec.max_lag
    init = data.output[:k0] if k0 else None
    return free_run(model, data.inputs, init=init, bound=bound)


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


def model_from_json(doc: dict) -> Model:
    try:
        version = doc["packing_version"]
        if type(version) is not int or version != MODEL_PACKING_VERSION:  # not true or 1.0
            raise ConfigError(
                f"unsupported packing version {version!r}: packing_version must be "
                f"the integer {MODEL_PACKING_VERSION}"
            )
        reg = doc["regressors"]
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
        kind = doc["kind"]
        if kind == "polynomial":
            terms = tuple(tuple(t) for t in doc["terms"])
            return PolynomialModel(spec=spec, terms=terms, theta=theta)
        if kind == "mlp":
            return MlpModel(spec=spec, n_hidden=doc["n_hidden"], theta=theta)
        raise ConfigError(f"unknown model kind {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad model description: {exc}") from exc


def save_model(path, model: Model) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_json(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> Model:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # also undecodable bytes and over-long integers
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    return model_from_json(doc)


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
