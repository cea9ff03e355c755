"""Regressor layout, model prediction, free-run simulation, persistence."""

import csv
import hashlib
import itertools
import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import greybox as gb
from greybox.cli import main
from greybox.data import EXAMPLE1, simulate_system
from greybox.models import _BLOCK, DIVERGENCE_BOUND, EXAMPLE1_TRUE_THETA
from greybox.sweep import abs_error_correlation, rmse


class TestRegressorSpec:
    def test_layout_counts(self):
        spec = gb.RegressorSpec(output_lags=(1, 2), input_lags=((1, 2), (3,)))
        assert spec.n_features == 5
        assert len(spec) == 6  # constant slot included
        assert spec.max_lag == 3

    def test_no_constant(self):
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=(), include_constant=False)
        assert len(spec) == 1

    @pytest.mark.parametrize(
        "output_lags", [(2, 1), (1, 1), (0,), (-1,)]
    )
    def test_bad_output_lags(self, output_lags):
        with pytest.raises(ValueError):
            gb.RegressorSpec(output_lags=output_lags, input_lags=())

    def test_bad_input_lags(self):
        with pytest.raises(ValueError):
            gb.RegressorSpec(output_lags=(1,), input_lags=((2, 1),))


class TestRegressionMatrix:
    def test_hand_layout(self):
        # psi(k) = [1, y(k-1), y(k-2), u(k-1), u(k-2)], rows for k = 2..4
        spec = gb.RegressorSpec(output_lags=(1, 2), input_lags=((1, 2),))
        data = gb.DynDataset(
            inputs=(np.array([10.0, 20.0, 30.0, 40.0, 50.0]),),
            output=np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        )
        psi, target = gb.build_regression_matrix(spec, data)
        assert psi.shape == (3, 5)
        assert np.array_equal(psi[0], [1.0, 2.0, 1.0, 20.0, 10.0])
        assert np.array_equal(psi[1], [1.0, 3.0, 2.0, 30.0, 20.0])
        assert np.array_equal(psi[2], [1.0, 4.0, 3.0, 40.0, 30.0])
        assert np.array_equal(target, [3.0, 4.0, 5.0])

    def test_channel_count_must_match(self):
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1,), (1,)))
        data = gb.DynDataset(inputs=(np.zeros(5),), output=np.zeros(5))
        zs = gb.SteadyDataset(u_bar=np.zeros((2, 1)), y_bar=np.zeros(2))
        model = gb.PolynomialModel(spec, ((1,),), np.array([0.5]))
        expects = "has 1 input channels, the structure expects 2"
        with pytest.raises(ValueError, match=expects):
            gb.build_regression_matrix(spec, data)
        with pytest.raises(ValueError, match=expects):
            gb.build_static_regressors(spec, zs)
        with pytest.raises(ValueError, match=expects):
            gb.free_run_on_dataset(model, data)

    def test_static_substitution(self):
        # every output slot takes y_bar, every input slot its channel's u_bar
        spec = gb.RegressorSpec(output_lags=(1, 2), input_lags=((1, 2),))
        zs = gb.SteadyDataset(u_bar=np.array([[2.0]]), y_bar=np.array([5.0]))
        rows = gb.build_static_regressors(spec, zs)
        assert np.array_equal(rows, [[1.0, 5.0, 5.0, 2.0, 2.0]])

    def test_static_substitution_two_channels(self):
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1,), (1, 2)))
        zs = gb.SteadyDataset(u_bar=np.array([[2.0, -3.0]]), y_bar=np.array([5.0]))
        rows = gb.build_static_regressors(spec, zs)
        assert np.array_equal(rows, [[1.0, 5.0, 2.0, -3.0, -3.0]])


class TestPolynomialModel:
    def test_hand_prediction(self):
        # 0.75*y2 + 0.25*u1 - 0.2*y2*u1 at y2=0.4, u1=1.0 gives 0.47
        spec = gb.RegressorSpec(output_lags=(1, 2), input_lags=((1, 2),))
        model = gb.PolynomialModel(
            spec, ((2,), (3,), (2, 3)), np.array([0.75, 0.25, -0.2])
        )
        psi = np.array([[1.0, 0.5, 0.4, 1.0, 2.0]])
        assert model.predict(psi)[0] == pytest.approx(0.47, abs=1e-12)

    def test_constant_term_uses_slot_zero(self):
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1,),))
        model = gb.PolynomialModel(spec, ((0,),), np.array([3.5]))
        psi = np.array([[1.0, 9.0, -4.0]])
        assert model.predict(psi)[0] == 3.5

    def test_terms_canonicalized(self):
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1,),))
        model = gb.PolynomialModel(spec, ((2, 1),), np.array([1.0]))
        assert model.terms == ((1, 2),)

    def test_duplicate_terms_rejected(self):
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1,),))
        with pytest.raises(ValueError):
            gb.PolynomialModel(spec, ((1, 2), (2, 1)), np.array([1.0, 2.0]))

    def test_term_index_out_of_range(self):
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1,),))
        with pytest.raises(ValueError):
            gb.PolynomialModel(spec, ((5,),), np.array([1.0]))

    def test_with_theta_reuses_the_checked_terms(self):
        # with_theta copies the model with the new theta: the spec, the
        # canonical terms and the resolved loops carry over, not checked
        # again, and only theta's length is; terms equal to canonical ones
        # but of other types still raise, every time, and a smaller spec
        # still refuses an index
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1,),))
        model = gb.PolynomialModel(spec, ((2, 1), (1,)), np.array([0.5, 0.25]))
        mlp = gb.MlpModel(spec, 2, np.arange(9.0))
        for built in (model, mlp):
            built._loops
            theta = np.arange(built.n_params) - 0.5
            again = built.with_theta(theta.tolist())
            assert type(again) is type(built) and again.spec is built.spec
            assert vars(again)["_loops"] is vars(built)["_loops"]
            assert again.theta.tolist() == theta.tolist() and again.theta is not built.theta
            for size in (built.n_params - 1, built.n_params + 1):
                with pytest.raises(ValueError, match=f"takes {built.n_params} parameters"):
                    built.with_theta(np.zeros(size))
        assert mlp.with_theta(np.zeros((3, 3))).n_hidden == 2
        again = model.with_theta([0.75, -0.5])
        assert again.terms is model.terms and again.theta.tolist() == [0.75, -0.5]
        assert model.theta.tolist() == [0.5, 0.25]
        for bad in (((1.0, 2), (1,)), ((1, 2), (True,))):
            for _ in range(2):
                with pytest.raises(ValueError, match="term index"):
                    gb.PolynomialModel(spec, bad, np.array([1.0, 2.0]))
        small = gb.RegressorSpec(output_lags=(1,), input_lags=())
        with pytest.raises(ValueError, match="term index"):
            gb.PolynomialModel(small, model.terms, np.array([1.0, 2.0]))

    def test_theta_length_must_match_terms(self):
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1,),))
        with pytest.raises(ValueError):
            gb.PolynomialModel(spec, ((1,), (2,)), np.array([1.0]))

    def test_design_matrix_columns_are_term_products(self):
        spec = gb.RegressorSpec(output_lags=(1, 2), input_lags=((1,),))
        model = gb.PolynomialModel(spec, ((1,), (1, 2), (3, 3)), np.ones(3))
        psi = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 5.0, 6.0, 7.0]])
        design = model.design_matrix(psi)
        assert np.array_equal(design[:, 0], [2.0, 5.0])
        assert np.array_equal(design[:, 1], [6.0, 30.0])
        assert np.array_equal(design[:, 2], [16.0, 49.0])

    @given(
        terms=st.lists(
            st.lists(st.integers(0, 4), max_size=4).map(tuple), min_size=1, max_size=6
        ),
        psi=st.lists(
            st.lists(
                st.one_of(
                    st.floats(-3.0, 3.0),
                    st.sampled_from([1e200, -1e200, 1e-300, -0.0, math.inf, -math.inf]),
                    st.just(math.nan),
                ),
                min_size=5,
                max_size=5,
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_design_matrix_is_bitwise_the_reduced_products(self, terms, psi):
        # terms repeat slots; huge, infinite and NaN entries overflow, make
        # inf * 0 and carry NaN.  Every NaN compares as one value: numpy's
        # own multiply sets a NaN's sign by its SIMD path, so it can differ
        # between a strided column and the reduction's contiguous copy
        spec = gb.RegressorSpec(output_lags=(1, 2), input_lags=((1, 2),))
        terms = list(dict.fromkeys(tuple(sorted(t)) for t in terms))
        model = gb.PolynomialModel(spec, terms, np.ones(len(terms)))
        psi = np.array(psi)
        with np.errstate(all="ignore"):
            design = model.design_matrix(psi)
            for j, term in enumerate(model.terms):
                got, want = (
                    np.where(np.isnan(v), np.nan, v).tobytes()
                    for v in (design[:, j], np.multiply.reduce(psi[:, term], axis=1))
                )
                assert got == want, term

    def test_scalar_and_matrix_paths_agree(self):
        spec = gb.RegressorSpec(output_lags=(1, 2), input_lags=((1, 2),))
        rng = np.random.default_rng(5)
        model = gb.PolynomialModel(
            spec, ((1,), (2,), (1, 3), (4, 4)), rng.standard_normal(4)
        )
        psi = rng.standard_normal((20, 5))
        batch = model.predict(psi)
        single = [model._predict_psi(row) for row in psi]
        assert np.allclose(batch, single, atol=1e-14)


class TestMlpModel:
    def test_hand_prediction(self):
        # theta packs [output bias, output weights, then per node bias+weights]
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1,),))
        theta = np.array([0.1, 2.0, 0.3, 0.5, -0.25])
        model = gb.MlpModel(spec, 1, theta)
        got = model.predict(np.array([[1.0, 0.2, 0.4]]))[0]
        want = 0.1 + 2.0 * math.tanh(0.3 + 0.5 * 0.2 - 0.25 * 0.4)
        assert got == pytest.approx(want, abs=1e-15)

    def test_unpack_views(self):
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1,),))
        theta = np.array([0.1, 2.0, 0.3, 0.5, -0.25])
        model = gb.MlpModel(spec, 1, theta)
        b0, w_out, b_h, w_h = model.unpack()
        assert b0 == 0.1
        assert np.array_equal(w_out, [2.0])
        assert np.array_equal(b_h, [0.3])
        assert np.array_equal(w_h, [[0.5, -0.25]])

    def test_parameter_count_validation(self):
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1,),))
        with pytest.raises(ValueError):
            gb.MlpModel(spec, 2, np.zeros(4))

    def test_constant_slot_ignored(self):
        # hidden layer sees only the lagged signals, never the constant 1
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1,),))
        theta = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
        model = gb.MlpModel(spec, 1, theta)
        a = model.predict(np.array([[1.0, 0.7, 0.0]]))[0]
        b = model.predict(np.array([[99.0, 0.7, 0.0]]))[0]
        assert a == b == pytest.approx(math.tanh(0.7), abs=1e-15)

    def test_scalar_and_matrix_paths_agree(self):
        spec = gb.RegressorSpec(output_lags=(1, 2), input_lags=((1, 2),))
        rng = np.random.default_rng(6)
        model = gb.MlpModel(spec, 3, rng.standard_normal(1 + 3 + 3 * 5))
        psi = rng.standard_normal((15, 5))
        batch = model.predict(psi)
        single = [model._predict_psi(row) for row in psi]
        assert np.allclose(batch, single, atol=1e-14)

    @given(
        theta=st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=5,
            max_size=5,
        ),
        y1=st.floats(min_value=-1e6, max_value=1e6),
        u1=st.floats(min_value=-1e6, max_value=1e6),
    )
    def test_output_bounded_by_weights(self, theta, y1, u1):
        # tanh saturates, so |prediction| <= |bias| + sum|output weights|
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1,),))
        model = gb.MlpModel(spec, 1, np.array(theta))
        value = model.predict(np.array([[1.0, y1, u1]]))[0]
        assert abs(value) <= abs(theta[0]) + abs(theta[1]) + 1e-12


# any finite float, drawn moderate half the time so that many runs stay bounded
finite = st.one_of(
    st.floats(min_value=-2.0, max_value=2.0), st.floats(allow_nan=False, allow_infinity=False)
)
# MLP weights and signals: small enough that no product or partial sum of a
# step overflows, where the rounding bound of check_step would not hold
moderate = st.one_of(st.floats(-2.0, 2.0), st.floats(-1e100, 1e100))
EPS = np.finfo(float).eps


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@st.composite
def random_models(draw):
    """Polynomial models (constant terms, repeated slots) and 1-3 node MLPs
    over random lag layouts, with or without the constant slot."""
    lags = st.lists(st.integers(1, 4), max_size=2, unique=True).map(sorted)
    spec = gb.RegressorSpec(
        output_lags=draw(st.lists(st.integers(1, 4), min_size=1, max_size=2, unique=True)
                         .map(sorted)),
        input_lags=tuple(draw(st.lists(lags, min_size=1, max_size=2))),
        include_constant=draw(st.booleans()),
    )
    if draw(st.booleans()):
        term = st.lists(st.integers(0, len(spec) - 1), max_size=3).map(lambda t: tuple(sorted(t)))
        terms = draw(st.lists(term, min_size=1, max_size=5, unique=True))
        theta = draw(st.lists(finite, min_size=len(terms), max_size=len(terms)))
        return gb.PolynomialModel(spec, tuple(terms), np.array(theta))
    n_hidden = draw(st.integers(1, 3))
    size = gb.MlpModel.n_params_for(spec, n_hidden)
    return gb.MlpModel(spec, n_hidden, np.array(draw(st.lists(moderate, min_size=size,
                                                              max_size=size))))


def signals(model):
    return finite if isinstance(model, gb.PolynomialModel) else moderate


@st.composite
def step_cases(draw):
    """A model and one regressor vector, its constant slot 1 as in every run;
    an MLP's may hold NaN or infinity."""
    model = draw(random_models())
    values = signals(model)
    if isinstance(model, gb.MlpModel):
        values = st.one_of(values, st.sampled_from([math.nan, math.inf, -math.inf]))
    psi = draw(st.lists(values, min_size=model.spec.n_features, max_size=model.spec.n_features))
    return model, [1.0] * model.spec.include_constant + psi


@st.composite
def free_run_cases(draw):
    """A model, its input channels and an initial history."""
    model = draw(random_models())
    spec = model.spec
    n = draw(st.integers(spec.max_lag + 1, spec.max_lag + 40))
    inputs = [np.array(draw(st.lists(signals(model), min_size=n, max_size=n)))
              for _ in range(spec.n_inputs)]
    return model, inputs, draw(st.lists(signals(model), max_size=spec.max_lag))


def generated_step(model, psi):
    """One step of the model's generated free-run loop, over buffers whose
    lagged samples hold ``psi``: the raw value, also when it diverges."""
    spec = model.spec
    k0 = spec.max_lag
    y = [0.0] * k0
    inputs = np.zeros((spec.n_inputs, k0 + 1))
    for pos, ch, lag in spec._gather:
        (y if ch < 0 else inputs[ch])[k0 - lag] = psi[pos]
    model._loops.free_run(model.theta.tolist(), y, k0 + 1, *inputs)
    return y[k0]


def reference_step(model):
    """The step the generated loops must take, written as a plain loop: a
    polynomial's ``_predict_psi``, and an MLP's plain-float
    b0 + sum_i w_out_i tanh(b_i + sum_j w_ij psi_j), summed left to right,
    each node over its bias, then its input-lag terms, then its output-lag
    terms, in slot order within each group."""
    if isinstance(model, gb.PolynomialModel):
        return model._predict_psi
    b0, w_out, b_h, w_h = model.unpack()
    start = 1 if model.spec.include_constant else 0
    # the input slots first: their terms are the part the loops hoist
    order = sorted(model.spec._gather, key=lambda slot: slot[1] < 0)
    nodes = tuple(
        (w, b, tuple((weights[pos - start], pos) for pos, _, _ in order))
        for w, b, weights in zip(w_out.tolist(), b_h.tolist(), w_h.tolist())
    )

    def step(psi):
        acc = float(b0)
        for w, z, weights in nodes:
            for v, j in weights:
                z += v * psi[j]
            acc += w * math.tanh(z)
        return acc

    return step


def reference_fixed_point(model, u_bar, config, step=None):
    """The fixed point as the list-buffer loop found it before the loops were
    generated, stepping with ``step`` (by default :func:`reference_step`).
    Returns (y_bar, iterations, converged)."""
    step = step or reference_step(model)
    spec = model.spec
    horizon = config.fixed_horizon
    budget = horizon if horizon is not None else config.max_iterations
    k0 = max(1, spec.max_lag)
    y = [0.0] * (k0 + min(budget, 1024))
    channels = [[level] * len(y) for level in np.atleast_1d(u_bar).tolist()]
    n_lags = max(1, len(spec.output_lags))
    bound = DIVERGENCE_BOUND
    psi = [1.0] * len(spec)
    settled = iterations = 0
    while True:
        for k in range(k0, len(y)):
            for pos, ch, lag in spec._gather:
                psi[pos] = y[k - lag] if ch < 0 else channels[ch][k - lag]
            value = step(psi)
            iterations += 1
            if not (-bound <= value <= bound):
                return value, iterations, False
            settled = settled + 1 if abs(value - y[k - 1]) < config.tolerance else 0
            y[k] = value
            if (horizon is None and settled == n_lags) or iterations == budget:
                return value, iterations, horizon is not None or settled == n_lags
        y[:k0] = y[-k0:]


def check_fixed_points(model, levels, config):
    """Assert that model_static_curve at ``levels`` (one row per level), and
    a one-level curve at each level, are bitwise the reference loop's, with
    its counts, and that cost_js_legacy is the reference loop's over
    ``_predict_psi``."""
    want = [reference_fixed_point(model, level, config) for level in levels]
    counter = gb.EvalCounter()
    curve = gb.model_static_curve(model, levels, config, counter=counter)
    assert counter.count == sum(iterations for _, iterations, _ in want)
    for j, (y_bar, iterations, converged) in enumerate(want):
        counter = gb.EvalCounter()
        one = gb.model_static_curve(model, [levels[j]], config, counter=counter)
        assert counter.count == iterations
        kept = converged and math.isfinite(y_bar)
        for got, index in ((curve, j), (one, 0)):
            assert got.converged[index] == kept
            assert same_bits(got.y_bar[index], y_bar if kept else np.nan), (got, y_bar)
    legacy = [reference_fixed_point(model, level, config, model._predict_psi) for level in levels]
    bound = DIVERGENCE_BOUND
    total = 0.0
    for y_bar, _, converged in legacy:  # every pair measured at y_bar = 0
        total += min(abs(y_bar), bound) ** 2 if converged and math.isfinite(y_bar) else bound**2
    zs = gb.SteadyDataset(u_bar=np.array(levels, dtype=float), y_bar=np.zeros(len(levels)))
    counter = gb.EvalCounter()
    assert same_bits(gb.cost_js_legacy(model, zs, config, counter=counter), total / len(levels))
    assert counter.count == sum(iterations for _, iterations, _ in legacy)


def check_step(model, psi, got):
    """Assert that ``got``, the model's step at ``psi``, is what
    ``_predict_psi`` returns: the same bits for a polynomial; for an MLP NaN
    exactly when it is NaN, else within
    8 eps (|b0| + sum_i |w_out_i| (1 + |b_i| + sum_j |w_ij psi_j|))."""
    psi = np.asarray(psi, dtype=float)
    want = model._predict_psi(psi)
    if isinstance(model, gb.PolynomialModel):
        assert same_bits(got, want), (got, want)
        return
    assert math.isnan(got) == math.isnan(want), (got, want)
    if got == want or math.isnan(got):
        return
    b0, w_out, b_h, w_h = model.unpack()
    start = 1 if model.spec.include_constant else 0
    inner = np.sum(np.abs(w_h * psi[start:]), axis=1)
    # a node with a zero output weight adds exactly 0, even when inner is infinite
    nodes = np.where(w_out == 0.0, 0.0, np.abs(w_out) * (1.0 + np.abs(b_h) + inner))
    size = abs(b0) + np.sum(nodes)
    # gradual underflow rounds by up to half the smallest subnormal, whatever the size
    assert abs(got - want) <= 8 * EPS * size + 8 * math.ulp(0.0), (got, want, size)


def faithful_free_run(model, inputs, init, bound, step=None):
    """The free run as it stepped before the fast steps: numpy buffers and
    ``_predict_psi`` (or ``step``, given psi(k-1) as an array) at every
    sample.  Returns (y, diverged_at)."""
    step = step or model._predict_psi
    spec = model.spec
    k0 = spec.max_lag
    y = np.zeros(inputs[0].size)
    if init:
        y[k0 - len(init) : k0] = init
    psi = np.ones(len(spec))
    for k in range(k0, y.size):
        for pos, ch, lag in spec._gather:
            psi[pos] = y[k - lag] if ch < 0 else inputs[ch][k - lag]
        value = step(psi)
        if not (-bound <= value <= bound):
            y[k:] = np.nan
            return y, k
        y[k] = value
    return y, None


def run_on_record(model, inputs, init=()):
    """:func:`greybox.free_run_on_dataset` over a record with ``inputs``,
    whose first ``max_lag`` outputs are ``init`` right-aligned over zeros."""
    k0 = model.spec.max_lag
    output = np.zeros(len(inputs[0]))
    output[k0 - len(init) : k0] = init
    data = gb.DynDataset(inputs=tuple(inputs), output=output)
    return gb.free_run_on_dataset(model, data)


# fixed cases with weights that round at every operation, so that a step
# moved by one ulp (a polynomial's) or beyond the bound (an MLP's) fails
# on every run, whatever hypothesis draws
EXAMPLE_SPEC = gb.RegressorSpec(output_lags=(1, 2), input_lags=((1, 2),))
POLY_EXAMPLE = gb.PolynomialModel(
    EXAMPLE_SPEC, ((), (1,), (2, 3), (1, 1, 4)), np.array([0.37, 1.3, -0.71, 0.055])
)
MLP_EXAMPLE = gb.MlpModel(
    gb.RegressorSpec(output_lags=(1, 2), input_lags=((1, 2),), include_constant=False),
    2,
    np.array([0.13, 1.7, -0.9, 0.21, 0.8, -0.33, 0.52, 0.11, -0.4, 0.6, 0.25, -0.7, 0.09]),
)
MLP1_EXAMPLE = gb.MlpModel(
    EXAMPLE_SPEC, 1, np.array([0.047, 2.31, -0.113, 0.61, -0.27, 0.83, 0.19])
)
EXAMPLE_INPUT = [np.sin(0.7 * np.arange(30)) * 1.3]
# three input channels with different lags into four nodes: four parts
MLP3_EXAMPLE = gb.MlpModel(
    gb.RegressorSpec(output_lags=(1, 2), input_lags=((1,), (1, 2), (2, 3))),
    4,
    np.random.default_rng(5).normal(0.0, 0.6, 1 + 4 + 4 * 8),
)
MLP3_INPUT = [np.sin(0.7 * np.arange(30)) * 1.3, np.cos(0.4 * np.arange(30)),
              0.5 * np.sin(1.1 * np.arange(30) + 0.3)]
# polynomials whose terms group by their output factors in each way the
# loops treat apart; over EXAMPLE_SPEC slot 0 is the constant, 1 and 2 are
# y(k-1) and y(k-2), 3 and 4 are u(k-1) and u(k-2)
POLY_CONSTANT_SLOT = gb.PolynomialModel(  # coefficients that read only the constant slot
    EXAMPLE_SPEC, ((0,), (0, 1), (0, 0, 2)), np.array([0.37, 1.3, -0.71])
)
POLY_SHARED = gb.PolynomialModel(  # an input-only term; three terms on y(k-1); y(k-1)^2
    EXAMPLE_SPEC, ((3,), (1, 3), (1,), (1, 4), (1, 1), (1, 1, 3)),
    np.array([0.37, 1.3, -0.71, 0.055, 0.13, -0.29]),
)
POLY_NO_INPUT = gb.PolynomialModel(  # reads no input slot at all
    EXAMPLE_SPEC, ((1,), (), (1, 2), (2, 2)), np.array([0.37, 0.13, -0.71, 0.055])
)
# output lags 1 and 3 (a gap) and two channels: slots y(k-1), y(k-3),
# u1(k-1), u2(k-1), u2(k-2); one coefficient reads both channels
TWO_INPUT_SPEC = gb.RegressorSpec(output_lags=(1, 3), input_lags=((1,), (1, 2)))
POLY_TWO_INPUTS = gb.PolynomialModel(
    TWO_INPUT_SPEC, ((), (1,), (2,), (1, 3), (2, 4), (1, 5), (3, 4, 5), (1, 1, 4)),
    np.array([0.1, 0.3, -0.2, 0.13, 0.05, -0.11, 0.2, 0.017]),
)
TWO_INPUT = [np.sin(0.7 * np.arange(30)) * 1.3, np.cos(0.4 * np.arange(30))]


class TestFreeRun:
    def test_reproduces_noiseless_simulation(self, ex1_true_model):
        rng = np.random.default_rng(3)
        u = -0.02 + 0.2 * rng.standard_normal(300)
        zd = simulate_system(EXAMPLE1, u)
        result = gb.free_run_on_dataset(ex1_true_model, zd)
        assert not result.diverged
        assert np.max(np.abs(result.y - zd.output)) < 1e-10

    def test_divergence_flag_and_nan_tail(self):
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1,),))
        doubling = gb.PolynomialModel(spec, ((1,),), np.array([2.0]))
        result = run_on_record(doubling, [np.zeros(25)], init=[1.0])
        assert result.diverged and result.diverged_at == 20  # 2**20 > 1e6
        assert np.array_equal(result.y[:20], 2.0 ** np.arange(20))
        assert np.all(np.isnan(result.y[20:]))
        # y^2 - y from 3 leaves 1e6 at sample 5, overflows to inf at 10 and
        # reads inf - inf = NaN from 11 on: the loop runs the whole record
        # in inf and NaN without a warning, and the exit is still sample 5
        square = gb.PolynomialModel(spec, ((1, 1), (1,)), np.array([1.0, -1.0]))
        result = run_on_record(square, [np.zeros(100_000)], init=[3.0])
        assert result.diverged and result.diverged_at == 5
        assert np.array_equal(result.y[:5], [3, 6, 30, 870, 756_030])
        assert np.all(np.isnan(result.y[5:]))
        # 3e6 - y from 0 leaves [-1e6, 1e6] at sample 1 and comes back at 2:
        # the run is flagged at its first exit and NaN from there on
        flip = gb.PolynomialModel(spec, ((), (1,)), np.array([3e6, -1.0]))
        result = run_on_record(flip, [np.zeros(10)], init=[0.0])
        assert result.diverged and result.diverged_at == 1
        assert result.y[0] == 0.0 and np.all(np.isnan(result.y[1:]))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_value_at_the_bound_is_kept(self, sign):
        # y = c: a free run and a one-level static curve keep c = +-1e6 and
        # diverge at its first value one ulp further out; rmse reads the bound
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1,),))
        edge = sign * DIVERGENCE_BOUND
        for c, diverged_at in ((edge, None), (np.nextafter(edge, sign * np.inf), 1)):
            model = gb.PolynomialModel(spec, ((),), np.array([c]))
            result = run_on_record(model, [np.zeros(6)], init=[0.0])
            assert result.diverged_at == diverged_at
            if diverged_at is None:
                assert np.array_equal(result.y, [0.0, *[edge] * 5])
            curve = gb.model_static_curve(model, [[0.0]])
            assert curve.converged[0] == (diverged_at is None)
            assert same_bits(curve.y_bar[0], edge if diverged_at is None else np.nan)
            assert rmse([c], [0.0]) == DIVERGENCE_BOUND

    def test_only_the_first_max_lag_outputs_seed_the_run(self):
        spec = gb.RegressorSpec(output_lags=(1, 2), input_lags=((1,),))
        carry = gb.PolynomialModel(spec, ((1,), (2,), (3,)), np.array([0.5, 0.25, 1.0]))
        u = np.array([1.0, -2.0, 0.5, 3.0, 0.0, 1.5])
        record = gb.DynDataset(inputs=(u,), output=[3.0, 7.0, 0.0, 0.0, 0.0, 0.0])
        result = gb.free_run_on_dataset(carry, record)
        want = [3.0, 7.0]
        for k in range(2, 6):
            want.append(0.5 * want[k - 1] + 0.25 * want[k - 2] + u[k - 1])
        assert np.array_equal(result.y, want)
        # the rest of the record's output is not read
        other = gb.DynDataset(inputs=(u,), output=[3.0, 7.0, -1e300, 5.0, 1e-300, 2.0])
        assert result.y.tobytes() == gb.free_run_on_dataset(carry, other).y.tobytes()

    def test_on_dataset_seeds_with_measured_prefix(self, ex1_true_model):
        u = np.linspace(-0.5, 0.5, 40)
        zd = simulate_system(EXAMPLE1, u, init=[0.3, -0.2])
        result = gb.free_run_on_dataset(ex1_true_model, zd)
        assert np.array_equal(result.y[:2], zd.output[:2])
        assert np.max(np.abs(result.y - zd.output)) < 1e-10

    def test_runs_with_no_input_list_or_no_gathered_slot_end(self):
        # an output-only structure on a y-only record has no input list to
        # stop its loop, and a constant-only model gathers no slot: each
        # still runs to exactly the record's length
        ar = gb.PolynomialModel(gb.RegressorSpec(output_lags=(1, 3), input_lags=()),
                                ((), (1,), (2,)), np.array([0.5, 0.25, -0.125]))
        record = gb.DynDataset(inputs=(), output=[1.0, 2.0, 3.0, *[0.0] * 7])
        want = [1.0, 2.0, 3.0]
        for k in range(3, 10):
            want.append(0.0 + 0.5 + 0.25 * want[k - 1] + -0.125 * want[k - 3])
        assert gb.free_run_on_dataset(ar, record).y.tobytes() == np.array(want).tobytes()
        level = gb.PolynomialModel(EXAMPLE_SPEC, ((),), np.array([0.7]))
        record = gb.DynDataset(inputs=(np.ones(9),), output=[4.0, 5.0, *[0.0] * 7])
        assert np.array_equal(gb.free_run_on_dataset(level, record).y, [4.0, 5.0, *[0.7] * 7])
        bias = gb.MlpModel(gb.RegressorSpec(output_lags=(), input_lags=()), 1,
                           np.array([0.5, 2.0, 0.25]))
        run = gb.free_run_on_dataset(bias, gb.DynDataset(inputs=(), output=np.zeros(6)))
        assert np.array_equal(run.y, [0.5 + 2.0 * math.tanh(0.25)] * 6)

    def test_fits_of_one_structure_share_their_loops(self, ex1_data, ex2_data):
        # the loops are generated once per structure and take the parameters
        # as an argument, so the fits share them and still run apart
        for structure, (_, _, zs, zv) in (
            (gb.example_structure("example1"), ex1_data),
            (gb.example_structure("example2"), ex2_data),
        ):
            rng = np.random.default_rng(0)
            a, b = (structure.with_theta(0.3 * rng.standard_normal(structure.n_params))
                    for _ in range(2))
            copy = gb.model_from_json(gb.model_to_json(a))  # an equal, new spec
            assert a._loops is b._loops is copy._loops
            run_a, run_b = (gb.free_run_on_dataset(m, zv).y for m in (a, b))
            assert not np.array_equal(run_a, run_b)
            assert run_a.tobytes() == gb.free_run_on_dataset(copy, zv).y.tobytes()
            curve_a, curve_b = (gb.model_static_curve(m, zs.u_bar).y_bar for m in (a, b))
            assert not np.array_equal(curve_a, curve_b, equal_nan=True)

    def test_example1_truth_is_pinned(self, ex1_true_model, ex1_data):
        # plain IEEE float arithmetic in a fixed order, so these digests of
        # the seed-0 free run over zv and static curve over zs hold on every
        # platform: a change to the loops that moves one bit fails here
        _, _, zs, zv = ex1_data
        run = gb.free_run_on_dataset(ex1_true_model, zv)
        assert not run.diverged
        assert hashlib.sha256(run.y.astype("<f8").tobytes()).hexdigest() == (
            "8e8a8a5ae26219821732bbdaa70fc8d4fea8bba9931dacb9a0be3d12fcdaec02"
        )
        curve = gb.model_static_curve(ex1_true_model, zs.u_bar)
        assert curve.converged.sum() == 48
        assert hashlib.sha256(curve.y_bar.astype("<f8").tobytes()).hexdigest() == (
            "2c4227116c6a1075b272b5739c5301554a89820b95b05f9201fa8b925d8cc3e3"
        )

    def test_nan_in_state_counts_as_divergence(self):
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1,),))
        # y - y^2 escapes to -inf from y0=2: 2 -> -2 -> -6 -> -42 ...
        quad = gb.PolynomialModel(spec, ((1,), (1, 1)), np.array([1.0, -1.0]))
        result = run_on_record(quad, [np.zeros(50)], init=[2.0])
        assert result.diverged
        assert np.all(np.isnan(result.y[result.diverged_at :]))

    def test_an_overflowing_part_does_not_warn(self, tmp_path):
        # input weights of 1e308 and -1e308 on inputs of 1e300 make each
        # node's input-driven sum inf when the inputs differ in sign and
        # inf - inf = NaN when they agree; with warnings as errors and no
        # np.errstate around them, the free run, the static curve and the
        # CLI's eval give the flags and values of the plain-float step
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1, 2),), include_constant=False)
        model = gb.MlpModel(spec, 1, np.array([0.1, 0.5, 0.2, 0.3, 1e308, -1e308]))
        u = np.array([0.0] * 20 + [1e300, -1e300, 1e300, -1e300, 1e300, 1e300, 0.0, 0.0])
        record = gb.DynDataset(inputs=(u,), output=[0.4, 0.0, *[0.0] * 26])
        want = [0.4, 0.0]  # zero inputs add exact zeros, in either order
        for k in range(2, 21):
            want.append(0.1 + 0.5 * math.tanh(0.2 + 0.3 * want[k - 1]))
        want += [0.6, -0.4, 0.6, -0.4, 0.6]  # a part of +-inf saturates tanh
        levels = [[0.0], [1e300], [-1e300]]
        fixed = reference_fixed_point(model, 0.0, gb.FixedPointConfig())
        gb.save_model(tmp_path / "model.json", model)
        gb.write_csv(tmp_path / "zv.csv", record)
        gb.write_csv(tmp_path / "zs.csv", gb.SteadyDataset(u_bar=np.array(levels),
                                                           y_bar=np.zeros(3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = gb.free_run_on_dataset(model, record)
            curve = gb.model_static_curve(model, levels)
            codes = [
                main(["eval", "--model", str(tmp_path / "model.json"), "--data",
                      str(tmp_path / f"{data}.csv"), "--mode", mode, "--out",
                      str(tmp_path / mode)])
                for mode, data in (("free-run", "zv"), ("static-curve", "zs"))
            ]
        assert run.diverged_at == 26
        assert run.y[:26].tobytes() == np.array(want).tobytes()
        assert np.all(np.isnan(run.y[26:]))
        assert fixed[2] and curve.converged.tolist() == [True, False, False]
        assert same_bits(curve.y_bar[0], fixed[0]) and np.all(np.isnan(curve.y_bar[1:]))
        assert codes == [0, 0]
        metrics = json.loads((tmp_path / "free-run" / "metrics.json").read_text())
        assert (metrics["diverged"], metrics["diverged_at"]) == (True, 26)
        with open(tmp_path / "free-run" / "freerun.csv", newline="") as fh:
            written = [float(row["y_hat"]) for row in csv.DictReader(fh)]
        assert np.array(written).tobytes() == run.y.tobytes()
        metrics = json.loads((tmp_path / "static-curve" / "metrics.json").read_text())
        assert (metrics["n_points"], metrics["n_converged"]) == (3, 1)

    def test_an_overflowing_coefficient_does_not_warn(self, tmp_path):
        # a polynomial's twin of the test above: weights of 1e308 and -1e308
        # on u(k-1) y(k-1) and u(k-2) y(k-1) make the coefficient of y(k-1)
        # +inf or -inf when the inputs of 1e300 differ in sign and
        # inf - inf = NaN when they agree; with warnings as errors, the free
        # run, the static curve and the CLI's eval give the flags and values
        # of the plain-float step
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1, 2),))
        model = gb.PolynomialModel(spec, ((0,), (2,), (1,), (1, 2), (1, 3)),
                                   np.array([0.1, 0.2, 0.5, 1e308, -1e308]))
        u = np.array([0.0] * 20 + [1e300, -1e300, 1e300, 1e300, 0.0, 0.0])
        record = gb.DynDataset(inputs=(u,), output=[0.4, 0.0, *[0.0] * 24])
        want = [0.4, 0.0]  # zero inputs add exact zeros
        for k in range(2, 21):
            want.append(0.1 + 0.5 * want[k - 1])
        levels = [[0.0], [1e300], [-1e300]]
        with np.errstate(all="ignore"):  # _predict_psi's numpy scalars warn
            faithful = faithful_free_run(model, [u], [0.4, 0.0], 1e6)
            fixed = [reference_fixed_point(model, level, gb.FixedPointConfig())
                     for level in levels]
        gb.save_model(tmp_path / "model.json", model)
        gb.write_csv(tmp_path / "zv.csv", record)
        gb.write_csv(tmp_path / "zs.csv", gb.SteadyDataset(u_bar=np.array(levels),
                                                           y_bar=np.zeros(3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = gb.free_run_on_dataset(model, record)
            curve = gb.model_static_curve(model, levels)
            codes = [
                main(["eval", "--model", str(tmp_path / "model.json"), "--data",
                      str(tmp_path / f"{data}.csv"), "--mode", mode, "--out",
                      str(tmp_path / mode)])
                for mode, data in (("free-run", "zv"), ("static-curve", "zs"))
            ]
        assert run.diverged_at == faithful[1] == 21
        assert run.y[:21].tobytes() == np.array(want).tobytes()
        assert run.y.tobytes() == faithful[0].tobytes()
        assert [converged for _, _, converged in fixed] == [True, False, False]
        assert [math.isnan(y_bar) for y_bar, _, _ in fixed[1:]] == [True, True]
        assert curve.converged.tolist() == [True, False, False]
        assert same_bits(curve.y_bar[0], fixed[0][0]) and np.all(np.isnan(curve.y_bar[1:]))
        assert codes == [0, 0]
        metrics = json.loads((tmp_path / "free-run" / "metrics.json").read_text())
        assert (metrics["diverged"], metrics["diverged_at"]) == (True, 21)
        with open(tmp_path / "free-run" / "freerun.csv", newline="") as fh:
            written = [float(row["y_hat"]) for row in csv.DictReader(fh)]
        assert np.array(written).tobytes() == run.y.tobytes()
        metrics = json.loads((tmp_path / "static-curve" / "metrics.json").read_text())
        assert (metrics["n_points"], metrics["n_converged"]) == (3, 1)

    @pytest.mark.parametrize("name", ["polynomial-gapped-lags", "mlp-gapped-lags",
                                      "polynomial-chained-lags", "mlp-chained-lags"])
    def test_blocks_keep_the_bits_of_one_pass(self, name):
        # the free run computes its parts a block of _BLOCK samples at a
        # time; on records that end just before, at and just after a block
        # boundary it is bitwise the faithful loop, which has no blocks
        model, level, amplitude = LARGE_STRUCTURES[name]
        step = reference_step(model)
        k0 = model.spec.max_lag
        for n in (2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1):
            inputs = [level + amplitude * np.sin(0.3 * np.arange(n))]
            init = [0.1] * k0
            result = run_on_record(model, inputs, init=init)
            want, diverged_at = faithful_free_run(
                model, inputs, init, 1e6, step=lambda psi: step(psi.tolist())
            )
            assert diverged_at is None and not result.diverged
            assert result.y.tobytes() == want.tobytes()

    @pytest.mark.parametrize("model, n", [
        # 200 000 samples of a 10-node MLP take about a minute under
        # tracemalloc, which charges each traced allocation in proportion to
        # its offset in the generated function on CPython 3.11: five blocks
        (gb.MlpModel(EXAMPLE_SPEC, 10, np.random.default_rng(1).normal(0.0, 0.3, 61)),
         5 * _BLOCK + 1),
        (POLY_TWO_INPUTS, 200_000),
    ])
    def test_free_run_memory_is_bounded_by_the_block(self, model, n):
        # the parts of a block, not of the record, are held at once: beyond
        # the trajectory itself (a list of floats, then an array, about
        # 40 bytes a sample) the run's peak stays under 2 MB, where parts
        # held over the whole record took about 40 bytes a sample each
        # (80 MB for this MLP, 21 MB for this polynomial, over 200 000)
        rng = np.random.default_rng(0)
        inputs = tuple(0.5 * rng.standard_normal(n) for _ in range(model.spec.n_inputs))
        record = gb.DynDataset(inputs=inputs, output=np.zeros(n))
        model._loops
        tracemalloc.start()
        try:
            run = gb.free_run_on_dataset(model, record)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not run.diverged
        assert peak < 48 * n + 2_000_000, peak

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow to inf is allowed
    @given(case=step_cases())
    @example(case=(POLY_EXAMPLE, [1.0, 0.3, -1.7, 0.45, 2.9]))
    @example(case=(POLY_CONSTANT_SLOT, [1.0, 0.3, -1.7, 0.45, 2.9]))
    @example(case=(POLY_SHARED, [1.0, 0.3, -1.7, 0.45, 2.9]))
    @example(case=(POLY_NO_INPUT, [1.0, 0.3, -1.7, 0.45, 2.9]))
    @example(case=(POLY_TWO_INPUTS, [1.0, 0.3, -1.7, 0.45, 2.9, -0.6]))
    @example(case=(MLP_EXAMPLE, [0.3, -1.7, 0.45, 2.9]))
    @example(case=(MLP1_EXAMPLE, [1.0, 0.61, -0.35, 1.1, 0.7]))
    @example(case=(MLP3_EXAMPLE, [1.0, 0.61, -0.35, 1.1, 0.7, -0.9, 0.45, 1.6]))
    @example(case=(  # a zero output weight on a node whose inner sum is infinite
        gb.MlpModel(
            gb.RegressorSpec(output_lags=(1,), input_lags=((),), include_constant=False),
            3,
            np.array([1.0, 0.0, 0.9, 0.8291704436851963, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]),
        ),
        [math.inf],
    ))
    def test_step_is_bitwise_predict_psi(self, case):
        # one step of the generated loop: bitwise for polynomials; an MLP's
        # plain-float step stays within the rounding bound of check_step
        model, psi = case
        check_step(model, psi, generated_step(model, psi))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(case=free_run_cases())
    @example(case=(POLY_EXAMPLE, EXAMPLE_INPUT, [0.2, -0.1]))
    @example(case=(POLY_CONSTANT_SLOT, EXAMPLE_INPUT, [0.2, -0.1]))
    @example(case=(POLY_SHARED, EXAMPLE_INPUT, [0.2, -0.1]))
    @example(case=(POLY_NO_INPUT, EXAMPLE_INPUT, [0.2, -0.1]))
    @example(case=(POLY_TWO_INPUTS, TWO_INPUT, [0.2, -0.1, 0.3]))
    @example(case=(MLP_EXAMPLE, EXAMPLE_INPUT, [0.5]))
    @example(case=(MLP1_EXAMPLE, EXAMPLE_INPUT, [0.4, 0.3]))
    @example(case=(MLP3_EXAMPLE, MLP3_INPUT, [0.4, 0.3, -0.2]))
    @example(case=(  # 2 y(k-1) from 1 leaves 1e6 at sample 21
        gb.PolynomialModel(EXAMPLE_SPEC, ((1,),), np.array([2.0])), EXAMPLE_INPUT, [0.0, 1.0]
    ))
    def test_free_run_is_bitwise_the_faithful_loop(self, case):
        # the faithful loop steps with the reference step, each value checked
        # against _predict_psi, so a polynomial run is bitwise the
        # _predict_psi loop and an MLP run moves by the step's bound only
        model, inputs, init = case
        step = reference_step(model)

        def checked(psi):
            value = step(psi.tolist())
            check_step(model, psi, value)
            return value

        result = run_on_record(model, inputs, init=init)
        want, diverged_at = faithful_free_run(model, inputs, init, DIVERGENCE_BOUND, step=checked)
        assert result.y.tobytes() == want.tobytes()
        assert result.diverged_at == diverged_at
        assert result.diverged == (diverged_at is not None)


@st.composite
def fixed_point_cases(draw):
    """A model, one to three constant-input levels and a config: short runs
    and runs past the 1024 samples the reference loop's list buffer holds,
    under the settle rule or a fixed horizon."""
    model = draw(random_models())
    row = st.lists(signals(model), min_size=model.spec.n_inputs, max_size=model.spec.n_inputs)
    steps = st.one_of(st.integers(1, 40), st.integers(1020, 2100))
    config = gb.FixedPointConfig(
        max_iterations=draw(steps),
        fixed_horizon=draw(st.one_of(st.none(), steps)),
        tolerance=draw(st.sampled_from([1e-10, 1e-3, 1.0])),
    )
    return model, draw(st.lists(row, min_size=1, max_size=3)), config


SCALAR_SPEC = gb.RegressorSpec(output_lags=(1,), input_lags=((1,),))
# the structures that stress the generator: hundreds of terms, deep
# products and wide sums on both sides of a 32-operand expression, the
# widest MLP layer the examples come near, and lags with gaps
WIDE_SPEC = gb.RegressorSpec(output_lags=(1, 2, 3, 4, 5), input_lags=((1, 2, 3, 4, 5),))
SPEC_40 = gb.RegressorSpec(output_lags=tuple(range(1, 21)), input_lags=(tuple(range(1, 21)),))
SPEC_40_INPUTS = gb.RegressorSpec(output_lags=tuple(range(1, 36)),
                                  input_lags=(tuple(range(1, 41)),))
GAPPED_SPEC = gb.RegressorSpec(output_lags=(1, 7), input_lags=((3, 5),))
# output lags 1 and 2 and input lag 3 are shifted locals; output lag 5 and
# input lags 2 and 7 are read from their lists
CHAINED_SPEC = gb.RegressorSpec(output_lags=(1, 2, 5), input_lags=((2, 3, 7),))
WIDE_TERMS = tuple(itertools.islice(
    (t for d in (1, 2, 3) for t in itertools.combinations_with_replacement(range(11), d)), 350
))
# name: (model, input level, amplitude of the input around it)
LARGE_STRUCTURES = {
    "350-terms-11-slots": (
        gb.PolynomialModel(WIDE_SPEC, WIDE_TERMS, np.random.default_rng(0).normal(0.0, 0.01, 350)),
        0.0,
        0.5,
    ),
    # y = 0.5 + 0.5 y(k-1) u(k-1)^2999, a contraction for u near 1
    "degree-3000-term": (
        gb.PolynomialModel(EXAMPLE_SPEC, ((), (1,) + (3,) * 2999), np.array([0.5, 0.5])),
        1.0,
        1e-4,
    ),
    # 34 factors, so the product spills into a second expression
    "degree-33-term": (
        gb.PolynomialModel(EXAMPLE_SPEC, ((), (1,) + (3,) * 32), np.array([0.5, 0.5])),
        1.0,
        1e-3,
    ),
    # 20 output and 20 input lags: a part and a node's sum of 21 operands
    "mlp-40-regressors": (
        gb.MlpModel(SPEC_40, 2, np.random.default_rng(2).normal(0.0, 0.05, 1 + 2 + 2 * 41)),
        0.0,
        0.5,
    ),
    # a bias and 40 input terms per part and 35 output terms per node, so
    # each part and each node's sum spills past 32 operands in both loops
    "mlp-40-input-lags": (
        gb.MlpModel(SPEC_40_INPUTS, 2, np.random.default_rng(5).normal(0.0, 0.05, 1 + 2 + 2 * 76)),
        0.0,
        0.5,
    ),
    "polynomial-gapped-lags": (
        gb.PolynomialModel(
            GAPPED_SPEC,
            ((), (1,), (2,), (3,), (4,), (1, 3), (2, 4, 4)),
            np.array([0.1, 0.4, -0.2, 0.3, 0.25, -0.15, 0.05]),
        ),
        0.2,
        0.5,
    ),
    "mlp-gapped-lags": (
        gb.MlpModel(GAPPED_SPEC, 2, np.random.default_rng(3).normal(0.0, 0.4, 1 + 2 + 2 * 5)),
        0.0,
        0.5,
    ),
    "polynomial-chained-lags": (
        gb.PolynomialModel(
            CHAINED_SPEC,
            ((), (1,), (2,), (3,), (4,), (5,), (6,), (1, 4), (2, 6, 6)),
            np.array([0.1, 0.4, -0.2, 0.15, 0.3, -0.25, 0.2, -0.15, 0.05]),
        ),
        0.2,
        0.5,
    ),
    "mlp-chained-lags": (
        gb.MlpModel(CHAINED_SPEC, 2, np.random.default_rng(4).normal(0.0, 0.4, 1 + 2 + 2 * 7)),
        0.0,
        0.5,
    ),
    "mlp-10-nodes-10-regressors": (
        gb.MlpModel(
            replace(WIDE_SPEC, include_constant=False),
            10,
            np.random.default_rng(1).normal(0.0, 0.3, 1 + 10 + 10 * 11),
        ),
        0.0,
        0.5,
    ),
}


class TestGeneratedLoops:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(case=fixed_point_cases())
    @example(case=(gb.PolynomialModel(SCALAR_SPEC, ((1,), (0,)), np.array([2.0, 1.0])),
                   [[0.0]], gb.FixedPointConfig()))  # diverges
    @example(case=(gb.PolynomialModel(SCALAR_SPEC, ((1,), (0,)), np.array([-1.0, 1.0])),
                   # 0, 1, 0, ...: steps of exactly the tolerance never settle,
                   # so the run takes its whole budget and the reference
                   # loop shifts its window twice
                   [[0.0]], gb.FixedPointConfig(max_iterations=3000, tolerance=1.0)))
    @example(case=(POLY_EXAMPLE, [[0.3], [-1.1]], gb.FixedPointConfig(fixed_horizon=1500)))
    @example(case=(POLY_SHARED, [[0.3], [-1.1]], gb.FixedPointConfig()))
    @example(case=(POLY_TWO_INPUTS, [[0.3, -0.5], [-1.1, 0.8]], gb.FixedPointConfig()))
    @example(case=(MLP1_EXAMPLE, [[0.5], [2.0]], gb.FixedPointConfig()))
    @example(case=(MLP3_EXAMPLE, [[0.5, -0.3, 1.2], [2.0, 0.1, -0.7]], gb.FixedPointConfig()))
    def test_fixed_point_is_bitwise_the_list_buffer_loop(self, case):
        model, levels, config = case
        check_fixed_points(model, levels, config)

    @pytest.mark.parametrize("name", sorted(LARGE_STRUCTURES))
    def test_large_structures_step_bitwise(self, name, monkeypatch):
        # the generated expressions compile at any size and gather each lag
        model, level, amplitude = LARGE_STRUCTURES[name]
        step = reference_step(model)
        inputs = [level + amplitude * np.sin(0.3 * np.arange(200))]
        init = [0.1] * model.spec.max_lag
        result = run_on_record(model, inputs, init=init)
        want, diverged_at = faithful_free_run(
            model, inputs, init, DIVERGENCE_BOUND, step=lambda psi: step(psi.tolist())
        )
        assert diverged_at is None
        assert result.y.tobytes() == want.tobytes()
        # a bound the run crosses midway stops both loops at the same sample
        bound = float(np.median(np.abs(want[model.spec.max_lag :])))
        monkeypatch.setattr("greybox.models.DIVERGENCE_BOUND", bound)
        result = run_on_record(model, inputs, init=init)
        monkeypatch.undo()
        want, diverged_at = faithful_free_run(
            model, inputs, init, bound, step=lambda psi: step(psi.tolist())
        )
        assert diverged_at is not None
        assert result.diverged_at == diverged_at
        assert result.y.tobytes() == want.tobytes()
        levels = level + amplitude * np.linspace(-1.0, 1.0, 5).reshape(-1, 1)
        check_fixed_points(model, levels, gb.FixedPointConfig())

    def test_code_does_not_grow_with_a_lag(self):
        # a lag is a constant in the generated code, never a run of locals
        # or lines, so the largest lag allowed compiles to loops of one size
        loops = [
            gb.PolynomialModel(gb.RegressorSpec(output_lags=(1, lag), input_lags=((1,),)),
                               ((1,), (2,), (1, 3)), np.zeros(3))._loops
            for lag in (7, 10**6)
        ]
        for name in ("free_run", "fixed_point"):
            small, large = (getattr(pair, name).__code__ for pair in loops)
            assert small.co_nlocals == large.co_nlocals, name
            assert len(small.co_code) == len(large.co_code), name


class TestSweepScoring:
    @pytest.mark.parametrize("seed", range(5))
    def test_scores_agree_with_the_numpy_step(self, seed):
        # criterion 2's datasets and settings, every point scored again with
        # the numpy-step reference loop: same scores to 1e-12, same picks
        zd, zt, zs, zv = gb.make_datasets("example2", seed)
        train = gb.TrainConfig(algorithm="weighted_lm", lm=gb.LmConfig(60, 3))
        grid = gb.LambdaGrid.linspace(0.1, 0.9, 9)
        points = gb.run_sweep(gb.example_structure("example2"), zd, zt, zs, grid, train, zv=zv)
        rescored = [numpy_step_scores(p, zd, zt, zv) for p in points]
        for point, again in zip(points, rescored):
            assert point.error is None
            for name in ("rmse_zt", "rmse_zv", "corr_dm"):
                want = getattr(again, name)
                assert getattr(point, name) == pytest.approx(want, rel=1e-12, abs=0), name
        assert gb.decide_min_rmse_zt(points).lam == gb.decide_min_rmse_zt(rescored).lam
        assert gb.decide_min_corr(points).lam == gb.decide_min_corr(rescored).lam


def numpy_step_scores(point, zd, zt, zv):
    """``point`` with its free-run scores recomputed by :func:`faithful_free_run`,
    with ``rmse`` and ``abs_error_correlation`` as :func:`greybox.run_sweep`
    scores its points."""
    model = point.model
    k0 = model.spec.max_lag

    def score(data):
        y, diverged_at = faithful_free_run(
            model, data.inputs, data.output[:k0].tolist(), DIVERGENCE_BOUND
        )
        if diverged_at is not None:
            return DIVERGENCE_BOUND, True, None
        measured = data.output[k0:]
        error = measured - y[k0:]
        return rmse(y[k0:], measured), False, abs_error_correlation(error, measured)

    _, diverged_zd, corr_dm = score(zd)
    rmse_zt, diverged_zt, _ = score(zt)
    rmse_zv, diverged_zv, _ = score(zv)
    return replace(
        point, rmse_zt=rmse_zt, diverged_zt=diverged_zt, rmse_zv=rmse_zv,
        diverged_zv=diverged_zv, corr_dm=corr_dm, diverged_zd=diverged_zd,
    )


class TestPersistence:
    def test_polynomial_round_trip(self, tmp_path, ex1_true_model):
        path = tmp_path / "model.json"
        gb.save_model(path, ex1_true_model)
        back = gb.load_model(path)
        assert isinstance(back, gb.PolynomialModel)
        assert back.spec == ex1_true_model.spec
        assert back.terms == ex1_true_model.terms
        assert np.array_equal(back.theta, ex1_true_model.theta)

    def test_mlp_round_trip(self, tmp_path):
        spec = gb.RegressorSpec(output_lags=(1, 2), input_lags=((1, 2),))
        rng = np.random.default_rng(8)
        model = gb.MlpModel(spec, 2, rng.standard_normal(1 + 2 + 2 * 5))
        path = tmp_path / "mlp.json"
        gb.save_model(path, model)
        back = gb.load_model(path)
        assert isinstance(back, gb.MlpModel)
        assert back.n_hidden == 2
        assert np.array_equal(back.theta, model.theta)

    def test_document_is_plain_json(self, ex1_true_model):
        doc = gb.model_to_json(ex1_true_model)
        text = json.dumps(doc)
        assert json.loads(text) == doc
        assert doc["kind"] == "polynomial"
        assert doc["packing_version"] == 1

    def test_unknown_kind_rejected(self, ex1_true_model):
        doc = gb.model_to_json(ex1_true_model)
        doc["kind"] = "mystery"
        with pytest.raises(gb.ConfigError, match="unknown model kind"):
            gb.model_from_json(doc)

    def test_unsupported_packing_rejected(self, ex1_true_model):
        doc = gb.model_to_json(ex1_true_model)
        doc["packing_version"] = 9
        with pytest.raises(gb.ConfigError, match="packing version"):
            gb.model_from_json(doc)

    @pytest.mark.parametrize("theta", [0.75, "0.75", {"0": 0.75}, None])
    def test_theta_that_is_not_a_list_rejected(self, ex1_true_model, theta):
        doc = gb.model_to_json(ex1_true_model)
        doc["theta"] = theta
        with pytest.raises(gb.ConfigError, match="theta must be a list of numbers"):
            gb.model_from_json(doc)

    def test_builtin_structures(self):
        ex1 = gb.example_structure("example1")
        assert isinstance(ex1, gb.PolynomialModel)
        assert ex1.terms == ((2,), (3,), (2, 3), (1, 3), (1, 4))
        assert np.array_equal(ex1.theta, np.zeros(5))
        ex2 = gb.example_structure("example2")
        assert isinstance(ex2, gb.MlpModel)
        assert ex2.n_hidden == 1 and ex2.theta.size == 7
        with pytest.raises(ValueError):
            gb.example_structure("example9")

    def test_true_parameters_on_builtin_layout(self):
        # slots: [1, y1, y2, u1, u2]; active terms y2, u1, y2*u1
        assert np.array_equal(EXAMPLE1_TRUE_THETA, [0.75, 0.25, -0.2, 0.0, 0.0])
