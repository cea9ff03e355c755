"""Regressor layout, model prediction, free-run simulation, persistence."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import greybox as gb
from greybox.data import EXAMPLE1, simulate_system
from greybox.models import EXAMPLE1_TRUE_THETA


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
        with pytest.raises(ValueError):
            gb.build_regression_matrix(spec, data)

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
        result = gb.free_run(doubling, [np.zeros(10)], init=[1.0], bound=100.0)
        assert result.diverged and result.diverged_at == 7
        assert np.array_equal(result.y[:7], [1, 2, 4, 8, 16, 32, 64])
        assert np.all(np.isnan(result.y[7:]))

    def test_init_is_right_aligned(self):
        spec = gb.RegressorSpec(output_lags=(1, 2), input_lags=((1,),))
        carry = gb.PolynomialModel(spec, ((1,),), np.array([1.0]))
        full = gb.free_run(carry, [np.zeros(5)], init=[3.0, 7.0])
        assert np.array_equal(full.y, [3.0, 7.0, 7.0, 7.0, 7.0])
        short = gb.free_run(carry, [np.zeros(5)], init=[7.0])
        assert np.array_equal(short.y, [0.0, 7.0, 7.0, 7.0, 7.0])

    def test_on_dataset_seeds_with_measured_prefix(self, ex1_true_model):
        u = np.linspace(-0.5, 0.5, 40)
        zd = simulate_system(EXAMPLE1, u, init=[0.3, -0.2])
        result = gb.free_run_on_dataset(ex1_true_model, zd)
        assert np.array_equal(result.y[:2], zd.output[:2])
        assert np.max(np.abs(result.y - zd.output)) < 1e-10

    def test_nan_in_state_counts_as_divergence(self):
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1,),))
        # y - y^2 escapes to -inf from y0=2: 2 -> -2 -> -6 -> -42 ...
        quad = gb.PolynomialModel(spec, ((1,), (1, 1)), np.array([1.0, -1.0]))
        result = gb.free_run(quad, [np.zeros(50)], init=[2.0], bound=1e6)
        assert result.diverged
        assert np.all(np.isnan(result.y[result.diverged_at :]))


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
