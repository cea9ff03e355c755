"""Estimators: weighted least squares, damped Gauss-Newton, the GA baseline."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import greybox as gb
from greybox import estimation
from greybox.data import EXAMPLE1, simulate_system, steady_curve_of_system
from greybox.estimation import (
    build_stacked_system,
    fit_ga_legacy,
    fit_weighted_lm,
    fit_wls,
    init_mlp_theta,
    mlp_jacobian,
    write_trace_csv,
)
from greybox.models import EXAMPLE1_TRUE_THETA, _mlp_hidden, _mlp_split


def noiseless_split(seed=7, n=400):
    rng = np.random.default_rng(seed)
    u = -0.02 + 0.2 * rng.standard_normal(n)
    zd = simulate_system(EXAMPLE1, u)
    zs = steady_curve_of_system(EXAMPLE1, np.linspace(-1, 3, 50))
    return zd, zs


def random_poly_problem(rng):
    spec = gb.RegressorSpec(output_lags=(1, 2), input_lags=((1, 2),))
    model = gb.PolynomialModel(spec, ((1,), (2,), (3,), (1, 3)), np.zeros(4))
    n = int(rng.integers(20, 60))
    zd = gb.DynDataset(
        inputs=(rng.standard_normal(n),), output=rng.standard_normal(n)
    )
    n_s = int(rng.integers(2, 12))
    zs = gb.SteadyDataset(
        u_bar=rng.standard_normal((n_s, 1)), y_bar=rng.standard_normal(n_s)
    )
    return model, zd, zs


class TestLeastSquares:
    def test_single_regressor_exact_solution(self):
        # one usable row: psi = [2], target 4, so theta must be 2
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1,),))
        model = gb.PolynomialModel(spec, ((1,),), np.zeros(1))
        zd = gb.DynDataset(inputs=(np.zeros(2),), output=np.array([2.0, 4.0]))
        fit = fit_wls(model, zd, None, 0.0)
        assert fit.theta[0] == pytest.approx(2.0, abs=1e-14)

    def test_recovers_true_parameters_without_noise(self, ex1_structure):
        zd, zs = noiseless_split()
        for lam in (0.0, 0.1, 0.5, 0.9):
            fit = fit_wls(ex1_structure, zd, zs, lam)
            assert np.max(np.abs(fit.theta - EXAMPLE1_TRUE_THETA)) < 1e-6

    def test_wls_lambda_zero_matches_ols(self, ex1_structure, ex1_data):
        zd, _, zs, _ = ex1_data
        # the black box: wls at lambda 0 on the dynamical record alone
        ols_count, wls_count = gb.EvalCounter(), gb.EvalCounter()
        a, _ = gb.fit(ex1_structure, zd, None, gb.TrainConfig(), counter=ols_count)
        b = fit_wls(ex1_structure, zd, zs, 0.0, counter=wls_count)
        assert np.max(np.abs(a.theta - b.theta)) < 1e-12
        # one evaluation per solved row; without zs there are no static pseudo-samples
        assert ols_count.count == zd.sample_count - ex1_structure.spec.max_lag
        assert wls_count.count == ols_count.count + zs.n_pairs

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_wls_refuses_an_mlp(self, ex2_structure, ex2_data, lam):
        zd, _, zs, _ = ex2_data
        with pytest.raises(TypeError, match="needs a linear-in-parameters model"):
            fit_wls(ex2_structure, zd, zs, lam)

    def test_wls_without_statics_requires_lambda_zero(self, ex1_structure, ex1_data):
        zd, _, _, _ = ex1_data
        fit = fit_wls(ex1_structure, zd, None, 0.0)
        assert fit.theta.shape == (5,)
        with pytest.raises(ValueError):
            fit_wls(ex1_structure, zd, None, 0.3)

    def test_weighted_normal_equations_hold_at_optimum(self, ex1_structure, ex1_data):
        zd, _, zs, _ = ex1_data
        lam = 0.3
        fit = fit_wls(ex1_structure, zd, zs, lam)
        stacked = build_stacked_system(fit, zd, zs)
        phi = fit.design_matrix(stacked.psi)
        residual = stacked.y - phi @ fit.theta
        gradient = phi.T @ (stacked.weights(lam) * residual)
        assert np.max(np.abs(gradient)) < 1e-10

    def test_stacked_block_sizes_and_weights(self, ex1_structure, ex1_data):
        zd, _, zs, _ = ex1_data
        stacked = build_stacked_system(ex1_structure, zd, zs)
        assert stacked.n_dynamic == zd.sample_count - 2
        assert stacked.n_static == zs.n_pairs
        assert np.all(stacked.weights(0.25)[: stacked.n_dynamic] == 0.75)
        assert np.all(stacked.weights(0.25)[stacked.n_dynamic :] == 0.25)

    def test_static_only_system_is_rank_deficient(self, ex1_structure, ex1_data):
        # the three cross-term columns collapse to u_bar*y_bar at steady state
        zd, _, zs, _ = ex1_data
        with pytest.raises(gb.SingularityError) as exc:
            fit_wls(ex1_structure, zd, zs, 1.0)
        assert exc.value.cond > 1e12

    def test_overflowing_design_matrix_is_singular(self, capfd):
        # finite outputs near 1e120 put inf into the cubic output column, with
        # no RuntimeWarning, which the test settings make an error
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1,),))
        model = gb.PolynomialModel(spec, ((1, 1, 1), (2,)), np.zeros(2))
        rng = np.random.default_rng(0)
        zd = gb.DynDataset(
            inputs=(rng.standard_normal(20),), output=1e120 * rng.uniform(1.0, 2.0, 20)
        )
        with pytest.raises(gb.SingularityError) as exc:
            fit_wls(model, zd, None, 0.0)
        assert exc.value.cond == np.inf
        # rejected before LAPACK sees it, which would print DLASCL complaints
        out, err = capfd.readouterr()
        assert "DLASCL" not in out + err

    @given(lam=st.floats(min_value=0.0, max_value=0.9))
    def test_perturbations_never_beat_the_optimum(self, lam):
        rng = np.random.default_rng(int(lam * 1e6) + 1)
        model, zd, zs = random_poly_problem(rng)
        fit = fit_wls(model, zd, zs, lam)
        stacked = build_stacked_system(fit, zd, zs)
        phi = fit.design_matrix(stacked.psi)

        def weighted_cost(theta):
            r = stacked.y - phi @ theta
            return float(np.sum(stacked.weights(lam) * r * r))

        best = weighted_cost(fit.theta)
        for _ in range(10):
            probe = fit.theta + rng.standard_normal(fit.theta.size) * 1e-3
            assert weighted_cost(probe) >= best - 1e-12


EPS = np.finfo(float).eps


@st.composite
def mlp_problems(draw, max_hidden=4):
    """A 1 to ``max_hidden`` node MLP over 1-3 inputs with sorted random
    lags, with or without the constant slot, at random parameters, and a
    generator for its data."""
    lags = st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True).map(tuple)
    spec = gb.RegressorSpec(
        output_lags=tuple(sorted(draw(lags))),
        input_lags=tuple(tuple(sorted(draw(lags))) for _ in range(draw(st.integers(1, 3)))),
        include_constant=draw(st.booleans()),
    )
    n_hidden = draw(st.integers(1, max_hidden))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = rng.uniform(-2, 2, gb.MlpModel.n_params_for(spec, n_hidden))
    return gb.MlpModel(spec, n_hidden, theta), rng


def random_records(spec, rng):
    """A short random dynamic record and a few steady-state pairs for ``spec``."""
    n = int(rng.integers(spec.max_lag + 5, spec.max_lag + 60))
    zd = gb.DynDataset(
        inputs=tuple(rng.standard_normal(n) for _ in range(spec.n_inputs)),
        output=rng.standard_normal(n),
    )
    n_s = int(rng.integers(1, 8))
    zs = gb.SteadyDataset(
        u_bar=rng.standard_normal((n_s, spec.n_inputs)), y_bar=rng.standard_normal(n_s)
    )
    return zd, zs


class TestJacobians:
    @given(problem=mlp_problems())
    def test_mlp_jacobian_against_central_differences(self, problem):
        model, rng = problem
        spec, theta = model.spec, model.theta
        psi = rng.uniform(-2, 2, (6, len(spec)))
        jac = mlp_jacobian(model, psi)
        step = 1e-6
        for j in range(model.n_params):
            bumped_up = theta.copy()
            bumped_up[j] += step
            bumped_dn = theta.copy()
            bumped_dn[j] -= step
            up = model.with_theta(bumped_up).predict(psi)
            dn = model.with_theta(bumped_dn).predict(psi)
            fd = (up - dn) / (2 * step)
            scale = np.maximum(np.abs(fd), 1.0)
            assert np.max(np.abs(jac[:, j] - fd) / scale) < 1e-5

    @given(problem=mlp_problems(max_hidden=3), lam=st.floats(0.05, 0.95))
    def test_lm_step_system_is_the_schur_complement(self, problem, lam):
        # E = w (y - F) has the Jacobian -diag(w) G, G = mlp_jacobian, whose
        # Gauss-Newton matrix H = G^T diag(w^2) G splits into the output-layer
        # block c and the hidden block p.  At the start, with c solved, the
        # LM's first system reads (S + mu I) delta = G_p^T diag(w^2) r, S the
        # Schur complement H_pp - H_pc H_cc^-1 H_cp.  Each entry of S is
        # within 8 n eps cond(H_cc) of its terms' magnitudes, n rows
        model, rng = problem
        zd, zs = random_records(model.spec, rng)
        systems = []
        solve = estimation._lapack_solve

        def spy(a, b, signature):
            systems.append((a.copy(), b.copy()))
            return solve(a, b, signature=signature)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimation, "_lapack_solve", spy)
            fit_weighted_lm(
                model, zd, zs, lam, gb.LmConfig(max_iterations=1), theta0=model.theta
            )
        nc = 1 + model.n_hidden
        n_p = model.n_params - nc
        a, b = next(system for system in systems if system[0].shape == (n_p, n_p))
        start, _ = fit_weighted_lm(
            model, zd, zs, lam, gb.LmConfig(max_iterations=0), theta0=model.theta
        )
        stacked = build_stacked_system(model, zd, zs)
        w2, y = stacked.weights(lam) ** 2, stacked.y
        g = mlp_jacobian(start, stacked.psi)
        r = y - start.predict(stacked.psi)
        h = g.T @ (w2[:, None] * g)
        x = np.linalg.solve(h[:nc, :nc], h[:nc, nc:])
        schur = h[nc:, nc:] - h[nc:, :nc] @ x
        magnitude = np.abs(g).T @ (w2[:, None] * np.abs(g))
        terms = magnitude[nc:, nc:] + magnitude[nc:, :nc] @ np.abs(x)
        mu_eye = estimation._LM_INITIAL_DAMPING * np.eye(n_p)
        bound = 8 * y.size * EPS * np.linalg.cond(h[:nc, :nc])
        assert np.array_equal(a, a.T)
        assert np.all(np.abs(a - (schur + mu_eye)) <= bound * terms)
        b0, w_out, _, _ = start.unpack()
        r_terms = np.abs(r) + np.abs(y) + abs(b0) + np.abs(w_out).sum()
        g_p = g[:, nc:]
        assert np.all(
            np.abs(b - g_p.T @ (w2 * r)) <= 8 * y.size * EPS * (np.abs(g_p).T @ (w2 * r_terms))
        )

    @given(problem=mlp_problems(max_hidden=3), lam=st.floats(0.05, 0.95))
    def test_output_layer_is_the_weighted_least_squares_solution(self, problem, lam):
        model, rng = problem
        zd, zs = random_records(model.spec, rng)
        fitted, _ = fit_weighted_lm(
            model, zd, zs, lam, gb.LmConfig(max_iterations=3), theta0=model.theta
        )
        nc = 1 + model.n_hidden
        stacked = build_stacked_system(model, zd, zs)
        x_t = fitted._features(stacked.psi).T
        _, blocks = _mlp_split(fitted.theta, model.n_hidden)
        basis = np.vstack([np.ones(stacked.y.size), _mlp_hidden(blocks, x_t)])
        a = (stacked.weights(lam) * basis).T
        # the solver's normal equations lose up to cond(a)^2 eps against
        # lstsq's SVD; about 1 draw in 170 is conditioned worse than 1e4
        assume(np.linalg.cond(a) <= 1e4)
        expected = np.linalg.lstsq(a, stacked.weights(lam) * stacked.y, rcond=None)[0]
        np.testing.assert_allclose(fitted.theta[:nc], expected, rtol=1e-8)


class TestLapackGufuncs:
    # the LM calls numpy's private gesv gufuncs, and the WLS solve its gelsd
    # gufunc, directly; these tests fail if a numpy release moves them or
    # changes what they return

    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_same_bits_as_numpy_solve_and_inv(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        assume(np.linalg.cond(a) < 1e12)
        x = estimation._lapack_solve(a, b, signature="dd->d")
        assert x.tobytes() == np.linalg.solve(a, b).tobytes()
        inverse = estimation._lapack_inv(a, signature="d->d")
        assert inverse.tobytes() == np.linalg.inv(a).tobytes()

    @pytest.mark.parametrize("a", [np.zeros((2, 2)), np.ones((2, 2))])
    def test_singular_matrix_is_all_nan_without_warnings(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                x = estimation._lapack_solve(a, np.ones(2), signature="dd->d")
                inverse = estimation._lapack_inv(a, signature="d->d")
        assert np.isnan(x).all()
        assert np.isnan(inverse).all()

    @given(n=st.integers(1, 6), extra=st.integers(0, 30), rank=st.integers(0, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_lstsq_has_the_bits_of_numpy_lstsq(self, n, extra, rank, seed):
        # tall systems, full rank or of a lower rank
        rng = np.random.default_rng(seed)
        m, rank = n + extra, min(rank, n)
        a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        b = rng.standard_normal(m)
        x, got_rank, sv = estimation._lstsq(a, b)
        want_x, _, want_rank, want_sv = np.linalg.lstsq(a, b, rcond=None)
        assert x.tobytes() == want_x.tobytes()
        assert got_rank == want_rank
        assert sv.tobytes() == want_sv.tobytes()

    def test_rank_deficient_solve_reports_numpys_rank_and_condition(self, ex1_structure,
                                                                     ex1_data):
        # lambda = 1: example1's three cross-term columns collapse at steady state
        zd, _, zs, _ = ex1_data
        stacked = build_stacked_system(ex1_structure, zd, zs)
        weights = stacked.weights(1.0)
        with pytest.raises(gb.SingularityError) as exc:
            estimation._solve_weighted(stacked.features, stacked.y, weights)
        sw = np.sqrt(weights)
        _, _, rank, sv = np.linalg.lstsq(stacked.features * sw[:, None], stacked.y * sw,
                                         rcond=None)
        assert str(exc.value) == f"weighted normal equations are rank deficient ({rank} < 5)"
        assert exc.value.cond == float(sv[0] / sv[-1])

    def test_failed_svd_reads_as_numpys_error(self):
        # the gufunc flags a failed SVD, which lstsq turns into this LinAlgError
        with pytest.raises(np.linalg.LinAlgError) as numpy_error:
            np.linalg._linalg._raise_linalgerror_lstsq("invalid value", 8)
        with pytest.raises(gb.SingularityError) as exc:
            estimation._lstsq_failed("invalid value", 8)
        assert str(exc.value) == f"least squares failed: {numpy_error.value}"
        assert exc.value.cond == math.inf


class TestInitTheta:
    def test_deterministic(self, ex2_structure):
        a = init_mlp_theta(ex2_structure, 3)
        b = init_mlp_theta(ex2_structure, 3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, init_mlp_theta(ex2_structure, 4))

    def test_bounded_spread(self, ex2_structure):
        theta = init_mlp_theta(ex2_structure, 0)
        assert theta.shape == (7,)
        assert np.max(np.abs(theta)) <= 0.5


class TestWeightedLm:
    def test_zero_budget_returns_initial_point(self, ex2_structure, ex2_data):
        zd, _, zs, _ = ex2_data
        config = gb.LmConfig(max_iterations=0)
        model, trace = fit_weighted_lm(ex2_structure, zd, zs, 0.3, config)
        assert len(trace) == 1
        again, _ = fit_weighted_lm(ex2_structure, zd, zs, 0.3, config)
        assert np.array_equal(model.theta, again.theta)
        other, _ = fit_weighted_lm(
            ex2_structure, zd, zs, 0.3, config, init_seed=1
        )
        assert not np.array_equal(model.theta, other.theta)

    def test_trace_costs_strictly_improve(self, ex2_structure, ex2_data):
        zd, _, zs, _ = ex2_data
        config = gb.LmConfig(max_iterations=25)
        _, trace = fit_weighted_lm(ex2_structure, zd, zs, 0.3, config)
        costs = [record.cost for record in trace]
        assert len(costs) >= 2
        assert all(b < a for a, b in zip(costs, costs[1:]))

    def test_deterministic_given_seed(self, ex2_structure, ex2_data):
        zd, _, zs, _ = ex2_data
        config = gb.LmConfig(max_iterations=15)
        m1, _ = fit_weighted_lm(ex2_structure, zd, zs, 0.2, config, init_seed=1)
        m2, _ = fit_weighted_lm(ex2_structure, zd, zs, 0.2, config, init_seed=1)
        assert np.array_equal(m1.theta, m2.theta)

    def test_explicit_start_is_respected(self, ex2_structure, ex2_data):
        # theta0 supplies the hidden layer; the output layer is always solved
        zd, _, zs, _ = ex2_data
        theta0 = np.full(7, 0.05)
        config = gb.LmConfig(max_iterations=0)
        model, _ = fit_weighted_lm(
            ex2_structure, zd, zs, 0.3, config, theta0=theta0
        )
        assert np.array_equal(model.theta[2:], theta0[2:])
        stacked = build_stacked_system(model, zd, zs)
        w = stacked.weights(0.3)
        hidden = np.tanh(model._features(stacked.psi) @ theta0[3:] + theta0[2])
        expected = np.linalg.lstsq(
            np.column_stack([w, w * hidden]), w * stacked.y, rcond=None
        )[0]
        np.testing.assert_allclose(model.theta[:2], expected, rtol=1e-8)

    @pytest.mark.parametrize("theta0", [np.zeros(5), np.zeros((7, 1))])
    def test_rejects_a_start_of_the_wrong_shape(self, ex2_structure, ex2_data, theta0):
        zd, _, zs, _ = ex2_data
        with pytest.raises(ValueError, match="7 parameters"):
            fit_weighted_lm(ex2_structure, zd, zs, 0.3, theta0=theta0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_overflowing_start_diverges_without_warnings(self, ex2_structure, ex2_data, value):
        # an infinite weight times inputs of both signs makes the hidden
        # layer NaN.  A finite start no longer overflows: tanh bounds the
        # hidden layer and the output layer is solved, not read
        zd, _, zs, _ = ex2_data
        theta0 = np.full(7, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(gb.DivergenceError):
                fit_weighted_lm(ex2_structure, zd, zs, 0.3, theta0=theta0)

    def test_start_with_a_dead_node_raises_at_index_zero(self, ex2_structure, ex2_data):
        # with p = 0 the node's tanh column is exactly zero, so the output
        # layer's normal matrix is singular
        zd, _, zs, _ = ex2_data
        theta0 = np.zeros(7)
        theta0[:2] = 0.5  # never read
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(gb.DivergenceError, match="singular output layer") as exc:
                fit_weighted_lm(ex2_structure, zd, zs, 0.3, theta0=theta0)
        assert exc.value.index == 0

    def test_start_whose_cost_overflows_raises_at_index_zero(self, ex2_structure):
        # outputs of +-1e200 saturate the hidden layer on both sides, so the
        # output layer is solved, but e^T e overflows to inf
        rng = np.random.default_rng(0)
        zd = gb.DynDataset(
            inputs=(rng.uniform(-1.0, 1.0, 40),), output=1e200 * rng.choice([-1.0, 1.0], 40)
        )
        zs = gb.SteadyDataset(u_bar=[0.0, 0.5], y_bar=[0.0, 0.1])
        train = gb.TrainConfig(lam=0.3, algorithm="weighted_lm", lm=gb.LmConfig(5, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(gb.DivergenceError, match="non-finite cost at the initial") as exc:
                gb.fit(ex2_structure, zd, zs, train)
            points = gb.run_sweep(ex2_structure, zd, None, zs, gb.LambdaGrid((0.0, 0.5)), train)
        assert exc.value.index == 0
        assert [p.lam for p in points] == [0.0, 0.5]
        for point in points:
            assert point.model is None and point.j_d is None
            assert point.error == "DivergenceError: non-finite cost at the initial parameters"

    def test_multistart_skips_a_start_with_a_dead_node(self, ex2_structure, ex2_data, monkeypatch):
        zd, _, zs, _ = ex2_data
        config = gb.LmConfig(max_iterations=10, n_starts=3)
        starts = []

        def second_start_dead(model, seed):
            theta = init_mlp_theta(model, seed)
            starts.append(theta)
            return np.zeros_like(theta) if len(starts) == 2 else theta

        monkeypatch.setattr(estimation, "init_mlp_theta", second_start_dead)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, trace = fit_weighted_lm(ex2_structure, zd, zs, 0.3, config)
        monkeypatch.undo()
        fits = [
            fit_weighted_lm(ex2_structure, zd, zs, 0.3, config, theta0=starts[i])
            for i in (0, 2)
        ]
        best_model, best_trace = min(fits, key=lambda fit: fit[1][-1].cost)
        assert np.array_equal(model.theta, best_model.theta)
        assert trace[-1].cost == best_trace[-1].cost

    def test_multistart_never_worse_than_single(self, ex2_structure, ex2_data):
        zd, _, zs, _ = ex2_data
        lam = 0.3
        single, t1 = fit_weighted_lm(
            ex2_structure, zd, zs, lam, gb.LmConfig(max_iterations=30, n_starts=1)
        )
        multi, t3 = fit_weighted_lm(
            ex2_structure, zd, zs, lam, gb.LmConfig(max_iterations=30, n_starts=3)
        )
        assert t3[-1].cost <= t1[-1].cost + 1e-15

    def test_multistart_skips_a_divergent_start(self, ex2_structure, ex2_data, monkeypatch):
        zd, _, zs, _ = ex2_data
        config = gb.LmConfig(max_iterations=10, n_starts=3)
        starts = []

        def second_start_nan(model, seed):
            theta = init_mlp_theta(model, seed)
            starts.append(theta)
            return np.full_like(theta, np.nan) if len(starts) == 2 else theta

        monkeypatch.setattr(estimation, "init_mlp_theta", second_start_nan)
        model, trace = fit_weighted_lm(ex2_structure, zd, zs, 0.3, config)
        monkeypatch.undo()
        fits = [
            fit_weighted_lm(ex2_structure, zd, zs, 0.3, config, theta0=starts[i])
            for i in (0, 2)
        ]
        best_model, best_trace = min(fits, key=lambda fit: fit[1][-1].cost)
        assert np.array_equal(model.theta, best_model.theta)
        assert trace[-1].cost == best_trace[-1].cost

    def test_fits_data_generated_by_an_mlp(self):
        # self-consistency: a 1-node network trained on its own free run
        spec = gb.RegressorSpec(output_lags=(1, 2), input_lags=((1, 2),))
        target_theta = np.array([0.05, 0.8, 0.1, 0.6, -0.3, 0.04, 0.02])
        target = gb.MlpModel(spec, 1, target_theta)
        rng = np.random.default_rng(11)
        u = rng.standard_normal(500)
        run = gb.free_run_on_dataset(target, gb.DynDataset(inputs=(u,), output=np.zeros(500)))
        assert not run.diverged
        zd = gb.DynDataset(inputs=(u,), output=run.y)
        fitted, trace = fit_weighted_lm(
            target, zd, None, 0.0, gb.LmConfig(max_iterations=300, n_starts=5)
        )
        assert trace[-1].j_d < 1e-12

    def test_counter_counts_every_cost_evaluation(self, ex2_structure, ex2_data):
        zd, _, zs, _ = ex2_data
        counter = gb.EvalCounter()
        per_call = (zd.sample_count - 2) + zs.n_pairs
        fit_weighted_lm(
            ex2_structure, zd, zs, 0.3, gb.LmConfig(max_iterations=10),
            counter=counter,
        )
        assert counter.count > 0
        assert counter.count % per_call == 0

    def test_singular_step_is_rejected_without_an_evaluation(
        self, ex2_structure, ex2_data, monkeypatch
    ):
        # the step system comes back all NaN, as gesv returns it when singular;
        # the output layer's system, (1 + n_hidden)-square, is solved as usual.
        # Each such step is a rejected trial, never evaluated, so with enough
        # iterations the damping grows until 1e-3 * 10**18 passes the 1e14 cap
        zd, _, zs, _ = ex2_data
        solve = estimation._lapack_solve
        nc = 1 + ex2_structure.n_hidden
        n_p = ex2_structure.n_params - nc
        step_solves = []

        def singular_step(a, b, signature):
            x = solve(a, b, signature=signature)
            if a.shape != (n_p, n_p):
                return x
            step_solves.append(a)
            return np.full_like(x, np.nan)

        monkeypatch.setattr(estimation, "_lapack_solve", singular_step)
        theta0 = init_mlp_theta(ex2_structure, 0)
        for max_iterations, solves in ((1, 1), (50, 18)):
            step_solves.clear()
            counter = gb.EvalCounter()
            model, trace = fit_weighted_lm(
                ex2_structure, zd, zs, 0.3, gb.LmConfig(max_iterations=max_iterations),
                theta0=theta0, counter=counter,
            )
            assert len(step_solves) == solves
            assert counter.count == (zd.sample_count - 2) + zs.n_pairs
            assert np.array_equal(model.theta[nc:], theta0[nc:])
            assert len(trace) == 1

    def test_divergent_start_raises_with_index(self, ex2_structure, ex2_data, monkeypatch):
        zd, _, zs, _ = ex2_data
        bad = np.array([np.nan, 0, 0, 0, 0, 0, 0])
        with pytest.raises(gb.DivergenceError) as exc:
            fit_weighted_lm(
                ex2_structure, zd, zs, 0.3, gb.LmConfig(max_iterations=5), theta0=bad
            )
        assert exc.value.index == 0
        # with several starts the fit raises only when every one diverges
        monkeypatch.setattr(estimation, "init_mlp_theta", lambda model, seed: bad)
        with pytest.raises(gb.DivergenceError) as exc:
            fit_weighted_lm(
                ex2_structure, zd, zs, 0.3, gb.LmConfig(max_iterations=5, n_starts=3)
            )
        assert exc.value.index == 0

    def test_pinned_result(self, ex2_structure, ex2_data):
        # criteria 2 and 3's settings at lambda 0.5, recorded when LM began
        # to stop on the quadratic model's predicted reduction; the winning
        # start reaches the sign-flipped twin of the earlier optimum
        zd, _, zs, _ = ex2_data
        model, trace = fit_weighted_lm(ex2_structure, zd, zs, 0.5, gb.LmConfig(60, 3))
        expected_theta = [
            -0.043642633539219, 8.033145072483803, 0.00543139685809951,
            0.17347335258809568, -0.0518613933107989, -0.0002675637579811781,
            0.000515101990505055,
        ]
        np.testing.assert_allclose(model.theta, expected_theta, rtol=1e-10)
        last = trace[-1]
        assert last.j_sd == pytest.approx(6.68297673018072e-05, rel=1e-10)
        assert last.cost == pytest.approx(0.03503626683822132, rel=1e-10)
        assert last.iteration == 11
        assert last.model_evaluations == 71668
        # no worse an optimum than the one recorded before the stop
        assert last.cost == pytest.approx(0.035036266838219504, rel=1e-8)

    def test_pinned_result_three_nodes_without_constant(self, ex2_data):
        # the hidden blocks of several nodes, over regressors without the
        # constant slot, at lambda 0.5; recorded before the trials worked on
        # the hidden blocks alone
        zd, _, zs, _ = ex2_data
        spec = gb.RegressorSpec(output_lags=(1, 2), input_lags=((1, 2),), include_constant=False)
        structure = gb.MlpModel(spec, 3, np.zeros(gb.MlpModel.n_params_for(spec, 3)))
        model, trace = fit_weighted_lm(structure, zd, zs, 0.5, gb.LmConfig(60, 3))
        expected_theta = [
            0.15905394003617426, -0.0044394260409430265, 6.994110621422928,
            -0.028021461513474278, -0.20634464806752437, -0.9352637694851833,
            -0.22617573115122985, -0.3246493277646977, 0.3859644265398713,
            -0.023326893770967312, 0.1866910435611669, -0.05015533727321699,
            -0.0009883111424121927, 0.0011973050265056703, -0.11518330035380221,
            -0.042312149806025365, 0.6610682679334641, -0.8322781830595657,
            -0.5529862290012573,
        ]
        np.testing.assert_allclose(model.theta, expected_theta, rtol=1e-10)
        last = trace[-1]
        assert last.j_sd == pytest.approx(4.488760872969725e-05, rel=1e-10)
        assert last.cost == pytest.approx(0.02759921166356919, rel=1e-10)
        assert last.iteration == 23
        assert last.model_evaluations == 131100

    def test_pinned_warm_started_chain(self, ex2_structure, ex2_data):
        # a sweep's chain: lambda 0.1 from the seeded starts, then 0.5 and
        # 0.9 each from the fit before; recorded when the previous test was
        zd, _, zs, _ = ex2_data
        theta0, fits = None, []
        for lam in (0.1, 0.5, 0.9):
            model, trace = fit_weighted_lm(
                ex2_structure, zd, zs, lam, gb.LmConfig(60, 3), theta0=theta0
            )
            theta0 = model.theta
            fits.append((trace[-1].cost, trace[-1].iteration, trace[-1].model_evaluations))
        expected_theta = [
            -0.015822194684221566, 37.20419751351195, 0.00042518270572427,
            0.03786308064017989, -0.010992817109274685, -8.061750013939865e-05,
            8.159370881432924e-05,
        ]
        np.testing.assert_allclose(model.theta, expected_theta, rtol=1e-10)
        # each fit's cost, accepted steps, evaluations, and the cost recorded
        # before the predicted-reduction stop, which it may not exceed by 1e-8
        expected_fits = [
            (0.08886828572980648, 12, 31464, 0.08886828572980622),
            (0.03503626683823024, 10, 20976, 0.03503626683821951),
            (0.0014434843582259995, 5, 17480, 0.0014434843516891675),
        ]
        for (cost, iteration, evals), (want_cost, want_iteration, want_evals, before) in zip(
            fits, expected_fits, strict=True
        ):
            assert cost == pytest.approx(want_cost, rel=1e-10)
            assert (iteration, evals) == (want_iteration, want_evals)
            assert cost == pytest.approx(before, rel=1e-8)

    def test_output_layer_stays_within_the_conditioning_bound(self, ex2_structure, ex2_data):
        # at lambda 0.9 the cost keeps falling, by about 3e-5 relative, as
        # the node turns linear and b0 and w_out grow to cancel each other
        # (to |w_out| ~ 1600 and cond ~ 5e6 without the bound)
        zd, _, zs, _ = ex2_data
        model, _ = fit_weighted_lm(ex2_structure, zd, zs, 0.9, gb.LmConfig(60, 3))
        stacked = build_stacked_system(model, zd, zs)
        hidden = _mlp_hidden(_mlp_split(model.theta, 1)[1], model._features(stacked.psi).T)
        a = stacked.weights(0.9) * np.vstack([np.ones(stacked.y.size), hidden])
        assert np.linalg.cond(a @ a.T, 1) <= estimation._LM_MAX_OUTPUT_CONDITION * (1 + 1e-9)

    def test_nonzero_lambda_needs_statics(self, ex2_structure, ex2_data):
        zd, _, _, _ = ex2_data
        with pytest.raises(ValueError, match="steady-state"):
            fit_weighted_lm(
                ex2_structure, zd, None, 0.3, gb.LmConfig(max_iterations=1)
            )


class TestGaLegacy:
    def test_zero_generations_cost_no_more_than_the_seed(self, ex1_data, ex1_structure):
        # the seed joins the initial population unchanged, so its best
        # individual, all that zero generations return, costs no more
        zd, _, zs, _ = ex1_data
        seed_model = fit_wls(ex1_structure, zd, None, 0.0)
        config = gb.GaConfig(population_size=6, generations=0)
        out, trace = fit_ga_legacy(seed_model, zd, zs, 0.3, config)
        assert len(trace) == 1

        def ga_cost(model):
            j_s = gb.cost_js_legacy(model, zs, gb.FixedPointConfig(fixed_horizon=15))
            return (1.0 - 0.3) * gb.cost_jd(model, zd) + 0.3 * j_s

        assert trace[0].cost == ga_cost(out) <= ga_cost(seed_model)

    def test_deterministic_given_seed(self, ex1_data, ex1_structure):
        zd, _, zs, _ = ex1_data
        seed_model = fit_wls(ex1_structure, zd, None, 0.0)
        config = gb.GaConfig(population_size=8, generations=3)
        a, _ = fit_ga_legacy(seed_model, zd, zs, 0.3, config, seed=5)
        b, _ = fit_ga_legacy(seed_model, zd, zs, 0.3, config, seed=5)
        assert np.array_equal(a.theta, b.theta)
        c, _ = fit_ga_legacy(seed_model, zd, zs, 0.3, config, seed=6)
        assert not np.array_equal(a.theta, c.theta)

    def test_elitism_makes_trace_monotone(self, ex1_data, ex1_structure):
        zd, _, zs, _ = ex1_data
        seed_model = fit_wls(ex1_structure, zd, None, 0.0)
        config = gb.GaConfig(population_size=10, generations=5)
        _, trace = fit_ga_legacy(seed_model, zd, zs, 0.3, config, seed=2)
        assert len(trace) == 6  # initial scoring plus one record per generation
        costs = [record.cost for record in trace]
        assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_uses_settling_cost_not_substitution(self, ex1_data, ex1_structure):
        zd, _, zs, _ = ex1_data
        seed_model = fit_wls(ex1_structure, zd, None, 0.0)
        counter = gb.EvalCounter()
        config = gb.GaConfig(population_size=4, generations=1)
        fit_ga_legacy(seed_model, zd, zs, 0.3, config, counter=counter)
        # by default each steady state costs the 15-step horizon
        per_call = (zd.sample_count - 2) + zs.n_pairs * 15
        # initial population of 4 plus 3 fresh children (elite carried over)
        assert counter.count == (4 + 3) * per_call

    def test_nan_cost_never_wins(self):
        # the largest float on an input that is always 0: the seed predicts
        # finitely, but every upward perturbation of that gene overflows to
        # inf, and inf * 0 = NaN; at lambda 1 such a candidate scores
        # 0 * NaN = NaN, and the finite seed stays the elite instead
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1,),))
        seed_model = gb.PolynomialModel(spec, ((1,), (2,)), np.array([0.5, sys.float_info.max]))
        zd = gb.DynDataset(inputs=(np.zeros(20),), output=0.5 ** np.arange(20))
        zs = gb.SteadyDataset(u_bar=np.zeros((2, 1)), y_bar=np.zeros(2))
        config = gb.GaConfig(population_size=8, generations=0)
        out, trace = fit_ga_legacy(seed_model, zd, zs, 1.0, config)
        assert np.array_equal(out.theta, seed_model.theta)
        assert all(math.isfinite(record.cost) for record in trace)

    def test_overflowing_population_diverges(self):
        # a seed of 1.5e308 in every gene, of either structure: its
        # perturbations overflow, and breeding from them raises, without a
        # floating-point warning
        config = gb.GaConfig(population_size=3, generations=3)
        fp = gb.FixedPointConfig(max_iterations=3)
        for example in ("example1", "example2"):
            zd, _, zs, _ = gb.make_datasets(example, 0)
            structure = gb.example_structure(example)
            seed_model = structure.with_theta(np.full(structure.n_params, 1.5e308))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(gb.DivergenceError, match="GA overflowed"):
                    fit_ga_legacy(seed_model, zd, zs, 0.5, config, fp)


class TestTraceCsv:
    def test_columns_and_length(self, tmp_path, ex2_structure, ex2_data):
        zd, _, zs, _ = ex2_data
        _, trace = fit_weighted_lm(
            ex2_structure, zd, zs, 0.3, gb.LmConfig(max_iterations=8)
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace, "j_s_hat")
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,j_d,j_s_hat,j_sd,wall_time_ms,model_evaluations"
        assert len(lines) == len(trace) + 1


def counted(run):
    """``run(counter)``'s θ, its trace records without their wall times
    (None for a closed-form fit), and its evaluation count, every float as
    its repr, so that equal results are equal bits."""
    counter = gb.EvalCounter()
    model, trace = run(counter)
    records = None if trace is None else [
        [repr(v) for k, v in vars(record).items() if k != "wall_time_ms"] for record in trace
    ]
    return [repr(v) for v in model.theta.tolist()], records, counter.count


class TestFitDispatch:
    """``gb.fit`` returns what the estimator it dispatches to returns for the
    same inputs: the same θ, trace costs and evaluation counts."""

    @pytest.mark.parametrize("lam", [0.0, 0.4])
    def test_ols_and_wls_are_fit_wls(self, ex1_structure, ex1_data, lam):
        # the black box (lambda 0 without zs, ordinary least squares) and wls
        zd, _, zs, _ = ex1_data
        for data in ((None, 0.0), (zs, lam)):
            train = gb.TrainConfig(lam=data[1])
            via_fit = counted(lambda c: gb.fit(ex1_structure, zd, data[0], train, counter=c))
            alone = counted(lambda c: (fit_wls(ex1_structure, zd, *data, counter=c), None))
            assert via_fit == alone, data[1]

    def test_weighted_lm_from_a_seed_model_is_one_start_from_its_theta(
        self, ex2_structure, ex2_data
    ):
        zd, _, zs, _ = ex2_data
        lm = gb.LmConfig(max_iterations=20, n_starts=3)
        train = gb.TrainConfig(lam=0.3, algorithm="weighted_lm", lm=lm, init_seed=2)
        theta = init_mlp_theta(ex2_structure, 5)
        seed_model = ex2_structure.with_theta(theta)
        via_fit = counted(
            lambda c: gb.fit(ex2_structure, zd, zs, train, counter=c, seed_model=seed_model)
        )
        alone = counted(lambda c: fit_weighted_lm(
            ex2_structure, zd, zs, 0.3, lm, init_seed=2, theta0=theta, counter=c
        ))
        assert via_fit == alone

    def test_weighted_lm_without_a_seed_model_is_the_multi_start(self, ex2_structure, ex2_data):
        zd, _, zs, _ = ex2_data
        lm = gb.LmConfig(max_iterations=20, n_starts=3)
        train = gb.TrainConfig(lam=0.3, algorithm="weighted_lm", lm=lm, init_seed=2)
        via_fit = counted(lambda c: gb.fit(ex2_structure, zd, zs, train, counter=c))
        alone = counted(
            lambda c: fit_weighted_lm(ex2_structure, zd, zs, 0.3, lm, init_seed=2, counter=c)
        )
        assert via_fit == alone

    @pytest.mark.parametrize("fixed_point", [None, gb.FixedPointConfig(fixed_horizon=5)])
    def test_ga_legacy_from_a_seed_model(self, ex1_structure, ex1_data, fixed_point):
        # None leaves both defaults, which are the one 15-step horizon
        zd, _, zs, _ = ex1_data
        seed_model = fit_wls(ex1_structure, zd, None, 0.0)
        ga = gb.GaConfig(population_size=6, generations=2)
        fp = {} if fixed_point is None else {"fixed_point": fixed_point}
        train = gb.TrainConfig(lam=0.3, algorithm="ga_legacy", ga=ga, init_seed=1, **fp)
        via_fit = counted(
            lambda c: gb.fit(ex1_structure, zd, zs, train, counter=c, seed_model=seed_model)
        )
        fp = {} if fixed_point is None else {"fp_config": fixed_point}
        alone = counted(
            lambda c: fit_ga_legacy(seed_model, zd, zs, 0.3, ga, counter=c, seed=1, **fp)
        )
        assert via_fit == alone

    def test_fit_refuses_what_the_estimators_do_not_check(
        self, ex1_structure, ex2_structure, ex1_data, ex2_data
    ):
        zd1, _, zs1, _ = ex1_data
        zd2, _, zs2, _ = ex2_data
        for structure, zd, zs, algorithm in (
            (ex1_structure, zd1, None, "ga_legacy"),
            (ex1_structure, zd1, zs1, "weighted_lm"),
            (ex2_structure, zd2, zs2, "wls"),
        ):
            with pytest.raises(gb.ConfigError):
                gb.fit(structure, zd, zs, gb.TrainConfig(lam=0.5, algorithm=algorithm))
