"""Estimators: weighted least squares, damped Gauss-Newton, the GA baseline."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import greybox as gb
from greybox.data import EXAMPLE1, simulate_system
from greybox.estimation import (
    build_stacked_system,
    init_mlp_theta,
    mlp_jacobian,
    model_jacobian,
    write_trace_csv,
)
from greybox.models import EXAMPLE1_TRUE_THETA


def noiseless_split(seed=7, n=400):
    rng = np.random.default_rng(seed)
    u = -0.02 + 0.2 * rng.standard_normal(n)
    zd = simulate_system(EXAMPLE1, u)
    zs = gb.steady_curve_of_system(EXAMPLE1, np.linspace(-1, 3, 50))
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
        fit = gb.fit_ols(model, zd)
        assert fit.theta[0] == pytest.approx(2.0, abs=1e-14)

    def test_recovers_true_parameters_without_noise(self, ex1_structure):
        zd, zs = noiseless_split()
        for lam in (0.0, 0.1, 0.5, 0.9):
            fit = gb.fit_wls(ex1_structure, zd, zs, lam)
            assert np.max(np.abs(fit.theta - EXAMPLE1_TRUE_THETA)) < 1e-6

    def test_wls_lambda_zero_matches_ols(self, ex1_structure, ex1_data):
        zd, _, zs, _ = ex1_data
        ols_count, wls_count = gb.EvalCounter(), gb.EvalCounter()
        a = gb.fit_ols(ex1_structure, zd, counter=ols_count)
        b = gb.fit_wls(ex1_structure, zd, zs, 0.0, counter=wls_count)
        assert np.max(np.abs(a.theta - b.theta)) < 1e-12
        # one evaluation per solved row; wls adds the static pseudo-samples
        assert ols_count.count == zd.sample_count - ex1_structure.spec.max_lag
        assert wls_count.count == ols_count.count + zs.n_pairs

    def test_wls_without_statics_requires_lambda_zero(self, ex1_structure, ex1_data):
        zd, _, _, _ = ex1_data
        fit = gb.fit_wls(ex1_structure, zd, None, 0.0)
        assert fit.theta.shape == (5,)
        with pytest.raises(ValueError):
            gb.fit_wls(ex1_structure, zd, None, 0.3)

    def test_weighted_normal_equations_hold_at_optimum(self, ex1_structure, ex1_data):
        zd, _, zs, _ = ex1_data
        lam = 0.3
        fit = gb.fit_wls(ex1_structure, zd, zs, lam)
        stacked = build_stacked_system(fit, zd, zs, lam)
        residual = stacked.y - stacked.psi @ fit.theta
        gradient = stacked.psi.T @ (stacked.weights * residual)
        assert np.max(np.abs(gradient)) < 1e-10

    def test_stacked_block_sizes_and_weights(self, ex1_structure, ex1_data):
        zd, _, zs, _ = ex1_data
        stacked = build_stacked_system(ex1_structure, zd, zs, 0.25)
        assert stacked.n_dynamic == zd.sample_count - 2
        assert stacked.n_static == zs.n_pairs
        assert np.all(stacked.weights[: stacked.n_dynamic] == 0.75)
        assert np.all(stacked.weights[stacked.n_dynamic :] == 0.25)

    def test_static_only_system_is_rank_deficient(self, ex1_structure, ex1_data):
        # the three cross-term columns collapse to u_bar*y_bar at steady state
        zd, _, zs, _ = ex1_data
        with pytest.raises(gb.SingularityError) as exc:
            gb.fit_wls(ex1_structure, zd, zs, 1.0)
        assert exc.value.cond > 1e12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the cubic column overflows
    def test_overflowing_design_matrix_is_singular(self):
        # finite outputs near 1e120 put inf into the cubic output column
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1,),))
        model = gb.PolynomialModel(spec, ((1, 1, 1), (2,)), np.zeros(2))
        rng = np.random.default_rng(0)
        zd = gb.DynDataset(
            inputs=(rng.standard_normal(20),), output=1e120 * rng.uniform(1.0, 2.0, 20)
        )
        with pytest.raises(gb.SingularityError) as exc:
            gb.fit_ols(model, zd)
        assert exc.value.cond == np.inf

    @given(lam=st.floats(min_value=0.0, max_value=0.9))
    def test_perturbations_never_beat_the_optimum(self, lam):
        rng = np.random.default_rng(int(lam * 1e6) + 1)
        model, zd, zs = random_poly_problem(rng)
        fit = gb.fit_wls(model, zd, zs, lam)
        stacked = build_stacked_system(fit, zd, zs, lam)

        def weighted_cost(theta):
            r = stacked.y - stacked.psi @ theta
            return float(np.sum(stacked.weights * r * r))

        best = weighted_cost(fit.theta)
        for _ in range(10):
            probe = fit.theta + rng.standard_normal(fit.theta.size) * 1e-3
            assert weighted_cost(probe) >= best - 1e-12


class TestJacobians:
    def test_polynomial_jacobian_is_design_matrix(self, ex1_true_model):
        rng = np.random.default_rng(1)
        psi = rng.standard_normal((8, 5))
        jac = model_jacobian(ex1_true_model, psi)
        assert np.array_equal(jac, ex1_true_model.design_matrix(psi))

    def test_mlp_jacobian_against_central_differences(self):
        spec = gb.RegressorSpec(output_lags=(1, 2), input_lags=((1, 2),))
        rng = np.random.default_rng(4)
        n_hidden = 3
        q = 1 + n_hidden + n_hidden * 5
        for _ in range(10):
            theta = rng.uniform(-2, 2, q)
            model = gb.MlpModel(spec, n_hidden, theta)
            psi = rng.uniform(-2, 2, (6, 5))
            jac = mlp_jacobian(model, psi)
            step = 1e-6
            for j in range(q):
                bumped_up = theta.copy()
                bumped_up[j] += step
                bumped_dn = theta.copy()
                bumped_dn[j] -= step
                up = gb.MlpModel(spec, n_hidden, bumped_up).predict(psi)
                dn = gb.MlpModel(spec, n_hidden, bumped_dn).predict(psi)
                fd = (up - dn) / (2 * step)
                scale = np.maximum(np.abs(fd), 1.0)
                assert np.max(np.abs(jac[:, j] - fd) / scale) < 1e-5


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
        model, trace = gb.fit_weighted_lm(ex2_structure, zd, zs, 0.3, config)
        assert len(trace) == 1
        again, _ = gb.fit_weighted_lm(ex2_structure, zd, zs, 0.3, config)
        assert np.array_equal(model.theta, again.theta)
        other, _ = gb.fit_weighted_lm(
            ex2_structure, zd, zs, 0.3, config, init_seed=1
        )
        assert not np.array_equal(model.theta, other.theta)

    def test_trace_costs_strictly_improve(self, ex2_structure, ex2_data):
        zd, _, zs, _ = ex2_data
        config = gb.LmConfig(max_iterations=25)
        _, trace = gb.fit_weighted_lm(ex2_structure, zd, zs, 0.3, config)
        costs = [record.cost for record in trace]
        assert len(costs) >= 2
        assert all(b < a for a, b in zip(costs, costs[1:]))

    def test_deterministic_given_seed(self, ex2_structure, ex2_data):
        zd, _, zs, _ = ex2_data
        config = gb.LmConfig(max_iterations=15)
        m1, _ = gb.fit_weighted_lm(ex2_structure, zd, zs, 0.2, config, init_seed=1)
        m2, _ = gb.fit_weighted_lm(ex2_structure, zd, zs, 0.2, config, init_seed=1)
        assert np.array_equal(m1.theta, m2.theta)

    def test_explicit_start_is_respected(self, ex2_structure, ex2_data):
        zd, _, zs, _ = ex2_data
        theta0 = np.full(7, 0.05)
        config = gb.LmConfig(max_iterations=0)
        model, _ = gb.fit_weighted_lm(
            ex2_structure, zd, zs, 0.3, config, theta0=theta0
        )
        assert np.array_equal(model.theta, theta0)

    def test_multistart_never_worse_than_single(self, ex2_structure, ex2_data):
        zd, _, zs, _ = ex2_data
        lam = 0.3
        single, t1 = gb.fit_weighted_lm(
            ex2_structure, zd, zs, lam, gb.LmConfig(max_iterations=30, n_starts=1)
        )
        multi, t3 = gb.fit_weighted_lm(
            ex2_structure, zd, zs, lam, gb.LmConfig(max_iterations=30, n_starts=3)
        )
        assert t3[-1].cost <= t1[-1].cost + 1e-15

    def test_fits_data_generated_by_an_mlp(self):
        # self-consistency: a 1-node network trained on its own free run
        spec = gb.RegressorSpec(output_lags=(1, 2), input_lags=((1, 2),))
        target_theta = np.array([0.05, 0.8, 0.1, 0.6, -0.3, 0.04, 0.02])
        target = gb.MlpModel(spec, 1, target_theta)
        rng = np.random.default_rng(11)
        u = rng.standard_normal(500)
        run = gb.free_run(target, [u])
        assert not run.diverged
        zd = gb.DynDataset(inputs=(u,), output=run.y)
        fitted, trace = gb.fit_weighted_lm(
            target, zd, None, 0.0, gb.LmConfig(max_iterations=300, n_starts=5)
        )
        assert trace[-1].j_d < 1e-12

    def test_counter_counts_every_cost_evaluation(self, ex2_structure, ex2_data):
        zd, _, zs, _ = ex2_data
        counter = gb.EvalCounter()
        per_call = (zd.sample_count - 2) + zs.n_pairs
        gb.fit_weighted_lm(
            ex2_structure, zd, zs, 0.3, gb.LmConfig(max_iterations=10),
            counter=counter,
        )
        assert counter.count > 0
        assert counter.count % per_call == 0

    def test_divergent_start_raises_with_index(self, ex2_structure, ex2_data):
        zd, _, zs, _ = ex2_data
        bad = np.array([np.nan, 0, 0, 0, 0, 0, 0])
        with pytest.raises(gb.DivergenceError) as exc:
            gb.fit_weighted_lm(
                ex2_structure, zd, zs, 0.3, gb.LmConfig(max_iterations=5), theta0=bad
            )
        assert exc.value.index == 0

    def test_nonzero_lambda_needs_statics(self, ex2_structure, ex2_data):
        zd, _, _, _ = ex2_data
        with pytest.raises(ValueError, match="steady-state"):
            gb.fit_weighted_lm(
                ex2_structure, zd, None, 0.3, gb.LmConfig(max_iterations=1)
            )


class TestGaLegacy:
    def test_zero_spread_zero_generations_returns_seed(self, ex1_data, ex1_structure):
        zd, _, zs, _ = ex1_data
        seed_model = gb.fit_ols(ex1_structure, zd)
        config = gb.GaConfig(population_size=6, generations=0, init_spread=0.0)
        out, trace = gb.fit_ga_legacy(seed_model, zd, zs, 0.3, config)
        assert np.array_equal(out.theta, seed_model.theta)
        assert len(trace) == 1

    def test_deterministic_given_seed(self, ex1_data, ex1_structure):
        zd, _, zs, _ = ex1_data
        seed_model = gb.fit_ols(ex1_structure, zd)
        config = gb.GaConfig(population_size=8, generations=3, seed=5)
        a, _ = gb.fit_ga_legacy(seed_model, zd, zs, 0.3, config)
        b, _ = gb.fit_ga_legacy(seed_model, zd, zs, 0.3, config)
        assert np.array_equal(a.theta, b.theta)

    def test_elitism_makes_trace_monotone(self, ex1_data, ex1_structure):
        zd, _, zs, _ = ex1_data
        seed_model = gb.fit_ols(ex1_structure, zd)
        config = gb.GaConfig(population_size=10, generations=5, seed=2)
        _, trace = gb.fit_ga_legacy(seed_model, zd, zs, 0.3, config)
        assert len(trace) == 6  # initial scoring plus one record per generation
        costs = [record.cost for record in trace]
        assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_uses_settling_cost_not_substitution(self, ex1_data, ex1_structure):
        zd, _, zs, _ = ex1_data
        seed_model = gb.fit_ols(ex1_structure, zd)
        counter = gb.EvalCounter()
        config = gb.GaConfig(population_size=4, generations=1, seed=0)
        horizon = gb.FixedPointConfig(fixed_horizon=15)
        gb.fit_ga_legacy(
            seed_model, zd, zs, 0.3, config, fp_config=horizon, counter=counter
        )
        per_call = (zd.sample_count - 2) + zs.n_pairs * 15
        # initial population of 4 plus 3 fresh children (elite carried over)
        assert counter.count == (4 + 3) * per_call


class TestTraceCsv:
    def test_columns_and_length(self, tmp_path, ex2_structure, ex2_data):
        zd, _, zs, _ = ex2_data
        _, trace = gb.fit_weighted_lm(
            ex2_structure, zd, zs, 0.3, gb.LmConfig(max_iterations=8)
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace, "j_s_hat")
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,j_d,j_s_hat,j_sd,wall_time_ms,model_evaluations"
        assert len(lines) == len(trace) + 1
