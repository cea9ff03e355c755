"""Fixed-point iteration, static costs, the substitution shortcut."""

import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import greybox as gb
from greybox.data import EXAMPLE1, steady_curve_of_system
from greybox.estimation import init_mlp_theta
from greybox.models import DIVERGENCE_BOUND, EXAMPLE1_TRUE_THETA


def scalar_affine(a, b):
    """Model y(k) = a y(k-1) + b with one ignored input channel."""
    spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1,),))
    return gb.PolynomialModel(spec, ((1,), (0,)), np.array([a, b]))


# any finite float, drawn moderate half the time so that many runs stay bounded
finite = st.one_of(
    st.floats(min_value=-2.0, max_value=2.0), st.floats(allow_nan=False, allow_infinity=False)
)


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.fixture(scope="module")
def true_model():
    structure = gb.example_structure("example1")
    return gb.PolynomialModel(structure.spec, structure.terms, EXAMPLE1_TRUE_THETA)


def fixed_point(model, u_bar, config=None):
    """One fixed point as a one-level static curve: ``(y_bar, steps,
    converged)``, ``y_bar`` NaN unless converged."""
    counter = gb.EvalCounter()
    curve = gb.model_static_curve(model, [u_bar], config, counter=counter)
    return curve.y_bar[0], counter.count, bool(curve.converged[0])


class TestFixedPointIterate:
    def test_zero_model_settles_immediately(self):
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=())
        model = gb.PolynomialModel(spec, ((1,),), np.zeros(1))
        assert fixed_point(model, ()) == (0.0, 1, True)

    @given(
        a=st.floats(min_value=-0.9, max_value=0.9),
        b=st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_affine_map_reaches_analytic_fixed_point(self, a, b):
        y_bar, _, converged = fixed_point(
            scalar_affine(a, b),
            (0.0,),
            gb.FixedPointConfig(max_iterations=5000, tolerance=1e-13),
        )
        assert converged
        assert y_bar == pytest.approx(b / (1.0 - a), abs=1e-8)

    def test_oscillating_map_does_not_converge(self):
        _, steps, converged = fixed_point(
            scalar_affine(-1.0, 1.0), (0.0,), gb.FixedPointConfig(max_iterations=40)
        )
        assert not converged
        assert steps == 40

    def test_divergence_stops_early(self):
        # 2 y + 1 from 0 reads 2**k - 1 at step k, past 1e6 at step 20
        y_bar, steps, converged = fixed_point(scalar_affine(2.0, 1.0), (0.0,))
        assert not converged and math.isnan(y_bar)
        assert steps == 20

    def test_fixed_horizon_runs_exactly_n_steps(self):
        model = scalar_affine(0.0, 2.0)
        assert fixed_point(model, (0.0,), gb.FixedPointConfig(fixed_horizon=7)) == (2.0, 7, True)

    def test_budget_does_not_size_the_buffer(self):
        config = gb.FixedPointConfig(max_iterations=10**15, tolerance=1e-12)
        y_bar, _, converged = fixed_point(scalar_affine(0.5, 1.0), (0.0,), config)
        assert converged
        assert y_bar == pytest.approx(2.0, abs=1e-11)

    def test_counter_tracks_evaluations(self):
        counter = gb.EvalCounter()
        gb.model_static_curve(
            scalar_affine(0.5, 1.0),
            [(0.0,), (1.0,)],
            gb.FixedPointConfig(fixed_horizon=9),
            counter=counter,
        )
        assert counter.count == 18

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow to inf is allowed
    @given(
        data=st.data(),
        kind=st.sampled_from(["polynomial", "mlp"]),
        u_bar=finite,
        # short runs, and runs of over a thousand steps
        horizon=st.one_of(st.integers(1, 40), st.integers(1020, 2100)),
    )
    def test_fixed_horizon_is_free_run_at_constant_input(self, data, kind, u_bar, horizon):
        spec = gb.RegressorSpec(output_lags=(1, 2), input_lags=((1, 2),))
        if kind == "polynomial":
            terms = ((), (1,), (2, 3), (1, 1, 4), (3,))
            theta = data.draw(st.lists(finite, min_size=5, max_size=5))
            model = gb.PolynomialModel(spec, terms, np.array(theta))
        else:
            n_params = gb.MlpModel.n_params_for(spec, 2)
            theta = data.draw(st.lists(finite, min_size=n_params, max_size=n_params))
            model = gb.MlpModel(spec, 2, np.array(theta))
        config = gb.FixedPointConfig(fixed_horizon=horizon)
        y_bar, steps, converged = fixed_point(model, (u_bar,), config)
        n = 2 + horizon
        record = gb.DynDataset(inputs=(np.full(n, u_bar),), output=np.zeros(n))
        run = gb.free_run_on_dataset(model, record)
        if run.diverged:
            assert not converged
            assert steps == run.diverged_at - 1
        else:
            assert converged and steps == horizon
            assert same_bits(y_bar, run.y[-1])

    def test_two_lag_model_converges_on_both_slots(self, true_model):
        # settling needs the last two iterates within tolerance, not just one
        y_bar, _, converged = fixed_point(
            true_model, (1.0,), gb.FixedPointConfig(max_iterations=5000)
        )
        assert converged
        assert y_bar == pytest.approx(5.0 / 9.0, abs=1e-8)


class TestStaticCosts:
    def test_substitution_residual_hand_value(self):
        # constant-2 model against two pairs at y_bar = 0: cost is 2^2
        model = scalar_affine(0.0, 2.0)
        zs = gb.SteadyDataset(u_bar=np.array([[0.0], [1.0]]), y_bar=np.zeros(2))
        assert gb.cost_js_hat(model, zs) == 4.0

    def test_dynamic_cost_hand_value(self):
        model = scalar_affine(0.0, 2.0)
        zd = gb.DynDataset(inputs=(np.zeros(4),), output=np.array([0.0, 1.0, 3.0, 2.0]))
        # predictions are all 2; residuals at k=1..3 are (1, -1, 0) -> wait:
        # targets y(1..3) = 1, 3, 2 minus 2 gives -1, 1, 0 -> mean square 2/3
        assert gb.cost_jd(model, zd) == pytest.approx(2.0 / 3.0, abs=1e-15)
        # a record the model predicts exactly costs nothing
        flat = gb.DynDataset(inputs=(np.zeros(3),), output=np.full(3, 2.0))
        assert gb.cost_jd(model, flat) == 0.0

    def test_legacy_cost_caps_divergent_pairs(self):
        # iteration 0 -> 1 -> 3 -> 7 ... leaves 1e6; contribution is bound^2
        model = scalar_affine(2.0, 1.0)
        zs = gb.SteadyDataset(u_bar=np.array([[0.5]]), y_bar=np.array([0.0]))
        assert gb.cost_js_legacy(model, zs) == 1e12

    def test_legacy_cost_caps_large_residuals(self):
        # converged at -9e5 against 5e5: residual^2 would be 1.96e12, cap is 1e12
        model = scalar_affine(0.0, -9e5)
        zs = gb.SteadyDataset(u_bar=np.array([[0.5]]), y_bar=np.array([5e5]))
        assert gb.cost_js_legacy(model, zs) == 1e12
        # under the default bound a residual of 2 at both pairs stays uncapped
        two_pairs = gb.SteadyDataset(u_bar=np.array([[0.0], [1.0]]), y_bar=np.zeros(2))
        assert gb.cost_js_legacy(scalar_affine(0.0, 2.0), two_pairs) == 4.0

    def test_legacy_cost_caps_huge_measured_values(self):
        # a residual of 1e300 would overflow when squared; it is capped first
        zs = gb.SteadyDataset(u_bar=np.array([[0.5]]), y_bar=np.array([1e300]))
        cost = gb.cost_js_legacy(scalar_affine(0.0, 5.0), zs)
        assert cost == 1e12

    @pytest.mark.parametrize("example", ["example1", "example2"])
    def test_legacy_cost_of_an_overflowing_model_does_not_warn(self, example):
        # _predict_psi's numpy products overflow to inf, which fails a pair
        structure = gb.example_structure(example)
        model = structure.with_theta(np.full(structure.n_params, 1e308))
        zs = gb.make_datasets(example, 0)[2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cost = gb.cost_js_legacy(model, zs, gb.FixedPointConfig(max_iterations=3))
        assert math.isfinite(cost) and cost > 0.0
        if example == "example1":  # every pair diverges
            assert cost == 1e12

    def test_legacy_cost_matches_per_pair_iteration(self, ex1_data):
        # the per-pair loop cost_js_legacy ran before it was folded onto
        # model_static_curve, kept as the bit-level reference
        def reference(model, zs, config):
            cap = DIVERGENCE_BOUND**2
            total = 0.0
            for u_row, y_meas in zip(zs.u_bar, zs.y_bar.tolist()):
                y_bar, _, converged = fixed_point(model, u_row, config)
                total += min((y_meas - y_bar) ** 2, cap) if converged else cap
            return total / zs.n_pairs

        measured = ex1_data[2]
        # the same pairs measured 2e6 higher, so that every residual is capped
        far = gb.SteadyDataset(u_bar=measured.u_bar, y_bar=measured.y_bar + 2e6)
        structure = gb.example_structure("example1")
        # the third model is unstable at the upper end of the input range
        thetas = [EXAMPLE1_TRUE_THETA, [0.7, 0.3, -0.1, 0.05, 0.0], [0.9, 0.25, 0.2, 0.0, 0.0]]
        outcomes = set()
        for theta, horizon, zs in itertools.product(thetas, [None, 15], [measured, far]):
            model = structure.with_theta(theta)
            config = gb.FixedPointConfig(fixed_horizon=horizon)
            cost = gb.cost_js_legacy(model, zs, config)
            assert same_bits(cost, reference(model, zs, config))
            curve = gb.model_static_curve(model, zs.u_bar, config)
            residual = (zs.y_bar - curve.y_bar)[curve.converged] ** 2
            outcomes |= {"diverged"} if not curve.converged.all() else set()
            outcomes |= {"capped"} if np.any(residual > DIVERGENCE_BOUND**2) else set()
        assert outcomes == {"diverged", "capped"}

    def test_substitution_equals_naive_reimplementation(self, true_model):
        rng = np.random.default_rng(2)
        u = rng.uniform(-1, 3, 20)
        zs = steady_curve_of_system(EXAMPLE1, u)
        rows = gb.build_static_regressors(true_model.spec, zs)
        naive = float(np.mean((zs.y_bar - true_model.predict(rows)) ** 2))
        assert gb.cost_js_hat(true_model, zs) == pytest.approx(naive, abs=1e-15)

    def test_true_model_has_vanishing_costs(self, true_model):
        zs = steady_curve_of_system(EXAMPLE1, np.linspace(-1, 3, 25))
        assert gb.cost_js_hat(true_model, zs) < 1e-20
        assert (
            gb.cost_js_legacy(
                true_model, zs, gb.FixedPointConfig(max_iterations=5000)
            )
            < 1e-16
        )

    def test_interpolating_mlp_satisfies_both_costs(self):
        # solve the output bias so one steady pair is interpolated exactly,
        # with hidden weights shrunk until the map is a contraction
        spec = gb.RegressorSpec(output_lags=(1, 2), input_lags=((1, 2),))
        rng = np.random.default_rng(0)
        base = gb.MlpModel(spec, 2, init_mlp_theta(gb.MlpModel(spec, 2, np.zeros(13)), 5))
        theta = base.theta.copy()
        theta[1:3] *= 0.2
        u_bar, y_bar = 0.7, -0.4
        zs = gb.SteadyDataset(u_bar=np.array([[u_bar]]), y_bar=np.array([y_bar]))
        row = gb.build_static_regressors(spec, zs)[0]
        shifted = theta.copy()
        shifted[0] += y_bar - gb.MlpModel(spec, 2, theta).predict(row[None, :])[0]
        model = gb.MlpModel(spec, 2, shifted)
        fp_config = gb.FixedPointConfig(max_iterations=5000, tolerance=1e-14)
        assert gb.cost_js_hat(model, zs) < 1e-12
        assert gb.cost_js_legacy(model, zs, fp_config) < 1e-12
        fixed, _, converged = fixed_point(model, (u_bar,), fp_config)
        assert converged
        assert fixed == pytest.approx(y_bar, abs=1e-7)

    def test_evaluation_accounting(self, true_model):
        zs = steady_curve_of_system(EXAMPLE1, np.linspace(-1, 3, 10))
        counter = gb.EvalCounter()
        gb.cost_js_hat(true_model, zs, counter=counter)
        assert counter.count == 10  # one evaluation per steady pair
        counter = gb.EvalCounter()
        gb.cost_js_legacy(
            true_model, zs, gb.FixedPointConfig(fixed_horizon=15), counter=counter
        )
        assert counter.count == 150  # horizon evaluations per pair
        zd = gb.DynDataset(inputs=(np.zeros(40),), output=np.zeros(40))
        counter = gb.EvalCounter()
        gb.cost_jd(true_model, zd, counter=counter)
        assert counter.count == 38  # usable samples: N minus max lag

    def test_legacy_cost_stays_on_the_faithful_step(self, monkeypatch, ex2_data):
        # the GA baseline unpacks the parameters at every step, as the scheme
        # it reproduces did; free runs and static curves use the hoisted step
        calls = []
        faithful = gb.MlpModel._predict_psi

        def counted(self, psi):
            calls.append(1)
            return faithful(self, psi)

        monkeypatch.setattr(gb.MlpModel, "_predict_psi", counted)
        _, _, zs, zv = ex2_data
        structure = gb.example_structure("example2")
        model = structure.with_theta(init_mlp_theta(structure, 0))  # |F| < 1: never diverges
        gb.cost_js_legacy(model, zs, gb.FixedPointConfig(fixed_horizon=15))
        assert len(calls) == zs.n_pairs * 15
        calls.clear()
        gb.free_run_on_dataset(model, zv)
        gb.model_static_curve(model, zs.u_bar)
        assert not calls


class TestModelStaticCurve:
    def test_true_model_curve_matches_system(self, true_model):
        grid = np.linspace(-1, 3, 15)
        reference = steady_curve_of_system(EXAMPLE1, grid)
        curve = gb.model_static_curve(
            true_model, grid, gb.FixedPointConfig(max_iterations=5000)
        )
        assert np.all(curve.converged)
        assert np.max(np.abs(curve.y_bar - reference.y_bar)) < 1e-8

    def test_non_settling_points_flagged(self):
        curve = gb.model_static_curve(
            scalar_affine(-1.0, 1.0), [0.0], gb.FixedPointConfig(max_iterations=30)
        )
        assert not curve.converged[0]

    def test_true_model_converges_at_every_level(self, true_model):
        curve = gb.model_static_curve(
            true_model, np.linspace(-1, 3, 5), gb.FixedPointConfig(max_iterations=5000)
        )
        assert curve.converged.all()

    def test_curve_csv_columns(self, tmp_path, true_model):
        from greybox.steady_state import write_static_curve_csv

        curve = gb.model_static_curve(
            true_model, np.linspace(-1, 3, 5), gb.FixedPointConfig(max_iterations=5000)
        )
        path = tmp_path / "curve.csv"
        write_static_curve_csv(path, curve)
        lines = path.read_text().splitlines()
        assert lines[0] == "u1_bar,y_bar,converged"
        assert len(lines) == 6
        assert lines[1].endswith("true")

    @pytest.mark.parametrize(
        "grid,message",
        [
            (np.zeros((1, 1, 1)), "grid must be (n_points, n_inputs), got shape (1, 1, 1)"),
            (np.zeros((0, 1)), "grid must be (n_points, n_inputs), got shape (0, 1)"),
            ([], "grid must be (n_points, n_inputs), got shape (0, 1)"),
            (np.zeros((3, 2)), "u_bar has 2 channels, spec needs 1"),
            (np.zeros((3, 0)), "u_bar has 0 channels, spec needs 1"),
        ],
    )
    def test_bad_grid_names_its_shape(self, true_model, grid, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            gb.model_static_curve(true_model, grid)


def test_init_at_target_config_exits_2(tmp_path, capsys):
    # removed settings, and counts or seeds that are not nonnegative
    # integers, are named in the error, not silently ignored or left to fail
    # later with a traceback
    from greybox.cli import main

    bad = [
        ("fixed_point", {"init_at_target": True}, "init_at_target"),
        ("lm", {"damping_increase": 10.0}, "damping_increase"),
        ("ga", {"blend_alpha": 0.5}, "blend_alpha"),
        ("lm", {"max_iterations": 2.5}, "max_iterations"),
        ("lm", {"n_starts": True}, "n_starts"),
        ("ga", {"population_size": 4.5}, "population_size"),
        ("ga", {"seed": 0}, "seed"),
        ("algorithm", "ols", "ols"),
        ("fixed_point", {"fixed_horizon": 15.0}, "fixed_horizon"),
        # NaN and Infinity are not JSON: the reader refuses the constant
        ("fixed_point", {"tolerance": float("nan")}, "NaN is not a JSON number"),
        ("fixed_point", {"divergence_bound": 1e6}, "divergence_bound"),
        ("ga", {"init_spread": 0.1}, "init_spread"),
        ("ga", {"init_spread": float("inf")}, "Infinity is not a JSON number"),
        ("datasets", {"generator": "example1", "seed": "x"}, "seed"),
        ("datasets", {"generator": "example1", "seed": -3}, "seed"),
        ("init_seed", -1, "init_seed"),
        ("lambda", "0.3", "lambda"),
        ("lambda", True, "lambda"),
        ("lambda", 10**400, "lambda"),
        ("fixed_point", {"tolerance": True}, "tolerance"),
        ("fixed_point", {"divergence_bound": True}, "divergence_bound"),
        ("fixed_point", {"max_iterations": 10**20}, "max_iterations"),
        ("fixed_point", {"fixed_horizon": 10**20}, "fixed_horizon"),
        ("ga", {"init_spread": 10**400}, "init_spread"),
        ("ga", {"population_size": 10**20}, "population_size"),
        ("ga", {"generations": 10**20}, "generations"),
        ("lm", {"n_starts": 10**400}, "n_starts"),
        ("lm", {"max_iterations": 10**20}, "max_iterations"),
        # within 2**63-1, but they size arrays built whole: refused before
        # numpy is asked for the memory
        ("ga", {"population_size": 10**18}, "population_size"),
        ("lm", {"n_starts": 10**18}, "n_starts"),
        ("datasets", {"generator": ["example1"]}, "generator"),
    ]
    for block, value, key in bad:
        config = {
            "structure": {"builtin": "example1"},
            "datasets": {"generator": "example1", "seed": 0},
            "algorithm": "wls",
            "lambda": 0.3,
            block: value,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--config", str(path), "--out", str(tmp_path)]) == 2, value
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err, err
