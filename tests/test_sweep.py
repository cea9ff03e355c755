"""Lambda sweeps, scoring, decision makers, dominance filtering."""

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import greybox as gb
import greybox.sweep as sweep_module
from greybox.cli import main
from greybox.models import DIVERGENCE_BOUND
from greybox.sweep import abs_error_correlation, sweep_csv_rows, write_sweep_csv


def make_point(lam, j_d, j_s, **kw):
    kw.setdefault("model", {})
    return gb.ParetoPoint(lam=lam, j_d=j_d, j_s_hat=j_s, **kw)


class TestScores:
    def test_rmse_hand_value(self):
        # residuals (3, 4) over two samples: sqrt(25 / 2)
        value = gb.rmse(np.array([0.0, 4.0]), np.array([3.0, 0.0]))
        assert value == pytest.approx(math.sqrt(12.5), abs=1e-14)

    def test_rmse_caps_non_finite(self):
        assert gb.rmse(np.array([np.nan, 1.0]), np.zeros(2)) == DIVERGENCE_BOUND
        with np.errstate(over="ignore"):
            value = gb.rmse(np.array([1e300, 0.0]), np.array([-1e300, 0.0]))
        assert value == DIVERGENCE_BOUND
        assert gb.rmse(np.array([2e6]), np.zeros(1)) == DIVERGENCE_BOUND

    def test_rmse_validates_shapes(self):
        with pytest.raises(ValueError):
            gb.rmse(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            gb.rmse(np.zeros(0), np.zeros(0))

    def test_correlation_bounds_and_degenerate_cases(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert abs_error_correlation(x, x) == pytest.approx(1.0, abs=1e-12)
        assert abs_error_correlation(-2 * x, x) == pytest.approx(1.0, abs=1e-12)
        assert abs_error_correlation(np.ones(4), x) == 0.0
        assert abs_error_correlation(x, np.ones(4)) == 0.0

    def test_free_run_rmse_of_the_true_model(self, ex1_true_model, ex1_data):
        _, _, _, zv = ex1_data
        value, diverged = sweep_module._free_run_rmse(ex1_true_model, zv)
        assert value < 1e-10
        assert not diverged

    def test_free_run_scores_of_a_diverging_model(self, ex1_data):
        _, _, _, zv = ex1_data
        spec = gb.RegressorSpec(output_lags=(1, 2), input_lags=((1, 2),))
        unstable = gb.PolynomialModel(spec, ((1,), (0,)), np.array([2.0, 1.0]))
        assert reference_scores(unstable, zv) == (DIVERGENCE_BOUND, True, None)
        # the helpers a sweep scores its points with read the same
        assert sweep_module._free_run_error(unstable, zv) is None
        assert sweep_module._free_run_rmse(unstable, zv) == (DIVERGENCE_BOUND, True)

    @pytest.mark.parametrize("example, algorithm", [("example1", "wls"),
                                                    ("example2", "weighted_lm")])
    def test_sweep_points_keep_the_bits_of_rmse_and_correlation(self, example, algorithm):
        # a sweep computes only the scores a point keeps, with the bits the
        # public free run, rmse and correlation give them
        zd, zt, zs, zv = gb.make_datasets(example, 0)
        train = gb.TrainConfig(algorithm=algorithm, lm=gb.LmConfig(60, 3))
        grid = gb.LambdaGrid((0.0, 0.3, 0.7, 1.0))
        points = gb.run_sweep(gb.example_structure(example), zd, zt, zs, grid, train, zv=zv)
        scored = [p for p in points if p.model is not None]
        assert len(scored) >= 3
        for point in scored:
            _, diverged_zd, corr_dm = reference_scores(point.model, zd)
            rmse_zt, diverged_zt, _ = reference_scores(point.model, zt)
            rmse_zv, diverged_zv, _ = reference_scores(point.model, zv)
            assert (point.diverged_zd, point.diverged_zt, point.diverged_zv) == (
                diverged_zd, diverged_zt, diverged_zv)
            assert same_bits(point.rmse_zt, rmse_zt) and same_bits(point.rmse_zv, rmse_zv)
            assert (point.corr_dm is None) == (corr_dm is None)
            assert corr_dm is None or same_bits(point.corr_dm, corr_dm)


def reference_scores(model, data):
    """A free run's RMSE, divergence flag and absolute error correlation
    (None when diverged), from the public ``free_run_on_dataset``, ``rmse``
    and ``abs_error_correlation``."""
    run = gb.free_run_on_dataset(model, data)
    if run.diverged:
        return DIVERGENCE_BOUND, True, None
    k0 = model.spec.max_lag
    measured = data.output[k0:]
    error = measured - run.y[k0:]
    return gb.rmse(run.y[k0:], measured), False, abs_error_correlation(error, measured)


def reference_abs_error_correlation(residual, reference):
    """:func:`abs_error_correlation` as it was computed with ``np.std`` and
    ``np.mean`` before it took one pass, kept to check that the bits agree."""
    residual = np.asarray(residual, dtype=float)
    reference = np.asarray(reference, dtype=float)
    r_std = np.std(residual)
    y_std = np.std(reference)
    if r_std == 0.0 or y_std == 0.0:
        return 0.0
    cov = float(np.mean((residual - residual.mean()) * (reference - reference.mean())))
    return abs(cov / (r_std * y_std))


@st.composite
def correlation_pairs(draw):
    """Two vectors of one length from 1 to 3000, each of magnitude 1e-150 to
    1e150: spread around zero, constant, or a small spread on a large offset."""
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def vector():
        magnitude = 10.0 ** draw(st.integers(-150, 150))
        kind = draw(st.sampled_from(["spread", "constant", "offset"]))
        if kind == "constant":
            return np.full(n, magnitude * draw(st.sampled_from([-1.0, 0.0, 0.3, 1.0])))
        if kind == "offset":
            spread = magnitude * 10.0 ** -draw(st.integers(1, 12))
            return magnitude + spread * rng.standard_normal(n)
        return magnitude * rng.standard_normal(n)

    return vector(), vector()


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestOnePassScores:
    @given(pair=correlation_pairs())
    def test_correlation_has_the_bits_of_std_and_mean(self, pair):
        residual, reference = pair
        got = abs_error_correlation(residual, reference)
        assert same_bits(got, reference_abs_error_correlation(residual, reference))

    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.0, 1e-12, 1e-3, 0.05, 0.3]))
    def test_free_run_scores_match_rmse_and_correlation(self, ex1_data, ex1_true_model,
                                                        seed, scale):
        # the true example1 model with perturbed parameters, scored on zt and zv
        _, zt, _, zv = ex1_data
        rng = np.random.default_rng(seed)
        theta = ex1_true_model.theta * (1 + scale * rng.standard_normal(ex1_true_model.theta.size))
        model = replace(ex1_true_model, theta=theta)
        k0 = model.spec.max_lag
        for data in (zt, zv):
            value, diverged = sweep_module._free_run_rmse(model, data)
            result = gb.free_run_on_dataset(model, data)
            assert diverged == result.diverged
            if diverged:
                continue
            measured = data.output[k0:]
            assert same_bits(value, gb.rmse(result.y[k0:], measured))
            corr = abs_error_correlation(*sweep_module._free_run_error(model, data))
            want = reference_abs_error_correlation(measured - result.y[k0:], measured)
            assert same_bits(corr, want)


class TestLambdaGrid:
    def test_parse_sorts_and_dedupes(self):
        grid = gb.LambdaGrid.parse("0.9,0.1,0.5,0.1")
        assert list(grid) == [0.1, 0.5, 0.9]

    def test_linspace(self):
        grid = gb.LambdaGrid.linspace(0.1, 0.9, 9)
        assert len(list(grid)) == 9
        assert list(grid)[0] == pytest.approx(0.1)
        assert list(grid)[-1] == pytest.approx(0.9)

    @pytest.mark.parametrize("text", ["", "1.5", "-0.1", "nan", "0.5,nan"])
    def test_rejects_bad_values(self, text):
        with pytest.raises(ValueError):
            gb.LambdaGrid.parse(text)


@pytest.fixture(scope="module")
def wls_points(ex1_data):
    zd, zt, zs, zv = ex1_data
    structure = gb.example_structure("example1")
    grid = gb.LambdaGrid(values=(0.1, 0.3, 0.5, 0.7))
    return gb.run_sweep(
        structure, zd, zt, zs, grid, gb.TrainConfig(algorithm="wls"), zv=zv
    )


class TestRunSweep:
    def test_one_point_per_lambda_in_order(self, wls_points):
        assert [p.lam for p in wls_points] == [0.1, 0.3, 0.5, 0.7]
        assert all(p.error is None for p in wls_points)
        assert all(p.model is not None for p in wls_points)

    def test_scores_populated(self, ex1_data, wls_points):
        zd, _, zs, _ = ex1_data
        max_lag = gb.example_structure("example1").spec.max_lag
        for p in wls_points:
            assert math.isfinite(p.j_d) and math.isfinite(p.j_s_hat)
            assert p.rmse_zt is not None and p.rmse_zv is not None
            assert p.corr_dm is not None
            # one evaluation per row of the stacked solve
            assert p.eval_count == zd.sample_count - max_lag + zs.n_pairs

    def test_deterministic(self, ex1_data, wls_points):
        zd, zt, zs, zv = ex1_data
        structure = gb.example_structure("example1")
        grid = gb.LambdaGrid(values=(0.1, 0.3, 0.5, 0.7))
        again = gb.run_sweep(
            structure, zd, zt, zs, grid, gb.TrainConfig(algorithm="wls"), zv=zv
        )
        for a, b in zip(wls_points, again):
            assert a.lam == b.lam and a.j_d == b.j_d and a.j_s_hat == b.j_s_hat
            assert a.rmse_zt == b.rmse_zt and a.rmse_zv == b.rmse_zv
            assert gb.model_to_json(a.model) == gb.model_to_json(b.model)

    def test_failures_are_isolated(self, ex1_data):
        # lambda = 1 is singular for this structure; the rest must survive
        zd, zt, zs, _ = ex1_data
        structure = gb.example_structure("example1")
        grid = gb.LambdaGrid(values=(0.2, 1.0))
        points = gb.run_sweep(
            structure, zd, zt, zs, grid, gb.TrainConfig(algorithm="wls")
        )
        good = points[0]
        bad = points[1]
        assert good.error is None
        assert bad.error is not None and "rank deficient" in bad.error
        assert bad.model is None

    def test_wls_points_equal_independent_fits(self, ex1_data):
        # the sweep fits every lambda on one stacked system; each point still
        # has the bits, the count and the failure of a fit made on its own
        zd, zt, zs, _ = ex1_data
        structure = gb.example_structure("example1")
        grid = gb.LambdaGrid(values=(0.0, 0.1, 0.5, 0.9, 1.0))
        points = gb.run_sweep(structure, zd, zt, zs, grid, gb.TrainConfig(algorithm="wls"))
        for p in points:
            counter = gb.EvalCounter()
            try:
                model, _ = gb.fit(structure, zd, zs, gb.TrainConfig(lam=p.lam), counter=counter)
            except gb.SingularityError as exc:
                assert p.model is None and p.error == f"SingularityError: {exc}"
                continue
            assert p.model.theta.tobytes() == model.theta.tobytes()
            assert p.eval_count == counter.count
            assert p.j_d == gb.cost_jd(model, zd)
            assert p.j_s_hat == gb.cost_js_hat(model, zs)
        assert [p.error is None for p in points] == [True] * 4 + [False]

    def test_overflowing_design_fails_every_lambda(self):
        # outputs of 1e200 overflow y(k-1)^2 in the design matrix, built once
        # for the sweep: no weight, zero included, makes it finite
        spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1,),))
        structure = gb.PolynomialModel(spec, ((1, 1), (2,)), np.zeros(2))
        zd = gb.DynDataset(inputs=(np.arange(20) / 10,), output=np.full(20, 1e200))
        zs = gb.SteadyDataset(u_bar=np.array([[0.0], [1.0]]), y_bar=np.array([0.0, 0.5]))
        grid = gb.LambdaGrid(values=(0.0, 0.5, 1.0))
        points = gb.run_sweep(structure, zd, None, zs, grid, gb.TrainConfig(algorithm="wls"))
        assert [p.error for p in points] == (
            ["SingularityError: least squares system is not finite"] * 3
        )

    def test_failed_ga_seed_fit_fails_every_point(self, ex1_data, tmp_path):
        # an all-zero input leaves the lambda = 0 seed fit rank deficient:
        # every point records that failure and the sweep writes its artefacts
        zd, _, zs, _ = ex1_data
        silent = gb.DynDataset(inputs=(np.zeros(zd.sample_count),), output=zd.output)
        train = gb.TrainConfig(algorithm="ga_legacy", ga=gb.GaConfig(3, 1))
        points = gb.run_sweep(
            gb.example_structure("example1"), silent, None, zs, gb.LambdaGrid((0.3, 0.6)), train
        )
        want = "SingularityError: weighted normal equations are rank deficient (1 < 5)"
        assert [(p.lam, p.model, p.error, p.eval_count) for p in points] == [
            (0.3, None, want, 0), (0.6, None, want, 0)]
        gb.write_csv(tmp_path / "zd.csv", silent)
        gb.write_csv(tmp_path / "zs.csv", zs)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "structure": {"builtin": "example1"}, "algorithm": "ga_legacy",
            "datasets": {"zd": str(tmp_path / "zd.csv"), "zs": str(tmp_path / "zs.csv")},
            "ga": {"population_size": 3, "generations": 1},
        }))
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(config), "--grid", "0.3,0.6", "--out", str(out)]
        assert main(argv) == 3  # nothing to select
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        assert [(r["lambda"], r["error"]) for r in rows] == [("0.3", want), ("0.6", want)]
        assert json.loads((out / "manifest.json").read_text())["selections"] == {}

    @given(
        lams=st.lists(
            st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
            min_size=1,
            max_size=5,
        )
    )
    def test_one_point_per_distinct_lambda(self, ex1_data, lams):
        # lambda = 1 is rank deficient for example1, so a grid holding it has
        # a failed point, recorded instead of raised
        zd, _, zs, _ = ex1_data
        structure = gb.example_structure("example1")
        points = gb.run_sweep(
            structure, zd, None, zs, gb.LambdaGrid(values=tuple(lams)),
            gb.TrainConfig(algorithm="wls"),
        )
        assert [p.lam for p in points] == sorted(set(lams))
        for p in points:
            assert (p.error is None) == (p.model is not None)
        if 1.0 in lams:
            assert "SingularityError" in points[-1].error

    def test_optional_records_can_be_omitted(self, ex1_data):
        zd, _, zs, _ = ex1_data
        structure = gb.example_structure("example1")
        points = gb.run_sweep(
            structure, zd, None, zs, gb.LambdaGrid(values=(0.3,)),
            gb.TrainConfig(algorithm="wls"),
        )
        assert points[0].rmse_zt is None
        assert points[0].rmse_zv is None
        assert points[0].corr_dm is not None  # decision correlation uses zd

    def test_picked_model_files_are_the_points_models(self, ex1_data, wls_points, tmp_path):
        # the sweep command writes each pick with save_model, as train does
        paths = {}
        for name, data in zip(("zd", "zt", "zs", "zv"), ex1_data):
            paths[name] = str(tmp_path / f"{name}.csv")
            gb.write_csv(paths[name], data)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "structure": {"builtin": "example1"}, "datasets": paths, "algorithm": "wls",
            "grid": [p.lam for p in wls_points],
        }))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        for name, decide in (("min_corr", gb.decide_min_corr),
                             ("min_rmse_zt", gb.decide_min_rmse_zt)):
            model = decide(wls_points).model
            assert isinstance(model, gb.PolynomialModel)
            gb.save_model(tmp_path / "want.json", model)
            written = tmp_path / "out" / f"model_{name}.json"
            assert written.read_bytes() == (tmp_path / "want.json").read_bytes()


LM_TRAIN = gb.TrainConfig(algorithm="weighted_lm", lm=gb.LmConfig(max_iterations=60, n_starts=3))
GRID9 = gb.LambdaGrid.linspace(0.1, 0.9, 9)


@pytest.fixture(scope="module")
def lm_points(ex2_data):
    zd, _, zs, _ = ex2_data
    return gb.run_sweep(gb.example_structure("example2"), zd, None, zs, GRID9, LM_TRAIN)


class TestLmContinuation:
    @pytest.mark.parametrize("seed", range(5))
    def test_tradeoff_is_monotone(self, seed):
        # criterion 2's seeds: each lambda continues from the optimum of the
        # one before, so the costs move one way along the grid
        zd, _, zs, _ = gb.make_datasets("example2", seed)
        points = gb.run_sweep(gb.example_structure("example2"), zd, None, zs, GRID9, LM_TRAIN)
        for prev, nxt in zip(points, points[1:]):
            assert prev.j_d <= nxt.j_d, (prev.lam, nxt.lam)
            assert prev.j_s_hat >= nxt.j_s_hat, (prev.lam, nxt.lam)

    def test_other_algorithms_never_warm_start(self, wls_points):
        assert all(p.warm_from is None for p in wls_points)

    def test_first_lambda_is_an_independent_fit(self, ex2_data, lm_points):
        zd, _, zs, _ = ex2_data
        first = lm_points[0]
        counter = gb.EvalCounter()
        model, _ = gb.fit(
            gb.example_structure("example2"), zd, zs, replace(LM_TRAIN, lam=first.lam),
            counter=counter,
        )
        assert first.warm_from is None
        assert gb.model_to_json(first.model) == gb.model_to_json(model)
        assert first.eval_count == counter.count
        assert [p.warm_from for p in lm_points[1:]] == [p.lam for p in lm_points[:-1]]

    def test_later_lambdas_equal_fits_from_the_point_before(self, ex2_data, lm_points):
        zd, _, zs, _ = ex2_data
        for prev, p in zip(lm_points, lm_points[1:]):
            counter = gb.EvalCounter()
            model, _ = gb.fit(
                gb.example_structure("example2"), zd, zs, replace(LM_TRAIN, lam=p.lam),
                counter=counter, seed_model=prev.model,
            )
            assert p.model.theta.tobytes() == model.theta.tobytes()
            assert p.eval_count == counter.count

    def test_fewer_evaluations_than_independent_fits(self, ex2_data, lm_points):
        zd, _, zs, _ = ex2_data
        counter = gb.EvalCounter()
        for p in lm_points:
            gb.fit(gb.example_structure("example2"), zd, zs, replace(LM_TRAIN, lam=p.lam),
                   counter=counter)
        assert sum(p.eval_count for p in lm_points) < counter.count

    @staticmethod
    def _sweep_failing_at(monkeypatch, ex2_data, failing):
        """A short sweep whose fits at the lambdas in ``failing`` raise
        DivergenceError; returns the points and each fit's starting theta."""
        zd, _, zs, _ = ex2_data
        real = sweep_module.fit_weighted_lm
        starts = {}

        def fit_weighted_lm(model, zd, zs, lam, *args, theta0=None, **kwargs):
            starts[lam] = theta0
            if lam in failing:
                raise gb.DivergenceError(f"made to fail at lambda {lam}")
            return real(model, zd, zs, lam, *args, theta0=theta0, **kwargs)

        monkeypatch.setattr(sweep_module, "fit_weighted_lm", fit_weighted_lm)
        train = gb.TrainConfig(algorithm="weighted_lm", lm=gb.LmConfig(max_iterations=5))
        grid = gb.LambdaGrid(values=(0.2, 0.4, 0.6, 0.8))
        points = gb.run_sweep(gb.example_structure("example2"), zd, None, zs, grid, train)
        return points, starts

    def test_failed_lambda_hands_on_the_last_good_theta(self, monkeypatch, ex2_data):
        points, starts = self._sweep_failing_at(monkeypatch, ex2_data, {0.6})
        assert [p.error is None for p in points] == [True, True, False, True]
        assert [p.warm_from for p in points] == [None, 0.2, 0.4, 0.4]
        assert starts[0.2] is None
        good = points[1].model.theta
        assert np.array_equal(starts[0.6], good) and np.array_equal(starts[0.8], good)

    def test_failed_first_lambda_falls_back_to_the_multi_start(self, monkeypatch, ex2_data):
        points, starts = self._sweep_failing_at(monkeypatch, ex2_data, {0.2})
        assert [p.error is None for p in points] == [False, True, True, True]
        assert [p.warm_from for p in points] == [None, None, 0.4, 0.6]
        assert starts[0.2] is None and starts[0.4] is None
        assert np.array_equal(starts[0.6], points[1].model.theta)


class TestDecisionMakers:
    def test_min_rmse_zt_picks_smallest(self):
        points = [
            make_point(0.1, 1, 1, rmse_zt=0.5),
            make_point(0.2, 1, 1, rmse_zt=0.2),
            make_point(0.3, 1, 1, rmse_zt=0.4),
        ]
        assert gb.decide_min_rmse_zt(points).lam == 0.2

    def test_min_rmse_zt_tie_prefers_smaller_lambda(self):
        points = [
            make_point(0.4, 1, 1, rmse_zt=0.2),
            make_point(0.2, 1, 1, rmse_zt=0.2),
        ]
        assert gb.decide_min_rmse_zt(points).lam == 0.2

    def test_min_rmse_zt_skips_divergent_and_failed(self):
        points = [
            make_point(0.1, 1, 1, rmse_zt=0.01, diverged_zt=True),
            make_point(0.2, 1, 1, model=None, error="x", rmse_zt=None),
            make_point(0.3, 1, 1, rmse_zt=0.7),
        ]
        assert gb.decide_min_rmse_zt(points).lam == 0.3

    def test_min_rmse_zt_empty_selection_raises(self):
        points = [make_point(0.1, 1, 1, rmse_zt=None)]
        with pytest.raises(gb.SelectionError):
            gb.decide_min_rmse_zt(points)

    def test_min_corr_picks_smallest_correlation(self):
        points = [
            make_point(0.1, 1, 1, corr_dm=0.9),
            make_point(0.5, 1, 1, corr_dm=0.1),
            make_point(0.9, 1, 1, corr_dm=0.5),
        ]
        assert gb.decide_min_corr(points).lam == 0.5

    def test_min_corr_tie_prefers_smaller_lambda(self):
        points = [
            make_point(0.6, 1, 1, corr_dm=0.3),
            make_point(0.2, 1, 1, corr_dm=0.3),
        ]
        assert gb.decide_min_corr(points).lam == 0.2

    def test_min_corr_skips_divergent_on_zd(self):
        points = [
            make_point(0.1, 1, 1, corr_dm=0.05, diverged_zd=True),
            make_point(0.2, 1, 1, corr_dm=0.6),
        ]
        assert gb.decide_min_corr(points).lam == 0.2

    def test_selection_on_real_sweep(self, ex1_data):
        zd, zt, zs, zv = ex1_data
        structure = gb.example_structure("example1")
        points = gb.run_sweep(
            structure, zd, zt, zs, gb.LambdaGrid.linspace(0.1, 0.9, 9),
            gb.TrainConfig(algorithm="wls"), zv=zv,
        )
        chosen = gb.decide_min_rmse_zt(points)
        values = [p.rmse_zt for p in points if p.rmse_zt is not None]
        assert chosen.rmse_zt == min(values)


def brute_force_front(points):
    def dominates(a, b):
        return (
            a.j_d <= b.j_d
            and a.j_s_hat <= b.j_s_hat
            and (a.j_d < b.j_d or a.j_s_hat < b.j_s_hat)
        )

    kept = [
        p
        for p in points
        if p.error is None
        and not any(dominates(q, p) for q in points if q is not p and q.error is None)
    ]
    return sorted(kept, key=lambda p: p.lam)


class TestParetoFront:
    def test_matches_brute_force_on_random_clouds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            points = [
                make_point(float(lam), float(jd), float(js))
                for lam, jd, js in zip(
                    rng.uniform(0, 1, 12), rng.uniform(0, 2, 12), rng.uniform(0, 2, 12)
                )
            ]
            got = gb.pareto_front(points)
            want = brute_force_front(points)
            assert [(p.lam, p.j_d, p.j_s_hat) for p in got] == [
                (p.lam, p.j_d, p.j_s_hat) for p in want
            ]

    def test_failed_points_never_enter_the_front(self):
        points = [
            make_point(0.1, 0.0, 0.0, model=None, error="x"),
            make_point(0.2, 1.0, 1.0),
        ]
        front = gb.pareto_front(points)
        assert [p.lam for p in front] == [0.2]

    def test_front_of_real_sweep_is_exact(self, ex1_data):
        zd, zt, zs, _ = ex1_data
        structure = gb.example_structure("example1")
        points = gb.run_sweep(
            structure, zd, zt, zs, gb.LambdaGrid.linspace(0.1, 0.9, 9),
            gb.TrainConfig(algorithm="wls"),
        )
        got = gb.pareto_front(points)
        want = brute_force_front(points)
        assert [p.lam for p in got] == [p.lam for p in want]

    @given(
        seeds=st.integers(min_value=0, max_value=10_000),
        count=st.integers(min_value=1, max_value=15),
    )
    def test_front_properties(self, seeds, count):
        rng = np.random.default_rng(seeds)
        points = [
            make_point(float(lam), float(jd), float(js))
            for lam, jd, js in zip(
                rng.uniform(0, 1, count),
                rng.uniform(0, 2, count),
                rng.uniform(0, 2, count),
            )
        ]
        front = gb.pareto_front(points)
        lams = [p.lam for p in front]
        assert lams == sorted(lams)
        assert [(p.lam, p.j_d, p.j_s_hat) for p in front] == [
            (p.lam, p.j_d, p.j_s_hat) for p in brute_force_front(points)
        ]


class TestSweepCsv:
    def test_columns(self, tmp_path, ex1_data):
        zd, zt, zs, zv = ex1_data
        structure = gb.example_structure("example1")
        points = gb.run_sweep(
            structure, zd, zt, zs, gb.LambdaGrid(values=(0.2, 1.0)),
            gb.TrainConfig(algorithm="wls"), zv=zv,
        )
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, sweep_csv_rows(points))
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "lambda,j_d,j_s_hat,rmse_zt,diverged_zt,rmse_zv,diverged_zv,"
            "corr_dm,diverged_zd,train_time_ms,eval_count,error,warm_from"
        )
        assert len(lines) == 3
        assert "rank deficient" in lines[2]
