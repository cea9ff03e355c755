"""Acceptance suite: one test per shipping criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line with the measured
numbers so a plain pytest run documents how far each margin held.  Thresholds
and time budgets are asserted, so a regression fails the suite rather than
just shifting a number.
"""

import math
import statistics
import time

import numpy as np

import greybox as gb
from greybox.data import EXAMPLE1, EXAMPLE2, simulate_system, steady_curve_of_system
from greybox.estimation import build_stacked_system, fit_weighted_lm, fit_wls, mlp_jacobian
from greybox.models import EXAMPLE1_TRUE_THETA


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def free_run_rmse(model, data):
    """The free-run RMSE as ``greybox eval --mode free-run`` computes it;
    a diverged run reads ``DIVERGENCE_BOUND``."""
    run = gb.free_run_on_dataset(model, data)
    k0 = model.spec.max_lag
    return gb.rmse(run.y[k0:], data.output[k0:])


def sweep_and_select(structure, datasets, train):
    """Nine-point lambda sweep selected by test-record free-run RMSE."""
    zd, zt, zs, zv = datasets
    points = gb.run_sweep(
        structure, zd, zt, zs, gb.LambdaGrid.linspace(0.1, 0.9, 9), train, zv=zv
    )
    return gb.decide_min_rmse_zt(points)


def test_criterion_1_polynomial_greybox_beats_blackbox():
    t0 = time.perf_counter()
    selected_rmse = []
    wins = 0
    n_seeds = 10
    for seed in range(n_seeds):
        datasets = gb.make_datasets("example1", seed)
        zd, _, _, zv = datasets
        structure = gb.example_structure("example1")
        chosen = sweep_and_select(structure, datasets, gb.TrainConfig(algorithm="wls"))
        blackbox = fit_wls(structure, zd, None, 0.0)
        bb_rmse = free_run_rmse(blackbox, zv)
        selected_rmse.append(chosen.rmse_zv)
        if bb_rmse >= 3.0 * chosen.rmse_zv:
            wins += 1
    elapsed = time.perf_counter() - t0
    median = float(np.median(selected_rmse))
    ok = median <= 0.15 and wins >= 8 and elapsed < 60.0
    report(
        1,
        ok,
        f"median validation rmse {median:.4g} <= 0.15, "
        f"3x wins {wins}/{n_seeds} >= 8, {elapsed:.1f}s < 60s",
    )


def test_criterion_2_mlp_greybox_beats_blackbox():
    t0 = time.perf_counter()
    lm = gb.LmConfig(max_iterations=60, n_starts=3)
    ratios = []
    for seed in range(5):
        datasets = gb.make_datasets("example2", seed)
        zd, _, _, zv = datasets
        structure = gb.example_structure("example2")
        chosen = sweep_and_select(
            datasets=datasets,
            structure=structure,
            train=gb.TrainConfig(algorithm="weighted_lm", lm=lm),
        )
        blackbox, _ = fit_weighted_lm(structure, zd, None, 0.0, lm, init_seed=0)
        bb_rmse = free_run_rmse(blackbox, zv)
        ratios.append(chosen.rmse_zv / bb_rmse)
    elapsed = time.perf_counter() - t0
    median = float(np.median(ratios))
    ok = median <= 0.5 and elapsed < 300.0
    report(
        2,
        ok,
        f"median rmse ratio vs blackbox {median:.3g} <= 0.5 over 5 seeds, "
        f"{elapsed:.1f}s < 300s",
    )


def test_criterion_3_eval_accounting_and_speedup():
    t0 = time.perf_counter()
    zd, _, zs, _ = gb.make_datasets("example2", 0)
    structure = gb.example_structure("example2")
    model, _ = fit_weighted_lm(
        structure, zd, None, 0.0, gb.LmConfig(max_iterations=5), init_seed=0
    )
    horizon = 15
    n_usable = zd.sample_count - structure.spec.max_lag
    per_call_legacy = n_usable + zs.n_pairs * horizon
    per_call_new = n_usable + zs.n_pairs

    counter = gb.EvalCounter()
    gb.cost_jd(model, zd, counter=counter)
    gb.cost_js_legacy(
        model, zs, gb.FixedPointConfig(fixed_horizon=horizon), counter=counter
    )
    legacy_count = counter.count
    counter = gb.EvalCounter()
    gb.cost_jd(model, zd, counter=counter)
    gb.cost_js_hat(model, zs, counter=counter)
    new_count = counter.count

    grid = gb.LambdaGrid.linspace(0.1, 0.9, 9)
    lm_train = gb.TrainConfig(
        algorithm="weighted_lm", lm=gb.LmConfig(max_iterations=60, n_starts=3)
    )
    lm_walls = []
    for _ in range(3):  # the median of three, so one busy moment cannot swing the ratio
        t_lm = time.perf_counter()
        lm_points = gb.run_sweep(structure, zd, None, zs, grid, lm_train)
        lm_walls.append(time.perf_counter() - t_lm)
    lm_wall = statistics.median(lm_walls)
    t_ga = time.perf_counter()
    ga_points = gb.run_sweep(
        structure, zd, None, zs, grid,
        gb.TrainConfig(algorithm="ga_legacy", ga=gb.GaConfig(),
                       fixed_point=gb.FixedPointConfig(fixed_horizon=horizon)),
    )
    ga_wall = time.perf_counter() - t_ga

    # population evaluated once, then every generation re-scores all but the elite
    calls_per_lambda = 40 + 21 * 39
    ga_total = sum(p.eval_count for p in ga_points)
    lm_total = sum(p.eval_count for p in lm_points)
    ratio = ga_wall / lm_wall
    elapsed = time.perf_counter() - t0
    ok = (
        legacy_count == per_call_legacy
        and new_count == per_call_new
        and ga_total == 9 * calls_per_lambda * per_call_legacy
        and lm_total > 0
        and lm_total % per_call_new == 0
        and ratio >= 100.0
        and elapsed < 1800.0
    )
    report(
        3,
        ok,
        f"legacy evals/call {legacy_count} == {per_call_legacy}, "
        f"substitution evals/call {new_count} == {per_call_new}, "
        f"ga sweep evals {ga_total} == {9 * calls_per_lambda * per_call_legacy}, "
        f"lm sweep evals {lm_total} divisible by {per_call_new}, "
        f"wall ratio {ratio:.1f}x >= 100x (LM sweep median of 3), {elapsed:.0f}s < 1800s",
    )


def _contracting_interpolator(rng):
    """Random MLP plus a single steady pair it reproduces exactly.

    Output weights are shrunk so the static map is a global contraction,
    then the output bias is solved to place the fixed point on the pair.
    """
    spec = gb.RegressorSpec(output_lags=(1,), input_lags=((1,),))
    n_hidden = 2
    q = gb.MlpModel.n_params_for(spec, n_hidden)
    theta = rng.uniform(-1.0, 1.0, q)
    theta[1 : 1 + n_hidden] *= 0.2
    model = gb.MlpModel(spec, n_hidden, theta)
    zs = gb.SteadyDataset(
        u_bar=rng.uniform(-1.0, 1.0, (1, 1)), y_bar=rng.uniform(-1.0, 1.0, 1)
    )
    psi = gb.build_static_regressors(spec, zs)
    theta = theta.copy()
    theta[0] = 0.0
    theta[0] = float(zs.y_bar[0] - gb.MlpModel(spec, n_hidden, theta).predict(psi)[0])
    return gb.MlpModel(spec, n_hidden, theta), zs


def test_criterion_4_static_costs_vanish_exactly_at_fixed_points():
    rng = np.random.default_rng(42)
    config = gb.FixedPointConfig(max_iterations=5000, tolerance=1e-14)
    worst_hat = 0.0
    worst_legacy = 0.0
    worst_perturbed = math.inf
    for _ in range(100):
        model, zs = _contracting_interpolator(rng)
        worst_hat = max(worst_hat, gb.cost_js_hat(model, zs))
        worst_legacy = max(worst_legacy, gb.cost_js_legacy(model, zs, config))
        bumped = model.theta.copy()
        delta = rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 0.1)
        bumped[0] += delta
        off = gb.MlpModel(model.spec, model.n_hidden, bumped)
        worst_perturbed = min(worst_perturbed, gb.cost_js_hat(off, zs))
    ok = worst_hat <= 1e-12 and worst_legacy <= 1e-12 and worst_perturbed > 0.0
    report(
        4,
        ok,
        f"interpolating: max substitution cost {worst_hat:.2e} <= 1e-12, "
        f"max iterated cost {worst_legacy:.2e} <= 1e-12; "
        f"non-interpolating: min substitution cost {worst_perturbed:.2e} > 0",
    )


def _random_linear_problem(rng):
    n = int(rng.integers(30, 80))
    n_s = int(rng.integers(3, 12))
    zd = gb.DynDataset(
        inputs=(rng.standard_normal(n),), output=rng.standard_normal(n)
    )
    zs = gb.SteadyDataset(
        u_bar=rng.standard_normal((n_s, 1)), y_bar=rng.standard_normal(n_s)
    )
    lam = float(rng.uniform(0.05, 0.95))
    return gb.example_structure("example1"), zd, zs, lam


def test_criterion_5_weighting_equals_pseudo_sample_appending():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        structure, zd, zs, lam = _random_linear_problem(rng)
        stacked = build_stacked_system(structure, zd, zs)
        weights = stacked.weights(lam)
        phi = structure.design_matrix(stacked.psi)
        gram = phi.T @ (weights[:, None] * phi)
        moment = phi.T @ (weights * stacked.y)
        scale = np.sqrt(weights)
        appended_psi = scale[:, None] * phi
        appended_y = scale * stacked.y
        gram2 = appended_psi.T @ appended_psi
        moment2 = appended_psi.T @ appended_y
        for a, b in ((gram, gram2), (moment, moment2)):
            denom = np.maximum(np.abs(a), np.abs(b))
            denom[denom == 0.0] = 1.0
            worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    zd, _, zs, _ = gb.make_datasets("example1", 0)
    structure = gb.example_structure("example1")
    dev = float(
        np.max(
            np.abs(
                fit_wls(structure, zd, zs, 0.0).theta
                - fit_wls(structure, zd, None, 0.0).theta
            )
        )
    )
    ok = worst <= 1e-12 and dev <= 1e-12
    report(
        5,
        ok,
        f"normal equations max relative gap {worst:.2e} <= 1e-12 over 50 draws, "
        f"wls(0) vs ols max theta gap {dev:.2e} <= 1e-12",
    )


def test_criterion_6_mlp_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    spec = gb.RegressorSpec(output_lags=(1, 2), input_lags=((1, 2),))
    n_hidden = 3
    q = gb.MlpModel.n_params_for(spec, n_hidden)
    step = 1e-6
    worst = 0.0
    for _ in range(20):
        theta = rng.uniform(-2.0, 2.0, q)
        model = gb.MlpModel(spec, n_hidden, theta)
        psi = rng.uniform(-2.0, 2.0, (5, 5))
        jac = mlp_jacobian(model, psi)
        fd = np.empty_like(jac)
        for j in range(q):
            up = theta.copy()
            up[j] += step
            dn = theta.copy()
            dn[j] -= step
            fd[:, j] = (
                gb.MlpModel(spec, n_hidden, up).predict(psi)
                - gb.MlpModel(spec, n_hidden, dn).predict(psi)
            ) / (2 * step)
        scale = np.maximum(np.abs(fd), 1.0)
        worst = max(worst, float(np.max(np.abs(jac - fd) / scale)))
    ok = worst <= 1e-5
    report(6, ok, f"max relative jacobian deviation {worst:.2e} <= 1e-5 on 100 rows")


def test_criterion_7_fixed_point_iteration_matches_reference_curves():
    config = gb.FixedPointConfig(max_iterations=5000, tolerance=1e-12)
    grid1 = np.linspace(-1.0, 3.0, 50)
    reference1 = steady_curve_of_system(EXAMPLE1, grid1)
    spec = gb.example_structure("example1")
    true_model = gb.PolynomialModel(spec.spec, spec.terms, EXAMPLE1_TRUE_THETA)
    curve = gb.model_static_curve(true_model, grid1, config)
    assert curve.converged.all()
    worst1 = float(np.max(np.abs(curve.y_bar - reference1.y_bar)))

    grid2 = np.linspace(-20.0, 20.0, 50)
    reference2 = steady_curve_of_system(EXAMPLE2, grid2)
    worst2 = 0.0
    for u_bar, y_ref in zip(grid2, reference2.y_bar):
        sim = simulate_system(EXAMPLE2, np.full(1500, u_bar))
        worst2 = max(worst2, abs(sim.output[-1] - y_ref))

    ok = worst1 <= 1e-8 and worst2 <= 1e-8
    report(
        7,
        ok,
        f"polynomial iterate vs closed form {worst1:.2e} <= 1e-8, "
        f"saturating recurrence vs root solve {worst2:.2e} <= 1e-8",
    )


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


def test_criterion_8_sweep_tradeoff_is_monotone_and_front_is_exact():
    slack = 1e-9
    worst_jd_drop = 0.0
    worst_js_rise = 0.0
    fronts_exact = True
    for seed in range(3):
        zd, zt, zs, _ = gb.make_datasets("example1", seed)
        points = gb.run_sweep(
            gb.example_structure("example1"), zd, zt, zs,
            gb.LambdaGrid.linspace(0.0, 0.9, 10),
            gb.TrainConfig(algorithm="wls"),
        )
        assert all(p.error is None for p in points)
        for prev, nxt in zip(points, points[1:]):
            worst_jd_drop = max(worst_jd_drop, prev.j_d - nxt.j_d)
            worst_js_rise = max(worst_js_rise, nxt.j_s_hat - prev.j_s_hat)
        got = [(p.lam, p.j_d, p.j_s_hat) for p in gb.pareto_front(points)]
        want = [(p.lam, p.j_d, p.j_s_hat) for p in brute_force_front(points)]
        fronts_exact = fronts_exact and got == want
    ok = worst_jd_drop <= slack and worst_js_rise <= slack and fronts_exact
    report(
        8,
        ok,
        f"max j_d decrease {worst_jd_drop:.2e} <= 1e-9, "
        f"max j_s_hat increase {worst_js_rise:.2e} <= 1e-9, "
        f"fronts match brute force on 3 seeds: {fronts_exact}",
    )
