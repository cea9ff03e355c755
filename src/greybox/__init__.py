"""Grey-box NARX identification from dynamical records and steady-state pairs.

The package fits polynomial and single-hidden-layer tanh NARX models to a
dynamical record while steering their steady-state behaviour toward measured
(u_bar, y_bar) operating points.  The static side enters the cost without any
fixed-point iteration: each pair is substituted straight into the one-step
predictor, which keeps the blended objective cheap and exact at interpolating
optima.  A numerically iterated static cost and a GA baseline built on it are
kept for comparison.
"""

from .data import (
    DynDataset,
    SteadyDataset,
    make_datasets,
    read_csv,
    write_csv,
)
from .errors import (
    ConfigError,
    CsvFormatError,
    DivergenceError,
    GreyboxError,
    SelectionError,
    SingularityError,
)
from .estimation import (
    GaConfig,
    LmConfig,
    TrainConfig,
    build_stacked_system,
    fit_ga_legacy,
    fit_weighted_lm,
    fit_wls,
    mlp_jacobian,
)
from .models import (
    EvalCounter,
    MlpModel,
    PolynomialModel,
    RegressorSpec,
    build_regression_matrix,
    build_static_regressors,
    example_structure,
    free_run_on_dataset,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
)
from .steady_state import (
    FixedPointConfig,
    cost_jd,
    cost_js_hat,
    cost_js_legacy,
    model_static_curve,
)
from .sweep import (
    LambdaGrid,
    ParetoPoint,
    decide_min_corr,
    decide_min_rmse_zt,
    fit,
    pareto_front,
    rmse,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CsvFormatError",
    "DivergenceError",
    "DynDataset",
    "EvalCounter",
    "FixedPointConfig",
    "GaConfig",
    "GreyboxError",
    "LambdaGrid",
    "LmConfig",
    "MlpModel",
    "ParetoPoint",
    "PolynomialModel",
    "RegressorSpec",
    "SelectionError",
    "SingularityError",
    "SteadyDataset",
    "TrainConfig",
    "build_regression_matrix",
    "build_stacked_system",
    "build_static_regressors",
    "cost_jd",
    "cost_js_hat",
    "cost_js_legacy",
    "decide_min_corr",
    "decide_min_rmse_zt",
    "example_structure",
    "fit",
    "fit_ga_legacy",
    "fit_weighted_lm",
    "fit_wls",
    "free_run_on_dataset",
    "load_model",
    "make_datasets",
    "mlp_jacobian",
    "model_from_json",
    "model_static_curve",
    "model_to_json",
    "pareto_front",
    "read_csv",
    "rmse",
    "run_sweep",
    "save_model",
    "write_csv",
]
