"""Tuning-aware asymptotic inference for Z-estimators with tuned hyperparameters.

Fits theta_hat(lambda) from an estimating equation, tunes lambda by minimizing
a risk criterion, and estimates the limiting variance of the tuned estimator
with the tuning randomness included, alongside the classic pointwise sandwich.
"""

from .criteria import (
    CriterionValue,
    Method,
    evaluate_criterion,
    holdout_error,
    info_criterion,
    loocv_exact,
    loocv_fast,
    te_trace_corrected,
    training_error,
)
from .exceptions import (
    BoundaryFit,
    CriterionFailure,
    DomainEscape,
    EvaluationError,
    FailureRateExceeded,
    FlatLimitSuspected,
    NoConvergence,
    RefitFailure,
    SchemaError,
    SingularJacobian,
    TunevarError,
)
from .harness import (
    DGPKind,
    DGPSpec,
    MixtureLawReport,
    PipelineConfig,
    ReplicationSummary,
    bootstrap,
    mixture_law_check,
    replicate,
    simulate,
)
from .model import Dataset, LossSpec, ModelSpec, rowwise
from .models import (
    GaussianLikelihoodModel,
    HybridModel,
    RidgeLinearModel,
    RidgeLogisticModel,
    load_pima_csv,
    make_pima_model,
    ridge_closed_form,
    ridge_loocv_closed_form,
)
from .solver import SolveResult, solve_loo, solve_loo_all, solve_theta, theta_prime
from .tuner import (
    BoundaryStatus,
    FitResult,
    TruncatedResult,
    truncated_estimate,
    tune,
)
from .variance import (
    VarianceComponents,
    VarianceReport,
    alpha_influences,
    assemble_components,
    eta_matrix,
    select_variance,
    variance_alpha,
    variance_pointwise,
    variance_tuned,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryFit", "BoundaryStatus", "CriterionFailure", "CriterionValue",
    "DGPKind", "DGPSpec", "Dataset", "DomainEscape", "EvaluationError",
    "FailureRateExceeded", "FitResult",
    "FlatLimitSuspected", "GaussianLikelihoodModel", "HybridModel", "LossSpec",
    "Method", "MixtureLawReport", "ModelSpec", "NoConvergence",
    "PipelineConfig", "RefitFailure", "ReplicationSummary", "RidgeLinearModel",
    "RidgeLogisticModel", "SchemaError", "SingularJacobian", "SolveResult",
    "TruncatedResult", "TunevarError", "VarianceComponents", "VarianceReport",
    "alpha_influences", "assemble_components", "bootstrap", "eta_matrix",
    "evaluate_criterion", "holdout_error", "info_criterion", "load_pima_csv",
    "loocv_exact", "loocv_fast", "make_pima_model", "mixture_law_check",
    "replicate", "ridge_closed_form", "ridge_loocv_closed_form", "rowwise",
    "select_variance", "simulate", "solve_loo", "solve_loo_all", "solve_theta",
    "te_trace_corrected", "theta_prime", "training_error", "truncated_estimate",
    "tune", "variance_alpha", "variance_pointwise", "variance_tuned",
]
