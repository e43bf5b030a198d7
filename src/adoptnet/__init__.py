"""Learn a non-negative composite social network that explains app adoption.

Given several candidate networks over the same users plus who installed
which app, fit per-network combination weights, an exogenous popularity
weight and per-user susceptibilities by maximum likelihood, then rank users
by adoption probability under several evaluation protocols.
"""
from .data import (
    AdoptionMatrix,
    CandidateNetwork,
    DataFormatError,
    DatasetStats,
    EmptyDataError,
    NetworkStack,
    dataset_stats,
    load_adoptions,
    load_network_edge_list,
    normalize_network,
    popularity_counts,
)
from .experiments import (
    Dataset,
    ExperimentReport,
    ExperimentSpec,
    RunSeries,
    fraction_split,
    future_split,
    kfold_apps,
    low_activity_subset,
    observable_user_split,
    run_ablation,
    run_comparison,
    run_experiment,
    run_future,
    run_transfer,
)
from .metrics import MetricReport, evaluate_sheets, rmse
from .model import (
    ModelParams,
    adoption_probability,
    log_likelihood,
    log_likelihood_gradient,
)
from .predict import PredictionSheet, score_matrix, transfer_params
from .solver import (
    FitConfig,
    FitResult,
    RegressionParams,
    SolverError,
    fit_mle,
    fit_regression,
    random_baseline,
)
from .synth import (
    RecoveryError,
    SynthSpec,
    TeacherData,
    gen_networks,
    generate,
    planted_params,
    recovery_error,
    recovery_fit,
    sample_adoptions_teacher,
)

__version__ = "0.1.0"

__all__ = [
    "AdoptionMatrix",
    "CandidateNetwork",
    "DataFormatError",
    "Dataset",
    "DatasetStats",
    "EmptyDataError",
    "ExperimentReport",
    "ExperimentSpec",
    "FitConfig",
    "FitResult",
    "MetricReport",
    "ModelParams",
    "NetworkStack",
    "PredictionSheet",
    "RecoveryError",
    "RegressionParams",
    "RunSeries",
    "SolverError",
    "SynthSpec",
    "TeacherData",
    "adoption_probability",
    "dataset_stats",
    "evaluate_sheets",
    "fit_mle",
    "fit_regression",
    "fraction_split",
    "future_split",
    "gen_networks",
    "generate",
    "kfold_apps",
    "load_adoptions",
    "load_network_edge_list",
    "log_likelihood",
    "log_likelihood_gradient",
    "low_activity_subset",
    "normalize_network",
    "observable_user_split",
    "planted_params",
    "popularity_counts",
    "random_baseline",
    "recovery_error",
    "recovery_fit",
    "rmse",
    "run_ablation",
    "run_comparison",
    "run_experiment",
    "run_future",
    "run_transfer",
    "sample_adoptions_teacher",
    "score_matrix",
    "transfer_params",
]
