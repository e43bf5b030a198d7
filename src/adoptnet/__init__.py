"""Learn a non-negative composite social network that explains app adoption.

Given several candidate networks over the same users plus who installed
which app, fit per-network combination weights, an exogenous popularity
weight and per-user susceptibilities by maximum likelihood, then rank users
by adoption probability under several evaluation protocols.

The public names below load lazily (PEP 562): `import adoptnet` imports no
submodule, and `adoptnet.fit_mle` imports only `adoptnet.solver` and what it
needs.  Nothing is cached here, so a name always reads its home module's
current binding.
"""
from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "data": (
        "AdoptionMatrix",
        "CandidateNetwork",
        "DataFormatError",
        "Dataset",
        "DatasetStats",
        "EmptyDataError",
        "NetworkStack",
        "dataset_stats",
        "load_adoptions",
        "load_network_edge_list",
        "normalize_network",
        "popularity_counts",
    ),
    "config": ("ExperimentSpec", "FitConfig", "SynthSpec"),
    "experiments": (
        "ExperimentReport",
        "RunSeries",
        "fraction_split",
        "future_split",
        "kfold_apps",
        "low_activity_subset",
        "observable_user_split",
        "run_ablation",
        "run_comparison",
        "run_experiment",
        "run_future",
        "run_transfer",
    ),
    "metrics": ("MetricReport", "evaluate_sheets", "rmse"),
    "model": (
        "ModelParams",
        "SolverError",
        "adoption_probability",
        "log_likelihood",
        "log_likelihood_gradient",
        "training_terms",
    ),
    "predict": ("PredictionSheet", "score_matrix", "transfer_params"),
    "solver": (
        "FitResult",
        "RegressionParams",
        "fit_mle",
        "fit_regression",
        "random_baseline",
    ),
    "synth": (
        "RecoveryError",
        "TeacherData",
        "gen_networks",
        "generate",
        "planted_params",
        "recovery_error",
        "recovery_fit",
        "sample_adoptions_teacher",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
