"""Experiment protocols: splits, ablations, comparisons, future and transfer runs.

Every runner takes a Dataset plus an ExperimentSpec and returns an
ExperimentReport whose per-repeat metrics are exactly reproducible from
(data fingerprint, spec).  All randomness flows through seeds derived from
spec.seed with a protocol-specific path, so paired configurations inside one
protocol (the five ablation variants, the methods within a comparison cell)
always see identical splits.

The exogenous popularity channel is always derived from the adoption matrix
at the protocol's visibility: every user in the standard protocols, early
adopters in the future protocol, observable users in the transfer protocol.
When spec.use_popularity is off, the channel is a zero vector.  Scoring
always reads the channel: a fit on zero popularity returns a popularity
weight of exactly 0.0, and that weight is the channel's one switch.

Each train/test split builds its TrainingTerms once, every fit of that
split reads them, and they are released before the next split builds its
own.  A variant fit derives its terms with dataclasses.replace: popularity
zeroed for the variants without the exogenous channel, one network's slice
of the potentials for each single-network fit.  The runners call fit_mle
and fit_regression themselves, and _sheet scores either fitted model.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .config import PROTOCOLS, USER_SUBSETS, ExperimentSpec  # noqa: F401  (re-exported)
from .data import (
    AdoptionMatrix,
    Dataset,
    NetworkStack,
    artifact_json,
    filter_min_users,
    frozen,
    popularity_counts,
)
from .metrics import MetricReport, evaluate_sheets
from .model import training_terms
from .predict import PredictionSheet, regression_scores, score_matrix, transfer_params
from .seeds import derive_seed
from .solver import fit_mle, fit_regression, random_baseline

# The ablation's series: name -> (popularity channel on, FitConfig overrides).
# Each names its fit variant, so fit.variant does not change the five fits.
ABLATION_CONFIGS: tuple[tuple[str, bool, dict], ...] = (
    ("full", True, {"variant": "full"}),
    ("no_exogenous", False, {"variant": "full"}),
    ("individual_only", False, {"variant": "individual_only"}),
    ("network_only", False, {"variant": "network_only"}),
    ("network_only_allow_negative", False, {"variant": "network_only_allow_negative"}),
)

COMPARISON_FRACTIONS = (0.2, 0.5)
FUTURE_KS = (3, 4, 5)


class LeakError(AssertionError):
    """A protocol invariant that separates train from test was violated."""


def round_half_up(x: float) -> int:
    """round(x) with .5 always going up, independent of banker's rounding."""
    return int(math.floor(x + 0.5))


def kfold_apps(
    app_ids: Sequence[int] | np.ndarray, k: int = 5, seed: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Shuffle apps and emit k (train, test) partitions; deterministic in seed."""
    ids = np.asarray(app_ids, dtype=int)
    if k > ids.size:
        raise ValueError(f"{k} folds but only {ids.size} apps")
    if k < 2:
        raise ValueError("need at least two folds")
    perm = np.random.default_rng(seed).permutation(ids)
    folds = np.array_split(perm, k)
    out = []
    for i in range(k):
        train = np.sort(np.concatenate([folds[j] for j in range(k) if j != i]))
        out.append((train, np.sort(folds[i])))
    return out


def _seeded_split(
    ids: Sequence[int] | np.ndarray, fraction: float, seed: int, name: str
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded partition whose first side holds round-half-up(fraction * ids) ids."""
    ids = np.asarray(ids, dtype=int)
    if not 0 < fraction < 1:
        raise ValueError(f"{name} must lie in (0, 1)")
    n_first = round_half_up(fraction * ids.size)
    if n_first == 0 or n_first == ids.size:
        raise ValueError("degenerate split: one side is empty")
    perm = np.random.default_rng(seed).permutation(ids)
    return np.sort(perm[:n_first]), np.sort(perm[n_first:])


def fraction_split(
    app_ids: Sequence[int] | np.ndarray, train_fraction: float, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded app split with |train| = round-half-up(fraction * apps)."""
    return _seeded_split(app_ids, train_fraction, seed, "train_fraction")


def future_split(
    adoptions: AdoptionMatrix, apps: Sequence[int] | np.ndarray | None = None
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per-app split of adopters into the earliest ceil(n/2) and the rest.

    Timestamp ties break by user id.  Every adopter of an app in scope must
    carry a timestamp.
    """
    if adoptions.install_times is None:
        raise ValueError("future split requires install timestamps")
    scope = (
        np.arange(adoptions.num_apps) if apps is None else np.asarray(apps, dtype=int)
    )
    out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for app in scope:
        adopters = adoptions.adopters_of(int(app))
        times = adoptions.install_times[adopters, int(app)]
        if np.any(np.isnan(times)):
            raise ValueError(f"app {int(app)} has adopters without timestamps")
        order = adopters[np.lexsort((adopters, times))]
        cut = -(-order.size // 2)
        out[int(app)] = (order[:cut], order[cut:])
    return out


def observable_user_split(
    users: Sequence[int] | np.ndarray, observable_fraction: float, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded user partition; observable side = round-half-up(fraction * users)."""
    return _seeded_split(users, observable_fraction, seed, "observable_fraction")


def low_activity_subset(adoptions: AdoptionMatrix) -> np.ndarray:
    """The floor(U/2) users with the fewest installed apps; ties go to lower ids."""
    if adoptions.num_users < 2:
        raise ValueError("need at least two users")
    counts = adoptions.counts_per_user()
    order = np.lexsort((np.arange(adoptions.num_users), counts))
    return np.sort(order[: adoptions.num_users // 2])


# ---------------------------------------------------------------------------
# reports


def _flat_metrics(report: MetricReport) -> dict[str, float]:
    out: dict[str, float] = {"rmse": report.rmse}
    for k in sorted(report.mp_at_k):
        out[f"mp@{k}"] = report.mp_at_k[k]
    out["optimal_f1"] = report.optimal_f1
    if report.optimal_f1_per_app is not None:
        out["optimal_f1_per_app"] = report.optimal_f1_per_app
    out["clipped_apps"] = float(report.clipped_apps)
    out["skipped_apps"] = float(report.skipped_apps)
    out.update(report.extras)
    return out


@dataclass(frozen=True)
class RunSeries:
    """One configuration's repeat-by-repeat metrics within a protocol run.

    The means are computed once, here: the report's three files and the
    command's printed lines all read them.
    """

    name: str
    repeats: tuple[MetricReport, ...]

    def __post_init__(self) -> None:
        if not self.repeats:
            raise ValueError("a series needs at least one repeat")
        flats = [_flat_metrics(r) for r in self.repeats]
        keys: list[str] = []
        for f in flats:
            keys += [k for k in f if k not in keys]
        mean = {k: float(np.mean([f[k] for f in flats if k in f])) for k in keys}
        object.__setattr__(self, "_mean", mean)

    def mean_metrics(self) -> dict[str, float]:
        """Arithmetic mean per metric over the repeats that report it (a fresh dict)."""
        return dict(self._mean)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "repeats": [r.to_dict() for r in self.repeats],
            "mean": self.mean_metrics(),
        }


@dataclass(frozen=True)
class ExperimentReport:
    """All series of one protocol run plus the configuration echo."""

    protocol: str
    series: tuple[RunSeries, ...]
    spec_echo: dict
    provenance: dict

    def get(self, name: str) -> RunSeries:
        for s in self.series:
            if s.name == name:
                return s
        raise KeyError(f"no series named {name!r}")

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "series": [s.to_dict() for s in self.series],
            "spec": self.spec_echo,
            "provenance": self.provenance,
        }

    def to_json(self) -> str:
        return artifact_json(self.to_dict())

    def csv_rows(self) -> list[str]:
        """Flat rows for tabulation; per-repeat rows then a mean row per metric."""
        rows = ["protocol,config,repeat,metric,value"]
        for s in self.series:
            for i, rep in enumerate(s.repeats):
                for metric, value in _flat_metrics(rep).items():
                    rows.append(f"{self.protocol},{s.name},{i},{metric},{value!r}")
            for metric, value in s.mean_metrics().items():
                rows.append(f"{self.protocol},{s.name},mean,{metric},{value!r}")
        return rows

    def summary_csv(self) -> str:
        """One wide row per series: config plus its mean metrics."""
        means = [s.mean_metrics() for s in self.series]
        metric_names: list[str] = []
        for mean in means:
            metric_names += [m for m in mean if m not in metric_names]
        rows = ["config," + ",".join(metric_names)]
        for s, mean in zip(self.series, means):
            cells = [repr(mean[m]) if m in mean else "" for m in metric_names]
            rows.append(s.name + "," + ",".join(cells))
        return "\n".join(rows) + "\n"

    def files(self) -> dict[str, bytes]:
        """report.json, report.csv and summary.csv, as the command line writes them."""
        return {
            "report.json": (self.to_json() + "\n").encode(),
            "report.csv": ("\n".join(self.csv_rows()) + "\n").encode(),
            "summary.csv": self.summary_csv().encode(),
        }


# ---------------------------------------------------------------------------
# shared runner plumbing


def _prepare(data: Dataset, spec: ExperimentSpec) -> tuple[AdoptionMatrix, np.ndarray]:
    adoptions, kept = filter_min_users(data.adoptions, spec.min_users)
    if adoptions.num_apps == 0:
        raise ValueError(f"no app has {spec.min_users} or more adopters")
    return adoptions, kept


def _cv_splits(
    num_apps: int, spec: ExperimentSpec, repeat: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    seed = derive_seed(spec.seed, spec.protocol, "split", "", repeat)
    apps = np.arange(num_apps)
    if spec.train_fraction is not None:
        return [fraction_split(apps, spec.train_fraction, seed)]
    assert spec.folds is not None
    return kfold_apps(apps, spec.folds, seed)


def _popularity(adoptions: AdoptionMatrix, spec: ExperimentSpec, users=None) -> np.ndarray:
    """Install counts over ``users`` (every user by default); zeros with popularity off."""
    if not spec.use_popularity:
        return np.zeros(adoptions.num_apps)
    return popularity_counts(adoptions, users)


def _check_disjoint(train: np.ndarray, test: np.ndarray) -> None:
    in_train = np.zeros(max(train.max(initial=-1), test.max(initial=-1)) + 1, dtype=bool)
    in_train[train] = True
    if in_train[test].any():
        raise LeakError("train and test apps overlap")


def _sheet(score: Callable, params: object, stack: NetworkStack, *view) -> PredictionSheet:
    """Score view = (apps, evidence, popularity, evaluated) with fitted ``params``.

    ``score`` is score_matrix or regression_scores, which share their arguments.
    A runner builds one view per split and scores every sheet of that split
    from it.
    """
    apps, evidence, popularity, evaluated = view
    scores = frozen(score(params, stack, evidence, popularity), float, in_place=True)
    return PredictionSheet(apps, scores, evaluated)


def _random_sheet(
    num_users: int,
    test: np.ndarray,
    spec: ExperimentSpec,
    repeat: int,
    evaluated: np.ndarray | bool = True,
    tag: object = "",
) -> PredictionSheet:
    """Seeded random scores; column j draws from a seed derived from app test[j]."""
    columns = [
        random_baseline(
            num_users, derive_seed(spec.seed, spec.protocol, "random", tag, repeat, int(a))
        )
        for a in test
    ]
    scores = frozen(np.reshape(columns, (len(test), num_users)).T, float, in_place=True)
    return PredictionSheet(test, scores, evaluated)


def _user_mask(num_users: int, users: np.ndarray) -> np.ndarray:
    mask = np.zeros(num_users, dtype=bool)
    mask[users] = True
    return mask


def _subset_users(adoptions: AdoptionMatrix, spec: ExperimentSpec) -> np.ndarray:
    """The (U,) mask of the users that spec.user_subset evaluates."""
    if spec.user_subset == "low_activity":
        return _user_mask(adoptions.num_users, low_activity_subset(adoptions))
    return np.ones(adoptions.num_users, dtype=bool)


def _report(
    data: Dataset,
    spec: ExperimentSpec,
    adoptions: AdoptionMatrix,
    kept: np.ndarray,
    series: Sequence[RunSeries],
) -> ExperimentReport:
    return ExperimentReport(
        protocol=spec.protocol,
        series=tuple(series),
        spec_echo=asdict(spec),
        provenance={
            "data_sha256": data.fingerprint(),
            "root_seed": spec.seed,
            "num_users": adoptions.num_users,
            "num_apps": adoptions.num_apps,
            "apps_dropped_by_min_users": int(data.adoptions.num_apps - kept.size),
        },
    )


# ---------------------------------------------------------------------------
# protocol runners


def run_ablation(data: Dataset, spec: ExperimentSpec) -> ExperimentReport:
    """The five ABLATION_CONFIGS fits under one CV scheme, identical splits.

    The five fits of a fold share its terms, so the loop runs over folds
    first and holds one fold's terms at a time.
    """
    adoptions, kept = _prepare(data, spec)
    subset = _subset_users(adoptions, spec)
    pop = _popularity(adoptions, spec)
    stack = NetworkStack(networks=data.networks.networks, popularity=pop)
    per_series: dict[str, list[MetricReport]] = {n: [] for n, _, _ in ABLATION_CONFIGS}
    for r in range(spec.repeats):
        sheets: dict[str, list[PredictionSheet]] = {n: [] for n in per_series}
        for train, test in _cv_splits(adoptions.num_apps, spec, r):
            _check_disjoint(train, test)
            terms = training_terms(stack, adoptions, train)
            bare = replace(terms, popularity=np.zeros(train.size))
            view = (test, adoptions.installed[:, test], pop[test], subset[:, None])
            for name, use_pop, overrides in ABLATION_CONFIGS:
                params, _ = fit_mle(terms if use_pop else bare, cfg=replace(spec.fit, **overrides))
                sheets[name].append(_sheet(score_matrix, params, stack, *view))
            del terms, bare
        for name, sh in sheets.items():
            per_series[name].append(evaluate_sheets(sh, adoptions, ks=(spec.mp_k,)))
    series = [RunSeries(n, tuple(reps)) for n, reps in per_series.items()]
    return _report(data, spec, adoptions, kept, series)


def run_comparison(data: Dataset, spec: ExperimentSpec) -> ExperimentReport:
    """Model vs regression vs random over the three-cell grid, plus each network alone.

    Cells: 20% training on all users, 50% training on all users, 50% training
    evaluated on the low-activity half.  The two 50% cells share splits and
    fitted models; single-network runs reuse the 50% split.  spec's own
    train_fraction / folds are ignored here, the grid is fixed.
    """
    adoptions, kept = _prepare(data, spec)
    low = _user_mask(adoptions.num_users, low_activity_subset(adoptions))
    pop = _popularity(adoptions, spec)
    stack = NetworkStack(networks=data.networks.networks, popularity=pop)
    per_series: dict[str, list[MetricReport]] = {}

    def add(name: str, sheet: PredictionSheet) -> None:
        report = evaluate_sheets([sheet], adoptions, ks=(spec.mp_k,))
        per_series.setdefault(name, []).append(report)

    for r in range(spec.repeats):
        for frac in COMPARISON_FRACTIONS:
            seed = derive_seed(spec.seed, spec.protocol, "split", frac, r)
            train, test = fraction_split(np.arange(adoptions.num_apps), frac, seed)
            _check_disjoint(train, test)
            terms = training_terms(stack, adoptions, train)
            view = (test, adoptions.installed[:, test], pop[test], True)
            params, _ = fit_mle(terms, cfg=spec.fit)
            reg = fit_regression(terms)
            by_method = {
                "full": _sheet(score_matrix, params, stack, *view),
                "regression": _sheet(regression_scores, reg, stack, *view),
                "random": _random_sheet(adoptions.num_users, test, spec, r, tag=frac),
            }
            for method, sheet in by_method.items():
                add(f"{method}_f{int(frac * 100)}_all", sheet)
                if frac == 0.5:
                    add(f"{method}_f50_low", sheet.restrict(low))
            if frac == 0.5:
                for m, g in enumerate(stack.networks):
                    single = replace(terms, potentials=terms.potentials[m : m + 1],
                                     popularity=np.zeros(train.size))
                    params, _ = fit_mle(single, cfg=spec.fit)
                    del single  # before the next variant gathers its terms
                    one = NetworkStack(networks=(g,))
                    sheet = _sheet(score_matrix, params, one, *view)
                    add(f"single_{g.name}_f50_all", sheet)
            del terms
    series = [RunSeries(n, tuple(reps)) for n, reps in per_series.items()]
    return _report(data, spec, adoptions, kept, series)


def run_future(data: Dataset, spec: ExperimentSpec) -> ExperimentReport:
    """Train as usual, score test apps from early adopters only.

    Per test app, the adopters' earliest half (G1) is the visible evidence;
    everyone else is ranked and the late half (G2) are the positives.  Apps
    whose G2 is empty have no positives to find and are skipped but counted.
    """
    adoptions, kept = _prepare(data, spec)
    halves = future_split(adoptions)
    pop = _popularity(adoptions, spec)
    stack = NetworkStack(networks=data.networks.networks, popularity=pop)
    subset = _subset_users(adoptions, spec)

    per_series: dict[str, list[MetricReport]] = {
        n: [] for n in ("full", "regression", "random")
    }
    for r in range(spec.repeats):
        sheets: dict[str, list[PredictionSheet]] = {n: [] for n in per_series}
        skipped = 0
        for train, test in _cv_splits(adoptions.num_apps, spec, r):
            _check_disjoint(train, test)
            terms = training_terms(stack, adoptions, train)
            scored = np.array([a for a in test if halves[int(a)][1].size], dtype=int)
            skipped += test.size - scored.size
            early = np.zeros((adoptions.num_users, scored.size), dtype=bool)
            late = np.zeros_like(early)
            for j, a in enumerate(scored):
                g1, g2 = halves[int(a)]
                early[g1, j] = True
                late[g2, j] = True
            if np.any(early & late):
                raise LeakError("late adopter marked as visible evidence")
            ranked = frozen(~early & subset[:, None], bool, in_place=True)
            view = (scored, early, early.sum(axis=0).astype(float), ranked)
            params, _ = fit_mle(terms, cfg=spec.fit)
            reg = fit_regression(terms)
            del terms
            sheets["full"].append(_sheet(score_matrix, params, stack, *view))
            sheets["regression"].append(_sheet(regression_scores, reg, stack, *view))
            sheets["random"].append(
                _random_sheet(adoptions.num_users, scored, spec, r, evaluated=ranked)
            )
        for name, sh in sheets.items():
            per_series[name].append(
                evaluate_sheets(sh, adoptions, ks=FUTURE_KS, skipped_apps=skipped)
            )
    series = [RunSeries(n, tuple(reps)) for n, reps in per_series.items()]
    return _report(data, spec, adoptions, kept, series)


def run_transfer(data: Dataset, spec: ExperimentSpec) -> ExperimentReport:
    """Fit on the observable users alone, rank the hidden users.

    Per repeat, users split into observable / hidden; the model trains on the
    observable users' terms, whose exposure counts the observable users'
    adoptions alone, so no hidden user's edges or installs enter the fit.
    Hidden users are scored with susceptibility imputed as zero and as the
    fitted mean (both reported), against a random baseline.  MP is reported
    at k equal to the round-half-up mean count of hidden adopters over the
    scored test apps; test apps without hidden adopters are skipped and
    counted.
    """
    adoptions, kept = _prepare(data, spec)
    num_users = adoptions.num_users
    per_series: dict[str, list[MetricReport]] = {
        n: [] for n in ("transfer_mean", "transfer_zero", "random")
    }
    for r in range(spec.repeats):
        seed = derive_seed(spec.seed, spec.protocol, "users", r)
        observable, hidden = observable_user_split(
            np.arange(num_users), spec.observable_fraction, seed
        )
        pop_visible = _popularity(adoptions, spec, observable)
        stack = NetworkStack(networks=data.networks.networks, popularity=pop_visible)
        visible = _user_mask(num_users, observable)

        sheets: dict[str, list[PredictionSheet]] = {n: [] for n in per_series}
        positives: list[int] = []
        skipped = 0
        for train, test in _cv_splits(adoptions.num_apps, spec, r):
            _check_disjoint(train, test)
            terms = training_terms(
                stack, adoptions, train, term_users=observable, evidence_users=observable
            )
            params_obs, _ = fit_mle(terms, cfg=spec.fit)
            del terms
            n_pos = adoptions.installed[hidden][:, test].sum(axis=0)
            scored = test[n_pos > 0]
            skipped += int(np.sum(n_pos == 0))
            positives += n_pos[n_pos > 0].tolist()
            evidence = adoptions.installed[:, scored] & visible[:, None]
            if np.any(evidence[hidden]):
                raise LeakError("hidden adopter leaked into transfer evidence")
            view = (scored, evidence, pop_visible[scored], ~visible[:, None])
            for mode in ("mean", "zero"):
                params = transfer_params(params_obs, observable, num_users, mode)
                sheets[f"transfer_{mode}"].append(
                    _sheet(score_matrix, params, data.networks, *view)
                )
            sheets["random"].append(
                _random_sheet(num_users, scored, spec, r, evaluated=~visible[:, None])
            )
        if not positives:
            raise ValueError("every test app lost its adopters to the observable side")
        k_rule = max(1, round_half_up(float(np.mean(positives))))
        for name, sh in sheets.items():
            rep = evaluate_sheets(sh, adoptions, ks=(k_rule,), skipped_apps=skipped)
            extras = {
                **rep.extras,
                "k_rule": float(k_rule),
                "mp_at_k_rule": rep.mp_at_k[k_rule],
            }
            per_series[name].append(replace(rep, extras=extras))
    series = [RunSeries(n, tuple(reps)) for n, reps in per_series.items()]
    return _report(data, spec, adoptions, kept, series)


def run_experiment(data: Dataset, spec: ExperimentSpec) -> ExperimentReport:
    """Dispatch on spec.protocol."""
    runner = {
        "ablation": run_ablation,
        "comparison": run_comparison,
        "future": run_future,
        "transfer": run_transfer,
    }[spec.protocol]
    return runner(data, spec)
