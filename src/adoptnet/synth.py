"""Synthetic multiplex networks and teacher-sampled adoptions with planted parameters.

Generation is two-stage so the data is exactly well-specified for half the
population: context users adopt independently (susceptibility plus a base
popularity pull), then target users adopt from the model conditional with
evidence restricted to context adopters.  Fitting the likelihood of the
target users against context evidence therefore recovers the planted
parameters, which is the correctness oracle for the whole estimator;
recovery_fit builds those terms with training_terms(term_users=target,
evidence_users=context), the subset path the transfer protocol also takes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import WEIGHT_DISTS, FitConfig, SynthSpec  # noqa: F401  (WEIGHT_DISTS re-exported)
from .data import AdoptionMatrix, CandidateNetwork, NetworkStack, hold
from .model import ModelParams, training_terms
from .seeds import derive_seed
from .solver import FitResult, fit_mle


@dataclass(frozen=True)
class TeacherData:
    """Sampled adoptions plus the partition and parameters that generated them."""

    adoptions: AdoptionMatrix
    context_users: np.ndarray
    target_users: np.ndarray
    params: ModelParams

    def __post_init__(self) -> None:
        hold(self, context_users=int, target_users=int)


def gen_networks(spec: SynthSpec) -> NetworkStack:
    """M independent symmetric random graphs; deterministic given the seed."""
    nets = []
    for m in range(spec.num_networks):
        rng = np.random.default_rng(derive_seed(spec.seed, "network", m))
        n = spec.num_users
        rows, cols = np.triu_indices(n, k=1)
        edges = rng.random(rows.size) < spec.edge_density[m]
        if spec.weight_dist == "unit":
            values = np.ones(rows.size)
        else:
            values = rng.uniform(0.0, spec.weight_max, rows.size)
        w = np.zeros((n, n))
        w[rows, cols] = values * edges
        w += w.T
        nets.append(
            CandidateNetwork(
                num_users=n,
                weights=w,
                name=f"net{m}",
                kind="binary" if spec.weight_dist == "unit" else "weighted",
            )
        )
    return NetworkStack(networks=tuple(nets))


def planted_params(spec: SynthSpec) -> ModelParams:
    """Planted ModelParams: spec weights plus exponentially drawn susceptibility."""
    rng = np.random.default_rng(derive_seed(spec.seed, "susceptibility"))
    s = rng.exponential(scale=1.0 / spec.susceptibility_rate, size=spec.num_users)
    return ModelParams(
        net_weights=spec.planted_net_weights,
        pop_weight=spec.planted_pop_weight,
        susceptibility=s,
        constrained=True,
    )


def sample_adoptions_teacher(
    stack: NetworkStack, params: ModelParams, spec: SynthSpec
) -> TeacherData:
    """Two-stage teacher sampling (see module docstring).

    Per-app seeds are derived independently, so any evaluation order yields
    the same data.  Timestamps are synthetic ranks with every context adopter
    preceding every target adopter of the same app.
    """
    if params.num_users != spec.num_users or params.num_networks != spec.num_networks:
        raise ValueError("params dimensions do not match spec")
    context = spec.context_users
    target = spec.target_users
    num_users, num_apps = spec.num_users, spec.num_apps
    installed = np.zeros((num_users, num_apps), dtype=bool)
    times = np.full((num_users, num_apps), np.nan)

    # evidence weights from target users to context users, per network
    cross = np.stack([g.weights[np.ix_(target, context)] for g in stack.networks])

    for a in range(num_apps):
        rng = np.random.default_rng(derive_seed(spec.seed, "app", a))
        base_pop = rng.uniform(0.0, spec.pop_base_max)
        z_ctx = params.susceptibility[context] + params.pop_weight * base_pop
        ctx_bits = rng.random(context.size) < -np.expm1(-z_ctx)
        installed[context, a] = ctx_bits
        visible_count = float(ctx_bits.sum())
        exposure = np.tensordot(
            params.net_weights, cross @ ctx_bits.astype(float), axes=1
        )
        z_tgt = (
            params.susceptibility[target]
            + exposure
            + params.pop_weight * visible_count
        )
        tgt_bits = rng.random(target.size) < -np.expm1(-z_tgt)
        installed[target, a] = tgt_bits
        ctx_adopters = context[ctx_bits]
        tgt_adopters = target[tgt_bits]
        times[ctx_adopters, a] = np.arange(ctx_adopters.size)
        times[tgt_adopters, a] = ctx_adopters.size + np.arange(tgt_adopters.size)

    adoptions = AdoptionMatrix(
        num_users=num_users,
        num_apps=num_apps,
        installed=installed,
        install_times=times,
    )
    return TeacherData(
        adoptions=adoptions, context_users=context, target_users=target, params=params
    )


def generate(spec: SynthSpec) -> tuple[NetworkStack, TeacherData]:
    """Networks plus teacher data in one call."""
    stack = gen_networks(spec)
    return stack, sample_adoptions_teacher(stack, planted_params(spec), spec)


def recovery_fit(
    stack: NetworkStack,
    teacher: TeacherData,
    cfg: FitConfig | None = None,
    train_apps: Sequence[int] | np.ndarray | None = None,
) -> tuple[ModelParams, FitResult]:
    """Fit the model the way the teacher data is well-specified.

    The terms keep the target users' rows (``term_users``), their exposure
    counts the context users' adoptions alone (``evidence_users``), and so
    does each app's popularity, whatever popularity vector ``stack``
    carries.  Context susceptibilities are unidentified and pinned at zero
    when the result is widened to every user.
    """
    from .predict import transfer_params  # here, so `adoptnet synth` loads no scorer
    adoptions = teacher.adoptions
    if train_apps is None:
        train_apps = np.arange(adoptions.num_apps)
    terms = training_terms(
        NetworkStack(stack.networks), adoptions, train_apps,
        term_users=teacher.target_users, evidence_users=teacher.context_users,
    )
    params, result = fit_mle(terms, cfg=cfg)
    return transfer_params(params, teacher.target_users, adoptions.num_users, "zero"), result


@dataclass(frozen=True)
class RecoveryError:
    """Distance between planted and recovered parameters.

    rel_l2_weights and cosine_weights are computed on the concatenated
    (network weights, popularity weight) block; susceptibility_rmse on the
    susceptibility entries of ``target_users`` (all users when omitted).
    """

    rel_l2_weights: float
    cosine_weights: float
    susceptibility_rmse: float

    def to_dict(self) -> dict[str, float]:
        return {
            "rel_l2_weights": self.rel_l2_weights,
            "cosine_weights": self.cosine_weights,
            "susceptibility_rmse": self.susceptibility_rmse,
        }


def recovery_error(
    planted: ModelParams,
    recovered: ModelParams,
    target_users: Sequence[int] | np.ndarray | None = None,
) -> RecoveryError:
    """Compare recovered parameters against the planted truth."""
    if planted.num_networks != recovered.num_networks:
        raise ValueError("network-weight dimension mismatch")
    if planted.num_users != recovered.num_users:
        raise ValueError("susceptibility dimension mismatch")
    w_true = np.append(planted.net_weights, planted.pop_weight)
    w_hat = np.append(recovered.net_weights, recovered.pop_weight)
    denom = float(np.linalg.norm(w_true))
    if denom == 0:
        raise ValueError("planted weight block is all zero")
    rel_l2 = float(np.linalg.norm(w_hat - w_true)) / denom
    hat_norm = float(np.linalg.norm(w_hat))
    cosine = 0.0 if hat_norm == 0 else float(w_hat @ w_true) / (hat_norm * denom)
    users = (
        np.arange(planted.num_users)
        if target_users is None
        else np.asarray(target_users, dtype=int)
    )
    diff = recovered.susceptibility[users] - planted.susceptibility[users]
    s_rmse = float(np.sqrt(np.mean(diff**2)))
    return RecoveryError(
        rel_l2_weights=rel_l2, cosine_weights=cosine, susceptibility_rmse=s_rmse
    )
