"""Adoption scores for a batch of apps, and the per-app sheets they are cut into.

score_matrix scores every (user, app) pair from an evidence matrix, one
column per app, and a popularity value per app.  The three observation
regimes differ only in the inputs the caller builds:

- standard mode conditions on every other user's true adoption,
  ``installed[:, apps]`` (a user's own bit never feeds their own potential
  because the diagonal is zero), and ranks every user;
- future mode sees only the early adopters, with their count as the
  popularity, and ranks everyone else;
- transfer mode sees only the observable users' adoptions and scores the
  remaining users with transfer_params, which imputes the susceptibilities
  the fit on the observable group could not estimate.

regression_scores is the same computation for the linear baseline.
sheets_from_scores cuts a (U, T) score matrix into one PredictionSheet per
app.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .data import NetworkStack
from .model import ModelParams, adoption_probability, network_potentials
from .solver import RegressionParams


@dataclass(frozen=True)
class PredictionSheet:
    """Scores for one app: who was ranked, and whose adoption was the evidence."""

    app_id: int
    scores: np.ndarray
    evaluated_users: np.ndarray
    evidence_users: np.ndarray

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=float)
        if np.any(~np.isfinite(scores)) or np.any(scores < 0) or np.any(scores > 1):
            raise ValueError("scores must be finite and in [0, 1]")
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        for field in ("evaluated_users", "evidence_users"):
            ids = np.asarray(getattr(self, field), dtype=int)
            ids.setflags(write=False)
            object.__setattr__(self, field, ids)

    def csv_rows(self) -> list[str]:
        """`app_id,user_id,score,evaluated` rows, one per user."""
        evaluated = np.zeros(self.scores.size, dtype=np.uint8)
        evaluated[self.evaluated_users] = 1
        return [
            f"{self.app_id},{u},{score!r},{flag}"
            for u, (score, flag) in enumerate(
                zip(self.scores.tolist(), evaluated.tolist())
            )
        ]


def restrict_evaluated(sheet: PredictionSheet, users: np.ndarray) -> PredictionSheet:
    """Sheet with evaluated_users intersected with ``users`` (order-preserving)."""
    keep = np.isin(sheet.evaluated_users, np.asarray(users, dtype=int))
    return PredictionSheet(
        app_id=sheet.app_id,
        scores=sheet.scores,
        evaluated_users=sheet.evaluated_users[keep],
        evidence_users=sheet.evidence_users,
    )


def _exposure(
    net_coefs: np.ndarray,
    pop_coef: float,
    stack: NetworkStack,
    evidence: np.ndarray,
    popularity: np.ndarray,
) -> np.ndarray:
    """net_coefs . potentials + pop_coef * popularity, shape (U, T)."""
    if net_coefs.size != stack.num_networks:
        raise ValueError("coefficient / stack network count mismatch")
    potentials = network_potentials(stack, evidence)
    pop = np.asarray(popularity, dtype=float)
    if pop.shape != potentials.shape[2:]:
        raise ValueError(
            f"popularity shape {pop.shape} does not match {potentials.shape[2]} apps"
        )
    return np.tensordot(net_coefs, potentials, axes=1) + pop_coef * pop


def score_matrix(
    params: ModelParams,
    stack: NetworkStack,
    evidence: np.ndarray,
    popularity: np.ndarray,
) -> np.ndarray:
    """Adoption probability of every (user, app) pair, shape (U, T).

    Column t conditions on the adopters marked in ``evidence[:, t]`` and on
    the app's popularity value ``popularity[t]``; ``stack`` contributes its
    networks only.
    """
    if params.num_users != stack.num_users:
        raise ValueError("parameter / stack user count mismatch")
    exposure = _exposure(
        params.net_weights, params.pop_weight, stack, evidence, popularity
    )
    return adoption_probability(params.susceptibility[:, None], exposure)


def transfer_params(
    params_observable: ModelParams,
    observable_users: Sequence[int] | np.ndarray,
    num_users: int,
    impute: str = "mean",
) -> ModelParams:
    """Parameters fitted on the observable users, widened to every user.

    ``params_observable`` was fitted on the observable users alone, so its
    susceptibility vector follows the ascending order of ``observable_users``.
    The other users get susceptibility 0 (zero mode) or the mean fitted value
    (mean mode, the default).
    """
    if impute not in ("zero", "mean"):
        raise ValueError(f"unknown imputation mode {impute!r}")
    observable = np.sort(np.asarray(observable_users, dtype=int))
    if observable.size != params_observable.num_users:
        raise ValueError("observable group size does not match fitted parameters")
    fitted = params_observable.susceptibility
    imputed = 0.0 if impute == "zero" else float(fitted.mean())
    susceptibility = np.full(num_users, imputed)
    susceptibility[observable] = fitted
    return replace(params_observable, susceptibility=susceptibility)


def regression_scores(
    reg: RegressionParams,
    stack: NetworkStack,
    evidence: np.ndarray,
    popularity: np.ndarray,
    activity: np.ndarray,
) -> np.ndarray:
    """Baseline linear scores clipped to [0, 1], shape (U, T).

    ``evidence`` and ``popularity`` are as in score_matrix; ``activity`` is
    the per-user training-app install count (the same feature the regression
    was fitted on).
    """
    linear = (
        _exposure(reg.net_coefs, reg.pop_coef, stack, evidence, popularity)
        + reg.activity_coef * np.asarray(activity, dtype=float)[:, None]
        + reg.intercept
    )
    return np.clip(linear, 0.0, 1.0)


def sheets_from_scores(
    app_ids: Sequence[int] | np.ndarray,
    scores: np.ndarray,
    evidence: np.ndarray,
    evaluated: np.ndarray | None = None,
) -> list[PredictionSheet]:
    """Cut a (U, T) score matrix into one PredictionSheet per app column.

    ``evidence`` is the (U, T) matrix the scores were conditioned on.
    ``evaluated`` marks the ranked users and broadcasts against (U, T);
    every user is ranked when it is None.
    """
    columns = np.ascontiguousarray(np.asarray(scores, dtype=float).T)
    evidence_t = np.asarray(evidence, dtype=bool).T
    ranked_t = np.broadcast_to(
        True if evaluated is None else evaluated, columns.shape[::-1]
    ).T
    return [
        PredictionSheet(
            app_id=int(a),
            scores=columns[j],
            evaluated_users=np.flatnonzero(ranked_t[j]),
            evidence_users=np.flatnonzero(evidence_t[j]),
        )
        for j, a in enumerate(app_ids)
    ]
