"""Adoption scores for a batch of apps, as one users × apps block.

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

regression_scores is the same computation for the linear baseline.  A
PredictionSheet pairs a score matrix with its app ids and the mask of
ranked users; the metrics read it column by column.
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
    """Scores for a batch of apps: column j ranks the users for ``app_ids[j]``.

    ``scores`` has shape (U, T) for T = len(app_ids).  ``evaluated`` marks
    the ranked users; anything that broadcasts to (U, T) is accepted, so
    True (every user), a (U, 1) per-user column or a per-cell mask.
    """

    app_ids: np.ndarray
    scores: np.ndarray
    evaluated: np.ndarray | bool = True

    def __post_init__(self) -> None:
        app_ids = np.array(self.app_ids, dtype=int)
        scores = np.asarray(self.scores, dtype=float)
        if app_ids.ndim != 1 or scores.ndim != 2 or scores.shape[1] != app_ids.size:
            raise ValueError(f"scores of shape {scores.shape} need one column per app id")
        if np.any(~np.isfinite(scores)) or np.any(scores < 0) or np.any(scores > 1):
            raise ValueError("scores must be finite and in [0, 1]")
        app_ids.setflags(write=False)
        scores.setflags(write=False)
        # a broadcast_to view is read-only already
        evaluated = np.broadcast_to(np.asarray(self.evaluated, dtype=bool), scores.shape)
        for name, value in (("app_ids", app_ids), ("scores", scores), ("evaluated", evaluated)):
            object.__setattr__(self, name, value)

    def restrict(self, users: np.ndarray) -> PredictionSheet:
        """The block with only the users set in the (U,) mask ``users`` left evaluated."""
        users = np.asarray(users, dtype=bool)
        return replace(self, evaluated=self.evaluated & users[:, None])

    def csv_rows(self) -> list[str]:
        """`app_id,user_id,score,evaluated` rows, app-major, one per user."""
        columns = zip(self.app_ids.tolist(), self.scores.T, self.evaluated.T)
        return [
            f"{app},{u},{score!r},{flag}"
            for app, scores, ranked in columns
            for u, (score, flag) in enumerate(
                zip(scores.tolist(), ranked.astype(np.uint8).tolist())
            )
        ]


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
