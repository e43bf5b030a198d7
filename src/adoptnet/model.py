"""Composite-network adoption model: potentials, probabilities, likelihood.

A user's exposure to an app is the weighted count of adopting neighbours,
accumulated per candidate network and combined with learned non-negative
weights; an exogenous per-app popularity value enters through one extra
learned weight.  Adoption probability is 1 - exp(-(susceptibility + exposure)),
so independent evidence channels compound multiplicatively on the
non-adoption side and the log-likelihood is concave in all parameters.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import AdoptionMatrix, NetworkStack, artifact_json, hold

# Knee of the adopter log term in the training objective: below this exponent
# the term continues linearly (first-order Taylor), which keeps the objective
# finite and concave with a gradient capped near 1/EXPONENT_KNEE.  A boundary
# iterate that pins an adopter cell at z = 0 then sees a strong but
# line-searchable pull instead of a singular one.
EXPONENT_KNEE = 1e-3

# Curvature of log(1 - exp(-z)) at the knee, exp(z)/expm1(z)^2 at z = EXPONENT_KNEE
# (about 1e6): what an adopter cell at or below the knee meets as soon as a
# step lifts it past the knee.  See objective_derivatives.
KNEE_CURVATURE = float(1.0 / (np.expm1(EXPONENT_KNEE) * -np.expm1(-EXPONENT_KNEE)))

# Floor applied when converting an unconstrained negative exponent to a
# probability; irrelevant under the non-negativity constraints.
NEGATIVE_EXPONENT_EPS = 1e-12


class SolverError(RuntimeError):
    """A fit hit a non-finite objective value, or NNLS exceeded its step bound.

    Defined beside the objective rather than in the solver module, so the
    command line can catch it without loading the solvers.
    """


@dataclass(frozen=True)
class ModelParams:
    """Fitted parameters: per-network weights, popularity weight, susceptibility.

    ``constrained`` records whether the network weights were held >= 0 during
    fitting (susceptibility and the popularity weight always are).
    """

    net_weights: np.ndarray
    pop_weight: float
    susceptibility: np.ndarray
    constrained: bool = True

    def __post_init__(self) -> None:
        hold(self, net_weights=float, susceptibility=float)
        w, s = self.net_weights, self.susceptibility
        if w.ndim != 1 or s.ndim != 1:
            raise ValueError("net_weights and susceptibility must be 1-d")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(s)) and np.isfinite(self.pop_weight)):
            raise ValueError("parameters must be finite")
        if np.any(s < 0):
            raise ValueError("susceptibility must be non-negative")
        if self.pop_weight < 0:
            raise ValueError("popularity weight must be non-negative")
        if self.constrained and np.any(w < 0):
            raise ValueError("negative network weight in constrained parameters")
        object.__setattr__(self, "pop_weight", float(self.pop_weight))

    @property
    def num_networks(self) -> int:
        return int(self.net_weights.size)

    @property
    def num_users(self) -> int:
        return int(self.susceptibility.size)

    def to_dict(self) -> dict:
        # wire format keys: alpha / alpha_pop / s / constrained
        return {
            "alpha": self.net_weights.tolist(),
            "alpha_pop": self.pop_weight,
            "s": self.susceptibility.tolist(),
            "constrained": self.constrained,
        }

    def to_json(self) -> str:
        return artifact_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ModelParams":
        """Parameters from the wire format; a ValueError names the bad key."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("parameters must be a JSON object")
        for key in ("alpha", "alpha_pop", "s", "constrained"):
            if key not in obj:
                raise ValueError(f"missing key {key!r}")
        for key in ("alpha", "s"):
            if not (isinstance(obj[key], list) and all(map(_is_number, obj[key]))):
                raise ValueError(f"{key!r} must be a list of numbers")
        if not _is_number(obj["alpha_pop"]):
            raise ValueError("'alpha_pop' must be a number")
        if not isinstance(obj["constrained"], bool):
            raise ValueError("'constrained' must be true or false")
        return cls(
            net_weights=obj["alpha"],
            pop_weight=float(obj["alpha_pop"]),
            susceptibility=obj["s"],
            constrained=obj["constrained"],
        )


def _is_number(value) -> bool:
    """True for a JSON number: an int or a float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def network_potentials(
    stack: NetworkStack, evidence: np.ndarray,
    term_users: np.ndarray | None = None, evidence_users: np.ndarray | None = None,
) -> np.ndarray:
    """Per-network exposure of the term users to every app, shape (M, U', T).

    ``term_users`` and ``evidence_users`` hold sorted, distinct ids (None is
    every user); ``evidence`` has one row per evidence user and one column
    per app.  Entry [m, i, t] is the weighted count of the i-th term user's
    neighbours in network m who are evidence users and adopted app t; the
    zero diagonal keeps a user's own adoption out.  Each network multiplies
    its (term users x evidence users) block, or g.weights itself when both
    lists are None.

    Only training_terms builds this tensor, once per training split; both
    fits read their per-network features from the TrainingTerms it returns.
    Scoring never builds it; it multiplies the evidence by the composite
    network sum_m c_m W_m once (see predict._exposure).
    """
    everyone = np.arange(stack.num_users)
    rows = everyone if term_users is None else term_users
    cols = everyone if evidence_users is None else evidence_users
    ev = np.asarray(evidence, dtype=float)
    if ev.ndim != 2 or ev.shape[0] != cols.size:
        raise ValueError(f"evidence shape {ev.shape} does not match {cols.size} users")
    whole = term_users is None and evidence_users is None
    out = np.empty((stack.num_networks, rows.size, ev.shape[1]))
    for g, block in zip(stack.networks, out):
        np.matmul(g.weights if whole else g.weights[np.ix_(rows, cols)], ev, out=block)
    return out


def adoption_probability(susceptibility, potential):
    """1 - exp(-(susceptibility + potential)), elementwise.

    Non-negative exponents pass through untouched (0 maps to exactly 0.0); a
    negative exponent, reachable only with unconstrained network weights, is
    floored at NEGATIVE_EXPONENT_EPS so the result stays a probability.
    """
    z = np.asarray(susceptibility, dtype=float) + np.asarray(potential, dtype=float)
    z = np.where(z < 0, NEGATIVE_EXPONENT_EPS, z)
    return -np.expm1(-z)


def log1mexp(z: np.ndarray) -> np.ndarray:
    """log(1 - exp(-z)) for z > 0, evaluated stably on both branches."""
    z = np.asarray(z, dtype=float)
    small = z <= np.log(2.0)
    out = np.empty_like(z)
    out[small] = np.log(-np.expm1(-z[small]))
    out[~small] = np.log1p(-np.exp(-z[~small]))
    return out


@dataclass(frozen=True)
class TrainingTerms:
    """Precomputed pieces of the training objective for a fixed app subset.

    potentials[m, u, t] is user u's exposure to the t-th training app through
    network m, counted over the evidence users' adoptions; labels holds the
    outcomes being explained, one row per user whose terms enter the objective
    (every user in ordinary training, the observable users in the transfer
    protocol, the target half in teacher recovery).

    While no parameter is negative every exponent z is >= 0 and each
    non-adopter cell adds exactly -z, so the objective needs only what is
    gathered here once: adopter_users (n,) and adopter_features (M+1, n),
    the user of each adopter cell and its feature vector (its potentials,
    then its app's popularity); linear_susceptibility (U,), each user's
    count of non-adopted apps; linear_weights (M+1,), each channel summed
    over the non-adopter cells itself, not as a total minus the adopters'
    share; and channel_max (M+1,), each channel's largest value, fit_mle's
    scale.  dataclasses.replace derives a variant on the same split (a
    single network's potentials) and gathers those fields afresh.
    """

    potentials: np.ndarray  # (M, U, T)
    popularity: np.ndarray  # (T,)
    labels: np.ndarray  # (U, T) bool
    adopter_users: np.ndarray = field(init=False)
    adopter_features: np.ndarray = field(init=False)
    linear_susceptibility: np.ndarray = field(init=False)
    linear_weights: np.ndarray = field(init=False)
    channel_max: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        channel_max = np.append(self.potentials.max(axis=(1, 2)), self.popularity.max())
        object.__setattr__(self, "channel_max", channel_max)  # sets num_networks
        users, apps = np.nonzero(self.labels)
        features = np.empty((self.num_networks + 1, users.size))  # C-contiguous rows
        features[:-1] = self.potentials[:, users, apps]
        features[-1] = self.popularity[apps]
        passive = (~self.labels).astype(float)
        linear_weights = np.append(
            self.potentials.reshape(self.num_networks, -1) @ passive.ravel(),
            passive.sum(axis=0) @ self.popularity,
        )
        object.__setattr__(self, "adopter_users", users)
        object.__setattr__(self, "adopter_features", features)
        object.__setattr__(self, "linear_susceptibility", passive.sum(axis=1))
        object.__setattr__(self, "linear_weights", linear_weights)

    @property
    def num_networks(self) -> int:
        return int(self.channel_max.size - 1)

    @property
    def num_users(self) -> int:
        return int(self.labels.shape[0])


def training_terms(
    stack: NetworkStack,
    adoptions: AdoptionMatrix,
    train_apps: Sequence[int] | np.ndarray,
    *,
    term_users: Sequence[int] | np.ndarray | None = None,
    evidence_users: Sequence[int] | np.ndarray | None = None,
) -> TrainingTerms:
    """Build TrainingTerms for ``train_apps``: the one input of every fit.

    Each user list stands for its sorted, distinct ids; None (the default)
    is every user.  The terms keep the rows of ``term_users``, and their
    exposure counts only the adoptions of ``evidence_users``: the transfer
    protocol passes its observable users as both, teacher recovery the
    target and the context users.  An app's popularity is its count of
    evidence users who adopted it, as in the scorers, unless the stack
    carries its own popularity vector.
    Raises ValueError when ``train_apps`` is empty, holds an id outside
    [0, num_apps) or a duplicate, when a user list is empty or holds an id
    outside [0, num_users), or when the stack's popularity vector does not
    have one entry per app.
    """
    apps = np.asarray(train_apps, dtype=int)
    if apps.size == 0:
        raise ValueError("train_apps is empty")
    if apps.min() < 0 or apps.max() >= adoptions.num_apps:
        raise ValueError("train_apps contains an out-of-range app id")
    if np.bincount(apps).max() > 1:  # np.unique would import numpy.ma (~30 ms)
        raise ValueError("train_apps contains duplicates")
    if stack.popularity is not None and stack.popularity.shape != (adoptions.num_apps,):
        raise ValueError("stack popularity length does not match num_apps")
    rows = _sorted_users(term_users, adoptions.num_users, "term_users")
    cols = _sorted_users(evidence_users, adoptions.num_users, "evidence_users")
    installed = adoptions.installed[:, apps]
    evidence = installed if cols is None else installed[cols]
    pot = network_potentials(stack, evidence, rows, cols)
    pop = stack.popularity
    pop = evidence.sum(axis=0).astype(float) if pop is None else pop[apps]
    labels = installed if rows is None else installed[rows]
    return TrainingTerms(potentials=pot, popularity=pop, labels=labels)


def _sorted_users(users: Sequence[int] | None, num_users: int, name: str) -> np.ndarray | None:
    """The sorted, distinct ids of ``users``; None stays None (every user)."""
    if users is None:
        return None
    ids = np.asarray(users, dtype=int)
    if ids.size == 0:
        raise ValueError(f"{name} is empty")
    if ids.min() < 0 or ids.max() >= num_users:
        raise ValueError(f"{name} contains a user id outside 0..{num_users - 1}")
    return np.flatnonzero(np.bincount(ids, minlength=num_users))


def _adopter_exponents(
    terms: TrainingTerms, s: np.ndarray, w: np.ndarray, w_pop: float
) -> np.ndarray:
    return s[terms.adopter_users] + np.append(w, w_pop) @ terms.adopter_features


def objective_value(terms: TrainingTerms, s: np.ndarray, w: np.ndarray, w_pop: float) -> float:
    """Training log-likelihood at (susceptibility, net weights, pop weight).

    Adopter terms use log(1 - exp(-z)) above EXPONENT_KNEE and its tangent
    line below it, which keeps the whole term concave and exactly matched to
    the gradient; non-adopter terms contribute -max(z, 0), which keeps the
    objective bounded when negative weights are allowed.  While no parameter
    is negative that is the linear -z, so the cost is O(M * adopter cells).
    Otherwise -max(z, 0) = -z + min(z, 0), and the sum of min(z, 0) over the
    non-adopter cells is the one pass over the (M, U, T) tensor; in fits only
    the network_only_allow_negative variant lets a network weight go negative.
    """
    z = _adopter_exponents(terms, s, w, w_pop)
    z_knee = np.maximum(z, EXPONENT_KNEE)
    value = float(log1mexp(z_knee).sum())
    shortfall = float((z - z_knee).sum())
    if shortfall:
        value += shortfall / float(np.expm1(EXPONENT_KNEE))
    value -= float(terms.linear_susceptibility @ s) + float(
        terms.linear_weights @ np.append(w, w_pop)
    )
    if min(s.min(), w.min(), w_pop) < 0.0:
        z = s[:, None] + np.tensordot(w, terms.potentials, axes=1) + w_pop * terms.popularity
        value += float(np.minimum(z[~terms.labels], 0.0).sum())
    if not np.isfinite(value):
        raise FloatingPointError("non-finite training objective")
    return value


def _adopter_slopes(z: np.ndarray) -> np.ndarray:
    """Each adopter cell's slope exp(-z)/(1 - exp(-z)) = 1/expm1(z), at the floored exponent."""
    with np.errstate(over="ignore"):
        return 1.0 / np.expm1(np.maximum(z, EXPONENT_KNEE))


def _per_user_sums(terms: TrainingTerms, cells: np.ndarray) -> np.ndarray:
    """Sum each row of a (k, adopter cells) array over each user's cells: (U, k).

    The adopter cells are sorted by user, so one np.add.reduceat sums every
    user's run; a user without adopter cells has no run and keeps a zero row
    (reduceat would return the next run's first element for it).
    """
    bounds = np.searchsorted(terms.adopter_users, np.arange(terms.num_users + 1))
    has_cells = bounds[1:] > bounds[:-1]
    out = np.zeros((terms.num_users, cells.shape[0]))
    out[has_cells] = np.add.reduceat(cells, bounds[:-1][has_cells], axis=1).T
    return out


def objective_gradient(
    terms: TrainingTerms, s: np.ndarray, w: np.ndarray, w_pop: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Analytic gradient of objective_value, ordered (susceptibility, net, pop).

    Adopter cells contribute exp(-z)/(1 - exp(-z)) evaluated at the floored
    exponent; every non-adopter cell contributes the constant -1 (times the
    cell's potential for the weight blocks), the gathered linear
    coefficients, even where the relaxed-sign correction is active.  It is
    the first half of objective_derivatives, which computes it.
    """
    return objective_derivatives(terms, s, w, w_pop)[0]


def objective_derivatives(
    terms: TrainingTerms, s: np.ndarray, w: np.ndarray, w_pop: float
) -> tuple[tuple[np.ndarray, np.ndarray, float], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The gradient and the Newton model of objective_value, from one pass over the cells.

    Returns (objective_gradient's value, (D, B, C)).  With parameters ordered
    (susceptibility, net weights, pop weight) the model is the symmetric
    arrowhead matrix [[diag(D), B], [B.T, C]]: D (U,) is the susceptibility
    diagonal, B (U, M+1) couples each user's susceptibility to the weights,
    and C (M+1, M+1) is the dense weight block.  It is the negated Hessian
    plus a knee term on D.  Non-adopter terms and adopter cells at or below
    EXPONENT_KNEE are linear in the parameters, so only adopter cells above
    the knee add curvature, each exp(z)/expm1(z)^2 = slope * (1 + slope)
    times the outer product of its feature vector (1 for its user, then its
    potentials and its app's popularity).  An adopter cell in [0, knee] lies
    on the linear piece, yet a step that lifts it past the knee meets a
    curvature of KNEE_CURVATURE; its user's D gains that much, so a user
    held at the knee takes a Newton step instead of creeping up by the knee
    per iteration.  The term is zero when every adopter cell is above the
    knee, as at an optimum that is an exact MLE (see objective_value), and
    cells below zero (relaxed-sign fits only) add nothing.  The adopter
    exponents and slopes are computed once and every per-user sum comes
    from one np.add.reduceat; nothing passes over the M x U x T block.
    """
    z = _adopter_exponents(terms, s, w, w_pop)
    slopes = _adopter_slopes(z)
    above = z > EXPONENT_KNEE
    features = terms.adopter_features
    cells = np.empty((features.shape[0] + 3, slopes.size))
    cells[0] = slopes
    cells[1] = np.where(above, slopes * (1.0 + slopes), 0.0)  # the curvature
    cells[2] = (z >= 0.0) & ~above  # the knee band [0, knee]
    weighted = np.multiply(features, cells[1], out=cells[3:])
    per_user = _per_user_sums(terms, cells)
    diag = per_user[:, 1] + KNEE_CURVATURE * per_user[:, 2]
    dense = features @ weighted.T
    model = (diag, per_user[:, 3:], 0.5 * (dense + dense.T))
    grad_wp = features @ slopes - terms.linear_weights
    gradient = (per_user[:, 0] - terms.linear_susceptibility, grad_wp[:-1], float(grad_wp[-1]))
    return gradient, model


def log_likelihood(
    params: ModelParams,
    stack: NetworkStack,
    adoptions: AdoptionMatrix,
    train_apps: Sequence[int] | np.ndarray,
) -> float:
    """Log-likelihood of the adoption outcomes of ``train_apps`` under ``params``."""
    terms = training_terms(stack, adoptions, train_apps)
    return objective_value(terms, params.susceptibility, params.net_weights, params.pop_weight)


def log_likelihood_gradient(
    params: ModelParams,
    stack: NetworkStack,
    adoptions: AdoptionMatrix,
    train_apps: Sequence[int] | np.ndarray,
) -> np.ndarray:
    """Gradient of log_likelihood, flattened as (susceptibility..., net weights..., pop weight).

    An empty app subset contributes no terms, so the gradient is exactly zero.
    """
    if np.asarray(train_apps).size == 0:
        return np.zeros(params.num_users + params.num_networks + 1)
    terms = training_terms(stack, adoptions, train_apps)
    gs, gw, gp = objective_gradient(
        terms, params.susceptibility, params.net_weights, params.pop_weight
    )
    return np.concatenate([gs, gw, [gp]])
