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

from .data import AdoptionMatrix, NetworkStack

# Knee of the adopter log term in the training objective: below this exponent
# the term continues linearly (first-order Taylor), which keeps the objective
# finite and concave with a gradient capped near 1/EXPONENT_KNEE.  A boundary
# iterate that pins an adopter cell at z = 0 then sees a strong but
# line-searchable pull instead of a singular one.
EXPONENT_KNEE = 1e-3

# Floor applied when converting an unconstrained negative exponent to a
# probability; irrelevant under the non-negativity constraints.
NEGATIVE_EXPONENT_EPS = 1e-12


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
        w = np.asarray(self.net_weights, dtype=float)
        s = np.asarray(self.susceptibility, dtype=float)
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
        w.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "net_weights", w)
        object.__setattr__(self, "susceptibility", s)
        object.__setattr__(self, "pop_weight", float(self.pop_weight))

    @property
    def num_networks(self) -> int:
        return int(self.net_weights.size)

    @property
    def num_users(self) -> int:
        return int(self.susceptibility.size)

    def to_json(self) -> str:
        # wire format keys: alpha / alpha_pop / s / constrained
        return json.dumps(
            {
                "alpha": self.net_weights.tolist(),
                "alpha_pop": self.pop_weight,
                "s": self.susceptibility.tolist(),
                "constrained": self.constrained,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ModelParams":
        obj = json.loads(text)
        return cls(
            net_weights=np.asarray(obj["alpha"], dtype=float),
            pop_weight=float(obj["alpha_pop"]),
            susceptibility=np.asarray(obj["s"], dtype=float),
            constrained=bool(obj["constrained"]),
        )


def network_potentials(stack: NetworkStack, evidence: np.ndarray) -> np.ndarray:
    """Per-network exposure of every user to every app, shape (M, U, T).

    ``evidence`` is a (U, T) adoption matrix with one column per app; entry
    [m, u, t] is the weighted count of user u's neighbours in network m who
    adopted app t.  A user's own entry never contributes because the
    diagonal is zero.
    """
    ev = np.asarray(evidence, dtype=float)
    if ev.ndim != 2 or ev.shape[0] != stack.num_users:
        raise ValueError(
            f"evidence shape {ev.shape} does not match {stack.num_users} users"
        )
    return np.stack([g.weights @ ev for g in stack.networks])


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
    network m, computed from the evidence adoption matrix; labels holds the
    outcomes being explained.  term_users masks which users' outcome terms
    enter the objective (all of them in ordinary training; the target half in
    teacher-recovery fits).

    While no parameter is negative every exponent z is >= 0 and each
    non-adopter cell adds exactly -z, so the objective needs only what is
    gathered here once, over term users: adopter_users (n,) and
    adopter_features (M+1, n), the user of each adopter cell and its feature
    vector (its potentials, then its app's popularity); linear_susceptibility
    (U,), each user's count of non-adopted apps; and linear_weights (M+1,),
    each channel summed over the non-adopter mask itself, not as a total
    minus the adopters' share.
    """

    potentials: np.ndarray  # (M, U, T)
    popularity: np.ndarray  # (T,)
    labels: np.ndarray  # (U, T) bool
    term_users: np.ndarray  # (U,) bool
    adopter_users: np.ndarray = field(init=False)
    adopter_features: np.ndarray = field(init=False)
    linear_susceptibility: np.ndarray = field(init=False)
    linear_weights: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        users, apps = np.nonzero(self.labels & self.term_users[:, None])
        features = np.vstack([self.potentials[:, users, apps], self.popularity[apps]])
        passive = (~self.labels & self.term_users[:, None]).astype(float)
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
        return int(self.potentials.shape[0])

    @property
    def num_users(self) -> int:
        return int(self.potentials.shape[1])


def checked_train_apps(
    stack: NetworkStack, adoptions: AdoptionMatrix, train_apps: Sequence[int] | np.ndarray
) -> np.ndarray:
    """``train_apps`` as an int array, checked as every fit needs it.

    Raises ValueError when the list is empty, holds an id outside
    [0, num_apps) or a duplicate, or when the stack's popularity vector does
    not have one entry per app.
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
    return apps


def training_terms(
    stack: NetworkStack,
    adoptions: AdoptionMatrix,
    train_apps: Sequence[int] | np.ndarray,
    evidence: AdoptionMatrix | None = None,
    term_users: Sequence[int] | np.ndarray | None = None,
) -> TrainingTerms:
    """Build TrainingTerms for ``train_apps``.

    ``evidence`` defaults to the label matrix itself (standard conditioning)
    and must cover the same users and apps.  ``term_users`` holds user ids in
    [0, num_users) and defaults to every user.
    """
    apps = checked_train_apps(stack, adoptions, train_apps)
    if evidence is None:
        evidence = adoptions
    if evidence.num_users != adoptions.num_users:
        raise ValueError("evidence user universe does not match labels")
    if evidence.num_apps != adoptions.num_apps:
        raise ValueError(
            f"evidence has {evidence.num_apps} apps but the labels have {adoptions.num_apps}"
        )
    pot = network_potentials(stack, evidence.installed[:, apps])
    pop = stack.popularity[apps] if stack.popularity is not None else np.zeros(apps.size)
    mask = np.zeros(adoptions.num_users, dtype=bool)
    if term_users is None:
        mask[:] = True
    else:
        users = np.asarray(term_users, dtype=int)
        if users.size and (users.min() < 0 or users.max() >= adoptions.num_users):
            raise ValueError(
                f"term_users contains a user id outside 0..{adoptions.num_users - 1}"
            )
        mask[users] = True
    return TrainingTerms(
        potentials=pot,
        popularity=pop,
        labels=adoptions.installed[:, apps],
        term_users=mask,
    )


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
    a network weight can be negative, under allow_negative_net_weights.
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
        passive = ~terms.labels & terms.term_users[:, None]
        value += float(np.minimum(z[passive], 0.0).sum())
    if not np.isfinite(value):
        raise FloatingPointError("non-finite training objective")
    return value


def objective_gradient(
    terms: TrainingTerms, s: np.ndarray, w: np.ndarray, w_pop: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Analytic gradient of objective_value, ordered (susceptibility, net, pop).

    Adopter cells contribute exp(-z)/(1 - exp(-z)) evaluated at the floored
    exponent; every non-adopter cell contributes the constant -1 (times the
    cell's potential for the weight blocks), the gathered linear
    coefficients, even where the relaxed-sign correction is active.
    """
    z = _adopter_exponents(terms, s, w, w_pop)
    with np.errstate(over="ignore"):
        coef = 1.0 / np.expm1(np.maximum(z, EXPONENT_KNEE))
    grad_s = (
        np.bincount(terms.adopter_users, weights=coef, minlength=terms.num_users)
        - terms.linear_susceptibility
    )
    grad_wp = terms.adopter_features @ coef - terms.linear_weights
    return grad_s, grad_wp[:-1], float(grad_wp[-1])


def objective_hessian(
    terms: TrainingTerms, s: np.ndarray, w: np.ndarray, w_pop: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Negated Hessian of objective_value in arrowhead blocks (D, B, C).

    With parameters ordered (susceptibility, net weights, pop weight) the
    negated Hessian is [[diag(D), B], [B.T, C]]: D (U,) is the diagonal
    susceptibility block, B (U, M+1) couples each user's susceptibility to
    the weights, and C (M+1, M+1) is the dense weight block.  Non-adopter
    terms and adopter cells at or below EXPONENT_KNEE are linear in the
    parameters, so only adopter cells above the knee add curvature, each
    exp(z)/expm1(z)^2 times the outer product of its feature vector
    (1 for its user, then its potentials and its app's popularity).  Those
    cells are gathered once; nothing passes over the full M x U x T block.
    """
    z = _adopter_exponents(terms, s, w, w_pop)
    users, features = terms.adopter_users, terms.adopter_features
    with np.errstate(over="ignore", divide="ignore"):
        h = np.where(z > EXPONENT_KNEE, 1.0 / (np.expm1(z) * -np.expm1(-z)), 0.0)
    num_users = terms.num_users
    diag = np.bincount(users, weights=h, minlength=num_users)
    coupling = np.stack(
        [np.bincount(users, weights=row * h, minlength=num_users) for row in features],
        axis=1,
    )
    root = features * np.sqrt(h)  # root @ root.T is symmetric bit for bit
    return diag, coupling, root @ root.T


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
