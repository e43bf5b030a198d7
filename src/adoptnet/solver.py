"""Constrained maximization of the training objective, plus the baselines.

The main fit is projected Newton (Bertsekas 1982, SIAM J. Control Optim.
20:221) on the arrowhead Hessian from ``objective_hessian``.  Each iteration
splits the coordinates.  Frozen ones stay put.  Active ones, Bertsekas's
epsilon-active set widened to every coordinate whose own diagonal Newton
step reaches its bound, take that diagonal step.  Constrained coordinates
without curvature take a linear-model step: to the bound when the gradient
points down, by EXPONENT_KNEE when it points up.  The rest take a Newton
step, solved through the Schur complement of the diagonal susceptibility
block in O(U * M^2).  The step is backtracked along the projection arc
project(theta + a * d) with an Armijo test on the actual displacement.  When
the Newton arc finds no sufficient increase (for instance on the piecewise
linear objective of unconstrained weights), the same iteration falls back to
a projected-gradient step.  The fit stops only when the projected gradient
is within grad_tol, when both arcs fail, or at max_iters.  Projection is
componentwise max(., 0) on every constrained coordinate, so every evaluated
point is feasible, and the concave objective rises monotonically up to the
rounding allowance of a full Newton step.  Each evaluation of a constrained
fit costs O(M * adopter cells): none passes over the (M, U, T) tensor.

The regression baseline is an exact non-negative least squares, solved by
Lawson and Hanson's active-set method on its (users x train apps) by
(networks + 3) design.  It reads no FitConfig: it stops when the KKT
conditions hold to a rounding-level tolerance taken from the design, and
raises SolverError instead of returning an unconverged fit.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .data import AdoptionMatrix, NetworkStack
from .model import (
    EXPONENT_KNEE,
    ModelParams,
    checked_train_apps,
    network_potentials,
    objective_gradient,
    objective_hessian,
    objective_value,
    training_terms,
)

ARMIJO_SHRINK = 0.5
ARMIJO_SUFFICIENT = 1e-4
MIN_STEP = 1e-20
# A Newton arc that needs a shorter step than this hands over to the
# projected-gradient arc.
NEWTON_MIN_STEP = 1e-6
# Bertsekas's epsilon: a constrained coordinate within
# min(ACTIVE_EPS, ||theta - project(theta + g)||) of zero whose gradient
# points below zero is active.
ACTIVE_EPS = 1e-3
# Relative rounding level of the objective.  A full Newton step whose
# predicted gain is below it cannot be told apart from noise, so it is
# accepted unless the objective falls by more than that level.
OBJECTIVE_ROUNDOFF = 1e-12


class SolverError(RuntimeError):
    """A fit hit a non-finite objective value, or NNLS exceeded its step bound."""


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings.

    init_net_weight of None means 1/num_networks (also used for the
    popularity weight).  grad_tol applies to the infinity norm of the
    projected gradient and is the only test that ends a maximum-likelihood
    fit as converged; that fit is projected Newton and otherwise stops when
    neither its Newton nor its projected-gradient arc search finds an
    increase, or at max_iters.  grad_tol and the starting values must be
    finite: a NaN tolerance is never met and an infinite one is met at the
    start.  The fix_* flags freeze a parameter block at zero;
    allow_negative_net_weights lifts the sign constraint on the network
    weights only.
    """

    max_iters: int = 10_000
    grad_tol: float = 1e-6
    init_net_weight: float | None = None
    init_susceptibility: float = 0.1
    allow_negative_net_weights: bool = False
    fix_susceptibility_at_zero: bool = False
    fix_net_weights_at_zero: bool = False

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (np.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValueError(f"tolerances must be finite and positive: grad_tol {self.grad_tol}")
        if not (np.isfinite(self.init_susceptibility) and self.init_susceptibility >= 0):
            raise ValueError("init_susceptibility must be finite and non-negative")
        if self.init_net_weight is not None and not np.isfinite(self.init_net_weight):
            raise ValueError("init_net_weight must be finite")


@dataclass(frozen=True)
class FitResult:
    """Convergence record for one fit.

    converged is true exactly when grad_norm, the infinity norm of the
    projected gradient at the returned point, is at most grad_tol.
    stop_reason names the test that ended the loop: grad_tol,
    line_search_exhausted or max_iters.  The evaluation counts include those
    at the start and at the returned point.
    """

    iterations: int
    final_objective: float
    converged: bool
    grad_norm: float
    stop_reason: str
    objective_evals: int
    gradient_evals: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _project(
    t: np.ndarray, theta0: np.ndarray, nonneg: np.ndarray, frozen: np.ndarray
) -> np.ndarray:
    out = t.copy()
    out[nonneg] = np.maximum(out[nonneg], 0.0)
    out[frozen] = theta0[frozen]
    return out


def _projected_gradient(t: np.ndarray, g: np.ndarray, nonneg: np.ndarray) -> np.ndarray:
    pg = g.copy()
    pg[nonneg & (t <= 0.0) & (g < 0.0)] = 0.0
    return pg


class _Oracle:
    """Counted objective and gradient evaluations of one fit.

    A non-finite objective becomes SolverError; frozen coordinates get a
    zero gradient.
    """

    def __init__(
        self,
        value: Callable[[np.ndarray], float],
        grad: Callable[[np.ndarray], np.ndarray],
        frozen: np.ndarray,
    ):
        self._value = value
        self._grad = grad
        self._frozen = frozen
        self.objective_evals = 0
        self.gradient_evals = 0

    def value(self, t: np.ndarray, iteration: int) -> float:
        self.objective_evals += 1
        try:
            return self._value(t)
        except FloatingPointError as exc:
            where = "the initial point" if iteration == 0 else f"iteration {iteration}"
            raise SolverError(f"non-finite objective at {where}: {exc}") from exc

    def gradient(self, t: np.ndarray) -> np.ndarray:
        self.gradient_evals += 1
        g = self._grad(t)
        g[self._frozen] = 0.0
        return g

    def result(
        self, iterations: int, objective: float, grad_norm: float, reason: str, cfg: FitConfig
    ) -> FitResult:
        return FitResult(
            iterations=iterations,
            final_objective=objective,
            converged=grad_norm <= cfg.grad_tol,
            grad_norm=grad_norm,
            stop_reason=reason,
            objective_evals=self.objective_evals,
            gradient_evals=self.gradient_evals,
        )


def _arc_search(
    oracle: _Oracle,
    project: Callable[[np.ndarray], np.ndarray],
    theta: np.ndarray,
    current: float,
    g: np.ndarray,
    d: np.ndarray,
    iteration: int,
    noise: float = 0.0,
    min_step: float = MIN_STEP,
) -> tuple[np.ndarray, float] | None:
    """Armijo backtracking along project(theta + step * d), step = 1, 1/2, ...

    The sufficient-increase test uses the actual displacement,
    g . (candidate - theta), which must be positive.  A first trial whose
    predicted gain is at most ``noise`` passes if the objective falls by no
    more than ``noise``.  Returns None when the step shrinks below min_step.
    """
    step = 1.0
    while step > min_step:
        cand = project(theta + step * d)
        cand_val = oracle.value(cand, iteration)
        gain = float(g @ (cand - theta))
        if gain > 0.0:
            if cand_val >= current + ARMIJO_SUFFICIENT * gain:
                return cand, cand_val
            if step == 1.0 and gain <= noise and cand_val >= current - noise:
                return cand, cand_val
        step *= ARMIJO_SHRINK
    return None


def _newton_direction(
    theta: np.ndarray,
    g: np.ndarray,
    hessian: tuple[np.ndarray, np.ndarray, np.ndarray],
    nonneg: np.ndarray,
    frozen: np.ndarray,
    project: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Projected-Newton ascent direction on an arrowhead negated Hessian.

    ``hessian`` is (D, B, C) as returned by objective_hessian: the first
    D.size coordinates form the diagonal block.  Frozen coordinates do not
    move.  Active coordinates, and free ones without curvature, take a
    diagonal step; the remaining block is solved through the Schur
    complement of its diagonal part.
    """
    diag_block, coupling, dense = hessian
    n = diag_block.size
    curvature = np.concatenate([diag_block, np.diag(dense)])
    curved = curvature > 0.0
    d = np.where(curved, g / np.where(curved, curvature, 1.0), g)
    # A constrained coordinate without curvature sees a linear objective:
    # falling, it goes straight to its bound; rising, it moves by the knee,
    # which lifts its adopter exponents back to where curvature starts.
    flat = nonneg & ~curved
    d[flat] = np.where(g[flat] < 0.0, -theta[flat], EXPONENT_KNEE)
    # Bertsekas's epsilon-active set, widened to the coordinates whose own
    # diagonal step already reaches the bound: far from the optimum a nearly
    # flat coordinate would otherwise hand the coupled solve a huge step.
    eps = min(ACTIVE_EPS, float(np.linalg.norm(theta - project(theta + g))))
    active = frozen | (nonneg & (g < 0.0) & ((theta <= eps) | (theta + d <= 0.0)))
    d[frozen] = 0.0
    newton = ~active & curved
    rows = np.flatnonzero(newton[:n])
    cols = np.flatnonzero(newton[n:])
    diag_f = diag_block[rows]
    g_rows = g[rows]
    if cols.size:
        coupling_f = coupling[np.ix_(rows, cols)]
        scaled = coupling_f / diag_f[:, None]
        schur = dense[np.ix_(cols, cols)] - coupling_f.T @ scaled
        rhs = g[n + cols] - scaled.T @ g_rows
        d_cols = np.linalg.lstsq(schur, rhs, rcond=1e-12)[0]
        d[n + cols] = d_cols
        d[rows] = (g_rows - coupling_f @ d_cols) / diag_f
    else:
        d[rows] = g_rows / diag_f
    return d


def _projected_newton(
    value: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    hessian: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]],
    theta0: np.ndarray,
    nonneg: np.ndarray,
    frozen: np.ndarray,
    cfg: FitConfig,
) -> tuple[np.ndarray, FitResult]:
    """Maximize a concave value() with an arrowhead Hessian from theta0.

    Frozen coordinates keep their initial value; nonneg coordinates are
    projected onto [0, inf).  Each iteration searches the projected-Newton
    arc and, if that finds no sufficient increase, the projected-gradient
    arc.  The loop stops when the projected gradient's infinity norm is
    within grad_tol, when both arc searches fail, or at max_iters.
    """
    theta0 = np.asarray(theta0, dtype=float)

    def project(t: np.ndarray) -> np.ndarray:
        return _project(t, theta0, nonneg, frozen)

    oracle = _Oracle(value, grad, frozen)
    theta = project(theta0)
    current = oracle.value(theta, 0)
    iterations = 0
    while True:
        g = oracle.gradient(theta)
        grad_norm = float(np.abs(_projected_gradient(theta, g, nonneg)).max())
        if grad_norm <= cfg.grad_tol:
            reason = "grad_tol"
            break
        if iterations >= cfg.max_iters:
            reason = "max_iters"
            break
        d = _newton_direction(theta, g, hessian(theta), nonneg, frozen, project)
        noise = OBJECTIVE_ROUNDOFF * max(1.0, abs(current))
        step = None
        if np.all(np.isfinite(d)):
            step = _arc_search(
                oracle, project, theta, current, g, d, iterations + 1, noise,
                NEWTON_MIN_STEP,
            )
        if step is None:
            step = _arc_search(oracle, project, theta, current, g, g, iterations + 1)
        if step is None:
            reason = "line_search_exhausted"
            break
        iterations += 1
        theta, current = step
    return theta, oracle.result(iterations, current, grad_norm, reason, cfg)


def fit_mle(
    stack: NetworkStack,
    adoptions: AdoptionMatrix,
    train_apps: Sequence[int] | np.ndarray,
    cfg: FitConfig | None = None,
    *,
    evidence: AdoptionMatrix | None = None,
    term_users: Sequence[int] | np.ndarray | None = None,
) -> tuple[ModelParams, FitResult]:
    """Maximum-likelihood fit of the composite-network model on ``train_apps``.

    ``evidence`` and ``term_users`` support fits whose likelihood terms cover
    only a user subset, conditioned on a different adoption matrix (teacher
    recovery); both default to ordinary training.  The solver sees each
    weight channel (every network, then popularity) in unit-max coordinates:
    the weight times the channel's largest value on a term user's row, and
    grad_tol is measured there.  Coordinates that cannot affect the objective
    (a channel that is zero on every term row, a user outside term_users)
    are frozen at zero, so the returned parameters are the minimum-norm
    representative on flat directions.
    """
    cfg = cfg or FitConfig()
    terms = training_terms(
        stack, adoptions, train_apps, evidence=evidence, term_users=term_users
    )
    if not terms.term_users.any():
        raise ValueError("term_users excludes every user")
    num_users, num_nets = terms.num_users, terms.num_networks
    init_w = cfg.init_net_weight if cfg.init_net_weight is not None else 1.0 / num_nets

    # Unit-max channels let one gradient step length suit all coordinate
    # blocks, and a weight's knee step moves no exponent by more than the
    # knee.  The objective is evaluated at w = theta / scale and its
    # derivatives follow by the chain rule.
    scale = np.append(
        terms.potentials.max(axis=2)[:, terms.term_users].max(axis=1),
        terms.popularity.max(),
    )
    flat = scale == 0.0
    scale[flat] = 1.0

    theta0 = np.append(np.full(num_users, cfg.init_susceptibility), init_w * scale)
    frozen = np.append(~terms.term_users, flat)
    frozen[:num_users] |= cfg.fix_susceptibility_at_zero
    frozen[num_users:-1] |= cfg.fix_net_weights_at_zero
    theta0[frozen] = 0.0

    nonneg = np.ones(theta0.size, dtype=bool)
    nonneg[num_users:-1] = not cfg.allow_negative_net_weights

    def unscaled(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        w = t[num_users:] / scale
        return t[:num_users], w[:-1], float(w[-1])

    def value(t: np.ndarray) -> float:
        return objective_value(terms, *unscaled(t))

    def gradient(t: np.ndarray) -> np.ndarray:
        gs, gw, gp = objective_gradient(terms, *unscaled(t))
        return np.append(gs, np.append(gw, gp) / scale)

    def hessian(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        diag, coupling, dense = objective_hessian(terms, *unscaled(t))
        return diag, coupling / scale, dense / scale[:, None] / scale

    theta, result = _projected_newton(
        value, gradient, hessian, theta0, nonneg, frozen, cfg
    )
    susceptibility, net_weights, pop_weight = unscaled(theta)
    params = ModelParams(
        net_weights=net_weights,
        pop_weight=pop_weight,
        susceptibility=susceptibility,
        constrained=not cfg.allow_negative_net_weights,
    )
    return params, result


def nonneg_least_squares(features: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Minimize ||features @ beta - targets||^2 subject to beta >= 0, exactly.

    Lawson and Hanson's active-set method (Solving Least Squares Problems,
    1974, ch. 23).  From beta = 0 each step frees the coordinate with the
    largest dual F.T @ (y - F @ beta) and solves the least squares on the
    free columns.  When that solution has a non-positive entry, beta moves
    along the segment towards it until the first coordinate reaches zero,
    which is bound again.  A coordinate that would enter at a non-positive
    value is skipped for that step.  The loop ends when no bound coordinate
    left has a dual above 10 * eps * max(n, d) times the largest column sum
    of |F|, and raises SolverError after 3 * d steps.
    """
    F = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if F.ndim != 2 or y.shape != (F.shape[0],):
        raise ValueError("features must be (n, d) with matching targets")
    if not (np.all(np.isfinite(F)) and np.all(np.isfinite(y))):
        raise ValueError("features and targets must be finite")
    n, d = F.shape
    tol = 10.0 * np.finfo(float).eps * max(n, d) * np.abs(F).sum(axis=0).max(initial=0.0)

    def solve(free: np.ndarray) -> np.ndarray:
        z = np.zeros(d)
        z[free] = np.linalg.lstsq(F[:, free], y, rcond=None)[0]
        return z

    beta = np.zeros(d)
    passive = np.zeros(d, dtype=bool)
    for step in range(3 * d + 1):
        dual = np.where(passive, -np.inf, F.T @ (y - F @ beta))
        while dual.max(initial=-np.inf) > tol:
            j = int(np.argmax(dual))
            passive[j] = True
            z = solve(passive)
            if z[j] > 0.0:
                break
            # Only rounding lets a coordinate with a positive dual enter at
            # a non-positive value; Lawson and Hanson skip it.
            passive[j] = False
            dual[j] = -np.inf
        else:
            return beta
        if step == 3 * d:
            break
        while np.any(z[passive] <= 0.0):
            blocking = np.flatnonzero(passive & (z <= 0.0))
            ratios = beta[blocking] / (beta[blocking] - z[blocking])
            first = int(np.argmin(ratios))
            beta = beta + ratios[first] * (z - beta)
            beta[blocking[first]] = 0.0
            passive &= beta > 0.0
            beta[~passive] = 0.0
            z = solve(passive)
        beta = z
    raise SolverError(f"non-negative least squares did not converge in {3 * d} steps")


@dataclass(frozen=True)
class RegressionParams:
    """Non-negative regression coefficients for the baseline predictor.

    Scores are clip(net_coefs . potentials + pop_coef * popularity
    + activity_coef * apps_per_user + intercept, 0, 1).
    """

    net_coefs: np.ndarray
    pop_coef: float
    activity_coef: float
    intercept: float

    def __post_init__(self) -> None:
        c = np.asarray(self.net_coefs, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "net_coefs", c)


def fit_regression(
    stack: NetworkStack,
    adoptions: AdoptionMatrix,
    train_apps: Sequence[int] | np.ndarray,
) -> RegressionParams:
    """Non-negative least squares of adoption bits on evidence features.

    One row per training (user, app) cell; columns are the per-network
    potentials, the app's popularity, the user's training-app install count,
    and an intercept.  All coefficients are constrained non-negative.
    ``train_apps`` is checked as fit_mle checks it (checked_train_apps).
    """
    apps = checked_train_apps(stack, adoptions, train_apps)
    ev = adoptions.installed[:, apps].astype(float)
    num_users, num_train = ev.shape
    columns = [p.ravel() for p in network_potentials(stack, ev)]
    if stack.popularity is not None:
        pop = stack.popularity[apps]
    else:
        pop = np.zeros(num_train)
    columns.append(np.broadcast_to(pop, (num_users, num_train)).ravel())
    activity = ev.sum(axis=1)  # training apps only: test installs must not leak in
    columns.append(np.repeat(activity, num_train))
    columns.append(np.ones(num_users * num_train))
    F = np.column_stack(columns)
    y = ev.ravel()
    coef = nonneg_least_squares(F, y)
    num_nets = stack.num_networks
    return RegressionParams(
        net_coefs=coef[:num_nets],
        pop_coef=float(coef[num_nets]),
        activity_coef=float(coef[num_nets + 1]),
        intercept=float(coef[num_nets + 2]),
    )


def random_baseline(num_users: int, seed: int) -> np.ndarray:
    """I.i.d. uniform(0,1) scores from a seeded generator."""
    if num_users < 1:
        raise ValueError("num_users must be positive")
    return np.random.default_rng(seed).random(num_users)
