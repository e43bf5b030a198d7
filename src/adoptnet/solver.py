"""Constrained maximization of the training objective, plus the baselines.

The main fit is projected Newton (Bertsekas 1982, SIAM J. Control Optim.
20:221) on an arrowhead Newton model: the exact Hessian plus, on the
susceptibility diagonal, a knee term.  An adopter cell at or below
EXPONENT_KNEE lies on the objective's linear piece and adds no exact
curvature, yet a step that lifts it past the knee meets a curvature of about
1/knee^2; without the term, a user held there could only creep by the knee
per iteration, and a fit could stall.  The term is zero when no adopter cell
lies in [0, EXPONENT_KNEE], so near an optimum the model is the exact
Hessian; the value, the gradient and the grad_tol test do not change.
``objective_derivatives`` returns the gradient and this model from one pass
over the adopter cells, once per accepted point; trial points of the arc
search evaluate only ``objective_value``.  Each iteration splits the
coordinates.  Frozen ones stay put.  Active ones, Bertsekas's epsilon-active
set widened to every coordinate whose own diagonal Newton step reaches its
bound, take that diagonal step.  Constrained coordinates without curvature
take a linear-model step: to the bound when the gradient points down, by
EXPONENT_KNEE when it points up.  The rest take a Newton step, solved
through the Schur complement of the diagonal susceptibility block in
O(U * M^2); the Schur block, at most (M+1) square, is solved directly when
its Cholesky factor shows it numerically positive definite, and by least
squares otherwise.  The step is backtracked along the projection arc
project(theta + a * d) with an Armijo test on the actual displacement.  When
the Newton arc finds no sufficient increase (for instance on the piecewise
linear objective of unconstrained weights), the same iteration falls back to
a projected-gradient step.  An arc ends at its first trial that leaves
theta bit for bit unchanged, since no shorter step can move it.  The fit
stops only when the projected gradient is within grad_tol, when the
projected-gradient arc ends that way (stalled), when both arcs fail
otherwise, or at max_iters.  Projection is componentwise max(., 0) on every
constrained coordinate, so every evaluated point is feasible, and the
concave objective rises monotonically up to the rounding allowance of a full
Newton step.  Each evaluation of a constrained fit costs O(M * adopter
cells), and its channel scales are the maxima TrainingTerms gathered: no
constrained fit passes over the (M, U, T) tensor.

Both fits take the TrainingTerms of their split, so a split's per-network
potentials are built once; the protocol runners call both themselves.  The
regression baseline is an exact non-negative least squares, solved by
Lawson and Hanson's active-set method on its (users x train apps) by
(networks + 3) design, read off those terms; its parameters carry the
per-user activity feature it was fitted on, so it is scored from its
parameters alone, as the main model is.  It reads no FitConfig (owned by
config, re-exported here): it stops when the KKT conditions hold to a
rounding-level tolerance taken from the design, and raises SolverError
(defined in model, re-exported here) instead of returning an unconverged
fit.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .config import FitConfig
from .data import artifact_json, hold
from .model import (  # SolverError re-exported
    EXPONENT_KNEE,
    ModelParams,
    SolverError,
    TrainingTerms,
    objective_derivatives,
    objective_value,
)

ARMIJO_SHRINK = 0.5
ARMIJO_SUFFICIENT = 1e-4
MIN_STEP = 1e-20
# A Newton arc that needs a shorter step than this hands over to the
# projected-gradient arc: at most 10 trials, steps 1 down to 2**-9.
NEWTON_MIN_STEP = 2.0**-10
# Bertsekas's epsilon: a constrained coordinate within
# min(ACTIVE_EPS, ||theta - project(theta + g)||) of zero whose gradient
# points below zero is active.
ACTIVE_EPS = 1e-3
# Relative rounding level of the objective.  A full Newton step whose
# predicted gain is below it cannot be told apart from noise, so it is
# accepted unless the objective falls by more than that level.
OBJECTIVE_ROUNDOFF = 1e-12


@dataclass(frozen=True)
class FitResult:
    """Convergence record for one fit.

    converged is true exactly when grad_norm, the infinity norm of the
    projected gradient at the returned point, is at most grad_tol.
    stop_reason names the test that ended the loop: grad_tol, stalled (the
    projected-gradient arc reached steps that leave the parameters bit for
    bit unchanged), line_search_exhausted or max_iters.  The evaluation
    counts include those at the start and at the returned point;
    gradient_evals counts the derivative passes, each of which also builds
    the Newton model.
    """

    iterations: int
    final_objective: float
    converged: bool
    grad_norm: float
    stop_reason: str
    objective_evals: int
    gradient_evals: int

    def to_json(self) -> str:
        return artifact_json(asdict(self))


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


# An arrowhead negated-Hessian model (D, B, C); see objective_derivatives.
Model = tuple[np.ndarray, np.ndarray, np.ndarray]


class _Oracle:
    """Counted objective and derivative evaluations of one fit.

    A non-finite objective becomes SolverError; frozen coordinates get a
    zero gradient.
    """

    def __init__(
        self,
        value: Callable[[np.ndarray], float],
        derivatives: Callable[[np.ndarray], tuple[np.ndarray, Model]],
        frozen: np.ndarray,
    ):
        self._value = value
        self._derivatives = derivatives
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

    def derivatives(self, t: np.ndarray) -> tuple[np.ndarray, Model]:
        self.gradient_evals += 1
        g, model = self._derivatives(t)
        g[self._frozen] = 0.0
        return g, model

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
    more than ``noise``.  Returns None when the step shrinks below min_step,
    and (theta, current) itself, unevaluated, at the first trial that leaves
    theta bit for bit unchanged: every shorter step rounds to theta too, so
    the arc cannot move it.
    """
    step = 1.0
    while step > min_step:
        cand = project(theta + step * d)
        if np.array_equal(cand, theta):
            return theta, current
        cand_val = oracle.value(cand, iteration)
        gain = float(g @ (cand - theta))
        if gain > 0.0:
            if cand_val >= current + ARMIJO_SUFFICIENT * gain:
                return cand, cand_val
            if step == 1.0 and gain <= noise and cand_val >= current - noise:
                return cand, cand_val
        step *= ARMIJO_SHRINK
    return None


def _solve_schur(schur: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """schur^-1 rhs; least squares when Cholesky finds schur not numerically definite.

    Cholesky fails on an indefinite block, and a pivot below 1e-6 of the
    largest one (1e-12 in the squares, lstsq's rcond) counts as a failure
    too: such a block is singular to working precision.  Otherwise the
    block is solved directly; on these blocks of at most 5 x 5, one
    np.linalg.solve costs less than the factor's two triangular solves.
    """
    try:
        pivots = np.diagonal(np.linalg.cholesky(schur))
    except np.linalg.LinAlgError:
        pivots = None
    if pivots is not None and pivots.min() > 1e-6 * pivots.max():
        return np.linalg.solve(schur, rhs)
    return np.linalg.lstsq(schur, rhs, rcond=1e-12)[0]


def _newton_direction(
    theta: np.ndarray,
    g: np.ndarray,
    model: Model,
    nonneg: np.ndarray,
    frozen: np.ndarray,
    project: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Projected-Newton ascent direction on an arrowhead negated Hessian model.

    ``model`` is (D, B, C) in objective_derivatives' layout: the first
    D.size coordinates form the diagonal block.  D carries the knee term, so
    a user whose adopter cells sit on the linear piece below the knee takes
    a Newton step sized by the curvature it meets past the knee, not the
    linear-model step.  Frozen coordinates do not move.  Active coordinates,
    and free ones without curvature, take a diagonal step; the remaining
    block is solved through the Schur complement of its diagonal part.
    """
    diag_block, coupling, dense = model
    n = diag_block.size
    curvature = np.concatenate([diag_block, np.diag(dense)])
    curved = curvature > 0.0
    with np.errstate(over="ignore"):
        quotient = g / np.where(curved, curvature, 1.0)
    # a curvature too small to divide by (the quotient overflows) counts as none
    curved &= np.isfinite(quotient)
    d = np.where(curved, quotient, g)
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
        d_cols = _solve_schur(schur, rhs)
        d[n + cols] = d_cols
        d[rows] = (g_rows - coupling_f @ d_cols) / diag_f
    else:
        d[rows] = g_rows / diag_f
    return d


def _projected_newton(
    value: Callable[[np.ndarray], float],
    derivatives: Callable[[np.ndarray], tuple[np.ndarray, Model]],
    theta0: np.ndarray,
    nonneg: np.ndarray,
    frozen: np.ndarray,
    cfg: FitConfig,
) -> tuple[np.ndarray, FitResult]:
    """Maximize a concave value() from theta0, given its gradient and arrowhead model.

    derivatives(theta) returns the gradient and the Newton model (D, B, C)
    at theta; it runs once per accepted point, and value() at every trial
    point.  Frozen coordinates keep their initial value; nonneg coordinates
    are projected onto [0, inf).  Each iteration searches the
    projected-Newton arc and, if that finds no sufficient increase, the
    projected-gradient arc.  The loop stops when the projected gradient's
    infinity norm is within grad_tol, when the projected-gradient arc
    reaches steps that leave theta bit for bit unchanged (stalled, without
    counting an iteration), when both arc searches fail otherwise, or at
    max_iters.
    """
    theta0 = np.asarray(theta0, dtype=float)

    def project(t: np.ndarray) -> np.ndarray:
        return _project(t, theta0, nonneg, frozen)

    oracle = _Oracle(value, derivatives, frozen)
    theta = project(theta0)
    current = oracle.value(theta, 0)
    iterations = 0
    while True:
        g, model = oracle.derivatives(theta)
        grad_norm = float(np.abs(_projected_gradient(theta, g, nonneg)).max())
        if grad_norm <= cfg.grad_tol:
            reason = "grad_tol"
            break
        if iterations >= cfg.max_iters:
            reason = "max_iters"
            break
        d = _newton_direction(theta, g, model, nonneg, frozen, project)
        noise = OBJECTIVE_ROUNDOFF * max(1.0, abs(current))
        step = None
        if np.all(np.isfinite(d)):
            step = _arc_search(
                oracle, project, theta, current, g, d, iterations + 1, noise,
                NEWTON_MIN_STEP,
            )
        # a Newton arc that cannot move theta (a singular model can give a
        # zero step along the gradient) hands over like a failed one
        if step is None or step[0] is theta:
            step = _arc_search(oracle, project, theta, current, g, g, iterations + 1)
        if step is None:
            reason = "line_search_exhausted"
            break
        if step[0] is theta:
            reason = "stalled"
            break
        iterations += 1
        theta, current = step
    return theta, oracle.result(iterations, current, grad_norm, reason, cfg)


def fit_mle(
    terms: TrainingTerms, *, cfg: FitConfig | None = None
) -> tuple[ModelParams, FitResult]:
    """Maximum-likelihood fit of the composite-network model on ``terms``.

    ``terms`` comes from training_terms, whose rows may be a user subset
    (transfer, teacher recovery); there is one susceptibility per row.
    The solver sees each weight channel (every network, then popularity) in
    unit-max coordinates: the weight times terms.channel_max, and grad_tol is
    measured there.  The weight of a channel that is zero on every row cannot
    affect the objective and is frozen at zero, so the returned parameters
    are the minimum-norm representative on flat directions.  cfg.variant
    freezes at zero the popularity weight (all but full; no_exogenous alone),
    the network weights (individual_only) or the susceptibilities (both
    network_only variants); network_only_allow_negative signs the weights.
    """
    cfg = cfg or FitConfig()
    num_users, num_nets = terms.num_users, terms.num_networks
    init_w = cfg.init_net_weight if cfg.init_net_weight is not None else 1.0 / num_nets

    # Unit-max channels let one gradient step length suit all coordinate
    # blocks, and a weight's knee step moves no exponent by more than the
    # knee.  The objective is evaluated at w = theta / scale and its
    # derivatives follow by the chain rule.
    scale = terms.channel_max.copy()
    flat = scale == 0.0
    scale[flat] = 1.0

    # cfg.variant is read here only: the blocks frozen at zero, signed weights
    signed = cfg.variant == "network_only_allow_negative"
    theta0 = np.append(np.full(num_users, cfg.init_susceptibility), init_w * scale)
    frozen = np.append(np.zeros(num_users, dtype=bool), flat)
    frozen[:num_users] |= cfg.variant in ("network_only", "network_only_allow_negative")
    frozen[num_users:-1] |= cfg.variant == "individual_only"
    frozen[-1] |= cfg.variant != "full"
    theta0[frozen] = 0.0

    nonneg = np.ones(theta0.size, dtype=bool)
    nonneg[num_users:-1] = not signed

    def unscaled(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        w = t[num_users:] / scale
        return t[:num_users], w[:-1], float(w[-1])

    def value(t: np.ndarray) -> float:
        return objective_value(terms, *unscaled(t))

    def derivatives(t: np.ndarray) -> tuple[np.ndarray, Model]:
        (gs, gw, gp), (diag, coupling, dense) = objective_derivatives(terms, *unscaled(t))
        g = np.append(gs, np.append(gw, gp) / scale)
        return g, (diag, coupling / scale, dense / scale[:, None] / scale)

    theta, result = _projected_newton(value, derivatives, theta0, nonneg, frozen, cfg)
    susceptibility, net_weights, pop_weight = unscaled(theta)
    params = ModelParams(
        net_weights=net_weights,
        pop_weight=pop_weight,
        susceptibility=susceptibility,
        constrained=not signed,
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
    + activity_coef * activity + intercept, 0, 1), where ``activity`` is
    the (U,) per-user install count over the training apps the fit read.
    """

    net_coefs: np.ndarray
    pop_coef: float
    activity_coef: float
    intercept: float
    activity: np.ndarray

    def __post_init__(self) -> None:
        hold(self, net_coefs=float, activity=float)


def fit_regression(terms: TrainingTerms) -> RegressionParams:
    """Non-negative least squares of adoption bits on the features of ``terms``.

    One row per training (user, app) cell; columns are the per-network
    potentials, the app's popularity, the user's training-app install count,
    and an intercept.  All coefficients are constrained non-negative.  The
    install count is returned as ``activity``, one entry per row of
    ``terms``; it is the feature regression_scores reads, so test installs
    never reach the baseline's scores.
    """
    num_users, num_train = terms.labels.shape
    activity = terms.labels.sum(axis=1)
    F = np.column_stack(
        [p.ravel() for p in terms.potentials]
        + [
            np.broadcast_to(terms.popularity, (num_users, num_train)).ravel(),
            np.repeat(activity, num_train),
            np.ones(num_users * num_train),
        ]
    )
    coef = nonneg_least_squares(F, terms.labels.ravel())
    num_nets = terms.num_networks
    return RegressionParams(
        net_coefs=coef[:num_nets],
        pop_coef=float(coef[num_nets]),
        activity_coef=float(coef[num_nets + 1]),
        intercept=float(coef[num_nets + 2]),
        activity=activity,
    )


def random_baseline(num_users: int, seed: int) -> np.ndarray:
    """I.i.d. uniform(0,1) scores from a seeded generator."""
    if num_users < 1:
        raise ValueError("num_users must be positive")
    return np.random.default_rng(seed).random(num_users)
