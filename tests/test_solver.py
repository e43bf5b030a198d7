"""Projected-Newton and exact NNLS fitting: optimality, feasibility, invariances."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from adoptnet.data import AdoptionMatrix, CandidateNetwork, NetworkStack
from adoptnet.model import (
    ModelParams,
    TrainingTerms,
    log_likelihood,
    network_potentials,
    objective_gradient,
    objective_hessian,
    objective_value,
    training_terms,
)
from adoptnet.solver import (
    FitConfig,
    FitResult,
    RegressionParams,
    SolverError,
    _projected_newton,
    fit_mle,
    fit_regression,
    nonneg_least_squares,
    random_baseline,
)
from adoptnet.synth import SynthSpec, generate, recovery_fit


def make_instance(seed, num_users=12, num_networks=2, num_apps=15, density=0.3):
    rng = np.random.default_rng(seed)
    nets = []
    for m in range(num_networks):
        w = np.triu(rng.random((num_users, num_users))
                    * (rng.random((num_users, num_users)) < density), k=1)
        nets.append(CandidateNetwork(num_users=num_users, weights=w + w.T,
                                     name=f"g{m}"))
    installed = rng.random((num_users, num_apps)) < 0.3
    adoptions = AdoptionMatrix(num_users=num_users, num_apps=num_apps,
                               installed=installed)
    stack = NetworkStack(networks=tuple(nets),
                         popularity=installed.sum(axis=0).astype(float))
    return stack, adoptions


def nnls_oracle(F, y):
    """Exact non-negative least squares by enumerating active sets.

    Unique when F has full column rank: exactly one support satisfies the
    complementarity conditions.
    """
    n, d = F.shape
    best = None
    for mask in itertools.product([False, True], repeat=d):
        free = np.array(mask)
        beta = np.zeros(d)
        if free.any():
            sol, *_ = np.linalg.lstsq(F[:, free], y, rcond=None)
            if np.any(sol < -1e-12):
                continue
            beta[free] = np.maximum(sol, 0.0)
        grad = F.T @ (F @ beta - y)
        if np.any(grad[~free] < -1e-8):
            continue
        sse = float(np.sum((F @ beta - y) ** 2))
        if best is None or sse < best[1]:
            best = (beta, sse)
    assert best is not None
    return best[0]


class TestNonnegLeastSquares:
    def test_matches_active_set_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            F = rng.standard_normal((20, 5))
            y = rng.standard_normal(20)
            got = nonneg_least_squares(F, y)
            want = nnls_oracle(F, y)
            sse_got = float(np.sum((F @ got - y) ** 2))
            sse_want = float(np.sum((F @ want - y) ** 2))
            assert sse_got <= sse_want + 1e-10
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_degenerate_and_badly_scaled_cases_reach_the_optimal_loss(self):
        # beta is not unique with n < d or dependent columns, so only the loss
        # is compared; the oracle's loss is attained by a feasible beta, so
        # the exact optimum is at most it.  With n < d the free columns can
        # reproduce y, and rounding then leaves duals just above tolerance
        # whose coordinates would enter at a non-positive value.
        rng = np.random.default_rng(13)
        kinds = ("n<d", "n<d scaled", "duplicate", "collinear", "scaled", "plain")
        for case in range(300):
            kind = kinds[case % len(kinds)]
            d = int(rng.integers(2, 8))
            n = int(rng.integers(1, d)) if "n<d" in kind else int(rng.integers(d, 25))
            F = rng.standard_normal((n, d))
            if kind == "duplicate":
                F[:, 1] = F[:, 0]
            elif kind == "collinear" and d >= 3:
                F[:, 2] = 2.0 * F[:, 0] - 0.5 * F[:, 1]
            elif "scaled" in kind:
                F *= 10.0 ** rng.choice([-3.0, 0.0, 3.0], size=d)
            y = rng.standard_normal(n)
            got = nonneg_least_squares(F, y)
            assert np.all(got >= 0.0)
            sse_got = float(np.sum((F @ got - y) ** 2))
            want = nnls_oracle(F, y)
            sse_want = float(np.sum((F @ want - y) ** 2))
            assert sse_got <= sse_want + 1e-9 * max(1.0, sse_want), (case, kind)

    def test_unconstrained_interior_solution(self):
        rng = np.random.default_rng(12)
        F = rng.standard_normal((30, 3))
        beta_true = np.array([0.5, 1.25, 0.75])
        y = F @ beta_true
        np.testing.assert_allclose(nonneg_least_squares(F, y), beta_true, atol=1e-5)

    def test_all_negative_target_gives_zero(self):
        F = np.eye(4)
        y = -np.ones(4)
        assert nonneg_least_squares(F, y).tolist() == [0.0] * 4

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="features"):
            nonneg_least_squares(np.zeros((3, 2)), np.zeros(4))

    def test_non_finite_input_rejected(self):
        F = np.eye(2)
        with pytest.raises(ValueError, match="finite"):
            nonneg_least_squares(F, np.array([1.0, np.nan]))
        F[0, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            nonneg_least_squares(F, np.ones(2))

    def test_step_bound_raises(self, monkeypatch):
        # a subproblem solver that keeps swapping which coordinate is positive
        # makes the active set cycle between {0} and {1}
        swaps = itertools.cycle([np.array([0.0, 1.0]), np.array([1.0, 0.0])])

        def lstsq(A, b, rcond=None):
            sol = np.ones(1) if A.shape[1] == 1 else next(swaps)
            return sol, np.zeros(0), A.shape[1], np.ones(A.shape[1])

        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        with pytest.raises(SolverError, match="6 steps"):
            nonneg_least_squares(np.eye(2), np.ones(2))


class TestFitMLE:
    def test_reported_objective_matches_true_space_likelihood(self):
        stack, adoptions = make_instance(0)
        train = np.arange(adoptions.num_apps)
        params, res = fit_mle(stack, adoptions, train)
        assert res.converged
        ll = log_likelihood(params, stack, adoptions, train)
        assert abs(ll - res.final_objective) <= 1e-9 * max(1.0, abs(ll))

    def test_multi_start_agreement(self):
        stack, adoptions = make_instance(1)
        train = np.arange(adoptions.num_apps)
        objectives = []
        for init_w, init_s in [(None, 0.1), (0.9, 0.01), (0.05, 1.0)]:
            _, res = fit_mle(stack, adoptions, train,
                             FitConfig(init_net_weight=init_w,
                                       init_susceptibility=init_s))
            assert res.converged
            objectives.append(res.final_objective)
        spread = max(objectives) - min(objectives)
        assert spread <= 1e-6 * max(1.0, abs(objectives[0]))

    def test_feasibility_of_fit(self):
        stack, adoptions = make_instance(2)
        params, _ = fit_mle(stack, adoptions, np.arange(adoptions.num_apps))
        assert np.all(params.net_weights >= 0.0)
        assert np.all(params.susceptibility >= 0.0)
        assert params.pop_weight >= 0.0
        assert params.constrained

    def test_network_rescaling_recovers_same_model(self):
        stack, adoptions = make_instance(3)
        train = np.arange(adoptions.num_apps)
        base_params, base_res = fit_mle(stack, adoptions, train)
        c = 10.0
        scaled = NetworkStack(
            networks=tuple(
                CandidateNetwork(num_users=g.num_users, weights=c * g.weights,
                                 name=g.name)
                for g in stack.networks
            ),
            popularity=stack.popularity,
        )
        scaled_params, scaled_res = fit_mle(scaled, adoptions, train)
        rel = abs(scaled_res.final_objective - base_res.final_objective)
        assert rel <= 1e-6 * max(1.0, abs(base_res.final_objective))
        np.testing.assert_allclose(scaled_params.net_weights * c,
                                   base_params.net_weights, rtol=1e-4, atol=1e-8)

    def test_no_adopters_collapses_to_zero(self):
        stack, adoptions = make_instance(4)
        empty = AdoptionMatrix(num_users=adoptions.num_users,
                               num_apps=adoptions.num_apps,
                               installed=np.zeros_like(adoptions.installed))
        zero_pop = NetworkStack(networks=stack.networks,
                                popularity=np.zeros(adoptions.num_apps))
        params, res = fit_mle(zero_pop, empty, np.arange(adoptions.num_apps))
        assert res.converged
        assert not params.net_weights.any()
        assert not params.susceptibility.any()
        assert params.pop_weight == 0.0
        assert res.final_objective == 0.0

    def test_zero_network_weight_pinned(self):
        stack, adoptions = make_instance(5)
        with_dead = NetworkStack(
            networks=stack.networks + (
                CandidateNetwork(num_users=adoptions.num_users,
                                 weights=np.zeros((adoptions.num_users,) * 2),
                                 name="dead"),
            ),
            popularity=stack.popularity,
        )
        params, _ = fit_mle(with_dead, adoptions, np.arange(adoptions.num_apps))
        assert params.net_weights[-1] == 0.0

    def test_fix_flags(self):
        stack, adoptions = make_instance(6)
        train = np.arange(adoptions.num_apps)
        _, res_full = fit_mle(stack, adoptions, train)
        p1, res1 = fit_mle(stack, adoptions, train,
                           FitConfig(fix_susceptibility_at_zero=True))
        assert not p1.susceptibility.any()
        assert p1.pop_weight > 0.0 or p1.net_weights.any()
        p2, res2 = fit_mle(stack, adoptions, train,
                           FitConfig(fix_net_weights_at_zero=True))
        assert not p2.net_weights.any()
        assert p2.susceptibility.any()
        # restricted fits cannot beat the full fit
        assert res1.final_objective <= res_full.final_objective + 1e-9
        assert res2.final_objective <= res_full.final_objective + 1e-9

    def test_relaxing_sign_constraint_cannot_hurt(self):
        stack, adoptions = make_instance(7)
        train = np.arange(adoptions.num_apps)
        _, res_con = fit_mle(stack, adoptions, train)
        params_rel, res_rel = fit_mle(
            stack, adoptions, train, FitConfig(allow_negative_net_weights=True)
        )
        assert not params_rel.constrained
        assert res_rel.final_objective >= res_con.final_objective - 1e-9

    def test_term_users_scatter_back(self):
        stack, adoptions = make_instance(8, num_users=6)
        params, _ = fit_mle(stack, adoptions, np.arange(adoptions.num_apps),
                            term_users=[0, 2, 4])
        assert params.susceptibility.shape == (6,)
        assert params.susceptibility[1] == 0.0
        assert params.susceptibility[3] == 0.0
        assert params.susceptibility[5] == 0.0

    def test_term_users_empty_rejected(self):
        stack, adoptions = make_instance(9, num_users=4)
        with pytest.raises(ValueError):
            fit_mle(stack, adoptions, [0, 1], term_users=[])

    def test_max_iters_flags_non_convergence(self):
        stack, adoptions = make_instance(10)
        _, res = fit_mle(stack, adoptions, np.arange(adoptions.num_apps),
                         FitConfig(max_iters=1))
        assert not res.converged
        assert res.iterations == 1
        assert res.stop_reason == "max_iters"

    def test_relaxed_fit_terminates_honestly(self):
        # unconstrained weights make the objective piecewise linear; the fit
        # must still end early and report why
        stack, adoptions = make_instance(7)
        cfg = FitConfig(allow_negative_net_weights=True)
        _, res = fit_mle(stack, adoptions, np.arange(adoptions.num_apps), cfg)
        assert res.iterations <= 500
        assert res.converged == (res.grad_norm <= cfg.grad_tol)
        assert res.stop_reason in ("grad_tol", "line_search_exhausted")
        assert (res.stop_reason == "grad_tol") == res.converged
        assert res.gradient_evals == res.iterations + 1

    def test_overflowing_start_raises_solver_error(self):
        stack, adoptions = make_instance(11)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverError):
                fit_mle(stack, adoptions, np.arange(adoptions.num_apps),
                        FitConfig(init_susceptibility=1e308, init_net_weight=1e308))

    def test_result_serializes(self):
        import json

        res = FitResult(iterations=5, final_objective=-2.5, converged=True,
                        grad_norm=1e-8, stop_reason="grad_tol",
                        objective_evals=9, gradient_evals=6)
        obj = json.loads(res.to_json())
        assert obj["iterations"] == 5 and obj["converged"] is True
        assert obj["stop_reason"] == "grad_tol"
        assert obj["objective_evals"] == 9 and obj["gradient_evals"] == 6


def kkt_violation(stack, adoptions, train, params, cfg, term_users=None):
    """Largest KKT violation of a fit, in fit_mle's unit-max channel coordinates.

    A free coordinate at zero may have a gradient up to grad_tol pushing it
    below zero; a positive one must have |gradient| <= grad_tol.  Frozen
    coordinates (fix flags, all-zero channels, users without terms) are
    skipped.
    """
    terms = training_terms(stack, adoptions, train, term_users=term_users)
    pot_scale = terms.potentials.max(axis=2)[:, terms.term_users].max(axis=1)
    pop_scale = float(terms.popularity.max())
    gs, gw, gp = objective_gradient(terms, params.susceptibility,
                                    params.net_weights, params.pop_weight)
    grad = np.concatenate([gs, gw, [gp]])
    theta = np.concatenate([params.susceptibility, params.net_weights,
                            [params.pop_weight]])
    U, M = params.num_users, params.num_networks
    # fit_mle solves for weight * channel max over the term rows, so its
    # gradient is ours / max
    grad[U:U + M] /= np.where(pot_scale > 0.0, pot_scale, 1.0)
    grad[U + M] /= pop_scale if pop_scale > 0.0 else 1.0
    free = np.ones(theta.size, dtype=bool)
    free[:U] = not cfg.fix_susceptibility_at_zero
    if term_users is not None:
        free[:U] &= terms.term_users
    free[U:U + M] = (not cfg.fix_net_weights_at_zero) & (pot_scale > 0.0)
    free[U + M] = pop_scale > 0.0
    at_zero = free & (theta <= 0.0)
    positive = free & (theta > 0.0)
    return max(float(np.max(grad[at_zero], initial=0.0)),
               float(np.max(np.abs(grad[positive]), initial=0.0)))


class TestKKT:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("flags", [
        {},
        {"fix_susceptibility_at_zero": True},
        {"fix_net_weights_at_zero": True},
        {"init_net_weight": 0.9, "init_susceptibility": 0.01},
    ])
    def test_fit_satisfies_kkt(self, seed, flags):
        stack, adoptions = make_instance(seed)
        train = np.arange(adoptions.num_apps)
        cfg = FitConfig(**flags)
        params, res = fit_mle(stack, adoptions, train, cfg)
        assert res.stop_reason == "grad_tol"
        assert res.converged
        assert kkt_violation(stack, adoptions, train, params, cfg) <= cfg.grad_tol

    def test_term_users_fit_satisfies_kkt(self):
        stack, adoptions = make_instance(8, num_users=6)
        train = np.arange(adoptions.num_apps)
        cfg = FitConfig()
        params, res = fit_mle(stack, adoptions, train, cfg, term_users=[0, 2, 4])
        assert res.stop_reason == "grad_tol"
        assert kkt_violation(stack, adoptions, train, params, cfg,
                             term_users=[0, 2, 4]) <= cfg.grad_tol


def slice_rescale_fit(stack, adoptions, train_apps, cfg=None, *, evidence=None,
                      term_users=None):
    """The earlier fit_mle formulation, kept as an oracle for the current one.

    It slices the potentials and labels down to the term users, divides each
    channel by its maximum, rebuilds TrainingTerms on the scaled copy, fits
    there and scatters the susceptibilities back to every user.
    """
    cfg = cfg or FitConfig()
    terms = training_terms(stack, adoptions, train_apps, evidence=evidence,
                           term_users=term_users)
    full_users = terms.num_users
    active = np.flatnonzero(terms.term_users)
    potentials, labels = terms.potentials[:, active, :], terms.labels[active, :]
    num_users, num_nets = active.size, terms.num_networks
    init_w = cfg.init_net_weight if cfg.init_net_weight is not None else 1.0 / num_nets
    pot_max = potentials.max(axis=(1, 2))
    flat_nets = pot_max == 0.0
    pot_scale = np.where(flat_nets, 1.0, pot_max)
    pop_max = float(terms.popularity.max())
    has_pop = pop_max > 0.0
    pop_scale = pop_max if has_pop else 1.0
    terms = TrainingTerms(potentials=potentials / pot_scale[:, None, None],
                          popularity=terms.popularity / pop_scale, labels=labels,
                          term_users=np.ones(num_users, dtype=bool))
    s_idx = np.arange(num_users)
    w_idx = num_users + np.arange(num_nets)
    pop_idx = num_users + num_nets
    theta0 = np.zeros(num_users + num_nets + 1)
    theta0[s_idx] = 0.0 if cfg.fix_susceptibility_at_zero else cfg.init_susceptibility
    theta0[w_idx] = 0.0 if cfg.fix_net_weights_at_zero else init_w * pot_scale
    theta0[pop_idx] = init_w * pop_scale if has_pop else 0.0
    frozen = np.zeros(theta0.size, dtype=bool)
    frozen[s_idx] = cfg.fix_susceptibility_at_zero
    frozen[w_idx] = cfg.fix_net_weights_at_zero
    frozen[pop_idx] = not has_pop
    theta0[w_idx[flat_nets]] = 0.0
    frozen[w_idx[flat_nets]] = True
    nonneg = np.ones(theta0.size, dtype=bool)
    if cfg.allow_negative_net_weights:
        nonneg[w_idx] = False

    def value(t):
        return objective_value(terms, t[s_idx], t[w_idx], t[pop_idx])

    def gradient(t):
        gs, gw, gp = objective_gradient(terms, t[s_idx], t[w_idx], t[pop_idx])
        return np.concatenate([gs, gw, [gp]])

    def hessian(t):
        return objective_hessian(terms, t[s_idx], t[w_idx], t[pop_idx])

    theta, result = _projected_newton(value, gradient, hessian, theta0, nonneg,
                                      frozen, cfg)
    susceptibility = np.zeros(full_users)
    susceptibility[active] = theta[s_idx]
    params = ModelParams(net_weights=theta[w_idx] / pot_scale,
                         pop_weight=float(theta[pop_idx]) / pop_scale,
                         susceptibility=susceptibility,
                         constrained=not cfg.allow_negative_net_weights)
    return params, result


def flat_params(params):
    return np.concatenate([params.susceptibility, params.net_weights,
                           [params.pop_weight]])


def with_zero_network(stack):
    U = stack.num_users
    zero = CandidateNetwork(num_users=U, weights=np.zeros((U, U)), name="zero")
    return NetworkStack(networks=stack.networks + (zero,),
                        popularity=stack.popularity)


class TestChangeOfVariables:
    """fit_mle's unit-max change of variables against the slice-rescale oracle."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("case", [
        "default",
        "fix_susceptibility_at_zero",
        "fix_net_weights_at_zero",
        "zero_network",
        "term_users",
    ])
    def test_matches_slice_rescale_oracle(self, seed, case):
        stack, adoptions = make_instance(seed, num_users=14, num_networks=3)
        train = np.arange(adoptions.num_apps)
        kwargs = {}
        cfg = FitConfig()
        if case.startswith("fix_"):
            cfg = FitConfig(**{case: True})
        elif case == "zero_network":
            stack = with_zero_network(stack)
        elif case == "term_users":
            rng = np.random.default_rng(seed)
            kwargs["term_users"] = np.sort(rng.choice(14, 8, replace=False))
            kwargs["evidence"] = AdoptionMatrix(
                num_users=14, num_apps=adoptions.num_apps,
                installed=rng.random(adoptions.installed.shape) < 0.3)
        got, res = fit_mle(stack, adoptions, train, cfg, **kwargs)
        want, ref = slice_rescale_fit(stack, adoptions, train, cfg, **kwargs)
        assert res.stop_reason == ref.stop_reason
        assert res.iterations == ref.iterations
        assert res.final_objective == pytest.approx(ref.final_objective,
                                                    rel=1e-12, abs=0.0)
        np.testing.assert_allclose(flat_params(got), flat_params(want),
                                   rtol=0.0, atol=1e-10)
        if case == "zero_network":
            assert got.net_weights[-1] == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_relaxed_fit_matches_slice_rescale_oracle(self, seed):
        # Relaxed-sign fits on these instances mostly end on a kink of the
        # piecewise linear objective with line_search_exhausted; there the
        # number of arc searches before both give up depends on rounding, so
        # only where they stop is compared.
        stack, adoptions = make_instance(seed, num_users=14, num_networks=3)
        train = np.arange(adoptions.num_apps)
        cfg = FitConfig(allow_negative_net_weights=True)
        got, res = fit_mle(stack, adoptions, train, cfg)
        want, ref = slice_rescale_fit(stack, adoptions, train, cfg)
        assert res.stop_reason == ref.stop_reason
        assert res.final_objective == pytest.approx(ref.final_objective,
                                                    rel=1e-12, abs=0.0)
        np.testing.assert_allclose(flat_params(got), flat_params(want),
                                   rtol=0.0, atol=1e-10)

    def test_network_only_on_context_rows_is_pinned(self):
        # edges that join only context users give every term (target) row a
        # zero potential, so the channel is flat for the fit even though its
        # maximum over all rows is positive
        spec = SynthSpec(num_users=60, num_context_users=30, num_apps=40,
                         num_networks=2, edge_density=(0.08, 0.12),
                         planted_net_weights=(0.6, 0.3), planted_pop_weight=0.01,
                         pop_base_max=10.0, susceptibility_rate=20.0, seed=7)
        stack, teacher = generate(spec)
        ctx = teacher.context_users
        w = np.zeros((spec.num_users, spec.num_users))
        block = np.triu(np.random.default_rng(3).random((ctx.size, ctx.size)), k=1)
        w[np.ix_(ctx, ctx)] = block + block.T
        context_only = CandidateNetwork(num_users=spec.num_users, weights=w,
                                        name="context_only")
        extended = NetworkStack(networks=stack.networks + (context_only,))
        params, res = recovery_fit(extended, teacher)
        assert res.converged
        assert params.net_weights[-1] == 0.0
        base, _ = recovery_fit(stack, teacher)
        np.testing.assert_allclose(params.net_weights[:-1], base.net_weights,
                                   rtol=0.0, atol=1e-10)


def arrowhead_qp_oracle(H, b):
    """argmax b.x - x.H.x / 2 over x >= 0 by enumerating supports (H positive definite)."""
    n = b.size
    for mask in itertools.product([False, True], repeat=n):
        free = np.array(mask)
        x = np.zeros(n)
        if free.any():
            x[free] = np.linalg.solve(H[np.ix_(free, free)], b[free])
        if np.all(x >= -1e-12) and np.all((b - H @ x)[~free] <= 1e-12):
            return np.maximum(x, 0.0)
    raise AssertionError("no KKT support found")


class TestProjectedNewton:
    def test_arrowhead_quadratic_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            U, K = 5, 3
            # arrowhead [[diag(D), B], [B.T, C]], positive definite because
            # its Schur complement C - B.T diag(1/D) B is
            D = rng.uniform(0.5, 3.0, U)
            B = rng.standard_normal((U, K))
            R = rng.standard_normal((K, K))
            C = B.T @ (B / D[:, None]) + R @ R.T + 0.5 * np.eye(K)
            H = np.block([[np.diag(D), B], [B.T, C]])
            b = rng.standard_normal(U + K) * 2.0
            blocks = (D, B, C)
            evaluated = []

            def value(x):
                evaluated.append(x.copy())
                return float(b @ x - 0.5 * x @ H @ x)

            def grad(x):
                return b - H @ x

            x, res = _projected_newton(value, grad, lambda x: blocks,
                                       np.full(U + K, 0.5),
                                       np.ones(U + K, dtype=bool),
                                       np.zeros(U + K, dtype=bool),
                                       FitConfig(grad_tol=1e-10))
            assert res.stop_reason == "grad_tol"
            assert res.objective_evals == len(evaluated)
            np.testing.assert_allclose(x, arrowhead_qp_oracle(H, b), atol=1e-8)
            assert all(np.all(t >= 0.0) for t in evaluated)

    def test_frozen_coordinates_never_move(self):
        H = np.diag([2.0, 2.0, 1.0])
        b = np.array([4.0, 4.0, 1.0])
        blocks = (np.array([2.0, 2.0]), np.zeros((2, 1)), np.array([[1.0]]))
        x, res = _projected_newton(
            lambda t: float(b @ t - 0.5 * t @ H @ t), lambda t: b - H @ t,
            lambda t: blocks, np.array([0.3, 0.3, 0.3]), np.ones(3, dtype=bool),
            np.array([False, True, False]), FitConfig())
        assert x[1] == 0.3
        np.testing.assert_allclose(x[[0, 2]], [2.0, 1.0], atol=1e-9)
        assert res.converged

    def test_linear_objective_goes_to_bound(self):
        # no curvature anywhere: a falling coordinate lands on zero in one step
        blocks = (np.zeros(2), np.zeros((2, 1)), np.zeros((1, 1)))
        slope = np.array([-3.0, -1.0, -2.0])
        x, res = _projected_newton(
            lambda t: float(slope @ t), lambda t: slope.copy(), lambda t: blocks,
            np.array([0.4, 7.0, 2.5]), np.ones(3, dtype=bool),
            np.zeros(3, dtype=bool), FitConfig())
        assert x.tolist() == [0.0, 0.0, 0.0]
        assert res.iterations == 1 and res.stop_reason == "grad_tol"


    def test_quadratic_reaches_clipped_target(self):
        # maximizing -||x - t||^2 over x >= 0 has the closed form max(t, 0)
        target = np.array([2.0, -1.5, 0.5, -0.25])
        blocks = (np.full(3, 2.0), np.zeros((3, 1)), np.array([[2.0]]))
        x, res = _projected_newton(
            lambda t: -float(np.sum((t - target) ** 2)),
            lambda t: -2.0 * (t - target), lambda t: blocks, np.zeros(4),
            np.ones(4, dtype=bool), np.zeros(4, dtype=bool), FitConfig())
        np.testing.assert_allclose(x, [2.0, 0.0, 0.5, 0.0], atol=1e-12)
        assert res.converged

    def test_every_evaluated_point_is_feasible(self):
        # -sum cosh(x - t) is not quadratic, so Newton needs several steps;
        # the last coordinate is unconstrained
        target = np.array([1.0, -3.0, 2.0])
        seen = []

        def value(x):
            seen.append(x.copy())
            return -float(np.sum(np.cosh(x - target)))

        def hessian(x):
            c = np.cosh(x - target)
            return c[:2], np.zeros((2, 1)), c[2:, None]

        x, res = _projected_newton(
            value, lambda x: -np.sinh(x - target), hessian,
            np.array([0.5, 0.5, -1.0]), np.array([True, True, False]),
            np.zeros(3, dtype=bool), FitConfig())
        assert len(seen) > 3
        for t in seen:
            assert t[0] >= 0.0 and t[1] >= 0.0
        assert res.converged
        np.testing.assert_allclose(x, [1.0, 0.0, 2.0], atol=1e-6)

    def test_accepted_iterates_ascend(self):
        # a dense concave objective, all in the arrowhead's dense block
        rng = np.random.default_rng(3)
        A = rng.random((8, 5))
        H = A.T @ A + 0.1 * np.eye(5)
        b = 3.0 * rng.standard_normal(5)
        values = []

        def value(x):
            return float(b @ x - 0.5 * x @ H @ x - np.sum(np.cosh(x)))

        def grad(x):
            # called once per iteration, at the accepted point
            values.append(value(x))
            return b - H @ x - np.sinh(x)

        def hessian(x):
            return np.zeros(0), np.zeros((0, 5)), H + np.diag(np.cosh(x))

        _, res = _projected_newton(value, grad, hessian, np.full(5, 2.0),
                                   np.ones(5, dtype=bool),
                                   np.zeros(5, dtype=bool), FitConfig())
        assert res.converged and res.iterations >= 2
        assert all(later >= earlier - 1e-12 * max(1.0, abs(earlier))
                   for earlier, later in zip(values, values[1:]))


class TestProjectedAscent:
    # a separable quadratic with one coordinate frozen at its start value
    def test_frozen_coordinates_never_move(self):
        target = np.array([2.0, 2.0])
        blocks = (np.array([2.0]), np.zeros((1, 1)), np.array([[2.0]]))
        x, _ = _projected_newton(
            lambda t: -float(np.sum((t - target) ** 2)),
            lambda t: -2.0 * (t - target), lambda t: blocks, np.zeros(2),
            np.ones(2, dtype=bool), np.array([False, True]), FitConfig())
        assert x[1] == 0.0
        assert x[0] == pytest.approx(2.0, abs=1e-6)


class TestFitConfigValidation:
    def test_bad_max_iters(self):
        with pytest.raises(ValueError, match="max_iters"):
            FitConfig(max_iters=0)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError, match="tolerances"):
            FitConfig(grad_tol=0.0)

    def test_negative_init(self):
        with pytest.raises(ValueError, match="init_susceptibility"):
            FitConfig(init_susceptibility=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_settings_rejected(self, value):
        # a NaN grad_tol is never met and an infinite one is met at the start
        with pytest.raises(ValueError, match="grad_tol"):
            FitConfig(grad_tol=value)
        with pytest.raises(ValueError, match="init_susceptibility"):
            FitConfig(init_susceptibility=value)
        with pytest.raises(ValueError, match="init_net_weight"):
            FitConfig(init_net_weight=value)


class TestRegression:
    def test_coefficients_are_nonnegative(self):
        stack, adoptions = make_instance(20)
        reg = fit_regression(stack, adoptions, np.arange(adoptions.num_apps))
        assert isinstance(reg, RegressionParams)
        assert np.all(reg.net_coefs >= 0.0)
        assert reg.pop_coef >= 0.0
        assert reg.activity_coef >= 0.0
        assert reg.intercept >= 0.0

    def test_constant_target_fits_exactly(self):
        # everyone installs everything: the intercept/activity columns alone
        # can reach zero residual, so the fitted plane must predict 1 exactly
        U, A = 5, 6
        stack = NetworkStack(
            networks=(CandidateNetwork(num_users=U, weights=np.zeros((U, U))),),
            popularity=np.full(A, 2.0),
        )
        adoptions = AdoptionMatrix(num_users=U, num_apps=A,
                                   installed=np.ones((U, A), dtype=bool))
        reg = fit_regression(stack, adoptions, np.arange(A))
        pred = (reg.pop_coef * 2.0 + reg.activity_coef * A + reg.intercept)
        assert pred == pytest.approx(1.0, abs=1e-5)

    def test_empty_train_apps_rejected(self):
        stack, adoptions = make_instance(21)
        with pytest.raises(ValueError, match="empty"):
            fit_regression(stack, adoptions, [])


    @pytest.mark.parametrize("fit", [fit_mle, fit_regression])
    @pytest.mark.parametrize("apps, message", [
        ([-1, 0], "out-of-range"),
        ([0, 15], "out-of-range"),
        ([0, 0, 1], "duplicates"),
    ])
    def test_both_fits_check_train_apps(self, fit, apps, message):
        stack, adoptions = make_instance(22)
        with pytest.raises(ValueError, match=message):
            fit(stack, adoptions, apps)

    @pytest.mark.parametrize("fit", [fit_mle, fit_regression])
    def test_both_fits_check_popularity_length(self, fit):
        stack, adoptions = make_instance(23)
        short = NetworkStack(networks=stack.networks,
                             popularity=stack.popularity[:-1])
        with pytest.raises(ValueError, match="popularity length"):
            fit(short, adoptions, [0, 1])


def regression_design(stack, adoptions, apps):
    """fit_regression's design, rebuilt column by column."""
    ev = adoptions.installed[:, apps].astype(float)
    U, T = ev.shape
    pots = network_potentials(stack, ev)
    F = np.column_stack(
        [pots[m].ravel() for m in range(stack.num_networks)]
        + [np.tile(stack.popularity[apps], U), np.repeat(ev.sum(axis=1), T),
           np.ones(U * T)]
    )
    return F, ev.ravel()


class TestRegressionKKT:
    @pytest.mark.parametrize("users,apps", [(200, 150), (743, 300)])
    def test_exact_fit_satisfies_kkt(self, users, apps):
        spec = SynthSpec(num_users=users, num_context_users=users // 2,
                         num_apps=apps, seed=users)
        networks, teacher = generate(spec)
        adoptions = teacher.adoptions
        stack = NetworkStack(
            networks=networks.networks,
            popularity=adoptions.installed.sum(axis=0).astype(float),
        )
        train = np.arange(0, apps, 2)
        reg = fit_regression(stack, adoptions, train)
        beta = np.concatenate([reg.net_coefs,
                               [reg.pop_coef, reg.activity_coef, reg.intercept]])
        F, y = regression_design(stack, adoptions, train)
        n, d = F.shape
        tol = 10.0 * np.finfo(float).eps * max(n, d) * np.abs(F).sum(axis=0).max()
        dual = F.T @ (y - F @ beta)
        assert np.all(beta >= 0.0)
        assert np.any(beta > 0.0)
        assert np.all(np.abs(dual[beta > 0.0]) <= tol)
        assert np.all(dual[beta == 0.0] <= tol)


class TestRandomBaseline:
    def test_deterministic_per_seed(self):
        a = random_baseline(10, seed=3)
        b = random_baseline(10, seed=3)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, random_baseline(10, seed=4))

    def test_range_and_validation(self):
        s = random_baseline(100, seed=0)
        assert np.all((s >= 0.0) & (s < 1.0))
        with pytest.raises(ValueError):
            random_baseline(0, seed=0)
