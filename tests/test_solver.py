"""Projected-Newton and exact NNLS fitting: optimality, feasibility, invariances."""
from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from adoptnet.data import (
    AdoptionMatrix,
    CandidateNetwork,
    NetworkStack,
    filter_min_users,
    popularity_counts,
)
from adoptnet.experiments import fraction_split
from adoptnet.model import (
    KNEE_CURVATURE,
    ModelParams,
    TrainingTerms,
    log_likelihood,
    network_potentials,
    objective_gradient,
    objective_value,
    training_terms,
)
from adoptnet import solver
from adoptnet.config import FIT_VARIANTS
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
from adoptnet.seeds import derive_seed
from adoptnet.synth import SynthSpec, generate, recovery_fit
from test_model import objective_hessian


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


def without_popularity(stack):
    """The stack's networks with popularity counts of zero: no exogenous channel."""
    return NetworkStack(networks=stack.networks, popularity=np.zeros_like(stack.popularity))


def variant_blocks(cfg):
    """(susceptibilities, network weights, popularity weight frozen; weights signed)."""
    return (cfg.variant in ("network_only", "network_only_allow_negative"),
            cfg.variant == "individual_only",
            cfg.variant != "full",
            cfg.variant == "network_only_allow_negative")


SIGNED = FitConfig(variant="network_only_allow_negative")


class Unreadable:
    """Stands in for an array that must not be read: any use raises."""

    def __getattr__(self, name):
        raise AssertionError(f"read .{name}")

    def __array__(self, *args, **kwargs):
        raise AssertionError("read as an array")


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
        params, res = fit_mle(training_terms(stack, adoptions, train))
        assert res.converged
        ll = log_likelihood(params, stack, adoptions, train)
        assert abs(ll - res.final_objective) <= 1e-9 * max(1.0, abs(ll))

    def test_multi_start_agreement(self):
        stack, adoptions = make_instance(1)
        train = np.arange(adoptions.num_apps)
        objectives = []
        for init_w, init_s in [(None, 0.1), (0.9, 0.01), (0.05, 1.0)]:
            _, res = fit_mle(training_terms(stack, adoptions, train),
                             cfg=FitConfig(init_net_weight=init_w,
                                           init_susceptibility=init_s))
            assert res.converged
            objectives.append(res.final_objective)
        spread = max(objectives) - min(objectives)
        assert spread <= 1e-6 * max(1.0, abs(objectives[0]))

    def test_feasibility_of_fit(self):
        stack, adoptions = make_instance(2)
        params, _ = fit_mle(training_terms(stack, adoptions, np.arange(adoptions.num_apps)))
        assert np.all(params.net_weights >= 0.0)
        assert np.all(params.susceptibility >= 0.0)
        assert params.pop_weight >= 0.0
        assert params.constrained

    def test_network_rescaling_recovers_same_model(self):
        stack, adoptions = make_instance(3)
        train = np.arange(adoptions.num_apps)
        base_params, base_res = fit_mle(training_terms(stack, adoptions, train))
        c = 10.0
        scaled = NetworkStack(
            networks=tuple(
                CandidateNetwork(num_users=g.num_users, weights=c * g.weights,
                                 name=g.name)
                for g in stack.networks
            ),
            popularity=stack.popularity,
        )
        scaled_params, scaled_res = fit_mle(training_terms(scaled, adoptions, train))
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
        params, res = fit_mle(training_terms(zero_pop, empty, np.arange(adoptions.num_apps)))
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
        params, _ = fit_mle(training_terms(with_dead, adoptions, np.arange(adoptions.num_apps)))
        assert params.net_weights[-1] == 0.0

    def test_frozen_block_variants(self):
        stack, adoptions = make_instance(6)
        train = np.arange(adoptions.num_apps)
        _, res_full = fit_mle(training_terms(stack, adoptions, train))
        p1, res1 = fit_mle(training_terms(stack, adoptions, train),
                           cfg=FitConfig(variant="network_only"))
        assert not p1.susceptibility.any() and p1.pop_weight == 0.0
        assert p1.net_weights.any()
        p2, res2 = fit_mle(training_terms(stack, adoptions, train),
                           cfg=FitConfig(variant="individual_only"))
        assert not p2.net_weights.any() and p2.pop_weight == 0.0
        assert p2.susceptibility.any()
        # restricted fits cannot beat the full fit
        assert res1.final_objective <= res_full.final_objective + 1e-9
        assert res2.final_objective <= res_full.final_objective + 1e-9

    def test_relaxing_sign_constraint_cannot_hurt(self):
        stack, adoptions = make_instance(7)
        terms = training_terms(without_popularity(stack), adoptions, np.arange(adoptions.num_apps))
        _, res_con = fit_mle(terms, cfg=FitConfig(variant="network_only"))
        params_rel, res_rel = fit_mle(terms, cfg=SIGNED)
        assert not params_rel.constrained
        assert res_rel.final_objective >= res_con.final_objective - 1e-9

    @pytest.mark.parametrize("variant", ["full", "individual_only", "network_only"])
    def test_constrained_fit_never_reads_the_potentials(self, variant):
        stack, adoptions = make_instance(9)
        cfg = FitConfig(variant=variant)
        terms = training_terms(stack, adoptions, np.arange(adoptions.num_apps))
        want, ref = fit_mle(terms, cfg=cfg)
        object.__setattr__(terms, "potentials", Unreadable())
        got, res = fit_mle(terms, cfg=cfg)
        assert res == ref
        np.testing.assert_array_equal(flat_params(got), flat_params(want))

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_large_start_converges_without_overflow(self, seed):
        # A start of 5 per unit-max channel leaves some users' curvature so
        # small that g / curvature overflows; pytest turns the warning into
        # an error.
        spec = SynthSpec(num_users=743, num_context_users=371, num_apps=200, seed=seed)
        networks, teacher = generate(spec)
        adoptions = teacher.adoptions
        stack = NetworkStack(networks.networks, popularity_counts(adoptions))
        terms = training_terms(stack, adoptions, np.arange(adoptions.num_apps))
        _, res = fit_mle(terms, cfg=FitConfig(init_net_weight=5.0))
        assert res.stop_reason == "grad_tol"

    def test_max_iters_flags_non_convergence(self):
        stack, adoptions = make_instance(10)
        _, res = fit_mle(training_terms(stack, adoptions, np.arange(adoptions.num_apps)),
                         cfg=FitConfig(max_iters=1))
        assert not res.converged
        assert res.iterations == 1
        assert res.stop_reason == "max_iters"

    def test_relaxed_fit_terminates_honestly(self):
        # unconstrained weights make the objective piecewise linear; the fit
        # must still end early and report why
        stack, adoptions = make_instance(7)
        cfg = SIGNED
        terms = training_terms(without_popularity(stack), adoptions, np.arange(adoptions.num_apps))
        _, res = fit_mle(terms, cfg=cfg)
        assert res.iterations <= 500
        assert res.converged == (res.grad_norm <= cfg.grad_tol)
        assert res.stop_reason in ("grad_tol", "line_search_exhausted")
        assert (res.stop_reason == "grad_tol") == res.converged
        assert res.gradient_evals == res.iterations + 1

    @pytest.mark.parametrize("seed", range(12))
    def test_signed_network_only_stops_at_its_constrained_twin(self, seed):
        # with the susceptibilities frozen and no popularity, lifting the
        # sign constraint moves no weight below zero on these instances
        stack, adoptions = make_instance(seed)
        terms = training_terms(without_popularity(stack), adoptions,
                               np.arange(adoptions.num_apps))
        con, res_con = fit_mle(terms, cfg=FitConfig(variant="network_only"))
        rel, res_rel = fit_mle(terms, cfg=SIGNED)
        assert res_con.stop_reason == res_rel.stop_reason == "grad_tol"
        assert res_rel.final_objective == pytest.approx(res_con.final_objective,
                                                        rel=1e-12, abs=0.0)
        np.testing.assert_allclose(rel.net_weights, con.net_weights, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("variant", [v for v in FIT_VARIANTS if v != "full"])
    def test_ablation_variant_ignores_the_popularity_channel(self, variant, seed):
        # every variant but full freezes the popularity weight, so it fits
        # live popularity exactly as the ablation fits it, switched off
        stack, adoptions = make_instance(seed)
        terms = training_terms(stack, adoptions, np.arange(adoptions.num_apps))
        assert terms.popularity.max() > 0.0
        cfg = FitConfig(variant=variant)
        got, res = fit_mle(terms, cfg=cfg)
        want, ref = fit_mle(replace(terms, popularity=np.zeros_like(terms.popularity)),
                            cfg=cfg)
        assert got.pop_weight == 0.0
        assert got.constrained == want.constrained
        np.testing.assert_array_equal(flat_params(got), flat_params(want))
        assert res == ref

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown fit variant 'bogus'"):
            FitConfig(variant="bogus")

    def test_overflowing_start_raises_solver_error(self):
        stack, adoptions = make_instance(11)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverError):
                fit_mle(training_terms(stack, adoptions, np.arange(adoptions.num_apps)),
                        cfg=FitConfig(init_susceptibility=1e308, init_net_weight=1e308))

    def test_cfg_is_keyword_only(self):
        stack, adoptions = make_instance(0)
        terms = training_terms(stack, adoptions, np.arange(adoptions.num_apps))
        with pytest.raises(TypeError):
            fit_mle(terms, FitConfig())

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
    coordinates (the variant's frozen blocks, all-zero channels) are
    skipped.  With ``term_users`` the fit and the check cover those users'
    rows alone.
    """
    terms = training_terms(stack, adoptions, train, term_users=term_users)
    pot_scale = terms.potentials.max(axis=(1, 2))
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
    fix_s, fix_w, fix_pop, _ = variant_blocks(cfg)
    free = np.ones(theta.size, dtype=bool)
    free[:U] = not fix_s
    free[U:U + M] = (not fix_w) & (pot_scale > 0.0)
    free[U + M] = (not fix_pop) and pop_scale > 0.0
    at_zero = free & (theta <= 0.0)
    positive = free & (theta > 0.0)
    return max(float(np.max(grad[at_zero], initial=0.0)),
               float(np.max(np.abs(grad[positive]), initial=0.0)))


class TestKKT:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("flags", [
        {},
        {"variant": "network_only"},
        {"variant": "individual_only"},
        {"init_net_weight": 0.9, "init_susceptibility": 0.01},
    ])
    def test_fit_satisfies_kkt(self, seed, flags):
        stack, adoptions = make_instance(seed)
        train = np.arange(adoptions.num_apps)
        cfg = FitConfig(**flags)
        params, res = fit_mle(training_terms(stack, adoptions, train), cfg=cfg)
        assert res.stop_reason == "grad_tol"
        assert res.converged
        assert kkt_violation(stack, adoptions, train, params, cfg) <= cfg.grad_tol

    def test_term_users_fit_satisfies_kkt(self):
        stack, adoptions = make_instance(8, num_users=6)
        train = np.arange(adoptions.num_apps)
        cfg = FitConfig()
        params, res = fit_mle(training_terms(stack, adoptions, train, term_users=[0, 2, 4]),
                              cfg=cfg)
        assert res.stop_reason == "grad_tol"
        assert kkt_violation(stack, adoptions, train, params, cfg,
                             term_users=[0, 2, 4]) <= cfg.grad_tol


def slice_rescale_fit(stack, adoptions, train_apps, cfg=None, *, evidence_users=None,
                      term_users=None):
    """The earlier fit_mle formulation, kept as an oracle for the current one.

    It builds every user's terms (with ``evidence_users``, against a copy
    of the adoptions holding only their rows), slices the potentials and
    labels down to the term users itself, divides each channel by its
    maximum, rebuilds TrainingTerms on the scaled copy and fits there; the
    susceptibilities follow the ascending term users.
    """
    cfg = cfg or FitConfig()
    terms = training_terms(stack, adoptions, train_apps)
    potentials = terms.potentials
    if evidence_users is not None:
        seen = np.zeros(terms.num_users, dtype=bool)
        seen[evidence_users] = True
        potentials = network_potentials(stack, terms.labels & seen[:, None])
    active = np.arange(terms.num_users) if term_users is None else np.unique(term_users)
    potentials, labels = potentials[:, active, :], terms.labels[active, :]
    num_users, num_nets = active.size, terms.num_networks
    init_w = cfg.init_net_weight if cfg.init_net_weight is not None else 1.0 / num_nets
    pot_max = potentials.max(axis=(1, 2))
    flat_nets = pot_max == 0.0
    pot_scale = np.where(flat_nets, 1.0, pot_max)
    pop_max = float(terms.popularity.max())
    has_pop = pop_max > 0.0
    pop_scale = pop_max if has_pop else 1.0
    terms = TrainingTerms(potentials=potentials / pot_scale[:, None, None],
                          popularity=terms.popularity / pop_scale, labels=labels)
    s_idx = np.arange(num_users)
    w_idx = num_users + np.arange(num_nets)
    pop_idx = num_users + num_nets
    fix_s, fix_w, fix_pop, signed = variant_blocks(cfg)
    theta0 = np.zeros(num_users + num_nets + 1)
    theta0[s_idx] = 0.0 if fix_s else cfg.init_susceptibility
    theta0[w_idx] = 0.0 if fix_w else init_w * pot_scale
    theta0[pop_idx] = init_w * pop_scale if has_pop and not fix_pop else 0.0
    frozen = np.zeros(theta0.size, dtype=bool)
    frozen[s_idx] = fix_s
    frozen[w_idx] = fix_w
    frozen[pop_idx] = fix_pop or not has_pop
    theta0[w_idx[flat_nets]] = 0.0
    frozen[w_idx[flat_nets]] = True
    nonneg = np.ones(theta0.size, dtype=bool)
    if signed:
        nonneg[w_idx] = False

    def value(t):
        return objective_value(terms, t[s_idx], t[w_idx], t[pop_idx])

    def gradient(t):
        gs, gw, gp = objective_gradient(terms, t[s_idx], t[w_idx], t[pop_idx])
        return np.concatenate([gs, gw, [gp]])

    def hessian(t):
        return objective_hessian(terms, t[s_idx], t[w_idx], t[pop_idx])

    theta, result = _projected_newton(value, lambda t: (gradient(t), hessian(t)),
                                      theta0, nonneg, frozen, cfg)
    params = ModelParams(net_weights=theta[w_idx] / pot_scale,
                         pop_weight=float(theta[pop_idx]) / pop_scale,
                         susceptibility=theta[s_idx],
                         constrained=not signed)
    return params, result


def flat_params(params):
    return np.concatenate([params.susceptibility, params.net_weights,
                           [params.pop_weight]])


def with_zero_network(stack):
    U = stack.num_users
    zero = CandidateNetwork(num_users=U, weights=np.zeros((U, U)), name="zero")
    return NetworkStack(networks=stack.networks + (zero,),
                        popularity=stack.popularity)


# a case of the oracle test -> the variant that freezes that block
FROZEN_BLOCK_VARIANTS = {"fix_susceptibility_at_zero": "network_only",
                         "fix_net_weights_at_zero": "individual_only"}


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
            cfg = FitConfig(variant=FROZEN_BLOCK_VARIANTS[case])
        elif case == "zero_network":
            stack = with_zero_network(stack)
        elif case == "term_users":
            rng = np.random.default_rng(seed)
            kwargs["term_users"] = np.sort(rng.choice(14, 8, replace=False))
            kwargs["evidence_users"] = rng.choice(14, 7, replace=False)
        got, res = fit_mle(training_terms(stack, adoptions, train, **kwargs), cfg=cfg)
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
        # A relaxed-sign fit could end on a kink of the piecewise linear
        # objective with line_search_exhausted, where the number of arc
        # searches before both give up depends on rounding, so only where
        # the two fits stop is compared.
        stack, adoptions = make_instance(seed, num_users=14, num_networks=3)
        stack = without_popularity(stack)
        train = np.arange(adoptions.num_apps)
        cfg = SIGNED
        got, res = fit_mle(training_terms(stack, adoptions, train), cfg=cfg)
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


class TestKneeCurvature:
    """The Newton model's knee term: adopter cells at the knee count as curved."""

    def test_fit_model_is_exact_hessian_plus_knee_term(self, monkeypatch):
        stack, adoptions = make_instance(3, num_users=14, num_networks=3)
        train = np.arange(adoptions.num_apps)
        captured = {}

        def capture(value, derivatives, theta0, nonneg, frozen, cfg):
            captured["derivatives"] = derivatives
            return theta0, None

        monkeypatch.setattr(solver, "_projected_newton", capture)
        fit_mle(training_terms(stack, adoptions, train))

        def model(theta):
            return captured["derivatives"](theta)[1]
        terms = training_terms(stack, adoptions, train)
        U, M = terms.num_users, terms.num_networks
        scale = np.append(terms.potentials.max(axis=(1, 2)), terms.popularity.max())
        # every exponent above the knee: the model is the exact Hessian
        theta = np.append(np.full(U, 0.2), 0.3 * scale)
        want = objective_hessian(terms, theta[:U], np.full(M, 0.3), 0.3)
        got = model(theta)
        # one np.add.reduceat sums the cells in another order than np.bincount
        np.testing.assert_allclose(got[0], want[0], rtol=1e-14, atol=0.0)
        # the weight blocks only pass through the unit-max change of variables
        np.testing.assert_allclose(got[1] * scale, want[1], rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(got[2] * scale[:, None] * scale, want[2],
                                   rtol=1e-14, atol=0.0)
        # all parameters at zero: every adopter cell sits at z = 0
        diag, coupling, dense = model(np.zeros(U + M + 1))
        counts = np.bincount(terms.adopter_users, minlength=U)
        np.testing.assert_array_equal(diag, KNEE_CURVATURE * counts)
        assert not coupling.any() and not dense.any()

    def test_knee_users_take_newton_steps(self):
        # Sparse single-network data puts users with few adopter cells on the
        # knee, where the exact Hessian has no curvature; with the exact
        # Hessian as its Newton model this fit takes 48 objective evaluations
        # in 15 iterations, most of them halving Newton steps.
        stack, adoptions = make_instance(8, num_users=40, num_networks=1,
                                         num_apps=20, density=0.05)
        stack = without_popularity(stack)
        train = np.arange(adoptions.num_apps)
        params, res = fit_mle(training_terms(stack, adoptions, train))
        assert res.stop_reason == "grad_tol"
        assert res.objective_evals <= 2 * (res.iterations + 1)
        # the same optimum as the exact-Hessian path
        exact, ref = slice_rescale_fit(stack, adoptions, train)
        assert ref.stop_reason == "grad_tol"
        np.testing.assert_allclose(flat_params(params), flat_params(exact),
                                   rtol=0.0, atol=1e-8)

    def test_comparison_fit_does_not_stall(self):
        # The 20% full-model fit of the comparison protocol on a small
        # teacher bundle: with the exact Hessian as its Newton model it makes
        # no progress at the knee and ends on max_iters with a projected
        # gradient of about 2.
        spec = SynthSpec(num_users=60, num_context_users=30, num_apps=40,
                         num_networks=4, seed=1)
        networks, teacher = generate(spec)
        adoptions, _ = filter_min_users(teacher.adoptions, 3)
        stack = NetworkStack(networks.networks, popularity_counts(adoptions))
        seed = derive_seed(0, "comparison", "split", 0.2, 0)
        train, _ = fraction_split(np.arange(adoptions.num_apps), 0.2, seed)
        _, res = fit_mle(training_terms(stack, adoptions, train),
                         cfg=FitConfig(max_iters=200))
        assert res.stop_reason == "grad_tol"
        assert res.final_objective >= -72.0583


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

            x, res = _projected_newton(value, lambda x: (grad(x), blocks),
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
            lambda t: float(b @ t - 0.5 * t @ H @ t), lambda t: (b - H @ t, blocks),
            np.array([0.3, 0.3, 0.3]), np.ones(3, dtype=bool),
            np.array([False, True, False]), FitConfig())
        assert x[1] == 0.3
        np.testing.assert_allclose(x[[0, 2]], [2.0, 1.0], atol=1e-9)
        assert res.converged

    def test_linear_objective_goes_to_bound(self):
        # no curvature anywhere: a falling coordinate lands on zero in one step
        blocks = (np.zeros(2), np.zeros((2, 1)), np.zeros((1, 1)))
        slope = np.array([-3.0, -1.0, -2.0])
        x, res = _projected_newton(
            lambda t: float(slope @ t), lambda t: (slope.copy(), blocks),
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
            lambda t: (-2.0 * (t - target), blocks), np.zeros(4),
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
            value, lambda x: (-np.sinh(x - target), hessian(x)),
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

        _, res = _projected_newton(value, lambda x: (grad(x), hessian(x)), np.full(5, 2.0),
                                   np.ones(5, dtype=bool),
                                   np.zeros(5, dtype=bool), FitConfig())
        assert res.converged and res.iterations >= 2
        assert all(later >= earlier - 1e-12 * max(1.0, abs(earlier))
                   for earlier, later in zip(values, values[1:]))


class TestStalledSteps:
    """Arc trials that round back to theta end the arc; a stalled gradient arc ends the fit."""

    @staticmethod
    def one_coordinate_model(curvature):
        return np.array([curvature]), np.zeros((1, 0)), np.zeros((0, 0))

    def test_stall_ends_the_fit_without_an_iteration(self):
        # f(t) = t - H (t - 1)^2 / 2 peaks at 1 + 1/H, within rounding of the
        # start t = 1: the Newton step rounds back to 1, and every
        # projected-gradient step long enough to move t overshoots and loses
        big = 1e20
        evaluated = []

        def value(t):
            evaluated.append(float(t[0]))
            return float(t[0] - 0.5 * big * (t[0] - 1.0) ** 2)

        def derivatives(t):
            return np.array([1.0 - big * (t[0] - 1.0)]), self.one_coordinate_model(big)

        x, res = _projected_newton(value, derivatives, np.array([1.0]),
                                   np.ones(1, dtype=bool), np.zeros(1, dtype=bool),
                                   FitConfig())
        assert res.stop_reason == "stalled"
        assert res.iterations == 0 and not res.converged
        assert x.tolist() == [1.0]
        assert res.final_objective == 1.0 and res.grad_norm == 1.0
        # the start, then gradient steps 1, 1/2, ..., 2^-52; 1 + 2^-53 rounds to 1
        assert evaluated == [1.0] + [1.0 + 2.0 ** -k for k in range(53)]
        assert res.objective_evals == len(evaluated) and res.gradient_evals == 1

    def test_newton_arc_that_cannot_move_hands_over(self):
        # a model with a huge curvature makes the Newton step round to theta:
        # the gradient arc takes over at once instead of halving the Newton
        # step down to NEWTON_MIN_STEP
        evaluated = []

        def value(t):
            evaluated.append(float(t[0]))
            return -float((t[0] - 2.0) ** 2)

        def derivatives(t):
            return np.array([-2.0 * (t[0] - 2.0)]), self.one_coordinate_model(1e300)

        x, res = _projected_newton(value, derivatives, np.array([0.5]),
                                   np.ones(1, dtype=bool), np.zeros(1, dtype=bool),
                                   FitConfig())
        assert res.stop_reason == "grad_tol" and res.iterations == 1
        assert x.tolist() == [2.0]
        assert evaluated == [0.5, 3.5, 2.0]

    def test_failing_newton_arc_spends_at_most_ten_trials(self):
        # a far too flat model sends the Newton step 3 * 2**20 past the peak
        # of -(t - 2)^2: every Newton trial overshoots and loses, and after
        # steps 1 .. 2**-9 the gradient arc takes over and finds the peak
        evaluated = []

        def value(t):
            evaluated.append(float(t[0]))
            return -float((t[0] - 2.0) ** 2)

        def derivatives(t):
            return np.array([-2.0 * (t[0] - 2.0)]), self.one_coordinate_model(2.0 ** -20)

        x, res = _projected_newton(value, derivatives, np.array([0.5]),
                                   np.ones(1, dtype=bool), np.zeros(1, dtype=bool),
                                   FitConfig())
        assert res.stop_reason == "grad_tol" and res.iterations == 1
        assert x.tolist() == [2.0]
        newton = [0.5 + 2.0 ** -k * 3.0 * 2.0 ** 20 for k in range(10)]
        assert evaluated == [0.5, *newton, 3.5, 2.0]


class TestArcSearchEnds:
    """The Newton arc's roundoff allowance, and the stop when both arcs fail."""

    @staticmethod
    def one_coordinate_model(curvature):
        return np.array([curvature]), np.zeros((1, 0)), np.zeros((0, 0))

    def test_newton_step_within_roundoff_is_accepted(self):
        # At 0.5 the gradient says 1e-4 but the objective falls along it by
        # 1e-7 per unit, far below the roundoff allowance 1e-12 * 1e6.  The
        # first Newton trial predicts a gain of 1e-8, within that allowance,
        # and loses 1e-11 < 1e-6: it is accepted though Armijo rejects it.
        evaluated = []

        def value(t):
            evaluated.append(float(t[0]))
            return 1e6 - 1e-3 * (float(t[0]) - 0.5)

        def derivatives(t):
            slope = 1e-4 if t[0] == 0.5 else 0.0
            return np.array([slope]), self.one_coordinate_model(1.0)

        x, res = _projected_newton(value, derivatives, np.array([0.5]),
                                   np.ones(1, dtype=bool), np.zeros(1, dtype=bool),
                                   FitConfig())
        assert evaluated == [0.5, 0.5 + 1e-4]
        assert x.tolist() == [0.5 + 1e-4]
        assert res.stop_reason == "grad_tol" and res.iterations == 1
        assert res.final_objective < 1e6 and res.objective_evals == 2

    def test_both_arcs_failing_ends_the_fit(self):
        # The gradient points up from the bound 0, the objective falls
        # everywhere above it, and no trial rounds back to 0: ten Newton
        # trials (steps 1 .. 2**-9), then 67 gradient trials (steps 1 ..
        # 2**-66, the last above MIN_STEP), all rejected.
        evaluated = []

        def value(t):
            evaluated.append(float(t[0]))
            return -float(t[0])

        def derivatives(t):
            return np.array([1.0]), self.one_coordinate_model(1.0)

        x, res = _projected_newton(value, derivatives, np.array([0.0]),
                                   np.ones(1, dtype=bool), np.zeros(1, dtype=bool),
                                   FitConfig())
        assert res.stop_reason == "line_search_exhausted"
        assert res.iterations == 0 and not res.converged
        assert x.tolist() == [0.0] and res.grad_norm == 1.0
        assert evaluated == ([0.0] + [2.0 ** -k for k in range(10)]
                             + [2.0 ** -k for k in range(67)])
        assert res.objective_evals == 78 and res.gradient_evals == 1


class TestProjectedAscent:
    # a separable quadratic with one coordinate frozen at its start value
    def test_frozen_coordinates_never_move(self):
        target = np.array([2.0, 2.0])
        blocks = (np.array([2.0]), np.zeros((1, 1)), np.array([[2.0]]))
        x, _ = _projected_newton(
            lambda t: -float(np.sum((t - target) ** 2)),
            lambda t: (-2.0 * (t - target), blocks), np.zeros(2),
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
    def test_caller_arrays_stay_writable_and_detached(self):
        coefs, activity = np.array([0.5]), np.array([1.0, 2.0])
        reg = RegressionParams(net_coefs=coefs, pop_coef=0.0, activity_coef=0.0,
                               intercept=0.0, activity=activity)
        coefs[0] = activity[0] = 9.0
        assert reg.net_coefs.tolist() == [0.5]
        assert reg.activity.tolist() == [1.0, 2.0]
        assert not reg.net_coefs.flags.writeable and not reg.activity.flags.writeable

    def test_coefficients_are_nonnegative(self):
        stack, adoptions = make_instance(20)
        reg = fit_regression(training_terms(stack, adoptions, np.arange(adoptions.num_apps)))
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
        reg = fit_regression(training_terms(stack, adoptions, np.arange(A)))
        pred = (reg.pop_coef * 2.0 + reg.activity_coef * A + reg.intercept)
        assert pred == pytest.approx(1.0, abs=1e-5)

    def test_activity_counts_training_apps_only(self):
        # the activity feature is fitted, stored and scored from one place;
        # the test apps' installs must not reach it
        stack, adoptions = make_instance(25)
        train = np.arange(0, adoptions.num_apps, 2)
        terms = training_terms(stack, adoptions, train)
        reg = fit_regression(terms)
        np.testing.assert_array_equal(reg.activity, terms.labels.sum(axis=1))
        np.testing.assert_array_equal(reg.activity, adoptions.installed[:, train].sum(axis=1))
        assert not np.array_equal(reg.activity, adoptions.installed.sum(axis=1))
        assert reg.activity.dtype == float and not reg.activity.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            reg.activity[0] = 1.0

    def test_empty_train_apps_rejected(self):
        stack, adoptions = make_instance(21)
        with pytest.raises(ValueError, match="empty"):
            fit_regression(training_terms(stack, adoptions, []))

    @pytest.mark.parametrize("fit", [fit_mle, fit_regression])
    @pytest.mark.parametrize("apps, message", [
        ([-1, 0], "out-of-range"),
        ([0, 15], "out-of-range"),
        ([0, 0, 1], "duplicates"),
    ])
    def test_both_fits_check_train_apps(self, fit, apps, message):
        stack, adoptions = make_instance(22)
        with pytest.raises(ValueError, match=message):
            fit(training_terms(stack, adoptions, apps))

    @pytest.mark.parametrize("fit", [fit_mle, fit_regression])
    def test_both_fits_check_popularity_length(self, fit):
        stack, adoptions = make_instance(23)
        short = NetworkStack(networks=stack.networks,
                             popularity=stack.popularity[:-1])
        with pytest.raises(ValueError, match="popularity length"):
            fit(training_terms(short, adoptions, [0, 1]))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_design_oracle_bit_for_bit(self, seed):
        stack, adoptions = make_instance(seed, num_networks=3)
        train = np.arange(0, adoptions.num_apps, 2)
        reg = fit_regression(training_terms(stack, adoptions, train))
        F, y = regression_design(stack, adoptions, train)
        beta = nonneg_least_squares(F, y)
        np.testing.assert_array_equal(
            np.concatenate([reg.net_coefs,
                            [reg.pop_coef, reg.activity_coef, reg.intercept]]),
            beta)


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
        reg = fit_regression(training_terms(stack, adoptions, train))
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
