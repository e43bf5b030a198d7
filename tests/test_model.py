"""Potentials, adoption probability, likelihood, and the analytic gradient."""
from __future__ import annotations

import math

import numpy as np
import pytest

from adoptnet.data import AdoptionMatrix, CandidateNetwork, NetworkStack
from adoptnet.model import (
    EXPONENT_KNEE,
    ModelParams,
    adoption_probability,
    log1mexp,
    log_likelihood,
    log_likelihood_gradient,
    network_potentials,
    objective_gradient,
    objective_hessian,
    objective_value,
    training_terms,
)
from adoptnet.predict import score_matrix

# hand-computed reference values
P_OF_0_6 = 0.4511883639059736  # 1 - exp(-0.6)
LL_HAND = math.log(0.5) - 0.3  # adopter at z=ln2 plus non-adopter at z=0.3


def edgeless_stack(num_users, num_networks=1):
    nets = tuple(
        CandidateNetwork(num_users=num_users, weights=np.zeros((num_users, num_users)),
                         name=f"g{m}")
        for m in range(num_networks)
    )
    return NetworkStack(networks=nets)


def random_instance(rng, num_users=None, num_networks=None, num_apps=None):
    """A feasible random stack + adoptions + params, away from the z=0 boundary."""
    U = num_users or int(rng.integers(5, 31))
    M = num_networks or int(rng.integers(1, 5))
    A = num_apps or int(rng.integers(3, 41))
    nets = []
    for m in range(M):
        w = np.triu(rng.random((U, U)) * (rng.random((U, U)) < 0.3), k=1)
        w = w + w.T
        nets.append(CandidateNetwork(num_users=U, weights=w, name=f"g{m}"))
    installed = rng.random((U, A)) < 0.25
    adoptions = AdoptionMatrix(num_users=U, num_apps=A, installed=installed)
    stack = NetworkStack(networks=tuple(nets), popularity=rng.random(A) * 3.0)
    params = ModelParams(
        net_weights=rng.uniform(0.1, 1.0, M),
        pop_weight=float(rng.uniform(0.1, 0.5)),
        susceptibility=rng.uniform(0.05, 1.0, U),
    )
    return stack, adoptions, params


class TestModelParams:
    def test_constrained_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="negative"):
            ModelParams(net_weights=np.array([-0.1]), pop_weight=0.0,
                        susceptibility=np.zeros(2))

    def test_unconstrained_allows_negative_weight(self):
        p = ModelParams(net_weights=np.array([-0.1]), pop_weight=0.0,
                        susceptibility=np.zeros(2), constrained=False)
        assert p.net_weights[0] == -0.1

    def test_negative_susceptibility_rejected_always(self):
        with pytest.raises(ValueError, match="susceptibility"):
            ModelParams(net_weights=np.array([0.1]), pop_weight=0.0,
                        susceptibility=np.array([-0.5]), constrained=False)

    def test_negative_pop_weight_rejected_always(self):
        with pytest.raises(ValueError, match="popularity"):
            ModelParams(net_weights=np.array([0.1]), pop_weight=-1.0,
                        susceptibility=np.zeros(1), constrained=False)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(net_weights=np.array([np.nan]), pop_weight=0.0,
                        susceptibility=np.zeros(1))

    def test_json_round_trip_uses_wire_keys(self):
        import json

        p = ModelParams(net_weights=np.array([0.5, 0.25]), pop_weight=0.125,
                        susceptibility=np.array([0.0, 0.75]))
        obj = json.loads(p.to_json())
        assert set(obj) == {"alpha", "alpha_pop", "s", "constrained"}
        back = ModelParams.from_json(p.to_json())
        np.testing.assert_array_equal(back.net_weights, p.net_weights)
        np.testing.assert_array_equal(back.susceptibility, p.susceptibility)
        assert back.pop_weight == p.pop_weight and back.constrained


def one_app_potentials(g: CandidateNetwork, x) -> np.ndarray:
    """Exposure of every user to one app through one network."""
    return network_potentials(NetworkStack(networks=(g,)), np.asarray(x)[:, None])[0, :, 0]


def two_network_stack(exposure_0: float, exposure_1: float, popularity=None) -> NetworkStack:
    """Two users; with user 1 adopting, user 0's exposures are the two edge weights."""
    nets = []
    for weight in (exposure_0, exposure_1):
        w = np.zeros((2, 2))
        w[0, 1] = w[1, 0] = weight
        nets.append(CandidateNetwork(num_users=2, weights=w))
    return NetworkStack(networks=tuple(nets), popularity=popularity)


class TestNetworkPotentials:
    def test_two_neighbour_sum(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 2.0
        w[0, 2] = w[2, 0] = 3.0
        g = CandidateNetwork(num_users=3, weights=w)
        assert one_app_potentials(g, np.array([0, 1, 0]))[0] == 2.0

    def test_no_adopters_means_no_exposure(self):
        rng = np.random.default_rng(0)
        w = np.triu(rng.random((5, 5)), k=1)
        g = CandidateNetwork(num_users=5, weights=w + w.T)
        assert one_app_potentials(g, np.zeros(5)).tolist() == [0.0] * 5

    def test_matches_double_loop(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = 6
            w = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.5), k=1)
            g = CandidateNetwork(num_users=n, weights=w + w.T)
            x = (rng.random(n) < 0.5).astype(float)
            expected = np.zeros(n)
            for i in range(n):
                for j in range(n):
                    expected[i] += g.weights[i, j] * x[j]
            np.testing.assert_allclose(one_app_potentials(g, x), expected, atol=1e-12)

    def test_matches_double_loop_over_networks_and_apps(self):
        rng = np.random.default_rng(2)
        n, m, t = 6, 3, 4
        nets = []
        for _ in range(m):
            w = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.5), k=1)
            nets.append(CandidateNetwork(num_users=n, weights=w + w.T))
        x = rng.random((n, t)) < 0.5
        pot = network_potentials(NetworkStack(networks=tuple(nets)), x)
        assert pot.shape == (m, n, t)
        for k, g in enumerate(nets):
            for a in range(t):
                np.testing.assert_allclose(pot[k, :, a], g.weights @ x[:, a].astype(float),
                                           rtol=0.0, atol=1e-12)

    def test_dimension_mismatch(self):
        g = CandidateNetwork(num_users=3, weights=np.zeros((3, 3)))
        stack = NetworkStack(networks=(g,))
        with pytest.raises(ValueError, match="shape"):
            network_potentials(stack, np.zeros((4, 1)))
        with pytest.raises(ValueError, match="shape"):
            network_potentials(stack, np.zeros(3))


class TestCompositePotential:
    """The composite exposure net_weights . potentials + pop_weight * popularity,
    read back through score_matrix with zero susceptibility."""

    def test_selector_weights(self):
        stack = two_network_stack(4.0, 9.0)
        p = ModelParams(net_weights=np.array([1.0, 0.0]), pop_weight=0.0,
                        susceptibility=np.zeros(2))
        scores = score_matrix(p, stack, np.array([[0], [1]]), np.zeros(1))
        assert scores[0, 0] == adoption_probability(0.0, 4.0)

    def test_hand_evaluation_with_popularity(self):
        stack = two_network_stack(2.0, 4.0)
        p = ModelParams(net_weights=np.array([0.5, 0.5]), pop_weight=0.1,
                        susceptibility=np.zeros(2))
        scores = score_matrix(p, stack, np.array([[0], [1]]), np.array([10.0]))
        assert scores[0, 0] == pytest.approx(float(adoption_probability(0.0, 4.0)), abs=1e-12)

    def test_all_zero_weights(self):
        rng = np.random.default_rng(3)
        nets = []
        for _ in range(2):
            w = np.triu(rng.random((3, 3)), k=1)
            nets.append(CandidateNetwork(num_users=3, weights=w + w.T))
        p = ModelParams(net_weights=np.zeros(2), pop_weight=0.0,
                        susceptibility=np.zeros(3))
        scores = score_matrix(p, NetworkStack(networks=tuple(nets)), np.ones((3, 1)),
                              np.array([5.0]))
        assert scores[:, 0].tolist() == [0.0, 0.0, 0.0]

    def test_network_count_mismatch(self):
        p = ModelParams(net_weights=np.zeros(3), pop_weight=0.0, susceptibility=np.zeros(2))
        with pytest.raises(ValueError, match="mismatch"):
            score_matrix(p, two_network_stack(1.0, 1.0), np.zeros((2, 1)), np.zeros(1))

    def test_decomposition_matches_presummed_matrix(self):
        # combining per-network exposures with weights must equal the exposure
        # computed on the single pre-combined weight matrix
        rng = np.random.default_rng(4)
        for _ in range(10):
            n, m = 7, 3
            nets = []
            for _ in range(m):
                w = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.5), k=1)
                nets.append(CandidateNetwork(num_users=n, weights=w + w.T))
            stack = NetworkStack(networks=tuple(nets))
            alpha = rng.random(m)
            x = (rng.random((n, 2)) < 0.5).astype(float)
            combined = NetworkStack(networks=(CandidateNetwork(
                num_users=n,
                weights=sum(a * g.weights for a, g in zip(alpha, nets)),
            ),))
            params = ModelParams(net_weights=alpha, pop_weight=0.0,
                                 susceptibility=np.zeros(n))
            np.testing.assert_allclose(
                score_matrix(params, stack, x, np.zeros(2)),
                adoption_probability(0.0, network_potentials(combined, x)[0]),
                atol=1e-10,
            )


class TestAdoptionProbability:
    def test_zero_exponent_is_exactly_zero(self):
        assert adoption_probability(0.0, 0.0) == 0.0

    def test_log_two_gives_half(self):
        assert adoption_probability(math.log(2.0), 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_hand_value(self):
        assert adoption_probability(0.1, 0.5) == pytest.approx(P_OF_0_6, abs=1e-15)

    def test_strictly_increasing(self):
        rng = np.random.default_rng(9)
        s = np.sort(rng.random(50) * 3)
        p = adoption_probability(s, 0.0)
        assert np.all(np.diff(p) > 0)
        pot = np.sort(rng.random(50) * 3)
        p = adoption_probability(0.2, pot)
        assert np.all(np.diff(p) > 0)

    def test_negative_exponent_floors_to_probability(self):
        p = adoption_probability(0.0, -5.0)
        assert 0.0 < p < 1e-11

    def test_neighbour_flip_never_decreases_exposure(self):
        rng = np.random.default_rng(13)
        n = 8
        w = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.4), k=1)
        g = CandidateNetwork(num_users=n, weights=w + w.T)
        x = (rng.random(n) < 0.4).astype(float)
        base = one_app_potentials(g, x)
        for j in np.flatnonzero(x == 0):
            flipped = x.copy()
            flipped[j] = 1.0
            assert np.all(one_app_potentials(g, flipped) >= base)


class TestLog1mexp:
    def test_log_two_branch_crossover(self):
        assert log1mexp(np.array([math.log(2.0)]))[0] == pytest.approx(
            math.log(0.5), abs=1e-15
        )

    def test_small_argument_avoids_cancellation(self):
        assert log1mexp(np.array([1e-10]))[0] == pytest.approx(-23.0258509299405, abs=1e-9)

    def test_large_argument_nonzero(self):
        v = log1mexp(np.array([40.0]))[0]
        assert v < 0.0
        assert v == pytest.approx(-math.exp(-40.0), rel=1e-6)


class TestLogLikelihood:
    def test_hand_value(self):
        stack = edgeless_stack(2)
        installed = np.array([[True], [False]])
        adoptions = AdoptionMatrix(num_users=2, num_apps=1, installed=installed)
        params = ModelParams(net_weights=np.zeros(1), pop_weight=0.0,
                             susceptibility=np.array([math.log(2.0), 0.3]))
        assert log_likelihood(params, stack, adoptions, [0]) == pytest.approx(
            LL_HAND, abs=1e-12
        )

    def test_all_zero_everything_is_zero(self):
        stack = edgeless_stack(3)
        adoptions = AdoptionMatrix(num_users=3, num_apps=4,
                                   installed=np.zeros((3, 4), dtype=bool))
        params = ModelParams(net_weights=np.zeros(1), pop_weight=0.0,
                             susceptibility=np.zeros(3))
        assert log_likelihood(params, stack, adoptions, [0, 1, 2, 3]) == 0.0

    def test_adopter_at_zero_exponent_is_finite(self):
        stack = edgeless_stack(1)
        adoptions = AdoptionMatrix(num_users=1, num_apps=1,
                                   installed=np.ones((1, 1), dtype=bool))
        params = ModelParams(net_weights=np.zeros(1), pop_weight=0.0,
                             susceptibility=np.zeros(1))
        v = log_likelihood(params, stack, adoptions, [0])
        assert math.isfinite(v)
        assert v < -5.0

    def test_empty_train_apps_rejected(self):
        stack = edgeless_stack(2)
        adoptions = AdoptionMatrix(num_users=2, num_apps=2,
                                   installed=np.zeros((2, 2), dtype=bool))
        params = ModelParams(net_weights=np.zeros(1), pop_weight=0.0,
                             susceptibility=np.zeros(2))
        with pytest.raises(ValueError, match="empty"):
            log_likelihood(params, stack, adoptions, [])

    def test_duplicate_train_apps_rejected(self):
        stack = edgeless_stack(2)
        adoptions = AdoptionMatrix(num_users=2, num_apps=2,
                                   installed=np.zeros((2, 2), dtype=bool))
        params = ModelParams(net_weights=np.zeros(1), pop_weight=0.0,
                             susceptibility=np.zeros(2))
        with pytest.raises(ValueError, match="duplicate"):
            log_likelihood(params, stack, adoptions, [1, 1])


class TestTrainingTermsChecks:
    def instance(self):
        rng = np.random.default_rng(5)
        stack, adoptions, _ = random_instance(rng, num_users=6, num_networks=2,
                                              num_apps=5)
        return stack, adoptions

    @pytest.mark.parametrize("users", [[-1], [0, 6], [6]])
    def test_term_user_out_of_range_rejected(self, users):
        stack, adoptions = self.instance()
        with pytest.raises(ValueError, match="term_users contains a user id outside 0..5"):
            training_terms(stack, adoptions, np.arange(5), term_users=users)

    def test_term_users_in_range_accepted(self):
        stack, adoptions = self.instance()
        terms = training_terms(stack, adoptions, np.arange(5), term_users=[0, 5])
        np.testing.assert_array_equal(terms.term_users, [1, 0, 0, 0, 0, 1])

    @pytest.mark.parametrize("num_apps", [3, 7])
    def test_evidence_app_count_mismatch_rejected(self, num_apps):
        stack, adoptions = self.instance()
        evidence = AdoptionMatrix(num_users=6, num_apps=num_apps,
                                  installed=np.zeros((6, num_apps), dtype=bool))
        with pytest.raises(ValueError, match=f"evidence has {num_apps} apps but the labels have 5"):
            training_terms(stack, adoptions, np.arange(5), evidence=evidence)



def finite_difference(stack, adoptions, params, train_apps, h=1e-5):
    """Central differences over the flattened (s..., w..., pop) vector."""
    U, M = params.num_users, params.num_networks

    def unpack(vec):
        return ModelParams(
            net_weights=vec[U:U + M],
            pop_weight=float(vec[U + M]),
            susceptibility=vec[:U],
            constrained=False,
        )

    theta = np.concatenate([params.susceptibility, params.net_weights,
                            [params.pop_weight]])
    grad = np.zeros(theta.size)
    for i in range(theta.size):
        hi = theta.copy()
        lo = theta.copy()
        hi[i] += h
        lo[i] -= h
        grad[i] = (
            log_likelihood(unpack(hi), stack, adoptions, train_apps)
            - log_likelihood(unpack(lo), stack, adoptions, train_apps)
        ) / (2 * h)
    return grad


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            stack, adoptions, params = random_instance(rng)
            train = np.arange(adoptions.num_apps)
            analytic = log_likelihood_gradient(params, stack, adoptions, train)
            numeric = finite_difference(stack, adoptions, params, train)
            denom = np.maximum(np.abs(numeric), 1.0)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-6

    def test_empty_train_apps_zero_gradient(self):
        stack = edgeless_stack(3)
        adoptions = AdoptionMatrix(num_users=3, num_apps=2,
                                   installed=np.zeros((3, 2), dtype=bool))
        params = ModelParams(net_weights=np.zeros(1), pop_weight=0.0,
                             susceptibility=np.zeros(3))
        g = log_likelihood_gradient(params, stack, adoptions, [])
        assert g.shape == (5,)
        assert not g.any()

    def test_all_non_adopters_susceptibility_slope(self):
        stack = edgeless_stack(4)
        adoptions = AdoptionMatrix(num_users=4, num_apps=6,
                                   installed=np.zeros((4, 6), dtype=bool))
        params = ModelParams(net_weights=np.zeros(1), pop_weight=0.0,
                             susceptibility=np.full(4, 0.2))
        g = log_likelihood_gradient(params, stack, adoptions, [0, 1, 2])
        np.testing.assert_array_equal(g[:4], -3.0)

    def test_below_knee_slope_is_constant(self):
        # the adopter term continues linearly under the knee, so the gradient
        # there equals the knee slope exactly
        stack = edgeless_stack(1)
        adoptions = AdoptionMatrix(num_users=1, num_apps=1,
                                   installed=np.ones((1, 1), dtype=bool))
        slope = 1.0 / math.expm1(EXPONENT_KNEE)
        for s in (0.0, EXPONENT_KNEE / 2):
            params = ModelParams(net_weights=np.zeros(1), pop_weight=0.0,
                                 susceptibility=np.array([s]))
            g = log_likelihood_gradient(params, stack, adoptions, [0])
            assert g[0] == pytest.approx(slope, rel=1e-12)

    def test_value_continuous_at_knee(self):
        stack = edgeless_stack(1)
        adoptions = AdoptionMatrix(num_users=1, num_apps=1,
                                   installed=np.ones((1, 1), dtype=bool))

        def ll(s):
            params = ModelParams(net_weights=np.zeros(1), pop_weight=0.0,
                                 susceptibility=np.array([s]))
            return log_likelihood(params, stack, adoptions, [0])

        lo = ll(EXPONENT_KNEE - 1e-9)
        hi = ll(EXPONENT_KNEE + 1e-9)
        assert abs(hi - lo) < 1e-5


def assembled_hessian(terms, params):
    """Dense Hessian of objective_value from the arrowhead blocks."""
    diag, coupling, dense = objective_hessian(
        terms, params.susceptibility, params.net_weights, params.pop_weight
    )
    U = diag.size
    neg = np.zeros((U + dense.shape[0],) * 2)
    neg[:U, :U] = np.diag(diag)
    neg[:U, U:] = coupling
    neg[U:, :U] = coupling.T
    neg[U:, U:] = dense
    return -neg


def gradient_difference_hessian(terms, params, h=1e-6):
    """Central differences of objective_gradient, one column per coordinate."""
    U, M = params.num_users, params.num_networks
    theta = np.concatenate([params.susceptibility, params.net_weights,
                            [params.pop_weight]])

    def flat_gradient(vec):
        gs, gw, gp = objective_gradient(terms, vec[:U], vec[U:U + M], vec[U + M])
        return np.concatenate([gs, gw, [gp]])

    out = np.zeros((theta.size, theta.size))
    for j in range(theta.size):
        step = np.zeros(theta.size)
        step[j] = h
        out[:, j] = (flat_gradient(theta + step) - flat_gradient(theta - step)) / (2 * h)
    return out


class TestHessian:
    def test_blocks_match_gradient_differences(self):
        # random_instance keeps every exponent at least 0.05, far above the knee
        rng = np.random.default_rng(41)
        for trial in range(12):
            stack, adoptions, params = random_instance(rng)
            U = adoptions.num_users
            term_users = None if trial % 2 else rng.choice(U, U // 2 + 1, replace=False)
            terms = training_terms(stack, adoptions, np.arange(adoptions.num_apps),
                                   term_users=term_users)
            analytic = assembled_hessian(terms, params)
            numeric = gradient_difference_hessian(terms, params)
            denom = np.maximum(np.abs(numeric), 1.0)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-6

    def test_symmetric_and_negative_semidefinite(self):
        rng = np.random.default_rng(42)
        for _ in range(12):
            stack, adoptions, params = random_instance(rng)
            terms = training_terms(stack, adoptions, np.arange(adoptions.num_apps))
            hess = assembled_hessian(terms, params)
            np.testing.assert_array_equal(hess, hess.T)
            eig = np.linalg.eigvalsh(hess)
            assert eig.max() <= 1e-9 * max(1.0, float(np.abs(eig).max()))

    def test_cells_at_or_below_knee_add_no_curvature(self):
        # all-zero parameters put every exponent at 0: the objective is linear
        rng = np.random.default_rng(43)
        stack, adoptions, _ = random_instance(rng, num_users=6, num_networks=2,
                                              num_apps=5)
        terms = training_terms(stack, adoptions, np.arange(5))
        diag, coupling, dense = objective_hessian(terms, np.zeros(6), np.zeros(2), 0.0)
        assert diag.shape == (6,) and coupling.shape == (6, 3)
        assert dense.shape == (3, 3)
        assert not diag.any() and not coupling.any() and not dense.any()


class TestObjectiveProperties:
    def test_rescaling_invariance(self):
        rng = np.random.default_rng(33)
        for c in (10.0, 0.25):
            stack, adoptions, params = random_instance(rng, num_users=12,
                                                       num_networks=3, num_apps=15)
            scaled_nets = tuple(
                CandidateNetwork(num_users=g.num_users, weights=c * g.weights,
                                 name=g.name)
                for g in stack.networks
            )
            scaled_stack = NetworkStack(networks=scaled_nets, popularity=stack.popularity)
            scaled_params = ModelParams(
                net_weights=params.net_weights / c,
                pop_weight=params.pop_weight,
                susceptibility=params.susceptibility,
            )
            train = np.arange(adoptions.num_apps)
            a = log_likelihood(params, stack, adoptions, train)
            b = log_likelihood(scaled_params, scaled_stack, adoptions, train)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_concavity_along_random_segments(self):
        rng = np.random.default_rng(55)
        stack, adoptions, _ = random_instance(rng, num_users=10, num_networks=2,
                                              num_apps=12)
        train = np.arange(adoptions.num_apps)
        terms = training_terms(stack, adoptions, train)
        U, M = 10, 2

        def value(vec):
            return objective_value(terms, vec[:U], vec[U:U + M], float(vec[U + M]))

        for _ in range(50):
            t1 = rng.uniform(0.0, 2.0, U + M + 1)
            t2 = rng.uniform(0.0, 2.0, U + M + 1)
            lam = float(rng.uniform(0.05, 0.95))
            mid = value(lam * t1 + (1 - lam) * t2)
            chord = lam * value(t1) + (1 - lam) * value(t2)
            assert mid >= chord - 1e-9

    def test_term_users_mask_excludes_outcomes(self):
        rng = np.random.default_rng(77)
        stack, adoptions, params = random_instance(rng, num_users=8, num_networks=2,
                                                   num_apps=9)
        train = np.arange(9)
        half = np.arange(4)
        terms = training_terms(stack, adoptions, train, term_users=half)
        # flipping a masked user's labels must not change the value
        flipped = adoptions.installed.copy()
        flipped[6, :] = ~flipped[6, :]
        adoptions2 = AdoptionMatrix(num_users=8, num_apps=9, installed=flipped)
        terms2 = training_terms(stack, adoptions2, train, term_users=half,
                                evidence=adoptions)
        terms1 = training_terms(stack, adoptions, train, term_users=half,
                                evidence=adoptions)
        v1 = objective_value(terms1, params.susceptibility, params.net_weights,
                             params.pop_weight)
        v2 = objective_value(terms2, params.susceptibility, params.net_weights,
                             params.pop_weight)
        assert v1 == v2
        g1 = objective_gradient(terms1, params.susceptibility, params.net_weights,
                                params.pop_weight)
        g2 = objective_gradient(terms2, params.susceptibility, params.net_weights,
                                params.pop_weight)
        np.testing.assert_array_equal(g1[0], g2[0])
        # masked users carry no susceptibility gradient
        assert not g1[0][4:].any()

    def test_evidence_differs_from_labels(self):
        # conditioning on a separate evidence matrix: exposure uses evidence,
        # outcomes use the label matrix
        w = np.zeros((2, 2))
        w[0, 1] = w[1, 0] = 1.0
        g = CandidateNetwork(num_users=2, weights=w)
        stack = NetworkStack(networks=(g,))
        labels = AdoptionMatrix(num_users=2, num_apps=1,
                                installed=np.array([[True], [False]]))
        evidence = AdoptionMatrix(num_users=2, num_apps=1,
                                  installed=np.array([[False], [True]]))
        terms = training_terms(stack, labels, [0], evidence=evidence)
        # user 0's exposure comes from user 1's evidence bit
        assert terms.potentials[0, 0, 0] == 1.0
        assert terms.potentials[0, 1, 0] == 0.0
        np.testing.assert_array_equal(terms.labels[:, 0], [True, False])


# -- full-tensor reference --------------------------------------------------
# The objective as it was written before TrainingTerms gathered the adopter
# cells: every call passes over the whole (M, U, T) potential tensor.


def reference_exponents(terms, s, w, w_pop):
    return (s[:, None] + np.tensordot(w, terms.potentials, axes=1)
            + w_pop * terms.popularity[None, :])


def reference_value(terms, s, w, w_pop):
    z = reference_exponents(terms, s, w, w_pop)
    z_act, labels = z[terms.term_users], terms.labels[terms.term_users]
    z_adopt = z_act[labels]
    z_knee = np.maximum(z_adopt, EXPONENT_KNEE)
    adopter_part = float(log1mexp(z_knee).sum())
    adopter_part += float((z_adopt - z_knee).sum()) / math.expm1(EXPONENT_KNEE)
    penalty = float(np.maximum(z_act, 0.0).sum()) - float(np.maximum(z_adopt, 0.0).sum())
    return adopter_part - penalty


def reference_gradient(terms, s, w, w_pop):
    z = reference_exponents(terms, s, w, w_pop)
    labels = terms.labels & terms.term_users[:, None]
    coef = np.where(labels, 0.0, -1.0)
    coef[~terms.term_users, :] = 0.0
    idx = np.nonzero(labels)
    coef[idx] = 1.0 / np.expm1(np.maximum(z[idx], EXPONENT_KNEE))
    return (coef.sum(axis=1),
            np.tensordot(terms.potentials, coef, axes=([1, 2], [0, 1])),
            float(coef.sum(axis=0) @ terms.popularity))


def reference_hessian(terms, s, w, w_pop):
    z = reference_exponents(terms, s, w, w_pop)
    U, M = terms.num_users, terms.num_networks
    diag = np.zeros(U)
    coupling = np.zeros((U, M + 1))
    dense = np.zeros((M + 1, M + 1))
    for u, t in zip(*np.nonzero(terms.labels & terms.term_users[:, None])):
        if z[u, t] <= EXPONENT_KNEE:
            continue
        h = math.exp(z[u, t]) / math.expm1(z[u, t]) ** 2
        x = np.append(terms.potentials[:, u, t], terms.popularity[t])
        diag[u] += h
        coupling[u] += h * x
        dense += h * np.outer(x, x)
    return diag, coupling, dense


def oracle_instance(rng, negative):
    """Random terms with a term_users subset, an all-zero network, knee cells.

    Users 0 and 1 have no edges and apps 0 and 1 zero popularity, so those
    users' adopter cells there sit exactly at s, which is put at, below and
    at zero under the knee.  ``negative`` draws some network weights < 0.
    """
    U = int(rng.integers(6, 25))
    M = int(rng.integers(2, 5))
    A = int(rng.integers(4, 30))
    nets = []
    for m in range(M):
        w = np.triu(rng.random((U, U)) * (rng.random((U, U)) < 0.4), k=1)
        w[:2] = 0.0
        if m == M - 1:
            w[:] = 0.0  # an all-zero network
        nets.append(CandidateNetwork(num_users=U, weights=w + w.T, name=f"g{m}"))
    installed = rng.random((U, A)) < 0.3
    installed[:2, :2] = True
    popularity = rng.random(A) * 3.0
    popularity[:2] = 0.0
    stack = NetworkStack(networks=tuple(nets), popularity=popularity)
    adoptions = AdoptionMatrix(num_users=U, num_apps=A, installed=installed)
    term_users = None
    if rng.random() < 0.5:
        term_users = np.concatenate([[0, 1], rng.choice(np.arange(2, U), U // 2,
                                                        replace=False)])
    terms = training_terms(stack, adoptions, np.arange(A), term_users=term_users)
    s = rng.uniform(0.0, 1.0, U)
    s[0] = EXPONENT_KNEE
    s[1] = EXPONENT_KNEE / 2 if rng.random() < 0.5 else 0.0
    w = rng.uniform(0.0, 1.0, M)
    if negative:
        w[: M - 1] = rng.uniform(-2.0, 1.0, M - 1)
        w[0] = -abs(w[0]) - 0.5
    return terms, s, w, float(rng.uniform(0.0, 0.5))


def close(actual, expected, rel=1e-12):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    return bool(np.all(np.abs(actual - expected) <= rel * np.maximum(np.abs(expected), 1.0)))


class TestAdopterOnlyOracle:
    @pytest.mark.parametrize("negative", [False, True])
    def test_value_gradient_hessian_match_full_tensor(self, negative):
        rng = np.random.default_rng(91 + negative)
        knee_cells = corrected = 0
        for _ in range(150):
            terms, s, w, w_pop = oracle_instance(rng, negative)
            z = reference_exponents(terms, s, w, w_pop)
            active = terms.labels & terms.term_users[:, None]
            knee_cells += int(np.count_nonzero(z[active] <= EXPONENT_KNEE))
            corrected += int(np.count_nonzero(z[~terms.labels & terms.term_users[:, None]] < 0))
            assert close(objective_value(terms, s, w, w_pop),
                         reference_value(terms, s, w, w_pop))
            for got, want in zip(objective_gradient(terms, s, w, w_pop),
                                 reference_gradient(terms, s, w, w_pop)):
                assert close(got, want)
            for got, want in zip(objective_hessian(terms, s, w, w_pop),
                                 reference_hessian(terms, s, w, w_pop)):
                assert close(got, want)
        assert knee_cells > 0
        assert (corrected > 0) == negative

    def test_constrained_evaluations_never_read_the_tensor(self):
        rng = np.random.default_rng(95)
        for _ in range(20):
            terms, s, w, w_pop = oracle_instance(rng, negative=False)
            before = (objective_value(terms, s, w, w_pop),
                      objective_gradient(terms, s, w, w_pop),
                      objective_hessian(terms, s, w, w_pop))
            terms.potentials[...] = np.nan
            terms.popularity[...] = np.nan
            terms.labels[...] = ~terms.labels
            after = (objective_value(terms, s, w, w_pop),
                     objective_gradient(terms, s, w, w_pop),
                     objective_hessian(terms, s, w, w_pop))
            assert after[0] == before[0]
            for got, want in zip(after[1] + after[2], before[1] + before[2]):
                np.testing.assert_array_equal(got, want)
            negative = w.copy()
            negative[0] = -0.5
            with pytest.raises(FloatingPointError):
                objective_value(terms, s, negative, w_pop)

    def test_linear_coefficients_sum_the_non_adopter_cells(self):
        rng = np.random.default_rng(96)
        terms, _, _, _ = oracle_instance(rng, negative=False)
        passive = ~terms.labels & terms.term_users[:, None]
        np.testing.assert_array_equal(terms.linear_susceptibility, passive.sum(axis=1))
        expected = [terms.potentials[m][passive].sum() for m in range(terms.num_networks)]
        expected.append(np.broadcast_to(terms.popularity, passive.shape)[passive].sum())
        assert close(terms.linear_weights, expected, rel=1e-14)
        assert terms.adopter_features.shape == (terms.num_networks + 1,
                                                terms.adopter_users.size)
