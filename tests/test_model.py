"""Potentials, adoption probability, likelihood, and the analytic gradient."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from adoptnet.config import SynthSpec
from adoptnet.data import AdoptionMatrix, CandidateNetwork, NetworkStack, popularity_counts
from adoptnet.experiments import observable_user_split
from adoptnet.model import (
    EXPONENT_KNEE,
    KNEE_CURVATURE,
    ModelParams,
    TrainingTerms,
    adoption_probability,
    log1mexp,
    log_likelihood,
    log_likelihood_gradient,
    network_potentials,
    objective_derivatives,
    objective_gradient,
    objective_value,
    training_terms,
)
from adoptnet.predict import score_matrix
from adoptnet.synth import generate

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

    def test_caller_arrays_stay_writable_and_detached(self):
        w, s = np.array([0.5, 0.25]), np.array([0.0, 0.75])
        p = ModelParams(net_weights=w, pop_weight=0.0, susceptibility=s)
        w[0] = s[0] = 9.0
        assert p.net_weights.tolist() == [0.5, 0.25]
        assert p.susceptibility.tolist() == [0.0, 0.75]
        assert not p.net_weights.flags.writeable and not p.susceptibility.flags.writeable

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

    @pytest.mark.parametrize("text, key", [
        pytest.param("{}", "'alpha'", id="empty"),
        pytest.param("[0.5]", "JSON object", id="list"),
        pytest.param('{"alpha": [0.5], "alpha_pop": [1], "s": [0.0], "constrained": true}',
                     "'alpha_pop'", id="alpha_pop_list"),
        pytest.param('{"alpha": 0.5, "alpha_pop": 0.0, "s": [0.0], "constrained": true}',
                     "'alpha'", id="alpha_scalar"),
        pytest.param('{"alpha": [0.5], "alpha_pop": 0.0, "s": [true], "constrained": true}',
                     "'s'", id="s_bool"),
        pytest.param('{"alpha": [0.5], "alpha_pop": 0.0, "s": [0.0]}', "'constrained'",
                     id="constrained_missing"),
        pytest.param('{"alpha": [0.5], "alpha_pop": 0.0, "s": [0.0], "constrained": "false"}',
                     "'constrained'", id="constrained_string"),
        pytest.param('{"alpha": [0.5], "alpha_pop": 0.0, "s": [0.0], "constrained": 0}',
                     "'constrained'", id="constrained_int"),
    ])
    def test_from_json_names_the_bad_key(self, text, key):
        with pytest.raises(ValueError, match=key):
            ModelParams.from_json(text)


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
        # scoring runs on the pre-combined weight matrix, summed in network
        # order, so it equals the exposure computed on that matrix exactly
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
            np.testing.assert_array_equal(
                score_matrix(params, stack, x, np.zeros(2)),
                adoption_probability(0.0, network_potentials(combined, x)[0]),
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

    @pytest.mark.parametrize("name", ["term_users", "evidence_users"])
    @pytest.mark.parametrize("users", [[-1], [0, 6], [6]])
    def test_user_out_of_range_rejected(self, name, users):
        stack, adoptions = self.instance()
        with pytest.raises(ValueError, match=f"{name} contains a user id outside 0..5"):
            training_terms(stack, adoptions, np.arange(5), **{name: users})

    def test_term_users_in_range_accepted(self):
        stack, adoptions = self.instance()
        terms = training_terms(stack, adoptions, np.arange(5), term_users=[0, 5])
        np.testing.assert_array_equal(terms.labels, adoptions.installed[[0, 5]])

    @pytest.mark.parametrize("name", ["term_users", "evidence_users"])
    def test_empty_user_list_rejected(self, name):
        stack, adoptions = self.instance()
        with pytest.raises(ValueError, match=f"{name} is empty"):
            training_terms(stack, adoptions, np.arange(5), **{name: []})

    def test_user_lists_checked_before_any_product(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("network_potentials ran before the user check")

        monkeypatch.setattr("adoptnet.model.network_potentials", refuse)
        stack, adoptions = self.instance()
        with pytest.raises(ValueError, match="evidence_users contains a user id"):
            training_terms(stack, adoptions, [0], term_users=[1], evidence_users=[2, 9])

    @pytest.mark.parametrize("users", [[3], [5, 0, 2], [4, 1, 4, 1, 0], np.arange(6)])
    def test_term_users_keep_their_rows_bit_for_bit(self, users):
        # the rows of sorted(set(users)) of every user's terms, in that order
        stack, adoptions = self.instance()
        train, seen = [4, 0, 2], [5, 1, 2, 1]
        full = training_terms(stack, adoptions, train, evidence_users=seen)
        rows = sorted(set(int(u) for u in users))
        got = training_terms(stack, adoptions, train, term_users=users, evidence_users=seen)
        want = TrainingTerms(potentials=full.potentials[:, rows], popularity=full.popularity,
                             labels=full.labels[rows])
        assert got.num_users == len(rows) and got.num_networks == 2
        for f in dataclasses.fields(TrainingTerms):
            np.testing.assert_array_equal(getattr(got, f.name), getattr(want, f.name))
        np.testing.assert_array_equal(
            got.channel_max,
            np.append(full.potentials[:, rows].max(axis=(1, 2)), full.popularity.max()))

    def test_exposure_counts_only_the_evidence_users_adoptions(self):
        # Edge weights are distinct powers of two, so each exposure names the
        # neighbours it counted.  Every user adopts app 0; only the
        # non-evidence user 3 adopts app 1.  Term users 0 and 1 are no
        # evidence users, so neither one's label reaches the other's exposure.
        w = np.zeros((4, 4))
        for (i, j), v in {(0, 1): 1.0, (0, 2): 2.0, (0, 3): 4.0, (1, 2): 8.0,
                          (1, 3): 16.0, (2, 3): 32.0}.items():
            w[i, j] = w[j, i] = v
        stack = NetworkStack(networks=(CandidateNetwork(num_users=4, weights=w),))
        installed = np.array([[1, 0], [1, 0], [1, 0], [1, 1]], dtype=bool)
        adoptions = AdoptionMatrix(num_users=4, num_apps=2, installed=installed)
        terms = training_terms(stack, adoptions, [0, 1], term_users=[0, 1],
                               evidence_users=[2])
        np.testing.assert_array_equal(terms.potentials[0], [[2.0, 0.0], [8.0, 0.0]])
        np.testing.assert_array_equal(terms.labels, [[True, False], [True, False]])
        everyone = training_terms(stack, adoptions, [0, 1])
        np.testing.assert_array_equal(everyone.potentials[0, :2], [[7.0, 4.0], [25.0, 16.0]])


def induced_terms(stack, adoptions, train, users):
    """Oracle: the users' induced subnetworks and adoption rows as a dataset of
    their own, then its every-user terms (the transfer fit's old construction)."""
    idx = np.asarray(users)
    nets = tuple(
        CandidateNetwork(num_users=idx.size, weights=g.weights[np.ix_(idx, idx)],
                         name=g.name, kind=g.kind)
        for g in stack.networks
    )
    rows = AdoptionMatrix(num_users=idx.size, num_apps=adoptions.num_apps,
                          installed=adoptions.installed[idx])
    return training_terms(NetworkStack(networks=nets, popularity=stack.popularity), rows,
                          train)


def masked_terms(stack, adoptions, train, term_users, evidence_users):
    """Oracle: every user's product against the evidence users' adoptions (all
    other rows zeroed), sliced to the term rows (the recovery fit's old one)."""
    seen = np.zeros(adoptions.num_users, dtype=bool)
    seen[evidence_users] = True
    potentials = network_potentials(stack, (adoptions.installed & seen[:, None])[:, train])
    return TrainingTerms(potentials=potentials[:, term_users],
                         popularity=stack.popularity[train],
                         labels=adoptions.installed[term_users][:, train])


def assert_same_terms(got, want, rtol=0.0):
    """Every field equal bit for bit; with ``rtol``, the float fields to within it."""
    for f in dataclasses.fields(TrainingTerms):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape, f.name
        if rtol and a.dtype == float:
            np.testing.assert_allclose(a, b, rtol=rtol, atol=0.0, err_msg=f.name)
        else:
            assert a.tobytes() == b.tobytes(), f.name


SUBSET_SPECS = [
    SynthSpec(num_users=60, num_context_users=30, num_apps=40, seed=1),
    SynthSpec(num_users=150, num_context_users=75, num_apps=80, num_networks=2,
              edge_density=0.05, weight_dist="unit", planted_net_weights=(0.3, 0.1), seed=2),
    SynthSpec(num_users=420, num_context_users=210, num_apps=60, seed=3),
]


@pytest.mark.parametrize("spec", SUBSET_SPECS, ids=lambda s: f"{s.num_users}x{s.num_apps}")
class TestUserSubsetOracles:
    """The user-list path equals the constructions it replaced, bit for bit."""

    def test_observable_terms_equal_the_induced_subnetwork_terms(self, spec):
        stack, teacher = generate(spec)
        adoptions = teacher.adoptions
        observable, _ = observable_user_split(np.arange(spec.num_users), 0.7, spec.seed)
        stack = NetworkStack(networks=stack.networks,
                             popularity=popularity_counts(adoptions, observable))
        train = np.sort(np.random.default_rng(spec.seed).permutation(spec.num_apps)[::2])
        got = training_terms(stack, adoptions, train, term_users=observable,
                             evidence_users=observable)
        assert got.num_users == observable.size
        assert_same_terms(got, induced_terms(stack, adoptions, train, observable))

    def test_recovery_terms_equal_the_masked_product_rows(self, spec):
        # The oracle also sums the zeros of the non-evidence users, and BLAS
        # may group a longer sum differently: unit weights sum exactly in any
        # order, other weights agree to rounding (at 420 users x 20 apps, 3
        # cells differ by 4.4e-16).
        stack, teacher = generate(spec)
        adoptions, target, context = teacher.adoptions, teacher.target_users, teacher.context_users
        stack = NetworkStack(networks=stack.networks,
                             popularity=popularity_counts(adoptions, context))
        train = np.arange(1, spec.num_apps, 3)
        got = training_terms(stack, adoptions, train, term_users=target,
                             evidence_users=context)
        rtol = 0.0 if spec.weight_dist == "unit" else 1e-14
        assert_same_terms(got, masked_terms(stack, adoptions, train, target, context), rtol)


class TestDerivedTerms:
    """Variant terms derived with dataclasses.replace equal terms built afresh."""

    @staticmethod
    def assert_terms_equal(got, want):
        for f in dataclasses.fields(TrainingTerms):
            assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name

    @pytest.mark.parametrize("seed", range(4))
    def test_no_popularity_and_single_network_terms(self, seed):
        rng = np.random.default_rng(seed)
        stack, adoptions, _ = random_instance(rng, num_networks=3)
        train = np.sort(rng.permutation(adoptions.num_apps)[: adoptions.num_apps // 2 + 1])
        terms = training_terms(stack, adoptions, train)
        no_pop = np.zeros(train.size)
        self.assert_terms_equal(
            dataclasses.replace(terms, popularity=no_pop),
            training_terms(NetworkStack(networks=stack.networks), adoptions, train),
        )
        for m, g in enumerate(stack.networks):
            single = dataclasses.replace(terms, potentials=terms.potentials[m:m + 1],
                                         popularity=no_pop)
            self.assert_terms_equal(
                single, training_terms(NetworkStack(networks=(g,)), adoptions, train)
            )



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


# -- exact Hessian and knee term ---------------------------------------------
# The package's Newton model (objective_derivatives) came from these two
# functions, each of which recomputed the adopter exponents and summed the
# cells per user with one np.bincount per channel.  They stay here as
# oracles: TestHessian checks the first against differences of the gradient,
# and TestObjectiveDerivatives checks the package's one-pass model against
# both.


def objective_hessian(terms, s, w, w_pop):
    """Negated Hessian of objective_value in arrowhead blocks (D, B, C).

    With parameters ordered (susceptibility, net weights, pop weight) the
    negated Hessian is [[diag(D), B], [B.T, C]].  Only adopter cells above
    EXPONENT_KNEE add curvature, each exp(z)/expm1(z)^2 times the outer
    product of its feature vector (1 for its user, then its potentials and
    its app's popularity).
    """
    z = s[terms.adopter_users] + np.append(w, w_pop) @ terms.adopter_features
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


def knee_curvature(terms, s, w, w_pop):
    """KNEE_CURVATURE times each user's count of adopter cells in [0, knee], shape (U,).

    Such a cell lies on the linear piece of the objective, so it adds nothing
    to objective_hessian, yet any step that lifts it past EXPONENT_KNEE
    meets a curvature of KNEE_CURVATURE.  Cells below zero get nothing.
    """
    z = s[terms.adopter_users] + np.append(w, w_pop) @ terms.adopter_features
    at_knee = (z >= 0.0) & (z <= EXPONENT_KNEE)
    counts = np.bincount(terms.adopter_users[at_knee], minlength=terms.num_users)
    return KNEE_CURVATURE * counts


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
            if term_users is not None:
                params = dataclasses.replace(
                    params, susceptibility=params.susceptibility[np.sort(term_users)])
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


def complete_stack(num_users):
    """One network joining every pair of users with weight 1."""
    w = np.ones((num_users, num_users)) - np.eye(num_users)
    return NetworkStack(networks=(CandidateNetwork(num_users=num_users, weights=w),))


class TestKneeCurvature:
    def test_constant_is_the_curvature_at_the_knee(self):
        # objective_hessian's cell curvature exp(z)/expm1(z)^2, just above the knee
        z = EXPONENT_KNEE * (1.0 + 1e-12)
        assert KNEE_CURVATURE == pytest.approx(math.exp(z) / math.expm1(z) ** 2,
                                               rel=1e-9)

    def test_zero_above_the_knee(self):
        # random_instance keeps every exponent at least 0.05
        rng = np.random.default_rng(44)
        for _ in range(6):
            stack, adoptions, params = random_instance(rng)
            terms = training_terms(stack, adoptions, np.arange(adoptions.num_apps))
            args = (params.susceptibility, params.net_weights, params.pop_weight)
            knee = knee_curvature(terms, *args)
            diag = objective_hessian(terms, *args)[0]
            assert knee.shape == diag.shape and not knee.any()
            np.testing.assert_array_equal(diag + knee, diag)

    def test_zero_below_zero(self):
        # a negative weight on a complete network: every app has at least two
        # adopters, so every adopter cell has potential >= 1 and z <= -0.5
        U, A = 6, 4
        installed = np.zeros((U, A), dtype=bool)
        installed[:3, :] = True
        installed[3:, 1] = True
        adoptions = AdoptionMatrix(num_users=U, num_apps=A, installed=installed)
        terms = training_terms(complete_stack(U), adoptions, np.arange(A))
        s, w = np.full(U, 0.5), np.array([-1.0])
        z = s[terms.adopter_users] + w @ terms.adopter_features[:1]
        assert z.max() <= -0.5
        knee = knee_curvature(terms, s, w, 0.0)
        diag = objective_hessian(terms, s, w, 0.0)[0]
        assert not knee.any()
        np.testing.assert_array_equal(diag + knee, diag)

    @pytest.mark.parametrize("subset", [False, True])
    def test_counts_each_users_cells_in_the_knee_band(self, subset):
        rng = np.random.default_rng(45)
        stack, adoptions, _ = random_instance(rng, num_users=30, num_networks=2,
                                              num_apps=25)
        U, A = 30, 25
        term_users = np.sort(rng.choice(U, 18, replace=False)) if subset else None
        terms = training_terms(stack, adoptions, np.arange(A), term_users=term_users)
        # exponents spread around [0, knee], both ends included
        s = rng.choice([0.0, 0.5, 1.0, 2.0], size=terms.num_users) * EXPONENT_KNEE
        w = rng.uniform(0.0, 1e-4, 2)
        w_pop = 1e-5
        z = (s[:, None] + np.tensordot(w, terms.potentials, axes=1)
             + w_pop * terms.popularity)
        band = terms.labels & (z >= 0.0) & (z <= EXPONENT_KNEE)
        counts = band.sum(axis=1)
        assert counts.any() and (terms.labels.sum(axis=1) > counts).any()
        knee = knee_curvature(terms, s, w, w_pop)
        np.testing.assert_array_equal(knee, KNEE_CURVATURE * counts)

    def test_user_with_only_zero_exponent_cells_gets_curvature(self):
        # one adopter cell at z = 0 lies on the linear piece: no exact curvature
        stack = edgeless_stack(2)
        installed = np.array([[True, False, False], [True, True, False]])
        adoptions = AdoptionMatrix(num_users=2, num_apps=3, installed=installed)
        terms = training_terms(stack, adoptions, np.arange(3))
        s = np.array([0.0, 0.5])
        diag = objective_hessian(terms, s, np.zeros(1), 0.0)[0]
        knee = knee_curvature(terms, s, np.zeros(1), 0.0)
        assert diag[0] == 0.0 and diag[1] > 0.0
        assert knee[0] == KNEE_CURVATURE > 0.0
        assert knee[1] == 0.0


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

    def test_term_users_exclude_outcomes(self):
        rng = np.random.default_rng(77)
        stack, adoptions, params = random_instance(rng, num_users=8, num_networks=2,
                                                   num_apps=9)
        train = np.arange(9)
        half, seen = np.arange(4), [4, 5, 7]
        params = dataclasses.replace(params, susceptibility=params.susceptibility[half])
        # flipping the labels of a user outside term_users and evidence_users
        # must not change the value
        flipped = adoptions.installed.copy()
        flipped[6, :] = ~flipped[6, :]
        adoptions2 = AdoptionMatrix(num_users=8, num_apps=9, installed=flipped)
        terms2 = training_terms(stack, adoptions2, train, term_users=half,
                                evidence_users=seen)
        terms1 = training_terms(stack, adoptions, train, term_users=half,
                                evidence_users=seen)
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
        # the users outside term_users have no susceptibility to differentiate
        assert g1[0].shape == (4,)


# -- full-tensor reference --------------------------------------------------
# The objective as it was written before TrainingTerms gathered the adopter
# cells: every call passes over the whole (M, U, T) potential tensor.


def reference_exponents(terms, s, w, w_pop):
    return (s[:, None] + np.tensordot(w, terms.potentials, axes=1)
            + w_pop * terms.popularity[None, :])


def reference_value(terms, s, w, w_pop):
    z = reference_exponents(terms, s, w, w_pop)
    z_adopt = z[terms.labels]
    z_knee = np.maximum(z_adopt, EXPONENT_KNEE)
    adopter_part = float(log1mexp(z_knee).sum())
    adopter_part += float((z_adopt - z_knee).sum()) / math.expm1(EXPONENT_KNEE)
    penalty = float(np.maximum(z, 0.0).sum()) - float(np.maximum(z_adopt, 0.0).sum())
    return adopter_part - penalty


def reference_gradient(terms, s, w, w_pop):
    z = reference_exponents(terms, s, w, w_pop)
    coef = np.where(terms.labels, 0.0, -1.0)
    idx = np.nonzero(terms.labels)
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
    for u, t in zip(*np.nonzero(terms.labels)):
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
    s = rng.uniform(0.0, 1.0, terms.num_users)
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
            knee_cells += int(np.count_nonzero(z[terms.labels] <= EXPONENT_KNEE))
            corrected += int(np.count_nonzero(z[~terms.labels] < 0))
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
        passive = ~terms.labels
        np.testing.assert_array_equal(terms.linear_susceptibility, passive.sum(axis=1))
        expected = [terms.potentials[m][passive].sum() for m in range(terms.num_networks)]
        expected.append(np.broadcast_to(terms.popularity, passive.shape)[passive].sum())
        assert close(terms.linear_weights, expected, rel=1e-14)
        assert terms.adopter_features.shape == (terms.num_networks + 1,
                                                terms.adopter_users.size)


def derivative_instance(rng):
    """oracle_instance plus users without adopter cells, relaxed signs half the time.

    Users 2 and 3 (the rows, when a term_users subset is drawn) adopt nothing.
    """
    negative = bool(rng.random() < 0.5)
    terms, s, w, w_pop = oracle_instance(rng, negative)
    labels = terms.labels.copy()
    labels[2:4] = False
    terms = TrainingTerms(potentials=terms.potentials, popularity=terms.popularity,
                          labels=labels)
    return terms, s, w, w_pop


class TestObjectiveDerivatives:
    """The one-pass gradient and Newton model against the per-function oracles."""

    def test_matches_gradient_hessian_and_knee_oracles(self):
        rng = np.random.default_rng(97)
        knee_cells = below_zero = without_cells = 0
        for _ in range(200):
            terms, s, w, w_pop = derivative_instance(rng)
            z = s[terms.adopter_users] + np.append(w, w_pop) @ terms.adopter_features
            knee_cells += int(np.count_nonzero((z >= 0.0) & (z <= EXPONENT_KNEE)))
            below_zero += int(np.count_nonzero(z < 0.0))
            without_cells += int(np.count_nonzero(
                np.bincount(terms.adopter_users, minlength=terms.num_users) == 0))
            gradient, (diag, coupling, dense) = objective_derivatives(terms, s, w, w_pop)
            for got, want in zip(gradient, reference_gradient(terms, s, w, w_pop)):
                assert close(got, want)
            want_diag, want_coupling, want_dense = objective_hessian(terms, s, w, w_pop)
            assert close(diag, want_diag + knee_curvature(terms, s, w, w_pop))
            assert close(coupling, want_coupling)
            assert close(dense, want_dense)
            assert diag.shape == (terms.num_users,)
            assert coupling.shape == (terms.num_users, terms.num_networks + 1)
            np.testing.assert_array_equal(dense, dense.T)
        assert min(knee_cells, below_zero, without_cells) > 0

    def test_users_without_adopter_cells_get_zero_rows(self):
        # reduceat would hand a user with no run the next run's first cell
        rng = np.random.default_rng(99)
        stack, adoptions, params = random_instance(rng, num_users=8, num_networks=2,
                                                   num_apps=6)
        installed = adoptions.installed.copy()
        installed[[0, 3, 7]] = False
        installed[[1, 2, 4, 5, 6], 0] = True
        adoptions = AdoptionMatrix(num_users=8, num_apps=6, installed=installed)
        terms = training_terms(stack, adoptions, np.arange(6))
        args = (params.susceptibility, params.net_weights, params.pop_weight)
        _, (diag, coupling, _) = objective_derivatives(terms, *args)
        assert not diag[[0, 3, 7]].any() and not coupling[[0, 3, 7]].any()
        assert diag[[1, 2, 4, 5, 6]].all()

    def test_knee_term_is_an_exact_count(self):
        # every adopter cell at z = 0: D is KNEE_CURVATURE times the count, exactly
        rng = np.random.default_rng(100)
        stack, adoptions, _ = random_instance(rng, num_users=9, num_networks=2, num_apps=7)
        terms = training_terms(stack, adoptions, np.arange(7))
        _, (diag, coupling, dense) = objective_derivatives(
            terms, np.zeros(9), np.zeros(2), 0.0)
        counts = np.bincount(terms.adopter_users, minlength=9)
        np.testing.assert_array_equal(diag, KNEE_CURVATURE * counts)
        assert not coupling.any() and not dense.any()

    def test_constrained_pass_never_reads_the_tensor(self):
        rng = np.random.default_rng(101)
        terms, s, w, w_pop = oracle_instance(rng, negative=False)
        before = objective_derivatives(terms, s, w, w_pop)
        terms.potentials[...] = np.nan
        terms.popularity[...] = np.nan
        terms.labels[...] = ~terms.labels
        after = objective_derivatives(terms, s, w, w_pop)
        for got, want in zip(after[0] + after[1], before[0] + before[1]):
            np.testing.assert_array_equal(got, want)

    def test_adopter_features_are_c_contiguous(self):
        rng = np.random.default_rng(102)
        terms, _, _, _ = oracle_instance(rng, negative=False)
        assert terms.adopter_features.flags.c_contiguous
