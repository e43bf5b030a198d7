"""Synthetic teacher data: determinism, sampling statistics, planted recovery."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from adoptnet.data import popularity_counts
from adoptnet.model import ModelParams
from adoptnet import synth
from adoptnet.predict import score_matrix
from adoptnet.solver import fit_mle
from adoptnet.synth import (
    RecoveryError,
    SynthSpec,
    TeacherData,
    gen_networks,
    generate,
    planted_params,
    recovery_error,
    recovery_fit,
    sample_adoptions_teacher,
)

SMALL = SynthSpec(
    num_users=60,
    num_context_users=30,
    num_apps=40,
    num_networks=2,
    edge_density=(0.08, 0.12),
    planted_net_weights=(0.6, 0.3),
    planted_pop_weight=0.01,
    pop_base_max=10.0,
    susceptibility_rate=20.0,
    seed=7,
)


class TestSynthSpec:
    def test_scalar_density_broadcasts(self):
        spec = dataclasses.replace(SMALL, edge_density=0.05)
        assert spec.edge_density == (0.05, 0.05)

    def test_density_count_mismatch(self):
        with pytest.raises(ValueError, match="edge_density"):
            dataclasses.replace(SMALL, edge_density=(0.1, 0.1, 0.1))

    def test_context_bounds(self):
        with pytest.raises(ValueError, match="context"):
            dataclasses.replace(SMALL, num_context_users=60)
        with pytest.raises(ValueError, match="context"):
            dataclasses.replace(SMALL, num_context_users=0)

    def test_weight_count_mismatch(self):
        with pytest.raises(ValueError, match="planted_net_weights"):
            dataclasses.replace(SMALL, planted_net_weights=(0.5,))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            dataclasses.replace(SMALL, planted_net_weights=(0.5, -0.1))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["weight_max", "planted_net_weights",
                                      "planted_pop_weight", "susceptibility_rate",
                                      "pop_base_max"])
    def test_non_finite_settings_rejected(self, name, value):
        bad = (value, 0.3) if name == "planted_net_weights" else value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            dataclasses.replace(SMALL, **{name: bad})

    def test_partition_properties(self):
        assert SMALL.context_users.tolist() == list(range(30))
        assert SMALL.target_users.tolist() == list(range(30, 60))


class TestGenNetworks:
    def test_deterministic(self):
        a = gen_networks(SMALL)
        b = gen_networks(SMALL)
        for ga, gb in zip(a.networks, b.networks):
            np.testing.assert_array_equal(ga.weights, gb.weights)

    def test_seed_changes_graphs(self):
        a = gen_networks(SMALL)
        b = gen_networks(dataclasses.replace(SMALL, seed=8))
        assert any(
            not np.array_equal(ga.weights, gb.weights)
            for ga, gb in zip(a.networks, b.networks)
        )

    def test_edge_counts_within_binomial_bounds(self):
        spec = dataclasses.replace(SMALL, num_users=200, edge_density=(0.05, 0.1))
        stack = gen_networks(spec)
        pairs = 200 * 199 // 2
        for g, p in zip(stack.networks, spec.edge_density):
            std = math.sqrt(pairs * p * (1 - p))
            num_edges = np.count_nonzero(np.triu(g.weights, 1))
            assert abs(num_edges - pairs * p) < 4 * std

    def test_unit_weights_are_binary(self):
        spec = dataclasses.replace(SMALL, weight_dist="unit")
        stack = gen_networks(spec)
        for g in stack.networks:
            assert g.kind == "binary"
            assert set(np.unique(g.weights).tolist()) <= {0.0, 1.0}

    def test_uniform_weights_bounded(self):
        spec = dataclasses.replace(SMALL, weight_max=0.5)
        stack = gen_networks(spec)
        for g in stack.networks:
            assert g.kind == "weighted"
            assert g.weights.max() <= 0.5


class TestPlantedParams:
    def test_weights_follow_spec(self):
        p = planted_params(SMALL)
        assert p.net_weights.tolist() == [0.6, 0.3]
        assert p.pop_weight == 0.01
        assert p.constrained

    def test_susceptibility_exponential_moments(self):
        spec = dataclasses.replace(SMALL, num_users=4000, num_context_users=2000)
        s = planted_params(spec).susceptibility
        mean = 1.0 / spec.susceptibility_rate
        assert np.all(s >= 0.0)
        # mean and median of Exp(rate), each within 4 standard errors
        assert abs(s.mean() - mean) < 4 * mean / math.sqrt(s.size)
        below = float(np.mean(s < math.log(2.0) * mean))
        assert abs(below - 0.5) < 4 * 0.5 / math.sqrt(s.size)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            planted_params(SMALL).susceptibility,
            planted_params(SMALL).susceptibility,
        )


class TestTeacherSampling:
    def test_deterministic(self):
        stack = gen_networks(SMALL)
        params = planted_params(SMALL)
        a = sample_adoptions_teacher(stack, params, SMALL)
        b = sample_adoptions_teacher(stack, params, SMALL)
        np.testing.assert_array_equal(a.adoptions.installed, b.adoptions.installed)
        np.testing.assert_array_equal(
            a.adoptions.install_times, b.adoptions.install_times
        )

    def test_per_app_seeds_are_stable_under_extension(self):
        # adding apps must not disturb the ones already generated
        stack = gen_networks(SMALL)
        params = planted_params(SMALL)
        short = sample_adoptions_teacher(stack, params, SMALL)
        longer_spec = dataclasses.replace(SMALL, num_apps=SMALL.num_apps + 25)
        longer = sample_adoptions_teacher(stack, params, longer_spec)
        np.testing.assert_array_equal(
            longer.adoptions.installed[:, : SMALL.num_apps],
            short.adoptions.installed,
        )

    def test_timestamps_rank_context_before_target(self):
        _, teacher = generate(SMALL)
        times = teacher.adoptions.install_times
        installed = teacher.adoptions.installed
        assert np.isfinite(times[installed]).all()
        ctx, tgt = teacher.context_users, teacher.target_users
        for a in range(SMALL.num_apps):
            adopters = np.flatnonzero(installed[:, a])
            stamps = times[adopters, a]
            # ranks form a permutation of 0..n-1
            assert sorted(stamps.tolist()) == list(range(adopters.size))
            ctx_stamps = times[ctx, a][installed[ctx, a]]
            tgt_stamps = times[tgt, a][installed[tgt, a]]
            if ctx_stamps.size and tgt_stamps.size:
                assert ctx_stamps.max() < tgt_stamps.min()

    def test_dimension_mismatch_rejected(self):
        stack = gen_networks(SMALL)
        params = planted_params(dataclasses.replace(SMALL, num_users=61))
        with pytest.raises(ValueError, match="dimensions"):
            sample_adoptions_teacher(stack, params, SMALL)

    def test_target_frequencies_match_model_probabilities(self):
        # aggregate target adoptions follow a Poisson-binomial with the
        # probabilities that score_matrix gives the target rows, conditioned
        # on the realized context adopters; 4 sigma bound
        spec = dataclasses.replace(SMALL, num_apps=800, seed=3)
        stack = gen_networks(spec)
        params = planted_params(spec)
        teacher = sample_adoptions_teacher(stack, params, spec)
        context = np.zeros(spec.num_users, dtype=bool)
        context[teacher.context_users] = True
        evidence = teacher.adoptions.installed & context[:, None]
        popularity = popularity_counts(teacher.adoptions, teacher.context_users)
        probs = score_matrix(params, stack, evidence, popularity)[teacher.target_users]
        observed = float(teacher.adoptions.installed[teacher.target_users, :].sum())
        expected = float(probs.sum())
        std = math.sqrt(float((probs * (1 - probs)).sum()))
        assert abs(observed - expected) < 4 * std

    def test_context_cells_do_not_depend_on_networks(self):
        # stage one draws from susceptibility and popularity alone
        stack_a = gen_networks(SMALL)
        dense = dataclasses.replace(SMALL, edge_density=(0.5, 0.5))
        stack_b = gen_networks(dense)
        params = planted_params(SMALL)
        a = sample_adoptions_teacher(stack_a, params, SMALL)
        b = sample_adoptions_teacher(stack_b, params, dense)
        ctx = SMALL.context_users
        np.testing.assert_array_equal(
            a.adoptions.installed[ctx, :], b.adoptions.installed[ctx, :]
        )


class TestRecoveryError:
    def params(self, w, pop, s):
        return ModelParams(net_weights=np.asarray(w, dtype=float), pop_weight=pop,
                           susceptibility=np.asarray(s, dtype=float))

    def test_exact_recovery_is_zero_error(self):
        p = self.params([0.5, 0.2], 0.1, [0.3, 0.4])
        err = recovery_error(p, p)
        assert err.rel_l2_weights == 0.0
        assert err.cosine_weights == pytest.approx(1.0, abs=1e-12)
        assert err.susceptibility_rmse == 0.0

    def test_doubled_weights(self):
        p = self.params([0.5, 0.2], 0.1, [0.0, 0.0])
        q = self.params([1.0, 0.4], 0.2, [0.0, 0.0])
        err = recovery_error(p, q)
        assert err.rel_l2_weights == pytest.approx(1.0, abs=1e-12)
        assert err.cosine_weights == pytest.approx(1.0, abs=1e-12)

    def test_zero_recovery_convention(self):
        p = self.params([0.5], 0.0, [0.0])
        q = self.params([0.0], 0.0, [0.0])
        err = recovery_error(p, q)
        assert err.rel_l2_weights == 1.0
        assert err.cosine_weights == 0.0

    def test_all_zero_planted_rejected(self):
        p = self.params([0.0], 0.0, [0.0])
        with pytest.raises(ValueError, match="zero"):
            recovery_error(p, p)

    def test_target_users_slice(self):
        p = self.params([0.5], 0.0, [0.0, 0.0])
        q = self.params([0.5], 0.0, [9.0, 0.0])
        assert recovery_error(p, q, target_users=[1]).susceptibility_rmse == 0.0
        assert recovery_error(p, q, target_users=[0]).susceptibility_rmse == 9.0

    def test_dimension_mismatch(self):
        p = self.params([0.5], 0.0, [0.0])
        q = self.params([0.5, 0.1], 0.0, [0.0])
        with pytest.raises(ValueError, match="mismatch"):
            recovery_error(p, q)

    def test_to_dict_keys(self):
        err = RecoveryError(rel_l2_weights=0.1, cosine_weights=0.9,
                            susceptibility_rmse=0.05)
        assert set(err.to_dict()) == {
            "rel_l2_weights", "cosine_weights", "susceptibility_rmse"}


class TestRecoveryFit:
    def test_recovers_planted_weights_on_moderate_instance(self):
        spec = SynthSpec(
            num_users=160,
            num_context_users=80,
            num_apps=200,
            num_networks=2,
            edge_density=(0.03, 0.05),
            planted_net_weights=(0.5, 0.25),
            planted_pop_weight=0.008,
            pop_base_max=12.0,
            susceptibility_rate=25.0,
            seed=11,
        )
        stack, teacher = generate(spec)
        recovered, res = recovery_fit(stack, teacher)
        assert res.converged
        err = recovery_error(teacher.params, recovered,
                             target_users=teacher.target_users)
        assert err.rel_l2_weights < 0.35
        assert err.cosine_weights > 0.9

    def test_context_susceptibility_pinned_at_zero(self):
        stack, teacher = generate(SMALL)
        recovered, _ = recovery_fit(stack, teacher)
        assert not recovered.susceptibility[teacher.context_users].any()

    def test_target_susceptibility_scattered_back(self, monkeypatch):
        # the fit covers the target rows alone; the result has one entry per user
        fitted = []

        def capture(terms, *, cfg=None):
            fitted.append(fit_mle(terms, cfg=cfg))
            return fitted[-1]

        monkeypatch.setattr(synth, "fit_mle", capture)
        stack, teacher = generate(SMALL)
        recovered, res = recovery_fit(stack, teacher)
        (params, result), = fitted
        assert result is res
        assert params.susceptibility.shape == (teacher.target_users.size,)
        assert recovered.susceptibility.shape == (SMALL.num_users,)
        np.testing.assert_array_equal(
            recovered.susceptibility[np.sort(teacher.target_users)], params.susceptibility)
        assert not recovered.susceptibility[teacher.context_users].any()
        np.testing.assert_array_equal(recovered.net_weights, params.net_weights)
        assert recovered.pop_weight == params.pop_weight

    def test_target_to_target_edges_carry_no_evidence(self):
        # exposure comes from context adopters only, so edges inside the
        # target group must be invisible to the fit
        from adoptnet.data import CandidateNetwork, NetworkStack

        stack, teacher = generate(SMALL)
        tgt = teacher.target_users
        rng = np.random.default_rng(99)
        poisoned = []
        for g in stack.networks:
            w = g.weights.copy()
            block = np.triu(rng.random((tgt.size, tgt.size)), k=1)
            w[np.ix_(tgt, tgt)] += block + block.T
            poisoned.append(CandidateNetwork(num_users=g.num_users, weights=w,
                                             name=g.name))
        base, _ = recovery_fit(stack, teacher)
        again, _ = recovery_fit(NetworkStack(networks=tuple(poisoned)), teacher)
        np.testing.assert_array_equal(base.net_weights, again.net_weights)
        assert base.pop_weight == again.pop_weight
        np.testing.assert_array_equal(base.susceptibility, again.susceptibility)
