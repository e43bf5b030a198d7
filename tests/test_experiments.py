"""Protocol plumbing: split laws, leak guards, aggregation, reproducibility."""
from __future__ import annotations

import dataclasses
import weakref

import numpy as np
import pytest

from adoptnet import experiments as exp_mod
from adoptnet import model as model_mod
from adoptnet import solver as solver_mod
from adoptnet.config import FIT_VARIANTS, PROTOCOLS
from adoptnet.data import AdoptionMatrix, CandidateNetwork, NetworkStack, filter_min_users
from adoptnet.experiments import (
    ABLATION_CONFIGS,
    Dataset,
    ExperimentSpec,
    LeakError,
    MetricReport,
    RunSeries,
    _check_disjoint,
    fraction_split,
    future_split,
    kfold_apps,
    low_activity_subset,
    observable_user_split,
    round_half_up,
    run_ablation,
    run_comparison,
    run_experiment,
    run_future,
    run_transfer,
)
from adoptnet.model import TrainingTerms, adoption_probability, training_terms
from adoptnet.predict import score_matrix
from adoptnet.solver import FitConfig, fit_mle
from adoptnet.synth import SynthSpec, generate
from test_solver import make_instance


def tiny_dataset(seed=5, num_apps=30):
    spec = SynthSpec(
        num_users=40,
        num_context_users=20,
        num_apps=num_apps,
        num_networks=2,
        edge_density=(0.1, 0.15),
        planted_net_weights=(0.6, 0.3),
        planted_pop_weight=0.02,
        pop_base_max=8.0,
        susceptibility_rate=12.0,
        seed=seed,
    )
    stack, teacher = generate(spec)
    return Dataset(networks=stack, adoptions=teacher.adoptions)


class TestRoundHalfUp:
    def test_half_goes_up(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(1.5) == 2
        assert round_half_up(2.5) == 3
        assert round_half_up(27.5) == 28

    def test_plain_rounding(self):
        assert round_half_up(34.6) == 35
        assert round_half_up(34.4) == 34
        assert round_half_up(0.0) == 0


class TestKFold:
    def test_partition_laws(self):
        ids = np.arange(23)
        folds = kfold_apps(ids, k=5, seed=3)
        assert len(folds) == 5
        sizes = []
        for train, test in folds:
            assert np.intersect1d(train, test).size == 0
            together = np.sort(np.concatenate([train, test]))
            np.testing.assert_array_equal(together, ids)
            sizes.append(test.size)
        assert sum(sizes) == 23
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic_and_seed_sensitive(self):
        a = kfold_apps(np.arange(20), k=4, seed=1)
        b = kfold_apps(np.arange(20), k=4, seed=1)
        c = kfold_apps(np.arange(20), k=4, seed=2)
        for (ta, sa), (tb, sb) in zip(a, b):
            np.testing.assert_array_equal(ta, tb)
            np.testing.assert_array_equal(sa, sb)
        assert any(
            not np.array_equal(sa, sc) for (_, sa), (_, sc) in zip(a, c)
        )

    def test_too_many_folds(self):
        with pytest.raises(ValueError, match="folds"):
            kfold_apps(np.arange(3), k=4)
        with pytest.raises(ValueError, match="folds"):
            kfold_apps(np.arange(3), k=1)


class TestFractionSplit:
    def test_sizes_round_half_up(self):
        train, test = fraction_split(np.arange(173), 0.2, seed=0)
        assert train.size == 35  # round_half_up(34.6)
        assert test.size == 138
        assert np.intersect1d(train, test).size == 0

    def test_exact_half_of_odd(self):
        train, test = fraction_split(np.arange(55), 0.5, seed=0)
        assert train.size == 28
        assert test.size == 27

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fraction_split(np.arange(10), 0.01, seed=0)
        with pytest.raises(ValueError, match="degenerate"):
            fraction_split(np.arange(10), 0.99, seed=0)


class TestFutureSplit:
    def adoptions_with_times(self):
        installed = np.zeros((5, 2), dtype=bool)
        times = np.full((5, 2), np.nan)
        installed[:, 0] = True
        times[:, 0] = [3.0, 1.0, 2.0, 0.0, 4.0]
        installed[[0, 1], 1] = True
        times[[0, 1], 1] = [5.0, 5.0]  # tie broken by id
        return AdoptionMatrix(num_users=5, num_apps=2, installed=installed,
                              install_times=times)

    def test_earliest_ceil_half(self):
        halves = future_split(self.adoptions_with_times())
        g1, g2 = halves[0]
        assert g1.tolist() == [3, 1, 2]
        assert g2.tolist() == [0, 4]

    def test_tie_breaks_by_user_id(self):
        g1, g2 = future_split(self.adoptions_with_times())[1]
        assert g1.tolist() == [0]
        assert g2.tolist() == [1]

    def test_missing_timestamps_rejected(self):
        installed = np.ones((2, 1), dtype=bool)
        adoptions = AdoptionMatrix(num_users=2, num_apps=1, installed=installed)
        with pytest.raises(ValueError, match="timestamps"):
            future_split(adoptions)

    def test_scope_restriction(self):
        halves = future_split(self.adoptions_with_times(), apps=[1])
        assert list(halves) == [1]


class TestObservableSplit:
    def test_sizes(self):
        obs, hidden = observable_user_split(np.arange(55), 0.5, seed=0)
        assert obs.size == 28 and hidden.size == 27
        assert np.intersect1d(obs, hidden).size == 0
        together = np.sort(np.concatenate([obs, hidden]))
        np.testing.assert_array_equal(together, np.arange(55))

    def test_deterministic(self):
        a = observable_user_split(np.arange(20), 0.5, seed=9)
        b = observable_user_split(np.arange(20), 0.5, seed=9)
        np.testing.assert_array_equal(a[0], b[0])


class TestLowActivity:
    def test_picks_fewest_installs(self):
        installed = np.zeros((4, 6), dtype=bool)
        installed[0, :3] = True   # 3 installs
        installed[1, :1] = True   # 1
        installed[2, :2] = True   # 2
        installed[3, :5] = True   # 5
        adoptions = AdoptionMatrix(num_users=4, num_apps=6, installed=installed)
        assert low_activity_subset(adoptions).tolist() == [1, 2]

    def test_ties_go_to_lower_ids(self):
        installed = np.zeros((4, 4), dtype=bool)
        installed[0, :2] = True
        installed[1, :2] = True
        installed[2, :1] = True
        adoptions = AdoptionMatrix(num_users=4, num_apps=4, installed=installed)
        # counts are [2, 2, 1, 0]: halves to {3, 2}
        assert low_activity_subset(adoptions).tolist() == [2, 3]
        installed2 = np.zeros((4, 4), dtype=bool)
        installed2[2, :1] = True
        adoptions2 = AdoptionMatrix(num_users=4, num_apps=4, installed=installed2)
        # counts [0, 0, 1, 0]: tie among {0, 1, 3} resolved to the lowest ids
        assert low_activity_subset(adoptions2).tolist() == [0, 1]


class TestSpecValidation:
    def test_unknown_protocol(self):
        with pytest.raises(ValueError, match="protocol"):
            ExperimentSpec(protocol="oracle")

    def test_fraction_and_folds_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            ExperimentSpec(protocol="ablation", train_fraction=0.5, folds=3)

    def test_default_is_five_folds(self):
        spec = ExperimentSpec(protocol="ablation")
        assert spec.folds == 5 and spec.train_fraction is None

    def test_bounds(self):
        with pytest.raises(ValueError):
            ExperimentSpec(protocol="ablation", train_fraction=1.0)
        with pytest.raises(ValueError):
            ExperimentSpec(protocol="ablation", folds=1)
        with pytest.raises(ValueError):
            ExperimentSpec(protocol="ablation", repeats=0)
        with pytest.raises(ValueError):
            ExperimentSpec(protocol="ablation", user_subset="heavy")
        with pytest.raises(ValueError):
            ExperimentSpec(protocol="transfer", observable_fraction=1.0)
        with pytest.raises(ValueError):
            ExperimentSpec(protocol="ablation", mp_k=0)

    @pytest.mark.parametrize("variant", FIT_VARIANTS[1:])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_fit_variant_is_not_a_protocol_setting(self, protocol, variant):
        # a series named full, or single_*, must be the fit its name says
        with pytest.raises(ValueError, match=rf"fit\.variant '{variant}' is a train setting:"
                                             " each protocol fits the variants its series name"):
            ExperimentSpec(protocol=protocol, fit=FitConfig(variant=variant))


class TestDataset:
    def test_user_count_mismatch(self):
        g = CandidateNetwork(num_users=3, weights=np.zeros((3, 3)))
        adoptions = AdoptionMatrix(num_users=4, num_apps=1,
                                   installed=np.zeros((4, 1), dtype=bool))
        with pytest.raises(ValueError, match="user count"):
            Dataset(networks=NetworkStack(networks=(g,)), adoptions=adoptions)

    def test_rejects_a_stack_that_carries_popularity(self):
        # every protocol counts popularity from the adoptions it lets a fit
        # see; a given vector would count the transfer protocol's hidden users
        data = tiny_dataset()
        counts = np.ones(data.adoptions.num_apps)
        with pytest.raises(ValueError, match="popularity is counted from its adoptions"):
            Dataset(networks=NetworkStack(networks=data.networks.networks, popularity=counts),
                    adoptions=data.adoptions)

    def test_fingerprint_tracks_content(self):
        data = tiny_dataset()
        assert data.fingerprint() == tiny_dataset().fingerprint()
        other = tiny_dataset(seed=6)
        assert data.fingerprint() != other.fingerprint()


class TestRunSeries:
    def report(self, rmse, f1, per_app=None):
        return MetricReport(rmse=rmse, mp_at_k={5: 0.5}, optimal_f1=f1,
                            optimal_f1_per_app=per_app)

    def test_mean_is_exact(self):
        series = RunSeries("x", (self.report(0.2, 0.4), self.report(0.4, 0.8)))
        mean = series.mean_metrics()
        assert mean["rmse"] == pytest.approx(0.3)
        assert mean["optimal_f1"] == pytest.approx(0.6)
        assert mean["mp@5"] == 0.5

    def test_optional_metrics_average_over_reporting_repeats(self):
        series = RunSeries("x", (self.report(0.2, 0.4, per_app=0.9),
                                 self.report(0.4, 0.8)))
        assert series.mean_metrics()["optimal_f1_per_app"] == 0.9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RunSeries("x", ())


class TestLeakGuards:
    def test_check_disjoint(self):
        with pytest.raises(LeakError, match="overlap"):
            _check_disjoint(np.array([0, 4, 7]), np.array([1, 7]))
        with pytest.raises(LeakError, match="overlap"):
            _check_disjoint(np.array([5]), np.array([0, 5, 9]))
        _check_disjoint(np.array([0, 4, 7]), np.array([1, 2, 9]))
        _check_disjoint(np.array([3]), np.array([], dtype=int))

    def test_overlapping_split_raises(self, monkeypatch):
        # every runner checks its split before the split's first fit
        def overlapping(*args, **kwargs):
            return np.array([0, 1, 2]), np.array([2, 3])

        def fit_before_check(*args, **kwargs):
            raise RuntimeError("fit ran on an overlapping split")

        monkeypatch.setattr(exp_mod, "fraction_split", overlapping)
        monkeypatch.setattr(exp_mod, "_cv_splits", lambda *a, **k: [overlapping()])
        monkeypatch.setattr(exp_mod, "fit_mle", fit_before_check)
        data = tiny_dataset()
        for protocol in ("ablation", "comparison", "future", "transfer"):
            spec = ExperimentSpec(protocol=protocol, folds=3, repeats=1, fit=FAST_FIT)
            with pytest.raises(LeakError):
                run_experiment(data, spec)


FAST_FIT = FitConfig(grad_tol=1e-4)


class TestSharedTerms:
    """Each split builds its per-network potentials once, for every fit of the split."""

    @pytest.mark.parametrize("protocol, per_repeat", [
        ("comparison", 2),  # one per training fraction
        ("ablation", 3),  # one per fold
        ("future", 3),
        ("transfer", 3),
    ])
    def test_one_potentials_build_per_split(self, monkeypatch, protocol, per_repeat):
        calls = []
        real = model_mod.network_potentials

        def counting(*args, **kwargs):
            calls.append(protocol)
            return real(*args, **kwargs)

        monkeypatch.setattr(model_mod, "network_potentials", counting)
        spec = ExperimentSpec(protocol=protocol, folds=3, repeats=2, seed=3,
                              fit=FAST_FIT)
        run_experiment(tiny_dataset(), spec)
        assert len(calls) == per_repeat * spec.repeats

    def test_solver_builds_no_potentials(self):
        assert not hasattr(solver_mod, "network_potentials")


class TestSplitStateReleased:
    """No split's TrainingTerms outlive it: the next split and the metrics never see them.

    Nor does a variant derived from a split's terms outlive its fit: the
    next variant is built after the last one has died.
    """

    @pytest.mark.parametrize("protocol", ["ablation", "comparison", "future", "transfer"])
    def test_no_terms_of_an_earlier_split_alive(self, monkeypatch, protocol):
        made, variants = [], []
        real_terms = exp_mod.training_terms
        real_replace = exp_mod.replace
        real_evaluate = exp_mod.evaluate_sheets

        def track(obj, into=made):
            if isinstance(obj, TrainingTerms):
                into.append(weakref.ref(obj))
            return obj

        def alive(refs=made):
            return sum(ref() is not None for ref in refs)

        def checked_replace(obj, **kw):
            if isinstance(obj, TrainingTerms):
                assert alive(variants) == 0
            variant = track(real_replace(obj, **kw))
            return track(variant, into=variants)

        def checked_terms(*args, **kwargs):
            assert alive() == 0
            return track(real_terms(*args, **kwargs))

        def checked_evaluate(*args, **kwargs):
            # comparison scores inside its split, which still holds its terms
            if protocol != "comparison":
                assert alive() == 0
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(exp_mod, "training_terms", checked_terms)
        monkeypatch.setattr(exp_mod, "replace", checked_replace)
        monkeypatch.setattr(exp_mod, "evaluate_sheets", checked_evaluate)
        spec = ExperimentSpec(protocol=protocol, folds=3, repeats=2, seed=3, fit=FAST_FIT)
        run_experiment(tiny_dataset(), spec)
        assert len(made) >= 4


class TestLowActivitySubset:
    """experiment.user_subset = low_activity ranks the low-activity half alone."""

    @pytest.mark.parametrize("protocol", ["ablation", "future"])
    def test_every_sheet_ranks_the_low_activity_column(self, monkeypatch, protocol):
        data = tiny_dataset()
        spec = ExperimentSpec(protocol=protocol, folds=3, repeats=1, seed=2, fit=FAST_FIT,
                              user_subset="low_activity")
        adoptions, _ = filter_min_users(data.adoptions, spec.min_users)
        low = np.zeros(adoptions.num_users, dtype=bool)
        low[low_activity_subset(adoptions)] = True
        assert low.sum() == adoptions.num_users // 2
        halves = future_split(adoptions)
        sheets = []
        real_evaluate = exp_mod.evaluate_sheets

        def capture(sh, *args, **kwargs):
            sheets.extend(sh)
            return real_evaluate(sh, *args, **kwargs)

        monkeypatch.setattr(exp_mod, "evaluate_sheets", capture)
        run_experiment(data, spec)
        assert len(sheets) == 3 * (len(ABLATION_CONFIGS) if protocol == "ablation" else 3)
        for sheet in sheets:
            want = np.repeat(low[:, None], sheet.app_ids.size, axis=1)
            if protocol == "future":
                for j, app in enumerate(sheet.app_ids):
                    want[halves[int(app)][0], j] = False  # early adopters are evidence
            np.testing.assert_array_equal(sheet.evaluated, want)


class TestZeroPopularityFits:
    """A fit without the popularity weight scores as if the channel were absent."""

    def test_pop_weight_is_exactly_zero_and_scores_are_unchanged(self):
        data = tiny_dataset()
        adoptions = data.adoptions
        stack = data.networks
        train, test = fraction_split(np.arange(adoptions.num_apps), 0.5, seed=0)
        terms = training_terms(stack, adoptions, train)
        assert terms.popularity.min() > 0
        # the ablation's variants but full fit live popularity, as run_ablation does
        fits = [
            (terms, stack, dataclasses.replace(FAST_FIT, **overrides))
            for name, _, overrides in ABLATION_CONFIGS
            if name != "full"
        ]
        # a single-network fit is no_exogenous on one network, as run_comparison does
        for m, g in enumerate(stack.networks):
            single = dataclasses.replace(terms, potentials=terms.potentials[m : m + 1])
            fits.append((single, NetworkStack(networks=(g,)),
                         dataclasses.replace(FAST_FIT, variant="no_exogenous")))
        assert len(fits) == 4 + stack.num_networks
        evidence = adoptions.installed[:, test]
        assert evidence.sum(axis=0).min() > 0
        for fit_terms, fit_stack, cfg in fits:
            params, _ = fit_mle(fit_terms, cfg=cfg)
            assert params.pop_weight == 0.0 and not np.signbit(params.pop_weight)
            # the composite summed in network order, as the scorer sums it
            first, *rest = fit_stack.networks
            composite = params.net_weights[0] * first.weights
            for coef, g in zip(params.net_weights[1:], rest):
                composite += coef * g.weights
            want = adoption_probability(params.susceptibility[:, None],
                                        composite @ evidence.astype(float))
            assert score_matrix(params, fit_stack, evidence).tobytes() == want.tobytes()

    @pytest.mark.parametrize("max_iters", [3, 10_000])
    @pytest.mark.parametrize("seed", range(12))
    def test_single_network_no_exogenous_is_the_zero_popularity_fit(self, seed, max_iters):
        # freezing the popularity weight fits what zeroing the counts did, bit for bit
        stack, adoptions = make_instance(seed)
        terms = training_terms(stack, adoptions, np.arange(adoptions.num_apps))
        cfg = FitConfig(max_iters=max_iters)
        for m in range(stack.num_networks):
            single = dataclasses.replace(terms, potentials=terms.potentials[m : m + 1])
            zeroed = dataclasses.replace(single, popularity=np.zeros(adoptions.num_apps))
            got = fit_mle(single, cfg=dataclasses.replace(cfg, variant="no_exogenous"))
            want = fit_mle(zeroed, cfg=cfg)
            assert got[1] == want[1]
            assert got[0].to_json() == want[0].to_json()
            for name in ("net_weights", "susceptibility"):
                assert getattr(got[0], name).tobytes() == getattr(want[0], name).tobytes()


class TestAblationProtocol:
    def test_structure_and_determinism(self):
        data = tiny_dataset()
        spec = ExperimentSpec(protocol="ablation", folds=3, repeats=2, seed=4,
                              fit=FAST_FIT)
        rep = run_ablation(data, spec)
        assert rep.protocol == "ablation"
        assert [s.name for s in rep.series] == [n for n, _, _ in ABLATION_CONFIGS]
        assert all(len(s.repeats) == 2 for s in rep.series)
        again = run_ablation(data, spec)
        assert rep.to_json() == again.to_json()

    def test_full_model_at_least_matches_frozen_variants(self):
        # the nested configurations cannot train to a better likelihood, and
        # on teacher data the full model should not rank worse either
        data = tiny_dataset(seed=8, num_apps=40)
        spec = ExperimentSpec(protocol="ablation", folds=3, repeats=2, seed=1,
                              fit=FAST_FIT)
        rep = run_ablation(data, spec)
        full = rep.get("full").mean_metrics()["optimal_f1"]
        individual = rep.get("individual_only").mean_metrics()["optimal_f1"]
        assert full >= individual - 0.05

    def test_get_unknown_series(self):
        data = tiny_dataset()
        spec = ExperimentSpec(protocol="ablation", folds=3, repeats=1,
                              fit=FAST_FIT)
        rep = run_ablation(data, spec)
        with pytest.raises(KeyError):
            rep.get("nonesuch")

    def test_csv_rows_shape(self):
        data = tiny_dataset()
        spec = ExperimentSpec(protocol="ablation", folds=3, repeats=2,
                              fit=FAST_FIT)
        rep = run_ablation(data, spec)
        rows = rep.csv_rows()
        assert rows[0] == "protocol,config,repeat,metric,value"
        cells = [r.split(",") for r in rows[1:]]
        assert all(len(c) == 5 for c in cells)
        assert {c[1] for c in cells} == {n for n, _, _ in ABLATION_CONFIGS}
        mean_rows = [c for c in cells if c[2] == "mean"]
        assert mean_rows
        for c in cells:
            float(c[4])  # every value round-trips


class TestFutureProtocol:
    def test_series_and_skips(self):
        data = tiny_dataset(num_apps=25)
        spec = ExperimentSpec(protocol="future", folds=3, repeats=1, seed=2,
                              fit=FAST_FIT)
        rep = run_future(data, spec)
        assert {s.name for s in rep.series} == {"full", "regression", "random"}
        for s in rep.series:
            assert set(s.repeats[0].mp_at_k) == {3, 4, 5}

    def test_single_adopter_apps_are_skipped(self):
        installed = np.zeros((6, 8), dtype=bool)
        times = np.full((6, 8), np.nan)
        rng = np.random.default_rng(0)
        for a in range(7):
            users = rng.choice(6, size=3, replace=False)
            installed[users, a] = True
            times[users, a] = np.arange(3)
        installed[0, 7] = True  # a single-adopter app: no late half
        times[0, 7] = 0.0
        adoptions = AdoptionMatrix(num_users=6, num_apps=8, installed=installed,
                                   install_times=times)
        w = np.zeros((6, 6))
        w[0, 1] = w[1, 0] = 1.0
        data = Dataset(
            networks=NetworkStack(
                networks=(CandidateNetwork(num_users=6, weights=w),)),
            adoptions=adoptions,
        )
        spec = ExperimentSpec(protocol="future", folds=2, repeats=1,
                              min_users=1, fit=FAST_FIT)
        rep = run_future(data, spec)
        assert rep.get("full").repeats[0].skipped_apps == 1

    def test_requires_timestamps(self):
        data = tiny_dataset()
        bare = Dataset(
            networks=data.networks,
            adoptions=AdoptionMatrix(
                num_users=data.adoptions.num_users,
                num_apps=data.adoptions.num_apps,
                installed=data.adoptions.installed,
            ),
        )
        spec = ExperimentSpec(protocol="future", folds=3, repeats=1, fit=FAST_FIT)
        with pytest.raises(ValueError, match="timestamps"):
            run_future(bare, spec)


class TestTransferProtocol:
    def test_series_and_k_rule(self):
        data = tiny_dataset(num_apps=25)
        spec = ExperimentSpec(protocol="transfer", folds=3, repeats=2, seed=3,
                              fit=FAST_FIT)
        rep = run_transfer(data, spec)
        assert {s.name for s in rep.series} == {
            "transfer_mean", "transfer_zero", "random"}
        for s in rep.series:
            for r in s.repeats:
                k = int(r.extras["k_rule"])
                assert r.extras["mp_at_k_rule"] == r.mp_at_k[k]

    def test_deterministic(self):
        data = tiny_dataset(num_apps=20)
        spec = ExperimentSpec(protocol="transfer", folds=2, repeats=1, seed=3,
                              fit=FAST_FIT)
        assert run_transfer(data, spec).to_json() == run_transfer(data, spec).to_json()


class TestComparisonProtocol:
    def test_grid_names(self):
        data = tiny_dataset(num_apps=25)
        spec = ExperimentSpec(protocol="comparison", repeats=1, seed=6,
                              fit=FAST_FIT)
        rep = run_comparison(data, spec)
        names = {s.name for s in rep.series}
        assert {
            "full_f20_all", "regression_f20_all", "random_f20_all",
            "full_f50_all", "full_f50_low", "regression_f50_all",
            "regression_f50_low", "random_f50_all", "random_f50_low",
            "single_net0_f50_all", "single_net1_f50_all",
        } == names

    def test_repeated_network_names_fail_before_any_fit(self, monkeypatch):
        # two networks of one name would average into one single-network series
        data = tiny_dataset(num_apps=25)
        twins = tuple(dataclasses.replace(g, name="calls") for g in data.networks.networks)
        data = Dataset(networks=NetworkStack(networks=twins), adoptions=data.adoptions)

        def no_fit(*args, **kwargs):
            raise AssertionError("fit before the name check")

        monkeypatch.setattr(exp_mod, "fit_mle", no_fit)
        spec = ExperimentSpec(protocol="comparison", repeats=1, seed=6, fit=FAST_FIT)
        with pytest.raises(ValueError, match=r"network names repeat in \['calls', 'calls'\]"):
            run_comparison(data, spec)

    def test_network_name_with_a_comma_fails_before_any_fit(self, monkeypatch):
        # the name is a cell of report.csv and summary.csv: a comma adds a field
        data = tiny_dataset(num_apps=25)
        nets = data.networks.networks
        named = (dataclasses.replace(nets[0], name="a,b"), *nets[1:])
        data = Dataset(networks=NetworkStack(networks=named), adoptions=data.adoptions)

        def no_fit(*args, **kwargs):
            raise AssertionError("fit before the name check")

        monkeypatch.setattr(exp_mod, "fit_mle", no_fit)
        spec = ExperimentSpec(protocol="comparison", repeats=1, seed=6, fit=FAST_FIT)
        with pytest.raises(ValueError, match=r"a network name in \['a,b', 'net1'\] contains ','"):
            run_comparison(data, spec)


class TestDispatchAndProvenance:
    def test_dispatch_matches_direct_call(self):
        data = tiny_dataset(num_apps=20)
        spec = ExperimentSpec(protocol="ablation", folds=2, repeats=1, seed=9,
                              fit=FAST_FIT)
        assert run_experiment(data, spec).to_json() == run_ablation(data, spec).to_json()

    def test_provenance_records_filtering(self):
        data = tiny_dataset(num_apps=20)
        spec = ExperimentSpec(protocol="ablation", folds=2, repeats=1,
                              min_users=3, fit=FAST_FIT)
        rep = run_experiment(data, spec)
        dropped = rep.provenance["apps_dropped_by_min_users"]
        counts = data.adoptions.counts_per_app()
        assert dropped == int((counts < 3).sum())
        assert rep.provenance["data_sha256"] == data.fingerprint()
        assert rep.provenance["num_apps"] == 20 - dropped

    def test_spec_echo_round_trips(self):
        data = tiny_dataset(num_apps=20)
        spec = ExperimentSpec(protocol="ablation", folds=2, repeats=1,
                              fit=FAST_FIT)
        rep = run_experiment(data, spec)
        assert rep.spec_echo["protocol"] == "ablation"
        assert rep.spec_echo["folds"] == 2
        assert rep.spec_echo["fit"]["grad_tol"] == FAST_FIT.grad_tol
