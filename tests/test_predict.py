"""Batched scoring under the three observation regimes, and the score block it fills."""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import pytest

from adoptnet import predict
from adoptnet.data import AdoptionMatrix, CandidateNetwork, NetworkStack
from adoptnet.model import ModelParams, adoption_probability, training_terms
from adoptnet.predict import PredictionSheet, regression_scores, score_matrix, transfer_params
from adoptnet.solver import RegressionParams, fit_regression


def path_stack(num_users=4, weight=1.0, popularity=None):
    """Chain graph 0-1-2-...; handy because exposure equals adopted-neighbour count."""
    w = np.zeros((num_users, num_users))
    for i in range(num_users - 1):
        w[i, i + 1] = w[i + 1, i] = weight
    g = CandidateNetwork(num_users=num_users, weights=w, name="path")
    return NetworkStack(networks=(g,), popularity=popularity)


def uniform_params(num_users, s=0.2, alpha=0.5, pop=0.0):
    return ModelParams(net_weights=np.array([alpha]), pop_weight=pop,
                       susceptibility=np.full(num_users, s))


def column(x):
    """One app's adoption vector as a (U, 1) evidence matrix."""
    return np.asarray(x)[:, None]


def score_one(params, stack, adopted, popularity=0.0):
    """Scores of every user for a single app."""
    return score_matrix(params, stack, column(adopted), np.array([popularity]))[:, 0]


def future_sheet(params, stack, early, popularity_visible=0.0, app_id=-1):
    early = column(np.asarray(early, dtype=bool))
    scores = score_matrix(params, stack, early, np.array([popularity_visible]))
    return PredictionSheet([app_id], scores, ~early)


def transfer_sheet(fitted, stack, adopted, observable, impute="mean", popularity=0.0):
    visible = np.zeros(stack.num_users, dtype=bool)
    visible[np.asarray(observable, dtype=int)] = True
    evidence = column(np.asarray(adopted, dtype=bool)) & visible[:, None]
    params = transfer_params(fitted, observable, stack.num_users, impute)
    scores = score_matrix(params, stack, evidence, np.array([popularity]))
    return PredictionSheet([-1], scores, ~visible[:, None])


def ranked(sheet, j=0):
    """Ids of the users ranked in column j."""
    return np.flatnonzero(sheet.evaluated[:, j]).tolist()


def oracle_csv_rows(sheet):
    """The rows of ``sheet`` written one f-string per cell: the reference for csv_rows."""
    columns = zip(sheet.app_ids.tolist(), sheet.scores.T, sheet.evaluated.T)
    return "".join(
        f"{app},{u},{score!r},{flag}\n"
        for app, scores, ranked in columns
        for u, (score, flag) in enumerate(
            zip(scores.tolist(), ranked.astype(np.uint8).tolist())
        )
    ).encode()


def awkward_doubles(rng):
    """Scores in [0, 1] that stress the shortest-digit writer, 1 000 000 or more."""
    def neighbours(x, steps):
        bits = np.float64(x).view(np.int64) + np.arange(-steps, steps + 1)
        return bits.view(np.float64)

    k = rng.integers(0, 1 << 62, 20_000)
    n = rng.integers(1, 63, k.size)
    tens = rng.integers(1, 18, 20_000)
    parts = [
        rng.uniform(0.0, 1.0, 400_000),
        10.0 ** rng.uniform(math.log10(5e-324), 0.0, 200_000),
        10.0 ** rng.uniform(-4.0, 0.0, 400_000),  # every binade of the fast path
        *(neighbours(x, 500) for x in (1e-4, 1e-3, 1e-2, 0.1)),
        neighbours(1.0, 500)[:501],  # 1.0 and the doubles just below
        2.0 ** -np.arange(1, 1075),
        (k % (1 << n)) / 2.0 ** n,
        rng.integers(0, 10**tens, dtype=np.int64) / 10.0**tens,
        np.array([0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308]),
    ]
    return np.concatenate(parts)


class TestPredictionSheet:
    def test_rejects_out_of_range_scores(self):
        with pytest.raises(ValueError, match="scores"):
            PredictionSheet([0], np.array([[0.5], [1.5]]))

    def test_rejects_non_finite_scores(self):
        with pytest.raises(ValueError, match="scores"):
            PredictionSheet([0], np.array([[np.nan]]))

    def test_rejects_column_count_mismatch(self):
        with pytest.raises(ValueError, match="one column per app"):
            PredictionSheet([0, 1, 2], np.zeros((3, 2)))
        with pytest.raises(ValueError, match="one column per app"):
            PredictionSheet([0], np.zeros(3))
        with pytest.raises(ValueError):
            PredictionSheet([0, 1], np.zeros((3, 2)), evaluated=np.ones((2, 2), dtype=bool))

    def test_csv_rows_round_trip_floats(self):
        sheet = PredictionSheet([7, 2], np.array([[0.25, 0.5], [1.0 / 3.0, 1.0]]),
                                evaluated=np.array([[False, True], [True, True]]))
        rows = b"".join(sheet.csv_rows()).decode().splitlines()
        assert rows[0] == "7,0,0.25,0"
        app, user, score, ev = rows[1].split(",")
        assert (app, user, ev) == ("7", "1", "1")
        assert float(score) == 1.0 / 3.0
        # app-major: every user of app 7, then every user of app 2
        assert rows[2:] == ["2,0,0.5,1", "2,1,1.0,1"]

    def test_csv_rows_match_oracle_on_awkward_doubles(self):
        rng = np.random.default_rng(11)
        values = rng.permutation(awkward_doubles(rng))
        assert values.size >= 1_000_000
        num_users = 1000
        values = np.concatenate([values, np.zeros(-values.size % num_users)])
        scores = values.reshape(-1, num_users).T.copy()
        sheet = PredictionSheet(rng.permutation(scores.shape[1]) * 13, scores,
                                evaluated=rng.random(scores.shape) < 0.5)
        assert b"".join(sheet.csv_rows()) == oracle_csv_rows(sheet)

    def test_csv_rows_of_an_empty_block_are_empty(self):
        assert PredictionSheet([], np.zeros((5, 0))).csv_rows() == []
        assert PredictionSheet([3, 4], np.zeros((0, 2))).csv_rows() == []

    @pytest.mark.parametrize("mask", ["all", "per_user", "per_cell"])
    def test_csv_rows_layout(self, mask):
        rng = np.random.default_rng(5)
        full = rng.random((13, 6))
        full[0, 0], full[1, 2], full[2, 4] = 0.0, 1.0, 5e-5
        full.setflags(write=False)
        evaluated = {
            "all": True,
            "per_user": column(rng.random(13) < 0.5),
            "per_cell": rng.random((13, 3)) < 0.5,
        }[mask]
        sheet = PredictionSheet([0, 7, 12345], full[:, ::2], evaluated=evaluated)
        assert not sheet.scores.flags.c_contiguous
        rows = b"".join(sheet.csv_rows())
        assert rows == oracle_csv_rows(sheet)
        lines = rows.decode().splitlines()
        assert len(lines) == 3 * 13
        assert lines[0].startswith("0,0,0.0,") and lines[13].startswith("7,0,")
        assert lines[-1].startswith("12345,12,")
        assert lines[14].startswith("7,1,1.0,")

    def test_csv_rows_split_an_app_across_blocks(self):
        rng = np.random.default_rng(6)
        num_users = predict._CHUNK_CELLS + 5  # more users than one block holds
        sheet = PredictionSheet([4, 1], rng.random((num_users, 2)),
                                evaluated=rng.random((num_users, 2)) < 0.5)
        blocks = sheet.csv_rows()
        assert len(blocks) == 4  # two per app
        assert b"".join(blocks) == oracle_csv_rows(sheet)

    def test_restrict_evaluated_intersects(self):
        sheet = PredictionSheet([0], np.zeros((5, 1)),
                                evaluated=column([True, False, True, True, False]))
        out = sheet.restrict(np.array([False, False, True, True, True]))
        assert ranked(out) == [2, 3]
        assert out.scores is sheet.scores

    @pytest.mark.parametrize("users", [
        pytest.param(np.array([1, 0, 2]), id="user_ids"),
        pytest.param([True], id="one_true"),
        pytest.param([False], id="one_false"),
        pytest.param(np.array([True, False]), id="short_mask"),
        pytest.param(column([True, False, True]), id="column"),
    ])
    def test_restrict_needs_a_bool_mask_of_every_user(self, users):
        # a list of ids would be cast to a mask and a length-1 mask broadcast
        sheet = PredictionSheet([0, 1], np.zeros((3, 2)))
        with pytest.raises(ValueError, match=r"restrict needs a \(3,\) bool mask of users"):
            sheet.restrict(users)

    def test_block_defaults_to_every_user_evaluated(self):
        scores = np.arange(12.0).reshape(4, 3) / 12.0
        apps = np.array([7, 2, 9])
        sheet = PredictionSheet(apps, scores)
        assert sheet.app_ids.tolist() == [7, 2, 9]
        np.testing.assert_array_equal(sheet.scores, scores)
        assert sheet.evaluated.shape == (4, 3) and sheet.evaluated.all()
        for value in (sheet.app_ids, sheet.scores, sheet.evaluated):
            assert not value.flags.writeable
        # the caller's app ids are copied, not frozen
        assert apps.flags.writeable

    def test_evaluated_broadcasts_per_column_or_shared(self):
        scores = np.zeros((3, 2))
        evidence = np.array([[1, 0], [0, 1], [0, 0]], dtype=bool)
        per_app = PredictionSheet([0, 1], scores, ~evidence)
        assert [ranked(per_app, j) for j in range(2)] == [[1, 2], [0, 2]]
        shared = PredictionSheet([0, 1], scores, column([True, False, True]))
        assert [ranked(shared, j) for j in range(2)] == [[0, 2], [0, 2]]
        shared = shared.restrict(np.array([False, True, True]))
        assert [ranked(shared, j) for j in range(2)] == [[2], [2]]


class TestScoreApp:
    """Standard mode: the evidence is installed[:, apps], every user is ranked."""

    def test_hand_computed_chain(self):
        # user 1 sees adopter 0 through one unit edge: z = s + alpha
        stack = path_stack(3)
        params = uniform_params(3, s=0.1, alpha=0.5)
        adopted = column(np.array([1, 0, 0]))
        scores = score_matrix(params, stack, adopted, np.zeros(1))
        assert scores.shape == (3, 1)
        assert scores[1, 0] == pytest.approx(1 - math.exp(-0.6), abs=1e-12)
        # user 2 has no adopted neighbour
        assert scores[2, 0] == pytest.approx(1 - math.exp(-0.1), abs=1e-12)
        assert ranked(PredictionSheet([0], scores)) == [0, 1, 2]

    def test_own_bit_does_not_feed_own_score(self):
        stack = path_stack(3)
        params = uniform_params(3)
        a = score_one(params, stack, np.array([1, 0, 0]))[0]
        b = score_one(params, stack, np.array([0, 0, 0]))[0]
        assert a == b

    def test_popularity_raises_all_scores(self):
        stack = path_stack(4)
        params = uniform_params(4, pop=0.3)
        lo = score_one(params, stack, np.zeros(4), popularity=0.0)
        hi = score_one(params, stack, np.zeros(4), popularity=2.0)
        assert np.all(hi > lo)

    def test_matches_direct_probability(self):
        rng = np.random.default_rng(5)
        stack = path_stack(6, weight=0.7)
        params = ModelParams(net_weights=np.array([0.4]), pop_weight=0.2,
                             susceptibility=rng.random(6))
        adopted = np.array([1, 0, 1, 0, 0, 1])
        scores = score_one(params, stack, adopted, popularity=3.0)
        g = stack.networks[0].weights
        for u in range(6):
            z = 0.4 * float(g[u] @ adopted) + 0.2 * 3.0
            want = adoption_probability(params.susceptibility[u], z)
            assert scores[u] == pytest.approx(float(want), abs=1e-12)

    def test_columns_are_independent_apps(self):
        stack = path_stack(5)
        params = uniform_params(5, pop=0.1)
        evidence = np.array([[1, 0], [0, 0], [1, 1], [0, 0], [0, 1]], dtype=bool)
        popularity = np.array([2.0, 7.0])
        scores = score_matrix(params, stack, evidence, popularity)
        assert scores.shape == (5, 2)
        for t in range(2):
            np.testing.assert_array_equal(
                scores[:, t], score_one(params, stack, evidence[:, t], popularity[t]))

    def test_shape_mismatches(self):
        stack = path_stack(3)
        with pytest.raises(ValueError, match="user count"):
            score_matrix(uniform_params(4), stack, np.zeros((3, 1)), np.zeros(1))
        with pytest.raises(ValueError, match="shape"):
            score_matrix(uniform_params(3), stack, np.zeros((4, 1)), np.zeros(1))
        with pytest.raises(ValueError, match="popularity"):
            score_matrix(uniform_params(3), stack, np.zeros((3, 2)), np.zeros(3))


class TestScoreFuture:
    """Future mode: the evidence is the early-adopter mask, its count the popularity."""

    def test_early_adopters_leave_the_ranked_set(self):
        stack = path_stack(5)
        params = uniform_params(5)
        sheet = future_sheet(params, stack, np.array([1, 0, 1, 0, 0]))
        assert ranked(sheet) == [1, 3, 4]

    def test_late_adopters_are_invisible_evidence(self):
        # scores must depend only on the early mask, not on who adopts later
        stack = path_stack(5)
        params = uniform_params(5)
        early = np.array([1, 0, 0, 0, 0])
        s1 = future_sheet(params, stack, early).scores[:, 0]
        s2 = future_sheet(params, stack, early).scores[:, 0]
        np.testing.assert_array_equal(s1, s2)
        standard = score_one(params, stack, np.array([1, 0, 1, 0, 1]))
        assert s1[3] != standard[3]

    def test_visible_popularity_only(self):
        stack = path_stack(3)
        params = uniform_params(3, pop=0.5)
        a = future_sheet(params, stack, np.array([1, 0, 0]), popularity_visible=1.0).scores
        b = future_sheet(params, stack, np.array([1, 0, 0]), popularity_visible=4.0).scores
        assert np.all(b > a)


class TestScoreTransfer:
    """Transfer mode: observable adoptions only, susceptibilities from transfer_params."""

    def test_unobservable_evidence_is_ignored(self):
        stack = path_stack(4)
        fitted = ModelParams(net_weights=np.array([0.5]), pop_weight=0.0,
                             susceptibility=np.array([0.1, 0.3]))
        observable = [0, 1]
        # user 2's adoption bit must not leak into anyone's exposure
        with_leak = transfer_sheet(fitted, stack, np.array([1, 0, 1, 0]), observable)
        without = transfer_sheet(fitted, stack, np.array([1, 0, 0, 0]), observable)
        np.testing.assert_array_equal(with_leak.scores, without.scores)

    def test_mean_imputation(self):
        stack = path_stack(4)
        fitted = ModelParams(net_weights=np.array([0.0]), pop_weight=0.0,
                             susceptibility=np.array([0.1, 0.3]))
        sheet = transfer_sheet(fitted, stack, np.zeros(4), [0, 1], impute="mean")
        want = adoption_probability(0.2, 0.0)
        assert sheet.scores[2, 0] == pytest.approx(float(want), abs=1e-12)
        assert sheet.scores[3, 0] == pytest.approx(float(want), abs=1e-12)

    def test_zero_imputation(self):
        stack = path_stack(4)
        fitted = ModelParams(net_weights=np.array([0.0]), pop_weight=0.0,
                             susceptibility=np.array([0.1, 0.3]))
        sheet = transfer_sheet(fitted, stack, np.zeros(4), [0, 1], impute="zero")
        assert sheet.scores[2, 0] == 0.0
        assert sheet.scores[3, 0] == 0.0

    def test_evaluated_set_is_the_complement(self):
        stack = path_stack(5)
        fitted = ModelParams(net_weights=np.array([0.2]), pop_weight=0.0,
                             susceptibility=np.array([0.1, 0.1, 0.1]))
        sheet = transfer_sheet(fitted, stack, np.zeros(5), [0, 2, 4])
        assert ranked(sheet) == [1, 3]

    def test_susceptibility_order_follows_sorted_ids(self):
        stack = path_stack(3)
        fitted = ModelParams(net_weights=np.array([0.0]), pop_weight=0.0,
                             susceptibility=np.array([0.5, 1.5]))
        # ids supplied out of order still map ascending: user 0 -> 0.5, user 2 -> 1.5
        sheet = transfer_sheet(fitted, stack, np.zeros(3), [2, 0], impute="zero")
        assert sheet.scores[0, 0] == pytest.approx(
            float(adoption_probability(0.5, 0.0)), abs=1e-12)
        assert sheet.scores[2, 0] == pytest.approx(
            float(adoption_probability(1.5, 0.0)), abs=1e-12)

    def test_bad_impute_mode(self):
        fitted = ModelParams(net_weights=np.array([0.0]), pop_weight=0.0,
                             susceptibility=np.array([0.1]))
        with pytest.raises(ValueError, match="imputation"):
            transfer_params(fitted, [0], 3, impute="median")

    def test_group_size_mismatch(self):
        fitted = ModelParams(net_weights=np.array([0.0]), pop_weight=0.0,
                             susceptibility=np.array([0.1]))
        with pytest.raises(ValueError, match="observable"):
            transfer_params(fitted, [0, 1], 3)

    def test_keeps_weights_and_constraint_flag(self):
        fitted = ModelParams(net_weights=np.array([-0.3, 0.2]), pop_weight=0.4,
                             susceptibility=np.array([0.1, 0.5]), constrained=False)
        full = transfer_params(fitted, [1, 3], 4, impute="mean")
        np.testing.assert_array_equal(full.net_weights, fitted.net_weights)
        assert full.pop_weight == 0.4 and not full.constrained
        np.testing.assert_allclose(full.susceptibility, [0.3, 0.1, 0.3, 0.5], atol=1e-15)


class TestRegressionScores:
    def test_linear_form_and_clipping(self):
        stack = path_stack(3)
        activity = np.array([0.0, 2.0, 10.0])
        reg = RegressionParams(net_coefs=np.array([0.5]), pop_coef=0.1,
                               activity_coef=0.2, intercept=0.05, activity=activity)
        adopted = column(np.array([1, 0, 0]))
        scores = regression_scores(reg, stack, adopted, np.array([1.0]))[:, 0]
        # user 1: 0.5*1 + 0.1*1 + 0.2*2 + 0.05 = 1.05 -> clipped
        assert scores[1] == 1.0
        # user 0: no adopted neighbour, activity 0
        assert scores[0] == pytest.approx(0.1 + 0.05, abs=1e-12)
        assert scores[2] == 1.0

    def test_zero_coefficients_zero_scores(self):
        stack = path_stack(3)
        reg = RegressionParams(net_coefs=np.array([0.0]), pop_coef=0.0,
                               activity_coef=0.0, intercept=0.0, activity=np.full(3, 9.0))
        scores = regression_scores(reg, stack, np.ones((3, 2)), np.array([5.0, 1.0]))
        assert scores.tolist() == [[0.0, 0.0]] * 3

    def test_network_count_mismatch(self):
        reg = RegressionParams(net_coefs=np.array([0.1, 0.2]), pop_coef=0.0,
                               activity_coef=0.0, intercept=0.0, activity=np.zeros(3))
        with pytest.raises(ValueError, match="mismatch"):
            regression_scores(reg, path_stack(3), np.zeros((3, 1)), np.zeros(1))

    def test_fitted_regression_scores_from_its_own_activity(self):
        # the scorer reads the training-app install counts the fit stored
        rng = np.random.default_rng(11)
        stack = random_stack(rng, 8, 2)
        installed = rng.random((8, 10)) < 0.4
        adoptions = AdoptionMatrix(num_users=8, num_apps=10, installed=installed)
        reg = fit_regression(training_terms(stack, adoptions, np.arange(0, 10, 2)))
        evidence = installed[:, 1::2]
        popularity = evidence.sum(axis=0).astype(float)
        got = regression_scores(reg, stack, evidence, popularity)
        activity = installed[:, ::2].sum(axis=1)
        for t in range(evidence.shape[1]):
            want = ref_regression_scores(reg, stack, evidence[:, t], popularity[t], activity)
            np.testing.assert_allclose(got[:, t], want, rtol=0.0, atol=1e-12)

    def test_activity_length_mismatch(self):
        for activity in (np.array([4.0]), np.zeros(4), np.zeros((3, 1))):
            reg = RegressionParams(net_coefs=np.array([0.1]), pop_coef=0.0,
                                   activity_coef=0.2, intercept=0.0, activity=activity)
            with pytest.raises(ValueError, match="activity shape"):
                regression_scores(reg, path_stack(3), np.zeros((3, 1)), np.zeros(1))


def test_scoring_never_builds_per_network_potentials(monkeypatch):
    """Both scorers run on the composite network, never on the (M, U, T) tensor."""
    def refuse(*args):
        raise AssertionError("scoring built the per-network potentials")

    monkeypatch.setattr("adoptnet.model.network_potentials", refuse)
    monkeypatch.setattr(predict, "network_potentials", refuse, raising=False)
    rng = np.random.default_rng(8)
    stack = random_stack(rng, 6, 3)
    evidence = rng.random((6, 4)) < 0.4
    popularity = rng.random(4) * 3.0
    params = random_params(rng, 6, 3)
    reg = RegressionParams(net_coefs=rng.random(3), pop_coef=0.1, activity_coef=0.05,
                           intercept=0.01, activity=np.ones(6))
    assert score_matrix(params, stack, evidence, popularity).shape == (6, 4)
    assert regression_scores(reg, stack, evidence, popularity).shape == (6, 4)


# ---------------------------------------------------------------------------
# Reference: the per-app scorers the batched path replaced, kept verbatim in
# substance as an oracle.  One app per call, one matrix-vector product per
# network, one RefSheet per app.


class RefSheet(NamedTuple):
    app_id: int
    scores: np.ndarray
    evaluated_users: np.ndarray
    evidence_users: np.ndarray


def ref_potential_rows(stack, adopted):
    return np.stack([g.weights @ np.asarray(adopted, dtype=float) for g in stack.networks])


def ref_composite(net_weights, pop_weight, rows, popularity):
    return net_weights @ rows + pop_weight * popularity


def ref_score_app(params, stack, adopted, popularity=0.0, app_id=-1):
    adopted = np.asarray(adopted, dtype=bool)
    rows = ref_potential_rows(stack, adopted)
    exposure = ref_composite(params.net_weights, params.pop_weight, rows, float(popularity))
    scores = adoption_probability(params.susceptibility, exposure)
    return RefSheet(
        app_id=app_id,
        scores=scores,
        evaluated_users=np.arange(stack.num_users),
        evidence_users=np.flatnonzero(adopted),
    )


def ref_score_future(params, stack, early_adopted, popularity_visible=0.0, app_id=-1):
    early = np.asarray(early_adopted, dtype=bool)
    rows = ref_potential_rows(stack, early)
    exposure = ref_composite(params.net_weights, params.pop_weight, rows,
                             float(popularity_visible))
    scores = adoption_probability(params.susceptibility, exposure)
    return RefSheet(
        app_id=app_id,
        scores=scores,
        evaluated_users=np.flatnonzero(~early),
        evidence_users=np.flatnonzero(early),
    )


def ref_score_transfer(params_observable, stack, adopted, observable_users,
                       popularity_visible=0.0, impute="mean", app_id=-1):
    if impute not in ("zero", "mean"):
        raise ValueError(f"unknown imputation mode {impute!r}")
    observable = np.sort(np.asarray(observable_users, dtype=int))
    if observable.size != params_observable.num_users:
        raise ValueError("observable group size does not match fitted parameters")
    num_users = stack.num_users
    observable_mask = np.zeros(num_users, dtype=bool)
    observable_mask[observable] = True
    evidence = np.asarray(adopted, dtype=bool) & observable_mask
    fitted = params_observable.susceptibility
    imputed = 0.0 if impute == "zero" else float(fitted.mean())
    susceptibility = np.full(num_users, imputed)
    susceptibility[observable] = fitted
    rows = ref_potential_rows(stack, evidence)
    exposure = ref_composite(params_observable.net_weights, params_observable.pop_weight,
                             rows, float(popularity_visible))
    scores = adoption_probability(susceptibility, exposure)
    return RefSheet(
        app_id=app_id,
        scores=scores,
        evaluated_users=np.flatnonzero(~observable_mask),
        evidence_users=np.flatnonzero(evidence),
    )


def ref_regression_scores(reg, stack, adopted, popularity, activity):
    rows = ref_potential_rows(stack, np.asarray(adopted, dtype=bool))
    linear = (
        reg.net_coefs @ rows
        + reg.pop_coef * popularity
        + reg.activity_coef * np.asarray(activity, dtype=float)
        + reg.intercept
    )
    return np.clip(linear, 0.0, 1.0)


def random_stack(rng, num_users, num_networks):
    nets = []
    for _ in range(num_networks):
        w = np.triu(rng.random((num_users, num_users)) * 3.0
                    * (rng.random((num_users, num_users)) < 0.5), k=1)
        nets.append(CandidateNetwork(num_users=num_users, weights=w + w.T))
    return NetworkStack(networks=tuple(nets))


def random_params(rng, num_users, num_networks):
    constrained = bool(rng.random() < 0.5)
    w = rng.random(num_networks) * 2.0
    if not constrained:
        w -= rng.random(num_networks)
    s = rng.exponential(0.3, num_users) * (rng.random(num_users) < 0.8)
    pop = float(rng.random() * 0.2 * (rng.random() < 0.7))
    return ModelParams(net_weights=w, pop_weight=pop, susceptibility=s,
                       constrained=constrained)


def assert_same_sheets(got, evidence, want):
    """Column j of the block ``got``, scored from ``evidence[:, j]``, equals want[j]."""
    assert got.app_ids.size == len(want)
    for j, w in enumerate(want):
        assert got.app_ids[j] == w.app_id
        np.testing.assert_allclose(got.scores[:, j], w.scores, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(np.flatnonzero(got.evaluated[:, j]), w.evaluated_users)
        np.testing.assert_array_equal(np.flatnonzero(evidence[:, j]), w.evidence_users)


class TestBatchedOracle:
    """score_matrix / regression_scores against the per-app reference scorers."""

    CASES = 240

    def instances(self):
        rng = np.random.default_rng(20240)
        for _ in range(self.CASES):
            num_users = int(rng.integers(3, 13))
            num_networks = int(rng.choice([1, 3]))
            num_apps = int(rng.integers(1, 7))
            stack = random_stack(rng, num_users, num_networks)
            apps = np.sort(rng.choice(50, size=num_apps, replace=False))
            evidence = rng.random((num_users, num_apps)) < rng.uniform(0.1, 0.7)
            popularity = rng.integers(0, 20, size=num_apps).astype(float)
            yield rng, stack, apps, evidence, popularity

    def test_standard_mode(self):
        for rng, stack, apps, evidence, popularity in self.instances():
            params = random_params(rng, stack.num_users, stack.num_networks)
            want = [ref_score_app(params, stack, evidence[:, t], popularity[t], app_id=int(a))
                    for t, a in enumerate(apps)]
            got = PredictionSheet(apps, score_matrix(params, stack, evidence, popularity))
            assert_same_sheets(got, evidence, want)

    def test_future_mode(self):
        for rng, stack, apps, evidence, _ in self.instances():
            params = random_params(rng, stack.num_users, stack.num_networks)
            early = evidence & (rng.random(evidence.shape) < 0.5)
            visible = early.sum(axis=0).astype(float)
            want = [ref_score_future(params, stack, early[:, t], float(early[:, t].sum()),
                                     app_id=int(a))
                    for t, a in enumerate(apps)]
            scores = score_matrix(params, stack, early, visible)
            assert_same_sheets(PredictionSheet(apps, scores, ~early), early, want)

    @pytest.mark.parametrize("impute", ["mean", "zero"])
    def test_transfer_mode(self, impute):
        for rng, stack, apps, evidence, popularity in self.instances():
            num_users = stack.num_users
            n_obs = int(rng.integers(1, num_users))
            observable = rng.permutation(num_users)[:n_obs]
            fitted = random_params(rng, n_obs, stack.num_networks)
            want = [ref_score_transfer(fitted, stack, evidence[:, t], observable,
                                       popularity[t], impute, app_id=int(a))
                    for t, a in enumerate(apps)]
            visible = np.zeros(num_users, dtype=bool)
            visible[observable] = True
            masked = evidence & visible[:, None]
            params = transfer_params(fitted, observable, num_users, impute)
            scores = score_matrix(params, stack, masked, popularity)
            got = PredictionSheet(apps, scores, ~visible[:, None])
            assert_same_sheets(got, masked, want)

    def test_regression_head(self):
        for rng, stack, apps, evidence, popularity in self.instances():
            reg = RegressionParams(
                net_coefs=rng.random(stack.num_networks) * 0.3,
                pop_coef=float(rng.random() * 0.05),
                activity_coef=float(rng.random() * 0.05),
                intercept=float(rng.random() * 0.1),
                activity=rng.integers(0, 15, size=stack.num_users).astype(float),
            )
            activity = reg.activity
            got = regression_scores(reg, stack, evidence, popularity)
            assert got.shape == evidence.shape
            for t in range(apps.size):
                want = ref_regression_scores(reg, stack, evidence[:, t], popularity[t],
                                             activity)
                np.testing.assert_allclose(got[:, t], want, rtol=0.0, atol=1e-12)
