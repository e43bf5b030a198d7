"""Ranking metrics against brute-force oracles and frozen hand values."""
from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from adoptnet.data import AdoptionMatrix
from adoptnet.metrics import (
    MetricReport,
    NoPositivesError,
    PRPoint,
    _grid,
    _precisions_at_k,
    _sweep,
    evaluate_sheets,
    precision_at_k,
    rank_users,
    rmse,
)
from adoptnet.predict import PredictionSheet


# The public wrappers that adoptnet.metrics once exported, and the pooled
# lexsort ranking that evaluate_sheets used before it ranked each block in
# place, kept as oracles.  They run the module's own `_sweep` and `_grid`:
# the PR tests reach those two through them, and the lexsort oracle checks
# the gathering and ranking of evaluate_sheets, while the loop oracles below
# check the arithmetic independently.

def f1_score(precision, recall):
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def optimal_f1(points):
    """Max F1 over the PR points (0 when precision + recall is 0 everywhere)."""
    if not points:
        raise ValueError("optimal_f1 of an empty PR curve")
    return max(f1_score(p.precision, p.recall) for p in points)


def sorted_pairs(scores, truth):
    """Checked pairs of one group, stably sorted by descending score, for `_sweep`."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(truth, dtype=bool)
    if s.shape != y.shape or s.ndim != 1 or s.size == 0:
        raise ValueError("scores and truth must be aligned non-empty 1-d")
    if not y.any():
        raise NoPositivesError("PR curve needs at least one positive pair")
    order = np.argsort(-s, kind="stable")
    return s[order], y[order], np.array([s.size])


def pr_curve(scores, truth):
    """Pooled precision-recall sweep over the distinct scores, descending."""
    sweep = _sweep(*sorted_pairs(scores, truth))
    return tuple(map(PRPoint, sweep.precision.tolist(), sweep.recall.tolist(),
                     sweep.threshold.tolist()))


def pr_grid(scores, truth):
    """The `pr_curve` of the pairs interpolated onto 101 recalls 0, 0.01, ..., 1."""
    return _grid(_sweep(*sorted_pairs(scores, truth)))


def gathered_pairs(sheets, truth):
    """Evaluated (score, truth-bit) pairs, app-major, ascending user id; app ids; sizes."""
    scores, bits, apps, sizes = [], [], [], []
    for sh in sheets:
        col, user = np.nonzero(sh.evaluated.T)
        scores.append(sh.scores[user, col])
        bits.append(truth.installed[user, sh.app_ids[col]])
        apps.append(sh.app_ids)
        sizes.append(np.count_nonzero(sh.evaluated, axis=0))
    if not scores:
        empty = np.empty(0, dtype=int)
        return np.empty(0), np.empty(0, dtype=bool), empty, empty
    return tuple(map(np.concatenate, (scores, bits, apps, sizes)))


def pooled_pairs(sheets, truth):
    scores, bits, _, _ = gathered_pairs(sheets, truth)
    return scores, bits


def rank_within_apps(scores, bits, apps, sizes):
    """The pairs sorted by app column with one lexsort, then by descending score."""
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        raise ValueError(f"app {apps[empty[0]]} has no evaluated users")
    group = np.repeat(np.arange(sizes.size), sizes)
    order = np.lexsort((-scores, group))
    return scores[order], bits[order]


def per_app_precisions(sheets, truth, k=5):
    scores, bits, apps, sizes = gathered_pairs(sheets, truth)
    _, ranked_bits = rank_within_apps(scores, bits, apps, sizes)
    return _precisions_at_k(ranked_bits, sizes, k)


def mean_precision_at_k(sheets, truth, k=5):
    values, _ = per_app_precisions(sheets, truth, k)
    if not values.size:
        raise ValueError("no sheets to evaluate")
    return float(np.mean(values))


def lexsort_evaluate_sheets(sheets, truth, ks=(5,), skipped_apps=0):
    scores, bits, apps, sizes = gathered_pairs(sheets, truth)
    if not sizes.size:
        raise ValueError("no sheets to evaluate")
    ranked_scores, ranked_bits = rank_within_apps(scores, bits, apps, sizes)
    mp = {}
    clipped_total = 0
    for k in ks:
        values, clipped = _precisions_at_k(ranked_bits, sizes, k)
        mp[int(k)] = float(np.mean(values))
        clipped_total = max(clipped_total, int(clipped.sum()))
    # zeros made +0.0, as evaluate_sheets does before its pooled sort
    pooled = _sweep(*sorted_pairs(scores + 0.0, bits))
    per_app = _sweep(ranked_scores, ranked_bits, sizes)
    best = np.maximum.reduceat(per_app.f1, per_app.offsets)[per_app.positives > 0]
    return MetricReport(
        rmse=rmse(scores, bits.astype(float)),
        mp_at_k=mp,
        optimal_f1=float(pooled.f1.max()),
        pr_points=_grid(pooled),
        optimal_f1_per_app=float(np.mean(best)) if best.size else None,
        clipped_apps=clipped_total,
        skipped_apps=skipped_apps,
    )


def brute_precision_at_k(scores, adopters, k):
    """Literal reading: sort by (-score, id), count adopters among the first k."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = sum(1 for i in order[:k] if i in set(adopters))
    return hits / k


def brute_optimal_f1(scores, truth):
    """Sweep every distinct score as a >= threshold and count the confusion."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth, dtype=bool)
    best = 0.0
    for t in sorted(set(scores.tolist())):
        pred = scores >= t
        tp = int(np.sum(pred & truth))
        fp = int(np.sum(pred & ~truth))
        fn = int(np.sum(~pred & truth))
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        best = max(best, f1_score(p, r))
    return best


def column(x):
    return np.asarray(x, dtype=bool)[:, None]


def sheet(app_id, scores, evaluated=None):
    """A one-app block; ``evaluated`` lists the ranked user ids (default: all)."""
    scores = np.asarray(scores, dtype=float)
    mask = np.zeros(scores.size, dtype=bool)
    mask[np.arange(scores.size) if evaluated is None else evaluated] = True
    return PredictionSheet([app_id], scores[:, None], mask[:, None])


# The loop implementation that the array code in adoptnet.metrics replaced,
# kept as the reference: the array results must equal it bit for bit.  It
# cuts every block into its columns and treats each column as one app.
def columns(sheets):
    """(app id, scores, evaluated user ids) per column, app-major."""
    for sh in sheets:
        for j, app in enumerate(sh.app_ids.tolist()):
            yield app, sh.scores[:, j], np.flatnonzero(sh.evaluated[:, j])


def loop_pooled_pairs(sheets, truth):
    scores, bits = [], []
    for app, column_scores, evaluated in columns(sheets):
        scores += column_scores[evaluated].tolist()
        bits += truth.installed[evaluated, app].tolist()
    return np.array(scores), np.array(bits, dtype=bool)


def loop_per_app_precisions(sheets, truth, k=5):
    values = []
    clipped = []
    for app, column_scores, evaluated in columns(sheets):
        if evaluated.size == 0:
            raise ValueError(f"app {app} has no evaluated users")
        local_scores = column_scores[evaluated]
        local_adopters = np.flatnonzero(truth.installed[evaluated, app])
        kk = min(k, evaluated.size)
        clipped.append(kk < k)
        values.append(precision_at_k(local_scores, local_adopters, kk))
    return np.array(values), np.array(clipped, dtype=bool)


def loop_pr_curve(scores, truth):
    s = np.asarray(scores, dtype=float)
    y = np.asarray(truth, dtype=bool)
    if s.shape != y.shape or s.ndim != 1 or s.size == 0:
        raise ValueError("scores and truth must be aligned non-empty 1-d")
    positives = int(y.sum())
    if positives == 0:
        raise NoPositivesError("PR curve needs at least one positive pair")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    tp_cum = np.cumsum(y_sorted)
    boundary = np.flatnonzero(np.diff(s_sorted) != 0)
    cut = np.concatenate([boundary, [s.size - 1]])
    points = []
    for idx in cut.tolist():
        tp = int(tp_cum[idx])
        predicted = idx + 1
        points.append(PRPoint(precision=tp / predicted, recall=tp / positives,
                              threshold=float(s_sorted[idx])))
    return tuple(points)


def loop_evaluate_sheets(sheets, truth, ks=(5,), skipped_apps=0):
    if not any(sh.app_ids.size for sh in sheets):
        raise ValueError("no sheets to evaluate")
    scores, bits = loop_pooled_pairs(sheets, truth)
    mp = {}
    clipped_total = 0
    for k in ks:
        values, clipped = loop_per_app_precisions(sheets, truth, k)
        mp[int(k)] = float(np.mean(values))
        clipped_total = max(clipped_total, int(clipped.sum()))
    points = loop_pr_curve(scores, bits)
    per_app_f1 = []
    for app, column_scores, evaluated in columns(sheets):
        app_bits = truth.installed[evaluated, app]
        if app_bits.any():
            per_app_f1.append(optimal_f1(loop_pr_curve(column_scores[evaluated], app_bits)))
    return MetricReport(
        rmse=rmse(scores, bits.astype(float)),
        mp_at_k=mp,
        optimal_f1=optimal_f1(points),
        pr_points=points,
        optimal_f1_per_app=float(np.mean(per_app_f1)) if per_app_f1 else None,
        clipped_apps=clipped_total,
        skipped_apps=skipped_apps,
    )


def exact_grid(scores, truth):
    """Davis-Goadrich on the recall grid i/100, in exact rationals, one loop per point."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(truth, dtype=bool)
    positives = int(y.sum())
    swept = []  # (tp, fp, threshold) per distinct score, descending
    for t in sorted(set(s.tolist()), reverse=True):
        pred = s >= t
        swept.append((int(np.sum(pred & y)), int(np.sum(pred & ~y)), t))
    grid = []
    for i in range(101):
        tp_star = Fraction(i * positives, 100)
        if i == 0:
            b = next(j for j, (tp, _, _) in enumerate(swept) if tp > 0)
            tp_b, fp_b, _ = swept[b]
            precision = Fraction(tp_b, tp_b + fp_b)
        else:
            b = next(j for j, (tp, _, _) in enumerate(swept) if tp >= tp_star)
            tp_b, fp_b, _ = swept[b]
            tp_a, fp_a = swept[b - 1][:2] if b > 0 else (0, 0)
            fp_star = fp_a + Fraction(fp_b - fp_a, tp_b - tp_a) * (tp_star - tp_a)
            precision = tp_star / (tp_star + fp_star)
        at = b if swept[b][0] == tp_star or b == 0 else b - 1
        grid.append((precision, Fraction(i, 100), swept[at][2]))
    return grid


class TestRMSE:
    def test_frozen_value(self):
        v = rmse([0.75, 0.25, 1.0], [1.0, 0.0, 1.0])
        assert v == math.sqrt(0.125 / 3)

    def test_perfect_is_zero(self):
        assert rmse([0.0, 1.0], [0.0, 1.0]) == 0.0

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            rmse([], [])


class TestRanking:
    def test_descending_with_id_ties(self):
        order = rank_users(np.array([0.5, 0.9, 0.5, 0.1]))
        assert order.tolist() == [1, 0, 2, 3]

    def test_precision_hand_case(self):
        scores = np.array([0.9, 0.8, 0.7, 0.1])
        assert precision_at_k(scores, [0, 2], 2) == 0.5
        assert precision_at_k(scores, [0, 2], 3) == pytest.approx(2 / 3)

    def test_precision_ties_resolved_by_id(self):
        # users 0..3 all tie; top-2 is then {0, 1} by id
        scores = np.full(4, 0.5)
        assert precision_at_k(scores, [0, 1], 2) == 1.0
        assert precision_at_k(scores, [2, 3], 2) == 0.0

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            precision_at_k(np.array([0.1, 0.2]), [0], 3)
        with pytest.raises(ValueError, match="out of range"):
            precision_at_k(np.array([0.1, 0.2]), [0], 0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(2, 13))
            # coarse grid forces frequent ties
            scores = rng.integers(0, 4, n) / 4.0
            adopters = np.flatnonzero(rng.random(n) < 0.4)
            k = int(rng.integers(1, n + 1))
            assert precision_at_k(scores, adopters, k) == brute_precision_at_k(
                scores.tolist(), adopters.tolist(), k)


class TestPRCurve:
    def test_hand_curve(self):
        points = pr_curve([0.9, 0.8, 0.7], [1, 0, 1])
        assert points == (
            PRPoint(1.0, 0.5, 0.9),
            PRPoint(0.5, 0.5, 0.8),
            PRPoint(2 / 3, 1.0, 0.7),
        )
        assert optimal_f1(points) == pytest.approx(0.8, abs=1e-15)

    def test_tied_scores_collapse_to_one_point(self):
        points = pr_curve([0.5, 0.5, 0.5], [1, 0, 1])
        assert len(points) == 1
        assert points[0] == PRPoint(2 / 3, 1.0, 0.5)

    def test_no_positives_raises(self):
        with pytest.raises(NoPositivesError):
            pr_curve([0.2, 0.1], [0, 0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pr_curve([], [])

    def test_curve_consistency_counts(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            scores = rng.integers(0, 6, n) / 6.0
            truth = rng.random(n) < 0.3
            if not truth.any():
                truth[0] = True
            points = pr_curve(scores, truth)
            # strictly descending thresholds, final recall is 1
            ts = [p.threshold for p in points]
            assert all(a > b for a, b in zip(ts, ts[1:]))
            assert points[-1].recall == 1.0
            # recall never decreases as the threshold lowers
            rs = [p.recall for p in points]
            assert all(b >= a for a, b in zip(rs, rs[1:]))

    def test_optimal_f1_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            scores = rng.integers(0, 5, n) / 5.0
            truth = rng.random(n) < 0.4
            if not truth.any():
                truth[int(rng.integers(0, n))] = True
            assert optimal_f1(pr_curve(scores, truth)) == brute_optimal_f1(
                scores, truth)

    def test_optimal_f1_empty_rejected(self):
        with pytest.raises(ValueError):
            optimal_f1([])



class TestPRGrid:
    def test_hand_case_davis_goadrich(self):
        # Distinct scores, descending, give the swept points (TP, FP):
        #   0.95 -> (0, 1), 0.9 -> (1, 1), 0.5 -> (3, 2), 0.1 -> (3, 3); P = 3.
        # r = 0.25: TP* = 0.75 lies between A = (0, 1) and B = (1, 1).  FP
        #   grows by (1 - 1)/(1 - 0) = 0 per TP, so FP* = 1 and precision is
        #   0.75 / 1.75 = 3/7; the threshold is A's, 0.95.
        # r = 0.75: TP* = 2.25 lies between A = (1, 1) and B = (3, 2).  FP
        #   grows by 1/2 per TP, so FP* = 1 + 1.25/2 = 1.625 and precision is
        #   2.25 / 3.875 = 18/31; the threshold is A's, 0.9.  (Linear
        #   interpolation of precision in recall would give 0.5625.)
        # r = 0 takes B = (1, 1), the first point with TP > 0: precision 1/2.
        # r = 1 lands on (3, 2) exactly: precision 3/5 at threshold 0.5.
        scores = [0.95, 0.9, 0.5, 0.5, 0.5, 0.1]
        truth = [0, 1, 1, 0, 1, 0]
        grid = pr_grid(scores, truth)
        assert grid[25] == PRPoint(3 / 7, 0.25, 0.95)
        assert grid[75] == PRPoint(18 / 31, 0.75, 0.9)
        assert grid[0] == PRPoint(0.5, 0.0, 0.95)
        assert grid[100] == PRPoint(0.6, 1.0, 0.5)

    @pytest.mark.parametrize("n", [3, 10**5])
    def test_exactly_101_recalls(self, n):
        rng = np.random.default_rng(n)
        scores = rng.random(n)
        truth = rng.random(n) < 0.3
        truth[0] = True
        grid = pr_grid(scores, truth)
        assert len(grid) == 101
        assert [p.recall for p in grid] == [i / 100 for i in range(101)]
        assert all(0.0 <= p.precision <= 1.0 for p in grid)

    def test_recall_zero_skips_leading_negatives(self):
        # swept (TP, FP): 0.9 -> (0, 1), 0.8 -> (0, 2), 0.7 -> (1, 2)
        grid = pr_grid([0.9, 0.8, 0.7], [0, 0, 1])
        assert grid[0] == PRPoint(1 / 3, 0.0, 0.8)
        # r = 0.5: between (0, 2) and (1, 2), FP* = 2, precision 0.5 / 2.5
        assert grid[50] == PRPoint(0.5 / 2.5, 0.5, 0.8)
        assert grid[100] == PRPoint(1 / 3, 1.0, 0.7)
        # a positive on top: recall 0 takes its precision and threshold
        assert pr_grid([0.9, 0.8], [1, 0])[0] == PRPoint(1.0, 0.0, 0.9)

    def test_all_tied_scores_one_swept_point(self):
        scores, truth = [0.5, 0.5, 0.5], [1, 0, 1]
        assert pr_curve(scores, truth) == (PRPoint(2 / 3, 1.0, 0.5),)
        grid = pr_grid(scores, truth)
        # from the origin to the one point, precision stays at its 2/3
        assert all(p.precision == pytest.approx(2 / 3, rel=1e-15) for p in grid)
        assert {p.threshold for p in grid} == {0.5}

    def test_matches_exact_rationals(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 25))
            scores = rng.integers(0, 6, n) / 6.0
            truth = rng.random(n) < 0.35
            if not truth.any():
                truth[int(rng.integers(0, n))] = True
            grid = pr_grid(scores, truth)
            for point, (precision, recall, threshold) in zip(
                    grid, exact_grid(scores, truth), strict=True):
                assert point.precision == pytest.approx(float(precision), rel=1e-14)
                assert point.recall == float(recall)
                assert point.threshold == threshold

    def test_no_positives_raises(self):
        with pytest.raises(NoPositivesError):
            pr_grid([0.2, 0.1], [0, 0])


class TestF1:
    def test_hand_values(self):
        assert f1_score(1.0, 1.0) == 1.0
        assert f1_score(0.5, 1.0) == pytest.approx(2 / 3)
        assert f1_score(0.0, 0.0) == 0.0


class TestPerAppPrecisions:
    def test_clipping_flags_small_sheets(self):
        truth = AdoptionMatrix(num_users=4, num_apps=2,
                               installed=np.array([[True, True],
                                                   [False, False],
                                                   [True, False],
                                                   [False, True]]))
        sheets = [
            sheet(0, [0.9, 0.1, 0.8, 0.2]),
            sheet(1, [0.9, 0.1, 0.8, 0.2], evaluated=[0, 1]),
        ]
        values, clipped = per_app_precisions(sheets, truth, k=3)
        assert clipped.tolist() == [False, True]
        assert values[0] == pytest.approx(2 / 3)
        # second sheet falls back to k=2 on users {0, 1}: top-2 = both
        assert values[1] == 0.5

    def test_empty_evaluated_rejected(self):
        truth = AdoptionMatrix(num_users=2, num_apps=2,
                               installed=np.ones((2, 2), dtype=bool))
        bad = sheet(0, [0.5, 0.5], evaluated=[])
        with pytest.raises(ValueError, match="app 0 has no evaluated"):
            per_app_precisions([bad], truth, k=1)
        # the rejected column is named by its app id
        block = PredictionSheet([0, 1], np.full((2, 2), 0.5),
                                np.array([[True, False], [True, False]]))
        with pytest.raises(ValueError, match="app 1 has no evaluated"):
            evaluate_sheets([block], truth)

    def test_ties_rank_by_ascending_user_id(self):
        truth = AdoptionMatrix(num_users=4, num_apps=1,
                               installed=np.array([[False], [False], [True], [True]]))
        # users 1..3 tie; top-1 is user 1, top-2 users {1, 2}
        tied = sheet(0, [0.9, 0.5, 0.5, 0.5], evaluated=[1, 2, 3])
        values, _ = per_app_precisions([tied], truth, k=1)
        assert values.tolist() == [0.0]
        values, _ = per_app_precisions([tied], truth, k=2)
        assert values.tolist() == [0.5]

    def test_mean_over_apps(self):
        truth = AdoptionMatrix(num_users=3, num_apps=2,
                               installed=np.array([[True, False],
                                                   [False, False],
                                                   [False, True]]))
        sheets = [sheet(0, [0.9, 0.5, 0.1]), sheet(1, [0.9, 0.5, 0.1])]
        # app 0: top-1 hit; app 1: top-1 miss
        assert mean_precision_at_k(sheets, truth, k=1) == 0.5

    def test_no_sheets_rejected(self):
        truth = AdoptionMatrix(num_users=1, num_apps=1,
                               installed=np.ones((1, 1), dtype=bool))
        with pytest.raises(ValueError, match="no sheets"):
            mean_precision_at_k([], truth, k=1)
        no_columns = PredictionSheet(np.empty(0, dtype=int), np.empty((1, 0)))
        with pytest.raises(ValueError, match="no sheets"):
            mean_precision_at_k([no_columns], truth, k=1)


class TestPooling:
    def test_only_evaluated_users_pool(self):
        truth = AdoptionMatrix(num_users=3, num_apps=2,
                               installed=np.array([[True, False],
                                                   [False, True],
                                                   [True, True]]))
        block = PredictionSheet([0, 1], np.array([[0.9, 0.2], [0.5, 0.4], [0.1, 0.6]]),
                                np.array([[True, False], [True, False], [False, True]]))
        scores, bits = pooled_pairs([block], truth)
        assert scores.tolist() == [0.9, 0.5, 0.6]
        assert bits.tolist() == [True, False, True]

    def test_pairs_run_app_major_in_ascending_user_id(self):
        truth = AdoptionMatrix(num_users=3, num_apps=3,
                               installed=np.eye(3, dtype=bool))
        first = PredictionSheet([2, 0], np.array([[0.1, 0.4], [0.2, 0.5], [0.3, 0.6]]))
        second = PredictionSheet([1], np.array([[0.7], [0.8], [0.9]]), column([1, 0, 1]))
        scores, bits = pooled_pairs([first, second], truth)
        assert scores.tolist() == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.9]
        assert bits.tolist() == [False, False, True, True, False, False, False, False]


class TestEvaluateSheets:
    def test_integration_hand_case(self):
        truth = AdoptionMatrix(num_users=4, num_apps=2,
                               installed=np.array([[True, False],
                                                   [False, False],
                                                   [True, False],
                                                   [False, False]]))
        sheets = [
            sheet(0, [0.9, 0.8, 0.7, 0.1]),
            sheet(1, [0.3, 0.2, 0.1, 0.4]),  # no positives: skipped per-app
        ]
        rep = evaluate_sheets(sheets, truth, ks=(1, 2))
        assert rep.mp_at_k[1] == 0.5  # app0 top1 hits, app1 cannot
        assert rep.mp_at_k[2] == 0.25
        pooled_scores = [0.9, 0.8, 0.7, 0.1, 0.3, 0.2, 0.1, 0.4]
        pooled_bits = [1, 0, 1, 0, 0, 0, 0, 0]
        assert rep.optimal_f1 == brute_optimal_f1(pooled_scores, pooled_bits)
        assert rep.optimal_f1_per_app == optimal_f1(
            pr_curve([0.9, 0.8, 0.7, 0.1], [1, 0, 1, 0]))
        assert rep.rmse == rmse(pooled_scores, pooled_bits)
        assert rep.clipped_apps == 0

    def test_zero_column_block_contributes_nothing(self):
        truth = AdoptionMatrix(num_users=3, num_apps=2,
                               installed=np.array([[True, False],
                                                   [False, True],
                                                   [True, False]]))
        block = PredictionSheet([0, 1], np.array([[0.9, 0.2], [0.5, 0.4], [0.1, 0.6]]))
        no_columns = PredictionSheet(np.empty(0, dtype=int), np.empty((3, 0)))
        want = evaluate_sheets([block], truth, ks=(1, 2))
        assert evaluate_sheets([no_columns, block, no_columns], truth, ks=(1, 2)) == want
        with pytest.raises(ValueError, match="no sheets to evaluate"):
            evaluate_sheets([no_columns], truth)
        with pytest.raises(ValueError, match="no sheets to evaluate"):
            evaluate_sheets([], truth)

    def test_clipped_counts_max_over_ks(self):
        truth = AdoptionMatrix(num_users=3, num_apps=1,
                               installed=np.array([[True], [False], [True]]))
        sheets = [sheet(0, [0.9, 0.5, 0.1], evaluated=[0, 1])]
        rep = evaluate_sheets(sheets, truth, ks=(1, 5))
        assert rep.clipped_apps == 1
        assert rep.skipped_apps == 0

    def test_report_serialization(self):
        rep = MetricReport(rmse=0.5, mp_at_k={5: 0.25, 1: 0.5}, optimal_f1=0.75,
                           pr_points=(PRPoint(1.0, 0.5, 0.9),),
                           optimal_f1_per_app=None, clipped_apps=1,
                           skipped_apps=2, extras={"b": 2.0, "a": 1.0})
        obj = json.loads(rep.to_json())
        assert list(obj["mp_at_k"]) == ["1", "5"]
        assert obj["pr_points"] == [[0.9, 1.0, 0.5]]
        assert obj["skipped_apps"] == 2
        assert list(obj["extras"]) == ["a", "b"]


class TestEvaluateSheetsOracle:
    def test_equals_loop_implementation(self):
        rng = np.random.default_rng(303)
        checked = 0
        for case in range(500):
            num_users = int(rng.integers(1, 16))
            num_apps = int(rng.integers(1, 6))
            installed = rng.random((num_users, num_apps)) < 0.3
            truth = AdoptionMatrix(num_users=num_users, num_apps=num_apps,
                                   installed=installed)
            apps = rng.permutation(num_apps)[:int(rng.integers(1, num_apps + 1))]
            # one to three blocks, some possibly without columns
            cuts = np.sort(rng.integers(0, apps.size + 1, int(rng.integers(0, 3))))
            sheets = []
            for block_apps in np.split(apps, cuts):
                # coarse grid forces ties; each column ranks its own
                # non-empty subset of the users
                scores = rng.integers(0, 5, (num_users, block_apps.size)) / 4.0
                evaluated = np.zeros(scores.shape, dtype=bool)
                for j in range(block_apps.size):
                    size = int(rng.integers(1, num_users + 1))
                    evaluated[rng.permutation(num_users)[:size], j] = True
                sheets.append(PredictionSheet(block_apps, scores, evaluated))
            ks = tuple(int(k) for k in rng.integers(1, num_users + 4, int(rng.integers(1, 3))))
            try:
                want = loop_evaluate_sheets(sheets, truth, ks=ks)
            except NoPositivesError:
                with pytest.raises(NoPositivesError):
                    evaluate_sheets(sheets, truth, ks=ks)
                continue
            got = evaluate_sheets(sheets, truth, ks=ks)
            assert got.mp_at_k == want.mp_at_k, f"case {case}"
            assert got.optimal_f1 == want.optimal_f1, f"case {case}"
            assert got.optimal_f1_per_app == want.optimal_f1_per_app, f"case {case}"
            assert got.clipped_apps == want.clipped_apps, f"case {case}"
            assert got.rmse == want.rmse, f"case {case}"
            scores, bits = pooled_pairs(sheets, truth)
            want_scores, want_bits = loop_pooled_pairs(sheets, truth)
            assert scores.tolist() == want_scores.tolist(), f"case {case}"
            assert bits.tolist() == want_bits.tolist(), f"case {case}"
            assert pr_curve(scores, bits) == want.pr_points, f"case {case}"
            for k in ks:
                got_values, got_clipped = per_app_precisions(sheets, truth, k)
                want_values, want_clipped = loop_per_app_precisions(sheets, truth, k)
                assert got_values.tolist() == want_values.tolist(), f"case {case}"
                assert got_clipped.tolist() == want_clipped.tolist(), f"case {case}"
            checked += 1
        assert checked >= 300

    def test_apps_without_positives_and_large_k(self):
        truth = AdoptionMatrix(num_users=5, num_apps=3,
                               installed=np.array([[False, True, False],
                                                   [False, False, False],
                                                   [False, True, False],
                                                   [False, False, True],
                                                   [False, False, False]]))
        scores = np.array([[0.5, 0.75, 0.5],
                           [0.5, 0.5, 0.75],
                           [0.25, 0.5, 0.5],
                           [0.5, 0.0, 0.5],
                           [0.0, 0.25, 0.5]])
        evaluated = np.array([[True, False, True],
                              [False, True, True],
                              [False, False, True],
                              [True, True, False],
                              [True, False, True]])
        sheets = [PredictionSheet([2, 0, 1], scores, evaluated)]
        got = evaluate_sheets(sheets, truth, ks=(1, 9))
        want = loop_evaluate_sheets(sheets, truth, ks=(1, 9))
        assert got.mp_at_k == want.mp_at_k
        assert got.optimal_f1_per_app == want.optimal_f1_per_app
        assert got.clipped_apps == want.clipped_apps == 3
        assert got.optimal_f1 == want.optimal_f1
        assert len(got.pr_points) == 101

    def test_equals_lexsort_ranking(self):
        # ties are heavy and hold both zeros; masks are whole, per-user and
        # per-cell; some cases end in each of the three errors
        rng = np.random.default_rng(1313)
        levels = np.array([0.0, -0.0, 0.25, 0.5, 1.0])
        errors = {}
        compared = 0
        for case in range(600):
            num_users = int(rng.integers(1, 10))
            num_apps = int(rng.integers(1, 6))
            installed = rng.random((num_users, num_apps)) < rng.choice([0.02, 0.3, 0.3])
            truth = AdoptionMatrix(num_users=num_users, num_apps=num_apps,
                                   installed=installed)
            num_test = 0 if rng.random() < 0.05 else int(rng.integers(1, num_apps + 1))
            apps = rng.permutation(num_apps)[:num_test]
            cuts = np.sort(rng.integers(0, apps.size + 1, int(rng.integers(0, 3))))
            sheets = []
            for block_apps in np.split(apps, cuts):
                scores = rng.choice(levels, (num_users, block_apps.size))
                mask = rng.integers(3)
                if mask == 0:
                    evaluated = True
                elif mask == 1:
                    evaluated = rng.random((num_users, 1)) < 0.9
                else:
                    evaluated = rng.random((num_users, block_apps.size)) < 0.8
                sheets.append(PredictionSheet(block_apps, scores, evaluated))
            ks = tuple(int(k) for k in rng.integers(1, num_users + 3, int(rng.integers(1, 3))))
            try:
                want = lexsort_evaluate_sheets(sheets, truth, ks=ks)
            except ValueError as err:
                with pytest.raises(ValueError, match=re.escape(str(err))) as raised:
                    evaluate_sheets(sheets, truth, ks=ks)
                assert raised.type is type(err), f"case {case}"
                kind = "no users" if "no evaluated users" in str(err) else str(err)
                errors[kind] = errors.get(kind, 0) + 1
                continue
            got = evaluate_sheets(sheets, truth, ks=ks)
            assert got == want, f"case {case}"
            assert got.to_json() == want.to_json(), f"case {case}"
            compared += 1
        assert compared >= 300
        assert set(errors) == {"no sheets to evaluate", "no users",
                               "PR curve needs at least one positive pair"}
        assert min(errors.values()) >= 10

    def test_signed_zeros_give_one_threshold(self):
        # users 1, 2, 4, 5 score zero in both apps; however their zeros are
        # signed, the report is the same, and its zero threshold is +0.0
        truth = AdoptionMatrix(num_users=6, num_apps=2,
                               installed=np.array([[True, False],
                                                   [False, True],
                                                   [True, False],
                                                   [False, False],
                                                   [False, True],
                                                   [True, False]]))
        zero_cells = np.array([1, 2, 4, 5])
        rng = np.random.default_rng(5)
        reports = []
        for signs in [np.zeros((4, 2), bool), np.ones((4, 2), bool),
                      *(rng.random((4, 2)) < 0.5 for _ in range(8))]:
            scores = np.array([[0.75, 0.5], [0, 0], [0, 0], [0.25, 0.5], [0, 0], [0, 0]])
            scores[zero_cells] = np.where(signs, -0.0, 0.0)
            reports.append(evaluate_sheets([PredictionSheet([0, 1], scores)], truth))
        for rep in reports:
            assert rep == reports[0]
            assert rep.to_json() == reports[0].to_json()
        thresholds = [p.threshold for p in reports[0].pr_points]
        assert thresholds[-1] == 0.0
        assert not any(math.copysign(1.0, t) < 0 for t in thresholds)


def test_ranking_never_calls_lexsort(monkeypatch):
    """Each block is ranked by its own sort, never by a lexsort of the pooled pairs."""
    def refuse(*args, **kwargs):
        raise AssertionError("evaluate_sheets called np.lexsort")

    monkeypatch.setattr(np, "lexsort", refuse)
    truth = AdoptionMatrix(num_users=4, num_apps=4,
                           installed=np.array([[True, False, True, False],
                                               [False, True, False, False],
                                               [True, False, False, True],
                                               [False, True, True, False]]))
    sheets = [
        PredictionSheet([2, 0], np.array([[0.5, 0.25], [0.5, 0.75], [0.0, 0.25], [1.0, 0.5]])),
        PredictionSheet([3, 1], np.array([[0.5, 0.5], [0.25, 0.5], [0.5, 0.0], [0.0, 0.5]]),
                        column([True, True, False, True])),
    ]
    rep = evaluate_sheets(sheets, truth, ks=(1, 3))
    assert len(rep.pr_points) == 101
