"""Ranking and error metrics: RMSE, precision@k, MP-k, pooled PR curve, optimal F1.

The metrics of a test pass read a list of PredictionSheet blocks, one per
fold, and treat every column as one test app.  The evaluated cells are
gathered with each block's mask into (score, truth-bit) pairs, app-major
and by ascending user id within an app, so ties rank by user id.

Every curve comes from one array sweep (`_sweep`) over pairs sorted by
descending score: TP, FP, precision, recall and F1 at each distinct score.
The exact optimal F1 is the maximum of that F1 array.  Reports carry the
curve on a fixed 101-point recall grid, interpolated after Davis & Goadrich
(ICML 2006), so their size does not depend on the number of pairs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .data import AdoptionMatrix
from .predict import PredictionSheet

# recall i / 100 for i = 0..100
_GRID = np.arange(101)


class NoPositivesError(ValueError):
    """A PR curve needs at least one positive pair."""


class PRPoint(NamedTuple):
    precision: float
    recall: float
    threshold: float


@dataclass(frozen=True)
class MetricReport:
    """Metrics of one evaluation pass.

    optimal_f1 is the exact maximum F1 over every distinct threshold of the
    pooled pairs (primary); the per-app averaged variant is reported
    alongside.  pr_points is the pooled PR curve on the 101-point recall
    grid of `pr_grid`.  clipped_apps counts test apps whose evaluated set was
    smaller than the requested k.
    """

    rmse: float
    mp_at_k: dict[int, float]
    optimal_f1: float
    pr_points: tuple[PRPoint, ...] = ()
    optimal_f1_per_app: float | None = None
    clipped_apps: int = 0
    skipped_apps: int = 0
    extras: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "rmse": self.rmse,
            "mp_at_k": {str(k): v for k, v in sorted(self.mp_at_k.items())},
            "optimal_f1": self.optimal_f1,
            "optimal_f1_per_app": self.optimal_f1_per_app,
            "clipped_apps": self.clipped_apps,
            "skipped_apps": self.skipped_apps,
            "extras": dict(sorted(self.extras.items())),
            "pr_points": [[p.threshold, p.precision, p.recall] for p in self.pr_points],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def rmse(pred: Sequence[float] | np.ndarray, truth: Sequence[float] | np.ndarray) -> float:
    """sqrt(mean((pred - truth)^2)) over aligned pairs."""
    p = np.asarray(pred, dtype=float)
    t = np.asarray(truth, dtype=float)
    if p.shape != t.shape or p.ndim != 1:
        raise ValueError("pred and truth must be 1-d of equal length")
    if p.size == 0:
        raise ValueError("rmse of empty input")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def rank_users(scores: np.ndarray) -> np.ndarray:
    """User indices sorted by descending score; ties broken by ascending id."""
    scores = np.asarray(scores, dtype=float)
    return np.argsort(-scores, kind="stable")


def precision_at_k(scores: np.ndarray, adopters: Sequence[int] | np.ndarray, k: int) -> float:
    """|top-k by score that adopted| / k with deterministic id tie-breaking."""
    scores = np.asarray(scores, dtype=float)
    if not 1 <= k <= scores.size:
        raise ValueError(f"k={k} out of range [1, {scores.size}]")
    top = rank_users(scores)[:k]
    adopter_set = np.zeros(scores.size, dtype=bool)
    adopter_set[np.asarray(adopters, dtype=int)] = True
    return float(adopter_set[top].sum() / k)


class _Sweep(NamedTuple):
    """One point per distinct score of each group, groups ascending, scores descending."""

    group: np.ndarray
    threshold: np.ndarray
    tp: np.ndarray
    fp: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    positives: np.ndarray  # per group


def _sweep(scores: np.ndarray, truth: np.ndarray, group: np.ndarray) -> _Sweep:
    """Threshold sweep of non-empty pairs sorted by group, then by descending score.

    A threshold t predicts positive on score >= t within its group:
    precision = TP/(TP+FP), recall = TP/P with P the group's positives (a
    group without positives gets recall 0), F1 = 2·p·r/(p+r), or 0 where
    p + r = 0.  Arithmetic is that of `f1_score` on the same operands.
    """
    n = scores.size
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(group[1:], group[:-1], out=first[1:])
    # the last pair of each tie run marks one distinct threshold
    last = np.empty(n, dtype=bool)
    last[-1] = True
    last[:-1] = first[1:] | (scores[1:] != scores[:-1])
    starts = np.flatnonzero(first)
    tp_cum = np.concatenate(([0], np.cumsum(truth)))
    positives = tp_cum[np.append(starts[1:], n)] - tp_cum[starts]
    cut = np.flatnonzero(last)
    point_group = (np.cumsum(first) - 1)[cut]
    tp = tp_cum[cut + 1] - tp_cum[starts[point_group]]
    predicted = cut + 1 - starts[point_group]
    precision = tp / predicted
    recall = tp / np.maximum(positives, 1)[point_group]
    denom = precision + recall
    f1 = np.zeros(cut.size)
    np.divide(2.0 * precision * recall, denom, out=f1, where=denom != 0)
    return _Sweep(point_group, scores[cut], tp, predicted - tp, precision, recall, f1,
                  positives)


def _sorted_pairs(
    scores: Sequence[float] | np.ndarray, truth: Sequence[int] | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked pairs of one group, sorted by descending score, for `_sweep`."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(truth, dtype=bool)
    if s.shape != y.shape or s.ndim != 1 or s.size == 0:
        raise ValueError("scores and truth must be aligned non-empty 1-d")
    if not y.any():
        raise NoPositivesError("PR curve needs at least one positive pair")
    order = np.argsort(-s, kind="stable")
    return s[order], y[order], np.zeros(s.size, dtype=int)


def _grid(sweep: _Sweep) -> tuple[PRPoint, ...]:
    """The single-group `sweep` on the recall grid i/100, i = 0..100.

    At recall r the bracketing swept points are B, the first with TP >= r·P,
    and A, the one before it (the origin when B is first).  Precision follows
    Davis & Goadrich: FP grows linearly in TP from A to B, so at TP* = r·P it
    is TP* / (TP* + FP_A + (FP_B - FP_A)(TP* - TP_A)/(TP_B - TP_A)).  Recall
    0 takes the precision of the first swept point with TP > 0.  The
    threshold is that of B when B lies exactly at r, else that of A (of B
    when A is the origin).
    """
    tp, fp = sweep.tp, sweep.fp
    target = _GRID * int(sweep.positives[0])  # 100·TP*, exact in integers
    b = np.searchsorted(100 * tp, target, side="left")
    b[0] = np.searchsorted(tp, 0, side="right")
    a = b - 1
    tp_a = np.where(a >= 0, tp[a], 0)
    fp_a = np.where(a >= 0, fp[a], 0)
    tp_star = target[1:] / 100
    fp_star = fp_a[1:] + (fp[b[1:]] - fp_a[1:]) * (tp_star - tp_a[1:]) / (tp[b[1:]] - tp_a[1:])
    precision = np.concatenate((sweep.precision[b[:1]], tp_star / (tp_star + fp_star)))
    at = np.where(100 * tp[b] == target, b, np.maximum(a, 0))
    return tuple(map(PRPoint, precision.tolist(), (_GRID / 100).tolist(),
                     sweep.threshold[at].tolist()))


def pr_curve(
    scores: Sequence[float] | np.ndarray, truth: Sequence[int] | np.ndarray
) -> tuple[PRPoint, ...]:
    """Pooled precision-recall sweep over the distinct scores, descending.

    Each threshold t predicts positive on score >= t; precision = TP/(TP+FP),
    recall = TP/P.
    """
    sweep = _sweep(*_sorted_pairs(scores, truth))
    return tuple(map(PRPoint, sweep.precision.tolist(), sweep.recall.tolist(),
                     sweep.threshold.tolist()))


def pr_grid(
    scores: Sequence[float] | np.ndarray, truth: Sequence[int] | np.ndarray
) -> tuple[PRPoint, ...]:
    """The `pr_curve` of the pairs interpolated onto 101 recalls 0, 0.01, ..., 1.

    See `_grid` for the Davis–Goadrich interpolation and the threshold rule.
    """
    return _grid(_sweep(*_sorted_pairs(scores, truth)))


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def optimal_f1(points: Sequence[PRPoint]) -> float:
    """Max F1 over the PR points (0 when precision + recall is 0 everywhere)."""
    if not points:
        raise ValueError("optimal_f1 of an empty PR curve")
    return max(f1_score(p.precision, p.recall) for p in points)


def _pairs(
    sheets: Sequence[PredictionSheet], truth: AdoptionMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Evaluated (score, truth-bit) pairs of every column of every sheet.

    Pairs run app-major (sheet by sheet, column by column) with ascending
    user id inside each app.  Also returns the app id and the pair count of
    each column.
    """
    scores, bits, apps, sizes = [], [], [], []
    for sheet in sheets:
        col, user = np.nonzero(sheet.evaluated.T)
        scores.append(sheet.scores[user, col])
        bits.append(truth.installed[user, sheet.app_ids[col]])
        apps.append(sheet.app_ids)
        sizes.append(np.count_nonzero(sheet.evaluated, axis=0))
    if not scores:
        empty = np.empty(0, dtype=int)
        return np.empty(0), np.empty(0, dtype=bool), empty, empty
    return tuple(map(np.concatenate, (scores, bits, apps, sizes)))


def pooled_pairs(
    sheets: Sequence[PredictionSheet], truth: AdoptionMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten (score, truth-bit) pairs across every sheet's evaluated cells.

    Pairs run app-major, with ascending user id inside each app.
    """
    scores, bits, _, _ = _pairs(sheets, truth)
    return scores, bits


def _rank_within_apps(
    scores: np.ndarray, bits: np.ndarray, apps: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The `_pairs` sorted by app column, then by descending score.

    Ties keep ascending user id, as `rank_users` does within one app.
    Returns sorted scores, sorted bits and the column index of each pair.
    """
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        raise ValueError(f"app {apps[empty[0]]} has no evaluated users")
    group = np.repeat(np.arange(sizes.size), sizes)
    order = np.lexsort((-scores, group))
    return scores[order], bits[order], group


def _precisions_at_k(
    ranked_bits: np.ndarray, sizes: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sheet precision@min(k, size) of bits ranked within each sheet, and the clipped flags."""
    if k < 1:
        raise ValueError(f"k={k} out of range: must be at least 1")
    starts = np.cumsum(sizes) - sizes
    kk = np.minimum(k, sizes)
    hits_cum = np.concatenate(([0], np.cumsum(ranked_bits)))
    return (hits_cum[starts + kk] - hits_cum[starts]) / kk, kk < k


def per_app_precisions(
    sheets: Sequence[PredictionSheet], truth: AdoptionMatrix, k: int = 5
) -> tuple[np.ndarray, np.ndarray]:
    """Per-app precision@k on each column's evaluated users, app-major.

    Apps with fewer evaluated users than k fall back to the evaluated count;
    the second return flags them.  Positives are the truth adopters among the
    column's evaluated users.
    """
    scores, bits, apps, sizes = _pairs(sheets, truth)
    _, ranked_bits, _ = _rank_within_apps(scores, bits, apps, sizes)
    return _precisions_at_k(ranked_bits, sizes, k)


def mean_precision_at_k(
    sheets: Sequence[PredictionSheet], truth: AdoptionMatrix, k: int = 5
) -> float:
    """Unweighted mean of per-app precision@k over the test apps."""
    values, _ = per_app_precisions(sheets, truth, k)
    if not values.size:
        raise ValueError("no sheets to evaluate")
    return float(np.mean(values))


def evaluate_sheets(
    sheets: Sequence[PredictionSheet],
    truth: AdoptionMatrix,
    ks: Sequence[int] = (5,),
    skipped_apps: int = 0,
) -> MetricReport:
    """Full MetricReport over one test pass: RMSE, MP-k per k, pooled F1 and PR.

    Every column of every sheet is one test app.  The per-app-averaged
    optimal F1 skips apps with no positive evaluated user (they have no PR
    curve).  The pooled curve is reported on the 101-point grid of
    `pr_grid`; optimal_f1 is exact over every threshold.
    """
    scores, bits, apps, sizes = _pairs(sheets, truth)
    if not sizes.size:
        raise ValueError("no sheets to evaluate")
    ranked_scores, ranked_bits, group = _rank_within_apps(scores, bits, apps, sizes)
    mp = {}
    clipped_total = 0
    for k in ks:
        values, clipped = _precisions_at_k(ranked_bits, sizes, k)
        mp[int(k)] = float(np.mean(values))
        clipped_total = max(clipped_total, int(clipped.sum()))
    pooled = _sweep(*_sorted_pairs(scores, bits))
    per_app = _sweep(ranked_scores, ranked_bits, group)
    best = np.maximum.reduceat(per_app.f1, np.searchsorted(per_app.group, np.arange(sizes.size)))
    best = best[per_app.positives > 0]
    return MetricReport(
        rmse=rmse(scores, bits.astype(float)),
        mp_at_k=mp,
        optimal_f1=float(pooled.f1.max()),
        pr_points=_grid(pooled),
        optimal_f1_per_app=float(np.mean(best)) if best.size else None,
        clipped_apps=clipped_total,
        skipped_apps=skipped_apps,
    )
