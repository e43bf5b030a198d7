"""Ranking and error metrics: RMSE, precision@k, MP-k, pooled PR curve, optimal F1.

The metrics of a test pass read a list of PredictionSheet blocks, one per
fold, and treat every column as one test app.  Each block is ranked where
it lies: one stable sort of all its columns at once (`_rank_block`) puts
every app's evaluated users in descending score, ties by ascending user id.
MP-k and the per-app optimal F1 read those rankings, app-major.

Every curve comes from one array sweep (`_sweep`) over pairs sorted by
descending score: TP, FP, precision, recall and F1 at each distinct score.
The sweep reads only the last pair of each tie run, so the pooled pairs are
sorted by the faster unstable sort, after -0.0 is made 0.0 so that a tie
run's threshold has one sign.  The exact optimal F1 is the maximum of the
F1 array.  Reports carry the curve on a fixed 101-point recall grid,
interpolated after Davis & Goadrich (ICML 2006), so their size does not
depend on the number of pairs.  RMSE sums the squared errors app-major, by
ascending user id within an app.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .data import AdoptionMatrix, artifact_json
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
    grid of `_grid`.  clipped_apps counts test apps whose evaluated set was
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
        return artifact_json(self.to_dict())


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
    """One point per distinct score of each group, groups in order, scores descending."""

    offsets: np.ndarray  # index of each group's first point
    threshold: np.ndarray
    tp: np.ndarray
    fp: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    positives: np.ndarray  # per group


def _sweep(scores: np.ndarray, truth: np.ndarray, sizes: np.ndarray) -> _Sweep:
    """Threshold sweep of consecutive groups of ``sizes`` pairs, each sorted by descending score.

    Every size is positive.  A threshold t predicts positive on score >= t
    within its group: precision = TP/(TP+FP), recall = TP/P with P the
    group's positives (a group without positives gets recall 0), F1 =
    2·p·r/(p+r), or 0 where p + r = 0.  A point reads only the last pair of
    its tie run and the counts up to it, so the order of tied pairs does not
    change the sweep.
    """
    ends = np.cumsum(sizes)
    starts = ends - sizes
    # the last pair of each tie run marks one distinct threshold
    last = np.empty(scores.size, dtype=bool)
    np.not_equal(scores[1:], scores[:-1], out=last[:-1])
    last[ends - 1] = True
    cut = np.flatnonzero(last)
    points = np.diff(np.searchsorted(cut, ends - 1), prepend=-1)
    tp_cum = np.zeros(scores.size + 1, dtype=np.int64)
    np.cumsum(truth, out=tp_cum[1:])
    positives = tp_cum[ends] - tp_cum[starts]
    predicted = cut + 1  # pairs up to each point, counted from the first pair
    tp = tp_cum[predicted]
    tp -= np.repeat(tp_cum[starts], points)
    predicted -= np.repeat(starts, points)
    precision = tp / predicted
    recall = tp / np.repeat(np.maximum(positives, 1), points)
    denom = precision + recall
    # p + r = 0 only where p = r = 0, and there 0 / 1 gives F1 = 0
    denom[denom == 0] = 1.0
    f1 = 2.0 * precision
    f1 *= recall
    f1 /= denom
    return _Sweep(np.cumsum(points) - points, scores[cut], tp, predicted - tp, precision,
                  recall, f1, positives)


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


def _rank_block(
    sheet: PredictionSheet, truth: AdoptionMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every column of one block ranked, as app-major pairs.

    One stable sort of the rows of the block's (T, U) transpose, keyed by
    -score with the cells outside the mask keyed +inf so that they sort
    last, orders each app's evaluated users by descending score, ties by
    ascending user id; the first ``sizes[j]`` of row j are app j's ranking.
    Returns the ranked scores, the ranked truth bits and the sizes, then the
    evaluated (score, truth-bit) pairs unranked: app-major, ascending user
    id within an app.
    """
    sizes = np.count_nonzero(sheet.evaluated, axis=0)
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        raise ValueError(f"app {sheet.app_ids[empty[0]]} has no evaluated users")
    num_users, num_apps = sheet.scores.shape
    installed = truth.installed[:, sheet.app_ids]
    key = np.negative(sheet.scores.T, order="C")
    evaluated = sheet.evaluated.T
    # every user evaluated: no mask to key or gather through (a fifth of
    # the metrics time of a 400 x 800 comparison)
    full = sizes.min() == num_users
    if not full:
        key[~evaluated] = np.inf
    # flat indices into the (U, T) blocks, row j holding app j's ranking
    ranked = np.argsort(key, axis=1, kind="stable") * num_apps + np.arange(num_apps)[:, None]
    if full:
        ranked = ranked.ravel()
        pairs = sheet.scores.T.ravel(), installed.T.ravel()
    else:
        ranked = ranked[np.arange(num_users) < sizes[:, None]]
        pairs = sheet.scores.T[evaluated], installed.T[evaluated]
    return sheet.scores.take(ranked), installed.take(ranked), sizes, *pairs


def _precisions_at_k(
    ranked_bits: np.ndarray, sizes: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-app precision@min(k, size) of bits ranked within each app, and the clipped flags."""
    if k < 1:
        raise ValueError(f"k={k} out of range: must be at least 1")
    starts = np.cumsum(sizes) - sizes
    kk = np.minimum(k, sizes)
    hits_cum = np.concatenate(([0], np.cumsum(ranked_bits)))
    return (hits_cum[starts + kk] - hits_cum[starts]) / kk, kk < k


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
    `_grid`; optimal_f1 is exact over every threshold.
    """
    blocks = [_rank_block(sheet, truth) for sheet in sheets if sheet.app_ids.size]
    if not blocks:
        raise ValueError("no sheets to evaluate")
    ranked_scores, ranked_bits, sizes, scores, bits = map(np.concatenate, zip(*blocks))
    mp = {}
    clipped_total = 0
    for k in ks:
        values, clipped = _precisions_at_k(ranked_bits, sizes, k)
        mp[int(k)] = float(np.mean(values))
        clipped_total = max(clipped_total, int(clipped.sum()))
    if not ranked_bits.any():
        raise NoPositivesError("PR curve needs at least one positive pair")
    # -0.0 + 0.0 is 0.0: a tie run of both zeros then has one threshold,
    # whichever pair the unstable sort puts last
    pooled_scores = ranked_scores + 0.0
    order = np.argsort(-pooled_scores)
    pooled = _sweep(pooled_scores[order], ranked_bits[order], np.array([order.size]))
    per_app = _sweep(ranked_scores, ranked_bits, sizes)
    best = np.maximum.reduceat(per_app.f1, per_app.offsets)[per_app.positives > 0]
    return MetricReport(
        rmse=rmse(scores, bits),
        mp_at_k=mp,
        optimal_f1=float(pooled.f1.max()),
        pr_points=_grid(pooled),
        optimal_f1_per_app=float(np.mean(best)) if best.size else None,
        clipped_apps=clipped_total,
        skipped_apps=skipped_apps,
    )
