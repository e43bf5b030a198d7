"""Adoption scores for a batch of apps, as one users × apps block.

score_matrix scores every (user, app) pair from an evidence matrix, one
column per app, and a popularity value per app.  Scoring runs on the
paper's composite network: the weighted sum C = sum_m c_m W_m of the
candidate networks is built once per call, so every app's exposure is
one product C @ evidence, and the per-network (M, U, T) potentials are
never formed.  The three observation regimes differ only in the inputs
the caller builds:

- standard mode conditions on every other user's true adoption,
  ``installed[:, apps]`` (a user's own bit never feeds their own potential
  because the diagonal is zero), and ranks every user;
- future mode sees only the early adopters, with their count as the
  popularity, and ranks everyone else;
- transfer mode sees only the observable users' adoptions and scores the
  remaining users with transfer_params, which imputes the susceptibilities
  the fit on the observable group could not estimate.

regression_scores is the same computation, on the composite of its own
network coefficients, for the linear baseline, with the same arguments:
each scorer reads everything else from its fitted parameters.  A
PredictionSheet pairs a score matrix with its app ids and the mask of
ranked users; the metrics read it column by column.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .data import NetworkStack, frozen, hold
from .model import ModelParams, adoption_probability

if TYPE_CHECKING:  # an annotation only: predict loads no solver
    from .solver import RegressionParams


@dataclass(frozen=True)
class PredictionSheet:
    """Scores for a batch of apps: column j ranks the users for ``app_ids[j]``.

    ``scores`` has shape (U, T) for T = len(app_ids).  ``evaluated`` marks
    the ranked users; anything that broadcasts to (U, T) is accepted, so
    True (every user), a (U, 1) per-user column or a per-cell mask.  Each
    is taken through data.frozen, so restrict shares the read-only scores.
    """

    app_ids: np.ndarray
    scores: np.ndarray
    evaluated: np.ndarray | bool = True

    def __post_init__(self) -> None:
        hold(self, app_ids=int, scores=float, evaluated=bool)
        app_ids, scores = self.app_ids, self.scores
        if app_ids.ndim != 1 or scores.ndim != 2 or scores.shape[1] != app_ids.size:
            raise ValueError(f"scores of shape {scores.shape} need one column per app id")
        if np.any(~np.isfinite(scores)) or np.any(scores < 0) or np.any(scores > 1):
            raise ValueError("scores must be finite and in [0, 1]")
        object.__setattr__(self, "evaluated", np.broadcast_to(self.evaluated, scores.shape))

    def restrict(self, users: np.ndarray) -> PredictionSheet:
        """The block with only the users set in the (U,) bool mask ``users`` left evaluated.

        Anything else, such as a list of user ids or a mask of another length,
        raises ValueError.  The new mask is handed over without a copy.
        """
        users = np.asarray(users)
        if users.dtype != bool or users.shape != self.scores.shape[:1]:
            raise ValueError(
                f"restrict needs a ({self.scores.shape[0]},) bool mask of users,"
                f" got {users.dtype} of shape {users.shape}"
            )
        evaluated = frozen(self.evaluated & users[:, None], bool, in_place=True)
        return replace(self, evaluated=evaluated)

    def csv_rows(self) -> list[bytes]:
        """The `app_id,user_id,score,evaluated` rows as ASCII byte blocks, no header.

        Rows are app-major (every user of ``app_ids[0]``, then of
        ``app_ids[1]``, ...), users in ascending id, each row ending in
        ``\\n``.  The score is Python's shortest round-trip ``repr`` of the
        double, so ``float(text)`` gives back the exact score; ``evaluated``
        is 1 or 0.  The blocks come unjoined: a writer never holds the rows twice.
        """
        num_users, num_apps = self.scores.shape
        if not self.scores.size:
            return []
        apps = _text_table([f"{a}," for a in self.app_ids.tolist()])
        users = _text_table([f"{u}," for u in range(num_users)])
        # blocks of whole apps when they fit, else of one app's users
        users_per_block = min(num_users, _CHUNK_CELLS)
        apps_per_block = _CHUNK_CELLS // users_per_block
        pieces = []
        for t0 in range(0, num_apps, apps_per_block):
            cols = slice(t0, t0 + apps_per_block)
            for u0 in range(0, num_users, users_per_block):
                rows = slice(u0, u0 + users_per_block)
                pieces.append(_csv_block(
                    (apps[0][cols], apps[1][cols]),
                    (users[0][rows], users[1][rows]),
                    self.scores[rows, cols].T,
                    self.evaluated[rows, cols].T,
                ))
        return pieces


# ---------------------------------------------------------------------------
# sheets.csv text
#
# A block of rows is a fixed-width uint8 matrix ``text``, one row per cell,
# with a mask ``keep`` of the bytes each row keeps; text[keep] drops the
# padding and joins the rows.  The score is the shortest decimal that
# rounds back to the double and, among those, the nearest (Python's repr),
# found as in the general case of Ryu (Adams, PLDI 2018) but on exact
# integers: for x in [1e-4, 1), x * 10**k and the two half-ulp bounds are
# scaled to 128-bit integers, and digits are stripped while a multiple of
# the next power of ten still lies between the bounds.  Every other double,
# and any x with x * 10**k an integer (a few-bit dyadic value, where the
# last stripped digit can be an exact tie), is written by repr itself.

_CHUNK_CELLS = 1 << 14  # cells per block
_LOW32 = np.uint64(0xFFFFFFFF)
# ASCII "0000" .. "9999" as one uint32 each
_QUADS = np.ascontiguousarray(
    np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")
).view(np.uint32).ravel()
_FAST_WIDTH = 22  # "0." and 20 fraction digits
# row d keeps the last d of the 20 fraction digits
_KEEP_LAST = np.arange(20) >= 20 - np.arange(21)[:, None]
_MIN_BEXP = 1009  # biased exponent of [2**-14, 2**-13), the binade of 1e-4


def _binade_scales() -> tuple[np.ndarray, np.ndarray]:
    """Decimal scale k and shift g, per binade of [2**-14, 1).

    x = m * 2**e with a 53-bit m, and x * 10**k = m * 5**k / 2**g with
    g = -k - e.  k is the least scale at which the rounding interval of x,
    one ulp wide, spans 10 units, so at least one digit can be stripped;
    k <= 21 keeps m * 5**k below 2**104 and x * 10**k below 10**18.
    """
    ks = []
    for e in range(_MIN_BEXP - 1075, 1023 - 1075):
        k = 0
        while 10**k < 10 * 2**-e:
            k += 1
        ks.append(k)
    k = np.array(ks)
    return k, (1075 - np.arange(_MIN_BEXP, 1023) - k).astype(np.uint64)


_K, _G = _binade_scales()
_POW5 = 5 ** _K.astype(np.uint64)
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Digits N, decimals D and a mask ``fast`` for the doubles ``x``.

    Where ``fast`` is set, ``repr(x) == "0." + str(N).zfill(D)``; elsewhere
    N and D are meaningless.
    """
    fast = (x >= 1e-4) & (x < 1.0)
    bits = np.where(fast, x, 0.5).view(np.uint64)
    j = (bits >> np.uint64(52)).astype(np.intp) - _MIN_BEXP
    m = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    f, g = _POW5[j], _G[j]
    # P = m * 5**k as (hi, lo) 64-bit halves, from 32-bit limbs
    m1, m0 = m >> np.uint64(32), m & _LOW32
    f1, f0 = f >> np.uint64(32), f & _LOW32
    low = m0 * f0
    mid = m0 * f1 + m1 * f0
    lo = low + (mid << np.uint64(32))
    hi = m1 * f1 + (mid >> np.uint64(32)) + (lo < low)
    # x * 10**k = c + rem / 2**s, and the bounds x -+ ulp / 2 scale to
    # (4P -+ 2f) / 2**s, never an integer: 4P -+ 2f is twice an odd number.
    # A power of two has a narrower gap below, but it is a few-bit dyadic
    # value: rem is 0 and repr writes it.
    c = ((hi << (np.uint64(64) - g)) | (lo >> g)).astype(np.int64)
    rem = (lo & ((np.uint64(1) << g) - np.uint64(1))).astype(np.int64) << 2
    fast &= rem != 0
    s = g.astype(np.int64) + 2
    half_ulp = f.astype(np.int64) << 1
    a = c + ((rem - half_ulp) >> s)
    b = c + ((rem + half_ulp) >> s)
    # With a, b the floors of the scaled bounds, a multiple of 10**r lies
    # inside the interval iff a // 10**r < b // 10**r.  That holds for r = 1
    # (the interval spans 10 units) and, once false, stays false for every
    # larger r: strip to the last level where it holds.
    # Every survivor of a level tests the same power of ten, so each level
    # divides the compacted survivors by one scalar.
    r = np.ones(x.size, np.int64)
    live = np.arange(x.size)
    level = 2
    while live.size:
        p = _POW10[level]
        keep = a // p < b // p
        live, a, b = live[keep], a[keep], b[keep]
        r[live] += 1
        level += 1
    # Round half up by the last digit stripped: the interval is symmetric,
    # so rounding down never leaves it, and it holds no exact half.
    c1 = c // _POW10[r - 1]
    n = c1 // 10
    n += c1 - 10 * n >= 5
    return n, _K[j] - r, fast


def _text_table(texts: list[str], width: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """ASCII ``texts`` left-aligned in rows of at least ``width`` bytes, and their masks."""
    width = max(width, max(map(len, texts)))
    table = np.frombuffer("".join(t.ljust(width) for t in texts).encode(), np.uint8)
    lengths = np.fromiter(map(len, texts), np.intp, len(texts))
    return table.reshape(len(texts), width), np.arange(width) < lengths[:, None]


def _write_fraction(
    digits: np.ndarray, decimals: np.ndarray, text: np.ndarray, keep: np.ndarray
) -> None:
    """Fill text rows with "0." and ``digits`` zero-padded to ``decimals`` places.

    The rows get "0." and the digits zero-padded to 20 places; ``keep``
    drops all but the last ``decimals`` of those 20, and whatever follows.
    """
    quads = np.empty((digits.size, 5), np.uint32)
    for i in range(4, 0, -1):
        q = digits // 10000
        quads[:, i] = _QUADS[digits - 10000 * q]
        digits = q
    quads[:, 0] = _QUADS[digits]
    text[:, :2] = np.frombuffer(b"0.", np.uint8)
    text[:, 2:_FAST_WIDTH] = quads.view(np.uint8)
    keep[:, :2] = True
    keep[:, 2:_FAST_WIDTH] = np.take(_KEEP_LAST, decimals, axis=0)
    keep[:, _FAST_WIDTH:] = False


def _csv_block(
    apps: tuple[np.ndarray, np.ndarray],
    users: tuple[np.ndarray, np.ndarray],
    scores: np.ndarray,
    evaluated: np.ndarray,
) -> bytes:
    """Rows of the (apps, users) cells of ``scores``, app-major.

    ``apps`` and ``users`` are `id,` text tables; ``scores`` and
    ``evaluated`` have shape (apps, users).
    """
    x = np.ascontiguousarray(scores).reshape(-1)
    digits, decimals, fast = _shortest_digits(x)
    slow = np.flatnonzero(~fast)
    keys, which = np.unique(x[slow].view(np.uint64), return_inverse=True)
    reprs = [repr(v) for v in keys.view(np.float64).tolist()]
    score_width = max(_FAST_WIDTH, max(map(len, reprs), default=0))
    # fields: "app_id," "user_id," score ",0\n" or ",1\n"
    ends = np.cumsum([apps[0].shape[1], users[0].shape[1], score_width, 3])
    app, user, score, tail = map(slice, [0, *ends[:-1]], ends)
    text = np.empty((*scores.shape, ends[-1]), np.uint8)
    keep = np.ones(text.shape, bool)
    text[..., app], keep[..., app] = apps[0][:, None], apps[1][:, None]
    text[..., user], keep[..., user] = users[0], users[1]
    text[..., tail] = np.frombuffer(b",0\n", np.uint8)
    text[..., tail.start + 1] += evaluated
    text, keep = text.reshape(x.size, -1), keep.reshape(x.size, -1)
    _write_fraction(digits, decimals, text[:, score], keep[:, score])
    if reprs:
        table, mask = _text_table(reprs, score_width)
        text[slow, score], keep[slow, score] = table[which], mask[which]
    return text[keep].tobytes()


def _exposure(
    net_coefs: np.ndarray,
    pop_coef: float,
    stack: NetworkStack,
    evidence: np.ndarray,
    popularity: np.ndarray,
) -> np.ndarray:
    """C @ evidence + pop_coef * popularity for C = sum_m net_coefs[m] W_m, shape (U, T).

    The composite network C is accumulated in network order in one (U, U)
    array, then multiplies the evidence once for every app.
    """
    if net_coefs.size != stack.num_networks:
        raise ValueError("coefficient / stack network count mismatch")
    ev = np.asarray(evidence, dtype=float)
    if ev.ndim != 2 or ev.shape[0] != stack.num_users:
        raise ValueError(
            f"evidence shape {ev.shape} does not match {stack.num_users} users"
        )
    pop = np.asarray(popularity, dtype=float)
    if pop.shape != ev.shape[1:]:
        raise ValueError(f"popularity shape {pop.shape} does not match {ev.shape[1]} apps")
    first, *rest = stack.networks
    composite = net_coefs[0] * first.weights
    for coef, g in zip(net_coefs[1:], rest):
        composite += coef * g.weights
    return composite @ ev + pop_coef * pop


def score_matrix(
    params: ModelParams,
    stack: NetworkStack,
    evidence: np.ndarray,
    popularity: np.ndarray,
) -> np.ndarray:
    """Adoption probability of every (user, app) pair, shape (U, T).

    Column t conditions on the adopters marked in ``evidence[:, t]`` and on
    the app's popularity value ``popularity[t]``; ``stack`` contributes its
    networks only.
    """
    if params.num_users != stack.num_users:
        raise ValueError("parameter / stack user count mismatch")
    exposure = _exposure(
        params.net_weights, params.pop_weight, stack, evidence, popularity
    )
    return adoption_probability(params.susceptibility[:, None], exposure)


def transfer_params(
    params_observable: ModelParams,
    observable_users: Sequence[int] | np.ndarray,
    num_users: int,
    impute: str = "mean",
) -> ModelParams:
    """Parameters fitted on the observable users, widened to every user.

    ``params_observable`` was fitted on the observable users alone, so its
    susceptibility vector follows the ascending order of ``observable_users``.
    The other users get susceptibility 0 (zero mode) or the mean fitted value
    (mean mode, the default).
    """
    if impute not in ("zero", "mean"):
        raise ValueError(f"unknown imputation mode {impute!r}")
    observable = np.sort(np.asarray(observable_users, dtype=int))
    if observable.size != params_observable.num_users:
        raise ValueError("observable group size does not match fitted parameters")
    fitted = params_observable.susceptibility
    imputed = 0.0 if impute == "zero" else float(fitted.mean())
    susceptibility = np.full(num_users, imputed)
    susceptibility[observable] = fitted
    return replace(params_observable, susceptibility=susceptibility)


def regression_scores(
    reg: RegressionParams,
    stack: NetworkStack,
    evidence: np.ndarray,
    popularity: np.ndarray,
) -> np.ndarray:
    """Baseline linear scores clipped to [0, 1], shape (U, T).

    The arguments are as in score_matrix; the per-user activity feature is
    ``reg.activity``, the training-app install count the regression was
    fitted on.
    """
    if reg.activity.shape != (stack.num_users,):
        raise ValueError(
            f"activity shape {reg.activity.shape} does not match {stack.num_users} users"
        )
    linear = (
        _exposure(reg.net_coefs, reg.pop_coef, stack, evidence, popularity)
        + reg.activity_coef * reg.activity[:, None]
        + reg.intercept
    )
    return np.clip(linear, 0.0, 1.0)
