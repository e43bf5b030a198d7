"""Data model and ingestion for candidate social networks and app-adoption logs.

Candidate networks are symmetric, non-negative, zero-diagonal weight matrices
over a fixed user universe with dense 0-based ids.  Adoption data is a binary
user x app matrix with optional install timestamps.  Loaders parse the CSV
formats described in the README and fail fast with line-numbered diagnostics.
Each format has one writer that turns a table of rows into matrices:
canonical text reaches it as one numpy table, and any other text, or any
that fails a line check, first goes through the line parser, which checks
each line in order, writes every per-line diagnostic and returns the
checked rows.  The network writer raises the end-of-file diagnostics.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import re
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

NETWORK_KINDS = ("weighted", "binary")
SYMMETRIZE_MODES = ("sum", "max", "strict")
NORMALIZE_MODES = ("none", "max", "total")


class DataFormatError(ValueError):
    """An input stream violates the expected format (message carries the line number)."""


class EmptyDataError(ValueError):
    """An operation that needs at least one adoption got an all-zero matrix."""


def artifact_json(obj: object) -> str:
    """The text of a JSON artifact: sorted keys and no whitespace, no final newline.

    Without ``indent`` json.dumps runs CPython's C encoder, about three
    times faster than the pure-Python one; ``python3 -m json.tool FILE``
    pretty-prints the result.  Every JSON file the package writes is
    encoded here.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def frozen(value: object, dtype: type, *, in_place: bool = False) -> np.ndarray:
    """``value`` as a read-only array of ``dtype``: the one way a holder takes an array.

    An array the caller can still write to is copied and the copy frozen,
    so a later write on either side never reaches the other.  A read-only
    array is kept as it is, so a holder built from another holder's blocks
    shares them.  ``in_place=True`` takes a writable array over instead and
    freezes it without the copy: a loader's new matrix, or a network's weights.
    """
    keep = in_place or (isinstance(value, np.ndarray) and not value.flags.writeable)
    arr = (np.asarray if keep else np.array)(value, dtype=dtype)
    arr.setflags(write=False)
    return arr


def hold(holder: object, *, in_place: bool = False, **dtypes: type) -> None:
    """Take each named array field of a frozen dataclass through frozen; None stays None."""
    for name, dtype in dtypes.items():
        value = getattr(holder, name)
        if value is not None:
            object.__setattr__(holder, name, frozen(value, dtype, in_place=in_place))


@dataclass(frozen=True)
class CandidateNetwork:
    """One candidate social network over the shared user universe.

    weights must be square, symmetric, non-negative with a zero diagonal;
    binary networks additionally restrict weights to {0, 1}.  The network
    takes a writable matrix over, frozen in place, where other holders copy:
    a caller that keeps its (U, U) matrices would otherwise hold each twice.
    """

    num_users: int
    weights: np.ndarray
    name: str = ""
    kind: str = "weighted"

    def __post_init__(self) -> None:
        hold(self, in_place=True, weights=float)
        w = self.weights
        if w.shape != (self.num_users, self.num_users):
            raise ValueError(
                f"network {self.name!r}: weight matrix shape {w.shape} does not match "
                f"num_users={self.num_users}"
            )
        if self.kind not in NETWORK_KINDS:
            raise ValueError(f"network {self.name!r}: unknown kind {self.kind!r}")
        # min and max propagate NaN and reach any infinity, with no temporary
        lowest, highest = w.min(initial=0.0), w.max(initial=0.0)
        if not (math.isfinite(lowest) and math.isfinite(highest)):
            raise ValueError(f"network {self.name!r}: non-finite weight")
        if lowest < 0:
            raise ValueError(f"network {self.name!r}: negative weight")
        if np.any(np.diagonal(w) != 0):
            raise ValueError(f"network {self.name!r}: non-zero diagonal (self-loop)")
        if not np.array_equal(w, w.T):
            raise ValueError(f"network {self.name!r}: weight matrix is not symmetric")
        if self.kind == "binary" and not np.all((w == 0) | (w == 1)):
            raise ValueError(f"network {self.name!r}: binary network with weight outside {{0, 1}}")


@dataclass(frozen=True)
class AdoptionMatrix:
    """Binary user x app adoption matrix with optional install timestamps.

    installed is (num_users, num_apps) bool; install_times is float with NaN
    where no timestamp was recorded.  Timestamps may exist only on installed
    cells.  Both are taken through frozen, which copies a writable matrix.
    """

    num_users: int
    num_apps: int
    installed: np.ndarray
    install_times: np.ndarray | None = None

    def __post_init__(self) -> None:
        hold(self, installed=bool, install_times=float)
        x, t = self.installed, self.install_times
        if x.shape != (self.num_users, self.num_apps):
            raise ValueError(
                f"adoption matrix shape {x.shape} does not match "
                f"({self.num_users}, {self.num_apps})"
            )
        if t is not None:
            if t.shape != x.shape:
                raise ValueError("install_times shape does not match installed")
            if np.any(np.isfinite(t) & ~x):
                raise ValueError("timestamp present on a cell that is not installed")

    def adopters_of(self, app: int) -> np.ndarray:
        return np.flatnonzero(self.installed[:, app])

    def counts_per_app(self) -> np.ndarray:
        return self.installed.sum(axis=0)

    def counts_per_user(self) -> np.ndarray:
        return self.installed.sum(axis=1)


@dataclass(frozen=True)
class NetworkStack:
    """The candidate networks fed to the model, plus the optional popularity channel.

    popularity, when present, is a per-app non-negative vector (typically the
    install counts visible to the training run).
    """

    networks: tuple[CandidateNetwork, ...]
    popularity: np.ndarray | None = None

    def __post_init__(self) -> None:
        nets = tuple(self.networks)
        if not nets:
            raise ValueError("a stack needs at least one network")
        users = {g.num_users for g in nets}
        if len(users) != 1:
            raise ValueError(f"networks disagree on the user universe: {sorted(users)}")
        object.__setattr__(self, "networks", nets)
        hold(self, popularity=float)
        c = self.popularity
        if c is not None:
            if c.ndim != 1:
                raise ValueError("popularity must be a per-app vector")
            if np.any(~np.isfinite(c)) or np.any(c < 0):
                raise ValueError("popularity values must be finite and non-negative")

    @property
    def num_networks(self) -> int:
        return len(self.networks)

    @property
    def num_users(self) -> int:
        return self.networks[0].num_users


@dataclass(frozen=True)
class Dataset:
    """Candidate networks plus the adoption matrix they explain."""

    networks: NetworkStack
    adoptions: AdoptionMatrix

    def __post_init__(self) -> None:
        if self.networks.num_users != self.adoptions.num_users:
            raise ValueError("networks and adoptions disagree on the user count")

    def fingerprint(self) -> str:
        """sha256 over all weights, adoption bits and timestamps."""
        h = hashlib.sha256()
        for g in self.networks.networks:
            h.update(g.name.encode())
            h.update(g.weights.tobytes())
        if self.networks.popularity is not None:
            h.update(self.networks.popularity.tobytes())
        h.update(self.adoptions.installed.tobytes())
        if self.adoptions.install_times is not None:
            h.update(self.adoptions.install_times.tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class DatasetStats:
    """Adoption summary: degree histograms and the exponential activity rate."""

    num_users: int
    num_apps: int
    users_per_app: dict[int, int]
    apps_per_user: dict[int, int]
    mean_apps_per_user: float
    exp_rate: float

    def to_json(self) -> str:
        payload = {
            "num_users": self.num_users,
            "num_apps": self.num_apps,
            "users_per_app": [[int(k), int(v)] for k, v in sorted(self.users_per_app.items())],
            "apps_per_user": [[int(k), int(v)] for k, v in sorted(self.apps_per_user.items())],
            "mean_apps_per_user": self.mean_apps_per_user,
            "exp_rate": self.exp_rate,
        }
        return artifact_json(payload)


def _read(text: str | IO[str] | Iterable[str]) -> str | Iterable[str]:
    return text.read() if hasattr(text, "read") else text  # type: ignore[union-attr]


# a comment starts at a `#` that opens the line or follows whitespace: `out#1` is a value
_COMMENT = re.compile(r"(?:^|\s)#")


def _lines(text: str | Iterable[str]) -> Iterable[tuple[int, str]]:
    if isinstance(text, str):
        text = text.splitlines()
    for lineno, raw in enumerate(text, start=1):
        line = _COMMENT.split(raw, maxsplit=1)[0].strip() if "#" in raw else raw.strip()
        if line:
            yield lineno, line


# Byte classes of a canonical data text: ids are digits, the optional third
# field may also hold the other characters of a float literal.  The table is
# for bytes.translate (0 for any other byte), which classifies in C without
# the intp index array that a numpy lookup would build.
_DIGIT, _SEPARATOR, _FLOAT_CHAR = 1, 2, 3
_BYTE_CLASS = bytes(
    _DIGIT if byte in b"0123456789"
    else _SEPARATOR if byte in b",\n"
    else _FLOAT_CHAR if byte in b".eE+-"
    else 0
    for byte in range(256)
)


def _bulk_table(text: str | Iterable[str]) -> np.ndarray | None:
    """The (n, k) float table of a canonical data text, or None.

    Canonical means: k is 2 or 3 on every line, the first two fields are
    ASCII digits, lines end in `\\n` (the last one may not), and there are no
    spaces, `#` comments, blank lines or empty fields.  The third field is
    parsed by numpy's text reader, which rounds exactly as ``float`` does.
    Any other text, including a line iterable, is left to the line parser.
    """
    if not isinstance(text, str) or not text or not text.isascii():
        return None
    if not text.endswith("\n"):
        text += "\n"
    raw = text.encode("ascii")
    buf = np.frombuffer(raw, dtype=np.uint8)
    cls = np.frombuffer(raw.translate(_BYTE_CLASS), dtype=np.uint8)
    if not cls.all():
        return None
    sep = np.flatnonzero(cls == _SEPARATOR)
    if sep[0] == 0 or np.any(np.diff(sep) == 1):
        return None  # an empty field or a blank line
    ends = buf[sep] == ord("\n")
    k = int(np.argmax(ends)) + 1
    # every line has the first line's k fields: a newline ends every k-th one
    if k not in (2, 3) or not np.array_equal(
        np.flatnonzero(ends), np.arange(k - 1, sep.size, k)
    ):
        return None
    float_chars = np.flatnonzero(cls == _FLOAT_CHAR)
    if float_chars.size and (k != 3 or np.any(np.searchsorted(sep, float_chars) % 3 != 2)):
        return None  # a non-digit inside an id
    try:
        return np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)
    except ValueError:
        return None


def _parse_id(token: str, limit: int, lineno: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise DataFormatError(f"line {lineno}: {what} {token!r} is not an integer") from None
    if not 0 <= value < limit:
        raise DataFormatError(f"line {lineno}: {what} {value} out of range [0, {limit})")
    return value


def _bulk_weights(
    table: np.ndarray, lines: np.ndarray, num_users: int, kind: str, symmetrize: str
) -> np.ndarray | None:
    """The symmetric weight matrix of an edge table whose row r is on line lines[r].

    The one network writer.  None when a row fails a line check or repeats
    a direction under strict: the line parser then names the line.  The
    rows are grouped by pair {i, j}, i < j, and the rows of each direction
    are summed (np.bincount adds in row order, as `+=` per line does) or
    maxed.  W[i, j] = W[j, i] is d_ij + d_ji under sum and the maximum
    under max, written into one zeroed (U, U) array; under strict each
    row's weight is written where it points.  The end-of-file diagnostics
    are raised here: a strict edge without its matching reverse, and a
    binary sum outside {0, 1}.
    """
    if table[:, :2].max(initial=-1) >= num_users:
        return None
    src = table[:, 0].astype(np.intp)
    dst = table[:, 1].astype(np.intp)
    weight = table[:, 2] if table.shape[1] == 3 else np.ones(len(table))
    if np.any(src == dst) or not np.all(np.isfinite(weight)) or np.any(weight < 0):
        return None
    if kind == "binary" and not np.all((weight == 0) | (weight == 1)):
        return None
    key = np.minimum(src, dst) * num_users + np.maximum(src, dst)
    order = np.argsort(key)
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[order[1:]] != key[order[:-1]]
    pairs = key[order[first]]
    pair = np.empty_like(key)
    pair[order] = np.cumsum(first) - 1
    weights = np.zeros((num_users, num_users))
    if symmetrize == "max":
        value = np.zeros(pairs.size)
        np.maximum.at(value, pair, weight)
        value += 0.0  # a -0.0 maximum reads 0.0, as the maximum from 0.0 does
    else:
        # column 0 sums the rows i -> j, column 1 the rows j -> i
        slot = 2 * pair + (src > dst)
        directed = np.bincount(slot, weights=weight, minlength=2 * pairs.size).reshape(-1, 2)
        value = directed[:, 0] + directed[:, 1]
    if symmetrize == "strict":
        if np.any(np.bincount(slot, minlength=2 * pairs.size) > 1):
            return None
        unmatched = np.flatnonzero((directed[:, 0] != directed[:, 1])[pair])
        if unmatched.size:
            r = unmatched[0]
            raise DataFormatError(
                f"line {lines[r]}: edge {src[r]},{dst[r]} has no matching symmetric "
                f"entry under strict mode"
            )
        weights[src, dst] = weight
        return weights
    if kind == "binary" and not np.all((value == 0) | (value == 1)):
        raise DataFormatError(
            "binary network: symmetrization produced a weight outside {0, 1} "
            "(use symmetrize='max' for binary edge lists)"
        )
    lo, hi = np.divmod(pairs, num_users)
    weights[lo, hi] = value
    weights[hi, lo] = value
    return weights


def _directed_lines(
    text: str | Iterable[str], num_users: int, kind: str, symmetrize: str
) -> tuple[np.ndarray, np.ndarray]:
    """The checked (src, dst, weight) rows of an edge list and their line numbers.

    The only writer of per-line diagnostics, raised in line order; under
    strict a repeated direction names both of its lines.
    """
    rows: list[tuple[int, int, float]] = []
    linenos: list[int] = []
    seen_line: dict[tuple[int, int], int] = {}
    for lineno, line in _lines(text):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) not in (2, 3):
            raise DataFormatError(
                f"line {lineno}: expected `src,dst[,weight]`, got {line!r}"
            )
        src = _parse_id(parts[0], num_users, lineno, "src id")
        dst = _parse_id(parts[1], num_users, lineno, "dst id")
        if src == dst:
            raise DataFormatError(f"line {lineno}: self-loop on user {src}")
        if len(parts) == 3:
            try:
                weight = float(parts[2])
            except ValueError:
                raise DataFormatError(
                    f"line {lineno}: weight {parts[2]!r} is not a number"
                ) from None
        else:
            weight = 1.0
        if not math.isfinite(weight):
            raise DataFormatError(f"line {lineno}: non-finite weight")
        if weight < 0:
            raise DataFormatError(f"line {lineno}: negative weight {weight}")
        if kind == "binary" and weight not in (0.0, 1.0):
            raise DataFormatError(
                f"line {lineno}: binary network weight must be 0 or 1, got {weight}"
            )
        if symmetrize == "strict":
            if (src, dst) in seen_line:
                raise DataFormatError(
                    f"line {lineno}: duplicate edge {src},{dst} under strict mode "
                    f"(first seen on line {seen_line[(src, dst)]})"
                )
            seen_line[(src, dst)] = lineno
        rows.append((src, dst, weight))
        linenos.append(lineno)
    return np.array(rows, dtype=float).reshape(-1, 3), np.array(linenos, dtype=np.intp)


def load_network_edge_list(
    text: str | IO[str] | Iterable[str],
    num_users: int,
    kind: str = "weighted",
    symmetrize: str = "sum",
    name: str = "",
) -> CandidateNetwork:
    """Parse a `src,dst,weight` edge list into a CandidateNetwork.

    The weight field may be omitted (defaults to 1.0); `#` starts a comment.
    Ids are dense and 0-based.  Under ``sum`` the two directions accumulate,
    under ``max`` the larger entry wins, and ``strict`` requires the input to
    be given symmetrically and rejects any one-sided or conflicting pair.
    Self-loops, negative weights and out-of-range ids are rejected with the
    offending line number.
    """
    if kind not in NETWORK_KINDS:
        raise ValueError(f"unknown network kind {kind!r}")
    if symmetrize not in SYMMETRIZE_MODES:
        raise ValueError(f"unknown symmetrize mode {symmetrize!r}")
    text = _read(text)
    table = _bulk_table(text)
    weights = None
    if table is not None:
        lines = np.arange(1, len(table) + 1)
        weights = _bulk_weights(table, lines, num_users, kind, symmetrize)
    if weights is None:
        table, lines = _directed_lines(text, num_users, kind, symmetrize)
        weights = _bulk_weights(table, lines, num_users, kind, symmetrize)
    return CandidateNetwork(num_users=num_users, weights=weights, name=name, kind=kind)


def network_edge_lines(g: CandidateNetwork) -> list[str]:
    """Canonical edge-list serialization: one `i,j,w` line per upper-triangle edge."""
    rows, cols = np.nonzero(np.triu(g.weights, k=1))
    return [
        f"{i},{j},{float(g.weights[i, j])!r}"
        for i, j in zip(rows.tolist(), cols.tolist())
    ]


def _bulk_adoptions(
    table: np.ndarray, num_users: int, num_apps: int
) -> tuple[np.ndarray, np.ndarray | None] | None:
    """(installed, times) of a `user, app[, stamp]` table, NaN for a missing stamp.

    The one adoption writer.  None when a row fails a line check or a
    repeated cell disagrees on its stamp: the line parser then names the
    lines.  A repeated cell keeps its first row's stamp, bit for bit.
    times is None when no row carries a stamp.
    """
    if table[:, 0].max(initial=-1) >= num_users or table[:, 1].max(initial=-1) >= num_apps:
        return None
    # the index arrays are reversed copies, so numpy writes the rows last to
    # first and the first row of a repeated cell is the one that stays
    user = table[::-1, 0].astype(np.intp)
    app = table[::-1, 1].astype(np.intp)
    installed = np.zeros((num_users, num_apps), dtype=bool)
    installed[user, app] = True
    if table.shape[1] == 2 or np.all(np.isnan(table[:, 2])):
        return installed, None
    stamp = table[::-1, 2]
    if np.any(np.isinf(stamp)):
        return None
    times = np.full((num_users, num_apps), np.nan)
    times[user, app] = stamp
    # a repeat that disagrees reads back its cell's other stamp
    if not np.array_equal(times[user, app], stamp, equal_nan=True):
        return None
    return installed, times


def _adoptions_lines(text: str | Iterable[str], num_users: int, num_apps: int) -> np.ndarray:
    """The checked (user, app, stamp) rows of an adoption log, NaN for no stamp.

    The only writer of per-line diagnostics, raised in line order.  A
    repeated cell keeps its first line; a repeat with another stamp (or
    none where the first had one) names both lines.
    """
    rows: list[tuple[int, int, float]] = []
    seen: dict[tuple[int, int], tuple[float | None, int]] = {}
    for lineno, line in _lines(text):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) not in (2, 3):
            raise DataFormatError(
                f"line {lineno}: expected `user,app[,timestamp]`, got {line!r}"
            )
        user = _parse_id(parts[0], num_users, lineno, "user id")
        app = _parse_id(parts[1], num_apps, lineno, "app id")
        stamp: float | None = None
        if len(parts) == 3:
            try:
                stamp = float(parts[2])
            except ValueError:
                raise DataFormatError(
                    f"line {lineno}: timestamp {parts[2]!r} is not a number"
                ) from None
            if not math.isfinite(stamp):
                raise DataFormatError(f"line {lineno}: non-finite timestamp")
        key = (user, app)
        if key in seen:
            prev_stamp, prev_line = seen[key]
            if prev_stamp != stamp:
                raise DataFormatError(
                    f"line {lineno}: duplicate entry {user},{app} conflicts with "
                    f"line {prev_line} (timestamps {prev_stamp} vs {stamp})"
                )
            continue
        seen[key] = (stamp, lineno)
        rows.append((user, app, math.nan if stamp is None else stamp))
    return np.array(rows, dtype=float).reshape(-1, 3)


def load_adoptions(
    text: str | IO[str] | Iterable[str],
    num_users: int,
    num_apps: int,
) -> AdoptionMatrix:
    """Parse `user,app[,timestamp]` lines into an AdoptionMatrix.

    Identical duplicate lines collapse to one entry; duplicates that disagree
    on the timestamp (including present-vs-absent) are rejected.  Ids are
    dense and 0-based; out-of-range ids are rejected with line numbers.
    """
    text = _read(text)
    table = _bulk_table(text)
    parsed = None if table is None else _bulk_adoptions(table, num_users, num_apps)
    if parsed is None:
        rows = _adoptions_lines(text, num_users, num_apps)
        parsed = _bulk_adoptions(rows, num_users, num_apps)
    installed, times = parsed
    return AdoptionMatrix(
        num_users=num_users,
        num_apps=num_apps,
        installed=frozen(installed, bool, in_place=True),
        install_times=None if times is None else frozen(times, float, in_place=True),
    )


def adoption_lines(m: AdoptionMatrix) -> list[str]:
    """Serialize an AdoptionMatrix back to `user,app[,timestamp]` lines."""
    users, apps = np.nonzero(m.installed)
    cells = zip(users.tolist(), apps.tolist())
    if m.install_times is None:
        return [f"{u},{a}" for u, a in cells]
    stamps = m.install_times[users, apps].tolist()
    return [
        f"{u},{a},{t!r}" if math.isfinite(t) else f"{u},{a}"
        for (u, a), t in zip(cells, stamps)
    ]


def filter_min_users(
    adoptions: AdoptionMatrix, min_users: int = 2
) -> tuple[AdoptionMatrix, np.ndarray]:
    """Keep apps with at least ``min_users`` adopters, re-indexing densely.

    Returns the filtered matrix and the mapping ``kept``: new app id j came
    from original app id kept[j].
    """
    if min_users < 0:
        raise ValueError("min_users must be non-negative")
    kept = np.flatnonzero(adoptions.counts_per_app() >= min_users)
    times = None
    if adoptions.install_times is not None:
        times = frozen(adoptions.install_times[:, kept], float, in_place=True)
    return (
        AdoptionMatrix(
            num_users=adoptions.num_users,
            num_apps=int(kept.size),
            installed=frozen(adoptions.installed[:, kept], bool, in_place=True),
            install_times=times,
        ),
        kept,
    )


def normalize_network(g: CandidateNetwork, mode: str = "max") -> CandidateNetwork:
    """Rescale weights: ``max`` divides by the largest weight, ``total`` by the sum.

    A network with no edges passes through unchanged; ``none`` is the identity.
    The result of ``total`` keeps the binary kind only if weights stay in {0, 1}.
    """
    if mode not in NORMALIZE_MODES:
        raise ValueError(f"unknown normalize mode {mode!r}")
    if mode == "none":
        return g
    denom = g.weights.max() if mode == "max" else g.weights.sum()
    if denom == 0:
        return g
    kind = g.kind
    scaled = g.weights / denom
    if kind == "binary" and not np.all((scaled == 0) | (scaled == 1)):
        kind = "weighted"
    return CandidateNetwork(num_users=g.num_users, weights=scaled, name=g.name, kind=kind)


def popularity_counts(
    adoptions: AdoptionMatrix, visible_users: Sequence[int] | np.ndarray | None = None
) -> np.ndarray:
    """Per-app install counts among ``visible_users`` (all users when None)."""
    if visible_users is None:
        return adoptions.installed.sum(axis=0).astype(float)
    visible = np.asarray(visible_users, dtype=int)
    if visible.size and (visible.min() < 0 or visible.max() >= adoptions.num_users):
        raise ValueError("visible_users contains an out-of-range id")
    return adoptions.installed[visible, :].sum(axis=0).astype(float)


def dataset_stats(adoptions: AdoptionMatrix) -> DatasetStats:
    """Degree histograms plus the exponential rate fitted to apps-per-user.

    The histograms cover every app (resp. user), including zero-count ones, so
    their total mass equals num_apps (resp. num_users).  exp_rate is the
    maximum-likelihood exponential rate 1 / mean(apps per user).
    """
    per_app = adoptions.counts_per_app()
    per_user = adoptions.counts_per_user()
    if per_user.sum() == 0:
        raise EmptyDataError("adoption matrix has no installs")
    upa = {int(k): int(v) for k, v in zip(*np.unique(per_app, return_counts=True))}
    apu = {int(k): int(v) for k, v in zip(*np.unique(per_user, return_counts=True))}
    mean = float(per_user.mean())
    return DatasetStats(
        num_users=adoptions.num_users,
        num_apps=adoptions.num_apps,
        users_per_app=upa,
        apps_per_user=apu,
        mean_apps_per_user=mean,
        exp_rate=1.0 / mean,
    )
