"""Data model, loaders, and descriptive statistics."""
from __future__ import annotations

import io
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from adoptnet import data
from adoptnet.data import (
    NETWORK_KINDS,
    SYMMETRIZE_MODES,
    AdoptionMatrix,
    CandidateNetwork,
    DataFormatError,
    EmptyDataError,
    NetworkStack,
    adoption_lines,
    dataset_stats,
    filter_min_users,
    load_adoptions,
    load_network_edge_list,
    network_edge_lines,
    normalize_network,
    popularity_counts,
)


def square(entries, n):
    w = np.zeros((n, n))
    for i, j, v in entries:
        w[i, j] = w[j, i] = v
    return w


class TestCandidateNetwork:
    def test_valid_construction_freezes_weights(self):
        g = CandidateNetwork(num_users=3, weights=square([(0, 1, 2.0)], 3), name="g")
        with pytest.raises(ValueError):
            g.weights[0, 1] = 5.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            CandidateNetwork(num_users=3, weights=np.zeros((2, 2)))

    def test_asymmetric_rejected(self):
        w = np.zeros((2, 2))
        w[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            CandidateNetwork(num_users=2, weights=w)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            CandidateNetwork(num_users=2, weights=square([(0, 1, -1.0)], 2))

    def test_self_loop_rejected(self):
        w = np.zeros((2, 2))
        w[0, 0] = 1.0
        with pytest.raises(ValueError, match="diagonal"):
            CandidateNetwork(num_users=2, weights=w)

    def test_binary_kind_enforced(self):
        with pytest.raises(ValueError, match="binary"):
            CandidateNetwork(num_users=2, weights=square([(0, 1, 2.0)], 2), kind="binary")
        g = CandidateNetwork(num_users=2, weights=square([(0, 1, 1.0)], 2), kind="binary")
        assert g.kind == "binary"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            CandidateNetwork(num_users=2, weights=square([(0, 1, np.inf)], 2))


class TestAdoptionMatrix:
    def test_timestamp_only_on_installed(self):
        installed = np.zeros((2, 2), dtype=bool)
        installed[0, 0] = True
        times = np.full((2, 2), np.nan)
        times[1, 1] = 3.0
        with pytest.raises(ValueError, match="not installed"):
            AdoptionMatrix(num_users=2, num_apps=2, installed=installed, install_times=times)

    def test_counts(self):
        installed = np.array([[True, True, False], [False, True, False]])
        m = AdoptionMatrix(num_users=2, num_apps=3, installed=installed)
        assert m.counts_per_app().tolist() == [1, 2, 0]
        assert m.counts_per_user().tolist() == [2, 1]
        assert m.adopters_of(1).tolist() == [0, 1]


class TestNetworkStack:
    def test_user_universe_must_agree(self):
        g2 = CandidateNetwork(num_users=2, weights=np.zeros((2, 2)))
        g3 = CandidateNetwork(num_users=3, weights=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="user universe"):
            NetworkStack(networks=(g2, g3))

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            NetworkStack(networks=())

    def test_caller_popularity_stays_writable_and_detached(self):
        g = CandidateNetwork(num_users=2, weights=np.zeros((2, 2)))
        pop = np.array([1.0, 2.0])
        stack = NetworkStack(networks=(g,), popularity=pop)
        pop[0] = 9.0
        assert stack.popularity.tolist() == [1.0, 2.0]
        assert not stack.popularity.flags.writeable

    def test_negative_popularity_rejected(self):
        g = CandidateNetwork(num_users=2, weights=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="non-negative"):
            NetworkStack(networks=(g,), popularity=np.array([1.0, -1.0]))


class TestLoadNetworkEdgeList:
    def test_single_edge_mirrored(self):
        g = load_network_edge_list("0,1,2.0", num_users=2)
        assert g.weights[0, 1] == 2.0 and g.weights[1, 0] == 2.0

    def test_sum_combines_directions(self):
        g = load_network_edge_list("0,1,2.0\n1,0,3.0", num_users=2, symmetrize="sum")
        assert g.weights[0, 1] == 5.0

    def test_max_takes_larger(self):
        g = load_network_edge_list("0,1,2.0\n1,0,3.0", num_users=2, symmetrize="max")
        assert g.weights[0, 1] == 3.0

    def test_strict_requires_matching_pair(self):
        g = load_network_edge_list("0,1,2.0\n1,0,2.0", num_users=2, symmetrize="strict")
        assert g.weights[0, 1] == 2.0
        with pytest.raises(DataFormatError, match="symmetric"):
            load_network_edge_list("0,1,2.0", num_users=2, symmetrize="strict")
        with pytest.raises(DataFormatError, match="symmetric"):
            load_network_edge_list("0,1,2.0\n1,0,3.0", num_users=2, symmetrize="strict")

    def test_strict_duplicate_rejected(self):
        with pytest.raises(DataFormatError, match="duplicate"):
            load_network_edge_list("0,1,2.0\n0,1,2.0", num_users=2, symmetrize="strict")

    def test_default_weight_and_comments(self):
        g = load_network_edge_list("# header\n0,1  # trailing\n", num_users=2)
        assert g.weights[0, 1] == 1.0

    def test_negative_weight_line_numbered(self):
        with pytest.raises(DataFormatError, match="line 2.*negative"):
            load_network_edge_list("0,1,1.0\n0,1,-1.0", num_users=2)

    def test_out_of_range_id(self):
        with pytest.raises(DataFormatError, match="line 1.*range"):
            load_network_edge_list("0,5,1.0", num_users=2)

    def test_self_loop(self):
        with pytest.raises(DataFormatError, match="self-loop"):
            load_network_edge_list("1,1,1.0", num_users=2)

    def test_binary_checks_weights(self):
        with pytest.raises(DataFormatError, match="binary"):
            load_network_edge_list("0,1,0.5", num_users=2, kind="binary")
        with pytest.raises(DataFormatError, match="binary"):
            load_network_edge_list("0,1,1\n1,0,1", num_users=2, kind="binary",
                                   symmetrize="sum")
        g = load_network_edge_list("0,1,1\n1,0,1", num_users=2, kind="binary",
                                   symmetrize="max")
        assert g.weights[0, 1] == 1.0

    def test_round_trip_random(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            density = rng.uniform(0.1, 0.6)
            w = np.triu(rng.random((n, n)) * (rng.random((n, n)) < density), k=1)
            w = w + w.T
            g = CandidateNetwork(num_users=n, weights=w, name="rt")
            text = "\n".join(network_edge_lines(g))
            back = load_network_edge_list(text, num_users=n, symmetrize="max", name="rt")
            np.testing.assert_array_equal(back.weights, g.weights)


class TestLoadAdoptions:
    def test_basic_entry_with_timestamp(self):
        m = load_adoptions("3,7,1590000000", num_users=5, num_apps=10)
        assert m.installed[3, 7]
        assert m.install_times[3, 7] == 1590000000.0

    def test_empty_stream(self):
        m = load_adoptions("", num_users=3, num_apps=4)
        assert not m.installed.any()
        assert m.install_times is None

    def test_identical_duplicates_collapse(self):
        m = load_adoptions("1,2\n1,2\n", num_users=3, num_apps=4)
        assert m.installed.sum() == 1

    def test_conflicting_duplicates_rejected(self):
        with pytest.raises(DataFormatError, match="conflicts"):
            load_adoptions("1,2,5.0\n1,2,6.0", num_users=3, num_apps=4)
        with pytest.raises(DataFormatError, match="conflicts"):
            load_adoptions("1,2,5.0\n1,2", num_users=3, num_apps=4)

    def test_out_of_range(self):
        with pytest.raises(DataFormatError, match="range"):
            load_adoptions("9,0", num_users=3, num_apps=4)
        with pytest.raises(DataFormatError, match="range"):
            load_adoptions("0,9", num_users=3, num_apps=4)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        installed = rng.random((6, 9)) < 0.3
        times = np.where(installed, rng.integers(0, 100, (6, 9)).astype(float), np.nan)
        m = AdoptionMatrix(num_users=6, num_apps=9, installed=installed, install_times=times)
        back = load_adoptions("\n".join(adoption_lines(m)), num_users=6, num_apps=9)
        np.testing.assert_array_equal(back.installed, m.installed)
        np.testing.assert_array_equal(back.install_times, m.install_times)


class TestFilterMinUsers:
    def test_direct_count(self):
        installed = np.array([[1, 0], [1, 0], [1, 1]], dtype=bool)
        m = AdoptionMatrix(num_users=3, num_apps=2, installed=installed)
        kept_m, kept = filter_min_users(m, 2)
        assert kept.tolist() == [0]
        assert kept_m.num_apps == 1

    def test_min_one_keeps_adopted(self):
        installed = np.array([[1, 0, 1]], dtype=bool)
        m = AdoptionMatrix(num_users=1, num_apps=3, installed=installed)
        kept_m, kept = filter_min_users(m, 1)
        assert kept.tolist() == [0, 2]

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        installed = rng.random((10, 20)) < 0.2
        m = AdoptionMatrix(num_users=10, num_apps=20, installed=installed)
        once, _ = filter_min_users(m, 2)
        twice, kept = filter_min_users(once, 2)
        np.testing.assert_array_equal(twice.installed, once.installed)
        assert kept.tolist() == list(range(once.num_apps))


class TestNormalizeNetwork:
    def test_max_divides_by_largest(self):
        g = CandidateNetwork(num_users=3, weights=square([(0, 1, 2.0), (1, 2, 4.0)], 3))
        out = normalize_network(g, "max")
        assert out.weights[0, 1] == 0.5 and out.weights[1, 2] == 1.0

    def test_total_divides_by_sum(self):
        g = CandidateNetwork(num_users=2, weights=square([(0, 1, 2.0)], 2))
        out = normalize_network(g, "total")
        # the sum counts both triangle copies
        assert out.weights[0, 1] == 0.5

    def test_all_zero_unchanged(self):
        g = CandidateNetwork(num_users=2, weights=np.zeros((2, 2)))
        out = normalize_network(g, "max")
        np.testing.assert_array_equal(out.weights, g.weights)

    def test_binary_max_is_identity(self):
        g = CandidateNetwork(num_users=2, weights=square([(0, 1, 1.0)], 2), kind="binary")
        out = normalize_network(g, "max")
        np.testing.assert_array_equal(out.weights, g.weights)
        assert out.kind == "binary"

    def test_none_is_identity(self):
        g = CandidateNetwork(num_users=2, weights=square([(0, 1, 3.0)], 2))
        assert normalize_network(g, "none") is g


class TestPopularityCounts:
    def test_subset_intersection(self):
        installed = np.zeros((6, 1), dtype=bool)
        installed[[1, 2, 5], 0] = True
        m = AdoptionMatrix(num_users=6, num_apps=1, installed=installed)
        assert popularity_counts(m, [1, 2, 3]).tolist() == [2.0]

    def test_empty_visible(self):
        installed = np.ones((3, 2), dtype=bool)
        m = AdoptionMatrix(num_users=3, num_apps=2, installed=installed)
        assert popularity_counts(m, []).tolist() == [0.0, 0.0]

    def test_all_users_equals_column_sums(self):
        rng = np.random.default_rng(11)
        installed = rng.random((8, 14)) < 0.4
        m = AdoptionMatrix(num_users=8, num_apps=14, installed=installed)
        np.testing.assert_array_equal(
            popularity_counts(m), installed.sum(axis=0).astype(float)
        )
        np.testing.assert_array_equal(
            popularity_counts(m, np.arange(8)), installed.sum(axis=0).astype(float)
        )


class TestDatasetStats:
    def test_two_user_example(self):
        installed = np.zeros((2, 4), dtype=bool)
        installed[0, :3] = True
        installed[1, 0] = True
        m = AdoptionMatrix(num_users=2, num_apps=4, installed=installed)
        st = dataset_stats(m)
        assert st.apps_per_user == {1: 1, 3: 1}
        assert st.exp_rate == 0.5
        assert st.mean_apps_per_user == 2.0

    def test_single_app_histogram(self):
        installed = np.ones((4, 1), dtype=bool)
        m = AdoptionMatrix(num_users=4, num_apps=1, installed=installed)
        assert dataset_stats(m).users_per_app == {4: 1}

    def test_histogram_mass(self):
        rng = np.random.default_rng(5)
        installed = rng.random((9, 13)) < 0.3
        installed[0, 0] = True
        m = AdoptionMatrix(num_users=9, num_apps=13, installed=installed)
        st = dataset_stats(m)
        assert sum(st.users_per_app.values()) == 13
        assert sum(st.apps_per_user.values()) == 9

    def test_empty_matrix_rejected(self):
        m = AdoptionMatrix(num_users=2, num_apps=2, installed=np.zeros((2, 2), dtype=bool))
        with pytest.raises(EmptyDataError):
            dataset_stats(m)

    def test_json_round_trips(self):
        import json

        installed = np.ones((2, 2), dtype=bool)
        m = AdoptionMatrix(num_users=2, num_apps=2, installed=installed)
        payload = json.loads(dataset_stats(m).to_json())
        assert payload["num_users"] == 2
        assert payload["users_per_app"] == [[2, 2]]


def message_of(call):
    with pytest.raises(DataFormatError) as exc:
        call()
    return str(exc.value)


class TestLoaderDiagnostics:
    """The exact text of each per-line diagnostic."""

    def test_wrong_field_count(self):
        assert message_of(lambda: load_network_edge_list("0,1\n0,1,2,3", 3)) == (
            "line 2: expected `src,dst[,weight]`, got '0,1,2,3'"
        )
        assert message_of(lambda: load_network_edge_list("0", 3)) == (
            "line 1: expected `src,dst[,weight]`, got '0'"
        )
        assert message_of(lambda: load_adoptions("1,2,3,4", 3, 4)) == (
            "line 1: expected `user,app[,timestamp]`, got '1,2,3,4'"
        )
        assert message_of(lambda: load_adoptions("1,2\n\n1", 3, 4)) == (
            "line 3: expected `user,app[,timestamp]`, got '1'"
        )

    @pytest.mark.parametrize("token", ["1.0", "1e2", "x"])
    def test_non_integer_id(self, token):
        assert message_of(lambda: load_network_edge_list(f"0,2\n{token},0", 3)) == (
            f"line 2: src id {token!r} is not an integer"
        )
        assert message_of(lambda: load_network_edge_list(f"0,{token},1.0", 3)) == (
            f"line 1: dst id {token!r} is not an integer"
        )
        assert message_of(lambda: load_adoptions(f"# h\n{token},1", 3, 4)) == (
            f"line 2: user id {token!r} is not an integer"
        )
        assert message_of(lambda: load_adoptions(f"0,{token},5.0", 3, 4)) == (
            f"line 1: app id {token!r} is not an integer"
        )

    @pytest.mark.parametrize("token", ["abc", "1e", "0x1p3"])
    def test_value_not_a_number(self, token):
        assert message_of(lambda: load_network_edge_list(f"0,1,1.0\n1,2,{token}", 3)) == (
            f"line 2: weight {token!r} is not a number"
        )
        assert message_of(lambda: load_adoptions(f"0,1,{token}", 3, 4)) == (
            f"line 1: timestamp {token!r} is not a number"
        )

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value(self, token):
        assert message_of(lambda: load_network_edge_list(f"0,1,{token}", 3)) == (
            "line 1: non-finite weight"
        )
        assert message_of(lambda: load_adoptions(f"0,1,2.0\n1,1,{token}\n", 3, 4)) == (
            "line 2: non-finite timestamp"
        )


class TestGluedHash:
    """A `#` glued to a field is part of it, so the field fails its check."""

    def test_glued_hash_fails_the_field_check_with_its_line(self):
        text = "# header\n0,1 # a comment\n1,2,2.0#x\n"
        assert message_of(lambda: load_network_edge_list(text, num_users=3)) == (
            "line 3: weight '2.0#x' is not a number"
        )
        assert message_of(lambda: load_adoptions("0,1\n1,2#x\n", 3, 4)) == (
            "line 2: app id '2#x' is not an integer"
        )


class TestLenientSyntax:
    """Input outside the canonical form still parses as the line parser reads it."""

    def test_edge_list_whitespace_comments_blank_lines_crlf(self):
        text = "# header\r\n 0 , 1 , 2.5 \r\n\r\n1,2\t# tail\r\n2 ,0,0.5"
        g = load_network_edge_list(text, num_users=3)
        np.testing.assert_array_equal(
            g.weights, square([(0, 1, 2.5), (1, 2, 1.0), (0, 2, 0.5)], 3)
        )

    def test_edge_list_mixed_field_counts(self):
        g = load_network_edge_list("0,1\n1,2,3.0\n", num_users=3)
        np.testing.assert_array_equal(g.weights, square([(0, 1, 1.0), (1, 2, 3.0)], 3))

    def test_missing_final_newline(self):
        with_newline = load_network_edge_list("0,1,2.0\n1,2,4.0\n", num_users=3)
        without = load_network_edge_list("0,1,2.0\n1,2,4.0", num_users=3)
        np.testing.assert_array_equal(without.weights, with_newline.weights)
        m = load_adoptions("0,1,2.0\n2,3,4.0", num_users=3, num_apps=4)
        assert m.installed.sum() == 2 and m.install_times[2, 3] == 4.0

    def test_adoptions_whitespace_comments_blank_lines_crlf(self):
        text = "  2 , 3 , 15 \r\n# note\r\n\r\n1,2  # no timestamp\r\n2,3,15.0"
        m = load_adoptions(text, num_users=3, num_apps=4)
        assert np.flatnonzero(m.installed).tolist() == [6, 11]
        assert m.install_times[2, 3] == 15.0
        assert np.isnan(m.install_times[1, 2])

    def test_file_objects_and_line_iterables(self):
        text = "0,1,2.0\n1,2,4.0\n"
        expected = load_network_edge_list(text, num_users=3).weights
        for source in (io.StringIO(text), text.splitlines()):
            g = load_network_edge_list(source, num_users=3)
            np.testing.assert_array_equal(g.weights, expected)
        m = load_adoptions(io.StringIO("0,1\n2,3\n"), num_users=3, num_apps=4)
        assert m.installed.sum() == 2 and m.install_times is None


def oracle_edge_list(text, num_users, kind="weighted", symmetrize="sum", name=""):
    """The reference network loader: each line parsed and checked in order into
    a dense directed matrix, which is symmetrized after the last line."""
    directed = np.zeros((num_users, num_users), dtype=float)
    seen_line = {}
    for lineno, line in data._lines(text):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) not in (2, 3):
            raise DataFormatError(
                f"line {lineno}: expected `src,dst[,weight]`, got {line!r}"
            )
        src = oracle_id(parts[0], num_users, lineno, "src id")
        dst = oracle_id(parts[1], num_users, lineno, "dst id")
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
            directed[src, dst] = weight
        elif symmetrize == "sum":
            directed[src, dst] += weight
        else:  # max
            directed[src, dst] = max(directed[src, dst], weight)

    if symmetrize == "strict":
        for (src, dst), lineno in sorted(seen_line.items(), key=lambda kv: kv[1]):
            if directed[dst, src] != directed[src, dst]:
                raise DataFormatError(
                    f"line {lineno}: edge {src},{dst} has no matching symmetric entry "
                    f"under strict mode"
                )
        weights = directed
    elif symmetrize == "sum":
        weights = directed + directed.T
    else:
        weights = np.maximum(directed, directed.T)
    if kind == "binary" and not np.all((weights == 0) | (weights == 1)):
        raise DataFormatError(
            "binary network: symmetrization produced a weight outside {0, 1} "
            "(use symmetrize='max' for binary edge lists)"
        )
    return CandidateNetwork(num_users=num_users, weights=weights, name=name, kind=kind)


def oracle_adoptions(text, num_users, num_apps):
    """The reference adoption loader: each line parsed, checked and written in order."""
    installed = np.zeros((num_users, num_apps), dtype=bool)
    times = np.full((num_users, num_apps), np.nan)
    seen = {}
    any_time = False
    for lineno, line in data._lines(text):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) not in (2, 3):
            raise DataFormatError(
                f"line {lineno}: expected `user,app[,timestamp]`, got {line!r}"
            )
        user = oracle_id(parts[0], num_users, lineno, "user id")
        try:
            app = int(parts[1])
        except ValueError:
            raise DataFormatError(
                f"line {lineno}: app id {parts[1]!r} is not an integer"
            ) from None
        if not 0 <= app < num_apps:
            raise DataFormatError(
                f"line {lineno}: app id {app} out of range [0, {num_apps})"
            )
        stamp = None
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
        installed[user, app] = True
        if stamp is not None:
            times[user, app] = stamp
            any_time = True
    return AdoptionMatrix(num_users=num_users, num_apps=num_apps, installed=installed,
                          install_times=times if any_time else None)


def oracle_id(token, num_users, lineno, what):
    try:
        value = int(token)
    except ValueError:
        raise DataFormatError(f"line {lineno}: {what} {token!r} is not an integer") from None
    if not 0 <= value < num_users:
        raise DataFormatError(
            f"line {lineno}: {what} {value} out of range [0, {num_users})"
        )
    return value


EDGE_WEIGHTS = ["1", "0", "-0.0", "2", "0.1", "0.2", "0.3", "0.7", "1e-3", "2.5E+2", "7.", ".5"]
BAD_WEIGHTS = ["-1", "+1", "nan", "inf", "1e999", "x", "1_0", "1e", "", " 1"]
BAD_IDS = ["1.0", "1e2", "x", "+1", "-1", "", " 1", "01", "٣"]
STAMPS = ["0.0", "-0.0", "5", "-3", "12.25", "1.5e9", "3E-2"]
BAD_STAMPS = ["nan", "inf", "1e999", "abc", "1e", "", " 7"]


def _fields_text(rng, rows, corruptions):
    """Comma-joined rows: 30% of the texts get one random corruption, 30% two."""
    rows = [list(r) for r in rows]
    faults = int(rng.choice(3, p=[0.4, 0.3, 0.3])) if rows else 0
    for _ in range(faults):
        i = int(rng.integers(len(rows)))
        how = corruptions[int(rng.integers(len(corruptions)))]
        how(rng, rows, i)
    lines = [",".join(r) for r in rows]
    ends = "\n"
    if rng.random() < 0.1:
        lines.insert(int(rng.integers(len(lines) + 1)), rng.choice(["", "# c", "  "]))
    if rng.random() < 0.05:
        ends = "\r\n"
    text = ends.join(lines)
    return text + ends if rng.random() < 0.8 else text


def _pick(pool):
    return lambda rng: pool[int(rng.integers(len(pool)))]


def _set_field(field, pool):
    def corrupt(rng, rows, i):
        while len(rows[i]) <= field:
            rows[i].append("1")
        rows[i][field] = _pick(pool)(rng)
    return corrupt


def _spaces(rng, rows, i):
    rows[i][0] = " " + rows[i][0] + " "


def _comment(rng, rows, i):
    rows[i][-1] += " # c"


def _extra_field(rng, rows, i):
    rows[i].append("5")


def _drop_field(rng, rows, i):
    rows[i] = rows[i][:2] if len(rows[i]) == 3 else rows[i] + ["1"]


COMMON_CORRUPTIONS = [
    _set_field(0, BAD_IDS), _set_field(1, BAD_IDS), _spaces, _comment,
    _extra_field, _drop_field,
]


def random_edge_text(rng, num_users):
    pairs = [tuple(rng.choice(num_users, 2, replace=False).tolist()) for _ in range(4)]
    weight = _pick(["0", "1"] if rng.random() < 0.3 else EDGE_WEIGHTS)
    with_weight = rng.random() < 0.8
    # a third of the texts lists each pair once per direction, as strict wants
    mirrored = rng.random() < 0.3
    if mirrored:
        pairs = list(dict.fromkeys(tuple(sorted(p)) for p in pairs))
    rows = []
    for k in range(len(pairs) if mirrored else int(rng.integers(0, 10))):
        i, j = pairs[k] if mirrored else pairs[int(rng.integers(len(pairs)))]
        w = weight(rng) if rng.random() < 0.8 else repr(float(rng.random()))
        rows.append((str(i), str(j), w) if with_weight else (str(i), str(j)))
        if mirrored or rng.random() < 0.6:  # mostly with the same weight
            w2 = w if mirrored or rng.random() < 0.8 else weight(rng)
            rows.append((str(j), str(i), w2) if with_weight else (str(j), str(i)))
    order = rng.permutation(len(rows))
    rows = [rows[k] for k in order]

    def self_loop(rng, rows, i):
        rows[i][1] = rows[i][0]

    def out_of_range(rng, rows, i):
        rows[i][int(rng.integers(2))] = str(num_users)

    corruptions = COMMON_CORRUPTIONS + [
        _set_field(2, BAD_WEIGHTS), self_loop, out_of_range,
    ]
    return _fields_text(rng, rows, corruptions)


def random_adoption_text(rng, num_users, num_apps):
    cells = [(int(rng.integers(num_users)), int(rng.integers(num_apps))) for _ in range(6)]
    stamp = _pick(STAMPS)
    with_stamp = rng.random() < 0.7
    rows = []
    for _ in range(int(rng.integers(0, 12))):
        u, a = cells[int(rng.integers(len(cells)))]
        # repeated cells agree on the stamp unless this draw conflicts
        t = STAMPS[(u + a) % len(STAMPS)] if rng.random() < 0.85 else stamp(rng)
        rows.append((str(u), str(a), t) if with_stamp else (str(u), str(a)))

    def out_of_range(rng, rows, i):
        if rng.random() < 0.5:
            rows[i][0] = str(num_users)
        else:
            rows[i][1] = str(num_apps)

    corruptions = COMMON_CORRUPTIONS + [_set_field(2, BAD_STAMPS), out_of_range]
    return _fields_text(rng, rows, corruptions)


def outcome(call):
    """('ok', arrays as bytes) or (exception type, message) of one loader call."""
    try:
        value = call()
    except ValueError as e:
        return type(e), str(e)
    if isinstance(value, CandidateNetwork):
        return "ok", value.weights.tobytes()
    times = None if value.install_times is None else value.install_times.tobytes()
    return "ok", value.installed.tobytes(), times


class TestBulkParsing:
    def test_matches_line_parser(self, monkeypatch):
        rng = np.random.default_rng(2024)
        bulk_tables = 0
        for _ in range(250):
            n = int(rng.integers(2, 7))
            edges = random_edge_text(rng, n)
            log = random_adoption_text(rng, n, 5)
            bulk_tables += sum(data._bulk_table(text) is not None for text in (edges, log))
            calls = [
                (partial(load_network_edge_list, edges, n, kind=kind, symmetrize=sym),
                 partial(oracle_edge_list, edges, n, kind=kind, symmetrize=sym))
                for kind in NETWORK_KINDS
                for sym in SYMMETRIZE_MODES
            ] + [(partial(load_adoptions, log, n, 5), partial(oracle_adoptions, log, n, 5))]
            for call, oracle in calls:
                want = outcome(oracle)
                assert outcome(call) == want, call
                with monkeypatch.context() as m:
                    m.setattr(data, "_bulk_table", lambda text: None)
                    assert outcome(call) == want, call
        # about two fifths of the texts are canonical, so the bulk path is exercised
        assert bulk_tables > 150

    def test_bulk_path_parses_serialized_data(self, monkeypatch):
        def no_line_parser(*args):
            raise AssertionError("the line parser ran")

        monkeypatch.setattr(data, "_directed_lines", no_line_parser)
        monkeypatch.setattr(data, "_adoptions_lines", no_line_parser)
        rng = np.random.default_rng(9)
        n = 12
        w = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.4), k=1)
        g = CandidateNetwork(num_users=n, weights=w + w.T)
        lines = network_edge_lines(g)
        mirrored = [",".join(line.split(",")[1::-1] + line.split(",")[2:]) for line in lines]
        for sym, text in (("sum", lines), ("max", lines), ("strict", lines + mirrored)):
            back = load_network_edge_list("\n".join(text) + "\n", n, symmetrize=sym)
            np.testing.assert_array_equal(back.weights, g.weights)
        binary = CandidateNetwork(num_users=n, weights=(g.weights > 0).astype(float),
                                  kind="binary")
        text = "\n".join(network_edge_lines(binary))
        for sym in ("sum", "max"):
            back = load_network_edge_list(io.StringIO(text), n, kind="binary",
                                          symmetrize=sym)
            np.testing.assert_array_equal(back.weights, binary.weights)

        installed = rng.random((n, 7)) < 0.3
        stamps = np.where(installed, rng.random((n, 7)) * 1e9, np.nan)
        for times in (stamps, None):
            m = AdoptionMatrix(num_users=n, num_apps=7, installed=installed,
                               install_times=times)
            back = load_adoptions(io.StringIO("\n".join(adoption_lines(m)) + "\n"), n, 7)
            np.testing.assert_array_equal(back.installed, installed)
            if times is None:
                assert back.install_times is None
            else:
                np.testing.assert_array_equal(back.install_times, times)


class TestBulkWeights:
    """The bulk path writes each pair once; its sums keep the line parser's order."""

    # pair {0, 1}: 0->1 carries 0.2 and 0.3, 1->0 carries 0.1, so the sum is
    # (0.2 + 0.3) + 0.1 = 0.6, while file order would give 0.6000000000000001;
    # pair {1, 2}: 0.1 and 0.6 one way, 0.2 the other, 0.7 + 0.2 = 0.8999999999999999
    TEXT = "0,1,0.2\n1,0,0.1\n0,1,0.3\n2,1,0.1\n1,2,0.2\n2,1,0.6\n3,0,0.7\n0,3,0.7\n"

    @pytest.mark.parametrize("sym, w01, w12, w03", [
        ("sum", 0.6, 0.8999999999999999, 1.4),
        ("max", 0.3, 0.6, 0.7),
    ])
    def test_duplicate_and_two_direction_pairs(self, monkeypatch, sym, w01, w12, w03):
        assert data._bulk_table(self.TEXT) is not None
        got = load_network_edge_list(self.TEXT, 5, symmetrize=sym)
        want = square([(0, 1, w01), (1, 2, w12), (0, 3, w03)], 5)
        assert got.weights.tobytes() == want.tobytes()
        with monkeypatch.context() as m:
            m.setattr(data, "_bulk_table", lambda text: None)
            lines = load_network_edge_list(self.TEXT, 5, symmetrize=sym)
        assert got.weights.tobytes() == lines.weights.tobytes()

    def test_strict_matches_line_parser(self, monkeypatch):
        text = "0,1,0.1\n2,3,0.3\n1,0,0.1\n3,2,0.3\n4,0,0.7\n0,4,0.7\n"
        for candidate in (text, text + "0,1,0.1\n", text + "2,4,0.5\n",
                          text.replace("3,2,0.3", "3,2,0.2")):
            got = outcome(partial(load_network_edge_list, candidate, 5, symmetrize="strict"))
            with monkeypatch.context() as m:
                m.setattr(data, "_bulk_table", lambda text: None)
                want = outcome(partial(load_network_edge_list, candidate, 5,
                                       symmetrize="strict"))
            assert got == want
        back = load_network_edge_list(text, 5, symmetrize="strict")
        np.testing.assert_array_equal(
            back.weights, square([(0, 1, 0.1), (2, 3, 0.3), (0, 4, 0.7)], 5))

    def test_binary_sum_outside_zero_one_keeps_its_diagnostic(self):
        with pytest.raises(DataFormatError, match="symmetrization produced a weight"):
            load_network_edge_list("0,1\n1,0\n", 2, kind="binary")

    @pytest.mark.parametrize("header", ["", "# header\n"], ids=["canonical", "commented"])
    @pytest.mark.parametrize("sym", SYMMETRIZE_MODES)
    def test_bulk_path_allocates_one_dense_matrix(self, sym, header):
        # the weights themselves, plus the symmetry check's boolean temporary;
        # a directed matrix and its symmetrized copy would double the peak
        n = 400
        pairs = [(i, (i * 7 + 3) % n) for i in range(n) if (i * 7 + 3) % n != i]
        text = header + "".join(f"{i},{j},0.5\n{j},{i},0.5\n" for i, j in pairs)
        assert (data._bulk_table(text) is None) == bool(header)
        tracemalloc.start()
        try:
            load_network_edge_list(text, n, symmetrize=sym)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n * n


class TestNoSecondRead:
    """Canonical text that needs no diagnostic never reaches a line parser."""

    @pytest.fixture(autouse=True)
    def no_line_parser(self, monkeypatch):
        def line_parser(*args):
            raise AssertionError("the line parser ran")

        monkeypatch.setattr(data, "_directed_lines", line_parser)
        monkeypatch.setattr(data, "_adoptions_lines", line_parser)

    @pytest.mark.parametrize("text", [
        "0,1,-0.0\n1,0,-0.0\n1,2,0.5\n2,1,0.5\n",
        "0,1,-0.0\n1,0,0.0\n0,2,-0.0\n1,2,2.5\n2,1,2.5\n",
        "0,1,0\n1,2,0.5\n2,1,0.5\n",
        "2,0,-0.0\n1,2,0.5\n2,1,0.5\n",
    ], ids=["minus-zero-pair", "signed-zero-pair", "one-sided-zero", "one-sided-minus-zero"])
    @pytest.mark.parametrize("sym", SYMMETRIZE_MODES)
    def test_network(self, sym, text):
        want = outcome(partial(oracle_edge_list, text, 3, symmetrize=sym))
        assert want[0] == "ok"
        assert outcome(partial(load_network_edge_list, text, 3, symmetrize=sym)) == want

    @pytest.mark.parametrize("text", [
        "0,1,-3\n1,2,-0.0\n2,0,4.5\n",
        "0,1,-0.0\n1,2,1.0\n0,1,0.0\n",
        "0,1,0.0\n0,1,-0.0\n1,1,-0.0\n1,1,-0.0\n",
    ], ids=["negative-stamps", "minus-zero-repeated-as-zero", "zero-repeated-as-minus-zero"])
    def test_adoptions(self, text):
        want = outcome(partial(oracle_adoptions, text, 3, 4))
        assert want[0] == "ok"
        assert outcome(partial(load_adoptions, text, 3, 4)) == want


class TestCandidateNetworkMessages:
    @pytest.mark.parametrize("value, message", [
        (np.nan, "network 'g': non-finite weight"),
        (np.inf, "network 'g': non-finite weight"),
        (-np.inf, "network 'g': non-finite weight"),
        (-1.0, "network 'g': negative weight"),
    ])
    def test_bad_weight(self, value, message):
        with pytest.raises(ValueError) as info:
            CandidateNetwork(num_users=3, weights=square([(0, 1, value)], 3), name="g")
        assert str(info.value) == message

    def test_diagonal(self):
        w = np.zeros((3, 3))
        w[1, 1] = 0.5
        with pytest.raises(ValueError) as info:
            CandidateNetwork(num_users=3, weights=w, name="g")
        assert str(info.value) == "network 'g': non-zero diagonal (self-loop)"

    def test_asymmetric(self):
        w = square([(0, 2, 1.0)], 3)
        w[2, 0] = 2.0
        with pytest.raises(ValueError) as info:
            CandidateNetwork(num_users=3, weights=w, name="g")
        assert str(info.value) == "network 'g': weight matrix is not symmetric"

    def test_nan_beside_a_negative_weight_reads_non_finite(self):
        w = square([(0, 1, -1.0), (1, 2, np.nan)], 3)
        with pytest.raises(ValueError, match="non-finite"):
            CandidateNetwork(num_users=3, weights=w, name="g")

    def test_empty_network_is_valid(self):
        CandidateNetwork(num_users=0, weights=np.zeros((0, 0)))
