import io
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tourrank import (
    ClampWarning,
    InputError,
    ReviewMatrix,
    ScoreVector,
    WeightVector,
    compare_methods,
    load_reviews,
    manual_baseline,
    mse,
    normalize,
    rank,
)

from conftest import EXPECTED_MANUAL_ORDER


def scores(*values):
    return ScoreVector(tuple(f"alt{i}" for i in range(len(values))), np.array(values))


class TestManualBaseline:
    def test_symmetric(self):
        np.testing.assert_allclose(manual_baseline(scores(1.0, 1.0)).w, [0.5, 0.5])

    def test_direct_normalization(self):
        np.testing.assert_allclose(manual_baseline(scores(3.0, 1.0)).w, [0.75, 0.25])

    def test_all_zero_rejected(self):
        with pytest.raises(InputError):
            manual_baseline(scores(0.0, 0.0))

    @given(st.lists(st.floats(0.01, 4.0), min_size=2, max_size=10))
    @example(vals=[1.0, 4.0, 3.9999999999999996])
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_scores(self, vals):
        # dividing by a positive total keeps the order only weakly: scores
        # one ulp apart can round to the same weight
        w = manual_baseline(scores(*vals)).w
        for i in range(len(vals)):
            for j in range(len(vals)):
                if vals[i] > vals[j]:
                    assert w[i] >= w[j]
                if vals[i] > vals[j] * (1 + 1e-12):
                    assert w[i] > w[j]


class TestRank:
    def test_descending_by_weight(self):
        w = WeightVector(("a", "b", "c"), np.array([0.2, 0.5, 0.3]))
        entries = rank(w, [1.0, 1.0, 1.0])
        assert [e.name for e in entries] == ["b", "c", "a"]
        assert [e.rank for e in entries] == [1, 2, 3]

    def test_tie_with_equal_raw_scores_keeps_input_order(self):
        entries = rank(WeightVector(("x", "y"), np.array([0.5, 0.5])), [2.0, 2.0])
        assert [e.name for e in entries] == ["x", "y"]

    def test_tie_breaks_by_higher_raw_score(self):
        w = WeightVector(("x", "y"), np.array([0.5, 0.5]))
        entries = rank(w, [3.9999999999999996, 4.0])
        assert [e.name for e in entries] == ["y", "x"]

    def test_raw_scores_attached_in_rank_order(self):
        w = WeightVector(("a", "b"), np.array([0.25, 0.75]))
        entries = rank(w, [1.0, 3.0])
        assert entries[0].name == "b" and entries[0].raw_score == 3.0
        assert entries[1].name == "a" and entries[1].raw_score == 1.0

    def test_raw_scores_length_checked(self):
        w = WeightVector(("a", "b"), np.array([0.5, 0.5]))
        with pytest.raises(InputError):
            rank(w, [1.0])

    def test_deterministic(self):
        w = WeightVector(("a", "b", "c"), np.array([0.4, 0.4, 0.2]))
        assert rank(w, [1.0, 1.0, 0.5]) == rank(w, [1.0, 1.0, 0.5])


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: normalize([[1, 2], [3]]), id="ragged-normalize"),
        pytest.param(lambda: mse("ab", "cd"), id="str-mse"),
        pytest.param(lambda: mse([[1], [1, 2]], [1, 2]), id="ragged-mse"),
        pytest.param(
            lambda: rank(WeightVector(("a", "b"), [0.5, 0.5]), ["x", "y"]),
            id="str-raw-scores",
        ),
    ],
)
def test_non_numeric_input_is_an_input_error(call):
    with pytest.raises(InputError):
        call()


class TestMse:
    def test_identical_vectors(self):
        assert mse([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_hand_computed(self):
        assert mse([0.5, 0.5], [0.4, 0.6]) == pytest.approx(0.01, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            mse([1.0, 2.0], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            mse([], [])

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=10),
        st.lists(st.floats(-10, 10), min_size=1, max_size=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_non_negative(self, f, y):
        n = min(len(f), len(y))
        f, y = f[:n], y[:n]
        assert mse(f, y) == mse(y, f) >= 0.0


def matrix_from_means(means):
    names = tuple(f"alt{i}" for i in range(len(means)))
    return ReviewMatrix(names, np.array(means, dtype=float)[:, None])


@st.composite
def rating_files(draw):
    """Reviewer rows of ratings on the 0.1 grid, 2..15 columns, 1..29 rows."""
    reviewers = draw(st.integers(1, 29))
    columns = []
    for _ in range(draw(st.integers(2, 15))):
        # a column that few reviewers rated has a mean near 0, so the means
        # can span more than 9x and clamp a pair
        rated = draw(st.integers(0, reviewers))
        cells = draw(st.lists(st.integers(1, 40), min_size=rated, max_size=rated))
        columns.append(cells + [0] * (reviewers - rated))
    return [[k / 10 for k in row] for row in zip(*columns)]


class TestCompareMethods:
    def test_three_reports_in_canonical_order(self, travel_matrix):
        reports = compare_methods(travel_matrix)
        assert [r.method for r in reports] == ["ahp", "fuzzy_ahp", "manual"]

    def test_weights_sum_to_one(self, travel_matrix):
        for report in compare_methods(travel_matrix):
            assert sum(e.weight for e in report.entries) == pytest.approx(1.0, abs=1e-9)

    def test_consistency_attached_to_ahp_branches(self, travel_matrix):
        ahp, fuzzy, manual = compare_methods(travel_matrix)
        assert ahp.consistency is not None
        assert fuzzy.consistency == ahp.consistency
        assert manual.consistency is None
        assert manual.mse_vs_manual == 0.0

    def test_identical_rows_tie_broken_by_column_order(self):
        m = ReviewMatrix(("left", "right"), np.array([[2.0, 2.0], [2.0, 2.0]]))
        for report in compare_methods(m):
            assert [e.name for e in report.entries] == ["left", "right"]
            np.testing.assert_allclose([e.weight for e in report.entries], [0.5, 0.5])

    def test_equal_means_tie_bitwise_in_input_order(self):
        # ratios past 9 are clamped, so the matrix is not rank-1, and tied
        # rows get equal weights only if every row is reduced the same way
        means = [
            0.5, 1.25, 2.0, 1.75, 1.75, 0.25, 0.25, 0.5, 0.25, 2.75, 2.25, 2.75,
            1.25, 2.5, 3.25, 1.75, 2.0, 4.0, 3.25, 4.0, 1.75, 2.75, 4.0,
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClampWarning)
            (report,) = compare_methods(matrix_from_means(means), methods=("ahp",))
        index = {f"alt{i}": i for i in range(len(means))}
        for mean in set(means):
            tied = [e for e in report.entries if e.raw_score == mean]
            assert len({e.weight for e in tied}) == 1
            assert [index[e.name] for e in tied] == sorted(index[e.name] for e in tied)

    def test_methods_agree_on_clean_ratios(self):
        reports = compare_methods(matrix_from_means([4.0, 2.0, 1.0]))
        for report in reports:
            assert [e.name for e in report.entries] == ["alt0", "alt1", "alt2"]

    def test_ahp_equals_manual_on_consistent_data(self):
        # ratio matrices are consistent, so eigenvector weights match means
        reports = compare_methods(matrix_from_means([3.5, 2.0, 1.5, 0.9]))
        by_method = {r.method: r for r in reports}
        ahp_w = [e.weight for e in by_method["ahp"].entries]
        manual_w = [e.weight for e in by_method["manual"].entries]
        np.testing.assert_allclose(ahp_w, manual_w, atol=1e-9)
        assert by_method["ahp"].mse_vs_manual == pytest.approx(0.0, abs=1e-15)

    def test_manual_order_on_travel_fixture(self, travel_matrix):
        reports = compare_methods(travel_matrix, methods=("manual",))
        assert [e.name for e in reports[0].entries] == EXPECTED_MANUAL_ORDER

    def test_fuzzy_order_on_travel_fixture(self, travel_matrix):
        # characterization: the near-uniform fuzzy weights tie in three
        # pairs, and ties keep input order, so a change in summation order
        # would show up here
        entries = compare_methods(travel_matrix, methods=("fuzzy_ahp",))[0].entries
        assert [e.name for e in entries] == [
            "Parks/Picnic Spots",
            "Dance Clubs",
            "Art Galleries",
            "Juice Bars",
            "Museums",
            "Resorts",
            "Theaters",
            "Beaches",
            "Religious Institutions",
            "Restaurants",
        ]
        weight = {e.name: e.weight for e in entries}
        assert weight["Juice Bars"] == weight["Museums"]
        assert weight["Resorts"] == weight["Theaters"]
        assert weight["Beaches"] == weight["Religious Institutions"]

    def test_raw_scores_are_mean_ratings(self, travel_matrix):
        report = compare_methods(travel_matrix, methods=("manual",))[0]
        top = report.entries[0]
        assert top.name == "Parks/Picnic Spots"
        assert top.raw_score == pytest.approx(3.1809, abs=1e-3)

    def test_unknown_method_rejected(self, travel_matrix):
        with pytest.raises(InputError):
            compare_methods(travel_matrix, methods=("topsis",))

    def test_inconsistent_data_flagged_not_dropped(self):
        # mean ratios saturate the scale clamp, breaking consistency
        with pytest.warns(UserWarning):
            reports = compare_methods(matrix_from_means([4.0, 0.5, 0.06, 0.008]))
        by_method = {r.method: r for r in reports}
        assert by_method["ahp"].consistency.cr == pytest.approx(0.4064, abs=1e-4)
        assert len(by_method["ahp"].entries) == 4

    @given(rating_files())
    @example([[4.0, 0.5, 0.06, 0.008]])  # the inconsistent_csv fixture
    @settings(max_examples=200, deadline=None)
    def test_gate_fails_only_through_clamped_pairs(self, rows):
        # the ratio matrix of the means is rank-1, so perfectly consistent,
        # until build_pairwise clamps a ratio to [1/9, 9]
        assume(any(any(row) for row in rows))
        header = ",".join(["reviewer"] + [f"c{j}" for j in range(len(rows[0]))])
        lines = [f"r{i}," + ",".join(map(str, row)) for i, row in enumerate(rows)]
        data = load_reviews(io.StringIO("\n".join([header, *lines]) + "\n"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ahp, manual = compare_methods(data, methods=("ahp", "manual"))
        clamped = any(issubclass(w.category, ClampWarning) for w in caught)
        if not clamped:
            ahp_w = {e.name: e.weight for e in ahp.entries}
            assert max(abs(ahp_w[e.name] - e.weight) for e in manual.entries) <= 1e-12
            assert ahp.consistency.cr <= 1e-12
        if ahp.consistency.cr > 0.1:
            assert clamped

    def test_deterministic_reports(self, travel_matrix):
        assert compare_methods(travel_matrix) == compare_methods(travel_matrix)

    @given(st.lists(st.floats(0.5, 4.0), min_size=2, max_size=8))
    @example(means=[3.9999999999999996, 4.0])
    @settings(max_examples=50, deadline=None)
    def test_ahp_order_matches_manual_order(self, means):
        # all pairwise ratios stay inside [1/9, 9] for these means
        reports = compare_methods(matrix_from_means(means))
        by_method = {r.method: r for r in reports}
        assert [e.name for e in by_method["ahp"].entries] == [
            e.name for e in by_method["manual"].entries
        ]
