"""Metamorphic properties of ``compare_methods`` and known characterizations.

Reordering reviewers, reordering alternatives or repeating every reviewer
must not change any method's weights beyond rounding noise. Dropping an
alternative, on the other hand, may reverse fuzzy-AHP pairs (rank reversal,
Belton & Gear 1983), and the fuzzy scale can invert close means; both are
pinned here as they are.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourrank import ReviewMatrix, compare_methods

TOL = 1e-12

# the drawn files clamp and floor often; the warnings are not under test
pytestmark = [
    pytest.mark.filterwarnings("ignore::tourrank.errors.ClampWarning"),
    pytest.mark.filterwarnings("ignore::tourrank.errors.ScoreFloorWarning"),
]


def weights(data):
    """{method: {name: weight}} of every method on ``data``."""
    return {
        r.method: {e.name: e.weight for e in r.entries} for r in compare_methods(data)
    }


def ranked(data):
    """{method: names in rank order} of every method on ``data``."""
    return {r.method: [e.name for e in r.entries] for r in compare_methods(data)}


def assert_same_weights(got, want):
    assert got.keys() == want.keys()
    for method in want:
        assert got[method].keys() == want[method].keys()
        for name, w in want[method].items():
            assert abs(got[method][name] - w) <= TOL, (method, name)


def assert_same_order_apart_from_ties(got_order, want_weights):
    """Each rank order lists every strictly heavier alternative first."""
    for method, names in got_order.items():
        w = want_weights[method]
        for hi, name in enumerate(names):
            for later in names[hi + 1 :]:
                assert w[name] >= w[later] - TOL, (method, name, later)


@st.composite
def review_matrices(draw):
    """Small rating files on the 0.1 or the 1.0 grid, whose mean ratios often
    sit on a half step of the fuzzy scale."""
    n = draw(st.integers(2, 8))
    r = draw(st.integers(1, 11))
    step = draw(st.sampled_from([10, 1]))
    cells = draw(
        st.lists(st.integers(0, 4 * step), min_size=n * r, max_size=n * r)
    )
    values = np.array(cells, dtype=float).reshape(n, r) / step
    # an all-zero file has no baseline; one positive cell keeps it valid
    values[0, 0] = max(values[0, 0], 1.0)
    return ReviewMatrix(tuple(f"alt{i}" for i in range(n)), values)


@given(review_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_reviewer_permutation_keeps_weights(data, rnd):
    cols = list(range(data.n_reviewers))
    rnd.shuffle(cols)
    shuffled = ReviewMatrix(data.alternatives, data.values[:, cols])
    want = weights(data)
    assert_same_weights(weights(shuffled), want)
    assert_same_order_apart_from_ties(ranked(shuffled), want)


@given(review_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_alternative_permutation_permutes_weights(data, rnd):
    rows = list(range(data.n_alternatives))
    rnd.shuffle(rows)
    shuffled = ReviewMatrix(
        tuple(data.alternatives[i] for i in rows), data.values[rows]
    )
    assert_same_weights(weights(shuffled), weights(data))


@given(review_matrices(), st.integers(2, 3))
@settings(max_examples=200, deadline=None)
def test_repeated_reviewers_keep_weights(data, times):
    repeated = ReviewMatrix(data.alternatives, np.tile(data.values, (1, times)))
    assert_same_weights(weights(repeated), weights(data))


def _reviews(rows):
    """ReviewMatrix of reviewer rows over the alternatives a, b, c."""
    return ReviewMatrix(("a", "b", "c"), np.array(rows, dtype=float).T)


# two reviewer orders of one file: the mean of c is 1.4000000000000001 in
# one and 1.3999999999999997 in the other, and a / c is the half step 1.5
ROWS = [(0.6, 2.7, 2.3), (1.8, 3.0, 1.5), (3.9, 0.2, 0.4)]
SWAPPED = [ROWS[0], ROWS[2], ROWS[1]]


def test_swapped_reviewer_rows_give_the_same_weights():
    want = weights(_reviews(ROWS))
    assert_same_weights(weights(_reviews(SWAPPED)), want)
    assert want["fuzzy_ahp"] == pytest.approx(
        {"c": 0.489602, "b": 0.289163, "a": 0.221234}, abs=5e-7
    )


def test_fuzzy_scale_inverts_close_means():
    # intensity 2 is (1/2, 3/4, 1), below "equal", so the alternative with
    # the lowest mean gets the highest fuzzy weight
    (report,) = compare_methods(_reviews(ROWS), methods=("fuzzy_ahp",))
    lowest_mean = min(report.entries, key=lambda e: e.raw_score)
    assert lowest_mean.name == "c"
    assert report.entries[0].name == "c"


def test_rank_reversal_on_travel_fixture(travel_matrix):
    """Dropping one alternative at a time reverses 78 strictly ordered
    fuzzy-AHP pairs of the remaining nine, and none of AHP or manual."""
    full = weights(travel_matrix)
    reversed_pairs = dict.fromkeys(full, 0)
    n = travel_matrix.n_alternatives
    for drop in range(n):
        keep = [i for i in range(n) if i != drop]
        sub = weights(
            ReviewMatrix(
                tuple(travel_matrix.alternatives[i] for i in keep),
                travel_matrix.values[keep],
            )
        )
        for method, w in sub.items():
            for x in w:
                for y in w:
                    if full[method][x] > full[method][y] and w[x] < w[y]:
                        reversed_pairs[method] += 1
    assert reversed_pairs == {"ahp": 0, "fuzzy_ahp": 78, "manual": 0}
