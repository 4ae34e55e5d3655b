import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tourrank import (
    ExtentVector,
    InputError,
    PairwiseMatrix,
    ReviewMatrix,
    ScoreVector,
    build_fuzzy_pairwise,
    build_pairwise,
    category_means,
    compare_methods,
    fuzzy_weights,
    normalize,
    synthetic_extents,
)
from tourrank.fuzzy import _TABLE

from reference import (
    SCALE,
    exact_extents,
    exact_fuzzy_weights,
    fuzzy_pair_specs,
    fuzzy_pairwise_index,
    inverse,
    oracle_fuzzy_weights,
    possibility,
    scale_tfn,
)


def scores_for_tests(vals):
    return ScoreVector(tuple(f"alt{i}" for i in range(len(vals))), np.array(vals))


def tfns_of(p):
    """The (n, n, 3) TFN array of ``build_fuzzy_pairwise(p)``'s index form."""
    return _TABLE[build_fuzzy_pairwise(p)]


def built_pair(ratio):
    """The (2, 2, 3) array that ``build_fuzzy_pairwise`` makes of one ratio."""
    a = np.array([[1.0, ratio], [1.0 / ratio, 1.0]])
    return tfns_of(PairwiseMatrix(("a", "b"), a))


def extents_of(vals):
    p = build_pairwise(scores_for_tests(vals))
    return synthetic_extents(p.names, build_fuzzy_pairwise(p))


def pair_weights(s1, s2):
    """``fuzzy_weights`` of two extents, as floats.

    The extent with the higher peak has degree 1, so the weights are
    (d, 1) / (1 + d) in (lower, higher) order, d the lower one's degree.
    """
    return fuzzy_weights(ExtentVector(("a", "b"), [s1, s2])).w.tolist()


tfns = st.tuples(
    st.floats(0.1, 10, allow_nan=False),
    st.floats(0.1, 10, allow_nan=False),
    st.floats(0.1, 10, allow_nan=False),
).map(lambda t: tuple(sorted(t)))


class TestScale:
    @pytest.mark.parametrize("intensity", list(SCALE))
    def test_real_values_exact(self, intensity):
        assert tuple(built_pair(intensity)[0, 1]) == scale_tfn(intensity)

    @pytest.mark.parametrize("intensity", list(SCALE))
    def test_inverse_product_identities(self, intensity):
        f = built_pair(intensity)
        (l, m, u), (il, im, iu) = f[0, 1], f[1, 0]
        assert l * iu == pytest.approx(1.0, abs=1e-15)
        assert m * im == pytest.approx(1.0, abs=1e-15)
        assert u * il == pytest.approx(1.0, abs=1e-15)


class TestTfnOps:
    """The inverse cell that ``build_fuzzy_pairwise`` writes for a pair."""

    def test_inverse_of_row_two(self):
        assert tuple(built_pair(2.0)[1, 0]) == (1.0, 4 / 3, 2.0)

    def test_inverse_identity(self):
        assert tuple(built_pair(1.0)[1, 0]) == (1.0, 1.0, 1.0)

    def test_inverse_of_intensity_six(self):
        t = tuple(built_pair(6.0)[1, 0])
        assert t == pytest.approx((1 / 3, 2 / 5, 1 / 2), abs=1e-15)


class TestBuildFuzzyPairwise:
    def test_index_form(self):
        p = PairwiseMatrix(("a", "b", "c"), np.ones((3, 3)))
        k = build_fuzzy_pairwise(p)
        assert k.dtype == np.int8 and k.shape == (3, 3)
        assert not k.flags.writeable
        # intensity 1 is row 0 on both sides of every pair
        np.testing.assert_array_equal(k, 0)

    def test_all_ones_matrix(self):
        p = PairwiseMatrix(("a", "b", "c"), np.ones((3, 3)))
        assert np.all(tfns_of(p) == 1.0)

    def test_intensity_two_pair(self):
        p = PairwiseMatrix(("a", "b"), np.array([[1.0, 2.0], [0.5, 1.0]]))
        f = tfns_of(p)
        assert tuple(f[0, 1]) == (0.5, 0.75, 1.0)
        assert tuple(f[1, 0]) == (1.0, 4 / 3, 2.0)

    def test_ratio_near_one_rounds_to_just_equal(self):
        p = PairwiseMatrix(("a", "b"), np.array([[1.0, 1.33], [1 / 1.33, 1.0]]))
        assert tuple(tfns_of(p)[0, 1]) == (1.0, 1.0, 1.0)

    def test_half_ties_round_up(self):
        p = PairwiseMatrix(("a", "b"), np.array([[1.0, 1.5], [1 / 1.5, 1.0]]))
        assert tuple(tfns_of(p)[0, 1]) == (0.5, 0.75, 1.0)
        p = PairwiseMatrix(("a", "b"), np.array([[1.0, 2.5], [1 / 2.5, 1.0]]))
        assert tuple(tfns_of(p)[0, 1]) == (2 / 3, 1.0, 1.5)
        # 0.6 / 0.4 is 1.4999999999999998: a half step up to rounding noise
        p = PairwiseMatrix(("a", "b"), np.array([[1.0, 0.6 / 0.4], [0.4 / 0.6, 1.0]]))
        assert tuple(tfns_of(p)[0, 1]) == (0.5, 0.75, 1.0)
        assert tuple(tfns_of(p)[1, 0]) == (1.0, 4 / 3, 2.0)

    def test_sub_unit_ratio_uses_inverse_side(self):
        p = PairwiseMatrix(("a", "b"), np.array([[1.0, 0.25], [4.0, 1.0]]))
        f = tfns_of(p)
        assert tuple(f[0, 1]) == inverse(scale_tfn(4))
        assert tuple(f[1, 0]) == scale_tfn(4)

    @pytest.mark.filterwarnings("ignore::tourrank.ClampWarning")
    @given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_lower_triangle_is_exact_inverse(self, vals):
        f = tfns_of(build_pairwise(scores_for_tests(vals)))
        # cell (i, j) against cell (j, i): l times u, and m times m
        np.testing.assert_allclose(f[:, :, 0] * f[:, :, 2].T, 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(f[:, :, 1] * f[:, :, 1].T, 1.0, rtol=0, atol=1e-12)


class TestSyntheticExtents:
    def test_two_equal_alternatives(self):
        e = synthetic_extents(("a", "b"), np.zeros((2, 2), dtype=np.int8))
        assert e.s.tolist() == [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]

    def test_three_equal_alternatives(self):
        p = PairwiseMatrix(("a", "b", "c"), np.ones((3, 3)))
        e = synthetic_extents(p.names, build_fuzzy_pairwise(p))
        for t in e.s.tolist():
            assert tuple(t) == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)

    def test_two_by_two_hand_computed(self):
        # rows: (1,1,1)+(1,3/2,2) and (1/2,2/3,1)+(1,1,1)
        # totals (7/2, 25/6, 5) -> S_1=(2/5, 3/5, 6/7), S_2=(3/10, 2/5, 4/7)
        k = fuzzy_pairwise_index(2, [(4, False)])
        np.testing.assert_array_equal(_TABLE[k[0, 1]], (1.0, 1.5, 2.0))
        np.testing.assert_array_equal(_TABLE[k[1, 0]], (0.5, 2 / 3, 1.0))
        s1, s2 = synthetic_extents(("a", "b"), k).s.tolist()
        assert tuple(s1) == pytest.approx((0.4, 0.6, 6 / 7), abs=1e-12)
        assert tuple(s2) == pytest.approx((0.3, 0.4, 4 / 7), abs=1e-12)

    @pytest.mark.filterwarnings("ignore::tourrank.ClampWarning")
    @given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_extents_are_valid_tfns(self, vals):
        for l, m, u in extents_of(vals).s.tolist():
            assert 0 < l <= m <= u

    @given(
        st.lists(st.tuples(st.integers(1, 9), st.booleans()), min_size=1, max_size=21)
    )
    @settings(max_examples=200, deadline=None)
    def test_extents_are_the_exact_ones_rounded(self, pair_specs):
        # an exact integer row sum over an exact integer total, divided once,
        # is the exact extent correctly rounded: bitwise, not approximately
        n = next(k for k in range(2, 8) if k * (k - 1) // 2 >= len(pair_specs))
        e = synthetic_extents(tuple("abcdefg"[:n]), fuzzy_pairwise_index(n, pair_specs))
        want = [[float(x) for x in t] for t in exact_extents(n, pair_specs)]
        np.testing.assert_array_equal(e.s, want)

    @pytest.mark.parametrize(
        "k",
        [
            np.zeros((3, 3), dtype=np.int8),
            np.zeros((2, 3), dtype=np.int8),
            [[0, 18], [0, 0]],
            [[0, -1], [0, 0]],
            [[0, 0], [0]],
        ],
        ids=["names-mismatch", "not-square", "past-table", "negative", "ragged"],
    )
    def test_bad_index_matrix_rejected(self, k):
        with pytest.raises(InputError):
            synthetic_extents(("a", "b"), k)


class TestDegreeOfPossibility:
    """Each branch of the possibility degree, seen in two-extent weights."""

    def test_self_comparison_is_one(self):
        t = (1.0, 2.0, 3.0)
        assert pair_weights(t, t) == [0.5, 0.5]

    def test_higher_peak_is_one(self):
        hi, lo = (0.5, 5.0, 6.0), (1.0, 2.0, 3.0)
        w_hi, w_lo = pair_weights(hi, lo)
        assert w_lo / w_hi == pytest.approx(possibility(lo, hi), abs=1e-15)

    def test_disjoint_supports_zero(self):
        assert pair_weights((1, 2, 3), (4, 5, 6)) == [0.0, 1.0]

    def test_touching_supports_zero(self):
        assert pair_weights((1, 2, 3), (3, 5, 6)) == [0.0, 1.0]

    def test_worked_intersection_case(self):
        w_lo, w_hi = pair_weights((0.5, 1.0, 2.5), (1.0, 2.0, 3.0))
        assert w_lo / w_hi == pytest.approx(0.6, abs=1e-12)

    @given(tfns, tfns)
    @settings(max_examples=500, deadline=None)
    def test_bounded_and_one_direction_full(self, a, b):
        w = pair_weights(a, b)
        assert all(0.0 <= x <= 1.0 for x in w)
        if a[1] == b[1]:
            assert w == [0.5, 0.5]
            return
        (lo, w_lo), (hi, w_hi) = sorted(zip((a, b), w), key=lambda sw: sw[0][1])
        assert w_lo / w_hi == pytest.approx(possibility(lo, hi), abs=1e-15)
        if hi[0] >= lo[2]:
            assert (w_lo, w_hi) == (0.0, 1.0)


class TestFuzzyWeights:
    def test_identical_extents_uniform(self):
        e = ExtentVector(("a", "b", "c"), [(1, 2, 3)] * 3)
        np.testing.assert_allclose(fuzzy_weights(e).w, [1 / 3] * 3, atol=1e-12)

    def test_all_just_equal_matrix_exactly_uniform(self):
        k = np.zeros((4, 4), dtype=np.int8)
        w = fuzzy_weights(synthetic_extents(("a", "b", "c", "d"), k)).w
        assert list(w) == [0.25, 0.25, 0.25, 0.25]

    def test_strict_dominance(self):
        e = ExtentVector(("a", "b"), [(3, 4, 5), (1, 1.5, 2)])
        np.testing.assert_allclose(fuzzy_weights(e).w, [1.0, 0.0], atol=1e-15)

    def test_single_extent_rejected(self):
        with pytest.raises(InputError):
            fuzzy_weights(ExtentVector(("a",), [(1, 2, 3)]))

    def test_peak_memory_at_n_1000(self):
        # V is one (n, n) float array, 8 B·n²; the denominator is one more
        # while V is divided, and each branch mask is 1 B·n²
        n = 1000
        rng = np.random.default_rng(0)
        s = np.sort(rng.uniform(0.01, 0.2, size=(n, 3)), axis=1)
        e = ExtentVector(tuple(f"a{i}" for i in range(n)), s)
        tracemalloc.start()
        try:
            fuzzy_weights(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * n * n

    @given(
        st.lists(st.tuples(st.integers(1, 9), st.booleans()), min_size=1, max_size=10)
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_exhaustive_oracle(self, pair_specs):
        n = next(k for k in range(2, 6) if k * (k - 1) // 2 >= len(pair_specs))
        e = synthetic_extents(tuple("abcde"[:n]), fuzzy_pairwise_index(n, pair_specs))
        got = fuzzy_weights(e).w
        want = oracle_fuzzy_weights(e.s.tolist())
        np.testing.assert_allclose(got, want, atol=1e-10)

    @pytest.mark.filterwarnings("ignore::tourrank.ClampWarning")
    @given(
        st.lists(st.floats(0.05, 1.0), min_size=2, max_size=8).flatmap(
            lambda vals: st.tuples(st.just(vals), st.permutations(range(len(vals))))
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_permutation_equivariance(self, vals_perm):
        vals, perm = vals_perm
        base = extents_of(vals)
        permuted = extents_of([vals[i] for i in perm])
        # exact row sums: the extents permute bitwise, whatever the row order
        np.testing.assert_array_equal(permuted.s, base.s[perm])
        np.testing.assert_allclose(
            fuzzy_weights(permuted).w, fuzzy_weights(base).w[perm], rtol=0, atol=1e-15
        )


#: the first file whose fuzzy order float row sums got wrong: c2 and c6 tie
#: exactly (middle row sums both 13.5), and c2 has the higher raw mean
_TIED_RATINGS = [
    [2.7, 1.0, 2.1, 3.3, 0.4, 3.0, 0.2, 1.3, 2.7, 1.0, 0.9],
    [1.1, 2.2, 3.4, 3.7, 0.2, 1.6, 2.1, 0.9, 2.9, 2.7, 3.5],
]


@pytest.mark.filterwarnings("ignore::tourrank.ClampWarning")
@pytest.mark.filterwarnings("ignore::tourrank.ScoreFloorWarning")
@given(
    st.integers(3, 12).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 40).map(lambda x: x / 10), min_size=n, max_size=n),
            min_size=1,
            max_size=3,
        )
    )
)
@example(_TIED_RATINGS)
@settings(max_examples=200, deadline=None)
def test_fuzzy_order_is_the_exact_order(ratings):
    """The fuzzy-AHP order is the exact one, exact weight ties broken by raw mean."""
    values = np.array(ratings).T
    assume(values.any())
    names = tuple(f"c{i}" for i in range(len(values)))
    data = ReviewMatrix(names, values)
    (report,) = compare_methods(data, methods=("fuzzy_ahp",))
    means = category_means(data).scores
    p = build_pairwise(ScoreVector(names, normalize(means)))
    w = exact_fuzzy_weights(exact_extents(len(names), fuzzy_pair_specs(p.a)))
    want = sorted(range(len(names)), key=lambda i: (-w[i], -means[i], i))
    assert [e.name for e in report.entries] == [names[i] for i in want]


class TestExtentVectorInvariants:
    @pytest.mark.parametrize(
        "names, s",
        [
            (("a", "b"), np.ones((2, 2))),
            (("a", "b", "c"), [(1, 2, 3), (1, 2, 3)]),
            (("a", "b"), [(0.0, 2, 3), (1, 2, 3)]),
            (("a", "b"), [(1, float("nan"), 3), (1, 2, 3)]),
            (("a", "b"), [(2.5, 2, 3), (1, 2, 3)]),
            (("a", "b"), [(1, 3.5, 3), (1, 2, 3)]),
        ],
        ids=["shape", "count", "l-nonpositive", "nan", "l-above-m", "m-above-u"],
    )
    def test_invalid_extents_rejected(self, names, s):
        with pytest.raises(InputError):
            ExtentVector(names, s)

    def test_ragged_rejected(self):
        with pytest.raises(InputError):
            ExtentVector(("a", "b"), [(1, 2, 3), (1, 2)])

    def test_extents_are_read_only(self):
        e = ExtentVector(("a", "b"), [(1, 2, 3), (1, 2, 3)])
        with pytest.raises(ValueError):
            e.s[0, 0] = 5.0
