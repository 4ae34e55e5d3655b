import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourrank import (
    ExtentVector,
    FuzzyPairwiseMatrix,
    InputError,
    PairwiseMatrix,
    ScoreVector,
    build_fuzzy_pairwise,
    build_pairwise,
    fuzzy_weights,
    synthetic_extents,
)

from reference import (
    SCALE,
    fuzzy_pairwise_array,
    inverse,
    oracle_fuzzy_weights,
    possibility,
    scale_tfn,
)


def scores_for_tests(vals):
    return ScoreVector(tuple(f"alt{i}" for i in range(len(vals))), np.array(vals))


def built_pair(ratio):
    """The (2, 2, 3) array that ``build_fuzzy_pairwise`` makes of one ratio."""
    a = np.array([[1.0, ratio], [1.0 / ratio, 1.0]])
    return build_fuzzy_pairwise(PairwiseMatrix(("a", "b"), a)).f


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
    def test_all_ones_matrix(self):
        p = PairwiseMatrix(("a", "b", "c"), np.ones((3, 3)))
        f = build_fuzzy_pairwise(p)
        assert np.all(f.f == 1.0)

    def test_intensity_two_pair(self):
        p = PairwiseMatrix(("a", "b"), np.array([[1.0, 2.0], [0.5, 1.0]]))
        f = build_fuzzy_pairwise(p)
        assert tuple(f.f[0, 1]) == (0.5, 0.75, 1.0)
        assert tuple(f.f[1, 0]) == (1.0, 4 / 3, 2.0)

    def test_ratio_near_one_rounds_to_just_equal(self):
        p = PairwiseMatrix(("a", "b"), np.array([[1.0, 1.33], [1 / 1.33, 1.0]]))
        f = build_fuzzy_pairwise(p)
        assert tuple(f.f[0, 1]) == (1.0, 1.0, 1.0)

    def test_half_ties_round_up(self):
        p = PairwiseMatrix(("a", "b"), np.array([[1.0, 1.5], [1 / 1.5, 1.0]]))
        assert tuple(build_fuzzy_pairwise(p).f[0, 1]) == (0.5, 0.75, 1.0)
        p = PairwiseMatrix(("a", "b"), np.array([[1.0, 2.5], [1 / 2.5, 1.0]]))
        assert tuple(build_fuzzy_pairwise(p).f[0, 1]) == (2 / 3, 1.0, 1.5)
        # 0.6 / 0.4 is 1.4999999999999998: a half step up to rounding noise
        p = PairwiseMatrix(("a", "b"), np.array([[1.0, 0.6 / 0.4], [0.4 / 0.6, 1.0]]))
        assert tuple(build_fuzzy_pairwise(p).f[0, 1]) == (0.5, 0.75, 1.0)
        assert tuple(build_fuzzy_pairwise(p).f[1, 0]) == (1.0, 4 / 3, 2.0)

    def test_sub_unit_ratio_uses_inverse_side(self):
        p = PairwiseMatrix(("a", "b"), np.array([[1.0, 0.25], [4.0, 1.0]]))
        f = build_fuzzy_pairwise(p)
        assert tuple(f.f[0, 1]) == inverse(scale_tfn(4))
        assert tuple(f.f[1, 0]) == scale_tfn(4)

    @pytest.mark.filterwarnings("ignore::tourrank.ClampWarning")
    @given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_lower_triangle_is_exact_inverse(self, vals):
        f = build_fuzzy_pairwise(build_pairwise(scores_for_tests(vals))).f
        # cell (i, j) against cell (j, i): l times u, and m times m
        np.testing.assert_allclose(f[:, :, 0] * f[:, :, 2].T, 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(f[:, :, 1] * f[:, :, 1].T, 1.0, rtol=0, atol=1e-12)


class TestSyntheticExtents:
    def test_two_equal_alternatives(self):
        p = PairwiseMatrix(("a", "b"), np.ones((2, 2)))
        e = synthetic_extents(build_fuzzy_pairwise(p))
        assert e.s.tolist() == [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]

    def test_three_equal_alternatives(self):
        p = PairwiseMatrix(("a", "b", "c"), np.ones((3, 3)))
        e = synthetic_extents(build_fuzzy_pairwise(p))
        for t in e.s.tolist():
            assert tuple(t) == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)

    def test_two_by_two_hand_computed(self):
        # rows: (1,1,1)+(1,3/2,2) and (1/2,2/3,1)+(1,1,1)
        # totals (7/2, 25/6, 5) -> S_1=(2/5, 3/5, 6/7), S_2=(3/10, 2/5, 4/7)
        f = np.ones((2, 2, 3))
        f[0, 1] = (1.0, 1.5, 2.0)
        f[1, 0] = (0.5, 2 / 3, 1.0)
        e = synthetic_extents(FuzzyPairwiseMatrix(("a", "b"), f))
        s1, s2 = e.s.tolist()
        assert tuple(s1) == pytest.approx((0.4, 0.6, 6 / 7), abs=1e-12)
        assert tuple(s2) == pytest.approx((0.3, 0.4, 4 / 7), abs=1e-12)

    @pytest.mark.filterwarnings("ignore::tourrank.ClampWarning")
    @given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_extents_are_valid_tfns(self, vals):
        e = synthetic_extents(
            build_fuzzy_pairwise(build_pairwise(scores_for_tests(vals)))
        )
        for l, m, u in e.s.tolist():
            assert 0 < l <= m <= u


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
        fp = FuzzyPairwiseMatrix(("a", "b", "c", "d"), np.ones((4, 4, 3)))
        w = fuzzy_weights(synthetic_extents(fp)).w
        assert list(w) == [0.25, 0.25, 0.25, 0.25]

    def test_strict_dominance(self):
        e = ExtentVector(("a", "b"), [(3, 4, 5), (1, 1.5, 2)])
        np.testing.assert_allclose(fuzzy_weights(e).w, [1.0, 0.0], atol=1e-15)

    def test_single_extent_rejected(self):
        with pytest.raises(InputError):
            fuzzy_weights(ExtentVector(("a",), [(1, 2, 3)]))

    @given(
        st.lists(st.tuples(st.integers(1, 9), st.booleans()), min_size=1, max_size=10)
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_exhaustive_oracle(self, pair_specs):
        n = next(k for k in range(2, 6) if k * (k - 1) // 2 >= len(pair_specs))
        fp = FuzzyPairwiseMatrix(tuple("abcde"[:n]), fuzzy_pairwise_array(n, pair_specs))
        e = synthetic_extents(fp)
        got = fuzzy_weights(e).w
        want = oracle_fuzzy_weights(e.s.tolist())
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_permutation_equivariance(self):
        vals = [0.9, 0.3, 0.5, 0.2]
        perm = [2, 0, 3, 1]
        base = fuzzy_weights(
            synthetic_extents(build_fuzzy_pairwise(build_pairwise(scores_for_tests(vals))))
        )
        permuted = fuzzy_weights(
            synthetic_extents(
                build_fuzzy_pairwise(
                    build_pairwise(scores_for_tests([vals[i] for i in perm]))
                )
            )
        )
        np.testing.assert_allclose(permuted.w, base.w[perm], atol=1e-12)


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


class TestFuzzyPairwiseMatrixInvariants:
    def test_bad_diagonal_rejected(self):
        f = np.ones((2, 2, 3))
        f[0, 0] = (1.0, 2.0, 3.0)
        with pytest.raises(InputError):
            FuzzyPairwiseMatrix(("a", "b"), f)

    def test_non_inverse_lower_triangle_rejected(self):
        f = np.ones((2, 2, 3))
        f[0, 1] = (1.0, 1.5, 2.0)
        f[1, 0] = (1.0, 1.5, 2.0)
        with pytest.raises(InputError):
            FuzzyPairwiseMatrix(("a", "b"), f)

    def test_ragged_rejected(self):
        f = [[(1, 1, 1), (1, 1, 1)], [(1, 1, 1), (1, 1)]]
        with pytest.raises(InputError):
            FuzzyPairwiseMatrix(("a", "b"), f)

    def test_validation_holds_one_temporary(self):
        # the read-only copy plus one (n, n, 3) temporary: 48 B per cell pair
        n = 300
        vals = np.random.default_rng(0).uniform(0.5, 4.0, n)
        p = build_pairwise(scores_for_tests(vals))
        f = np.array(build_fuzzy_pairwise(p).f)
        tracemalloc.start()
        try:
            FuzzyPairwiseMatrix(p.names, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 56 * n**2

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            FuzzyPairwiseMatrix((), np.empty((0, 0, 3)))

    def test_unordered_entry_rejected(self):
        f = np.ones((2, 2, 3))
        f[0, 1] = (2.0, 1.5, 2.5)
        f[1, 0] = (0.4, 2 / 3, 0.5)
        with pytest.raises(InputError):
            FuzzyPairwiseMatrix(("a", "b"), f)
