from fractions import Fraction

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
    Tfn,
    build_fuzzy_pairwise,
    build_pairwise,
    degree_of_possibility,
    fuzzy_weights,
    saaty_to_tfn,
    synthetic_extents,
    tfn_inverse,
)


def scores_for_tests(vals):
    return ScoreVector(tuple(f"alt{i}" for i in range(len(vals))), np.array(vals))

# the comparative scale, written out as exact rationals
SCALE_TABLE = {
    1: (1, 1, 1),
    2: (Fraction(1, 2), Fraction(3, 4), 1),
    3: (Fraction(2, 3), 1, Fraction(3, 2)),
    4: (1, Fraction(3, 2), 2),
    5: (Fraction(3, 2), 2, Fraction(5, 2)),
    6: (2, Fraction(5, 2), 3),
    7: (Fraction(5, 2), 3, Fraction(7, 2)),
    8: (3, Fraction(7, 2), 4),
    9: (Fraction(7, 2), 4, Fraction(9, 2)),
}

tfns = st.tuples(
    st.floats(0.1, 10, allow_nan=False),
    st.floats(0.1, 10, allow_nan=False),
    st.floats(0.1, 10, allow_nan=False),
).map(lambda t: Tfn(*sorted(t)))


class TestScale:
    @pytest.mark.parametrize("intensity", list(SCALE_TABLE))
    def test_real_values_exact(self, intensity):
        t = saaty_to_tfn(intensity)
        expected = SCALE_TABLE[intensity]
        assert (t.l, t.m, t.u) == tuple(float(x) for x in expected)

    @pytest.mark.parametrize("intensity", [0, 10, -1])
    def test_out_of_scale(self, intensity):
        with pytest.raises(InputError):
            saaty_to_tfn(intensity)

    @pytest.mark.parametrize("intensity", list(SCALE_TABLE))
    def test_inverse_product_identities(self, intensity):
        t = saaty_to_tfn(intensity)
        ti = tfn_inverse(t)
        assert t.l * ti.u == pytest.approx(1.0, abs=1e-15)
        assert t.m * ti.m == pytest.approx(1.0, abs=1e-15)
        assert t.u * ti.l == pytest.approx(1.0, abs=1e-15)


class TestTfnOps:
    def test_inverse_of_row_two(self):
        assert tfn_inverse(Tfn(0.5, 0.75, 1.0)) == Tfn(1.0, 4 / 3, 2.0)

    def test_inverse_identity(self):
        assert tfn_inverse(Tfn(1, 1, 1)) == Tfn(1, 1, 1)

    def test_inverse_of_intensity_six(self):
        t = tfn_inverse(Tfn(2.0, 2.5, 3.0))
        assert (t.l, t.m, t.u) == pytest.approx((1 / 3, 2 / 5, 1 / 2), abs=1e-15)

    def test_inverse_requires_positive(self):
        with pytest.raises(InputError):
            tfn_inverse(Tfn(0.0, 1.0, 2.0))

    def test_ordering_enforced(self):
        with pytest.raises(InputError):
            Tfn(2.0, 1.0, 3.0)

    @given(tfns)
    @settings(max_examples=200, deadline=None)
    def test_inverse_is_involution(self, t):
        back = tfn_inverse(tfn_inverse(t))
        assert back.l == pytest.approx(t.l, abs=1e-12)
        assert back.m == pytest.approx(t.m, abs=1e-12)
        assert back.u == pytest.approx(t.u, abs=1e-12)


class TestBuildFuzzyPairwise:
    def test_all_ones_matrix(self):
        p = PairwiseMatrix(("a", "b", "c"), np.ones((3, 3)))
        f = build_fuzzy_pairwise(p)
        assert np.all(f.f == 1.0)

    def test_intensity_two_pair(self):
        p = PairwiseMatrix(("a", "b"), np.array([[1.0, 2.0], [0.5, 1.0]]))
        f = build_fuzzy_pairwise(p)
        assert f.tfn(0, 1) == Tfn(0.5, 0.75, 1.0)
        assert f.tfn(1, 0) == Tfn(1.0, 4 / 3, 2.0)

    def test_ratio_near_one_rounds_to_just_equal(self):
        p = PairwiseMatrix(("a", "b"), np.array([[1.0, 1.33], [1 / 1.33, 1.0]]))
        f = build_fuzzy_pairwise(p)
        assert f.tfn(0, 1) == Tfn(1.0, 1.0, 1.0)

    def test_half_ties_round_up(self):
        p = PairwiseMatrix(("a", "b"), np.array([[1.0, 1.5], [1 / 1.5, 1.0]]))
        assert build_fuzzy_pairwise(p).tfn(0, 1) == Tfn(0.5, 0.75, 1.0)
        p = PairwiseMatrix(("a", "b"), np.array([[1.0, 2.5], [1 / 2.5, 1.0]]))
        assert build_fuzzy_pairwise(p).tfn(0, 1) == Tfn(2 / 3, 1.0, 1.5)
        # 0.6 / 0.4 is 1.4999999999999998: a half step up to rounding noise
        p = PairwiseMatrix(("a", "b"), np.array([[1.0, 0.6 / 0.4], [0.4 / 0.6, 1.0]]))
        assert build_fuzzy_pairwise(p).tfn(0, 1) == Tfn(0.5, 0.75, 1.0)
        assert build_fuzzy_pairwise(p).tfn(1, 0) == Tfn(1.0, 4 / 3, 2.0)

    def test_sub_unit_ratio_uses_inverse_side(self):
        p = PairwiseMatrix(("a", "b"), np.array([[1.0, 0.25], [4.0, 1.0]]))
        f = build_fuzzy_pairwise(p)
        assert f.tfn(0, 1) == tfn_inverse(saaty_to_tfn(4))
        assert f.tfn(1, 0) == saaty_to_tfn(4)

    @pytest.mark.filterwarnings("ignore::tourrank.ClampWarning")
    @given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_lower_triangle_is_exact_inverse(self, vals):
        f = build_fuzzy_pairwise(build_pairwise(scores_for_tests(vals)))
        n = f.order
        for i in range(n):
            for j in range(n):
                ti, tj = f.tfn(i, j), f.tfn(j, i)
                assert ti.l * tj.u == pytest.approx(1.0, abs=1e-12)
                assert ti.m * tj.m == pytest.approx(1.0, abs=1e-12)


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
    def test_self_comparison_is_one(self):
        t = Tfn(1.0, 2.0, 3.0)
        assert degree_of_possibility(t, t) == 1.0

    def test_higher_peak_is_one(self):
        assert degree_of_possibility(Tfn(0, 5, 6), Tfn(1, 2, 3)) == 1.0

    def test_disjoint_supports_zero(self):
        assert degree_of_possibility(Tfn(1, 2, 3), Tfn(4, 5, 6)) == 0.0

    def test_touching_supports_zero(self):
        assert degree_of_possibility(Tfn(1, 2, 3), Tfn(3, 5, 6)) == 0.0

    def test_worked_intersection_case(self):
        v = degree_of_possibility(Tfn(0.5, 1.0, 2.5), Tfn(1.0, 2.0, 3.0))
        assert v == pytest.approx(0.6, abs=1e-12)

    @given(tfns, tfns)
    @settings(max_examples=500, deadline=None)
    def test_bounded_and_one_direction_full(self, a, b):
        vab = degree_of_possibility(a, b)
        vba = degree_of_possibility(b, a)
        assert 0.0 <= vab <= 1.0
        assert 0.0 <= vba <= 1.0
        assert max(vab, vba) == 1.0


def oracle_fuzzy_weights(extents):
    """Exhaustive possibility-degree weighting, kept free of the library path."""
    n = len(extents)
    degrees = []
    for i in range(n):
        best = None
        for j in range(n):
            if j == i:
                continue
            l2, m2, u2 = extents[i]
            l1, m1, u1 = extents[j]
            if m2 >= m1:
                v = 1.0
            elif l1 >= u2:
                v = 0.0
            else:
                v = (l1 - u2) / ((m2 - u2) - (m1 - l1))
            best = v if best is None else min(best, v)
        degrees.append(best)
    total = sum(degrees)
    return [d / total for d in degrees]


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
        f = np.ones((n, n, 3))
        specs = iter(pair_specs)
        for i in range(n):
            for j in range(i + 1, n):
                intensity, flip = next(specs, (1, False))
                t = saaty_to_tfn(intensity)
                if flip:
                    t = tfn_inverse(t)
                ti = tfn_inverse(t)
                f[i, j] = (t.l, t.m, t.u)
                f[j, i] = (ti.l, ti.m, ti.u)
        fp = FuzzyPairwiseMatrix(tuple("abcde"[:n]), f)
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

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            FuzzyPairwiseMatrix((), np.empty((0, 0, 3)))

    def test_unordered_entry_rejected(self):
        f = np.ones((2, 2, 3))
        f[0, 1] = (2.0, 1.5, 2.5)
        f[1, 0] = (0.4, 2 / 3, 0.5)
        with pytest.raises(InputError):
            FuzzyPairwiseMatrix(("a", "b"), f)
