import inspect
import math
import typing
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tourrank
from tourrank import (
    ClampWarning,
    ConvergenceError,
    InputError,
    PairwiseMatrix,
    ScoreFloorWarning,
    ScoreVector,
    WeightVector,
    build_pairwise,
    category_means,
    evaluate_consistency,
)
from tourrank.ahp import SCORE_FLOOR, _random_index


def scores(*values):
    return ScoreVector(tuple(f"alt{i}" for i in range(len(values))), np.array(values))


def ratio_matrix(w):
    w = np.asarray(w, dtype=float)
    return PairwiseMatrix(
        tuple(f"alt{i}" for i in range(len(w))), w[:, None] / w[None, :]
    )


#: an inconsistent 3x3 matrix with a known principal eigenvalue
ORACLE_3X3 = np.array([[1.0, 2.0, 6.0], [0.5, 1.0, 4.0], [1 / 6, 0.25, 1.0]])

#: the clamped ratio matrix of the inconsistent 4x4 fixture's means
_MEANS_4 = np.array([4.0, 0.5, 0.06, 0.008])
CLAMPED_4X4 = np.clip(_MEANS_4[:, None] / _MEANS_4[None, :], 1 / 9, 9)


def eigen(p):
    """evaluate_consistency's weights and lambda_max."""
    weights, report = evaluate_consistency(p)
    return weights, report.lambda_max


positive_weights = st.lists(
    st.floats(0.05, 1.0, allow_nan=False), min_size=2, max_size=8
)


class TestBuildPairwise:
    def test_score_ratio_pattern(self):
        p = build_pairwise(scores(4.0, 3.0, 2.0, 1.0))
        np.testing.assert_allclose(p.a[0], [1.0, 4 / 3, 2.0, 4.0], atol=1e-12)

    def test_equal_scores_all_ones(self):
        p = build_pairwise(scores(2.5, 2.5, 2.5))
        np.testing.assert_array_equal(p.a, np.ones((3, 3)))

    def test_ratio_clamped_to_scale(self):
        with pytest.warns(ClampWarning):
            p = build_pairwise(scores(2.0, 0.1))
        np.testing.assert_allclose(p.a, [[1.0, 9.0], [1 / 9, 1.0]])

    @pytest.mark.filterwarnings("ignore::tourrank.ClampWarning")
    def test_zero_score_floored_with_warning(self):
        with pytest.warns(ScoreFloorWarning):
            p = build_pairwise(scores(1.0, 0.0))
        assert p.a[0, 1] == 9.0  # 1 / 1e-6 clamps to the scale maximum

    @pytest.mark.filterwarnings("ignore::tourrank.ClampWarning")
    def test_floor_is_exclusive(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ScoreFloorWarning)
            build_pairwise(scores(1.0, SCORE_FLOOR))
        below = np.nextafter(SCORE_FLOOR, 0)
        with pytest.warns(ScoreFloorWarning, match=r"^1 score\(s\) below"):
            build_pairwise(scores(1.0, below))

    @pytest.mark.filterwarnings("ignore::tourrank.ClampWarning")
    @given(positive_weights)
    @settings(max_examples=200, deadline=None)
    def test_reciprocity_and_diagonal(self, vals):
        p = build_pairwise(scores(*vals))
        assert np.all(np.diag(p.a) == 1.0)
        np.testing.assert_allclose(p.a * p.a.T, 1.0, atol=1e-9)
        assert p.a.min() >= 1 / 9 - 1e-12 and p.a.max() <= 9 + 1e-12

    @pytest.mark.filterwarnings("ignore::tourrank.ClampWarning")
    @given(positive_weights, st.floats(0.01, 100, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, vals, c):
        base = build_pairwise(scores(*vals))
        scaled = build_pairwise(scores(*(c * v for v in vals)))
        np.testing.assert_allclose(scaled.a, base.a, rtol=1e-12)


class TestPairwiseMatrixInvariants:
    def test_non_reciprocal_rejected(self):
        with pytest.raises(InputError):
            PairwiseMatrix(("a", "b"), np.array([[1.0, 2.0], [1.0, 1.0]]))

    def test_bad_diagonal_rejected(self):
        with pytest.raises(InputError):
            PairwiseMatrix(("a", "b"), np.array([[2.0, 1.0], [1.0, 1.0]]))

    def test_non_positive_rejected(self):
        with pytest.raises(InputError):
            PairwiseMatrix(("a", "b"), np.array([[1.0, 0.0], [np.inf, 1.0]]))

    def test_ragged_rejected(self):
        with pytest.raises(InputError):
            PairwiseMatrix(("a", "b"), [[1.0, 2.0], [0.5]])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            PairwiseMatrix((), np.empty((0, 0)))


class TestPrincipalEigenvector:
    def test_consistent_matrix_recovers_weights(self):
        w = np.array([0.5, 0.3, 0.2])
        wv, lam = eigen(ratio_matrix(w))
        np.testing.assert_allclose(wv.w, w, atol=1e-9)
        assert lam == pytest.approx(3.0, abs=1e-9)

    def test_all_ones_matrix(self):
        p = PairwiseMatrix(("a", "b", "c"), np.ones((3, 3)))
        wv, lam = eigen(p)
        np.testing.assert_allclose(wv.w, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
        assert lam == pytest.approx(3.0, abs=1e-12)

    def test_inconsistent_3x3_matches_eigen_oracle(self):
        p = PairwiseMatrix(("a", "b", "c"), ORACLE_3X3)
        _, lam = eigen(p)
        oracle = max(
            v.real for v in np.linalg.eigvals(ORACLE_3X3) if abs(v.imag) < 1e-9
        )
        assert lam == pytest.approx(oracle, abs=1e-8)
        assert lam == pytest.approx(3.0092027127, abs=1e-6)

    def test_non_convergence_carries_last_iterate(self):
        # a user-built matrix far off the 1/9..9 scale: the iterates cycle
        a = np.array([[1.0, 1e4, 1 / 3], [1e-4, 1.0, 1e4], [3.0, 1e-4, 1.0]])
        p = PairwiseMatrix(("a", "b", "c"), a)
        with pytest.raises(ConvergenceError) as err:
            eigen(p)
        assert err.value.iterations == 1000
        assert err.value.last_weights.shape == (3,)

    def test_public_annotations_resolve(self):
        # ConvergenceError.__init__ names np.ndarray, so errors.py must import
        # numpy; every public signature must resolve the same way
        for name in tourrank.__all__:
            obj = getattr(tourrank, name)
            for target in (obj, getattr(obj, "__init__", None)):
                if inspect.isclass(target) or inspect.isfunction(target):
                    typing.get_type_hints(target)
        hints = typing.get_type_hints(ConvergenceError.__init__)
        assert hints["last_weights"] is np.ndarray

    @given(st.lists(st.floats(0.1, 1.0), min_size=2, max_size=6), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_permutation_equivariance(self, vals, rnd):
        w = np.asarray(vals)
        perm = list(range(len(vals)))
        rnd.shuffle(perm)
        base, _ = eigen(ratio_matrix(w))
        permuted, _ = eigen(ratio_matrix(w[perm]))
        np.testing.assert_allclose(permuted.w, base.w[perm], atol=1e-9)

    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.lists(
                st.floats(1 / 9, 9, allow_nan=False),
                min_size=n * (n - 1) // 2,
                max_size=n * (n - 1) // 2,
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_lambda_at_least_n(self, upper):
        # count back the matrix order from the triangle size
        n = next(k for k in range(2, 6) if k * (k - 1) // 2 == len(upper))
        a = np.ones((n, n))
        it = iter(upper)
        for i in range(n):
            for j in range(i + 1, n):
                v = next(it)
                a[i, j], a[j, i] = v, 1.0 / v
        _, lam = eigen(PairwiseMatrix(tuple("abcde"[:n]), a))
        assert lam >= n - 1e-6


class TestConsistencyIndex:
    def test_lambda_equals_n_gives_zero(self):
        for n in (2, 5, 10):
            p = PairwiseMatrix(tuple("abcdefghij"[:n]), np.ones((n, n)))
            assert evaluate_consistency(p)[1].ci == 0.0

    def test_direct_evaluation(self):
        # CI = (lambda_max - n) / (n - 1)
        _, report = evaluate_consistency(PairwiseMatrix(tuple("WXYZ"), CLAMPED_4X4))
        assert report.ci == (report.lambda_max - 4) / 3
        assert report.ci == pytest.approx(0.3657531, abs=1e-6)

    def test_oracle_example(self):
        _, report = evaluate_consistency(PairwiseMatrix(("a", "b", "c"), ORACLE_3X3))
        assert report.lambda_max == pytest.approx(3.0092027127, abs=1e-9)
        assert report.ci == pytest.approx(0.0046013564, abs=1e-9)


class TestRandomIndex:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, 0.0), (2, 0.0), (3, 0.58), (4, 0.90), (5, 1.12), (10, 1.49), (15, 1.59)],
    )
    def test_table(self, n, expected):
        assert _random_index(n) == expected

    @staticmethod
    def fit(n):
        # Alonso & Lamata (2006): lambda_max of random matrices is linear in n
        return (1.7699 * n - 4.3513) / (n - 1)

    def test_fit_tracks_table(self):
        for n in range(4, 16):
            assert abs(self.fit(n) - _random_index(n)) <= 0.02

    @pytest.mark.parametrize("n", [16, 24, 100])
    def test_fit_past_table(self, n):
        assert _random_index(n) == self.fit(n)

    def test_monte_carlo_agrees_with_fit_at_16(self):
        # mean CI of 1000 random reciprocal matrices with entries drawn from
        # the 17-value 1/9..9 scale; its standard error is about 0.004, so
        # 0.02 is five standard errors
        n, k = 16, 1000
        scale = np.array([1 / v for v in range(9, 1, -1)] + list(range(1, 10)), float)
        rng = np.random.default_rng(0)
        iu, ju = np.triu_indices(n, 1)
        a = np.ones((k, n, n))
        upper = scale[rng.integers(0, scale.size, size=(k, iu.size))]
        a[:, iu, ju] = upper
        a[:, ju, iu] = 1 / upper
        lam = np.linalg.eigvals(a).real.max(axis=1)
        assert abs(((lam - n) / (n - 1)).mean() - _random_index(n)) <= 0.02


class TestConsistencyRatio:
    def test_zero_ci(self):
        p = PairwiseMatrix(tuple("abcdefg"), np.ones((7, 7)))
        _, report = evaluate_consistency(p)
        assert (report.ci, report.cr) == (0.0, 0.0)

    def test_failing_ratio(self):
        _, report = evaluate_consistency(PairwiseMatrix(tuple("WXYZ"), CLAMPED_4X4))
        assert report.ri == 0.90
        assert report.cr == report.ci / 0.90
        assert report.cr == pytest.approx(0.406392, abs=1e-6)
        assert report.cr > 0.1

    def test_passing_ratio(self):
        _, report = evaluate_consistency(PairwiseMatrix(("a", "b", "c"), ORACLE_3X3))
        assert report.cr == report.ci / 0.58
        assert report.cr == pytest.approx(0.0079334, abs=1e-7)
        assert report.cr <= 0.1

    def test_n_two_always_consistent(self):
        # RI(2) is 0: CR is defined as 0 there, not CI / 0
        p = PairwiseMatrix(("a", "b"), np.array([[1.0, 9.0], [1 / 9, 1.0]]))
        _, report = evaluate_consistency(p)
        assert (report.ri, report.cr) == (0.0, 0.0)


class TestConsistentRoundTrip:
    @given(positive_weights)
    @settings(max_examples=150, deadline=None)
    def test_recovery_and_zero_ci(self, vals):
        w = np.asarray(vals)
        target = w / w.sum()
        wv, report = evaluate_consistency(ratio_matrix(w))
        np.testing.assert_allclose(wv.w, target, atol=1e-8)
        assert abs(report.lambda_max - len(vals)) <= 1e-8
        assert abs(report.ci) <= 1e-8
        assert report.cr <= 0.1

    @given(st.lists(st.floats(0.5, 4.0), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_unclamped_built_matrices_are_consistent(self, vals):
        # ratios of scores in [0.5, 4] never hit the clamp
        _, report = evaluate_consistency(build_pairwise(scores(*vals)))
        assert report.cr <= 1e-8


    @pytest.mark.parametrize("source", ["fixture-means", "rounds-below-n"])
    def test_rounding_ci_is_positive_zero(self, travel_matrix, source):
        # rank-1 matrices of raw scores: lambda_max can round to just below
        # n, and the CI must still come out as +0.0, not -0.0 or below zero
        if source == "fixture-means":
            s = category_means(travel_matrix)
        else:
            s = scores(0.5, 1.5, 2.5)
            assert eigen(build_pairwise(s))[1] < 3
        _, report = evaluate_consistency(build_pairwise(s))
        assert report.ci == 0.0
        assert math.copysign(1, report.ci) == 1

class TestWeightVectorInvariants:
    def test_must_sum_to_one(self):
        with pytest.raises(InputError):
            WeightVector(("a", "b"), np.array([0.5, 0.6]))

    def test_non_negative(self):
        with pytest.raises(InputError):
            WeightVector(("a", "b"), np.array([1.5, -0.5]))
