"""The array builders against the per-pair reference loops of ``reference``.

The references are the pair-by-pair formulations of ``build_pairwise`` and
``build_fuzzy_pairwise`` (whose index form is read through ``_TABLE``); the
library must match them bitwise and emit the same warnings.
"""

import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tourrank import PairwiseMatrix, ScoreVector, build_fuzzy_pairwise, build_pairwise
from tourrank.fuzzy import _TABLE

from reference import loop_fuzzy_pairwise, loop_pairwise


#: exact multiples of a power-of-two base: ties, half-ties (ratios 1.5,
#: 2.5, ...) and ratios just inside, on and just past 9 and 1/9
_FACTORS = [1.0, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5, 9.0, 9.0 * (1 + 2**-50), 9.5, 20.0]

_score = st.one_of(
    st.tuples(
        st.sampled_from([0.25, 0.5, 1.0, 2.0]),
        st.sampled_from(_FACTORS),
        st.booleans(),
    ).map(lambda t: t[0] * t[1] if t[2] else t[0] / t[1]),
    st.floats(0.0, 4.0),
    st.sampled_from([0.0, 1e-9]),  # floored to SCORE_FLOOR
    # mean-like values on the rating grids, whose ratios hit half steps
    # up to rounding noise (0.6 / 0.4 is 1.4999999999999998)
    st.integers(0, 40).map(lambda k: k / 10),
    st.integers(0, 400).map(lambda k: k / 100),
)
score_lists = st.lists(_score, min_size=2, max_size=12)


def _built(vals):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        p = build_pairwise(
            ScoreVector(tuple(f"a{i}" for i in range(len(vals))), np.array(vals))
        )
    return p, [str(w.message) for w in caught]


@given(score_lists)
@example([1.0, 1.5, 2.5, 1.0])
@example([1.0, 9.0, 9.0 * (1 + 2**-50), 1 / 9, 0.0])
@settings(max_examples=300, deadline=None)
def test_build_pairwise_matches_loop(vals):
    p, messages = _built(vals)
    want, want_messages = loop_pairwise(vals)
    assert np.array_equal(p.a, want)
    assert messages == want_messages


@given(score_lists)
@example([2.0, 3.0, 5.0, 0.8, 1.0])
@example([0.6, 0.4, 0.91])
@settings(max_examples=300, deadline=None)
def test_build_fuzzy_pairwise_matches_loop(vals):
    p, _ = _built(vals)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        k = build_fuzzy_pairwise(p)
    assert caught == []
    assert np.array_equal(_TABLE[k], loop_fuzzy_pairwise(p.a))


def test_fuzzy_loop_covers_out_of_scale_ratios():
    # a hand-built matrix past the scale clips to intensity 9 on both sides
    a = np.array([[1.0, 12.0], [1 / 12.0, 1.0]])
    k = build_fuzzy_pairwise(PairwiseMatrix(("a", "b"), a))
    assert np.array_equal(_TABLE[k], loop_fuzzy_pairwise(a))
