"""The array builders against per-pair reference loops built on the scalar TFN API.

The references are the pair-by-pair formulations of ``build_pairwise`` and
``build_fuzzy_pairwise``; the library must match them bitwise and emit the
same warnings.
"""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tourrank import (
    PairwiseMatrix,
    ScoreVector,
    build_fuzzy_pairwise,
    build_pairwise,
    saaty_to_tfn,
    tfn_inverse,
)
from tourrank.ahp import SAATY_MAX, SAATY_MIN, SCORE_FLOOR


def loop_pairwise(vals):
    """Comparison matrix and warning texts of ``build_pairwise``, pair by pair."""
    scores = np.array(vals, dtype=float)
    n = scores.shape[0]
    messages = []
    floored = scores < SCORE_FLOOR
    if floored.any():
        messages.append(
            f"{int(floored.sum())} score(s) below {SCORE_FLOOR} floored before "
            "ratio construction"
        )
    scores = np.maximum(scores, SCORE_FLOOR)
    a = np.ones((n, n))
    clamped = 0
    for i in range(n):
        for j in range(i + 1, n):
            ratio = scores[i] / scores[j]
            if ratio > SAATY_MAX:
                a[i, j], a[j, i] = SAATY_MAX, SAATY_MIN
                clamped += 1
            elif ratio < SAATY_MIN:
                a[i, j], a[j, i] = SAATY_MIN, SAATY_MAX
                clamped += 1
            else:
                a[i, j], a[j, i] = ratio, scores[j] / scores[i]
    if clamped:
        messages.append(f"{clamped} ratio pair(s) clamped to [1/9, 9]")
    return a, messages


def _intensity(value):
    # nearest scale intensity, ties rounded up
    return min(max(math.floor(value + 0.5), 1), 9)


def loop_fuzzy_pairwise(a):
    """The (n, n, 3) array of ``build_fuzzy_pairwise``, pair by pair."""
    n = a.shape[0]
    f = np.ones((n, n, 3))
    for i in range(n):
        for j in range(i + 1, n):
            value = float(a[i, j])
            if value >= 1.0:
                t = saaty_to_tfn(_intensity(value))
            else:
                t = tfn_inverse(saaty_to_tfn(_intensity(1.0 / value)))
            ti = tfn_inverse(t)
            f[i, j] = (t.l, t.m, t.u)
            f[j, i] = (ti.l, ti.m, ti.u)
    return f


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
@settings(max_examples=300, deadline=None)
def test_build_fuzzy_pairwise_matches_loop(vals):
    p, _ = _built(vals)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fp = build_fuzzy_pairwise(p)
    assert caught == []
    assert np.array_equal(fp.f, loop_fuzzy_pairwise(p.a))


def test_fuzzy_loop_covers_out_of_scale_ratios():
    # a hand-built matrix past the scale clips to intensity 9 on both sides
    a = np.array([[1.0, 12.0], [1 / 12.0, 1.0]])
    fp = build_fuzzy_pairwise(PairwiseMatrix(("a", "b"), a))
    assert np.array_equal(fp.f, loop_fuzzy_pairwise(a))
