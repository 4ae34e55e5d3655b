"""Scalar references for the fuzzy scale, the possibility degree and the builders.

The library computes on arrays; these are the same definitions written one
number, one pair or one cell at a time. A triangular fuzzy number (TFN) is
an ``(l, m, u)`` tuple. Tests compare library output with these and never
these with themselves. pytest does not collect this module (no ``test_``
prefix); tests import it as ``from reference import ...``.
"""

import math
from fractions import Fraction

import numpy as np

from tourrank.ahp import SAATY_MAX, SAATY_MIN, SCORE_FLOOR

#: the comparison scale as exact rationals: intensity k in 1..9 -> (l, m, u)
SCALE = {
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


def scale_tfn(intensity):
    """The TFN of an intensity in 1..9, as floats."""
    return tuple(float(x) for x in SCALE[intensity])


def inverse(t):
    """(1/u, 1/m, 1/l) of a positive TFN."""
    l, m, u = t
    return (1.0 / u, 1.0 / m, 1.0 / l)


def possibility(s2, s1):
    """Chang's degree of possibility V(s2 >= s1), in [0, 1]."""
    _, m2, u2 = s2
    l1, m1, _ = s1
    if m2 >= m1:
        return 1.0
    if l1 >= u2:
        return 0.0
    return (l1 - u2) / ((m2 - u2) - (m1 - l1))


def oracle_fuzzy_weights(extents):
    """Each extent's least possibility degree against the others, sum-normalized."""
    degrees = [
        min(possibility(si, sj) for j, sj in enumerate(extents) if j != i)
        for i, si in enumerate(extents)
    ]
    total = sum(degrees)
    return [d / total for d in degrees]


def fuzzy_pairwise_array(n, pair_specs):
    """(n, n, 3) fuzzy matrix from (intensity, flip) specs, one per pair i < j.

    Pairs are taken in row order; pair (i, j) holds the intensity's TFN, or
    its inverse if ``flip``, and (j, i) the inverse of that. Pairs past the
    end of ``pair_specs`` are (1, False), and the diagonal is (1, 1, 1).
    """
    f = np.ones((n, n, 3))
    specs = iter(pair_specs)
    for i in range(n):
        for j in range(i + 1, n):
            intensity, flip = next(specs, (1, False))
            t = scale_tfn(intensity)
            if flip:
                t = inverse(t)
            f[i, j] = t
            f[j, i] = inverse(t)
    return f


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
    # nearest scale intensity, ties rounded up; a value within a relative
    # 1e-9 of a half step counts as on it, so rounding noise cannot decide
    half = math.floor(value) + 0.5
    if abs(value - half) <= 1e-9 * half:
        value = half
    return min(max(math.floor(value + 0.5), 1), 9)


def loop_fuzzy_pairwise(a):
    """The (n, n, 3) array of ``build_fuzzy_pairwise``, pair by pair."""
    n = a.shape[0]
    specs = []
    for i in range(n):
        for j in range(i + 1, n):
            value = float(a[i, j])
            if value >= 1.0:
                specs.append((_intensity(value), False))
            else:
                specs.append((_intensity(1.0 / value), True))
    return fuzzy_pairwise_array(n, specs)
