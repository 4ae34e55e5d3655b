"""Scalar references for the fuzzy scale, the possibility degree and the builders.

The library computes on arrays; these are the same definitions written one
number, one pair or one cell at a time. A triangular fuzzy number (TFN) is
an ``(l, m, u)`` tuple. Tests compare library output with these and never
these with themselves. ``exact_extents`` and ``exact_fuzzy_weights`` are
the exact oracle: Chang's extents and weights in ``Fraction`` arithmetic,
with no rounding at all. pytest does not collect this module (no ``test_``
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


def _pairs(n, pair_specs):
    """(i, j, intensity, flip) for each pair i < j in row order.

    The specs are taken in that order; pairs past their end are (1, False).
    """
    specs = iter(pair_specs)
    for i in range(n):
        for j in range(i + 1, n):
            intensity, flip = next(specs, (1, False))
            yield i, j, intensity, flip


def fuzzy_pairwise_array(n, pair_specs):
    """(n, n, 3) fuzzy matrix from (intensity, flip) specs, one per pair i < j.

    Pairs are taken in row order; pair (i, j) holds the intensity's TFN, or
    its inverse if ``flip``, and (j, i) the inverse of that. Pairs past the
    end of ``pair_specs`` are (1, False), and the diagonal is (1, 1, 1).
    """
    f = np.ones((n, n, 3))
    for i, j, intensity, flip in _pairs(n, pair_specs):
        t = scale_tfn(intensity)
        if flip:
            t = inverse(t)
        f[i, j] = t
        f[j, i] = inverse(t)
    return f


def fuzzy_pairwise_index(n, pair_specs):
    """``fuzzy_pairwise_array`` in the library's index form.

    Cell (i, j) is the row of ``tourrank.fuzzy._TABLE`` that holds its TFN:
    intensity - 1, plus 9 for an inverse.
    """
    k = np.zeros((n, n), dtype=np.int8)
    for i, j, intensity, flip in _pairs(n, pair_specs):
        k[i, j] = intensity - 1 + 9 * flip
        k[j, i] = intensity - 1 + 9 * (not flip)
    return k


def exact_extents(n, pair_specs):
    """Chang's synthetic extents of the specs' fuzzy matrix, as Fractions.

    Built from ``SCALE``: each row's (l, m, u) sum over the grand total's
    (u, m, l) sum, with no rounding anywhere.
    """
    cells = [[(Fraction(1),) * 3] * n for _ in range(n)]
    for i, j, intensity, flip in _pairs(n, pair_specs):
        t = tuple(Fraction(x) for x in SCALE[intensity])
        inv = (1 / t[2], 1 / t[1], 1 / t[0])
        cells[i][j], cells[j][i] = (inv, t) if flip else (t, inv)
    rows = [tuple(sum(c[x] for c in row) for x in range(3)) for row in cells]
    total = tuple(sum(r[x] for r in rows) for x in range(3))
    return [(l / total[2], m / total[1], u / total[0]) for l, m, u in rows]


def exact_fuzzy_weights(extents):
    """``oracle_fuzzy_weights`` of exact extents, as Fractions."""
    degrees = [
        Fraction(min(possibility(si, sj) for j, sj in enumerate(extents) if j != i))
        for i, si in enumerate(extents)
    ]
    total = sum(degrees)
    return [d / total for d in degrees]


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


def fuzzy_pair_specs(a):
    """The (intensity, flip) spec of each pair i < j of ``build_fuzzy_pairwise``."""
    n = a.shape[0]
    specs = []
    for i in range(n):
        for j in range(i + 1, n):
            value = float(a[i, j])
            if value >= 1.0:
                specs.append((_intensity(value), False))
            else:
                specs.append((_intensity(1.0 / value), True))
    return specs


def loop_fuzzy_pairwise(a):
    """The (n, n, 3) array of ``build_fuzzy_pairwise``, pair by pair."""
    return fuzzy_pairwise_array(a.shape[0], fuzzy_pair_specs(a))
