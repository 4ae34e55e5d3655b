"""Triangular-fuzzy comparison scale, extent analysis, and possibility weights.

Chang's extent analysis on arrays: a triangular fuzzy number (TFN) is a row
(l, m, u) and the extents are (n, 3). The fuzzy matrix is in index form: an
(n, n) array whose cells are rows of the scale table ``_TABLE``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .ahp import PairwiseMatrix, WeightVector
from .dataset import _NamedArray, _readonly
from .errors import InputError


# Comparison scale: row k-1 is the TFN of intensity k in 1..9. Intensity 1
# is "just equal"; from 4 up the pattern is ((k-2)/2, (k-1)/2, k/2).
_SCALE = _readonly([
    (1.0, 1.0, 1.0),
    (1 / 2, 3 / 4, 1.0),
    (2 / 3, 1.0, 3 / 2),
    (1.0, 3 / 2, 2.0),
    (3 / 2, 2.0, 5 / 2),
    (2.0, 5 / 2, 3.0),
    (5 / 2, 3.0, 7 / 2),
    (3.0, 7 / 2, 4.0),
    (7 / 2, 4.0, 9 / 2),
])

# _SCALE stacked on its inverses: row 9 + k-1 is the inverse of intensity k
_TABLE = _readonly(np.concatenate([_SCALE, 1.0 / _SCALE[:, ::-1]]))

# Every _TABLE entry is a multiple of 1/1260 (the least common multiple of
# its denominators 2, 3, 4, 5, 7 and 9), so 1260 * _TABLE is exact in int64
_TABLE_1260 = np.rint(1260 * _TABLE).astype(np.int64)


class ExtentVector(_NamedArray):
    """Fuzzy synthetic extents, stored as an (n, 3) array of (l, m, u) rows."""

    __slots__ = ("names", "s")
    _SHAPE = ("n", 3)

    def _check(self):
        s = self.s
        if not np.all(np.isfinite(s)) or np.any(s <= 0):
            raise InputError("TFN components must be positive and finite")
        if np.any(s[:, 0] > s[:, 1]) or np.any(s[:, 1] > s[:, 2]):
            raise InputError("every entry must satisfy l <= m <= u")


def build_fuzzy_pairwise(p: PairwiseMatrix) -> np.ndarray:
    """Fuzzify a crisp comparison matrix through the intensity scale.

    Both cells of a pair read the pair's larger ratio, round it once to the
    nearest intensity, ties up, and take that intensity's TFN: the cell
    holding the larger ratio the TFN itself, the other its inverse. A ratio
    within a relative 1e-9 of a half step counts as on it. The diagonal is
    (1,1,1).

    The fuzzy matrix comes back in index form: a read-only (n, n) int8
    array whose cell holds the row of ``_TABLE`` with its TFN, so
    ``_TABLE[k]`` is the (n, n, 3) array of (l, m, u).
    """
    a = p.a
    # Scaling by 1 + 1e-9 lifts a ratio just below a half step to or past
    # it, as if snapped onto it (one just above rounds up anyway). So float
    # noise in the means cannot pick the intensity: in a mean of R ratings it
    # is at most about R * eps (2e-12 at R = 20000), while two distinct
    # ratios of one-decimal rating sums differ by at least about 1e-7,
    # relative.
    big = np.maximum(a, a.T)
    k = np.clip(np.floor(big * (1 + 1e-9) + 0.5), 1, 9).astype(np.int8)
    # row k - 1 of _TABLE, or its inverse 9 rows on in the smaller ratio's cell
    k = np.where(a < big, k + 8, k - 1)
    k.setflags(write=False)
    return k


def synthetic_extents(names: Sequence[str], k: np.ndarray) -> ExtentVector:
    """Fuzzy synthetic extent of each row of the index-form matrix ``k``.

    S_i = rowsum_i (x) inverse(total), i.e. componentwise
    (rowsum_l / total_u, rowsum_m / total_m, rowsum_u / total_l). The sums
    are exact integers over 1260 * _TABLE, from each row's count of every
    table row, so rows that are equal in exact arithmetic give bitwise
    equal extents. ``k`` must be an (n, n) integer array for n names, with
    cells in 0..17.
    """
    n = len(names)
    try:
        k = np.asarray(k)
    except ValueError as exc:  # ragged
        raise InputError(f"k is not a regular array: {exc}") from None
    # a float cell may not be whole
    if k.shape != (n, n) or k.dtype.kind not in "iu" or np.any((k < 0) | (k > 17)):
        raise InputError(
            f"k must be an ({n}, {n}) integer array of scale-table rows 0..17"
        )
    # cell (i, j) counts in bin 18 i + k[i, j]; intp, as uint64 plus int64
    # would give floats, which bincount rejects
    bins = k.astype(np.intp)
    bins += 18 * np.arange(n)[:, None]
    counts = np.bincount(bins.ravel(), minlength=18 * n)
    rows = counts.reshape(n, 18) @ _TABLE_1260
    # the diagonal's (1, 1, 1) makes every total positive; the 1260 cancels.
    # A total is at most 5670 * n^2, below 2^53 for any n whose (n, n)
    # matrix fits in memory, so the division reads exact integers
    total = rows.sum(axis=0)
    return ExtentVector(names, rows / total[::-1])


def fuzzy_weights(e: ExtentVector) -> WeightVector:
    """Weights from minimum pairwise possibility degrees, sum-normalized.

    d_i = min over j != i of V(S_i >= S_j), the degree of possibility that
    S_i = (l2, m2, u2) is at least S_j = (l1, m1, u1): 1 if m2 >= m1; else 0
    if l1 >= u2; else the height of the intersection point,
    (u2 - l1) / ((u2 - m2) + (m1 - l1)). The degrees never sum to 0: the
    extent with the highest m has degree 1 against every other extent.
    """
    l, m, u = e.s.T
    # row i is S_i (the m2 side), column j is S_j (the m1 side)
    m2, u2 = m[:, None], u[:, None]
    l1, m1 = l[None, :], m[None, :]
    v = l1 - u2  # divided in place into the height
    with np.errstate(divide="ignore", invalid="ignore"):
        # a zero denominator needs m2 == u2 and m1 == l1, which one of
        # the two masks below already covers
        v /= (m2 - u2) - (m1 - l1)
    v[l1 >= u2] = 0.0
    v[m2 >= m1] = 1.0  # after the line above: where both hold, V is 1
    np.fill_diagonal(v, np.inf)
    d = v.min(axis=1)
    return WeightVector(e.names, d / d.sum())
