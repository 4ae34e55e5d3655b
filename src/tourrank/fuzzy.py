"""Triangular-fuzzy comparison scale, extent analysis, and possibility weights.

Chang's extent analysis on arrays: a triangular fuzzy number (TFN) is a row
(l, m, u), a fuzzy matrix (n, n, 3), the extents (n, 3). ``Tfn`` and its
functions are the scalar reference of the same scale and formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ahp import PairwiseMatrix, WeightVector
from .dataset import _readonly
from .errors import InputError


@dataclass(frozen=True)
class Tfn:
    """Triangular fuzzy number (l, m, u) with l <= m <= u."""

    l: float
    m: float
    u: float

    def __post_init__(self):
        if not (math.isfinite(self.l) and math.isfinite(self.m) and math.isfinite(self.u)):
            raise InputError("TFN components must be finite")
        if not self.l <= self.m <= self.u:
            raise InputError(f"TFN requires l <= m <= u, got ({self.l}, {self.m}, {self.u})")


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


def saaty_to_tfn(intensity: int) -> Tfn:
    """TFN for an integer comparison intensity in 1..9."""
    if intensity not in range(1, 10):
        raise InputError(f"intensity {intensity!r} outside 1..9")
    return Tfn(*_SCALE[int(intensity) - 1].tolist())


def tfn_inverse(t: Tfn) -> Tfn:
    """Invert components and reverse their order: (1/u, 1/m, 1/l)."""
    if t.l <= 0:
        raise InputError(f"cannot invert TFN with l <= 0: {t}")
    return Tfn(1.0 / t.u, 1.0 / t.m, 1.0 / t.l)


def _check_tfns(t: np.ndarray) -> None:
    if not np.all(np.isfinite(t)) or np.any(t <= 0):
        raise InputError("TFN components must be positive and finite")
    if np.any(t[..., 0] > t[..., 1]) or np.any(t[..., 1] > t[..., 2]):
        raise InputError("every entry must satisfy l <= m <= u")


@dataclass(frozen=True)
class FuzzyPairwiseMatrix:
    """n x n matrix of TFNs, stored as an (n, n, 3) array of (l, m, u).

    The diagonal is (1,1,1) and the lower triangle holds the exact
    inverses of the upper triangle.
    """

    names: tuple[str, ...]
    f: np.ndarray

    def __post_init__(self):
        names = tuple(self.names)
        f = _readonly(self.f)
        if f.ndim != 3 or f.shape[2] != 3 or f.shape[0] != f.shape[1]:
            raise InputError("fuzzy matrix must have shape (n, n, 3)")
        n = f.shape[0]
        if n == 0:
            raise InputError("fuzzy matrix must have at least one row")
        if n != len(names):
            raise InputError(f"{len(names)} names for a {n}x{n} fuzzy matrix")
        _check_tfns(f)
        if np.any(f[np.arange(n), np.arange(n)] != 1.0):
            raise InputError("diagonal entries must be (1, 1, 1)")
        if np.max(np.abs(f[:, :, ::-1].transpose(1, 0, 2) * f - 1.0)) > 1e-9:
            raise InputError("lower triangle must hold the inverses of the upper")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "f", f)

    @property
    def order(self) -> int:
        return self.f.shape[0]

    def tfn(self, i: int, j: int) -> Tfn:
        l, m, u = self.f[i, j]
        return Tfn(float(l), float(m), float(u))


@dataclass(frozen=True)
class ExtentVector:
    """Fuzzy synthetic extents, stored as an (n, 3) array of (l, m, u) rows."""

    names: tuple[str, ...]
    s: np.ndarray

    def __post_init__(self):
        names = tuple(self.names)
        s = _readonly(self.s)
        if s.ndim != 2 or s.shape[1] != 3:
            raise InputError("extents must have shape (n, 3)")
        if s.shape[0] != len(names):
            raise InputError("one extent per alternative required")
        _check_tfns(s)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "s", s)


def build_fuzzy_pairwise(p: PairwiseMatrix) -> FuzzyPairwiseMatrix:
    """Fuzzify a crisp comparison matrix through the intensity scale.

    Both cells of a pair read the pair's larger ratio, round it once to the
    nearest intensity, ties up, and take that intensity's TFN: the cell
    holding the larger ratio the TFN itself, the other its inverse. A ratio
    within a relative 1e-9 of a half step counts as on it. The diagonal is
    (1,1,1).
    """
    a = p.a
    # Scaling by 1 + 1e-9 lifts a ratio just below a half step to or past
    # it, as if snapped onto it (one just above rounds up anyway). So float
    # noise in the means cannot pick the intensity: in a mean of R ratings it
    # is at most about R * eps (2e-12 at R = 20000), while two distinct
    # ratios of one-decimal rating sums differ by at least about 1e-7,
    # relative.
    ratio = np.maximum(a, a.T) * (1 + 1e-9)
    k = np.clip(np.floor(ratio + 0.5), 1, 9).astype(int)
    return FuzzyPairwiseMatrix(p.names, _TABLE[k - 1 + 9 * (a < a.T)])


def synthetic_extents(fp: FuzzyPairwiseMatrix) -> ExtentVector:
    """Fuzzy synthetic extent of each row against the grand total.

    S_i = rowsum_i (x) inverse(total), i.e. componentwise
    (rowsum_l / total_u, rowsum_m / total_m, rowsum_u / total_l).
    """
    rows = fp.f.sum(axis=1)
    # a validated fuzzy matrix is non-empty and positive, so total > 0
    total = rows.sum(axis=0)
    return ExtentVector(fp.names, rows / total[::-1])


def degree_of_possibility(m2: Tfn, m1: Tfn) -> float:
    """Degree of possibility that m2 >= m1, in [0, 1].

    1 when m2's peak reaches m1's; 0 when the supports are disjoint the
    other way (m1.l >= m2.u); otherwise the height of the intersection
    point, (m1.l - m2.u) / ((m2.m - m2.u) - (m1.m - m1.l)).
    """
    if m2.m >= m1.m:
        return 1.0
    if m1.l >= m2.u:
        return 0.0
    # the denominator is not 0 here: that needs m2.m == m2.u and m1.m == m1.l,
    # so m1.l > m2.u, which the branch above has returned on
    return (m1.l - m2.u) / ((m2.m - m2.u) - (m1.m - m1.l))


def fuzzy_weights(e: ExtentVector) -> WeightVector:
    """Weights from minimum pairwise possibility degrees, sum-normalized.

    d_i = min over j != i of V(S_i >= S_j), with V as in
    :func:`degree_of_possibility`. The degrees never sum to 0: the extent
    with the highest m has degree 1 against every other extent.
    """
    n = e.s.shape[0]
    if n < 2:
        raise InputError(f"need at least 2 extents, got {n}")
    l, m, u = e.s.T
    # row i is S_i (the m2 side), column j is S_j (the m1 side)
    m2, u2 = m[:, None], u[:, None]
    l1, m1 = l[None, :], m[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        # a zero denominator needs m2 == u2 and m1 == l1, which one of
        # the first two branches already covers
        height = (l1 - u2) / ((m2 - u2) - (m1 - l1))
    v = np.where(m2 >= m1, 1.0, np.where(l1 >= u2, 0.0, height))
    np.fill_diagonal(v, np.inf)
    d = v.min(axis=1)
    return WeightVector(e.names, d / d.sum())
