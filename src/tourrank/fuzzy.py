"""Triangular-fuzzy comparison scale, extent analysis, and possibility weights."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .ahp import PairwiseMatrix, WeightVector
from .dataset import _readonly
from .errors import InputError, UniformFallbackWarning


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


# Comparison scale: intensity of importance 1..9 -> TFN. Intensity 1 is
# "just equal"; from 3 up the pattern is ((k-2)/2, (k-1)/2, k/2).
_SCALE = {
    1: Tfn(1.0, 1.0, 1.0),
    2: Tfn(1 / 2, 3 / 4, 1.0),
    3: Tfn(2 / 3, 1.0, 3 / 2),
    4: Tfn(1.0, 3 / 2, 2.0),
    5: Tfn(3 / 2, 2.0, 5 / 2),
    6: Tfn(2.0, 5 / 2, 3.0),
    7: Tfn(5 / 2, 3.0, 7 / 2),
    8: Tfn(3.0, 7 / 2, 4.0),
    9: Tfn(7 / 2, 4.0, 9 / 2),
}


def saaty_to_tfn(intensity: int) -> Tfn:
    """TFN for an integer comparison intensity in 1..9."""
    if intensity not in _SCALE:
        raise InputError(f"intensity {intensity!r} outside 1..9")
    return _SCALE[intensity]


def tfn_inverse(t: Tfn) -> Tfn:
    """Invert components and reverse their order: (1/u, 1/m, 1/l)."""
    if t.l <= 0:
        raise InputError(f"cannot invert TFN with l <= 0: {t}")
    return Tfn(1.0 / t.u, 1.0 / t.m, 1.0 / t.l)


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
        if n != len(names):
            raise InputError(f"{len(names)} names for a {n}x{n} fuzzy matrix")
        if not np.all(np.isfinite(f)) or np.any(f <= 0):
            raise InputError("TFN components must be positive and finite")
        if np.any(f[:, :, 0] > f[:, :, 1]) or np.any(f[:, :, 1] > f[:, :, 2]):
            raise InputError("every entry must satisfy l <= m <= u")
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
    """Fuzzy synthetic extents, one TFN per alternative."""

    names: tuple[str, ...]
    s: tuple[Tfn, ...]

    def __post_init__(self):
        names = tuple(self.names)
        s = tuple(self.s)
        if len(s) != len(names):
            raise InputError("one extent per alternative required")
        if any(t.l <= 0 for t in s):
            raise InputError("extents must be positive")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "s", s)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _crisp_to_tfn(value: float) -> Tfn:
    # Ratios are rounded to the nearest scale intensity, ties up. Values
    # below 1 go through the inverse side so both directions agree.
    if value >= 1.0:
        return saaty_to_tfn(min(max(_round_half_up(value), 1), 9))
    return tfn_inverse(saaty_to_tfn(min(max(_round_half_up(1.0 / value), 1), 9)))


def build_fuzzy_pairwise(p: PairwiseMatrix) -> FuzzyPairwiseMatrix:
    """Fuzzify a crisp comparison matrix through the intensity scale.

    Each upper-triangle ratio is mapped to the TFN of its rounded
    intensity (or the inverse TFN for ratios below 1); the lower triangle
    is filled with exact inverses and the diagonal with (1,1,1).
    """
    n = p.order
    f = np.ones((n, n, 3))
    for i in range(n):
        for j in range(i + 1, n):
            t = _crisp_to_tfn(float(p.a[i, j]))
            ti = tfn_inverse(t)
            f[i, j] = (t.l, t.m, t.u)
            f[j, i] = (ti.l, ti.m, ti.u)
    return FuzzyPairwiseMatrix(p.names, f)


def synthetic_extents(fp: FuzzyPairwiseMatrix) -> ExtentVector:
    """Fuzzy synthetic extent of each row against the grand total.

    S_i = rowsum_i (x) inverse(total), i.e. componentwise
    (rowsum_l / total_u, rowsum_m / total_m, rowsum_u / total_l).
    """
    rows = fp.f.sum(axis=1)
    total = rows.sum(axis=0)
    if total[0] <= 0:
        raise InputError("total fuzzy sum must be positive")
    s = rows / total[::-1]
    return ExtentVector(
        fp.names, tuple(Tfn(float(l), float(m), float(u)) for l, m, u in s)
    )


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
    denom = (m2.m - m2.u) - (m1.m - m1.l)
    if denom == 0:
        # Both TFNs collapsed to points with m2 < m1: no overlap credit.
        return 0.0
    return (m1.l - m2.u) / denom


def fuzzy_weights(e: ExtentVector) -> WeightVector:
    """Weights from minimum pairwise possibility degrees, sum-normalized.

    d_i = min over j != i of V(S_i >= S_j). An all-zero degree vector
    (unreachable for valid extents) falls back to uniform weights with a
    warning.
    """
    s = e.s
    n = len(s)
    if n < 2:
        raise InputError(f"need at least 2 extents, got {n}")
    d = np.array(
        [
            min(degree_of_possibility(s[i], s[j]) for j in range(n) if j != i)
            for i in range(n)
        ]
    )
    total = d.sum()
    if total == 0:
        warnings.warn(
            "all possibility degrees are zero; falling back to uniform weights",
            UniformFallbackWarning,
            stacklevel=2,
        )
        return WeightVector(e.names, np.full(n, 1.0 / n))
    return WeightVector(e.names, d / total)
