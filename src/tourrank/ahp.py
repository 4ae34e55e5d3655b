"""Pairwise-comparison matrices, eigenvector weights, and Saaty consistency."""

from __future__ import annotations

import warnings

import numpy as np

from .dataset import ScoreVector, _NamedArray, _Value
from .errors import ClampWarning, ConvergenceError, InputError, ScoreFloorWarning

SAATY_MIN = 1.0 / 9.0
SAATY_MAX = 9.0

#: Floor applied to scores before forming ratios, so zero means stay finite.
SCORE_FLOOR = 1e-6

# Saaty random consistency index for matrix orders 1..15
_RANDOM_INDEX = (
    0.0, 0.0, 0.58, 0.90, 1.12, 1.24, 1.32, 1.41,
    1.45, 1.49, 1.51, 1.54, 1.56, 1.58, 1.59,
)

_TOL = 1e-10
_MAX_ITER = 1000
_RECIPROCITY_TOL = 1e-9


class PairwiseMatrix(_NamedArray):
    """Positive reciprocal comparison matrix with unit diagonal."""

    __slots__ = ("names", "a")
    _SHAPE = ("n", "n")

    def _check(self):
        a = self.a
        if not np.all(np.isfinite(a)) or np.any(a <= 0):
            raise InputError("comparison entries must be positive and finite")
        if np.any(np.diag(a) != 1.0):
            raise InputError("diagonal entries must be exactly 1")
        if np.max(np.abs(a * a.T - 1.0)) > _RECIPROCITY_TOL:
            raise InputError("matrix is not reciprocal: a[j][i] must equal 1/a[i][j]")

    @property
    def order(self) -> int:
        return self.a.shape[0]


class WeightVector(_NamedArray):
    """Non-negative priority weights summing to one."""

    __slots__ = ("names", "w")
    _SHAPE = ("n",)

    def _check(self):
        w = self.w
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise InputError("weights must be finite and non-negative")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise InputError(f"weights must sum to 1, got {w.sum()!r}")


class ConsistencyReport(_Value):
    """Principal-eigenvalue consistency diagnostics for one matrix."""

    __slots__ = ("lambda_max", "n", "ci", "ri", "cr")


def build_pairwise(s: ScoreVector) -> PairwiseMatrix:
    """Comparison matrix from score ratios, clamped to the 1/9..9 scale.

    a[i][j] = s_i / s_j after flooring scores at :data:`SCORE_FLOOR`.
    A ratio past the scale bound pins the pair to (9, 1/9), keeping
    reciprocity exact. Flooring and clamping each emit one warning.
    """
    floored = s.scores < SCORE_FLOOR
    if floored.any():
        warnings.warn(
            f"{int(floored.sum())} score(s) below {SCORE_FLOOR} floored before "
            "ratio construction",
            ScoreFloorWarning,
            stacklevel=2,
        )
    scores = np.maximum(s.scores, SCORE_FLOOR)

    # direct division on both sides keeps rows of tied scores bitwise
    # identical (and the diagonal exactly 1); reciprocity holds to ~1 ulp
    a = scores[:, None] / scores[None, :]
    # the upper triangle decides each pair, so both sides clamp together
    high = np.triu(a > SAATY_MAX, 1)
    low = np.triu(a < SAATY_MIN, 1)
    a[high | low.T] = SAATY_MAX
    a[low | high.T] = SAATY_MIN
    clamped = int(high.sum() + low.sum())
    if clamped:
        warnings.warn(
            f"{clamped} ratio pair(s) clamped to [1/9, 9]",
            ClampWarning,
            stacklevel=2,
        )
    return PairwiseMatrix(s.alternatives, a)


def _random_index(n: int) -> float:
    """Random consistency index for matrix order n >= 1.

    Saaty's table for n <= 15; above it the linear fit of random-matrix
    lambda_max by Alonso & Lamata (2006), RI(n) = (1.7699 n - 4.3513) / (n - 1).
    """
    if n <= len(_RANDOM_INDEX):
        return _RANDOM_INDEX[n - 1]
    return (1.7699 * n - 4.3513) / (n - 1)


def evaluate_consistency(p: PairwiseMatrix) -> tuple[WeightVector, ConsistencyReport]:
    """Eigenvector weights plus the Saaty consistency report for one matrix.

    The weights are the dominant eigenvector by power iteration: it starts
    from the uniform vector and stops once successive sum-normalized
    iterates agree to 1e-10 in max-norm. lambda_max is the Rayleigh
    quotient of the converged iterate, CI = (lambda_max - n) / (n - 1) and
    CR = CI / RI(n). Orders whose random index is 0 (n <= 2) are always
    consistent, so CR is 0 there. Judging CR against a threshold is left
    to the caller, as the CLI's ``--cr-threshold`` does.

    Raises:
        ConvergenceError: 1000 steps ran without converging; carries the
            last iterate.
    """
    a = p.a
    n = p.order
    x = np.full(n, 1.0 / n)
    for _ in range(_MAX_ITER):
        # a row-wise sum, unlike the BLAS a @ x, reduces every row the same
        # way, so rows of tied scores get bitwise-equal weights
        y = (a * x).sum(axis=1)
        x_next = y / y.sum()
        if np.max(np.abs(x_next - x)) < _TOL:
            break
        x = x_next
    else:
        raise ConvergenceError(
            f"power iteration did not converge within {_MAX_ITER} iterations",
            last_weights=x,
            iterations=_MAX_ITER,
        )
    lam = float(x_next @ (a @ x_next)) / float(x_next @ x_next)
    # lambda_max >= n for every positive reciprocal matrix, so a negative CI
    # is rounding (-2e-16 on a rank-1 matrix); 0.0 first keeps -0.0 out too
    ci = max(0.0, (lam - n) / (n - 1))
    ri = _random_index(n)
    report = ConsistencyReport(
        lambda_max=lam, n=n, ci=ci, ri=ri, cr=ci / ri if ri > 0 else 0.0
    )
    return WeightVector(p.names, x_next), report
