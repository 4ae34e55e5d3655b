"""Pairwise-comparison matrices, eigenvector weights, and Saaty consistency."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import ScoreVector, _readonly
from .errors import ClampWarning, ConvergenceError, InputError, ScoreFloorWarning

SAATY_MIN = 1.0 / 9.0
SAATY_MAX = 9.0

#: Floor applied to scores before forming ratios, so zero means stay finite.
SCORE_FLOOR = 1e-6

#: Saaty random consistency index for matrix orders 1..15.
RANDOM_INDEX = (
    0.0, 0.0, 0.58, 0.90, 1.12, 1.24, 1.32, 1.41,
    1.45, 1.49, 1.51, 1.54, 1.56, 1.58, 1.59,
)

DEFAULT_CR_THRESHOLD = 0.1
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 1000

_RECIPROCITY_TOL = 1e-9


@dataclass(frozen=True)
class PairwiseMatrix:
    """Positive reciprocal comparison matrix with unit diagonal."""

    names: tuple[str, ...]
    a: np.ndarray

    def __post_init__(self):
        names = tuple(self.names)
        a = _readonly(self.a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputError("comparison matrix must be square")
        if a.shape[0] == 0:
            raise InputError("comparison matrix must have at least one row")
        if a.shape[0] != len(names):
            raise InputError(f"{len(names)} names for a {a.shape[0]}x{a.shape[0]} matrix")
        if not np.all(np.isfinite(a)) or np.any(a <= 0):
            raise InputError("comparison entries must be positive and finite")
        if np.any(np.diag(a) != 1.0):
            raise InputError("diagonal entries must be exactly 1")
        if np.max(np.abs(a * a.T - 1.0)) > _RECIPROCITY_TOL:
            raise InputError("matrix is not reciprocal: a[j][i] must equal 1/a[i][j]")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "a", a)

    @property
    def order(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class WeightVector:
    """Non-negative priority weights summing to one."""

    names: tuple[str, ...]
    w: np.ndarray

    def __post_init__(self):
        names = tuple(self.names)
        w = _readonly(self.w)
        if w.ndim != 1 or w.shape[0] != len(names):
            raise InputError("weights must be 1-D with one entry per name")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise InputError("weights must be finite and non-negative")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise InputError(f"weights must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class ConsistencyReport:
    """Principal-eigenvalue consistency diagnostics for one matrix."""

    lambda_max: float
    n: int
    ci: float
    ri: float
    cr: float
    consistent: bool


def build_pairwise(s: ScoreVector) -> PairwiseMatrix:
    """Comparison matrix from score ratios, clamped to the 1/9..9 scale.

    a[i][j] = s_i / s_j after flooring scores at :data:`SCORE_FLOOR`.
    A ratio past the scale bound pins the pair to (9, 1/9), keeping
    reciprocity exact. Flooring and clamping each emit one warning.
    """
    scores = np.asarray(s.scores, dtype=float)
    if not np.all(np.isfinite(scores)):
        raise InputError("scores must be finite")
    n = scores.shape[0]
    if n < 2:
        raise InputError(f"need at least 2 alternatives, got {n}")

    floored = scores < SCORE_FLOOR
    if floored.any():
        warnings.warn(
            f"{int(floored.sum())} score(s) below {SCORE_FLOOR} floored before "
            "ratio construction",
            ScoreFloorWarning,
            stacklevel=2,
        )
    scores = np.maximum(scores, SCORE_FLOOR)

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


def principal_eigenvector(
    p: PairwiseMatrix,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[WeightVector, float]:
    """Dominant eigenvector by power iteration, plus its eigenvalue.

    Starts from the uniform vector and stops once successive sum-normalized
    iterates agree to ``tol`` in max-norm; the eigenvalue is the Rayleigh
    quotient of the converged iterate.

    Raises:
        ConvergenceError: iteration cap reached; carries the last iterate.
    """
    if tol <= 0:
        raise InputError("tol must be positive")
    if max_iter < 1:
        raise InputError("max_iter must be at least 1")
    a = p.a
    n = p.order
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        # a row-wise sum, unlike the BLAS a @ x, reduces every row the same
        # way, so rows of tied scores get bitwise-equal weights
        y = (a * x).sum(axis=1)
        x_next = y / y.sum()
        if np.max(np.abs(x_next - x)) < tol:
            lam = float(x_next @ (a @ x_next)) / float(x_next @ x_next)
            return WeightVector(p.names, x_next), lam
        x = x_next
    raise ConvergenceError(
        f"power iteration did not converge within {max_iter} iterations",
        last_weights=x,
        iterations=max_iter,
    )


def consistency_index(lambda_max: float, n: int) -> float:
    """CI = (lambda_max - n) / (n - 1); defined as 0 for n < 2."""
    if n < 2:
        return 0.0
    if not np.isfinite(lambda_max):
        raise InputError("lambda_max must be finite")
    return (lambda_max - n) / (n - 1)


def random_index(n: int) -> float:
    """Random consistency index for matrix order n >= 1.

    Saaty's table for n <= 15; above it the linear fit of random-matrix
    lambda_max by Alonso & Lamata (2006), RI(n) = (1.7699 n - 4.3513) / (n - 1).
    """
    if n < 1:
        raise InputError(f"random index undefined for n={n}; n must be >= 1")
    if n <= len(RANDOM_INDEX):
        return RANDOM_INDEX[n - 1]
    return (1.7699 * n - 4.3513) / (n - 1)


def consistency_ratio(
    ci: float, n: int, threshold: float = DEFAULT_CR_THRESHOLD
) -> tuple[float, bool]:
    """CR = CI / RI(n) and the gate verdict CR <= threshold.

    Orders whose random index is 0 (n <= 2) are always consistent, so CR
    is defined as 0 there.
    """
    if not np.isfinite(ci):
        raise InputError("ci must be finite")
    ri = random_index(n)
    cr = ci / ri if ri > 0 else 0.0
    return cr, cr <= threshold


def evaluate_consistency(
    p: PairwiseMatrix, *, threshold: float = DEFAULT_CR_THRESHOLD
) -> tuple[WeightVector, ConsistencyReport]:
    """Eigenvector weights plus the full consistency report for one matrix."""
    weights, lam = principal_eigenvector(p)
    n = p.order
    # lambda_max >= n for every positive reciprocal matrix, so a negative CI
    # is rounding (-2e-16 on a rank-1 matrix); 0.0 first keeps -0.0 out too
    ci = max(0.0, consistency_index(lam, n))
    cr, ok = consistency_ratio(ci, n, threshold)
    report = ConsistencyReport(
        lambda_max=lam, n=n, ci=ci, ri=random_index(n), cr=cr, consistent=ok
    )
    return weights, report
