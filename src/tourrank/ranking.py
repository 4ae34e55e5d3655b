"""Method reports: manual baseline, ranked entries, MSE, three-way comparison."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .ahp import ConsistencyReport, WeightVector, build_pairwise, evaluate_consistency
from .dataset import (
    ReviewMatrix,
    ScoreVector,
    _readonly,
    _Value,
    category_means,
    normalize,
)
from .errors import InputError
from .fuzzy import build_fuzzy_pairwise, fuzzy_weights, synthetic_extents

#: Report order mirrors the method comparison table: ahp, fuzzy_ahp, manual.
METHODS = ("ahp", "fuzzy_ahp", "manual")

#: Largest number of alternatives the ahp and fuzzy_ahp methods accept. Their
#: n x n builds peak at 34 B * n^2 of traced memory, set by build_pairwise
#: (about 340 MB of peak RSS for a whole rank run at n = 3000), so a wider
#: file is refused before any of it is taken.
MAX_ALTERNATIVES = 3000


class RankEntry(_Value):
    """One alternative's place in a method's ranking."""

    __slots__ = ("rank", "name", "weight", "raw_score")


class RankingReport(_Value):
    """One method's ranked weights plus its diagnostics.

    ``entries`` is a tuple of :class:`RankEntry`, best first;
    ``consistency`` is a :class:`ConsistencyReport`, or None for manual.
    """

    __slots__ = ("method", "entries", "mse_vs_manual", "consistency")
    _DEFAULTS = {"consistency": None}


def manual_baseline(s: ScoreVector) -> WeightVector:
    """Sum-normalized scores: the reference the other methods compare against."""
    total = float(s.scores.sum())
    if total <= 0:
        raise InputError("all scores are zero; no baseline exists")
    return WeightVector(s.alternatives, s.scores / total)


def rank(w: WeightVector, raw_scores: Sequence[float]) -> tuple[RankEntry, ...]:
    """Entries sorted by weight, then raw score, descending; then input order.

    The raw score breaks weight ties, so weights that round equal (means one
    ulp apart can) still rank as the means do.
    """
    raw = _readonly(raw_scores)
    if raw.shape != w.w.shape:
        raise InputError("raw_scores length must match the weight vector")
    # lexsort is stable and sorts by its last key first
    order = np.lexsort((-raw, -w.w))
    return tuple(
        RankEntry(
            rank=pos + 1, name=w.names[i], weight=float(w.w[i]), raw_score=float(raw[i])
        )
        for pos, i in enumerate(order)
    )


def mse(f: Sequence[float], y: Sequence[float]) -> float:
    """Mean squared error between two equal-length vectors."""
    fa = _readonly(f)
    ya = _readonly(y)
    if fa.ndim != 1 or fa.shape != ya.shape:
        raise InputError(f"length mismatch: {fa.shape} vs {ya.shape}")
    if fa.size == 0:
        raise InputError("vectors must be non-empty")
    if not (np.all(np.isfinite(fa)) and np.all(np.isfinite(ya))):
        raise InputError("entries must be finite")
    return float(np.mean((fa - ya) ** 2))


def compare_methods(
    data: ReviewMatrix, *, methods: Sequence[str] = METHODS
) -> list[RankingReport]:
    """Run the requested methods on one review matrix.

    All methods score the SAW-normalized per-alternative mean ratings: each
    mean divided by the largest, so the score floor of the pairwise build is
    relative to the largest mean. Each method ranks by its own weights, and
    its report carries the ranked entries with the raw means attached, the
    consistency diagnostics of the underlying crisp matrix (AHP branches; the
    fuzzy branch shares the report of the same crisp matrix), and the MSE of
    its weights against the manual baseline.
    The reports carry CR but pass no verdict on it: an inconsistent matrix
    is reported like any other, never dropped, and the caller judges CR.

    All-zero means, and more than :data:`MAX_ALTERNATIVES` alternatives for
    the ahp and fuzzy_ahp methods, raise :class:`InputError`.
    """
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise InputError(f"unknown method(s) {unknown}; expected {METHODS}")
    wanted = tuple(m for m in METHODS if m in methods)
    if not wanted:
        raise InputError("no methods requested")
    n = data.n_alternatives
    if n > MAX_ALTERNATIVES and ("ahp" in wanted or "fuzzy_ahp" in wanted):
        raise InputError(
            f"{n} alternatives exceed the cap of {MAX_ALTERNATIVES} "
            "for the ahp and fuzzy_ahp methods"
        )

    means = category_means(data)
    if not means.scores.any():
        raise InputError("all scores are zero; no baseline exists")
    scores = ScoreVector(means.alternatives, normalize(means.scores))

    baseline = manual_baseline(scores)
    weights: dict[str, WeightVector] = {"manual": baseline}
    consistency: ConsistencyReport | None = None
    if "ahp" in wanted or "fuzzy_ahp" in wanted:
        pairwise = build_pairwise(scores)
        ahp_w, consistency = evaluate_consistency(pairwise)
        if "ahp" in wanted:
            weights["ahp"] = ahp_w
        if "fuzzy_ahp" in wanted:
            weights["fuzzy_ahp"] = fuzzy_weights(
                synthetic_extents(pairwise.names, build_fuzzy_pairwise(pairwise))
            )

    reports = []
    for method in wanted:
        wv = weights[method]
        reports.append(
            RankingReport(
                method=method,
                entries=rank(wv, means.scores),
                mse_vs_manual=mse(wv.w, baseline.w),
                consistency=consistency if method in ("ahp", "fuzzy_ahp") else None,
            )
        )
    return reports
