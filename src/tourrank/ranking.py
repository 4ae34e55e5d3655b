"""Method reports: manual baseline, ranked entries, MSE, three-way comparison."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ahp import (
    DEFAULT_CR_THRESHOLD,
    ConsistencyReport,
    WeightVector,
    build_pairwise,
    evaluate_consistency,
)
from .dataset import ReviewMatrix, ScoreVector, category_means, normalize
from .errors import InputError
from .fuzzy import build_fuzzy_pairwise, fuzzy_weights, synthetic_extents

#: Report order mirrors the method comparison table: ahp, fuzzy_ahp, manual.
METHODS = ("ahp", "fuzzy_ahp", "manual")

SCORE_MODES = ("weight", "weight-times-mean")

#: Largest number of alternatives the ahp and fuzzy_ahp methods accept. Their
#: n x n builds need over 100 B * n^2 of memory (about 1 GB at n = 3000), so
#: a wider file is refused before any of it is taken.
MAX_ALTERNATIVES = 3000


@dataclass(frozen=True)
class RankEntry:
    rank: int
    name: str
    weight: float
    raw_score: float | None


@dataclass(frozen=True)
class RankingReport:
    """One method's ranked weights plus its diagnostics."""

    method: str
    entries: tuple[RankEntry, ...]
    consistency: ConsistencyReport | None = None
    mse_vs_manual: float | None = None


def manual_baseline(s: ScoreVector) -> WeightVector:
    """Sum-normalized scores: the reference the other methods compare against."""
    scores = np.asarray(s.scores, dtype=float)
    total = float(scores.sum())
    if total <= 0:
        raise InputError("all scores are zero; no baseline exists")
    return WeightVector(s.alternatives, scores / total)


def rank(
    w: WeightVector, raw_scores: Sequence[float] | None = None
) -> tuple[RankEntry, ...]:
    """Entries sorted by weight descending; ties keep original input order."""
    if raw_scores is not None and len(raw_scores) != len(w.names):
        raise InputError("raw_scores length must match the weight vector")
    order = sorted(range(len(w.names)), key=lambda i: (-w.w[i], i))
    return tuple(
        RankEntry(
            rank=pos + 1,
            name=w.names[i],
            weight=float(w.w[i]),
            raw_score=None if raw_scores is None else float(raw_scores[i]),
        )
        for pos, i in enumerate(order)
    )


def mse(f: Sequence[float], y: Sequence[float]) -> float:
    """Mean squared error between two equal-length vectors."""
    fa = np.asarray(f, dtype=float)
    ya = np.asarray(y, dtype=float)
    if fa.ndim != 1 or fa.shape != ya.shape:
        raise InputError(f"length mismatch: {fa.shape} vs {ya.shape}")
    if fa.size == 0:
        raise InputError("vectors must be non-empty")
    if not (np.all(np.isfinite(fa)) and np.all(np.isfinite(ya))):
        raise InputError("entries must be finite")
    return float(np.mean((fa - ya) ** 2))


def compare_methods(
    data: ReviewMatrix,
    *,
    methods: Sequence[str] = METHODS,
    score_mode: str = "weight",
    cr_threshold: float = DEFAULT_CR_THRESHOLD,
) -> list[RankingReport]:
    """Run the requested methods on one review matrix.

    All methods score the SAW-normalized per-alternative mean ratings: each
    mean divided by the largest, so the score floor of the pairwise build is
    relative to the largest mean. Each report carries the ranked entries with
    the raw means attached, the consistency diagnostics of the underlying
    crisp matrix (AHP branches; the fuzzy branch is gated on the same
    crisp matrix), and the MSE of its weights against the manual baseline.
    An inconsistent matrix is reported with ``consistent=False``, never
    dropped.

    ``score_mode`` "weight" ranks by the method weights themselves;
    "weight-times-mean" re-normalizes weight x SAW-normalized mean.

    The ahp and fuzzy_ahp methods refuse more than :data:`MAX_ALTERNATIVES`
    alternatives with an :class:`InputError`.
    """
    if score_mode not in SCORE_MODES:
        raise InputError(f"unknown score_mode {score_mode!r}; expected {SCORE_MODES}")
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
    scores = ScoreVector(means.alternatives, normalize(means.scores))

    def finalize(wv: WeightVector) -> WeightVector:
        if score_mode == "weight":
            return wv
        product = wv.w * scores.scores
        total = float(product.sum())
        if total <= 0:
            raise InputError("weight-times-mean scores are all zero")
        return WeightVector(wv.names, product / total)

    baseline = finalize(manual_baseline(scores))

    weights: dict[str, WeightVector] = {"manual": baseline}
    consistency: ConsistencyReport | None = None
    if "ahp" in wanted or "fuzzy_ahp" in wanted:
        pairwise = build_pairwise(scores)
        ahp_w, consistency = evaluate_consistency(pairwise, threshold=cr_threshold)
        if "ahp" in wanted:
            weights["ahp"] = finalize(ahp_w)
        if "fuzzy_ahp" in wanted:
            fuzzy_w = fuzzy_weights(synthetic_extents(build_fuzzy_pairwise(pairwise)))
            weights["fuzzy_ahp"] = finalize(fuzzy_w)

    reports = []
    for method in wanted:
        wv = weights[method]
        reports.append(
            RankingReport(
                method=method,
                entries=rank(wv, raw_scores=means.scores),
                consistency=consistency if method in ("ahp", "fuzzy_ahp") else None,
                mse_vs_manual=mse(wv.w, baseline.w),
            )
        )
    return reports
