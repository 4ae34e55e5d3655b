"""Rank alternatives from reviewer rating matrices.

Three methods over the same per-alternative mean ratings: a manual
sum-normalized baseline, classical AHP (eigenvector weights with Saaty
consistency diagnostics), and fuzzy-AHP (triangular-fuzzy extent analysis
with degree-of-possibility weighting). Reports compare the methods by MSE.
"""

from .ahp import (
    ConsistencyReport,
    PairwiseMatrix,
    WeightVector,
    build_pairwise,
    evaluate_consistency,
)
from .dataset import (
    CANONICAL_CATEGORY_NAMES,
    ReviewMatrix,
    ScoreVector,
    category_means,
    load_reviews,
    normalize,
)
from .errors import (
    ClampWarning,
    ConvergenceError,
    DegenerateColumnWarning,
    InputError,
    ParseError,
    RatingRangeError,
    ScoreFloorWarning,
    StructureError,
)
from .fuzzy import (
    ExtentVector,
    build_fuzzy_pairwise,
    fuzzy_weights,
    synthetic_extents,
)
from .ranking import (
    METHODS,
    RankEntry,
    RankingReport,
    compare_methods,
    manual_baseline,
    mse,
    rank,
)

__version__ = "0.1.0"

__all__ = [
    "CANONICAL_CATEGORY_NAMES",
    "ClampWarning",
    "ConsistencyReport",
    "ConvergenceError",
    "DegenerateColumnWarning",
    "ExtentVector",
    "InputError",
    "METHODS",
    "PairwiseMatrix",
    "ParseError",
    "RankEntry",
    "RankingReport",
    "RatingRangeError",
    "ReviewMatrix",
    "ScoreFloorWarning",
    "ScoreVector",
    "StructureError",
    "WeightVector",
    "build_fuzzy_pairwise",
    "build_pairwise",
    "category_means",
    "compare_methods",
    "evaluate_consistency",
    "fuzzy_weights",
    "load_reviews",
    "manual_baseline",
    "mse",
    "normalize",
    "rank",
    "synthetic_extents",
]
