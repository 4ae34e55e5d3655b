"""Shared exception and warning types."""

from __future__ import annotations

import numpy as np


class InputError(ValueError):
    """Input data violates a contract (shape, domain, or value range)."""


class ParseError(InputError):
    """A cell could not be parsed as a number.

    ``row`` and ``column`` are 1-based file coordinates; the header counts
    as row 1 and the reviewer-id column as column 1.
    """

    def __init__(self, message: str, row: int, column: int):
        super().__init__(f"row {row}, column {column}: {message}")
        self.row = row
        self.column = column


class StructureError(InputError):
    """The file layout is unusable (ragged rows, too few columns, no data)."""


class RatingRangeError(InputError):
    """A rating falls outside the 0..4 scale."""


class ConvergenceError(RuntimeError):
    """Power iteration hit the iteration cap before converging."""

    def __init__(self, message: str, last_weights: np.ndarray, iterations: int):
        super().__init__(message)
        self.last_weights = last_weights
        self.iterations = iterations


class DegenerateColumnWarning(UserWarning):
    """An all-zero column was mapped to zeros during normalization."""


class ScoreFloorWarning(UserWarning):
    """Near-zero scores were floored before ratio construction."""


class ClampWarning(UserWarning):
    """Pairwise ratios outside the 1/9..9 scale were clamped."""
