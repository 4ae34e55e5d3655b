"""Review-matrix ingestion, means, and SAW normalization."""

from __future__ import annotations

import csv
import math
import re
import warnings
from collections import deque
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    DegenerateColumnWarning,
    InputError,
    ParseError,
    RatingRangeError,
    StructureError,
)

RATING_MIN = 0.0
RATING_MAX = 4.0

#: Display names substituted when a file carries generic "Category N" headers
#: for exactly these ten rating columns (the layout of the public travel
#: ratings table). A names config overrides them.
CANONICAL_CATEGORY_NAMES = (
    "Art Galleries",
    "Dance Clubs",
    "Juice Bars",
    "Restaurants",
    "Museums",
    "Resorts",
    "Parks/Picnic Spots",
    "Beaches",
    "Theaters",
    "Religious Institutions",
)

_GENERIC_HEADER = re.compile(r"^category\s*\d+$", re.IGNORECASE)

#: Lines handed to one ``np.loadtxt`` call. The first block that fails a
#: check is parsed again, with the rest of the source, by the per-cell loop.
_BLOCK_LINES = 256


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only float copy of ``a``; ragged or non-numeric input is an InputError."""
    try:
        out = np.array(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"not a regular numeric array: {exc}") from None
    out.setflags(write=False)
    return out


def _freeze(
    value, names: str, array: str, shape: tuple[int | str | None, ...]
) -> None:
    """Store ``value``'s names as a tuple and its array as a read-only float copy.

    The names must be at least two distinct, non-empty strings, given as a
    sequence other than a ``str``. ``shape`` states the array's shape:
    ``"n"`` is the number of names and ``None`` any length. Anything else
    is an InputError.
    """
    labels = getattr(value, names)
    if isinstance(labels, str):
        raise InputError(f"{names} must be a sequence of names, not a str")
    try:
        labels = tuple(labels)
    except TypeError:  # not iterable, and not a str: rejected just below
        labels = (labels,)
    # checked before len() and set() see the names: ints would pass both,
    # and lists would not hash
    if not all(isinstance(label, str) for label in labels):
        raise InputError(f"{names} must be a sequence of str")
    arr = _readonly(getattr(value, array))
    want = tuple(len(labels) if d == "n" else d for d in shape)
    if arr.ndim != len(want) or any(
        d is not None and d != got for d, got in zip(want, arr.shape)
    ):
        spec = ", ".join("any" if d is None else str(d) for d in want)
        raise InputError(f"{array} must have shape ({spec}), got {arr.shape}")
    if len(labels) < 2:
        raise InputError(f"need at least 2 alternatives, got {len(labels)}")
    if not all(labels):
        raise InputError("alternative names must be non-empty")
    if len(set(labels)) != len(labels):
        raise InputError("alternative names must be unique")
    object.__setattr__(value, names, labels)
    object.__setattr__(value, array, arr)


@dataclass(frozen=True)
class ReviewMatrix:
    """Ratings with one row per alternative and one column per reviewer."""

    alternatives: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        _freeze(self, "alternatives", "values", ("n", None))
        vals = self.values
        if vals.shape[1] < 1:
            raise InputError("need at least 1 reviewer column")
        if not np.all(np.isfinite(vals)):
            raise InputError("ratings must be finite")
        if vals.min() < RATING_MIN or vals.max() > RATING_MAX:
            raise RatingRangeError(
                f"ratings must lie in [{RATING_MIN}, {RATING_MAX}]"
            )

    @property
    def n_alternatives(self) -> int:
        return self.values.shape[0]

    @property
    def n_reviewers(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ScoreVector:
    """One non-negative score per alternative, in alternative order."""

    alternatives: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self):
        _freeze(self, "alternatives", "scores", ("n",))
        if not np.all(np.isfinite(self.scores)) or np.any(self.scores < 0):
            raise InputError("scores must be finite and non-negative")


def load_reviews(
    source: Iterable[str],
    *,
    delimiter: str = ",",
    names: Mapping[int, str] | None = None,
) -> ReviewMatrix:
    """Parse delimiter-separated ratings into a ReviewMatrix.

    Expected layout: a header row, then one row per reviewer whose first
    field is a reviewer id (ignored) followed by numeric ratings in [0, 4],
    one column per alternative. The matrix is transposed on load so
    alternatives index rows.

    Alternative names come from the header; a file with exactly ten
    "Category N" headers gets :data:`CANONICAL_CATEGORY_NAMES` instead.
    ``names`` maps 1-based rating-column indices to replacement names and
    wins over both.

    Cells are read as Python ``float()`` reads them. The body is read from
    ``source`` as it comes, in blocks of lines through ``np.loadtxt``. The
    first block that fails a check, quotes included, and everything after
    it are read cell by cell, which names the first bad cell; reading stops
    there.

    Args:
        source: text stream or iterable of lines.
        delimiter: field separator, a single character.
        names: optional column-index -> display-name overrides.

    Raises:
        StructureError: header missing, fewer than 2 rating columns,
            ragged rows, no data rows, or a row the CSV reader rejects
            (such as a field over its size limit).
        ParseError: non-numeric cell, with its 1-based row/column.
        RatingRangeError: rating outside [0, 4].
        InputError: ``source`` is a ``str``, which would read as one line
            per character.
    """
    if isinstance(source, str):
        raise InputError(
            "load_reviews takes a text stream or an iterable of lines, not a str"
        )
    lines = iter(source)
    header = next(_records(csv.reader(lines, delimiter=delimiter)), None)
    if header is None:
        raise StructureError("empty input: expected a header row")
    n_cols = len(header)
    if n_cols < 3:
        raise StructureError(
            "need a reviewer-id column plus at least 2 rating columns, "
            f"got {n_cols} column(s)"
        )

    # the blocks live only in the join: a caller that keeps the error
    # does not keep them, and ReviewMatrix's copy is the second
    data = b"".join(deque(_body(lines, n_cols, delimiter)))
    values = np.frombuffer(data).reshape(-1, n_cols - 1)
    if values.shape[0] == 0:
        raise StructureError("no data rows after the header")
    return ReviewMatrix(_resolve_names(header[1:], names), values.T)


def _body(lines: Iterator[str], n_cols: int, delimiter: str) -> Iterator[bytes]:
    """The ratings of the body rows, as float64 bytes, one block of lines each.

    A block's lines go into a deque, which adds fixed 64-line chunks, and
    its ratings are kept as bytes, one allocation each. A list built from
    islice is reallocated nine times a block, and an array takes two
    allocations, one of them 32 bytes. Such chunks land beside a caller's
    large buffer, such as a StringIO's copy of the text, and can leave its
    next one no hole to fit; the heap then grows by that buffer's size.
    """
    row_no = 2
    while block := deque(islice(lines, _BLOCK_LINES)):
        ratings = _load_block(block, n_cols, delimiter)
        if ratings is None:
            # the per-cell loop reads the rest: it names the first bad
            # cell and follows a quoted field across lines
            rest = csv.reader(chain(block, lines), delimiter=delimiter)
            yield _parse_records(_records(rest, row_no), n_cols, row_no).tobytes()
            return
        yield ratings.tobytes()
        row_no += len(block)


def _load_block(block: deque[str], n_cols: int, delimiter: str) -> np.ndarray | None:
    """The block's ratings through numpy's C reader, or None if any check fails.

    The block must be lines of text that ``csv.reader`` reads one record
    each and loadtxt splits alike: no quote (a quoted field may span lines),
    no NUL (which some ``csv`` versions reject), and no line longer than the
    CSV field size limit. The lines are measured only when the block's text
    is over that limit, since no line is longer than the text. loadtxt
    rejects a row with fewer than ``n_cols`` fields, so every row it returns
    holds at least ``n_cols - 1`` delimiters; a block total of exactly that
    many per row means no row is too long either (the blank lines loadtxt
    skips hold none). NaN fails the range check, so non-finite ratings fail
    too. Only an all-blank block gives loadtxt no rows, and it returns
    before loadtxt, so ``min()`` never sees an empty array.
    """
    try:
        text = "".join(block)
    except TypeError:
        return None
    if not text.lstrip("\r\n"):
        # blank lines hold no rows; loadtxt would warn that it found no data
        return np.empty((0, n_cols - 1))
    if '"' in text or "\x00" in text:
        return None
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, block)) > limit:
        return None
    try:
        ratings = np.loadtxt(
            block,
            delimiter=delimiter,
            comments=None,
            usecols=range(1, n_cols),
            ndmin=2,
        )
    except ValueError:
        return None
    if text.count(delimiter) != ratings.size:
        return None
    if not (ratings.min() >= RATING_MIN and ratings.max() <= RATING_MAX):
        return None
    return ratings


def _parse_records(
    records: Iterable[list[str]], n_cols: int, first_row: int
) -> np.ndarray:
    """Ratings of ``records`` parsed cell by cell; the first bad cell raises.

    ``first_row`` is the 1-based file row of the first record. Empty records
    are skipped but counted.
    """
    rows: list[list[float]] = []
    for row_no, row in enumerate(records, start=first_row):
        if not row:
            continue
        if len(row) != n_cols:
            raise StructureError(
                f"row {row_no}: expected {n_cols} fields, got {len(row)}"
            )
        parsed = []
        for col_no, cell in enumerate(row[1:], start=2):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"not a number: {cell.strip()!r}", row=row_no, column=col_no
                ) from None
            if not math.isfinite(value):
                raise ParseError(
                    f"not a finite number: {cell.strip()!r}",
                    row=row_no,
                    column=col_no,
                )
            if value < RATING_MIN or value > RATING_MAX:
                raise RatingRangeError(
                    f"row {row_no}, column {col_no}: rating {value} "
                    f"outside [{RATING_MIN}, {RATING_MAX}]"
                )
            parsed.append(value)
        rows.append(parsed)
    return np.array(rows, dtype=float).reshape(len(rows), n_cols - 1)


def _records(reader, row_no: int = 1) -> Iterator[list[str]]:
    """The reader's rows, with a CSV format error turned into StructureError.

    ``row_no`` is the 1-based file row of the reader's first record.
    """
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise StructureError(f"row {row_no}: {exc}") from None
        yield row
        row_no += 1


def _resolve_names(
    raw: list[str], overrides: Mapping[int, str] | None
) -> tuple[str, ...]:
    names = [h.strip() for h in raw]
    if len(names) == len(CANONICAL_CATEGORY_NAMES) and all(
        _GENERIC_HEADER.match(h) for h in names
    ):
        names = list(CANONICAL_CATEGORY_NAMES)
    if overrides:
        for index, name in overrides.items():
            if not 1 <= index <= len(names):
                raise InputError(
                    f"names config index {index} outside 1..{len(names)}"
                )
            names[index - 1] = name
    return tuple(names)


def category_means(m: ReviewMatrix) -> ScoreVector:
    """Per-alternative arithmetic mean rating across reviewers."""
    return ScoreVector(m.alternatives, m.values.mean(axis=1))


def normalize(m: np.ndarray) -> np.ndarray:
    """SAW-normalize: divide every column by its maximum.

    Accepts a matrix or a single vector (treated as one column). Columns
    whose maximum is 0 come back all-zero, with one
    :class:`DegenerateColumnWarning` naming them.

    The pipeline calls this only on a vector of means with a positive
    entry. The matrix path and the warning stay for library callers;
    acceptance criterion 7
    (``tests/test_acceptance.py::test_c7_normalization_properties``)
    pins the matrix path.
    """
    arr = _readonly(m)
    if arr.size == 0:
        raise InputError("cannot normalize an empty matrix")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise InputError("entries must be finite and non-negative")
    if arr.ndim not in (1, 2):
        raise InputError("expected a vector or 2-D matrix")
    # a vector's maximum is 0-d, and flatnonzero names it column 0
    maxes = arr.max(axis=0)
    zero = maxes == 0
    out = arr / np.where(zero, 1.0, maxes)
    if zero.any():
        dead = ", ".join(str(i) for i in np.flatnonzero(zero))
        warnings.warn(
            f"all-zero column(s) {dead} normalized to zeros",
            DegenerateColumnWarning,
            stacklevel=2,
        )
    return out
