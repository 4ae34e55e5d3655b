"""Seeded inputs for the benchmark workloads.

Every input is a reviewer x category rating CSV in the layout of the bundled
fixture: a ``User ID`` column, ``Category N`` headers and ratings in 0.01
steps on [0, 4]. Ratings are held as integer centi-ratings, so the realised
column means are known exactly. As in ``scripts/make_travel_fixture.py``,
each column is drawn from a clipped normal around its target mean and then
nudged one 0.01 step at a time until its sum hits the target exactly. The
targets lie in a band whose max/min is below 9, so no pairwise ratio is ever
clamped; drawing around the targets without nudging is not enough, because
the realised means can drift out of the band on few reviewers.

The same (workload, seed, index) always gives byte-identical text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: (reviewers, categories) per in-process workload.
SHAPES = {"tall": (20_000, 10), "wide": (20, 15), "reject": (20_000, 10)}

#: Column means are drawn from this band; 3.4 / 0.4 = 8.5 < 9.
MEAN_LO, MEAN_HI = 0.4, 3.4
SIGMA = 0.6

# Stream tags keep the inputs of different workloads and purposes apart.
_STREAMS = {"tall": 1, "wide": 2, "reject": 3, "cli-fixture": 4}
_OPS, _WARMUP = 0, 1

#: Cells that are not numbers at all; each must raise ParseError.
NON_NUMBERS = ("x", "n/a", "--", "1..5", "", "abc")


@dataclass(frozen=True)
class Case:
    """One operation's input and what the oracle needs to judge it."""

    text: str
    means: np.ndarray  # exact realised column means, in column order
    reviewers: int
    # For a rejected file: (error class name, 1-based row, 1-based column).
    bad: tuple[str, int, int] | None = None

    @property
    def categories(self) -> int:
        return self.means.shape[0]

    @property
    def cells(self) -> int:
        return self.reviewers * self.categories


def rng_for(workload: str, seed: int, index: int, warmup: bool = False):
    return np.random.default_rng(
        [seed, _STREAMS[workload], _WARMUP if warmup else _OPS, index]
    )


def centi_matrix(rng: np.random.Generator, reviewers: int, categories: int) -> np.ndarray:
    """(reviewers, categories) centi-ratings whose column sums hit distinct targets."""
    while True:
        targets = np.rint(
            rng.uniform(MEAN_LO, MEAN_HI, categories) * 100 * reviewers
        ).astype(np.int64)
        if np.unique(targets).size == categories:
            break
    # Work on (categories, reviewers) so each column is one contiguous row.
    values = np.clip(
        np.rint(rng.normal(targets[:, None] / reviewers, SIGMA * 100,
                           (categories, reviewers))),
        0,
        400,
    ).astype(np.int16)
    # The fixture script's nudge, one pass over the reviewers at a time:
    # every cell with room moves one step towards the target until the
    # column sum is met.
    diff = targets - values.sum(axis=1, dtype=np.int64)
    while diff.any():
        step = np.sign(diff).astype(np.int16)[:, None]
        moved = values + step
        room = (moved >= 0) & (moved <= 400)
        take = room & (np.cumsum(room, axis=1, dtype=np.int32) <= np.abs(diff)[:, None])
        values += take * step
        diff -= step[:, 0] * take.sum(axis=1)
    return values.T


def csv_text(values: np.ndarray) -> str:
    """Fixture-layout CSV for a (reviewers, categories) centi-rating matrix."""
    reviewers, categories = values.shape
    header = "User ID," + ",".join(f"Category {j + 1}" for j in range(categories))
    # Every row has the same width: "User " + 6-digit id + "," and one
    # "d.dd," per cell, the last comma replaced by the newline.
    buf = np.empty((reviewers, 12 + 5 * categories), dtype=np.uint8)
    buf[:, :5] = np.frombuffer(b"User ", dtype=np.uint8)
    ids = np.arange(1, reviewers + 1)
    for k in range(6):
        buf[:, 5 + k] = 48 + (ids // 10 ** (5 - k)) % 10
    buf[:, 11] = ord(",")
    cells = buf[:, 12:].reshape(reviewers, categories, 5)
    cells[:, :, 0] = 48 + values // 100
    cells[:, :, 1] = ord(".")
    cells[:, :, 2] = 48 + (values // 10) % 10
    cells[:, :, 3] = 48 + values % 10
    cells[:, :, 4] = ord(",")
    cells[:, -1, 4] = ord("\n")
    return header + "\n" + buf.tobytes().decode("ascii")


def case(workload: str, seed: int, index: int, *, warmup: bool = False,
         corrupt: bool = True) -> Case:
    """Input ``index`` of an in-process workload.

    ``reject`` files get one bad cell in their last row: a non-number on
    even indices, a value outside [0, 4] on odd ones. ``corrupt=False``
    gives the valid file the bad cell was written into.
    """
    reviewers, categories = SHAPES[workload]
    rng = rng_for(workload, seed, index, warmup)
    values = centi_matrix(rng, reviewers, categories)
    text = csv_text(values)
    means = values.sum(axis=0) / (100 * reviewers)
    if workload != "reject" or not corrupt:
        return Case(text, means, reviewers)

    column = int(rng.integers(categories))
    if index % 2 == 0:
        kind, cell = "ParseError", NON_NUMBERS[int(rng.integers(len(NON_NUMBERS)))]
    else:
        # 4.01 .. 9.99 above the scale, or -5.99 .. -0.01 below it
        if rng.integers(2):
            centi = int(rng.integers(401, 1000))
        else:
            centi = -int(rng.integers(1, 600))
        kind, cell = "RatingRangeError", f"{centi / 100:.2f}"
    body, last = text[:-1].rsplit("\n", 1)
    fields = last.split(",")
    fields[column + 1] = cell
    text = body + "\n" + ",".join(fields) + "\n"
    # Row 1 is the header and column 1 the reviewer id.
    return Case(text, means, reviewers, bad=(kind, reviewers + 1, column + 2))


def clamped_text(seed: int, index: int) -> str:
    """A 4 x 4 file whose mean ratios run far past 9, so the CR gate fails.

    Column means fall near 3.4, 0.33, 0.03 and 0.005: neighbouring ratios
    are about 10, so the far pairs are clamped to 9 and the matrix is
    badly inconsistent (exit 2).
    """
    rng = rng_for("cli-fixture", seed, index)
    values = np.stack(
        [
            rng.integers(300, 381, 4),
            rng.integers(25, 41, 4),
            rng.integers(2, 5, 4),
            np.r_[1, rng.integers(0, 2, 3)],
        ],
        axis=1,
    )
    return csv_text(values)
