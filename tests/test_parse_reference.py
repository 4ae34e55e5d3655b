"""The block parser of ``load_reviews`` against the per-cell loop it replaced.

``reference_load_reviews`` is the parser as it was before ratings went
through ``np.loadtxt`` in blocks: ``csv.reader`` and one ``float()`` per
cell. The library must give the same alternatives and bitwise-equal values
with the same memory layout, or raise the same exception type with the same
message, and must emit no warning. The block size is shrunk to 1..3 lines
so that bad cells, blank lines and ragged rows fall on block edges.
"""

import csv
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourrank import dataset, load_reviews
from tourrank.dataset import RATING_MAX, RATING_MIN, ReviewMatrix, _resolve_names
from tourrank.errors import ParseError, RatingRangeError, StructureError


def reference_load_reviews(source, *, delimiter=",", names=None):
    records = _reference_records(csv.reader(source, delimiter=delimiter))
    header = next(records, None)
    if header is None:
        raise StructureError("empty input: expected a header row")
    n_cols = len(header)
    if n_cols < 3:
        raise StructureError(
            "need a reviewer-id column plus at least 2 rating columns, "
            f"got {n_cols} column(s)"
        )

    rows: list[list[float]] = []
    for row_no, row in enumerate(records, start=2):
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
            if not np.isfinite(value):
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

    if not rows:
        raise StructureError("no data rows after the header")

    values = np.asarray(rows, dtype=float).T
    return ReviewMatrix(_resolve_names(header[1:], names), values)


def _reference_records(reader):
    row_no = 1
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise StructureError(f"row {row_no}: {exc}") from None
        yield row
        row_no += 1


def _outcome(load, make_source, delimiter):
    try:
        m = load(make_source(), delimiter=delimiter)
    except Exception as exc:  # the type and text are what is compared
        return type(exc), str(exc)
    return m


def assert_same_as_reference(lines, delimiter=",", block_lines=2):
    """Both parsers on ``lines`` as a list, as a stream, and as the CLI opens files."""
    text = "".join(lines)
    sources = {
        "list": lambda: list(lines),
        "stream": lambda: io.StringIO(text),
        "newline=''": lambda: io.StringIO(text, newline=""),
    }
    for kind, make_source in sources.items():
        expected = _outcome(reference_load_reviews, make_source, delimiter)
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            mp.setattr(dataset, "_BLOCK_LINES", block_lines)
            warnings.simplefilter("error")
            actual = _outcome(load_reviews, make_source, delimiter)
        context = f"{kind} source, block of {block_lines}: {lines!r}"
        if isinstance(expected, tuple):
            assert actual == expected, context
            continue
        assert isinstance(actual, ReviewMatrix), f"{context}: raised {actual}"
        assert actual.alternatives == expected.alternatives, context
        assert actual.values.shape == expected.values.shape, context
        assert actual.values.strides == expected.values.strides, context
        assert np.array_equal(
            actual.values.view(np.uint64), expected.values.view(np.uint64)
        ), context


HEADER = ["id,a,b,c\n"]


@pytest.mark.parametrize(
    "lines",
    [
        pytest.param(HEADER + ["r1,1,2,3\n", "\n", "r2,0,4,1\n"], id="blank-line"),
        pytest.param(HEADER + ["\n"] * 5 + ["r1,1,2,3\n"], id="blank-blocks"),
        pytest.param(HEADER + ["r1,1,2,3\n", "   \n"], id="whitespace-line"),
        pytest.param(HEADER + ["r1,1,2,3\n", "\t\n", "r2,1,2,3\n"], id="tab-line"),
        pytest.param(
            ["id,a,b,c\r\n", "r1,1,2,3\r\n", "\r\n", "r2,0,4,1\r\n"], id="crlf"
        ),
        pytest.param(["id,a,b,c\r", "r1,1,2,3\r", "r2,0,4,1\r"], id="cr"),
        pytest.param(HEADER + ['r1,"1",2,3\n'], id="quoted-cell"),
        pytest.param(HEADER + ['"r\n1",1,2,3\n', "r2,9,2,3\n"], id="quoted-newline"),
        pytest.param(HEADER + ['r1,1,2,"3\n'], id="unterminated-quote"),
        pytest.param(HEADER + ["#r1,1,2,3\n", "#,0,0,0\n"], id="hash-id"),
        pytest.param(HEADER + ["r1,1,1_0,3\n"], id="underscore-out-of-range"),
        pytest.param(HEADER + ["r1,1,0_1,3\n", "r2,1,2,3\n"], id="underscore-in-range"),
        pytest.param(HEADER + ["r1,1,١,3\n", "r2,1,2,3\n"], id="arabic-indic-digit"),
        pytest.param(HEADER + ["r1,1,nan,3\n"], id="nan"),
        pytest.param(HEADER + ["r1,1,inf,3\n"], id="inf"),
        pytest.param(HEADER + ["r1,1,Infinity,3\n"], id="Infinity"),
        pytest.param(HEADER + ["r1,1,,3\n"], id="empty-cell"),
        pytest.param(HEADER + ["r1,1,2,3\n", "r2,1,4.01,3\n"], id="above-range"),
        pytest.param(HEADER + ["r1,1,-0.01,3\n"], id="below-range"),
        pytest.param(HEADER + ["r1,-0,0.0,4\n"], id="signed-zero"),
        pytest.param(HEADER + ["r1,1,2\n"], id="short-row"),
        pytest.param(HEADER + ["r1,1,2,3,4\n"], id="long-row"),
        pytest.param(HEADER + ["r1,1,2,3,\n"], id="trailing-delimiter"),
        pytest.param(["id,a,b,c", "r1,1,2,3", "", "r2,0,4,1"], id="no-newlines"),
        pytest.param(HEADER + ["r1,1,2,3\nr2,1,2,3\n"], id="two-rows-one-line"),
        pytest.param(HEADER + ["r1,1,2,3\rr2,1,2,3\n"], id="embedded-cr"),
        pytest.param(HEADER + ["r1,1,2,3\n\n"], id="double-newline-line"),
        pytest.param(HEADER + ["r1\x00,1,2,3\n"], id="nul-in-id"),
        pytest.param(HEADER + ["r1, 1 ,2\x0c,3 \n"], id="unicode-space"),
        pytest.param(HEADER + ["x" * 131_073 + ",1,2,3\n"], id="over-field-limit"),
        pytest.param(HEADER, id="header-only"),
        pytest.param(HEADER + ["\n", "\r\n"], id="only-blank-rows"),
        pytest.param(["id,a\n", "r1,1\n"], id="two-columns"),
        pytest.param([], id="empty"),
        pytest.param(
            HEADER + ["r1,1,2,3\n", "r2,0,4,1\n", 'r3,"1",2,3\n', "r4,1,2,3\n"],
            id="quote-in-third-line",
        ),
        pytest.param(HEADER + ["r1,x,2,3\n", 'r2,"1",2,3\n'], id="bad-cell-before-quote"),
        pytest.param(['"id","a","b","c"\n', "r1,1,2,3\n", "r2,0,4,1\n"], id="quoted-header"),
        pytest.param(['"i\n', 'd",a,b,c\n', "r1,1,2,3\n", "r2,9,2,3\n"], id="header-newline"),
        pytest.param(
            HEADER + ["r1,1,0_1,3\n", "r2,1,2,3\n", "r3,0,4,1\n", "r4,1,2,3\n"],
            id="underscore-then-valid",
        ),
        pytest.param(
            HEADER + ["r1,1,2,3\n", "r2,0,4,1\n", "r3\x00,1,2,3\n", "r4,1,2,3\n"],
            id="nul-in-later-line",
        ),
    ],
)
@pytest.mark.parametrize("block_lines", [1, 2, 3, 256])
def test_edge_cases(lines, block_lines):
    assert_same_as_reference(lines, block_lines=block_lines)


def test_semicolon_delimiter():
    lines = ["id;a;b\n", "r1;1.5;2\n", "r2;1,5;2\n"]
    for block_lines in (1, 2):
        assert_same_as_reference(lines, ";", block_lines)
        assert_same_as_reference(lines[:2], ";", block_lines)


@pytest.mark.parametrize("block_lines", [2, 256])
def test_field_size_limit(block_lines):
    lines = HEADER + ["r1,1,2,3\n", "r2,0,4,1\n", "long-id,1,2,3\n", "r4,1,2,3\n"]
    default = csv.field_size_limit()
    try:
        # every line within the limit, each block's text over it: the lines
        # are measured and the blocks stay on loadtxt
        csv.field_size_limit(max(map(len, lines)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataset, "_parse_records", _no_per_cell_loop)
            assert_same_as_reference(lines, block_lines=block_lines)
        # one field over the limit: the csv reader's StructureError
        csv.field_size_limit(len("long-id") - 1)
        expected = _outcome(reference_load_reviews, lambda: list(lines), ",")
        assert expected[0] is StructureError
        assert_same_as_reference(lines, block_lines=block_lines)
    finally:
        csv.field_size_limit(default)


def _no_per_cell_loop(*args):
    raise AssertionError("a block left loadtxt")


def test_travel_fixture(travel_csv_path):
    lines = travel_csv_path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert_same_as_reference(lines, block_lines=256)


CELLS = st.one_of(
    st.floats(0, 4).map(repr),
    st.integers(0, 400).map(lambda c: f"{c / 100:.2f}"),
    st.sampled_from(
        [
            "0", "4", "-0", "4.0", "4.01", "-0.01", "1_0", "0_1", "١",
            "nan", "NaN", "inf", "-inf", "Infinity", "", " ", " 2 ", "\t1",
            "1e0", "0x1", "1.", ".5", "+1", "1j", "#2", '"1"', '"1\n"', "2\x0c",
            " 3", "1;2", "1,2",
        ]
    ),
    st.text(alphabet="0123456789.-+eE_ #\"\t;,", max_size=4),
)
IDS = st.sampled_from(["r1", "", "#", "#r", "x y", "١", '"q"', "a\tb"])
ENDINGS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", ""])
SPECIAL_LINES = st.sampled_from(["\n", "\r\n", "", "  \n", "\t\n", ";\n", ",\n"])


@st.composite
def files(draw):
    delimiter = draw(st.sampled_from([",", ",", ";", "\t"]))
    n_cols = draw(st.integers(2, 5))
    lines = [delimiter.join(f"h{i}" for i in range(n_cols)) + draw(ENDINGS)]
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(SPECIAL_LINES))
            continue
        width = n_cols + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
        cells = [draw(IDS)] + [draw(CELLS) for _ in range(width - 1)]
        lines.append(delimiter.join(cells) + draw(ENDINGS))
    return lines, delimiter


@settings(max_examples=400, deadline=None)
@given(files(), st.integers(1, 3))
def test_matches_reference(file, block_lines):
    lines, delimiter = file
    assert_same_as_reference(lines, delimiter, block_lines)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 400), min_size=3, max_size=3), min_size=1, max_size=12
    ),
    st.integers(1, 3),
)
def test_valid_files_match_reference(rows, block_lines):
    lines = ["id,a,b,c\n"] + [
        "r," + ",".join(f"{c / 100:.2f}" for c in row) + "\n" for row in rows
    ]
    assert_same_as_reference(lines, block_lines=block_lines)
