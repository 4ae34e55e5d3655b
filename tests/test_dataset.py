import copy
import io
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tourrank import (
    CANONICAL_CATEGORY_NAMES,
    ConsistencyReport,
    DegenerateColumnWarning,
    ExtentVector,
    InputError,
    PairwiseMatrix,
    ParseError,
    RankEntry,
    RankingReport,
    RatingRangeError,
    ReviewMatrix,
    ScoreVector,
    StructureError,
    WeightVector,
    category_means,
    load_reviews,
    normalize,
)
from tourrank import dataset


def _load(text, **kwargs):
    return load_reviews(io.StringIO(text), **kwargs)


class TestLoadReviews:
    def test_minimal_two_columns(self):
        m = _load("id,a,b\nr1,1.0,2.0\n")
        assert m.alternatives == ("a", "b")
        # transposed: alternatives index rows
        np.testing.assert_array_equal(m.values, [[1.0], [2.0]])

    def test_multiple_reviewers(self):
        m = _load("id,a,b\nr1,1,2\nr2,3,4\n")
        np.testing.assert_array_equal(m.values, [[1.0, 3.0], [2.0, 4.0]])

    def test_non_numeric_cell_names_row_and_column(self):
        # "abc" sits in file row 5 (header is row 1), file column 3
        text = "id,a,b\nr1,1,1\nr2,1,1\nr3,1,1\nr4,1,abc\n"
        with pytest.raises(ParseError, match=r"row 5, column 3") as err:
            _load(text)
        assert (err.value.row, err.value.column) == (5, 3)

    def test_rating_out_of_range(self):
        with pytest.raises(RatingRangeError, match=r"row 2, column 2"):
            _load("id,a,b\nr1,4.5,1\n")
        with pytest.raises(RatingRangeError):
            _load("id,a,b\nr1,-0.1,1\n")

    def test_ragged_row(self):
        with pytest.raises(StructureError, match="row 3"):
            _load("id,a,b\nr1,1,2\nr2,1\n")

    def test_too_few_rating_columns(self):
        with pytest.raises(StructureError):
            _load("id,a\nr1,1\n")

    def test_no_data_rows(self):
        with pytest.raises(StructureError):
            _load("id,a,b\n")

    def test_empty_input(self):
        with pytest.raises(StructureError):
            _load("")

    def test_non_finite_cell_rejected(self):
        with pytest.raises(ParseError):
            _load("id,a,b\nr1,nan,1\n")

    def test_alternate_delimiter(self):
        m = _load("id;a;b\nr1;1.5;2.5\n", delimiter=";")
        assert m.alternatives == ("a", "b")

    @pytest.mark.parametrize("delimiter", ["", ";;"])
    def test_delimiter_must_be_one_character(self, delimiter):
        with pytest.raises(InputError, match="delimiter must be a single character"):
            _load("id,a,b\nr1,1,2\n", delimiter=delimiter)

    def test_names_override(self):
        m = _load("id,a,b\nr1,1,2\n", names={2: "Beaches"})
        assert m.alternatives == ("a", "Beaches")

    def test_names_override_bad_index(self):
        with pytest.raises(InputError):
            _load("id,a,b\nr1,1,2\n", names={3: "x"})

    @pytest.mark.parametrize(
        "source", ["id,a,b\nr1,1,2\n", "tests/data/travel_reviews.csv"]
    )
    def test_str_source_rejected(self, source):
        # a str iterates by character, so CSV text and a path are both
        # mistakes, not a one-column file
        with pytest.raises(InputError, match="text stream or an iterable") as err:
            load_reviews(source)
        assert type(err.value) is InputError

    def test_generic_headers_get_canonical_names(self):
        header = "id," + ",".join(f"Category {i}" for i in range(1, 11))
        row = "r1," + ",".join("1.0" for _ in range(10))
        m = _load(f"{header}\n{row}\n")
        assert m.alternatives == CANONICAL_CATEGORY_NAMES

    def test_generic_headers_other_width_kept(self):
        m = _load("id,Category 1,Category 2\nr1,1,2\n")
        assert m.alternatives == ("Category 1", "Category 2")

    def test_travel_fixture_shape(self, travel_matrix):
        assert travel_matrix.n_alternatives == 10
        assert travel_matrix.n_reviewers == 980
        assert travel_matrix.alternatives == CANONICAL_CATEGORY_NAMES



def _generated_text(n_rows, n_cols, bad_last_row=False):
    rng = np.random.default_rng(7)
    cells = rng.integers(0, 41, size=(n_rows, n_cols)) / 10
    lines = [",".join(["id"] + [f"c{j}" for j in range(n_cols)]) + "\n"]
    lines += [f"r{i}," + ",".join(map(str, row)) + "\n" for i, row in enumerate(cells)]
    if bad_last_row:
        lines[-1] = f"r{n_rows - 1},x" + ",1" * (n_cols - 1) + "\n"
    return "".join(lines)


def _load_peak(text):
    """``load_reviews`` on a stream of ``text``, and its tracemalloc peak in bytes."""
    stream = io.StringIO(text)
    tracemalloc.start()
    try:
        m = load_reviews(stream)
    except ParseError:
        m = None
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return m, peak


@pytest.fixture
def per_cell_calls(monkeypatch):
    """One entry per call of the per-cell loop: the records that call read."""
    calls = []
    parse = dataset._parse_records

    def counting(records, n_cols, first_row):
        calls.append(0)

        def counted():
            for record in records:
                calls[-1] += 1
                yield record

        return parse(counted(), n_cols, first_row)

    monkeypatch.setattr(dataset, "_parse_records", counting)
    return calls


class TestStreaming:
    # outputs are the same either way, so only a count shows a check that
    # sends a good block to the per-cell loop
    def test_valid_files_never_take_the_per_cell_loop(
        self, per_cell_calls, travel_csv_path
    ):
        with open(travel_csv_path, newline="", encoding="utf-8") as fh:
            load_reviews(fh)
        _load(_generated_text(20_000, 10))
        assert per_cell_calls == []

    def test_bad_last_row_takes_the_per_cell_loop_for_its_block_only(
        self, per_cell_calls
    ):
        with pytest.raises(ParseError):
            _load(_generated_text(20_000, 10, bad_last_row=True))
        assert len(per_cell_calls) == 1
        assert per_cell_calls[0] <= dataset._BLOCK_LINES

    def test_stops_reading_at_the_first_bad_block(self):
        drawn = 0

        def source():
            nonlocal drawn
            for line in ["id,a,b,c\n", "r1,x,2,3\n"]:
                drawn += 1
                yield line
            for i in range(100_000):
                drawn += 1
                yield f"r{i + 2},1,2,3\n"

        with pytest.raises(ParseError, match=r"row 2, column 2"):
            load_reviews(source())
        assert drawn <= 2 * dataset._BLOCK_LINES + 1

    def test_valid_stream_peaks_near_two_copies_of_the_ratings(self):
        m, peak = _load_peak(_generated_text(20_000, 10))
        assert m.values.shape == (10, 20_000)
        assert peak <= 2.5 * m.values.nbytes

    def test_bad_last_row_peaks_near_one_copy_of_the_ratings(self):
        m, peak = _load_peak(_generated_text(20_000, 10, bad_last_row=True))
        assert m is None
        assert peak <= 1.5 * 20_000 * 10 * 8

    def test_a_kept_error_does_not_hold_the_parsed_rows(self):
        stream = io.StringIO(_generated_text(20_000, 10, bad_last_row=True))
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as kept:
                load_reviews(stream)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept.value.row == 20_001
        # the rows before the bad block take 20_000 * 10 * 8 bytes
        assert held <= 0.1 * 20_000 * 10 * 8

    def test_leaves_the_callers_warning_filters_alone(self):
        seen = []

        def source():
            yield "id,a,b\n"
            # two whole blocks of blank lines, the case loadtxt warns about
            for line in ["\n"] * (2 * dataset._BLOCK_LINES) + ["r1,1,2\n"]:
                seen.append(list(warnings.filters))
                yield line

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            before = list(warnings.filters)
            m = load_reviews(source())
        assert m.values.tolist() == [[1.0], [2.0]]
        assert all(filters == before for filters in seen)


class TestReviewMatrixInvariants:
    def test_out_of_range_value_rejected(self):
        with pytest.raises(RatingRangeError):
            ReviewMatrix(("a", "b"), np.array([[1.0], [4.2]]))

    def test_values_read_only(self):
        m = ReviewMatrix(("a", "b"), np.ones((2, 1)))
        with pytest.raises(ValueError):
            m.values[0, 0] = 2.0

    def test_ragged_rejected(self):
        with pytest.raises(InputError):
            ReviewMatrix(("a", "b"), [[1.0, 2.0], [3.0]])


class TestScoreVectorInvariants:
    def test_ragged_rejected(self):
        with pytest.raises(InputError):
            ScoreVector(("a", "b"), [1.0, [2.0, 3.0]])

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -0.5])
    def test_non_finite_or_negative_rejected(self, bad):
        # build_pairwise relies on this and has no finiteness check of its own
        with pytest.raises(InputError, match="finite and non-negative"):
            ScoreVector(("a", "b"), [1.0, bad])


#: A valid array for each frozen value type; every one has names "a" and "b".
_VALID = {
    ReviewMatrix: [[1.0, 2.0, 0.5], [3.0, 4.0, 0.0]],
    ScoreVector: [1.0, 2.5],
    PairwiseMatrix: [[1.0, 2.0], [0.5, 1.0]],
    WeightVector: [0.25, 0.75],
    ExtentVector: [[0.2, 0.5, 0.8], [0.1, 0.5, 0.9]],
}


@pytest.mark.parametrize("kind", list(_VALID))
def test_values_freeze_a_read_only_copy(kind):
    # a value type's fields are its __slots__: the names, then the array
    names_field, array_field = kind.__slots__
    given = np.array(_VALID[kind])
    value = kind(["a", "b"], given)
    stored = getattr(value, array_field)
    assert not stored.flags.writeable
    given[...] = 9.0
    np.testing.assert_array_equal(stored, _VALID[kind])
    assert getattr(value, names_field) == ("a", "b")
    for field in (names_field, array_field):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, getattr(value, field))
    with pytest.raises(InputError, match="must have shape"):
        kind(["a", "b", "c"], _VALID[kind])


_CONSISTENCY = ConsistencyReport(lambda_max=2.0, n=2, ci=0.0, ri=0.0, cr=0.0)
_ENTRY = RankEntry(rank=1, name="a", weight=0.75, raw_score=2.5)

#: one value of each of the eight value types -> its repr, as the frozen
#: dataclasses these types once were printed it
_REPRS = [
    (
        ReviewMatrix(("a", "b"), _VALID[ReviewMatrix]),
        "ReviewMatrix(alternatives=('a', 'b'), values=array([[1. , 2. , 0.5],\n"
        "       [3. , 4. , 0. ]]))",
    ),
    (
        ScoreVector(("a", "b"), _VALID[ScoreVector]),
        "ScoreVector(alternatives=('a', 'b'), scores=array([1. , 2.5]))",
    ),
    (
        PairwiseMatrix(("a", "b"), _VALID[PairwiseMatrix]),
        "PairwiseMatrix(names=('a', 'b'), a=array([[1. , 2. ],\n       [0.5, 1. ]]))",
    ),
    (
        WeightVector(("a", "b"), _VALID[WeightVector]),
        "WeightVector(names=('a', 'b'), w=array([0.25, 0.75]))",
    ),
    (
        ExtentVector(("a", "b"), _VALID[ExtentVector]),
        "ExtentVector(names=('a', 'b'), s=array([[0.2, 0.5, 0.8],\n"
        "       [0.1, 0.5, 0.9]]))",
    ),
    (_CONSISTENCY, "ConsistencyReport(lambda_max=2.0, n=2, ci=0.0, ri=0.0, cr=0.0)"),
    (_ENTRY, "RankEntry(rank=1, name='a', weight=0.75, raw_score=2.5)"),
    (
        RankingReport("ahp", (_ENTRY,), 0.01, _CONSISTENCY),
        "RankingReport(method='ahp', entries=(RankEntry(rank=1, name='a', "
        "weight=0.75, raw_score=2.5),), mse_vs_manual=0.01, "
        "consistency=ConsistencyReport(lambda_max=2.0, n=2, ci=0.0, ri=0.0, cr=0.0))",
    ),
]
_VALUES = [value for value, _ in _REPRS]
_ARRAY_TYPES = tuple(_VALID)


def _rebuilt(value, **changes):
    """``value``'s type built from its fields by keyword, with ``changes``."""
    fields = {f: getattr(value, f) for f in type(value).__slots__}
    return type(value)(**{**fields, **changes})


@pytest.mark.parametrize("value, text", _REPRS, ids=lambda v: type(v).__name__)
def test_value_repr_names_every_field(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", _VALUES, ids=lambda v: type(v).__name__)
def test_value_fields_cannot_be_set_or_deleted(value):
    for field in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1


#: type -> field changes, each giving a valid value unequal to its _REPRS value
_CHANGES = {
    ReviewMatrix: [{"alternatives": ("b", "a")}, {"values": [[1, 2, 0.5], [3, 4, 1]]}],
    ScoreVector: [{"alternatives": ("b", "a")}, {"scores": [1.0, 2.0]}],
    PairwiseMatrix: [{"names": ("b", "a")}, {"a": [[1, 4], [0.25, 1]]}],
    WeightVector: [{"names": ("b", "a")}, {"w": [0.5, 0.5]}],
    ExtentVector: [{"names": ("b", "a")}, {"s": [[0.2, 0.5, 0.8], [0.1, 0.4, 0.9]]}],
    ConsistencyReport: [{"lambda_max": 2.5}, {"cr": 0.1}],
    RankEntry: [{"rank": 2}, {"raw_score": 2.0}],
    RankingReport: [{"method": "fuzzy_ahp"}, {"consistency": None}],
}


@pytest.mark.parametrize("value", _VALUES, ids=lambda v: type(v).__name__)
def test_value_equality_and_hash(value):
    twin = _rebuilt(value)
    assert twin == value and not twin != value
    assert value != object()
    for change in _CHANGES[type(value)]:
        assert _rebuilt(value, **change) != value
    if isinstance(value, _ARRAY_TYPES):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        fields = tuple(getattr(value, f) for f in type(value).__slots__)
        assert hash(twin) == hash(value) == hash(fields)


@pytest.mark.parametrize("value", _VALUES, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize(
    "clone",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_value_round_trips_through_its_constructor(value, clone):
    restored = clone(value)
    assert type(restored) is type(value) and restored == value
    if isinstance(value, _ARRAY_TYPES):
        # an unpickled array is writeable: read-only means the freeze ran again
        assert not getattr(restored, type(value).__slots__[1]).flags.writeable


def test_value_fields_by_position_or_keyword():
    assert RankEntry(1, "a", weight=0.75, raw_score=2.5) == _ENTRY
    assert RankingReport("manual", (_ENTRY,), 0.0).consistency is None
    for args, kwargs in [
        ((1, "a", 0.75), {}),
        ((1, "a", 0.75, 2.5, 9), {}),
        ((1, "a", 0.75, 2.5), {"rank": 1}),
        ((1, "a", 0.75), {"raw_score": 2.5, "extra": 0}),
    ]:
        with pytest.raises(TypeError, match="takes the fields rank, name, weight"):
            RankEntry(*args, **kwargs)


def _first(kind):
    """``_VALID[kind]`` cut to its first alternative, on every axis of n."""
    arr = np.array(_VALID[kind])
    if kind is PairwiseMatrix:
        return arr[:1, :1]
    return arr[:1]


#: names -> the InputError message each of the five types gives for them
_BAD_NAMES = {
    "str": ("ab", "must be a sequence of names, not a str"),
    "repeated": (("a", "a"), "alternative names must be unique"),
    "empty": (("a", ""), "alternative names must be non-empty"),
    "control": (("a", "b\tc"), "must not hold control characters"),
    "line-separator": (("a\u2028b", "c"), "must not hold control characters"),
    "single": (("a",), "need at least 2 alternatives, got 1"),
    "not-iterable": (5, "must be a sequence of str"),
    "unhashable": ([["a"], ["b"]], "must be a sequence of str"),
    "ints": ([1, 2], "must be a sequence of str"),
}


@pytest.mark.parametrize("case", list(_BAD_NAMES))
@pytest.mark.parametrize("kind", list(_VALID))
def test_values_need_two_distinct_nonempty_names(kind, case):
    names, message = _BAD_NAMES[case]
    # the array fits the names, so only the names can be at fault
    array = _first(kind) if case == "single" else _VALID[kind]
    with pytest.raises(InputError, match=message):
        kind(names, array)


class TestCategoryMeans:
    def test_single_reviewer(self):
        m = ReviewMatrix(("a", "b"), np.array([[3.0], [1.0]]))
        np.testing.assert_array_equal(category_means(m).scores, [3.0, 1.0])

    def test_symmetric_mean(self):
        m = ReviewMatrix(("a", "b"), np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        assert category_means(m).scores[0] == pytest.approx(2.0)

    def test_travel_fixture_parks_mean(self, travel_matrix):
        means = category_means(travel_matrix)
        parks = means.scores[means.alternatives.index("Parks/Picnic Spots")]
        assert parks == pytest.approx(3.1809, abs=1e-3)

    def test_reviewer_permutation_invariance(self, travel_matrix):
        rng = np.random.default_rng(7)
        shuffled = ReviewMatrix(
            travel_matrix.alternatives,
            travel_matrix.values[:, rng.permutation(travel_matrix.n_reviewers)],
        )
        np.testing.assert_allclose(
            category_means(shuffled).scores,
            category_means(travel_matrix).scores,
            atol=1e-12,
        )


# zeros stay possible but tiny values are excluded: scaling a denormal
# can underflow to 0 and legitimately change the normalized column
nonneg_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.one_of(st.just(0.0), st.floats(1e-3, 1e6, allow_nan=False)),
)


class TestNormalize:
    def test_column_divided_by_max(self):
        np.testing.assert_allclose(
            normalize(np.array([2.0, 4.0, 1.0])), [0.5, 1.0, 0.25]
        )

    def test_equal_positive_column(self):
        np.testing.assert_array_equal(normalize(np.array([3.0, 3.0, 3.0])), [1, 1, 1])

    def test_zero_column_zeros_plus_one_warning(self):
        with pytest.warns(DegenerateColumnWarning) as caught:
            out = normalize(np.array([[0.0, 1.0], [0.0, 2.0]]))
        assert len(caught) == 1
        np.testing.assert_array_equal(out[:, 0], [0.0, 0.0])
        np.testing.assert_allclose(out[:, 1], [0.5, 1.0])

    def test_negative_entry_rejected(self):
        with pytest.raises(InputError):
            normalize(np.array([-1.0, 2.0]))

    def test_matrix_is_per_column(self):
        out = normalize(np.array([[1.0, 10.0], [2.0, 5.0]]))
        np.testing.assert_allclose(out, [[0.5, 1.0], [1.0, 0.5]])

    @pytest.mark.filterwarnings("ignore::tourrank.DegenerateColumnWarning")
    @given(nonneg_matrices)
    @settings(max_examples=200, deadline=None)
    def test_range_and_max(self, m):
        out = normalize(m)
        assert np.all(out >= 0) and np.all(out <= 1)
        for j in range(m.shape[1]):
            if m[:, j].max() > 0:
                assert out[:, j].max() == 1.0

    @pytest.mark.filterwarnings("ignore::tourrank.DegenerateColumnWarning")
    @given(nonneg_matrices)
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, m):
        once = normalize(m)
        np.testing.assert_allclose(normalize(once), once, atol=1e-12)

    @pytest.mark.filterwarnings("ignore::tourrank.DegenerateColumnWarning")
    @given(nonneg_matrices, st.floats(1e-3, 1e3, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_scale_invariant(self, m, c):
        np.testing.assert_allclose(normalize(c * m), normalize(m), atol=1e-12)
