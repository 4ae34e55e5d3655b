"""The library's public names and its input contract.

Every name in ``tourrank.__all__`` has a one-line reason in the README
"Public names" list. Every public callable, given values of the types it
takes that break its rules, returns or raises InputError;
``evaluate_consistency`` may also raise ConvergenceError.
"""

import pathlib
import re
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tourrank
from tourrank import ConvergenceError, InputError

README = pathlib.Path(__file__).parent.parent / "README.md"

#: the kinds of reason a public name may have
KINDS = ("stage", "value", "error", "use")


def readme_public_names():
    """(name, kind) of each bullet under the README's "Public names" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Public names\n", 1)[1].split("\n#", 1)[0]
    # a bullet runs on over its indented lines
    bullets = [" ".join(b.split()) for b in section.split("\n- ")[1:]]
    entries = [re.fullmatch(r"`(\w+)` \((\w+)\): \S.*", b) for b in bullets]
    assert all(entries), [b for b, m in zip(bullets, entries) if not m]
    return [m.groups() for m in entries]


def test_every_public_name_has_a_reason():
    entries = readme_public_names()
    names = [name for name, _ in entries]
    assert sorted(names) == sorted(tourrank.__all__)
    assert len(set(names)) == len(names)
    assert {kind for _, kind in entries} <= set(KINDS)


# -- adversarial values of the right types ---------------------------------

def labels(n):
    return tuple(f"alt{i}" for i in range(n))


MAX = 1.7976931348623157e308
EXTREMES = [
    float("nan"), float("inf"), -float("inf"), 0.0, -0.0, -1.0,
    5e-324, 1e-308, 1e308, -1e308, MAX,
]
floats = st.sampled_from(EXTREMES) | st.floats()
ints = st.sampled_from([0, -1, 1, 2, 17, 18, 2**63]) | st.integers()
#: names: duplicates, empty, control characters and line separators
name = st.sampled_from(["a", "b", "", " ", "a\n", "\x1b[31m", "b\u2028c"])
name |= st.text(max_size=3)
names = st.lists(name, max_size=5).map(tuple) | st.integers(0, 5).map(labels)


def float_arrays(shape):
    return arrays(float, shape, elements=floats | st.floats(0, 4))


def shapes(n, dims):
    """``dims`` as a shape for n names, or, now and then, any small shape."""
    return st.just(tuple(n if d == "n" else d for d in dims)) | st.lists(
        st.integers(0, 4), max_size=3
    ).map(tuple)


@st.composite
def named_arrays(draw, dims):
    """Names and an array that fits them, or not."""
    drawn = draw(names)
    reviewers = draw(st.integers(0, 3))
    dims = tuple(reviewers if d is None else d for d in dims)
    return drawn, draw(float_arrays(draw(shapes(len(drawn), dims))))


# valid values whose numbers sit at the edges of their domains

@st.composite
def review_matrices(draw):
    n, r = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    edge = st.sampled_from([0.0, 5e-324, 1e-300, 2.0, 3.9999999999999996, 4.0])
    values = draw(arrays(float, (n, r), elements=edge | st.floats(0, 4)))
    return tourrank.ReviewMatrix(labels(n), values)


@st.composite
def score_vectors(draw):
    n = draw(st.integers(2, 5))
    edge = st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 1e308, MAX])
    scores = draw(arrays(float, n, elements=edge | st.floats(0, 1e308)))
    return tourrank.ScoreVector(labels(n), scores)


@st.composite
def pairwise_matrices(draw):
    n = draw(st.integers(2, 5))
    edge = st.sampled_from([1e-308, 1 / 9, 1.0, 9.0, 1e308])
    upper = draw(arrays(float, (n, n), elements=edge | st.floats(1e-308, 1e308)))
    a = np.triu(upper, 1) + np.tril(1 / upper.T, -1) + np.eye(n)
    return tourrank.PairwiseMatrix(labels(n), a)


@st.composite
def weight_vectors(draw):
    n = draw(st.integers(2, 5))
    edge = st.sampled_from([0.0, 5e-324, 1.0, 1e300])
    raw = draw(arrays(float, n, elements=edge | st.floats(0, 1e300)))
    raw[draw(st.integers(0, n - 1))] += 1.0  # a positive total
    return tourrank.WeightVector(labels(n), raw / raw.sum())


@st.composite
def extent_vectors(draw):
    n = draw(st.integers(2, 5))
    edge = st.sampled_from([5e-324, 1e-300, 1.0, 1e308, MAX])
    rows = draw(arrays(float, (n, 3), elements=edge | st.floats(5e-324, 1e308)))
    return tourrank.ExtentVector(labels(n), np.sort(rows, axis=1))


@st.composite
def index_matrices(draw):
    """Names and a fuzzy matrix in index form that fits them, or not."""
    drawn = draw(names)
    dtype, outside = draw(st.sampled_from([
        (np.int8, st.integers(-128, 127)),
        (np.uint8, st.integers(0, 255)),
        (np.uint64, st.just(2**64 - 1)),
        (np.int64, st.sampled_from([-1, 18, -(2**63), 2**63 - 1])),
        (float, floats),
    ]))
    shape = draw(shapes(len(drawn), ("n", "n")))
    cells = st.integers(0, 17) | outside
    return drawn, draw(arrays(dtype, shape, elements=cells))


@st.composite
def csv_lines(draw):
    """Lines of a ratings file with edge-case cells, as ``load_reviews`` reads."""
    delimiter = draw(
        st.just(",") | st.sampled_from([";", "\t", '"', " ", "\n", "", ",,"])
    )
    sep = delimiter or ","
    edge = st.sampled_from(["nan", "inf", "-1", "4.01", "1e308", "", " ", '"1"', "x"])
    rating = st.sampled_from(["0", "4", "2.5", " 1 "])
    cell = st.one_of(rating, rating, rating, edge, name)
    header = ["id", *draw(names)]
    width = len(header) - 1
    row = st.lists(cell, min_size=width, max_size=width) | st.lists(cell, max_size=5)
    rows = draw(st.lists(row.map(lambda r: ["r", *r]), max_size=4))
    end = draw(st.sampled_from(["\n", "\r\n", ""]))
    lines = [sep.join(r) + end for r in [header, *rows]]
    overrides = st.none() | st.dictionaries(ints | st.integers(1, 4), name, max_size=3)
    return (lines,), {"delimiter": delimiter, "names": draw(overrides)}


def args(*strategies):
    return st.tuples(*strategies).map(lambda a: (a, {}))


array_like = float_arrays(st.lists(st.integers(0, 4), max_size=3).map(tuple))
vectors = st.lists(floats, max_size=5)

#: public callable -> strategy of (args, kwargs) of the right types
CALLS = {
    "load_reviews": csv_lines(),
    "category_means": args(review_matrices()),
    "normalize": args(array_like),
    "manual_baseline": args(score_vectors()),
    "build_pairwise": args(score_vectors()),
    "evaluate_consistency": args(pairwise_matrices()),
    "build_fuzzy_pairwise": args(pairwise_matrices()),
    "synthetic_extents": index_matrices().map(lambda a: (a, {})),
    "fuzzy_weights": args(extent_vectors()),
    "rank": args(weight_vectors(), vectors),
    "mse": args(vectors, vectors),
    "compare_methods": st.tuples(
        review_matrices(),
        st.just(tourrank.METHODS)
        | st.lists(st.sampled_from(tourrank.METHODS) | name, max_size=4),
    ).map(lambda a: ((a[0],), {"methods": a[1]})),
    "ReviewMatrix": named_arrays(("n", None)).map(lambda a: (a, {})),
    "ScoreVector": named_arrays(("n",)).map(lambda a: (a, {})),
    "PairwiseMatrix": named_arrays(("n", "n")).map(lambda a: (a, {})),
    "WeightVector": named_arrays(("n",)).map(lambda a: (a, {})),
    "ExtentVector": named_arrays(("n", 3)).map(lambda a: (a, {})),
    "ConsistencyReport": args(floats, ints, *[floats] * 3),
    "RankEntry": args(ints, name, floats, floats),
    "RankingReport": args(
        name,
        st.lists(st.builds(tourrank.RankEntry, ints, name, floats, floats)).map(tuple),
        floats,
        st.none() | st.builds(tourrank.ConsistencyReport, floats, ints, *[floats] * 3),
    ),
    "InputError": args(name),
    "ParseError": args(name, ints, ints),
    "StructureError": args(name),
    "RatingRangeError": args(name),
    "ConvergenceError": args(name, array_like, ints),
    "ClampWarning": args(name),
    "ScoreFloorWarning": args(name),
    "DegenerateColumnWarning": args(name),
}


def test_every_public_callable_is_drawn():
    public = {n for n in tourrank.__all__ if callable(getattr(tourrank, n))}
    assert set(CALLS) == public


calls = st.sampled_from(sorted(CALLS)).flatmap(
    lambda fn: CALLS[fn].map(lambda a: (fn, *a))
)


@given(calls)
# index matrices on which an unchecked bincount raises TypeError
@example(("synthetic_extents", (("a", "b"), np.zeros((2, 2))), {}))
@example(("synthetic_extents", (("a", "b"), np.zeros((2, 2), np.uint64)), {}))
@settings(max_examples=1000, deadline=None)
def test_well_typed_values_return_or_raise_input_error(call):
    fn, args_, kwargs = call
    allowed = InputError
    if fn == "evaluate_consistency":
        allowed = (InputError, ConvergenceError)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            getattr(tourrank, fn)(*args_, **kwargs)
        except allowed:
            pass
