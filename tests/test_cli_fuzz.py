"""Fuzz the command line: any JSON document, read by `phl render` as a cube
or by `phl model` as a spec, ends in an exit code and never raises."""

import json
import os
import tempfile

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phl.cli import main

EXIT_CODES = {0, 1, 2, 3}

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
)
JSON = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=10,
)


@st.composite
def mostly(draw, usual, rare):
    """A draw from usual, or from rare about one time in eight."""
    return draw(rare) if draw(st.integers(0, 7)) == 7 else draw(usual)


def field(values):
    """The expected type, or now and then any JSON value."""
    return mostly(values, JSON)


INTS = mostly(st.integers(-2, 24), st.integers())
CUBE_ENTRIES = st.fixed_dictionaries({c: field(INTS) for c in "ikdh"})
CUBES = st.fixed_dictionaries(
    {"n": field(INTS), "entries": field(st.lists(field(CUBE_ENTRIES), max_size=6))}
)

GRAM_ENTRIES = field(st.sampled_from(["0", "1", "-1", "2", "1/2", "1/0", 0, 1]))
GRAMS = st.integers(0, 7).flatmap(
    lambda m: st.lists(st.lists(GRAM_ENTRIES, min_size=m, max_size=m), min_size=m, max_size=m)
)
SPECS = st.fixed_dictionaries(
    {"kind": field(st.sampled_from(["k3", "verbitsky"]))},
    optional={"n": field(INTS), "b2": field(INTS), "gram": field(GRAMS)},
)

FUZZ = settings(derandomize=True, deadline=None, max_examples=150)


def run(verb, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return main([verb, "--spec", path, "--out", os.path.join(tmp, "out")])


def costly_build(doc) -> bool:
    """An in-cap verbitsky spec above n = 2 or b2 = 6; out-of-cap specs are
    rejected before any build."""
    if not isinstance(doc, dict) or doc.get("kind") != "verbitsky":
        return False
    n, b2 = doc.get("n"), doc.get("b2")
    if type(n) is not int or type(b2) is not int or not 1 <= n <= 3:
        return False
    return 5 <= b2 <= (22 if n == 1 else 8) and (n > 2 or b2 > 6)


@FUZZ
@given(JSON)
def test_any_json_document_exits_with_a_code(doc):
    assert run("render", doc) in EXIT_CODES
    assert run("model", doc) in EXIT_CODES


@FUZZ
@given(CUBES)
def test_render_cube_like_document_exits_with_a_code(doc):
    assert run("render", doc) in EXIT_CODES


@FUZZ
@given(SPECS)
def test_model_spec_like_document_exits_with_a_code(doc):
    assume(not costly_build(doc))
    assert run("model", doc) in EXIT_CODES
