"""The report and curve-set writer is `json.dumps(sort_keys=True, indent=2)`."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colmm.market_data import json_text


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


# Every code point, lone surrogates and control characters included.
TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), TEXT)
DOC = st.recursive(
    SCALAR,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=24)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(DOC)
def test_writes_what_json_dumps_writes(doc):
    assert json_text(doc) == _dumps(doc)


EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
               1e16, 1e-07, 1.5, -1e300]
EDGE_STRINGS = ["", "café", "€/\U0001f4b6", "tab\there\nnl\x00\x1f",
                'quote" back\\slash', "\ud800lone", "\udfff"]


def test_edge_values_at_every_depth():
    leaf_list = [*EDGE_FLOATS, 2 ** 63, -(2 ** 64) - 1, 0, True, False, None,
                 *EDGE_STRINGS]
    leaf_dict = {s: i for i, s in enumerate(EDGE_STRINGS)}
    doc = {
        "leaf_list": leaf_list,
        "leaf_tuple": tuple(leaf_list),
        "leaf_dict": leaf_dict,
        "empties": [[], {}, (), [[]], {"a": {}}, [{}, []]],
        "mixed": [1.0, [2.0, {"z": [], "a": -0.0}], "x", {}, None],
        **{key: {key: [key], "n": math.nan} for key in EDGE_STRINGS},
        "deep": [[[[[[{"k": [math.inf, (math.nan,)]}]]]]]],
    }
    assert json_text(doc) == _dumps(doc)
    for part in (*doc.values(), *leaf_list, [], {}, ()):
        assert json_text(part) == _dumps(part)


@pytest.mark.parametrize("key", [1, -(2 ** 70), 2.5, math.inf, True, None])
def test_keys_json_converts_are_converted(key):
    for doc in ({key: 1}, {key: [1]}, [{key: {key: None}}]):
        assert json_text(doc) == _dumps(doc)


@pytest.mark.parametrize("doc", [
    {("EUR", "USD"): 1.0},
    {("EUR", "USD"): [1.0]},
    [{"a": 1}, {("EUR", "USD"): {"b": 2}}],
    np.int64(3),
    [np.int64(3)],
    {"a": [1, np.int64(3)]},
    {"a": {"b": [1]}, "c": np.int64(3)},
    {1, 2},
    [[1], {1, 2}],
    {"a": 1, "b": 2, "c": {"d": [object()]}},
])
def test_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError) as expected:
        _dumps(doc)
    with pytest.raises(TypeError) as got:
        json_text(doc)
    assert str(got.value) == str(expected.value)


def test_numpy_floats_are_written_as_floats():
    doc = {"a": [np.float64(0.1), np.float64(-np.inf)], "b": {"c": np.float64(2.0)}}
    assert json_text(doc) == _dumps(doc)


def test_long_innermost_containers_are_written_whole():
    # json's C encoder hands back its text in pieces once a container
    # runs to about 100,000 chunks (two per list item, four per entry).
    doc = {"a": [0.123456789] * 60000,
           "b": {str(i): 0.5 for i in range(30000)},
           "c": [[1.25] * 50000, {"d": list(range(50001))}]}
    assert json_text(doc) == _dumps(doc)
    assert json_text(doc["a"]) == _dumps(doc["a"])


def test_without_the_c_encoder_json_dumps_writes(monkeypatch):
    monkeypatch.setattr("colmm.market_data.c_make_encoder", None)
    doc = {"a": [1.5, {"b": None}], "c": "d"}
    assert json_text(doc) == _dumps(doc)
