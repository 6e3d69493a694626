"""Property: mutated input documents never crash the command line.

Each example starts from a valid market CSV, curve set, vol config or
instrument list, applies a few random edits (replace, delete, duplicate),
and runs the commands that read it.  Whatever the edit, `main()` must
return one of the documented exit codes and never raise.
"""

import copy
import json
import math
from functools import reduce
from operator import getitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colmm.cli import main

from test_cli import INSTRUMENTS, MARKET, VOLS

EXIT_CODES = {0, 2, 3, 4}
PATHS = "8"

# Values that sit on the edges of what the formats accept.
EDGE = st.sampled_from([
    0, 1, -1, 0.5, 2.0, 1e-320, 1e308, -1e308, math.inf, -math.inf, math.nan,
    "", "USD", "EUR", "JPY", "USD/EUR", "EUR/USD", "USD/USD", "call", [], {},
])
LEAF = st.one_of(EDGE, st.none(), st.booleans(), st.integers(),
                 st.floats(), st.text(max_size=4))
VALUE = st.recursive(
    LEAF,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
CSV_TOKEN = st.one_of(
    EDGE.map(str), st.floats().map(repr), st.integers().map(str),
    st.text(st.characters(blacklist_characters="\r\n"), max_size=5))
SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)


def _paths(doc, prefix=()):
    """Every location in a JSON document, the root included."""
    yield prefix
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_json(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(VALUE)
            continue
        parent = reduce(getitem, path[:-1], doc)
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "delete":
            del parent[path[-1]]
        elif action == "add" and isinstance(parent, dict):
            parent[draw(st.text(max_size=4) | EDGE.filter(
                lambda v: isinstance(v, str)))] = draw(VALUE)
        elif action == "add":
            parent.insert(path[-1], draw(VALUE))
        else:
            parent[path[-1]] = draw(VALUE)
    return doc


@st.composite
def mutated_csv(draw, text):
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        action = draw(st.sampled_from(["field", "delete", "duplicate",
                                       "line"]))
        if not lines or action == "line":
            lines.insert(i, ",".join(draw(st.lists(CSV_TOKEN, max_size=6))))
        elif action == "field":
            fields = lines[i].split(",")
            j = draw(st.integers(0, len(fields) - 1))
            fields[j] = draw(CSV_TOKEN)
            lines[i] = ",".join(fields)
        elif action == "delete":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzzdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "market.csv").write_text(MARKET)
    assert main(["bootstrap", str(d / "market.csv"),
                 "--out", str(d / "curves.json")]) == 0
    (d / "vols.json").write_text(json.dumps(VOLS))
    (d / "instruments.json").write_text(json.dumps(INSTRUMENTS))
    return d


def _run(d, curves="curves.json", vols="vols.json",
         instruments="instruments.json", diagnose=True):
    model = [str(d / curves), "--vols", str(d / vols), "--paths", PATHS,
             "--out", str(d / "report.json")]
    codes = [main(["price", *model, "--instruments", str(d / instruments),
                   "--method", "both"])]
    if diagnose:
        codes.append(main(["diagnose", *model]))
    assert set(codes) <= EXIT_CODES, codes


def _dump(path, doc):
    path.write_text(json.dumps(doc))


@SETTINGS
@given(data=st.data())
def test_mutated_curve_set(fuzzdir, data):
    base = json.loads((fuzzdir / "curves.json").read_text())
    _dump(fuzzdir / "c_mut.json", data.draw(mutated_json(base)))
    _run(fuzzdir, curves="c_mut.json")


@SETTINGS
@given(doc=mutated_json(VOLS))
def test_mutated_vol_config(fuzzdir, doc):
    _dump(fuzzdir / "v_mut.json", doc)
    _run(fuzzdir, vols="v_mut.json")


@SETTINGS
@given(doc=mutated_json(INSTRUMENTS))
def test_mutated_instruments(fuzzdir, doc):
    _dump(fuzzdir / "i_mut.json", doc)
    _run(fuzzdir, instruments="i_mut.json", diagnose=False)


@SETTINGS
@given(text=mutated_csv(MARKET))
def test_mutated_market_csv(fuzzdir, text):
    (fuzzdir / "m_mut.csv").write_text(text)
    code = main(["bootstrap", str(fuzzdir / "m_mut.csv"),
                 "--out", str(fuzzdir / "c_boot.json")])
    assert code in EXIT_CODES
    if code == 0:
        _run(fuzzdir, curves="c_boot.json")
