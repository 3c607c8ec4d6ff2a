"""Catalog serialization and parsing under hypothesis-built catalogs.

Well-formed catalogs round-trip through serialize_catalog and parse_catalog,
with generator entries reduced mod the level and comment and blank lines
skipped but counted. One malformed record among good ones raises ParseError
naming its line, and no other exception.
"""

import json
import os
import tempfile
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from modscreen.catalog import (CatalogEntry, load_catalog,  # noqa: E402
                               parse_catalog, serialize_catalog)
from modscreen.errors import ParseError  # noqa: E402

PROPERTY = settings(deadline=None, derandomize=True, database=None,
                    max_examples=150)

# any text, '#', quotes, backslashes, line and paragraph separators included
labels = st.text(min_size=1, max_size=12)
levels = st.one_of(st.integers(1, 30), st.sampled_from([125, 169, 2**40 + 15]))
big = st.integers(-10**30, 10**30)
# one line of text: no \n or \r inside, but any other separator
line_text = st.text(st.characters(blacklist_characters="\n\r"), max_size=12)
# comment and blank lines
filler = st.one_of(st.sampled_from(["", " ", "\t", "  \x0c"]),
                   line_text.map(lambda t: "#" + t),
                   line_text.map(lambda t: "  # " + t))


@st.composite
def records(draw, label):
    """(record with raw entries, the entry it must parse to)."""
    level = draw(levels)
    quads = draw(st.lists(
        st.tuples(*[st.integers(0, level - 1)] * 4).filter(
            lambda q: gcd((q[0] * q[3] - q[1] * q[2]) % level, level) == 1),
        max_size=3))
    # entries off by any multiple of the level, negative or past 10^30
    rows = [[x + level * draw(big) for x in q] for q in quads]
    record = {"label": label, "level": level, "gens": rows}
    return record, CatalogEntry(label=label, level=level, gens=tuple(quads))


@st.composite
def catalogs(draw):
    """(lines, the entries they must parse to, each with its line number)."""
    names = draw(st.lists(labels, max_size=5, unique=True))
    lines, want = [], []
    for name in names:
        lines += draw(st.lists(filler, max_size=2))
        record, entry = draw(records(name))
        lines.append(json.dumps(record, ensure_ascii=draw(st.booleans())))
        want.append((entry, len(lines)))
    lines += draw(st.lists(filler, max_size=2))
    return lines, want


@settings(PROPERTY)
@given(catalogs(), st.sampled_from(["\n", "\r\n", "\r"]))
def test_catalogs_round_trip(case, newline):
    lines, want = case
    text = newline.join(lines)
    got = parse_catalog(text)
    assert got == [e for e, _ in want]
    assert [e.source_line for e in got] == [k for _, k in want]
    # a file gives the same lines, and the canonical text parses back equal
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "catalog.jsonl")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert [(e, e.source_line) for e in load_catalog(path)] == \
            [(e, e.source_line) for e in got]
    again = serialize_catalog(got)
    assert parse_catalog(again) == got
    assert serialize_catalog(parse_catalog(again)) == again


def _break(draw, record):
    """One way to make a record malformed; the rows before a broken row stay
    invertible, so ParseError is the first thing the parser can raise."""
    how = draw(st.sampled_from(["json", "not-object", "missing", "label",
                                "level", "gens", "row"]))
    if how == "json":
        # the last two: nesting past the recursion limit, and an integer
        # past the digit limit of int()
        return draw(st.sampled_from(["{", "{not json}", '{"label": "a",',
                                     "nul", "'x'", '{"a": 1} x', "[" * 100_000,
                                     '{"level": 1' + "0" * 5000 + "}"]))
    if how == "not-object":
        return json.dumps(draw(st.one_of(st.none(), st.booleans(), big,
                                         st.text(max_size=4),
                                         st.lists(st.integers(), max_size=3))))
    record = dict(record)
    if how == "missing":
        del record[draw(st.sampled_from(["label", "level", "gens"]))]
    elif how == "label":
        record["label"] = draw(st.sampled_from(["", 0, None, ["a"], True]))
    elif how == "level":
        record["level"] = draw(st.one_of(st.integers(-5, 0), st.booleans(),
                                         st.sampled_from([1.5, "5", None, [5]])))
    elif how == "gens":
        record["gens"] = draw(st.sampled_from([3, "gens", None, {"a": 1}]))
    else:
        bad = draw(st.sampled_from([[1, 0, 0], [1, 0, 0, 1, 0], [1, 0, 0, True],
                                    [1.0, 0, 0, 1], ["1", 0, 0, 1], 5, None]))
        rows = record["gens"]
        record["gens"] = rows[:draw(st.integers(0, len(rows)))] + [bad]
    return json.dumps(record)


@settings(PROPERTY)
@given(st.data())
def test_one_malformed_record_names_its_line(data):
    lines, want = data.draw(catalogs())
    at = data.draw(st.integers(0, len(lines)))
    record, _ = data.draw(records(data.draw(labels)))
    if want and at > want[0][1] - 1 and data.draw(st.booleans()):
        # a label already used on an earlier line
        record["label"] = want[0][0].label
        bad = json.dumps(record)
    else:
        bad = _break(data.draw, record)
    lines.insert(at, bad)
    with pytest.raises(ParseError) as exc:
        parse_catalog("\n".join(lines))
    assert exc.value.line == at + 1


@settings(PROPERTY)
@given(st.lists(line_text, max_size=4))
def test_arbitrary_lines_parse_or_raise_parse_error(lines):
    try:
        parse_catalog("\n".join(lines))
    except ParseError as exc:
        assert 1 <= exc.line <= len(lines)
