"""Catalog parsing, the isolation screen, and the summary tables."""

import pytest

from modscreen import catalog
from modscreen.catalog import (CatalogEntry, emit_table1, emit_table2,
                               intermediate_deltas, load_catalog,
                               parse_catalog, screen_entry, serialize_catalog)
from modscreen.errors import NonInvertibleGenerator, ParseError
from modscreen.points import Verdict
from modscreen.subgroups import borel, nonsplit_cartan_normalizer
from modscreen.zmod import delta_full, delta_pm1


BOREL5 = '{"label": "5.B", "level": 5, "gens": [[1,1,0,1], [2,0,0,1], [1,0,0,2]]}'


# ---------------------------------------------------------------- parsing

def test_catalog_entries_compare_without_their_source_line():
    # a parsed catalog equals the entries it was written from (the
    # benchmark's round trip), wherever each record stood in the file
    gens = borel(5, delta_full(5)).generator_quads()
    entry = CatalogEntry("5.B", 5, gens)
    assert entry.source_line == 0
    text = "# comment\n\n" + serialize_catalog([entry])
    assert parse_catalog(text) == [entry]
    assert parse_catalog(text)[0].source_line == 3
    assert entry == CatalogEntry(label="5.B", level=5, gens=gens, source_line=9)
    assert entry != CatalogEntry("5.C", 5, gens)
    assert entry != CatalogEntry("5.B", 25, gens)
    assert entry != CatalogEntry("5.B", 5, gens[1:])
    assert entry != ("5.B", 5, gens)


def test_parse_single_borel_record():
    entries = parse_catalog(BOREL5)
    assert len(entries) == 1
    e = entries[0]
    assert e.label == "5.B"
    assert e.level == 5
    assert e.source_line == 1
    g = e.subgroup()
    assert g.order == 80
    assert g.element_quads == borel(5, delta_full(5)).element_quads


def test_parse_skips_comments_and_blank_lines():
    text = "# header comment\n\n" + BOREL5 + "\n\n# trailing\n"
    entries = parse_catalog(text)
    assert [e.label for e in entries] == ["5.B"]
    assert entries[0].source_line == 3


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse_catalog("# fine\n{not json}")
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize("bad", [
    '["not", "an", "object"]',
    '{"level": 5, "gens": []}',
    '{"label": "", "level": 5, "gens": []}',
    '{"label": "x", "level": 0, "gens": []}',
    '{"label": "x", "level": true, "gens": []}',
    '{"label": "x", "level": 5, "gens": 3}',
    '{"label": "x", "level": 5, "gens": [[1,0,0]]}',
    '{"label": "x", "level": 5, "gens": [[1,0,0,true]]}',
])
def test_parse_rejects_malformed_records(bad):
    with pytest.raises(ParseError):
        parse_catalog(bad)


def test_parse_rejects_duplicate_labels():
    with pytest.raises(ParseError) as exc:
        parse_catalog(BOREL5 + "\n" + BOREL5)
    assert exc.value.line == 2
    assert "duplicate" in str(exc.value)


def test_parse_rejects_singular_generator():
    bad = '{"label": "25.sing", "level": 25, "gens": [[1,0,0,5]]}'
    with pytest.raises(NonInvertibleGenerator) as exc:
        parse_catalog(bad)
    assert exc.value.label == "25.sing"
    assert exc.value.row == 0


def test_generators_are_normalized_into_range():
    rec = '{"label": "7.neg", "level": 7, "gens": [[-1, 7, 0, 8]]}'
    (entry,) = parse_catalog(rec)
    assert entry.gens == ((6, 0, 0, 1),)


def test_level_one_record_is_the_full_profinite_image():
    (entry,) = parse_catalog('{"label": "1.triv", "level": 1, "gens": []}')
    g = entry.subgroup()
    assert g.n == 1 and g.order == 1
    assert g.label == "1.triv"


def test_serialize_round_trip():
    text = "\n".join((
        BOREL5,
        '{"label": "1.a", "level": 1, "gens": []}',
        '{"label": "9.c", "level": 9, "gens": [[2,0,0,5]]}',
    ))
    entries = parse_catalog(text)
    again = parse_catalog(serialize_catalog(entries))
    assert again == entries  # source_line excluded from comparison
    assert serialize_catalog([]) == ""
    assert parse_catalog("") == []


def test_load_catalog_reads_a_file(tmp_path):
    path = tmp_path / "images.jsonl"
    path.write_text("# demo\n" + BOREL5 + "\n", encoding="utf-8")
    entries = load_catalog(str(path))
    assert [e.label for e in entries] == ["5.B"]


# ------------------------------------------------------ intermediate deltas

def test_intermediate_deltas_orders():
    assert [d.order for d in intermediate_deltas(25)] == [4, 10]
    assert [d.order for d in intermediate_deltas(27)] == [6]
    assert [d.order for d in intermediate_deltas(32)] == [4, 8]
    assert [d.order for d in intermediate_deltas(13)] == [4, 6]


def test_intermediate_deltas_exclude_the_bracketing_pair():
    for n in (13, 25, 27, 32):
        for d in intermediate_deltas(n):
            assert n - 1 in d.elements
            assert d != delta_pm1(n)
            assert d != delta_full(n)


def test_intermediate_deltas_empty_for_tiny_moduli():
    for n in (1, 2, 3, 4, 5, 7, 8):
        assert intermediate_deltas(n) == ()


# ------------------------------------------------------------------ screen

def test_screen_full_level_one_entry():
    entry = CatalogEntry(label="1.full", level=1, gens=())
    rep = screen_entry(entry, n_max=2, ell=5)
    assert rep.ell == 5
    assert rep.genus_zero_at_ell
    assert rep.fiber_screen_passed
    assert rep.verdict is Verdict.FORCED_P1
    # the only intermediate curves below 5^2 live at 25
    assert [row.modulus for row in rep.rows] == [25, 25]
    assert all(row.min_fiber_degree == 300 for row in rep.rows)


def test_screen_cartan_normalizer_entry_at_five():
    cns = nonsplit_cartan_normalizer(5)
    entry = CatalogEntry(label="5.cns", level=5, gens=cns.generator_quads())
    rep = screen_entry(entry, n_max=2)
    assert rep.ell == 5 and rep.n_max == 2
    assert [(r.modulus, r.delta_order, r.genus, r.threshold)
            for r in rep.rows] == [(25, 4, 4, 8), (25, 10, 0, 0)]
    # one upstairs orbit covers the whole 300-coset space, so the minimum
    # degree crushes both thresholds
    assert all(r.min_fiber_degree == 300 for r in rep.rows)
    assert rep.fiber_screen_passed
    assert rep.genus_zero_at_ell
    assert rep.verdict is Verdict.FORCED_P1


def test_screen_inconclusive_when_both_parts_fail():
    b = borel(121, delta_pm1(121))
    entry = CatalogEntry(label="121.b1", level=121, gens=b.generator_quads())
    rep = screen_entry(entry, n_max=2)
    assert not rep.genus_zero_at_ell  # the mod-11 curve has genus 1
    assert not rep.fiber_screen_passed
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert [(r.modulus, r.delta_order, r.genus) for r in rep.rows] == \
        [(121, 10, 106), (121, 22, 26)]
    assert all(r.min_fiber_degree == 1 for r in rep.rows)


@pytest.mark.parametrize("min_fiber, verdicts", [
    (530, ["Inconclusive", "ForcedP1Parametrized"]),
    (531, ["ForcedP1Parametrized", "ForcedP1Parametrized"]),
], ids=["at-threshold", "above-threshold"])
def test_screen_rule_is_strict_at_the_threshold(monkeypatch, min_fiber,
                                                verdicts):
    # the rows' thresholds are 5 * 106 = 530 and 11 * 26 = 286: a minimum
    # fiber equal to a threshold does not pass it
    monkeypatch.setattr(catalog, "fiber_degrees",
                        lambda ctx, h: (min_fiber, 10 * min_fiber))
    b = borel(121, delta_pm1(121))
    entry = CatalogEntry(label="121.b1", level=121, gens=b.generator_quads())
    rep = screen_entry(entry, n_max=2)
    assert [(r.threshold, r.min_fiber_degree) for r in rep.rows] == \
        [(530, min_fiber), (286, min_fiber)]
    assert [str(r.verdict) for r in rep.rows] == verdicts
    passed = min_fiber > 530
    assert rep.fiber_screen_passed is passed
    assert rep.verdict is (Verdict.FORCED_P1 if passed else Verdict.INCONCLUSIVE)


def test_screen_verdict_invariant():
    cases = [
        (CatalogEntry(label="1.full", level=1, gens=()), 5),
        (CatalogEntry(label="5.cns", level=5,
                      gens=nonsplit_cartan_normalizer(5).generator_quads()),
         None),
        (CatalogEntry(label="121.b1", level=121,
                      gens=borel(121, delta_pm1(121)).generator_quads()),
         None),
    ]
    for entry, ell in cases:
        rep = screen_entry(entry, n_max=2, ell=ell)
        forced = rep.verdict is Verdict.FORCED_P1
        assert forced == (rep.fiber_screen_passed or rep.genus_zero_at_ell)
        for row in rep.rows:
            assert (row.verdict is Verdict.FORCED_P1) == \
                (row.min_fiber_degree > row.threshold)


def test_screen_requires_a_prime_for_level_one():
    entry = CatalogEntry(label="1.full", level=1, gens=())
    with pytest.raises(ValueError):
        screen_entry(entry, n_max=2)


def test_screen_rejects_composite_level():
    entry = CatalogEntry(label="12.x", level=12, gens=((1, 0, 0, 1),))
    with pytest.raises(ValueError):
        screen_entry(entry, n_max=2)


def test_screen_rejects_mismatched_prime():
    (entry,) = parse_catalog(BOREL5)
    with pytest.raises(ValueError):
        screen_entry(entry, n_max=2, ell=7)


def test_screen_rejects_tower_below_the_entry():
    b = borel(25, delta_full(25))
    entry = CatalogEntry(label="25.b", level=25, gens=b.generator_quads())
    with pytest.raises(ValueError):
        screen_entry(entry, n_max=1)


# ------------------------------------------------------------------ tables

def test_table1_rows_and_determinism():
    t1 = emit_table1()
    assert t1.header == ("modulus", "delta_order", "genus", "threshold",
                         "verdict")
    assert t1.rows == emit_table1().rows
    by_key = {(m, d): (g, thr) for m, d, g, thr, _ in t1.rows}
    assert by_key[(25, 4)] == (4, 8)
    assert by_key[(25, 10)] == (0, 0)
    assert by_key[(27, 6)] == (1, 3)
    assert by_key[(32, 4)] == (5, 10)
    assert by_key[(32, 8)] == (1, 4)
    assert len(t1.rows) == 5


def test_table2_rows():
    t2 = emit_table2()
    by_key = {(ell, d): (g, b, v) for ell, d, g, b, v in t2.rows}
    assert by_key[(5, 4)][:2] == (4, 30)
    assert by_key[(7, 6)][:2] == (19, 56)
    assert by_key[(11, 10)][:2] == (106, 132)
    assert by_key[(13, 26)][:2] == (50, 84)
    assert by_key[(13, 78)][:2] == (16, 28)
    # the bound beats the genus in every row, so the whole table is forced
    assert all(v == str(Verdict.FORCED_P1) for *_, v in t2.rows)
    assert len(t2.rows) == 12


def test_table_records_match_tsv():
    t1 = emit_table1()
    recs = t1.to_records()
    assert len(recs) == len(t1.rows)
    assert recs[0]["modulus"] == 25
    assert tuple(recs[0].values()) == t1.rows[0]
