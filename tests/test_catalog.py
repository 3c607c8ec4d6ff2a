"""Catalog parsing, the isolation screen, and the summary tables."""

import json
import random
import warnings

import pytest

import _helpers
from modscreen import catalog, chain, curves, subgroups
from modscreen.catalog import (CatalogEntry, emit_table1, emit_table2,
                               intermediate_deltas, load_catalog,
                               parse_catalog, screen_entry, serialize_catalog)
from modscreen.cli import main
from modscreen.errors import (NonInvertibleGenerator, NotFullDeterminant,
                             ParseError, TooLarge)
from modscreen.points import GaloisImageContext, Verdict, fiber_degrees, rr_screen
from modscreen.subgroups import (GeneratedGroup, borel, contains_minus_i,
                                 lift_subgroup, minus_identity_quad,
                                 nonsplit_cartan_normalizer)
from modscreen.zmod import (delta_full, delta_pm1, delta_trivial,
                            unit_group_generators)


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


def test_catalog_entries_hash_by_value_and_refuse_assignment():
    # entries that differ only in where they were read are one set element
    gens = borel(5, delta_full(5)).generator_quads()
    entry = CatalogEntry("5.B", 5, gens)
    assert {CatalogEntry("5.B", 5, gens, source_line=k) for k in (0, 3, 9)} == {entry}
    assert set(parse_catalog("# comment\n" + serialize_catalog([entry]))) == {entry}
    assert len({entry, CatalogEntry("5.C", 5, gens)}) == 2
    for name in CatalogEntry.__slots__:
        with pytest.raises(AttributeError):
            setattr(entry, name, None)
        with pytest.raises(AttributeError):
            delattr(entry, name)
    with pytest.raises(AttributeError):
        entry.note = "x"
    assert (entry.label, entry.level, entry.gens, entry.source_line) == \
        ("5.B", 5, gens, 0)


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


def _conjugated(n, gens, c):
    return tuple(chain._conjugate(n, c, g) for g in gens)


def _screen_facts(rep):
    rows = [(r.modulus, r.delta_order, r.genus, r.min_fiber_degree,
             r.threshold, r.verdict) for r in rep.rows]
    return rows, rep.genus_zero_at_ell, rep.fiber_screen_passed, rep.verdict


MINUS_I_LEVELS = [4, 8, 9, 16, 25, 27]


def _seeded_images(level):
    """Three seeded images and a conjugated Borel with trivial Delta."""
    rng = random.Random(1900 + level)
    c = _helpers.generator_list(rng, level, 1)[0]
    # a Galois image has full determinant: diag(1, u) for the unit generators
    units = [(1, 0, 0, u) for u in unit_group_generators(level)]
    images = [tuple(_helpers.generator_list(rng, level, count) + units)
              for count in (1, 1, 2)]
    images.append(_conjugated(level, borel(level, delta_trivial(level))
                              .generator_quads(), c))
    return images


@pytest.mark.parametrize("level", MINUS_I_LEVELS)
def test_screen_is_the_same_with_minus_i_appended(level):
    # H = B_{+-1} holds the central -I, so R and +-R have the same orbits on
    # its cosets: the screen walks R as given and reports what +-R gives
    images = _seeded_images(level)
    n_max = _helpers.prime_power_exponent(level)[1] + 1
    without = 0
    for gens in images:
        without += not contains_minus_i(GeneratedGroup(level, gens))
        entry = CatalogEntry(label="r", level=level, gens=gens)
        pm = CatalogEntry(label="pm", level=level,
                          gens=gens + (minus_identity_quad(level),))
        assert (_screen_facts(screen_entry(entry, n_max))
                == _screen_facts(screen_entry(pm, n_max))), gens
    # the conjugated Borel with trivial Delta lacks -I at every level here
    assert without >= 1


def _entries_without_minus_i():
    """A conjugated Borel at 25 and a lifted one at 27, both with trivial Delta."""
    conj = _conjugated(25, borel(25, delta_trivial(25)).generator_quads(),
                       (2, 1, 1, 1))
    lifted = lift_subgroup(borel(3, delta_trivial(3)), 27).generator_quads()
    return [CatalogEntry(label="25.T", level=25, gens=conj),
            CatalogEntry(label="27.L", level=27, gens=lifted)]


def test_screen_raises_no_warning_for_an_image_without_minus_i():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entry in _entries_without_minus_i():
            assert not contains_minus_i(entry.subgroup())
            screen_entry(entry, n_max=4)


def test_screen_builds_stabilizer_chains_only_at_the_prime(monkeypatch):
    # the images are walked by their generators, so a chain is built only
    # for the class counts of the genus-zero part at l; at l <= 5 the genus
    # is read off X(l) and no chain is built at all
    moduli = []
    init = chain.StabilizerChain.__init__

    def counting(self, n, gens):
        moduli.append(n)
        init(self, n, gens)

    monkeypatch.setattr(chain.StabilizerChain, "__init__", counting)
    for entry in _entries_without_minus_i():
        moduli.clear()
        screen_entry(entry, n_max=4)
        assert moduli == [], entry.label
    conj = _conjugated(49, borel(49, delta_pm1(49)).generator_quads(),
                       (3, 1, 5, 2))
    moduli.clear()
    rep = screen_entry(CatalogEntry(label="49.B", level=49, gens=conj))
    assert rep.rows and moduli and set(moduli) == {7}


ORACLE_TOWERS = {2: 5, 3: 4, 5: 3, 7: 3}


def _tower_entries(ell, rng):
    """A Borel at l^2, a seeded conjugate of it, the lift of B_{+-1}(l) to
    l^2, the nonsplit Cartan normalizer and its preimage at l^2 (odd l), and
    the level-1 entry."""
    n = ell * ell
    b = borel(n, _helpers.random_delta(rng, n))
    c = _helpers.generator_list(rng, n, 1)[0]
    groups = {"B": b.generator_quads(),
              "Bc": _conjugated(n, b.generator_quads(), c),
              "L": lift_subgroup(borel(ell, delta_pm1(ell)), n).generator_quads()}
    if ell > 2:
        groups["cns"] = nonsplit_cartan_normalizer(n).generator_quads()
        groups["cnspre"] = lift_subgroup(nonsplit_cartan_normalizer(ell),
                                         n).generator_quads()
    entries = [CatalogEntry(f"{n}.{name}", n, gens)
               for name, gens in groups.items()]
    return entries + [CatalogEntry("1.full", 1, ())]


@pytest.mark.parametrize("ell", sorted(ORACLE_TOWERS))
def test_screen_walks_one_fiber_per_entry_and_scales_it_up_the_tower(
        monkeypatch, ell):
    # every row's least degree against the fiber computed at its own level,
    # and against the line walk of the lifted image there, which takes no
    # preimage descent; the screen itself walks the lines at most once
    n_max = ORACLE_TOWERS[ell]
    entries = _tower_entries(ell, random.Random(3600 + ell))
    walks = []
    orbit_sizes = subgroups.BorelGroup.orbit_sizes

    def counting(self, gens, whole):
        walks.append(self.n)
        return orbit_sizes(self, gens, whole)

    monkeypatch.setattr(subgroups.BorelGroup, "orbit_sizes", counting)
    for entry in entries:
        walks.clear()
        rep = screen_entry(entry, n_max, ell=ell)
        assert len(walks) <= 1, entry.label
        group = entry.subgroup()
        assert rep.rows, entry.label
        for row in rep.rows:
            lifted = lift_subgroup(group, row.modulus)
            h = borel(row.modulus, delta_pm1(row.modulus))
            assert row.min_fiber_degree == min(fiber_degrees(
                GaloisImageContext(lifted), h)), (entry.label, row.modulus)
            assert row.min_fiber_degree == min(orbit_sizes(
                h, lifted.generator_quads(), True)), (entry.label, row.modulus)


def test_screen_refuses_a_determinant_not_full_mod_ell_before_any_fiber(
        monkeypatch):
    # 9.c = <diag(2, 5)> has det 1 mod 9: its determinant mod 3 is not full,
    # and the genus-zero part says so before a fiber is built
    def refuse(ctx, h):
        raise AssertionError("built a fiber")

    monkeypatch.setattr(catalog, "fiber_degrees", refuse)
    entry = CatalogEntry(label="9.c", level=9, gens=((2, 0, 0, 5),))
    with pytest.raises(NotFullDeterminant, match="order 1, expected the full "
                                                 "unit group mod 3"):
        screen_entry(entry, n_max=3)


def test_screen_needs_a_full_determinant_mod_ell_only():
    # 9.d has a determinant image of order 2 mod 9, all of (Z/3Z)^x
    entry = CatalogEntry(label="9.d", level=9,
                         gens=((1, 1, 0, 1), (8, 0, 0, 1)))
    assert entry.subgroup().det_image.order == 2
    rep = screen_entry(entry, n_max=3)
    assert (rep.genus_zero_at_ell, rep.fiber_screen_passed) == (True, True)
    assert rep.verdict is Verdict.FORCED_P1


def test_screen_refuses_a_tower_past_the_unit_cap_before_its_unit_subgroups(
        monkeypatch):
    # 25 has phi(25) = 20 units; the cap is read at call time, and the check
    # comes before any unit subgroup at a tower modulus
    b = borel(25, delta_full(25))
    entry = CatalogEntry(label="25.b", level=25, gens=b.generator_quads())
    monkeypatch.setattr(subgroups, "ENUMERATION_CAP", 20)
    assert screen_entry(entry).rows

    def refuse(n):
        raise AssertionError(f"built the unit subgroups mod {n}")

    monkeypatch.setattr(catalog, "intermediate_deltas", refuse)
    monkeypatch.setattr(subgroups, "ENUMERATION_CAP", 19)
    with pytest.raises(TooLarge,
                       match="^unit subgroups mod 25 need 20 units, cap 19$") as err:
        screen_entry(entry)
    exc = err.value
    assert (exc.operation, exc.modulus, exc.reached, exc.cap) == \
        ("unit subgroups", 25, 20, 19)


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


def test_screen_default_tower_is_the_clis(capsys, tmp_path):
    # without n_max the tower tops are 2^5, 3^3 and the square of any other
    # prime, or the entry's own exponent when that is higher; screen prints
    # exactly these reports
    entries = [CatalogEntry(label=f"{n}.b", level=n,
                            gens=borel(n, delta_full(n)).generator_quads())
               for n in (4, 64, 9, 5, 7)]
    reports = [screen_entry(entry) for entry in entries]
    assert [rep.n_max for rep in reports] == [5, 6, 3, 2, 2]
    path = tmp_path / "towers.jsonl"
    path.write_text(serialize_catalog(entries), encoding="utf-8")
    assert main(["screen", "--catalog", str(path), "--json"]) == 0
    printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert printed == [dict(rep._asdict(), rows=[r._asdict() for r in rep.rows])
                       for rep in reports]


def _this_files_entries():
    """Every catalog image screened above, with -I appended to each image of
    test_screen_is_the_same_with_minus_i_appended too."""
    entries = [CatalogEntry(label="1.full", level=1, gens=()),
               *parse_catalog(BOREL5),
               CatalogEntry(label="5.cns", level=5,
                            gens=nonsplit_cartan_normalizer(5).generator_quads()),
               CatalogEntry(label="121.b1", level=121,
                            gens=borel(121, delta_pm1(121)).generator_quads()),
               CatalogEntry(label="9.d", level=9,
                            gens=((1, 1, 0, 1), (8, 0, 0, 1))),
               *_entries_without_minus_i()]
    for level in MINUS_I_LEVELS:
        for i, gens in enumerate(_seeded_images(level)):
            entries.append(CatalogEntry(label=f"{level}.r{i}", level=level,
                                        gens=gens))
            entries.append(CatalogEntry(label=f"{level}.pm{i}", level=level,
                                        gens=gens + (minus_identity_quad(level),)))
    return entries


def test_screen_walks_no_cosets(capsys, monkeypatch, tmp_path):
    # the genus-zero part counts classes at l and the fibers walk P^1 lines,
    # so a coset walk that always raises leaves every row as it is
    entries = _this_files_entries()
    path = tmp_path / "screened.jsonl"
    path.write_text(serialize_catalog(entries), encoding="utf-8")
    argv = ["screen", "--catalog", str(path), "--ell", "5"]
    assert main(argv) == 0
    printed = capsys.readouterr()
    assert printed.err == ""
    assert len(printed.out.splitlines()) == 1 + len(entries)

    def refuse(*args):
        raise AssertionError("walked the cosets")

    monkeypatch.setattr(subgroups, "coset_action", refuse)
    monkeypatch.setattr(curves, "coset_action", refuse)
    assert main(argv) == 0
    assert capsys.readouterr() == printed


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


def test_table1_takes_every_verdict_from_the_screen_rule(monkeypatch):
    """One rr_screen call per row, at the least degree 1 and r = |Delta|/2."""
    calls = []

    def recording(degree, r, genus):
        calls.append((degree, r, genus))
        return rr_screen(degree, r, genus)

    monkeypatch.setattr(catalog, "rr_screen", recording)
    t1 = emit_table1()
    assert calls == [(1, d // 2, g) for _, d, g, _, _ in t1.rows]
    assert [v for *_, v in t1.rows] == [rr_screen(*call) for call in calls]


@pytest.mark.parametrize("emit", [emit_table1, emit_table2], ids=["table1", "table2"])
def test_tables_keep_the_verdict_itself(emit):
    assert all(type(v) is Verdict for *_, v in emit().rows)


def test_table_records_match_tsv():
    t1 = emit_table1()
    recs = t1.to_records()
    assert len(recs) == len(t1.rows)
    assert recs[0]["modulus"] == 25
    assert tuple(recs[0].values()) == t1.rows[0]
