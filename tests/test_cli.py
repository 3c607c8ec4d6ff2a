"""End-to-end command-line checks, run in process through main(argv); the
run-to-run check starts fresh interpreters."""

import json
import os
import resource
import subprocess
import sys
import time
import warnings

import pytest

import modscreen
import modscreen.chain
import modscreen.cli
import modscreen.curves
import modscreen.subgroups
from modscreen.cli import COMMANDS, OPTIONS, build_parser, main


CATALOG = "\n".join((
    "# demo catalog",
    '{"label": "5.B", "level": 5, "gens": [[1,1,0,1], [2,0,0,1], [1,0,0,2]]}',
    '{"label": "1.full", "level": 1, "gens": []}',
)) + "\n"


@pytest.fixture
def catalog_path(tmp_path):
    path = tmp_path / "images.jsonl"
    path.write_text(CATALOG, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_parser():
    raise AssertionError("a well-formed command line built the argparse parser")


# ------------------------------------------------------------- group math

def test_order_tsv(capsys):
    code, out, _ = run(capsys, "order", "--group", "borel:5:all")
    assert code == 0
    assert out == "80\n"


def test_order_json(capsys):
    code, out, _ = run(capsys, "order", "--group", "borel:5:all", "--json")
    assert code == 0
    assert json.loads(out) == {"order": 80}


def test_index_of_cartan_normalizer(capsys):
    code, out, _ = run(capsys, "index", "--group", "cns:5")
    assert code == 0
    assert out == "10\n"


def test_level_detects_primitive_and_lifted_groups(capsys):
    code, out, _ = run(capsys, "level", "--group", "borel:25:all")
    assert (code, out) == (0, "25\n")
    code, out, _ = run(capsys, "level", "--group", "full", "--modulus", "9")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "level", "--group", "cns:5", "--modulus", "25")
    assert (code, out) == (0, "5\n")


def test_genus_row_for_the_level_seven_borel(capsys):
    code, out, _ = run(capsys, "genus", "--group", "borel:7:all")
    assert code == 0
    header, row = out.splitlines()
    assert header.split("\t") == ["mu", "nu2", "nu3", "nu_inf", "genus",
                                  "label_prefix"]
    assert row.split("\t") == ["8", "0", "2", "2", "0", "7.8.0"]


def test_label_carries_a_content_hash(capsys):
    code, out, _ = run(capsys, "label", "--group", "cns:5")
    assert code == 0
    label = out.strip()
    assert label.startswith("5.10.0#")
    suffix = label.split("#", 1)[1]
    assert len(suffix) == 8
    assert set(suffix) <= set("0123456789abcdef")
    # deterministic across invocations
    code, out2, _ = run(capsys, "label", "--group", "cns:5")
    assert out2.strip() == label


def test_map_degree_to_the_full_group(capsys):
    code, out, _ = run(capsys, "map-degree", "--group", "borel:25:all",
                       "--target", "full", "--modulus", "25")
    assert (code, out) == (0, "30\n")


def test_point_degree_example(capsys):
    code, out, _ = run(capsys, "point-degree", "--image", "cns:5",
                       "--group", "borel:5:4")
    assert (code, out) == (0, "12\n")


def test_point_degree_respects_dj(capsys):
    code, out, _ = run(capsys, "point-degree", "--image", "cns:5",
                       "--group", "borel:5:4", "--dj", "2")
    assert (code, out) == (0, "24\n")


def test_fiber_degrees_tsv_and_json(capsys):
    code, out, _ = run(capsys, "fiber-degrees", "--image", "cns:5",
                       "--group", "borel:5:all")
    assert code == 0
    assert out.splitlines() == ["degree\tmultiplicity", "6\t1"]
    code, out, _ = run(capsys, "fiber-degrees", "--image", "cns:5",
                       "--group", "borel:5:all", "--json")
    assert code == 0
    assert json.loads(out) == {"degrees": [6]}


def test_reduce_level_row(capsys):
    code, out, _ = run(capsys, "reduce-level", "--image", "cns:5",
                       "--modulus", "25", "--group", "borel:25:all",
                       "--m", "1")
    assert code == 0
    header, row = out.splitlines()
    assert header.split("\t") == ["lhs", "rhs", "equal", "hypothesis_holds"]
    assert row.split("\t") == ["5", "5", "True", "True"]


def test_group_resolved_from_catalog(capsys, catalog_path):
    code, out, _ = run(capsys, "order", "--group", "file:5.B",
                       "--catalog", catalog_path)
    assert (code, out) == (0, "80\n")


def test_enumeration_cap_maps_to_exit_three(capsys, monkeypatch, catalog_path):
    # the label hash enumerates the group and reads the cap at call time
    monkeypatch.setattr(modscreen.subgroups, "ENUMERATION_CAP", 10)
    code, out, err = run(capsys, "label", "--group", "file:5.B",
                         "--catalog", catalog_path)
    assert (code, out) == (3, "")
    assert err == "error: enumeration of generated mod 5 needs 80 elements, cap 10\n"


def test_order_of_a_catalog_group_needs_no_enumeration(capsys, monkeypatch,
                                                       catalog_path):
    # the stabilizer chain gives the order; the enumeration cap binds only
    # where the element set itself is asked for
    monkeypatch.setattr(modscreen.subgroups, "ENUMERATION_CAP", 10)
    assert run(capsys, "order", "--group", "file:5.B",
               "--catalog", catalog_path) == (0, "80\n", "")


@pytest.mark.parametrize("argv, ell", [
    (("order", "--group", "cns:9"), 9),
    (("level", "--group", "cnspre:25:1"), 25),
    (("order", "--group", "cns:4"), 4),
    (("order", "--group", "cnspre:1:3"), 1),
], ids=["cns-9", "cnspre-25", "cns-4", "cnspre-1"])
def test_cartan_specs_reject_a_non_prime_l(capsys, argv, ell):
    # cns:9 once built cns:3:2 and cnspre:25:1 the preimage from level 5
    kind = argv[2].partition(":")[0]
    assert run(capsys, *argv) == (2, "", f"error: {kind} needs a prime l, got {ell}\n")


# ----------------------------------------------------------------- screen

def test_screen_summary_table(capsys, catalog_path):
    code, out, _ = run(capsys, "screen", "--catalog", catalog_path,
                       "--ell", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split("\t") == ["label", "ell", "n_max",
                                    "fiber_screen_passed",
                                    "genus_zero_at_ell", "verdict"]
    assert len(lines) == 3
    assert lines[1].startswith("5.B\t5\t2\t")
    assert lines[2].startswith("1.full\t5\t2\t")
    for line in lines[1:]:
        assert line.endswith("ForcedP1Parametrized")


def test_screen_single_label_json(capsys, catalog_path):
    code, out, _ = run(capsys, "screen", "--catalog", catalog_path,
                       "--label", "5.B", "--json", "--nmax", "2")
    assert code == 0
    (record,) = [json.loads(line) for line in out.splitlines()]
    assert record["label"] == "5.B"
    assert record["ell"] == 5
    assert record["genus_zero_at_ell"] is True
    assert record["verdict"] == "ForcedP1Parametrized"
    assert [(r["modulus"], r["delta_order"]) for r in record["rows"]] == \
        [(25, 4), (25, 10)]
    for row in record["rows"]:
        assert row["min_fiber_degree"] > row["threshold"]


def test_screen_without_catalog_is_a_usage_error(capsys):
    code, _, err = run(capsys, "screen", "--ell", "5")
    assert code == 2
    assert "error:" in err


def test_screen_unknown_label_is_a_usage_error(capsys, catalog_path):
    code, _, err = run(capsys, "screen", "--catalog", catalog_path,
                       "--label", "no.such")
    assert code == 2
    assert "no.such" in err


SCREEN_HEADER = "label\tell\tn_max\tfiber_screen_passed\tgenus_zero_at_ell\tverdict\n"


@pytest.mark.parametrize("ell", ["4", "1", "0", "-3", "9"])
def test_screen_rejects_a_non_prime_ell_for_level_one(capsys, catalog_path, ell):
    code, out, err = run(capsys, "screen", "--catalog", catalog_path,
                         "--label", "1.full", "--ell", ell)
    assert (code, out) == (2, SCREEN_HEADER)
    assert err == f"error: 1.full: a level-1 entry needs a prime ell, got {ell}\n"


MIXED_PRIMES = "\n".join((
    '{"label": "1.full", "level": 1, "gens": []}',
    '{"label": "5.B", "level": 5, "gens": [[1,1,0,1], [2,0,0,1], [1,0,0,2]]}',
    '{"label": "7.B", "level": 7, "gens": [[1,1,0,1], [3,0,0,1], [1,0,0,3]]}',
)) + "\n"


def test_screen_ell_applies_to_level_one_entries_only(capsys, tmp_path):
    # --ell names the prime of 1.full; 5.B and 7.B keep their own primes
    path = tmp_path / "mixed.jsonl"
    path.write_text(MIXED_PRIMES, encoding="utf-8")
    code, out, err = run(capsys, "screen", "--catalog", str(path), "--ell", "5")
    assert (code, err) == (0, "")
    assert [line.split("\t")[:3] for line in out.splitlines()[1:]] == \
        [["1.full", "5", "2"], ["5.B", "5", "2"], ["7.B", "7", "2"]]
    # without --ell the level-1 entry still has no prime; the others print
    rows = out.splitlines(keepends=True)
    assert run(capsys, "screen", "--catalog", str(path)) == (
        2, "".join([rows[0]] + rows[2:]),
        "error: 1.full: a level-1 entry needs a prime ell, got None\n")


# one bad entry each: 9.c = <diag(2, 5)> has det 1 mod 9, so its determinant
# mod 3 is not full; 12.x has no prime-power level
BAD_DETERMINANT = "\n".join((
    '{"label": "1.a", "level": 1, "gens": []}',
    '{"label": "9.c", "level": 9, "gens": [[2,0,0,5]]}',
)) + "\n"
BAD_LEVEL = "\n".join((
    '{"label": "5.B", "level": 5, "gens": [[1,1,0,1], [2,0,0,1], [1,0,0,2]]}',
    '{"label": "12.x", "level": 12, "gens": [[1,1,0,1]]}',
)) + "\n"


@pytest.mark.parametrize("catalog, good, error", [
    (BAD_DETERMINANT, "1.a\t5\t2\tTrue\tTrue\tForcedP1Parametrized",
     "9.c: determinant image has order 1, expected the full unit group mod 3"),
    (BAD_LEVEL, "5.B\t5\t2\tTrue\tTrue\tForcedP1Parametrized",
     "12.x: level 12 is not a prime power"),
], ids=["determinant", "level"])
@pytest.mark.parametrize("mode", ["tsv", "json"])
def test_screen_names_a_bad_entry_and_goes_on(capsys, tmp_path, catalog, good,
                                             error, mode):
    # the good entry prints what it prints when screened alone, and the
    # bad one is named on stderr
    path = tmp_path / "bad.jsonl"
    path.write_text(catalog, encoding="utf-8")
    argv = ("screen", "--catalog", str(path), "--ell", "5")
    argv += ("--json",) if mode == "json" else ()
    label = good.split("\t")[0]
    code, alone, err = run(capsys, *argv, "--label", label)
    assert (code, err) == (0, "")
    if mode == "json":
        assert json.loads(alone)["label"] == label
    else:
        assert alone == SCREEN_HEADER + good + "\n"
    assert run(capsys, *argv) == (2, alone, f"error: {error}\n")


# the genus-zero part of the split Cartan 7.S has 56 cosets mod 7, checked
# against the cap before its counts
CAPPED = "\n".join((
    '{"label": "1.full", "level": 1, "gens": []}',
    '{"label": "7.S", "level": 7, "gens": [[3,0,0,1], [1,0,0,3]]}',
    '{"label": "9.c", "level": 9, "gens": [[2,0,0,5]]}',
    '{"label": "5.B", "level": 5, "gens": [[1,1,0,1], [2,0,0,1], [1,0,0,2]]}',
)) + "\n"


def test_screen_exits_three_when_an_entry_hits_a_cap(capsys, monkeypatch,
                                                    tmp_path):
    # a cap of 20 stops 7.S alone and the others still print; a cap
    # outranks the failed entry 9.c
    path = tmp_path / "capped.jsonl"
    path.write_text(CAPPED, encoding="utf-8")
    argv = ("screen", "--catalog", str(path), "--ell", "5")
    code, out, err = run(capsys, *argv)
    rows = out.splitlines(keepends=True)
    assert [row.split("\t")[0] for row in rows] == ["label", "1.full", "7.S", "5.B"]
    assert (code, err) == (2, "error: 9.c: determinant image has order 1, "
                              "expected the full unit group mod 3\n")
    monkeypatch.setattr(modscreen.subgroups, "ORBIT_CAP", 20)
    assert run(capsys, *argv) == (3, rows[0] + rows[1] + rows[3], (
        "error: 7.S: coset walk of generated mod 7 reached 20 cosets, cap 20\n"
        + err))


# labels holding a line feed, a tab, a backslash and a carriage return, all
# of 5.B's group, and a bad entry 9.c whose label holds them too
ODD_LABELS = ["5.B\nfake\trow", "back\\slash\t", "cr\r\n"]
ODD_CATALOG = "".join(json.dumps(record) + "\n" for record in (
    *({"label": label, "level": 5, "gens": [[1, 1, 0, 1], [2, 0, 0, 1], [1, 0, 0, 2]]}
      for label in ODD_LABELS),
    {"label": "9.c\n\\\t\r", "level": 9, "gens": [[2, 0, 0, 5]]}))


def test_screen_tsv_escapes_what_would_break_a_row(capsys, tmp_path):
    # Linear TSV: one header line and one line of 6 fields per entry, and
    # one error line for the bad entry, whatever its label holds
    path = tmp_path / "odd.jsonl"
    path.write_text(ODD_CATALOG, encoding="utf-8")
    code, out, err = run(capsys, "screen", "--catalog", str(path))
    assert code == 2
    assert "\r" not in out and out.endswith("\n")
    rows = [line.split("\t") for line in out[:-1].split("\n")]
    assert [len(row) for row in rows] == [6] * 4
    assert rows[0] == SCREEN_HEADER[:-1].split("\t")
    assert [row[0] for row in rows[1:]] == \
        ["5.B\\nfake\\trow", "back\\\\slash\\t", "cr\\r\\n"]
    assert {"\t".join(row[1:]) for row in rows[1:]} == \
        {"5\t2\tTrue\tTrue\tForcedP1Parametrized"}
    error = ("error: 9.c\\n\\\\\\t\\r: determinant image has order 1, "
             "expected the full unit group mod 3\n")
    assert err == error
    # JSON keeps each label as it is, and the error line is the same
    code, out, err = run(capsys, "screen", "--catalog", str(path), "--json")
    assert (code, err) == (2, error)
    assert [json.loads(line)["label"] for line in out.splitlines()] == ODD_LABELS


# the top of 2^30's tower has 2^29 units: its unit subgroups would be closed
# up to that order
HUGE = "\n".join((
    '{"label": "huge", "level": 1073741824, "gens": [[1,1,0,1], [1,0,0,3]]}',
    '{"label": "5.B", "level": 5, "gens": [[1,1,0,1], [2,0,0,1], [1,0,0,2]]}',
)) + "\n"


def _limit_address_space():
    # 1 GiB: a command that builds the units or the lines of P^1 at a huge
    # modulus fails with MemoryError here instead of filling the machine
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def _fresh_main(argv):
    """(stdout, stderr) of main(argv) in a fresh interpreter under 1 GiB;
    the last stdout line is main's exit code and whether it took under 1 s."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(modscreen.__file__)))
    code = ("import time, modscreen.cli; start = time.perf_counter(); "
            f"code = modscreen.cli.main({argv!r}); "
            "print(code, time.perf_counter() - start < 1)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          preexec_fn=_limit_address_space, timeout=120)
    return proc.stdout, proc.stderr


def test_screen_refuses_a_huge_tower_at_once_and_goes_on(tmp_path):
    path = tmp_path / "huge.jsonl"
    path.write_text(HUGE, encoding="utf-8")
    out, err = _fresh_main(["screen", "--catalog", str(path)])
    assert err == ("error: huge: unit subgroups mod 1073741824 need "
                   "536870912 units, cap 10000000\n")
    assert out == (SCREEN_HEADER
                   + "5.B\t5\t2\tTrue\tTrue\tForcedP1Parametrized\n"
                   + "3 True\n")


def test_borel_all_at_a_huge_modulus_is_refused_before_its_units():
    # phi(2^30) = 2^29 units would be listed for Delta = all
    out, err = _fresh_main(["genus", "--group", "borel:1073741824:all"])
    assert err == ("error: unit subgroups mod 1073741824 need 536870912 "
                   "units, cap 10000000\n")
    assert out == "3 True\n"


def test_borel_all_reads_the_unit_cap_at_call_time(capsys, monkeypatch):
    monkeypatch.setattr(modscreen.subgroups, "ENUMERATION_CAP", 10)
    assert run(capsys, "genus", "--group", "borel:25:all") == (
        3, "", "error: unit subgroups mod 25 need 20 units, cap 10\n")
    # an explicit generator list and the trivial Delta keep their path
    assert run(capsys, "order", "--group", "borel:25:24")[:2] == (0, "1000\n")
    assert run(capsys, "order", "--group", "borel:25:")[:2] == (0, "500\n")


@pytest.mark.parametrize("command, printed", [
    ("fiber-degrees", "degree\tmultiplicity\n5014014656791176\t1\n"),
    ("point-degree", "5014014656791176\n"),
], ids=["fiber-degrees", "point-degree"])
def test_a_full_image_reaches_a_huge_modulus(command, printed):
    # the full image is the preimage of GL2(Z/1): one orbit there, scaled by
    # [GL2 : B], with no line of P^1 mod 10007^2 walked
    n = 10007**2
    out, err = _fresh_main([command, "--image", "full", "--modulus", str(n),
                            "--group", f"borel:{n}:{n - 1}"])
    assert (out, err) == (printed + "0 True\n", "")


@pytest.mark.parametrize("where", ["missing", "directory"])
@pytest.mark.parametrize("argv", [["screen", "--ell", "5"],
                                  ["order", "--group", "file:5.B"]])
def test_unreadable_catalog_is_a_usage_error(capsys, tmp_path, where, argv):
    path = tmp_path / "none.jsonl" if where == "missing" else tmp_path
    code, out, err = run(capsys, *argv, "--catalog", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


# ----------------------------------------------------------------- tables

def test_table1_snapshot(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    assert out == (
        "modulus\tdelta_order\tgenus\tthreshold\tverdict\n"
        "25\t4\t4\t8\tInconclusive\n"
        "25\t10\t0\t0\tForcedP1Parametrized\n"
        "27\t6\t1\t3\tInconclusive\n"
        "32\t4\t5\t10\tInconclusive\n"
        "32\t8\t1\t4\tInconclusive\n"
    )


def test_table2_snapshot(capsys):
    code, out, _ = run(capsys, "table2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ell\tdelta_order\tgenus\tdegree_lower_bound\tverdict"
    assert len(lines) == 13
    assert lines[1] == "5\t4\t4\t30\tForcedP1Parametrized"
    assert lines[12] == "13\t78\t16\t28\tForcedP1Parametrized"
    assert all(line.endswith("ForcedP1Parametrized") for line in lines[1:])


def test_table_json_mode(capsys):
    code, out, _ = run(capsys, "table1", "--json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 5
    assert records[0] == {"modulus": 25, "delta_order": 4, "genus": 4,
                          "threshold": 8, "verdict": "Inconclusive"}


@pytest.mark.parametrize("argv, line", [
    (["genus", "--group", "borel:7:all"],
     '{"mu": 8, "nu2": 0, "nu3": 2, "nu_inf": 2, "genus": 0, '
     '"label_prefix": "7.8.0"}'),
    (["reduce-level", "--image", "cns:5", "--modulus", "25",
      "--group", "borel:25:all", "--m", "1"],
     '{"lhs": 5, "rhs": 5, "equal": true, "hypothesis_holds": true}'),
    (["screen", "--catalog", "ONE_ENTRY"],
     '{"label": "5.B", "ell": 5, "n_max": 2, "fiber_screen_passed": true, '
     '"genus_zero_at_ell": true, "verdict": "ForcedP1Parametrized", '
     '"rows": [{"modulus": 25, "delta_order": 4, "genus": 4, '
     '"min_fiber_degree": 50, "threshold": 8, '
     '"verdict": "ForcedP1Parametrized"}, {"modulus": 25, "delta_order": 10, '
     '"genus": 0, "min_fiber_degree": 50, "threshold": 0, '
     '"verdict": "ForcedP1Parametrized"}]}'),
], ids=["genus", "reduce-level", "screen"])
def test_json_line_snapshot(capsys, tmp_path, argv, line):
    # the exact bytes, key order included: each record's fields are printed
    # in the order they are declared
    one_entry = tmp_path / "one.jsonl"
    one_entry.write_text(CATALOG.splitlines()[1] + "\n", encoding="utf-8")
    argv = [str(one_entry) if a == "ONE_ENTRY" else a for a in argv]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert out.splitlines()[0] == line


# ------------------------------------------------------------ verification

def test_verify_formulae_passes(capsys):
    code, out, _ = run(capsys, "verify-formulae", "--max-modulus", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split("\t") == ["check", "computed", "expected", "status"]
    assert all(line.endswith("\tok") for line in lines[1:])
    assert any(line.startswith("gl2_order(8)") for line in lines)
    assert any(line.startswith("cartan_order(7,1)") for line in lines)
    # the stabilizer chain of each structural group rebuilt from generators
    assert any(line.startswith("chain_order(8,borel4)") for line in lines)
    assert any(line.startswith("chain_order(7,cartan)") for line in lines)
    # the Schreier generators of each det-1 part against |H| / |det H|
    assert any(line.startswith("sl2_gens(8,borel4)") for line in lines)
    assert any(line.startswith("sl2_gens(7,cartan)") for line in lines)
    # the Borel orbit sizes from P^1 against the coset walk, one row per Delta
    assert sum(line.startswith("borel_orbits(8,") for line in lines) == 3
    # the Cartan orbit sizes from pairs in P^1(O/l^d) against the coset walk
    assert any(line.startswith("cartan_orbits(3)") for line in lines)
    assert any(line.startswith("cartan_orbits(7)") for line in lines)
    # the lift scale, a quotient of orders, against the kernel walk: one row
    # per Delta and divisor m of the modulus, and for the Cartan preimages
    assert sum(line.startswith("lift_scale(8,") for line in lines) == 3 * 4
    assert any(line.startswith("lift_scale(7,7,cnspre)") for line in lines)
    # each kind's closed-form level against the kernel-generator scan, and
    # that of its full preimage at twice the modulus: full at every n,
    # Cartan at 3, 5 and 7, Borel at every Delta from 3 on
    assert sum(line.startswith("level(") for line in lines) == 2 * (8 + 3 + 15)
    assert [line.split("\t")[0] for line in lines
            if line.startswith("level(8,")] == [
        "level(8,lifted_full)", "level(8,full)", "level(8,lifted_borel1)",
        "level(8,lifted_borel2)", "level(8,borel1)", "level(8,borel2)",
        "level(8,borel4)"]
    assert any(line.startswith("level(14,lifted_cartan)") for line in lines)
    # the curve counts at each prime from the permutation character against
    # the coset walk: the Borel of every Delta, the Cartan normalizer at odd
    # primes and two seeded conjugates
    assert [line.split("\t")[0] for line in lines
            if line.startswith("class_counts(7,")] == [
        *(f"class_counts(7,borel{k})" for k in (1, 2, 3, 6)),
        "class_counts(7,cns)", "class_counts(7,generated)",
        "class_counts(7,generated)"]
    assert sum(line.startswith("class_counts(") for line in lines) == 3 + 5 + 6 + 7
    # the unit subgroups from the group's structure against the lattice walk,
    # one row per prime power
    assert [line.split("\t")[0] for line in lines if line.startswith("unit_")] == [
        f"unit_subgroups({n})" for n in (3, 4, 5, 7, 8)]


def test_verify_formulae_checks_the_cartan_rows_up_to_its_bound(capsys):
    # the Cartan normalizer's rows run at every odd prime power up to
    # --max-modulus, and at no modulus past it
    code, out, _ = run(capsys, "verify-formulae", "--max-modulus", "8")
    assert code == 0
    names = [line.split("\t")[0] for line in out.splitlines()[1:]]
    assert [name for name in names if name.startswith("cartan_order(")] == [
        "cartan_order(3,1)", "cartan_order(5,1)", "cartan_order(7,1)"]
    for row in ("chain_order({},cartan)", "sl2_gens({},cartan)",
                "cartan_orbits({})"):
        prefix, suffix = row.split("{}")
        assert [name for name in names if name.startswith(prefix)
                and name.endswith(suffix)] == [row.format(n) for n in (3, 5, 7)]
    assert [name for name in names if name.endswith(",cnspre)")] == [
        f"lift_scale({n},{m},cnspre)" for n in (3, 5, 7) for m in (1, n)]


def test_verify_formulae_checks_the_small_genus_rows_up_to_its_bound(capsys):
    # the genus 0 read off X(n) against the walk at n <= min(5, bound), on
    # the families of the class_counts rows, and at 4
    code, out, _ = run(capsys, "verify-formulae", "--max-modulus", "4")
    assert code == 0
    names = [line.split("\t")[0] for line in out.splitlines()[1:]]
    assert [name for name in names if name.startswith("small_genus(")] == [
        "small_genus(2,borel1)", *["small_genus(2,generated)"] * 2,
        "small_genus(3,borel1)", "small_genus(3,borel2)", "small_genus(3,cns)",
        *["small_genus(3,generated)"] * 2,
        "small_genus(4,borel1)", "small_genus(4,borel2)",
        *["small_genus(4,generated)"] * 2]


def test_cli_import_leaves_the_verification_module_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(modscreen.__file__)))
    code = "import sys, modscreen.cli; print('modscreen.verify' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"False\n"


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # every CLI call pays its imports; dataclasses would bring inspect, ast,
    # dis and tokenize with it, and typing would bring contextlib. -S keeps
    # site hooks from importing them first
    src = os.path.dirname(os.path.dirname(os.path.abspath(modscreen.__file__)))
    code = ("import sys, modscreen.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} "
            "& set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"[]\n"


def test_a_well_formed_call_leaves_argparse_out():
    # argparse, with the gettext and locale it imports, is built only to
    # print help and usage errors; -S keeps site hooks from importing them
    src = os.path.dirname(os.path.dirname(os.path.abspath(modscreen.__file__)))
    code = ("import sys, modscreen.cli; "
            "modscreen.cli.main(['order', '--group', 'borel:5:all']); "
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"80\n[]\n"


# ---------------------------------------------------------------- notices

@pytest.mark.parametrize("argv, notices", [
    (("genus", "--group", "borel:5:"),
     ["adjoined -I to a subgroup mod 5 before computing curve data"]),
    (("point-degree", "--image", "borel:5:", "--group", "borel:5:"),
     ["adjoined -I to a subgroup mod 5 before the degree computation"]),
], ids=["genus", "point-degree"])
def test_notices_are_one_line_without_the_source_path(argv, notices):
    # the same op prints the same stderr from any checkout and any edit of cli.py
    src = os.path.dirname(os.path.dirname(os.path.abspath(modscreen.__file__)))
    proc = subprocess.run([sys.executable, "-m", "modscreen.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "".join(f"warning: {m}\n" for m in notices)


@pytest.mark.parametrize("argv", [
    ("genus", "--group", "borel:5:"),
    ("order", "--group", "bogus:3"),
], ids=["notice", "error"])
def test_main_restores_the_warning_format(capsys, recwarn, argv):
    before = warnings.formatwarning
    main(list(argv))
    capsys.readouterr()
    assert warnings.formatwarning is before


# ------------------------------------------------------ run-to-run output

def test_stdout_is_identical_under_different_hash_seeds(catalog_path):
    """String hashing is salted per process; no output may depend on it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(modscreen.__file__)))
    commands = [("table1",), ("genus", "--group", "cns:5"),
                ("screen", "--catalog", catalog_path, "--ell", "5")]
    for argv in commands:
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-m", "modscreen.cli", *argv],
                                  env=env, capture_output=True, timeout=120)
            assert proc.returncode == 0, (argv, proc.stderr)
            outs.append(proc.stdout)
        assert outs[0] == outs[1], argv
        assert outs[0].count(b"\n") >= 2, argv


def _readme_examples():
    """(argv, shown lines, elided) for each "$ modscreen" example of the
    README's Command line section; elided when the output shown ends in ..."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        section = fh.read().split("## Command line")[1].split("\n## ")[0]
    block = section.split("Examples:\n\n```\n")[1].split("```")[0]
    out = []
    for line in block.splitlines():
        if line.startswith("$ modscreen "):
            out.append([line.split()[2:], [], False])
        elif line == "...":
            out[-1][2] = True
        else:
            out[-1][1].append(line.split())
    # an example is named by its command, and a command's k-th example,
    # k > 1, by command-k, so adding an example renames none before it
    params, seen = [], {}
    for example in out:
        name = example[0][0]
        seen[name] = k = seen.get(name, 0) + 1
        params.append(pytest.param(*example, id=name if k == 1 else f"{name}-{k}"))
    return params


@pytest.mark.parametrize("argv, shown, elided", _readme_examples())
def test_readme_example(capsys, monkeypatch, tmp_path, argv, shown, elided):
    # the screen example reads images.jsonl from the working directory: the
    # demo catalog's 5.B entry; whitespace is compared up to its runs. Every
    # example is read without the argparse parser
    (tmp_path / "images.jsonl").write_text(CATALOG.splitlines()[1] + "\n",
                                           encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(modscreen.cli, "build_parser", _no_parser)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    printed = [line.split() for line in out.splitlines()]
    assert (printed[:len(shown)] if elided else printed) == shown


# ------------------------------------------------------------- exit codes

def test_unknown_group_spec_is_a_usage_error(capsys):
    code, _, err = run(capsys, "order", "--group", "bogus:3")
    assert code == 2
    assert "unknown group spec" in err


def test_full_needs_a_modulus(capsys):
    code, _, err = run(capsys, "order", "--group", "full")
    assert code == 2
    assert "--modulus" in err


@pytest.mark.parametrize("argv", [
    [command, option, value]
    for command in ("table1", "table2", "verify-formulae")
    for option, value in (("--modulus", "5"), ("--catalog", "images.jsonl"))
] + [
    ["screen", "--catalog", "images.jsonl", "--modulus", "5"],
    ["reduce-level", "--image", "cns:5", "--modulus", "25",
     "--group", "borel:25:all", "--m", "1", "--dj", "2"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_an_option_the_command_does_not_read_is_a_usage_error(capsys, argv):
    # d_j cancels in both sides of reduce-level, and the tables, the
    # formula checks and the screen name no group to lift or look up
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


def test_incompatible_modulus_is_a_usage_error(capsys):
    code, _, err = run(capsys, "order", "--group", "borel:5:all",
                       "--modulus", "12")
    assert code == 2
    assert "neither a multiple nor a divisor" in err


@pytest.mark.parametrize("argv, walked", [
    (("point-degree", "--image", "borel:5:all", "--group", "cns:5"),
     "cartan_nonsplit_normalizer"),
    (("genus", "--group", "cns:5"), "cartan_nonsplit_normalizer"),
    (("fiber-degrees", "--image", "borel:5:all", "--group", "cns:5"),
     "cartan_nonsplit_normalizer"),
], ids=["point-degree", "genus", "fiber-degrees"])
def test_orbit_cap_maps_to_exit_three(capsys, monkeypatch, argv, walked):
    # every coset walk reads the one cap at call time, and so do the curve
    # counts at a prime, on the cosets they count; the Cartan H meets the
    # cap, a Borel H does not (test_borel_fibers_use_no_coset_walk)
    monkeypatch.setattr(modscreen.subgroups, "ORBIT_CAP", 2)
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err == f"error: coset walk of {walked} mod 5 reached 2 cosets, cap 2\n"


def test_a_walk_of_known_length_past_the_cap_fails_fast(capsys):
    # mu = 10007 * 5003 = 50,065,021 is known from the orders, so the walk
    # is refused before it starts instead of after 10^7 cosets
    start = time.perf_counter()
    code, out, err = run(capsys, "genus", "--group", "cns:10007")
    assert time.perf_counter() - start < 2
    assert (code, out) == (3, "")
    assert err == ("error: coset walk of cartan_nonsplit_normalizer mod 10007 "
                   "reached 10000000 cosets, cap 10000000\n")


def test_full_group_genus_at_a_large_prime_is_a_closed_form(capsys, monkeypatch):
    # GL2 has one coset, so no stabilizer chain is built for it
    def refuse(*args):
        raise AssertionError("built a stabilizer chain")

    monkeypatch.setattr(modscreen.subgroups.StabilizerChain, "__init__", refuse)
    start = time.perf_counter()
    code, out, err = run(capsys, "genus", "--group", "full", "--modulus", "10007")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "1\t1\t1\t1\t0\t1.1.0"


def test_cartan_genus_at_a_prime_counts_what_the_walk_counts(capsys):
    # mu = 211 * 210 / 2 cosets, counted from the permutation character
    code, out, err = run(capsys, "genus", "--group", "cns:211")
    assert (code, err) == (0, "")
    row = out.splitlines()[1].split("\t")
    assert row[:5] == ["22155", "107", "0", "105", "1768"]
    walked = modscreen.curves.coset_space(
        modscreen.subgroups.nonsplit_cartan_normalizer(211))
    assert [str(x) for x in (*walked.counts, walked.genus)] == row[:5]


def test_a_walk_of_known_length_is_refused_before_it_starts(capsys, monkeypatch,
                                                           recwarn, tmp_path):
    # the coset space and the whole-fiber walk know their length, so they
    # raise the walk's own message without walking
    def refuse(*args):
        raise AssertionError("walked the cosets before checking the cap")

    path = tmp_path / "walked.jsonl"
    path.write_text(WALKED_BORELS, encoding="utf-8")
    monkeypatch.setattr(modscreen.subgroups, "ORBIT_CAP", 2)
    monkeypatch.setattr(modscreen.subgroups, "coset_action", refuse)
    monkeypatch.setattr(modscreen.curves, "coset_action", refuse)
    assert run(capsys, "genus", "--group", "cns:5") == (3, "", (
        "error: coset walk of cartan_nonsplit_normalizer mod 5 reached 2 "
        "cosets, cap 2\n"))
    code, out, err = run(capsys, "fiber-degrees", "--image", "cns:5",
                         "--group", "file:5.T", "--catalog", str(path))
    assert (code, out) == (3, "")
    assert err == "error: coset walk of generated mod 5 reached 2 cosets, cap 2\n"
    assert [str(w.message) for w in recwarn] == [
        "adjoined -I to a subgroup mod 5 before the degree computation"]


@pytest.mark.parametrize("argv, cosets", [
    (("genus", "--group", "cns:5"), 10),
    (("fiber-degrees", "--image", "cns:5", "--group", "file:5.T"), 12),
], ids=["genus", "fiber-degrees"])
def test_a_walk_of_known_length_finishes_at_the_cap(capsys, monkeypatch,
                                                   recwarn, tmp_path, argv,
                                                   cosets):
    # mu = 10 cosets for cns:5, [GL2 : +-B] = 12 for 5.T: a cap of exactly
    # that many lets the walk finish, one fewer stops it
    path = tmp_path / "walked.jsonl"
    path.write_text(WALKED_BORELS, encoding="utf-8")
    argv = (*argv, "--catalog", str(path))
    uncapped = run(capsys, *argv)
    assert uncapped[0] == 0
    monkeypatch.setattr(modscreen.subgroups, "ORBIT_CAP", cosets)
    assert run(capsys, *argv) == uncapped
    monkeypatch.setattr(modscreen.subgroups, "ORBIT_CAP", cosets - 1)
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err.endswith(f"reached {cosets - 1} cosets, cap {cosets - 1}\n")


def test_borel_genus_uses_no_coset_walk(capsys, monkeypatch):
    # Borel curve counts are closed forms, so a cap that stops every walk
    # leaves the genus row as it is uncapped
    uncapped = run(capsys, "genus", "--group", "borel:5:all")
    assert uncapped == (0, "mu\tnu2\tnu3\tnu_inf\tgenus\tlabel_prefix\n"
                           "6\t2\t0\t2\t0\t5.6.0\n", "")
    monkeypatch.setattr(modscreen.subgroups, "ORBIT_CAP", 2)
    assert run(capsys, "genus", "--group", "borel:5:all") == uncapped


@pytest.mark.parametrize("command", ["fiber-degrees", "point-degree"])
def test_borel_fibers_use_no_coset_walk(capsys, monkeypatch, command):
    # Borel fibers come from the line orbits in P^1, so a cap that stops
    # every coset walk leaves them as they are uncapped
    argv = (command, "--image", "cns:5", "--group", "borel:5:all")
    uncapped = run(capsys, *argv)
    assert uncapped[0] == 0 and uncapped[1]
    monkeypatch.setattr(modscreen.subgroups, "ORBIT_CAP", 2)
    assert run(capsys, *argv) == uncapped


def test_parser_is_built_once_and_reused(capsys):
    # a usage error between two calls leaves the shared parser intact
    assert build_parser() is build_parser()
    assert run(capsys, "order", "--group", "borel:5:all") == (0, "80\n", "")
    with pytest.raises(SystemExit) as exc:
        main(["order"])
    assert exc.value.code == 2
    assert "--group" in capsys.readouterr().err
    assert run(capsys, "order", "--group", "borel:5:all", "--json") == \
        (0, '{"order": 80}\n', "")


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("workload", ["genus_deep", "fiber_deep", "screen"])
def test_benchmark_ops_build_no_parser(capsys, monkeypatch, recwarn, tmp_path,
                                       workload, seed):
    # the benchmark's tiny passes write every argv shape its full passes do
    perfbench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
    monkeypatch.syspath_prepend(perfbench)
    import workloads
    ops = workloads.build(workload, seed, str(tmp_path), tiny=True)
    monkeypatch.setattr(modscreen.cli, "build_parser", _no_parser)
    for op in ops:
        code, out, _ = run(capsys, *op["argv"])
        assert code == 0 and out, op["name"]


def test_main_reads_sys_argv_without_the_parser(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["modscreen", "order", "--group", "borel:5:all"])
    monkeypatch.setattr(modscreen.cli, "build_parser", _no_parser)
    assert main() == 0
    assert capsys.readouterr().out == "80\n"


def _required_options(command):
    return [token for flag in COMMANDS[command][2] if OPTIONS[flag].get("required")
            for token in (flag, "1" if OPTIONS[flag].get("type") is int else "full")]


@pytest.mark.parametrize("command", [
    "order", "index", "level", "genus", "label", "map-degree", "point-degree",
    "fiber-degrees", "reduce-level", "screen", "table1", "table2",
    "verify-formulae"])
def test_help_and_usage_errors_per_command(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: modscreen {command} ")
    # every required option is given, so the unknown one is the only fault,
    # and it is named under the command's usage on every Python version
    with pytest.raises(SystemExit) as exc:
        main([command, *_required_options(command), "--no-such-option", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: modscreen {command} ")
    assert err.endswith(f"modscreen {command}: error: unrecognized arguments: "
                        "--no-such-option 1\n")


def test_point_degree_over_a_file_image_builds_no_chain(capsys, monkeypatch,
                                                        tmp_path):
    # the image is taken as given: nothing tests it for -I, and the Borel
    # lines are walked under its generators, so no stabilizer chain is built
    n = 121
    subgroups = modscreen.subgroups
    cns = subgroups.nonsplit_cartan_normalizer(n)
    gens = [modscreen.chain._conjugate(n, (1, 0, 1, 1), g)
            for g in cns.generator_quads()]
    path = tmp_path / "cns.jsonl"
    path.write_text(json.dumps({"label": "121.c", "level": n, "gens": gens}),
                    encoding="utf-8")

    def refuse(*args):
        raise AssertionError("built a stabilizer chain")

    monkeypatch.setattr(subgroups.StabilizerChain, "__init__", refuse)
    code, out, err = run(capsys, "point-degree", "--image", "file:121.c",
                         "--group", "borel:121:all", "--catalog", str(path))
    assert (code, err) == (0, "")
    assert int(out) > 1


# Borel groups given by generators, so that their cosets are walked: B with
# trivial Delta at 25 and at 5
WALKED_BORELS = "\n".join((
    '{"label": "25.T", "level": 25, "gens": [[1,1,0,1], [1,0,0,2]]}',
    '{"label": "5.T", "level": 5, "gens": [[1,1,0,1], [1,0,0,2]]}',
)) + "\n"


@pytest.mark.parametrize("command, printed", [
    ("fiber-degrees", "degree\tmultiplicity\n300\t1\n"),
    ("point-degree", "300\n"),
], ids=["fiber-degrees", "point-degree"])
def test_lifted_image_walks_at_its_own_level_under_the_cap(capsys, monkeypatch,
                                                           recwarn, tmp_path,
                                                           command, printed):
    # over the preimage of CNS(5) the 300 cosets mod 25 are 12 cosets mod 5
    # times the 25 kernel cosets, and the one walk, mod 5, stays under a cap
    # of 100
    path = tmp_path / "walked.jsonl"
    path.write_text(WALKED_BORELS, encoding="utf-8")
    catalog = ("--catalog", str(path))
    monkeypatch.setattr(modscreen.subgroups, "ORBIT_CAP", 100)
    group = ("--group", "file:25.T", *catalog)
    code, out, _ = run(capsys, command, "--image", "cnspre:5:2", *group)
    assert (code, out) == (0, printed)
    # -I is adjoined to H once, not again by the walk mod 5
    assert [str(w.message) for w in recwarn] == [
        "adjoined -I to a subgroup mod 25 before the degree computation"]
    # the thin normalizer at 25 is no preimage: one walk over all 300 cosets
    code, _, err = run(capsys, command, "--image", "cns:5:2", *group)
    assert code == 3
    assert err == "error: coset walk of generated mod 25 reached 100 cosets, cap 100\n"
    # the scale [K : K meet H] = 25 is a quotient of orders, not a walk mod
    # 25, so only the 12 cosets mod 5 meet the cap
    monkeypatch.setattr(modscreen.subgroups, "ORBIT_CAP", 20)
    code, out, _ = run(capsys, command, "--image", "cnspre:5:2", *group)
    assert (code, out) == (0, printed)
    monkeypatch.setattr(modscreen.subgroups, "ORBIT_CAP", 10)
    code, _, err = run(capsys, command, "--image", "cnspre:5:1",
                       "--group", "file:5.T", *catalog, "--modulus", "25")
    assert code == 3
    assert err == "error: coset walk of generated mod 5 reached 10 cosets, cap 10\n"
