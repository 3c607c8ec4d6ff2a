"""End-to-end command-line checks, run in process through main(argv); the
run-to-run check starts fresh interpreters."""

import json
import os
import subprocess
import sys
import time

import pytest

import modscreen
import modscreen.curves
import modscreen.subgroups
from modscreen.cli import build_parser, main


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


@pytest.mark.parametrize("ell", ["4", "1", "0", "-3", "9"])
def test_screen_rejects_a_non_prime_ell_for_level_one(capsys, catalog_path, ell):
    code, out, err = run(capsys, "screen", "--catalog", catalog_path,
                         "--label", "1.full", "--ell", ell)
    assert (code, out) == (2, "")
    assert err == f"error: a level-1 entry needs a prime ell, got {ell}\n"


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
    # without --ell the level-1 entry still has no prime
    assert run(capsys, "screen", "--catalog", str(path)) == \
        (2, "", "error: a level-1 entry needs a prime ell, got None\n")


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


# ------------------------------------------------------------ verification

def test_verify_formulae_passes(capsys):
    code, out, _ = run(capsys, "verify-formulae", "--max-modulus", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split("\t") == ["check", "computed", "expected", "status"]
    assert all(line.endswith("\tok") for line in lines[1:])
    assert any(line.startswith("gl2_order(8)") for line in lines)
    assert any(line.startswith("cartan_order(7,2)") for line in lines)
    # the stabilizer chain of each structural group rebuilt from generators
    assert any(line.startswith("chain_order(8,borel4)") for line in lines)
    assert any(line.startswith("chain_order(49,cartan)") for line in lines)
    # the Schreier generators of each det-1 part against |H| / |det H|
    assert any(line.startswith("sl2_gens(8,borel4)") for line in lines)
    assert any(line.startswith("sl2_gens(49,cartan)") for line in lines)
    # the Borel orbit sizes from P^1 against the coset walk, one row per Delta
    assert sum(line.startswith("borel_orbits(8,") for line in lines) == 3
    # the Cartan orbit sizes from pairs in P^1(O/l^d) against the coset walk
    assert any(line.startswith("cartan_orbits(3)") for line in lines)
    assert any(line.startswith("cartan_orbits(49)") for line in lines)
    # the unit subgroups from the group's structure against the lattice walk,
    # one row per prime power
    assert [line.split("\t")[0] for line in lines if line.startswith("unit_")] == [
        f"unit_subgroups({n})" for n in (3, 4, 5, 7, 8)]


def test_cli_import_leaves_the_verification_module_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(modscreen.__file__)))
    code = "import sys, modscreen.cli; print('modscreen.verify' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"False\n"


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # every CLI call pays its imports; dataclasses would bring inspect, ast,
    # dis and tokenize with it. -S keeps site hooks from importing them first
    src = os.path.dirname(os.path.dirname(os.path.abspath(modscreen.__file__)))
    code = ("import sys, modscreen.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"[]\n"


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


# ------------------------------------------------------------- exit codes

def test_unknown_group_spec_is_a_usage_error(capsys):
    code, _, err = run(capsys, "order", "--group", "bogus:3")
    assert code == 2
    assert "unknown group spec" in err


def test_full_needs_a_modulus(capsys):
    code, _, err = run(capsys, "order", "--group", "full")
    assert code == 2
    assert "--modulus" in err


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
    # every coset walk reads the one cap at call time; the Cartan H is
    # walked, a Borel H is not (test_borel_fibers_use_no_coset_walk)
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
    # times the 25 kernel cosets, and neither walk reaches a cap of 100
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
    # the cap is checked in the kernel walk mod 25 and in the walk mod 5
    monkeypatch.setattr(modscreen.subgroups, "ORBIT_CAP", 20)
    code, _, err = run(capsys, command, "--image", "cnspre:5:2", *group)
    assert code == 3
    assert err == "error: coset walk of generated mod 25 reached 20 cosets, cap 20\n"
    monkeypatch.setattr(modscreen.subgroups, "ORBIT_CAP", 10)
    code, _, err = run(capsys, command, "--image", "cnspre:5:1",
                       "--group", "file:5.T", *catalog, "--modulus", "25")
    assert code == 3
    assert err == "error: coset walk of generated mod 5 reached 10 cosets, cap 10\n"
