"""Malformed command lines and catalogs end in exit 0, 2 or 3, never a traceback.

Group-spec strings and catalog lines are built by hypothesis: bad JSON,
wrong types, singular rows, levels that are no prime power. The caps are
lowered so that a well-formed but large request stops at exit 3 at once.
Command lines drawn from the grammar, some tokens malformed, read the same
through cli._read_argv as through the argparse parser.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import modscreen.subgroups  # noqa: E402
from modscreen.catalog import parse_catalog  # noqa: E402
from modscreen.cli import (COMMANDS, OPTIONS, _read_argv,  # noqa: E402
                           build_parser, main)
from modscreen.errors import CatalogError  # noqa: E402

PROPERTY = settings(deadline=None, derandomize=True, database=None,
                    max_examples=120)

small = st.integers(-3, 40)
number = st.one_of(small, st.sampled_from(["", "x", "1.5", "0", "-1", "1e3"]))
unit_list = st.one_of(st.just("all"), st.just(""), st.text("0123456789,-x", max_size=8),
                      st.lists(small, min_size=1, max_size=3).map(
                          lambda xs: ",".join(map(str, xs))))
labels = st.sampled_from(["a", "b", "c", "1.full"])

group_specs = st.one_of(
    st.just("full"),
    st.builds("borel:{}:{}".format, number, unit_list),
    st.builds("borel:{}".format, number),
    st.builds("{}:{}:{}".format, st.sampled_from(["cns", "cnspre"]), number,
              st.sampled_from(["", "1", "2", "0", "-2", "y"])),
    st.builds("{}:{}".format, st.sampled_from(["cns", "cnspre"]), number),
    st.builds("file:{}".format, st.one_of(labels, st.just(""))),
    st.text(":,0123456789abcdefilnoprsu-", max_size=14),
)

row = st.one_of(st.lists(st.integers(-30, 30), min_size=4, max_size=4),
                st.lists(st.integers(0, 3), min_size=0, max_size=5),
                st.just([1, 2, 2, 4]),  # singular at every level
                st.just(["1", 0, 0, 1]), st.just([True, 0, 0, 1]),
                st.just(1.5))
records = st.fixed_dictionaries({}, optional={
    "label": st.one_of(labels, st.just(""), st.integers(0, 3)),
    "level": st.one_of(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 25, 27]),
                       st.integers(-2, 30), st.just("5"), st.just(True)),
    "gens": st.one_of(st.lists(row, max_size=3), st.just("gens"), st.just(None)),
})
lines = st.one_of(records.map(json.dumps),
                  st.sampled_from(["{", "[1, 2]", "null", "# comment", "",
                                   '{"label": "a", "level": 5}', "é"]),
                  st.text(max_size=10))
# well-formed records, so that catalogs also parse and get screened
sound_records = st.fixed_dictionaries({
    "label": labels,
    "level": st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 6, 25, 27]),
    "gens": st.lists(st.lists(st.integers(-30, 30), min_size=4, max_size=4),
                     max_size=3),
})
catalogs = st.one_of(
    st.lists(lines, max_size=4),
    st.lists(sound_records, max_size=3, unique_by=lambda r: r["label"]).map(
        lambda rs: [json.dumps(r) for r in rs]))


# well-formed values, then values argparse reads otherwise or refuses
int_values = (st.integers(0, 200).map(str),
              st.sampled_from(["", "x", "1.5", " 7", "0x1f", "-5", "--json",
                               "-", "--"]))
text_values = (st.sampled_from(["borel:5:all", "full", "cns:5", "a b", "x=y",
                                ""]),
               st.one_of(st.sampled_from(["-5", "--json", "-x", "-", "--", "-h"]),
                         st.text(max_size=6)))
MALFORMED = ["abbreviated", "equals", "no value", "stray", "special"]


@st.composite
def command_lines(draw):
    """<command> (--flag | --option value)*, with some tokens malformed: an
    abbreviated option, --option=value, a value that starts with '-', a bad
    int, a stray token, another command's option, -h or --, an option given
    twice or missing, or an option before the command."""
    command = draw(st.sampled_from(list(COMMANDS)))
    flags = COMMANDS[command][2]
    chosen = [flag for flag in flags
              if OPTIONS[flag].get("required") and draw(st.integers(0, 5))]
    chosen += draw(st.lists(st.sampled_from(flags), max_size=4))
    if not draw(st.integers(0, 5)):
        chosen.append(draw(st.sampled_from(list(OPTIONS))))
    argv = [command]
    for flag in draw(st.permutations(chosen)):
        spec = OPTIONS[flag]
        good, bad = int_values if "type" in spec else text_values
        value = [] if spec.get("action") == "store_true" else \
            [draw(good if draw(st.integers(0, 5)) else bad)]
        form = "exact" if draw(st.integers(0, 7)) else draw(st.sampled_from(MALFORMED))
        if form == "exact":
            argv += [flag, *value]
        elif form == "abbreviated":
            argv += [flag[:draw(st.integers(3, len(flag)))], *value]
        elif form == "equals":
            argv.append("=".join([flag, *value]))
        elif form == "no value":
            argv.append(flag)
        elif form == "stray":
            argv.append(draw(st.one_of(*text_values)))
        else:
            argv.append(draw(st.sampled_from(["-h", "--help", "--", "--no-such-option"])))
    if not draw(st.integers(0, 9)):
        argv.insert(0, draw(st.sampled_from(["--json", "--group", "-h"])))
    return argv


@settings(PROPERTY, max_examples=500)
@given(argv=command_lines())
def test_the_reader_reads_what_argparse_reads(argv):
    args = _read_argv(argv)
    if args is None:
        return
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            expected = build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"argparse refuses {argv}, which the reader reads")
    assert vars(args) == vars(expected)


def _run(argv):
    err = io.StringIO()
    with mock.patch.object(modscreen.subgroups, "ENUMERATION_CAP", 5_000), \
            mock.patch.object(modscreen.subgroups, "ORBIT_CAP", 2_000), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the -I adjoin notes are expected
        code = main(argv)
    return code, err.getvalue()


def _assert_clean_exit(code, err):
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code:
        assert [line for line in err.splitlines() if line.startswith("error:")] \
            == err.splitlines()
        assert len(err.splitlines()) == 1


def _assert_clean_screen_exit(code, err, text):
    """A catalog that does not parse is one error line; past the parse, each
    failed entry writes one line naming it, in catalog order."""
    try:
        entries = parse_catalog(text)
    except CatalogError:
        _assert_clean_exit(code, err)
        return
    assert code in (0, 2, 3)
    lines = err.splitlines()
    assert bool(code) == bool(lines)
    labels = iter(entry.label for entry in entries)
    for line in lines:
        assert any(line.startswith(f"error: {label}: ") for label in labels), err


@settings(PROPERTY)
@given(command=st.sampled_from(["order", "index", "level", "genus", "label"]),
       spec=group_specs,
       modulus=st.one_of(st.none(), st.integers(-2, 60)),
       catalog=catalogs)
def test_group_specs_exit_cleanly(command, spec, modulus, catalog):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "catalog.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(catalog) + "\n")
        argv = [command, f"--group={spec}", f"--catalog={path}"]
        if modulus is not None:
            argv.append(f"--modulus={modulus}")
        _assert_clean_exit(*_run(argv))


@settings(PROPERTY)
@given(catalog=catalogs,
       ell=st.one_of(st.none(), st.integers(-1, 9)),
       nmax=st.one_of(st.none(), st.integers(-1, 3)))
def test_catalogs_screen_cleanly(catalog, ell, nmax):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "catalog.jsonl")
        text = "\n".join(catalog) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = ["screen", f"--catalog={path}"]
        if ell is not None:
            argv.append(f"--ell={ell}")
        if nmax is not None:
            argv.append(f"--nmax={nmax}")
        _assert_clean_screen_exit(*_run(argv), text)


@pytest.mark.parametrize("bound", [0, -1, -30])
def test_verify_formulae_refuses_a_bound_below_one(bound):
    """--max-modulus below 1 would check nothing past the Cartan and lift
    rows and exit 0: it is one error line and exit 2, as a bad --modulus is,
    with nothing on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify-formulae", f"--max-modulus={bound}"])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == f"error: --max-modulus must be >= 1, got {bound}\n"
