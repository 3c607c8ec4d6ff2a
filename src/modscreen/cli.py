"""Command-line front end.

Output is tab-separated by default and line-delimited JSON with --json; both
modes print to standard output only. Exit codes: 0 success, 2 for usage or
parse problems, 3 when a computation hits an enumeration or orbit cap.
screen writes one error line per failed entry, names the entry and goes on;
it exits 3 if an entry hit a cap, else 2 if an entry failed.

The grammar is declared once, in COMMANDS and OPTIONS. main reads a
well-formed argv, every option named in full and followed by its value,
with _read_argv; any other argv (help, a usage error, an abbreviation or
--option=value) goes to the argparse parser built from the same table, which
prints the help and usage errors. So a well-formed call never imports argparse.
"""

from __future__ import annotations

import json
import sys
import warnings
from collections import Counter
from collections.abc import Sequence
from functools import cache
from types import SimpleNamespace

from .catalog import (CatalogEntry, ScreenReport, emit_table1, emit_table2,
                      load_catalog, screen_entry)
from .curves import curve_data, label_prefix, map_degree
from .errors import ComputationCap, ModscreenError
from .points import (GaloisImageContext, fiber_degrees, level_reduction,
                     point_degree)
from .subgroups import (FullGroup, SubgroupSpec, _check_unit_count, borel,
                        level, lift_subgroup, nested_index,
                        nonsplit_cartan_normalizer,
                        nonsplit_cartan_normalizer_preimage, reduce_subgroup)
from .zmod import delta_full, delta_trivial, is_prime, unit_subgroup


def _resolve_group(spec: str, modulus: int | None,
                   catalog_path: str | None) -> SubgroupSpec:
    kind, _, rest = spec.partition(":")
    if kind == "full":
        if rest:
            raise ValueError("'full' takes no parameters; use --modulus")
        if modulus is None:
            raise ValueError("'full' needs --modulus")
        return FullGroup(modulus)
    if kind == "borel":
        n_text, _, gen_text = rest.partition(":")
        n = _positive_int(n_text, "borel modulus")
        group = borel(n, _parse_delta(n, gen_text))
    elif kind in ("cns", "cnspre"):
        ell_text, _, d_text = rest.partition(":")
        ell = _positive_int(ell_text, "prime")
        if not is_prime(ell):
            # else cns:9 would build cns:3:2, read back from 9 = 3**2
            raise ValueError(f"{kind} needs a prime l, got {ell}")
        d = _positive_int(d_text, "exponent") if d_text else 1
        maker = (nonsplit_cartan_normalizer if kind == "cns"
                 else nonsplit_cartan_normalizer_preimage)
        group = maker(ell**d)
    elif kind == "file":
        if not rest:
            raise ValueError("'file:' needs a catalog label")
        if catalog_path is None:
            raise ValueError("'file:' group specs need --catalog")
        group = _catalog_entry(catalog_path, rest).subgroup()
    else:
        raise ValueError(f"unknown group spec {spec!r}; expected {_GROUP_HELP}")
    if modulus is None or modulus == group.n:
        return group
    if modulus % group.n == 0:
        return lift_subgroup(group, modulus)
    if group.n % modulus == 0:
        return reduce_subgroup(group, modulus)
    raise ValueError(f"--modulus {modulus} is neither a multiple nor a "
                     f"divisor of the group's modulus {group.n}")


def _parse_delta(n: int, text: str):
    if text == "all":
        # TooLarge before phi(n) units are listed
        _check_unit_count(n)
        return delta_full(n)
    if not text:
        return delta_trivial(n)
    try:
        gens = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"bad unit list {text!r}") from None
    return unit_subgroup(n, gens)


def _catalog_entry(path: str, label: str) -> CatalogEntry:
    for entry in load_catalog(path):
        if entry.label == label:
            return entry
    raise ValueError(f"no catalog entry labeled {label!r} in {path}")


def _positive_int(text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"bad {what} {text!r}") from None
    if value < 1:
        raise ValueError(f"{what} must be positive, got {value}")
    return value


# Linear TSV: a text field's backslash, tab, line feed and carriage return
# are written as \\, \t, \n and \r, so a row stays one line of its columns;
# a number or a bool prints none of them
_TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n",
                              "\r": "\\r"})


def _tsv_field(value: object) -> str:
    text = str(value)
    return text.translate(_TSV_ESCAPES) if isinstance(value, str) else text


def _emit(args, records: list[dict],
          tsv_header: Sequence[str] | None = None) -> None:
    if args.json:
        for record in records:
            print(json.dumps(record))
        return
    if tsv_header:
        print("\t".join(tsv_header))
    for record in records:
        print("\t".join(_tsv_field(v) for v in record.values()))


# subcommand bodies

def _cmd_order(args) -> int:
    group = _resolve_group(args.group, args.modulus, args.catalog)
    _emit(args, [{"order": group.order}])
    return 0


def _cmd_index(args) -> int:
    group = _resolve_group(args.group, args.modulus, args.catalog)
    _emit(args, [{"index": nested_index(FullGroup(group.n), group)}])
    return 0


def _cmd_level(args) -> int:
    group = _resolve_group(args.group, args.modulus, args.catalog)
    _emit(args, [{"level": level(group)}])
    return 0


def _cmd_genus(args) -> int:
    group = _resolve_group(args.group, args.modulus, args.catalog)
    data = curve_data(group)
    _emit(args, [data._asdict()], data._fields)
    return 0


def _cmd_label(args) -> int:
    group = _resolve_group(args.group, args.modulus, args.catalog)
    _emit(args, [{"label": label_prefix(group)}])
    return 0


def _cmd_map_degree(args) -> int:
    src = _resolve_group(args.group, args.modulus, args.catalog)
    dst = _resolve_group(args.target, args.modulus, args.catalog)
    _emit(args, [{"degree": map_degree(src, dst)}])
    return 0


def _cmd_point_degree(args) -> int:
    ctx = GaloisImageContext(
        _resolve_group(args.image, args.modulus, args.catalog), d_j=args.dj)
    group = _resolve_group(args.group, args.modulus, args.catalog)
    _emit(args, [{"degree": point_degree(ctx, group)}])
    return 0


def _cmd_fiber_degrees(args) -> int:
    ctx = GaloisImageContext(
        _resolve_group(args.image, args.modulus, args.catalog), d_j=args.dj)
    group = _resolve_group(args.group, args.modulus, args.catalog)
    degrees = fiber_degrees(ctx, group)
    counts = Counter(degrees)
    if args.json:
        print(json.dumps({"degrees": list(degrees)}))
        return 0
    print("degree\tmultiplicity")
    for degree in sorted(counts):
        print(f"{degree}\t{counts[degree]}")
    return 0


def _cmd_reduce_level(args) -> int:
    ctx = GaloisImageContext(
        _resolve_group(args.image, args.modulus, args.catalog))
    group = _resolve_group(args.group, args.modulus, args.catalog)
    result = level_reduction(ctx, group, args.m)
    _emit(args, [result._asdict()], result._fields)
    return 0


def _cmd_screen(args) -> int:
    if args.catalog is None:
        raise ValueError("screen needs --catalog")
    entries = load_catalog(args.catalog)
    if args.label is not None:
        entries = [e for e in entries if e.label == args.label]
        if not entries:
            raise ValueError(f"no catalog entry labeled {args.label!r}")
    _emit(args, [], ScreenReport._fields[:-1])
    status = 0
    for entry in entries:
        # --ell names the prime of the level-1 entries; every other entry
        # is screened at its own level's prime. A bad entry is named and
        # skipped: one image says nothing about the others
        try:
            report = screen_entry(entry, args.nmax,
                                  ell=args.ell if entry.level == 1 else None)
        except (ModscreenError, ValueError) as exc:
            status = max(status, _fail(exc, f"{_tsv_field(entry.label)}: "))
            continue
        record = report._asdict()
        rows = record.pop("rows")
        if args.json:
            record["rows"] = [row._asdict() for row in rows]
        _emit(args, [record])
    return status


def _cmd_table(args, table) -> int:
    _emit(args, table.to_records(), table.header)
    return 0


def _cmd_table1(args) -> int:
    return _cmd_table(args, emit_table1())


def _cmd_table2(args) -> int:
    return _cmd_table(args, emit_table2())


def _cmd_verify_formulae(args) -> int:
    # imported here, so that the brute-force checks stay off the import path
    from .verify import verify_formulae
    rows = verify_formulae(args.max_modulus)
    _emit(args, rows, ("check", "computed", "expected", "status"))
    return 1 if any(row["status"] == "FAIL" for row in rows) else 0


# the command line's grammar, read by _read_argv and by build_parser

_GROUP_HELP = "full | borel:N:gens | cns:l:d | cnspre:l:d | file:LABEL"

# each option's keywords to argparse's add_argument
OPTIONS = {
    "--json": {"action": "store_true", "default": False,
               "help": "emit line-delimited JSON instead of TSV"},
    "--modulus": {"type": int, "default": None,
                  "help": "lift or reduce the group(s) to this modulus"},
    "--catalog": {"default": None,
                  "help": "catalog file backing file:LABEL group specs"},
    "--group": {"required": True, "help": _GROUP_HELP},
    "--image": {"required": True,
                "help": "Galois image subgroup: " + _GROUP_HELP},
    "--dj": {"type": int, "default": 1,
             "help": "degree of the j-coordinate field"},
    "--target": {"required": True, "help": "codomain subgroup: " + _GROUP_HELP},
    "--m": {"type": int, "required": True,
            "help": "target exponent of the prime-power modulus"},
    "--label": {"default": None, "help": "screen a single entry"},
    "--nmax": {"type": int, "default": None,
               "help": "top exponent of the tower (default: per-prime table)"},
    "--ell": {"type": int, "default": None,
              "help": "prime for level-1 entries"},
    "--max-modulus": {"type": int, "default": 12},
}

_GROUPS = ("--json", "--modulus", "--catalog", "--group")

# command -> (handler, help, the options it reads in help order)
COMMANDS = {
    "order": (_cmd_order, "order of a subgroup", _GROUPS),
    "index": (_cmd_index, "index of a subgroup in the full matrix group",
              _GROUPS),
    "level": (_cmd_level, "least modulus the subgroup is pulled back from",
              _GROUPS),
    "genus": (_cmd_genus, "curve invariants of a subgroup", _GROUPS),
    "label": (_cmd_label, "level.index.genus label with a content hash",
              _GROUPS),
    "map-degree": (_cmd_map_degree, "degree of the covering between two curves",
                   (*_GROUPS, "--target")),
    "point-degree": (_cmd_point_degree,
                     "degree of the distinguished point over the image's j-class",
                     (*_GROUPS, "--image", "--dj")),
    "fiber-degrees": (_cmd_fiber_degrees,
                      "degrees of all points over the image's j-class",
                      (*_GROUPS, "--image", "--dj")),
    "reduce-level": (_cmd_reduce_level,
                     "degree identity along a reduction of level",
                     (*_GROUPS, "--image", "--m")),
    "screen": (_cmd_screen, "run the isolation screen over a catalog",
               ("--json", "--catalog", "--label", "--nmax", "--ell")),
    "table1": (_cmd_table1, "genus/threshold table at 25, 27, 32", ("--json",)),
    "table2": (_cmd_table2, "genus/degree-floor table at the prime squared",
               ("--json",)),
    "verify-formulae": (_cmd_verify_formulae,
                        "cross-check closed-form orders against enumeration",
                        ("--json", "--max-modulus")),
}


def build_parser():
    """The argparse parser of COMMANDS, built once per process: parsing
    leaves it as is. main builds it only for an argv that _read_argv does
    not read, to print help and usage errors or to read abbreviations and
    --option=value."""
    return _parsers()[0]


@cache
def _parsers():
    """(the root parser, command -> that command's parser), built once."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="modscreen",
        description="Subgroup arithmetic, curve invariants, and isolation "
                    "screens for matrix groups over Z/NZ.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (func, help_text, flags) in COMMANDS.items():
        p = commands[name] = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for flag in flags:
            p.add_argument(flag, **OPTIONS[flag])
    return parser, commands


def _read_argv(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace build_parser().parse_args(argv) gives, for an argv of
    the form <command> (--flag | --option value)*; None for any other argv.

    Each option is named in full and is one the command reads, each value is
    present, does not start with '-' and converts with the option's type,
    and each required option is given. An option given twice keeps its last
    value, as argparse does.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, flags = COMMANDS[argv[0]]
    values = {"command": argv[0], "func": func}
    for flag in flags:
        values[flag[2:].replace("-", "_")] = OPTIONS[flag].get("default")
    given = set()
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in flags:
            return None
        spec = OPTIONS[flag]
        if spec.get("action") == "store_true":
            value = True
        else:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
            if "type" in spec:
                try:
                    value = spec["type"](value)
                except ValueError:
                    return None
        values[flag[2:].replace("-", "_")] = value
        given.add(flag)
    if any(OPTIONS[flag].get("required") and flag not in given
           for flag in flags):
        return None
    return SimpleNamespace(**values)


def _fail(exc: Exception, where: str = "") -> int:
    """Write exc's one error line; its exit code is 3 for a cap, else 2."""
    print(f"error: {where}{exc}", file=sys.stderr)
    return 3 if isinstance(exc, ComputationCap) else 2


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        parser = build_parser()
        args, extras = parser.parse_known_args(argv)
        if extras:
            # an unknown option after the command is reported with the
            # command's usage; one before it, with the root's
            if argv[0] == args.command:
                parser = _parsers()[1][args.command]
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    # a notice is one line, "warning: <message>", with no path or source line
    # of the file that raised it; library callers keep their own format
    saved_format = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        return args.func(args)
    except (ModscreenError, OSError, ValueError) as exc:
        return _fail(exc)
    finally:
        warnings.formatwarning = saved_format


if __name__ == "__main__":
    sys.exit(main())
