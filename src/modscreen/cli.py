"""Command-line front end.

Output is tab-separated by default and line-delimited JSON with --json; both
modes print to standard output only. Exit codes: 0 success, 2 for usage or
parse problems, 3 when a computation hits an enumeration or orbit cap.
screen writes one error line per failed entry, names the entry and goes on;
it exits 3 if an entry hit a cap, else 2 if an entry failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from collections import Counter
from functools import cache
from typing import Sequence

from .catalog import (CatalogEntry, ScreenReport, emit_table1, emit_table2,
                      load_catalog, screen_entry)
from .curves import curve_data, label_prefix, map_degree
from .errors import ComputationCap, ModscreenError
from .points import fiber_degrees, galois_context, level_reduction, point_degree
from .subgroups import (FullGroup, SubgroupSpec, borel, level, lift_subgroup,
                        nested_index, nonsplit_cartan_normalizer,
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
        raise ValueError(f"unknown group spec {spec!r}; expected "
                         "full | borel:N:gens | cns:l:d | cnspre:l:d | file:LABEL")
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


def _emit(args: argparse.Namespace, records: list[dict],
          tsv_header: Sequence[str] | None = None) -> None:
    if args.json:
        for record in records:
            print(json.dumps(record))
        return
    if tsv_header:
        print("\t".join(tsv_header))
    for record in records:
        print("\t".join(str(v) for v in record.values()))


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
    ctx = galois_context(_resolve_group(args.image, args.modulus, args.catalog),
                         d_j=args.dj)
    group = _resolve_group(args.group, args.modulus, args.catalog)
    _emit(args, [{"degree": point_degree(ctx, group)}])
    return 0


def _cmd_fiber_degrees(args) -> int:
    ctx = galois_context(_resolve_group(args.image, args.modulus, args.catalog),
                         d_j=args.dj)
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
    ctx = galois_context(_resolve_group(args.image, args.modulus, args.catalog))
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
    if not args.json:
        print("\t".join(ScreenReport._fields[:-1]))
    status = 0
    for entry in entries:
        # --ell names the prime of the level-1 entries; every other entry
        # is screened at its own level's prime. A bad entry is named and
        # skipped: one image says nothing about the others
        try:
            report = screen_entry(entry, args.nmax,
                                  ell=args.ell if entry.level == 1 else None)
        except (ModscreenError, ValueError) as exc:
            status = max(status, _fail(exc, f"{entry.label}: "))
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


def _cmd_verify_formulae(args) -> int:
    # imported here, so that the brute-force checks stay off the import path
    from .verify import verify_formulae
    return verify_formulae(args)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="modscreen",
        description="Subgroup arithmetic, curve invariants, and isolation "
                    "screens for matrix groups over Z/NZ.")
    sub = parser.add_subparsers(dest="command", required=True)

    def option(*args, **kwargs) -> argparse.ArgumentParser:
        # one option as a parent parser: each command lists the ones it reads
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument(*args, **kwargs)
        return p

    group_help = "full | borel:N:gens | cns:l:d | cnspre:l:d | file:LABEL"
    json_opt = option("--json", action="store_true",
                      help="emit line-delimited JSON instead of TSV")
    catalog = option("--catalog", default=None,
                     help="catalog file backing file:LABEL group specs")
    groups = (option("--modulus", type=int, default=None,
                     help="lift or reduce the group(s) to this modulus"),
              catalog, option("--group", required=True, help=group_help))
    image = option("--image", required=True,
                   help="Galois image subgroup: " + group_help)
    dj = option("--dj", type=int, default=1,
                help="degree of the j-coordinate field")

    def add(name, func, help_text, *parents):
        p = sub.add_parser(name, parents=[json_opt, *parents], help=help_text)
        p.set_defaults(func=func)
        return p

    add("order", _cmd_order, "order of a subgroup", *groups)
    add("index", _cmd_index, "index of a subgroup in the full matrix group",
        *groups)
    add("level", _cmd_level, "least modulus the subgroup is pulled back from",
        *groups)
    add("genus", _cmd_genus, "curve invariants of a subgroup", *groups)
    add("label", _cmd_label, "level.index.genus label with a content hash",
        *groups)
    p = add("map-degree", _cmd_map_degree,
            "degree of the covering between two curves", *groups)
    p.add_argument("--target", required=True, help="codomain subgroup: " + group_help)
    add("point-degree", _cmd_point_degree,
        "degree of the distinguished point over the image's j-class",
        *groups, image, dj)
    add("fiber-degrees", _cmd_fiber_degrees,
        "degrees of all points over the image's j-class", *groups, image, dj)
    p = add("reduce-level", _cmd_reduce_level,
            "degree identity along a reduction of level", *groups, image)
    p.add_argument("--m", type=int, required=True,
                   help="target exponent of the prime-power modulus")
    p = add("screen", _cmd_screen, "run the isolation screen over a catalog",
            catalog)
    p.add_argument("--label", default=None, help="screen a single entry")
    p.add_argument("--nmax", type=int, default=None,
                   help="top exponent of the tower (default: per-prime table)")
    p.add_argument("--ell", type=int, default=None,
                   help="prime for level-1 entries")
    add("table1", lambda a: _cmd_table(a, emit_table1()),
        "genus/threshold table at 25, 27, 32")
    add("table2", lambda a: _cmd_table(a, emit_table2()),
        "genus/degree-floor table at the prime squared")
    p = add("verify-formulae", _cmd_verify_formulae,
            "cross-check closed-form orders against enumeration")
    p.add_argument("--max-modulus", type=int, default=12)
    return parser


def _fail(exc: Exception, where: str = "") -> int:
    """Write exc's one error line; its exit code is 3 for a cap, else 2."""
    print(f"error: {where}{exc}", file=sys.stderr)
    return 3 if isinstance(exc, ComputationCap) else 2


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
