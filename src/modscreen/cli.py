"""Command-line front end.

Output is tab-separated by default and line-delimited JSON with --json; both
modes print to standard output only. Exit codes: 0 success, 2 for usage or
parse problems, 3 when a computation hits an enumeration or orbit cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from functools import cache
from typing import Sequence

from .catalog import (CatalogEntry, emit_table1, emit_table2, load_catalog,
                      screen_entry)
from .curves import curve_data, label_prefix, map_degree
from .errors import CatalogError, ComputationCap, ModscreenError
from .points import fiber_degrees, galois_context, level_reduction, point_degree
from .subgroups import (FullGroup, SubgroupSpec, borel, factorize, gl2_order,
                        level, lift_subgroup, nonsplit_cartan_normalizer,
                        nonsplit_cartan_normalizer_preimage, reduce_subgroup)
from .zmod import delta_full, delta_trivial, is_prime, unit_subgroup

# screening exponents mirroring the prime-power tower tops used in the source
# data set; other primes default to the square
DEFAULT_SCREEN_EXPONENT = {2: 5, 3: 3, 5: 2}


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
    ambient = gl2_order(group.n)
    _emit(args, [{"index": ambient // group.order}])
    return 0


def _cmd_level(args) -> int:
    group = _resolve_group(args.group, args.modulus, args.catalog)
    _emit(args, [{"level": level(group)}])
    return 0


def _cmd_genus(args) -> int:
    group = _resolve_group(args.group, args.modulus, args.catalog)
    data = curve_data(group)
    _emit(args, [{
        "mu": data.mu, "nu2": data.nu2, "nu3": data.nu3,
        "nu_inf": data.nu_inf, "genus": data.genus,
        "label_prefix": data.label_prefix,
    }], tsv_header=("mu", "nu2", "nu3", "nu_inf", "genus", "label_prefix"))
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
    _emit(args, [{
        "lhs": result.lhs, "rhs": result.rhs, "equal": result.equal,
        "hypothesis_holds": result.hypothesis_holds,
    }], tsv_header=("lhs", "rhs", "equal", "hypothesis_holds"))
    return 0


def _cmd_screen(args) -> int:
    if args.catalog is None:
        raise ValueError("screen needs --catalog")
    entries = load_catalog(args.catalog)
    if args.label is not None:
        entries = [e for e in entries if e.label == args.label]
        if not entries:
            raise ValueError(f"no catalog entry labeled {args.label!r}")
    records = []
    for entry in entries:
        if entry.level > 1:
            ell, k = factorize(entry.level)[0]
        else:
            ell, k = args.ell, 0
        n_max = args.nmax
        if n_max is None:
            n_max = max(k, DEFAULT_SCREEN_EXPONENT.get(ell or 0, 2))
        # --ell names the prime of the level-1 entries; every other entry
        # is screened at its own level's prime
        report = screen_entry(entry, n_max, ell=ell)
        record = {
            "label": report.label, "ell": report.ell, "n_max": report.n_max,
            "fiber_screen_passed": report.fiber_screen_passed,
            "genus_zero_at_ell": report.genus_zero_at_ell,
            "verdict": str(report.verdict),
        }
        if args.json:
            record["rows"] = [{
                "modulus": r.modulus, "delta_order": r.delta_order,
                "genus": r.genus, "min_fiber_degree": r.min_fiber_degree,
                "threshold": r.threshold, "verdict": str(r.verdict),
            } for r in report.rows]
        records.append(record)
    _emit(args, records, tsv_header=("label", "ell", "n_max",
                                     "fiber_screen_passed",
                                     "genus_zero_at_ell", "verdict"))
    return 0


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

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit line-delimited JSON instead of TSV")
    common.add_argument("--modulus", type=int, default=None,
                        help="lift or reduce the group(s) to this modulus")
    common.add_argument("--catalog", default=None,
                        help="catalog file backing file:LABEL group specs")

    group_help = "full | borel:N:gens | cns:l:d | cnspre:l:d | file:LABEL"

    def add(name, func, help_text, *, needs_group=True, needs_image=False):
        p = sub.add_parser(name, parents=[common], help=help_text)
        if needs_group:
            p.add_argument("--group", required=True, help=group_help)
        if needs_image:
            p.add_argument("--image", required=True,
                           help="Galois image subgroup: " + group_help)
            p.add_argument("--dj", type=int, default=1,
                           help="degree of the j-coordinate field")
        p.set_defaults(func=func)
        return p

    add("order", _cmd_order, "order of a subgroup")
    add("index", _cmd_index, "index of a subgroup in the full matrix group")
    add("level", _cmd_level, "least modulus the subgroup is pulled back from")
    add("genus", _cmd_genus, "curve invariants of a subgroup")
    add("label", _cmd_label, "level.index.genus label with a content hash")
    p = add("map-degree", _cmd_map_degree, "degree of the covering between two curves")
    p.add_argument("--target", required=True, help="codomain subgroup: " + group_help)
    add("point-degree", _cmd_point_degree,
        "degree of the distinguished point over the image's j-class",
        needs_image=True)
    add("fiber-degrees", _cmd_fiber_degrees,
        "degrees of all points over the image's j-class", needs_image=True)
    p = add("reduce-level", _cmd_reduce_level,
            "degree identity along a reduction of level", needs_image=True)
    p.add_argument("--m", type=int, required=True,
                   help="target exponent of the prime-power modulus")
    p = sub.add_parser("screen", parents=[common],
                       help="run the isolation screen over a catalog")
    p.add_argument("--label", default=None, help="screen a single entry")
    p.add_argument("--nmax", type=int, default=None,
                   help="top exponent of the tower (default: per-prime table)")
    p.add_argument("--ell", type=int, default=None,
                   help="prime for level-1 entries")
    p.set_defaults(func=_cmd_screen)
    p = sub.add_parser("table1", parents=[common],
                       help="genus/threshold table at 25, 27, 32")
    p.set_defaults(func=lambda a: _cmd_table(a, emit_table1()))
    p = sub.add_parser("table2", parents=[common],
                       help="genus/degree-floor table at the prime squared")
    p.set_defaults(func=lambda a: _cmd_table(a, emit_table2()))
    p = sub.add_parser("verify-formulae", parents=[common],
                       help="cross-check closed-form orders against enumeration")
    p.add_argument("--max-modulus", type=int, default=12)
    p.set_defaults(func=_cmd_verify_formulae)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ComputationCap as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CatalogError, ModscreenError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
