"""Catalog ingestion and the isolation screen over families of Galois images.

A catalog is line-delimited JSON, one record per line with keys label, level,
and gens (rows of four integers); '#' lines are comments. Each record is the
mod-level image of some Galois representation. The screen lifts an image up a
prime-power tower, decomposes the fiber of the tower's most refined curve
over the image's j-class, and compares the smallest point degree against the
genus thresholds of every intermediate curve; a separate genus-zero test at
the prime itself catches the images the fiber comparison misses.
"""

from __future__ import annotations

import io
import json
from collections import namedtuple
from collections.abc import Iterable
from functools import cache

from .curves import curve_genus
from .errors import NonInvertibleGenerator, ParseError
from .points import (GaloisImageContext, Verdict, fiber_degrees, rr_screen,
                     semidirect_lower_bound)
from .subgroups import (BorelGroup, FullGroup, GeneratedGroup, SubgroupSpec,
                        _check_unit_count, borel, factorize, lift_subgroup,
                        nested_index, reduce_subgroup)
from .zmod import (Quad, UnitSubgroup, delta_pm1, euler_phi, is_prime,
                   quad_is_invertible, unit_subgroups_containing_minus_one)


class CatalogEntry:
    """One immutable catalog record; source_line, where it was read, is left
    out of == and of the hash."""

    __slots__ = ("label", "level", "gens", "source_line")

    def __init__(self, label: str, level: int, gens: tuple[Quad, ...],
                 source_line: int = 0):
        object.__setattr__(self, "label", label)  # past the refusing __setattr__
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "source_line", source_line)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CatalogEntry):
            return NotImplemented
        return (self.label, self.level, self.gens) == \
            (other.label, other.level, other.gens)

    def __hash__(self) -> int:
        return hash((self.label, self.level, self.gens))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"CatalogEntry is immutable: {name!r} stays as parsed")

    __delattr__ = __setattr__

    def subgroup(self) -> SubgroupSpec:
        if self.level == 1:
            return FullGroup(1)
        return GeneratedGroup(self.level, self.gens)


def parse_catalog(stream: str | Iterable[str]) -> list[CatalogEntry]:
    """Parse line-delimited records; blank lines and '#' comments are skipped.

    A string is split into lines as a file is read (at \\n, \\r and \\r\\n), so
    a record's line number does not depend on how the catalog arrives.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream, newline=None)
    entries: list[CatalogEntry] = []
    labels: set[str] = set()
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # a JSONDecodeError, an integer past the digit limit, deep nesting
            msg = getattr(exc, "msg", exc)
            raise ParseError(f"bad record: {msg}", lineno) from None
        entry = _validate_record(obj, lineno)
        if entry.label in labels:
            raise ParseError(f"duplicate label {entry.label!r}", lineno)
        labels.add(entry.label)
        entries.append(entry)
    return entries


def _validate_record(obj: object, lineno: int) -> CatalogEntry:
    if not isinstance(obj, dict):
        raise ParseError("record is not an object", lineno)
    for key in ("label", "level", "gens"):
        if key not in obj:
            raise ParseError(f"missing key {key!r}", lineno)
    label = obj["label"]
    if not isinstance(label, str) or not label:
        raise ParseError("label must be nonempty text", lineno)
    level = obj["level"]
    if isinstance(level, bool) or not isinstance(level, int) or level < 1:
        raise ParseError("level must be a positive integer", lineno)
    raw_gens = obj["gens"]
    if not isinstance(raw_gens, list):
        raise ParseError("gens must be a list of 4-integer rows", lineno)
    gens: list[Quad] = []
    for row_index, row in enumerate(raw_gens):
        if (not isinstance(row, list) or len(row) != 4
                or any(isinstance(v, bool) or not isinstance(v, int) for v in row)):
            raise ParseError(f"gens[{row_index}] must be four integers", lineno)
        quad = tuple(v % level for v in row)
        if not quad_is_invertible(level, quad):
            raise NonInvertibleGenerator(label, row_index)
        gens.append(quad)
    return CatalogEntry(label=label, level=level, gens=tuple(gens),
                        source_line=lineno)


def load_catalog(path: str) -> list[CatalogEntry]:
    with open(path, encoding="utf-8") as fh:
        return parse_catalog(fh)


def serialize_catalog(entries: Iterable[CatalogEntry]) -> str:
    """Canonical text form; parsing it back yields an equal catalog."""
    lines = []
    for e in entries:
        record = {"label": e.label, "level": e.level,
                  "gens": [list(g) for g in e.gens]}
        lines.append(json.dumps(record, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")


@cache
def intermediate_deltas(n: int) -> tuple[UnitSubgroup, ...]:
    """Unit subgroups strictly between the +-1 pair and the full unit group.

    Cached per modulus: screen asks again for every entry at every level.
    """
    if n < 3:
        return ()
    phi = euler_phi(n)
    return tuple(d for d in unit_subgroups_containing_minus_one(n)
                 if 2 < d.order < phi)


@cache
def _borel_genus(n: int, delta: UnitSubgroup) -> int:
    return curve_genus(borel(n, delta))


@cache
def _structure_group(n: int) -> BorelGroup:
    """B_{+-1}(n), whose cosets carry the fiber the screen decomposes."""
    return borel(n, delta_pm1(n))


@cache
def _tower_scale(b: int, n: int) -> int:
    """[K : K meet H], K the kernel of reduction from n to b and H the
    structure group at n: over a full preimage at n the fiber is the fiber
    at b with every degree this many times larger (preimage_descent)."""
    return nested_index(lift_subgroup(_structure_group(b), n),
                        _structure_group(n))


ScreenRow = namedtuple(
    "ScreenRow", "modulus delta_order genus min_fiber_degree threshold verdict")
ScreenRow.__doc__ = """The columns of one row under `screen --json`: one
intermediate curve of the tower against the fiber's least degree."""

ScreenReport = namedtuple("ScreenReport", "label ell n_max fiber_screen_passed "
                          "genus_zero_at_ell verdict rows")
ScreenReport.__doc__ = """The columns of `screen`, one line per entry; rows,
the tower's ScreenRows, are printed only under --json."""


# tower tops mirroring the prime-power towers of the source data set; other
# primes default to the square
DEFAULT_SCREEN_EXPONENT = {2: 5, 3: 3, 5: 2}


def screen_entry(entry: CatalogEntry, n_max: int | None = None,
                 ell: int | None = None) -> ScreenReport:
    """Run the two-part isolation screen on one catalog image.

    Per modulus in the tower: the fiber of the most refined curve over the
    image's j-class is decomposed, and its minimum degree must beat
    (delta order / 2) * genus for every intermediate curve (rr_screen).
    Independently, genus zero at the prime itself rules isolation out.
    Either part forcing every case gives the aggregate ForcedP1Parametrized.

    The tower is l^n for max(k, 1) <= n <= n_max, l^k the entry's level.
    Without n_max its top is max(k, DEFAULT_SCREEN_EXPONENT.get(l, 2)), taken
    once l and k are checked. ell names the prime of a level-1 entry; any
    other entry is screened at its own level's prime, which ell must match.

    The fiber is walked once, at the first level b of the tower with
    intermediate curves: the image at every later l^n is the full preimage
    of the image at b, so its least degree is the one at b times
    [K : K meet H] (_tower_scale). A level-1 entry is all of GL2 at every
    level and takes the same path.

    The genus-zero part runs first: at l <= 5 the curve has genus 0 whenever
    the determinant mod l is all of (Z/lZ)^x (curve_genus), at any other l
    its counts come from the class counts, and either way an image whose
    determinant mod l is not full is refused (NotFullDeterminant) before any
    fiber is built. At the entry's own level the determinant need not be full.

    Before any of that, TooLarge when the units mod the tower's top l^n_max
    pass ENUMERATION_CAP: the intermediate curves are read off the unit
    subgroups at every level of the tower.
    """
    group = entry.subgroup()
    if entry.level == 1:
        if ell is None or not is_prime(ell):
            raise ValueError(f"a level-1 entry needs a prime ell, got {ell}")
        k = 0
    else:
        fac = factorize(entry.level)
        if len(fac) != 1:
            raise ValueError(f"level {entry.level} is not a prime power")
        level_ell, k = fac[0]
        if ell is not None and ell != level_ell:
            raise ValueError(f"entry lives at {level_ell}, not {ell}")
        ell = level_ell
    if n_max is None:
        n_max = max(k, DEFAULT_SCREEN_EXPONENT.get(ell, 2))
    if n_max < max(k, 1):
        raise ValueError(f"n_max {n_max} below the entry's exponent {k}")
    _check_unit_count(ell**n_max)
    genus_zero = (entry.level == 1
                  or curve_genus(reduce_subgroup(group, ell)) == 0)

    tower = [m for m in (ell**n for n in range(max(k, 1), n_max + 1))
             if intermediate_deltas(m)]
    rows: list[ScreenRow] = []
    if tower:
        b = tower[0]
        ctx = GaloisImageContext(lift_subgroup(group, b))
        least = min(fiber_degrees(ctx, _structure_group(b)))
    for modulus in tower:
        min_fiber = least * _tower_scale(b, modulus)
        for delta in intermediate_deltas(modulus):
            genus = _borel_genus(modulus, delta)
            r = delta.order // 2
            rows.append(ScreenRow(modulus, delta.order, genus, min_fiber,
                                  r * genus, rr_screen(min_fiber, r, genus)))

    fiber_ok = all(row.verdict is Verdict.FORCED_P1 for row in rows)
    verdict = (Verdict.FORCED_P1 if fiber_ok or genus_zero
               else Verdict.INCONCLUSIVE)
    return ScreenReport(entry.label, ell, n_max, fiber_ok, genus_zero,
                        verdict, tuple(rows))


class Table:
    __slots__ = ("header", "rows")

    def __init__(self, header: tuple[str, ...], rows: tuple[tuple, ...]):
        self.header = header
        self.rows = rows

    def to_records(self) -> list[dict]:
        return [dict(zip(self.header, row)) for row in self.rows]


def emit_table1() -> Table:
    """Genus and screen threshold of every intermediate curve at 25, 27, 32."""
    rows = []
    for modulus in (25, 27, 32):
        for delta in intermediate_deltas(modulus):
            genus = _borel_genus(modulus, delta)
            r = delta.order // 2
            # the least degree, 1, is forced exactly at genus 0
            rows.append((modulus, delta.order, genus, r * genus,
                         rr_screen(1, r, genus)))
    return Table(
        header=("modulus", "delta_order", "genus", "threshold", "verdict"),
        rows=tuple(rows),
    )


def emit_table2() -> Table:
    """Genus versus the degree floor at the prime squared, for primes 5 to 13."""
    rows = []
    for ell in (5, 7, 11, 13):
        modulus = ell * ell
        for delta in intermediate_deltas(modulus):
            genus = _borel_genus(modulus, delta)
            bound = semidirect_lower_bound(ell, delta.order)
            rows.append((ell, delta.order, genus, bound, rr_screen(bound, 1, genus)))
    return Table(
        header=("ell", "delta_order", "genus", "degree_lower_bound", "verdict"),
        rows=tuple(rows),
    )
