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
from functools import cache
from typing import IO, Iterable

from .curves import curve_genus
from .errors import NonInvertibleGenerator, ParseError
from .points import (Verdict, fiber_degrees, galois_context, rr_screen,
                     semidirect_lower_bound)
from .subgroups import (FullGroup, GeneratedGroup, SubgroupSpec, borel,
                        factorize, lift_subgroup, reduce_subgroup)
from .zmod import (Quad, UnitSubgroup, delta_pm1, euler_phi, is_prime,
                   quad_is_invertible, unit_subgroups_containing_minus_one)


class CatalogEntry:
    """One catalog record; source_line, where it was read, is left out of ==."""

    __slots__ = ("label", "level", "gens", "source_line")

    def __init__(self, label: str, level: int, gens: tuple[Quad, ...],
                 source_line: int = 0):
        self.label = label
        self.level = level
        self.gens = gens
        self.source_line = source_line

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CatalogEntry):
            return NotImplemented
        return (self.label, self.level, self.gens) == \
            (other.label, other.level, other.gens)

    def subgroup(self) -> SubgroupSpec:
        if self.level == 1:
            return FullGroup(1, label=self.label)
        return GeneratedGroup(self.level, self.gens, label=self.label)


def parse_catalog(stream: str | IO[str] | Iterable[str]) -> list[CatalogEntry]:
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


class ScreenRow:
    __slots__ = ("modulus", "delta_order", "genus", "min_fiber_degree",
                 "threshold", "verdict")

    def __init__(self, modulus: int, delta_order: int, genus: int,
                 min_fiber_degree: int, threshold: int, verdict: Verdict):
        self.modulus = modulus
        self.delta_order = delta_order
        self.genus = genus
        self.min_fiber_degree = min_fiber_degree
        self.threshold = threshold
        self.verdict = verdict


class ScreenReport:
    __slots__ = ("label", "ell", "n_max", "rows", "genus_zero_at_ell",
                 "fiber_screen_passed", "verdict")

    def __init__(self, label: str, ell: int, n_max: int,
                 rows: tuple[ScreenRow, ...], genus_zero_at_ell: bool,
                 fiber_screen_passed: bool, verdict: Verdict):
        self.label = label
        self.ell = ell
        self.n_max = n_max
        self.rows = rows
        self.genus_zero_at_ell = genus_zero_at_ell
        self.fiber_screen_passed = fiber_screen_passed
        self.verdict = verdict


def screen_entry(entry: CatalogEntry, n_max: int,
                 ell: int | None = None) -> ScreenReport:
    """Run the two-part isolation screen on one catalog image.

    Per modulus in the tower: the fiber of the most refined curve over the
    image's j-class is decomposed, and its minimum degree must beat
    (delta order / 2) * genus for every intermediate curve (rr_screen).
    Independently, genus zero at the prime itself rules isolation out.
    Either part forcing every case gives the aggregate ForcedP1Parametrized.
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
    if n_max < max(k, 1):
        raise ValueError(f"n_max {n_max} below the entry's exponent {k}")

    rows: list[ScreenRow] = []
    for n in range(max(k, 1), n_max + 1):
        modulus = ell**n
        deltas = intermediate_deltas(modulus)
        if not deltas:
            continue
        ctx = galois_context(lift_subgroup(group, modulus))
        fibers = fiber_degrees(ctx, borel(modulus, delta_pm1(modulus)))
        min_fiber = min(fibers)
        for delta in deltas:
            genus = _borel_genus(modulus, delta)
            r = delta.order // 2
            rows.append(ScreenRow(
                modulus=modulus,
                delta_order=delta.order,
                genus=genus,
                min_fiber_degree=min_fiber,
                threshold=r * genus,
                verdict=rr_screen(min_fiber, r, genus),
            ))

    fiber_ok = all(row.verdict is Verdict.FORCED_P1 for row in rows)
    if entry.level == 1:
        genus_zero = True
    else:
        genus_zero = curve_genus(reduce_subgroup(group, ell)) == 0
    forced = fiber_ok or genus_zero
    return ScreenReport(
        label=entry.label,
        ell=ell,
        n_max=n_max,
        rows=tuple(rows),
        genus_zero_at_ell=genus_zero,
        fiber_screen_passed=fiber_ok,
        verdict=Verdict.FORCED_P1 if forced else Verdict.INCONCLUSIVE,
    )


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
            threshold = (delta.order // 2) * genus
            verdict = Verdict.FORCED_P1 if genus == 0 else Verdict.INCONCLUSIVE
            rows.append((modulus, delta.order, genus, threshold, str(verdict)))
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
            verdict = rr_screen(bound, 1, genus)
            rows.append((ell, delta.order, genus, bound, str(verdict)))
    return Table(
        header=("ell", "delta_order", "genus", "degree_lower_bound", "verdict"),
        rows=tuple(rows),
    )
