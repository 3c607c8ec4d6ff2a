"""Seeded inputs for the three benchmark workloads.

``build(workload, seed, workdir)`` returns the list of CLI operations one pass
runs, each with the facts the oracle needs to check its output. Catalogs that
the operations read are written into ``workdir`` with ``serialize_catalog``
and round-tripped through ``parse_catalog`` before use.

The seed chooses the conjugating matrices, the generator each unit subgroup
is written with and the catalog order. It never changes which moduli, group
kinds or how many operations a pass runs, so every seed asks for the same
amount of work (the traced counts agree exactly across seeds).

The synthetic screen catalog is built here from the package's own Borel,
Cartan and lifted constructors. It is NOT the external 132-image catalog of
acceptance criterion 7 and stands in for nothing in it.

Expected values are not computed here: unit-subgroup orders and generators
come from plain integer arithmetic below, and oracle.py derives every
expected output from them without importing the package.
"""

from __future__ import annotations

import os
import random
from math import gcd

from modscreen.catalog import CatalogEntry, parse_catalog, serialize_catalog
from modscreen.subgroups import (CartanNormalizer, LiftedGroup, borel,
                                 nonsplit_cartan_normalizer_preimage)
from modscreen.zmod import quad_inv, quad_mul, unit_subgroup
from oracle import phi, prime_power, unit_closure

# the screen command's default tower tops (cli.DEFAULT_SCREEN_EXPONENT, 2 else)
SCREEN_TOWER = {2: 5, 3: 3, 5: 2, 7: 2}

FULL = {
    "genus_levels": (125, 243, 256, 343, 625),
    "fiber_levels": (121, 125, 128, 169),
    # one conjugate twin per kind of image keeps the pass short
    "point_twin_level": 121,
    "cartan_target": (5, 3),
    # screen entries live at every level up to the tower top
    "screen_top_level": SCREEN_TOWER,
    # largest order of a lifted screen entry; each entry pays its closure
    "lift_order_limit": 30_000,
}

# for the benchmark's own tests
TINY = {
    "genus_levels": (25, 27),
    "fiber_levels": (9, 16, 25),
    "point_twin_level": 9,
    "cartan_target": (3, 2),
    "screen_top_level": {3: 1, 5: 1},
    "lift_order_limit": 2_000,
}


def _primitive_root(n: int) -> int:
    target = phi(n)
    return next(g for g in range(2, n) if gcd(g, n) == 1
                and len(unit_closure(n, (g,))) == target)


def deltas_with_minus_one(n: int, rng: random.Random) -> list[tuple[int, list[int]]]:
    """Every unit subgroup mod the prime power n that contains -1.

    Returned as (order, generators) in ascending order. The generator of each
    cyclic factor is a seeded choice among the generators of that subgroup.
    """
    p, e = prime_power(n)
    out = []
    if p == 2 and e >= 3:
        # units = <-1> x <5>, with 5 of order 2^(e-2)
        c = 2 ** (e - 2)
        for k in (2 ** i for i in range(e - 1)):
            x = pow(5, c // k * rng.randrange(1, k + 1, 2), n)
            out.append((2 * k, [n - 1] + ([x] if k > 1 else [])))
        return out
    if p == 2:
        return [(phi(n), [n - 1])]
    g = _primitive_root(n)
    f = phi(n)
    for k in range(2, f + 1, 2):
        if f % k:
            continue
        j = rng.choice([j for j in range(1, k) if gcd(j, k) == 1])
        out.append((k, [pow(g, f // k * j, n)]))
    return out


def _random_unit_matrix(n: int, rng: random.Random) -> tuple[int, int, int, int]:
    while True:
        q = tuple(rng.randrange(n) for _ in range(4))
        if gcd((q[0] * q[3] - q[1] * q[2]) % n, n) == 1:
            return q


def _conjugate(n: int, gens, rng: random.Random):
    g = _random_unit_matrix(n, rng)
    gi = quad_inv(n, g)
    return tuple(quad_mul(n, quad_mul(n, g, h), gi) for h in gens)


def _write_catalog(workdir: str, name: str, entries: list[CatalogEntry]) -> str:
    text = serialize_catalog(entries)
    if parse_catalog(text) != entries:
        raise RuntimeError(f"catalog {name} does not survive a round trip")
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# synthetic benchmark catalog; not the criterion-7 data\n")
        fh.write(text)
    with open(path, encoding="utf-8") as fh:
        if parse_catalog(fh) != entries:
            raise RuntimeError(f"catalog {path} does not parse back")
    return path


def _gens_text(gens: list[int]) -> str:
    return ",".join(str(g) for g in gens)


def _op(name: str, argv: list[str], **check) -> dict:
    return {"name": name, "argv": argv, "check": check}


# workloads

def _genus_deep(rng: random.Random, levels) -> list[dict]:
    ops = [_op("table1", ["table1"], kind="table1"),
           _op("table2", ["table2"], kind="table2")]
    for n in levels:
        ops.append(_op(f"genus.{n}.gamma1", ["genus", "--group", f"borel:{n}:"],
                       kind="genus_gamma1", n=n))
        for order, gens in deltas_with_minus_one(n, rng):
            if 2 < order < phi(n):
                ops.append(_op(
                    f"genus.{n}.{order}",
                    ["genus", "--group", f"borel:{n}:{_gens_text(gens)}"],
                    kind="genus_borel", n=n, order=order))
    return ops


def _fiber_deep(rng: random.Random, workdir: str, levels, twin_level,
                cartan) -> list[dict]:
    ell, d = cartan
    cn = ell**d
    catalog = [
        CatalogEntry(f"cns.{twin_level}.conj", twin_level, _conjugate(
            twin_level, CartanNormalizer(*prime_power(twin_level)).generator_quads(), rng)),
        CatalogEntry(f"cns.{cn}.conj.cartan", cn, _conjugate(
            cn, CartanNormalizer(ell, d).generator_quads(), rng)),
    ]
    path = _write_catalog(workdir, "fiber_images.jsonl", catalog)

    ops = []
    for n in levels:
        p, e = prime_power(n)
        ops.append(_op(f"fiber.{n}.full",
                       ["fiber-degrees", "--image", "full", "--modulus", str(n),
                        "--group", f"borel:{n}:{n - 1}"],
                       kind="fiber_full", n=n))
        if p > 2:
            ops.append(_op(f"point.{n}.cns",
                           ["point-degree", "--image", f"cns:{p}:{e}",
                            "--group", f"borel:{n}:"],
                           kind="point_cns", ell=p, d=e))
            if n == twin_level:
                ops.append(_op(f"point.{n}.cns.conj",
                               ["point-degree", "--image", f"file:cns.{n}.conj",
                                "--catalog", path, "--group", f"borel:{n}:"],
                               kind="twin", twin=f"point.{n}.cns"))
            image = ["--image", f"cnspre:{p}:{e}"]
            m = 1
        else:
            # the Cartan construction needs an odd prime: lift a Borel image
            # of level 8, whose reduce-level hypothesis needs m >= 3
            order8, gens8 = deltas_with_minus_one(8, rng)[1]
            image = ["--image", f"borel:8:{_gens_text(gens8)}",
                     "--modulus", str(n)]
            m = 3
        # the second-smallest Delta: the seed picks only how it is written,
        # so every seed walks the same orbits
        order, gens = deltas_with_minus_one(n, rng)[1]
        ops.append(_op(f"reduce.{n}",
                       ["reduce-level", *image, "--group",
                        f"borel:{n}:{_gens_text(gens)}", "--m", str(m)],
                       kind="reduce_level", n=n, m=m, gens=gens))
    ops.append(_op(f"fiber.{cn}.cartan",
                   ["fiber-degrees", "--image", f"cns:{ell}:{d}",
                    "--group", f"cns:{ell}:{d}"],
                   kind="fiber_cartan", ell=ell, d=d))
    ops.append(_op(f"fiber.{cn}.cartan.conj",
                   ["fiber-degrees", "--image", f"file:cns.{cn}.conj.cartan",
                    "--catalog", path, "--group", f"cns:{ell}:{d}"],
                   kind="twin", twin=f"fiber.{cn}.cartan", also="fiber_cartan",
                   ell=ell, d=d))
    return ops


def _screen_groups(rng: random.Random, top_level, lift_limit):
    """(label, group) for every base entry: Borel, Cartan, preimage, lifted."""
    out = []
    for p, top in top_level.items():
        for k in range(1, top + 1):
            n = p**k
            for order, gens in deltas_with_minus_one(n, rng):
                group = borel(n, unit_subgroup(n, gens))
                out.append((f"B.{n}.{order}", group))
                if k < SCREEN_TOWER[p] and group.order * p**4 <= lift_limit:
                    out.append((f"L.B.{n}.{order}.{n * p}",
                                LiftedGroup(group, n * p)))
            if p > 2:
                cns = CartanNormalizer(p, k)
                out.append((f"N.{n}", cns))
                if 1 < k < SCREEN_TOWER[p] and cns.order * p**4 <= lift_limit:
                    out.append((f"L.N.{n}.{n * p}", LiftedGroup(cns, n * p)))
        if p > 2:
            pre = nonsplit_cartan_normalizer_preimage(p * p)
            if pre.order <= lift_limit:
                out.append((f"P.{p * p}", pre))
    return out


def _screen(rng: random.Random, workdir: str, top_level, lift_limit) -> list[dict]:
    entries = []
    twins = []
    for label, group in _screen_groups(rng, top_level, lift_limit):
        n = group.n
        gens = group.generator_quads()
        entries.append(CatalogEntry(label, n, gens))
        entries.append(CatalogEntry(f"{label}.conj", n, _conjugate(n, gens, rng)))
        twins.append((f"{label}.conj", label))
    rng.shuffle(entries)
    path = _write_catalog(workdir, "screen.jsonl", entries)
    return [_op("screen", ["screen", "--catalog", path, "--json"],
                kind="screen", entries=len(entries), twins=twins,
                levels={e.label: e.level for e in entries},
                tower={str(p): SCREEN_TOWER[p] for p in top_level})]


def build(workload: str, seed: int, workdir: str, tiny: bool = False) -> list[dict]:
    """Operations for one pass; each is {"name", "argv", "check"}."""
    rng = random.Random(f"{workload}:{seed}")
    size = TINY if tiny else FULL
    if workload == "genus_deep":
        return _genus_deep(rng, size["genus_levels"])
    if workload == "fiber_deep":
        return _fiber_deep(rng, workdir, size["fiber_levels"],
                           size["point_twin_level"], size["cartan_target"])
    if workload == "screen":
        return _screen(rng, workdir, size["screen_top_level"],
                       size["lift_order_limit"])
    raise ValueError(f"unknown workload {workload!r}")
