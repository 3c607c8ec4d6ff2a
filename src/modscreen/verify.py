"""The `verify-formulae` command: closed forms and hooks against enumeration
and the coset walk. Only that command imports this module, so the brute-force
counts stay off the import path of every other command.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import product
from math import gcd

from .chain import _conjugate
from .curves import (_class_counts, coset_space, curve_genus,
                     genus_from_counts)
from .subgroups import (CartanNormalizer, FullGroup, GeneratedGroup,
                        LiftedGroup, SL2Part, SubgroupSpec, adjoin_minus_i,
                        borel, borel_index, borel_order, closure_quads,
                        contains_minus_i, gl2_order, kernel_generator_quads,
                        level, minus_identity_quad,
                        nonsplit_cartan_normalizer_preimage, preimage_descent,
                        scanned_level, sl2_order, walked_orbit_sizes)
from .zmod import (Quad, _unit_lattice_walk, delta_full, delta_pm1,
                   delta_trivial, divisors, factorize, is_prime, quad_det,
                   quad_is_invertible, unit_group_generators, unit_subgroup,
                   unit_subgroups_containing_minus_one, units)


def _brute_gl2_count(n: int) -> int:
    if n == 1:
        return 1
    return sum(1 for q in product(range(n), repeat=4)
               if gcd(quad_det(n, q), n) == 1)


def _brute_sl2_count(n: int) -> int:
    one = 1 % n
    return sum(1 for q in product(range(n), repeat=4)
               if quad_det(n, q) == one)


def _invertible_matrix(rng: random.Random, n: int) -> Quad:
    c = (0, 0, 0, 0)
    while not quad_is_invertible(n, c):
        c = tuple(rng.randrange(n) for _ in range(4))
    return c


def verify_formulae(top: int) -> list[dict]:
    """One row per check up to modulus top: its name, the computed and the
    expected value, and "ok" or "FAIL"."""
    if top < 1:
        raise ValueError(f"--max-modulus must be >= 1, got {top}")
    rows = []

    def check(name: str, lhs, rhs) -> None:
        rows.append({"check": name, "computed": lhs, "expected": rhs,
                     "status": "ok" if lhs == rhs else "FAIL"})

    def check_chain(kind: str, grp: SubgroupSpec) -> None:
        # the stabilizer chain of the group rebuilt from its generators
        # against the closure: (order, whether -I is inside)
        n, gens = grp.n, grp.generator_quads()
        chain = GeneratedGroup(n, gens)
        closed = closure_quads(n, gens)
        check(f"chain_order({n},{kind})", (chain.order, contains_minus_i(chain)),
              (len(closed), minus_identity_quad(n) in closed))
        # the Schreier generators of the det-1 part generate all of it
        sl2_gens = SL2Part(grp).generator_quads()
        check(f"sl2_gens({n},{kind})", GeneratedGroup(n, sl2_gens).order,
              grp.order // grp.det_image.order)

    def orbit_profile(sizes: list[int]) -> tuple:
        # the orbit of H*1, then each orbit size with its multiplicity
        return sizes[0], tuple(sorted(Counter(sizes).items()))

    def check_orbits(name: str, grp: SubgroupSpec, *extra) -> None:
        # the hook against the coset walk, under GL2, under the image
        # generated by (1 0; 1 1) and (-1 0; 0 1) and under the extra images
        n = grp.n
        images = (FullGroup(n).generator_quads(), ((1, 0, 1, 1), (n - 1, 0, 0, 1)),
                  *extra)
        check(name, [orbit_profile(grp.orbit_sizes(g, whole=True)) for g in images],
              [orbit_profile(walked_orbit_sizes(grp, g)) for g in images])

    def check_lift_scale(kind: str, grp: SubgroupSpec) -> None:
        # the scale [K : K meet H] over the full preimage of a group mod m,
        # a quotient of orders, against the orbit of H*1 under the kernel K
        # of reduction to m, at every divisor m; GL2 mod m is given by its
        # generators, as FullGroup(m) descends to modulus 1 instead
        n = grp.n
        for m in divisors(n):
            full_m = GeneratedGroup(m, FullGroup(m).generator_quads())
            check(f"lift_scale({n},{m},{kind})",
                  preimage_descent(LiftedGroup(full_m, n), grp)[2],
                  grp.orbit_sizes(kernel_generator_quads(n, m), whole=False)[0])

    def check_level(kind: str, grp: SubgroupSpec) -> None:
        # the kind's closed-form level against the kernel-generator scan, for
        # the group and for its full preimage at twice the modulus
        lift = LiftedGroup(grp, 2 * grp.n)
        for name, h in ((kind, grp), (f"lifted_{kind}", lift)):
            check(f"level({h.n},{name})", level(h), scanned_level(h))

    for n in range(1, top + 1):
        check(f"gl2_order({n})", _brute_gl2_count(n), gl2_order(n))
        check(f"sl2_order({n})", _brute_sl2_count(n), sl2_order(n))
        check_level("full", FullGroup(n))
        fac = factorize(n)
        if len(fac) == 1 and fac[0][0] > 2:
            check_level("cartan", CartanNormalizer(*fac[0]))
    for n in range(3, top + 1):
        deltas = {delta_trivial(n), delta_pm1(n), delta_full(n)}
        deltas.update(unit_subgroups_containing_minus_one(n))
        for delta in sorted(deltas, key=lambda d: (d.order, d.elements)):
            grp = borel(n, delta)
            check(f"borel_order({n},{delta.order})",
                  len(grp.element_quads), borel_order(n, delta))
            check(f"borel_lagrange({n},{delta.order})",
                  borel_order(n, delta) * borel_index(n, delta), gl2_order(n))
            pm = adjoin_minus_i(grp)
            check(f"borel_curve({n},{delta.order})",
                  pm.curve_counts(), coset_space(pm).counts)
            # the chain keys of the generated +-B_Delta walk its cosets
            check(f"chain_curve({n},borel{delta.order})",
                  coset_space(GeneratedGroup(n, pm.generator_quads())).counts,
                  pm.curve_counts())
            check_orbits(f"borel_orbits({n},{delta.order})", grp)
            check_chain(f"borel{delta.order}", grp)
            check_lift_scale(f"borel{delta.order}", grp)
            check_level(f"borel{delta.order}", grp)
    # the chain keys of the generated split Cartan C_s(n), the diagonal units,
    # walk its cosets at |A| = |D| = phi(n): C_s(n) meet SL2 is conjugate to
    # Gamma0(n^2) by diag(n, 1)
    for n in range(2, top + 1):
        split = [q for u in unit_group_generators(n)
                 for q in ((u, 0, 0, 1), (1, 0, 0, u))]
        check(f"chain_curve({n},split)",
              coset_space(GeneratedGroup(n, split)).counts,
              borel(n * n, delta_full(n * n)).curve_counts())
    # the Cartan normalizer at every odd prime power up to top
    for n in range(3, top + 1, 2):
        fac = factorize(n)
        if len(fac) > 1:
            continue
        grp = CartanNormalizer(*fac[0])
        check(f"cartan_order({grp.ell},{grp.d})", len(grp.element_quads), grp.order)
        check_chain("cartan", grp)
        # also under N's own generators and a seeded conjugate of them,
        # where the pair walk steps all but one generator once per cycle
        own = grp.generator_quads()
        c = _invertible_matrix(random.Random(n), n)
        check_orbits(f"cartan_orbits({n})", grp, own,
                     tuple(_conjugate(n, c, g) for g in own))
        check_lift_scale("cnspre", nonsplit_cartan_normalizer_preimage(n))

    def curve_groups(n: int) -> list[tuple[str, SubgroupSpec]]:
        # the Borel of every Delta, the Cartan normalizer at an odd prime,
        # and a seeded conjugate of the split Cartan normalizer and of the
        # Borel of a seeded Delta
        rng = random.Random(n)
        deltas = sorted({unit_subgroup(n, [x]) for x in units(n)},
                        key=lambda d: (d.order, d.elements))
        groups = [(f"borel{d.order}", borel(n, d)) for d in deltas]
        if n > 2 and is_prime(n):
            groups.append(("cns", CartanNormalizer(n)))
        c = _invertible_matrix(rng, n)
        split = [(0, 1, 1, 0)]
        for u in unit_group_generators(n):
            split += [(u, 0, 0, 1), (1, 0, 0, u)]
        for base in (split, borel(n, rng.choice(deltas)).generator_quads()):
            groups.append(("generated", GeneratedGroup(
                n, [_conjugate(n, c, g) for g in base])))
        return groups

    # the curve counts at a prime from the permutation character, which read
    # the stabilizer chain of the generators, against the coset walk
    for ell in filter(is_prime, range(2, top + 1)):
        for kind, grp in curve_groups(ell):
            check(f"class_counts({ell},{kind})", _class_counts(grp),
                  coset_space(grp).counts)
    # the genus 0 that curve_genus reads off X(n) at n <= 5, 4 included,
    # against the genus of the walked counts
    for n in range(2, min(5, top) + 1):
        for kind, grp in curve_groups(n):
            walked = coset_space(adjoin_minus_i(grp)).counts
            check(f"small_genus({n},{kind})", curve_genus(grp),
                  genus_from_counts(n, *walked))
    # the subgroups read off the unit group's structure against the walk
    for n in range(3, top + 1):
        if len(factorize(n)) == 1:
            check(f"unit_subgroups({n})",
                  [d.elements for d in unit_subgroups_containing_minus_one(n)],
                  [d.elements for d in _unit_lattice_walk(n)])

    return rows
