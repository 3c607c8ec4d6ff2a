"""Borel orbit sizes from the line orbits in P^1, against the coset walk.

BorelGroup.orbit_sizes (and LiftedGroup's, which hands it the reduced
generators) never walks a coset. Its orbit sizes are checked against the
components of coset_action's permutations: the sorted sizes, and the size of
the orbit of H*1, which comes first. The cases cover every Delta at small
moduli (the trivial one and those without -1 included), moduli up to 40 with
composite ones, generator lists with det != 1, repeats and the identity, and
lifted Borel groups. The descent to a lifted image's level is checked on
random generated bases against the walk at the image's own modulus.
"""

import random
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from modscreen.points import (fiber_degrees, galois_context,  # noqa: E402
                              walked_orbit_sizes)
from modscreen.subgroups import (FullGroup, GeneratedGroup,  # noqa: E402
                                 LiftedGroup, borel, coset_action, divisors,
                                 index_via_orbit, orbit_size, preimage_descent)
from modscreen.zmod import (_extend_subgroup, quad_inv,  # noqa: E402
                            quad_mul, unit_subgroup, units)

import _helpers  # noqa: E402

PROPERTY = settings(deadline=None, derandomize=True, database=None)


def walked_sizes(h, gens):
    """(sorted orbit sizes, size of the orbit of H*1) from the coset walk:
    gens then the ambient generators reach every coset, and the orbits are
    the classes of the equivalence that gens' permutations generate."""
    gens = tuple(gens)
    walk = gens + FullGroup(h.n).generator_quads()
    reps, perms = coset_action(h, walk)
    root = list(range(len(reps)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for perm in perms[:len(gens)]:
        for i, j in enumerate(perm):
            root[find(i)] = find(j)
    sizes = {}
    for i in range(len(reps)):
        sizes[find(i)] = sizes.get(find(i), 0) + 1
    return sorted(sizes.values()), sizes[find(0)]


def hook_sizes(h, gens):
    sizes = h.orbit_sizes(gens, whole=True)
    assert h.orbit_sizes(gens, whole=False) == sizes[:1]
    return sorted(sizes), sizes[0]


def every_delta(n):
    """Every subgroup of (Z/n)^x, by adjoining one unit at a time from {1}."""
    found = {frozenset({1 % n})}
    frontier = list(found)
    while frontier:
        new = []
        for sub in frontier:
            for u in units(n):
                bigger = _extend_subgroup(n, sub, u)
                if bigger not in found:
                    found.add(bigger)
                    new.append(bigger)
        frontier = new
    return [unit_subgroup(n, sub) for sub in sorted(found, key=sorted)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 20, 24])
def test_every_delta_matches_the_walk(n):
    rng = random.Random(n)
    for delta in every_delta(n):
        b = borel(n, delta)
        for gens in (FullGroup(n).generator_quads(), b.generator_quads(),
                     _helpers.generator_list(rng, n, 2), ()):
            assert hook_sizes(b, gens) == walked_sizes(b, gens), (n, delta, gens)


@st.composite
def borel_cases(draw, max_n):
    """(H, gens): a Borel group, or the full preimage of one at a divisor,
    and up to three invertible generators with a repeat and the identity."""
    n = draw(st.integers(1, max_n))
    m = draw(st.sampled_from(divisors(n)))
    pool = units(m)
    delta = unit_subgroup(m, draw(st.lists(st.sampled_from(pool), max_size=2)))
    h = borel(m, delta)
    if m < n:
        h = LiftedGroup(h, n)
    rng = random.Random(draw(st.integers(0, 2**32)))
    return h, _helpers.generator_list(rng, n, draw(st.integers(0, 3)))


@settings(PROPERTY, max_examples=120)
@given(borel_cases(40))
def test_borel_orbits_match_the_walk(case):
    h, gens = case
    assert hook_sizes(h, gens) == walked_sizes(h, gens)


@pytest.mark.parametrize("n", [49, 64, 81])
def test_deep_borel_orbits_match_the_walk(n):
    rng = random.Random(n)
    for delta in (unit_subgroup(n, [n - 1]), unit_subgroup(n, units(n))):
        b = borel(n, delta)
        for gens in (b.generator_quads(), _helpers.generator_list(rng, n, 2)):
            assert hook_sizes(b, gens) == walked_sizes(b, gens), (n, delta.order)


@st.composite
def generated_lifts(draw):
    """(R, H): R the full preimage at n of a group generated by one to three
    random quads at a proper divisor m, H a Borel group at n or a generated
    group conjugate to one, so that its cosets are walked."""
    n = draw(st.sampled_from([4, 6, 8, 9, 10, 12, 16, 18, 25, 27]))
    m = draw(st.sampled_from(divisors(n)[1:-1]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    base = GeneratedGroup(m, _helpers.generator_list(rng, m, rng.randint(1, 3))[:-2])
    b = borel(n, _helpers.random_delta(rng, n, minus_one=rng.random() < 0.5))
    if draw(st.booleans()):
        g = (1, 1, 1, 2)  # det 1: conjugate B by it
        b = GeneratedGroup(n, [quad_mul(n, quad_mul(n, quad_inv(n, g), q), g)
                              for q in b.generator_quads()])
    return LiftedGroup(base, n), b


@settings(PROPERTY, max_examples=40)
@given(generated_lifts())
def test_descent_matches_the_reference_on_generated_bases(case):
    r, h = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ctx = galois_context(r)
        assert preimage_descent(r, h)[0] is r.base
        assert fiber_degrees(ctx, h) == _helpers.reference_fiber_degrees(ctx, h)
    assert index_via_orbit(r, h) == _helpers.reference_index(r, h)


def test_a_walked_kind_falls_back_to_the_walk():
    # no hook: the orbit sizes are the coset walk's
    b = borel(9, unit_subgroup(9, [8]))
    g = GeneratedGroup(9, b.generator_quads())
    gens = FullGroup(9).generator_quads()[:1]
    assert g.orbit_sizes(gens, whole=True) is None
    sizes = walked_orbit_sizes(g, gens)
    assert (sorted(sizes), sizes[0]) == walked_sizes(g, gens) == hook_sizes(b, gens)
    assert orbit_size(g, gens) == orbit_size(b, gens) == sizes[0]
