"""Borel orbit sizes from the line orbits in P^1, against the coset walk.

BorelGroup.orbit_sizes (and LiftedGroup's, which hands it the reduced
generators) never walks a coset. Its orbit sizes are checked against the
components of coset_action's permutations: the sorted sizes, and the size of
the orbit of H*1, which comes first. The cases cover every Delta at small
moduli (the trivial one and those without -1 included), moduli up to 40 with
composite ones, generator lists with det != 1, repeats and the identity, and
lifted Borel groups. A whole walk draws start lines only up to the last
one that opens a line orbit, against a plain BFS of the lines. The descent
to a lifted image's level is checked on random generated bases against the
walk at the image's own modulus.
"""

import random
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import modscreen.subgroups  # noqa: E402
from modscreen.points import fiber_degrees, galois_context  # noqa: E402
from modscreen.subgroups import (FullGroup, GeneratedGroup,  # noqa: E402
                                 LiftedGroup, borel, coset_action, divisors,
                                 index_via_orbit, preimage_descent,
                                 walked_orbit_sizes)
from modscreen.zmod import (_extend_subgroup, _p1_normalize,  # noqa: E402
                            _p1_points, quad_inv, quad_mul, unit_subgroup,
                            units)

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


class CountedPoints(tuple):
    """_p1_points(n) that counts the points a walk draws from it."""

    def __iter__(self):
        self.drawn = 0
        for point in tuple.__iter__(self):
            self.drawn += 1
            yield point


def last_new_line(n, gens):
    """How many points of _p1_points(n) a whole walk must draw: up to the
    last one whose line lies in no orbit of <gens> met before it. Lines are
    walked under the rows times each generator, by plain BFS."""
    known, last = set(), 0
    for k, start in enumerate(_p1_points(n)):
        if _p1_normalize(n, *start)[0] in known:
            continue
        last = k + 1
        known.add(_p1_normalize(n, *start)[0])
        line = [start]
        for c, d in line:
            for s0, s1, s2, s3 in gens:
                row = ((c * s0 + d * s2) % n, (c * s1 + d * s3) % n)
                code = _p1_normalize(n, *row)[0]
                if code not in known:
                    known.add(code)
                    line.append(row)
    return last


@pytest.mark.parametrize("n", range(1, 50))
def test_a_whole_walk_stops_at_the_last_new_line(monkeypatch, n):
    # every Delta and seeded lists: the walk draws start lines up to the
    # last one that opens a line orbit and no further, and its orbit sizes
    # are the coset walk's
    points = CountedPoints(_p1_points(n))
    monkeypatch.setattr(modscreen.subgroups, "_p1_points",
                        lambda m: points if m == n else _p1_points(m))
    rng = random.Random(n)
    for delta in every_delta(n):
        b = borel(n, delta)
        for gens in (b.generator_quads(), FullGroup(n).generator_quads(),
                     ((1, 1 % n, 0, 1 % n),), _helpers.generator_list(rng, n, 1),
                     _helpers.generator_list(rng, n, 2), ()):
            sizes = b.orbit_sizes(gens, whole=True)
            assert points.drawn == last_new_line(n, gens), (n, delta.elements, gens)
            walked = walked_orbit_sizes(b, tuple(gens))
            assert (sorted(sizes), sizes[0]) == (sorted(walked), walked[0]), \
                (n, delta.elements, gens)


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
    # no hook: the default orbit sizes are the coset walk's, the orbit of
    # H*1 first (under the lower unipotent it is 3, not the least, 1)
    b = borel(9, unit_subgroup(9, [8]))
    g = GeneratedGroup(9, b.generator_quads())
    for gens in (FullGroup(9).generator_quads()[:1], ((1, 0, 3, 1),)):
        sizes = walked_orbit_sizes(g, gens)
        assert g.orbit_sizes(gens, whole=True) == sizes
        assert g.orbit_sizes(gens, whole=False) == sizes[:1] == \
            [len(coset_action(g, gens)[0])]
        assert (sorted(sizes), sizes[0]) == walked_sizes(g, gens) == \
            hook_sizes(b, gens)
