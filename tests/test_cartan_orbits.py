"""Cartan orbit sizes from the pairs {z, conj z} of P^1(O/l^d), against the
coset walk.

CartanNormalizer.orbit_sizes (and LiftedGroup's over a Cartan base, the
cnspre groups) never walks a coset: it walks the points z = x + y*sqrt(e)
of O/l^d with y a unit, paired with their conjugates. Its orbit sizes are
checked against walked_orbit_sizes, the components of coset_action's
permutations: the sorted sizes, and the size of the orbit of H*1, which
comes first. Generator lists are random (det != 1, repeats, the identity),
Cartan generators conjugated by a random matrix (as the file: images of a
catalog are), Borel generators, the ambient group's and none at all. The
walk's coordinate for a pair, (x, y^2), is checked against the min-key of
the pair and quadratic_mobius, one generator at a time. The walk by cycles
is checked against the walk by pairs (_helpers.reference_pair_orbits): its
sizes, where a whole walk stops drawing starts, and the count and message
at caps inside the cycles of a whole walk.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import modscreen.subgroups  # noqa: E402
from modscreen.cli import main  # noqa: E402
from modscreen.errors import OrbitTooLarge  # noqa: E402
from modscreen.subgroups import (CartanNormalizer, FullGroup,  # noqa: E402
                                 LiftedGroup, _cycle_split, borel, gl2_order,
                                 quadratic_pair_orbits, walked_orbit_sizes)
from modscreen.zmod import quad_inv, quad_mul, units  # noqa: E402

import _helpers  # noqa: E402
from _helpers import quadratic_mobius, quadratic_pair_key  # noqa: E402

PROPERTY = settings(deadline=None, derandomize=True, database=None)


def assert_hook_matches_the_walk(h, gens):
    gens = tuple(gens)
    sizes = h.orbit_sizes(gens, whole=True)
    assert h.orbit_sizes(gens, whole=False) == sizes[:1]
    walked = walked_orbit_sizes(h, gens)
    assert (sorted(sizes), sizes[0]) == (sorted(walked), walked[0]), (h, gens)


def conjugated(rng, n, gens):
    """gens conjugated by one random invertible matrix."""
    g = _helpers.generator_list(rng, n, 1)[0]
    gi = quad_inv(n, g)
    return [quad_mul(n, quad_mul(n, g, q), gi) for q in gens]


def image_lists(rng, n):
    """The generator lists every fixed case walks."""
    ell, d = _helpers.prime_power_exponent(n)
    own = CartanNormalizer(ell, d).generator_quads()
    return [FullGroup(n).generator_quads(), own, conjugated(rng, n, own),
            borel(n, _helpers.random_delta(rng, n)).generator_quads(),
            ((1, 0, 1, 1), (n - 1, 0, 0, 1)),
            _helpers.generator_list(rng, n, 2), ()]


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 25, 27, 49, 81, 121, 125])
def test_cartan_orbits_match_the_walk(n):
    rng = random.Random(n)
    c = CartanNormalizer(*_helpers.prime_power_exponent(n))
    for gens in image_lists(rng, n):
        assert_hook_matches_the_walk(c, gens)


def old_pair_key(n, z):
    """The min-key of the pair {x +- y*sqrt(e)}, x*n + min(y, -y): the oracle
    of the walk's (x, y^2) coordinate."""
    x, y = z
    return x * n + min(y, n - y)


def refuse_at_cap(j):
    raise AssertionError(f"the walk reached the cap at {j} pairs")


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 25, 27, 49, 81, 121, 125])
def test_the_pair_coordinate_is_x_and_y_squared(n):
    # the walk keys {x + y*sqrt(e), x - y*sqrt(e)} by (x, y^2), which names
    # the pair exactly when y -> y^2 is two to one on the units
    us = units(n)
    squares = {}
    for y in us:
        squares.setdefault(y * y % n, set()).add(y)
    assert all(roots == {y, n - y} for roots in squares.values() for y in roots)
    # equal keys exactly when z' is z or conj z
    classes = {}
    for x in range(n):
        for y in us:
            classes.setdefault(quadratic_pair_key(n, (x, y)), set()).add((x, y))
    assert all(pair == {(x, y), (x, n - y)} for pair in classes.values()
               for x, y in pair)
    # one generator's cycles, started from every pair in the walk's order,
    # against quadratic_mobius iterated under the old min-key
    c = CartanNormalizer(*_helpers.prime_power_exponent(n))
    e = c.eps
    starts = [(x, y) for x in range(n) for y in sorted(squares)]
    for r in _helpers.generator_list(random.Random(n), n, 20)[:20]:
        seen, cycles = set(), []
        for x, y2 in starts:
            z = (x, min(squares[y2]))
            if old_pair_key(n, z) in seen:
                continue
            start, length = old_pair_key(n, z), 0
            while True:
                seen.add(old_pair_key(n, z))
                z, length = quadratic_mobius(n, e, r, z), length + 1
                if old_pair_key(n, z) == start:
                    break
            cycles.append(length)
        assert quadratic_pair_orbits(c, [r], starts) == cycles, (n, r)


@pytest.mark.parametrize("n", [3, 5, 9, 13, 49, 121, 125])
def test_the_cartan_key_is_the_pair_of_sqrt_e_moved_by_q(n):
    # the key's closed step from (0, 1) against the Mobius map and pair key
    c = CartanNormalizer(*_helpers.prime_power_exponent(n))
    for q in _helpers.generator_list(random.Random(n), n, 1000):
        want = quadratic_pair_key(n, quadratic_mobius(n, c.eps, q, (0, 1)))
        assert c.coset_key(q) == want, (n, q)


@st.composite
def cartan_cases(draw):
    """(H, gens): the Cartan normalizer mod l^d, or the full preimage there
    of the one mod l^k, k < d (cnspre at k = 1), and a generator list."""
    n = draw(st.sampled_from([3, 5, 7, 9, 11, 13, 17, 25, 27, 49, 81]))
    ell, d = _helpers.prime_power_exponent(n)
    k = draw(st.integers(1, d))
    h = CartanNormalizer(ell, k)
    if k < d:
        h = LiftedGroup(h, n)
    rng = random.Random(draw(st.integers(0, 2**32)))
    source = draw(st.sampled_from(["random", "cartan", "borel"]))
    if source == "random":
        return h, _helpers.generator_list(rng, n, draw(st.integers(0, 3)))
    if source == "cartan":
        gens = conjugated(rng, n, CartanNormalizer(ell, d).generator_quads())
    else:
        gens = list(borel(n, _helpers.random_delta(
            rng, n, minus_one=rng.random() < 0.5)).generator_quads())
    return h, gens + gens[:1] + [(1, 0, 0, 1)]


@settings(PROPERTY, max_examples=120)
@given(cartan_cases())
def test_cartan_orbits_match_the_walk_on_random_generators(case):
    h, gens = case
    assert_hook_matches_the_walk(h, gens)


@pytest.mark.parametrize("n", [169, 343])
def test_deep_cartan_orbits_match_the_walk(n):
    c = CartanNormalizer(*_helpers.prime_power_exponent(n))
    assert_hook_matches_the_walk(c, conjugated(random.Random(n), n, c.generator_quads()))


WALK_LEVELS = [3, 9, 25, 27, 49, 121, 125, 169, 343]


def own_and_conjugates(rng, n):
    """The normalizer's own generators, shuffled, and two conjugates of them:
    the lists on which every other generator normalizes the cycle generator."""
    own = list(CartanNormalizer(*_helpers.prime_power_exponent(n)).generator_quads())
    rng.shuffle(own)
    return [own, conjugated(rng, n, own), conjugated(rng, n, own)]


def all_pairs(n):
    squares = sorted({y * y % n for y in units(n)})
    return [(x, y2) for x in range(n) for y2 in squares]


@pytest.mark.parametrize("n", WALK_LEVELS)
def test_the_walk_by_cycles_matches_the_walk_by_pairs(n):
    # the sizes of every orbit in the order the starts meet them, from the
    # pair of N*1 alone and from every pair, against the walk that steps
    # each generator from each pair
    rng = random.Random(n)
    lists = own_and_conjugates(rng, n)
    lists.append(lists[0] + _helpers.generator_list(rng, n, 1)[:1])
    lists += [_helpers.generator_list(rng, n, k)[:k] for k in (1, 2, 3)]
    lists.append(())
    c = CartanNormalizer(*_helpers.prime_power_exponent(n))
    pairs = all_pairs(n)
    for starts in ([(0, 1)], pairs):
        for gens in lists:
            assert quadratic_pair_orbits(c, gens, starts) == \
                _helpers.reference_pair_orbits(n, c.eps, gens, starts, len(pairs),
                                               refuse_at_cap), (n, gens)


@pytest.mark.parametrize("n", WALK_LEVELS)
def test_every_other_generator_of_a_normalizer_steps_once_per_cycle(n):
    for gens in own_and_conjugates(random.Random(n), n):
        c, per_cycle, per_pair = _cycle_split(n, gens)
        assert per_pair == [] and sorted(per_cycle + [c]) == sorted(gens), (n, gens)


def test_scalars_take_no_step():
    n = 25
    own = list(CartanNormalizer(5, 2).generator_quads())
    c, per_cycle, per_pair = _cycle_split(n, own + [(1, 0, 0, 1), (7, 0, 0, 7)])
    assert sorted(per_cycle + per_pair + [c]) == sorted(own)
    assert _cycle_split(n, [(1, 0, 0, 1), (24, 0, 0, 24)]) == ((1, 0, 0, 1), [], [])


@pytest.mark.parametrize("n", [27, 125, 169])
def test_a_walk_by_cycles_stops_at_the_cap(monkeypatch, n):
    # the orbit of N*1 under a conjugate of N is walked by cycles; at a cap
    # one below its size it refuses with the message the walk by pairs gives
    # there, and at its size it finishes
    c = CartanNormalizer(*_helpers.prime_power_exponent(n))
    gens = conjugated(random.Random(n), n, c.generator_quads())
    [s] = _helpers.reference_pair_orbits(n, c.eps, gens, [(0, 1)], n * n,
                                         refuse_at_cap)
    assert s > 1
    monkeypatch.setattr(modscreen.subgroups, "ORBIT_CAP", s - 1)
    with pytest.raises(OrbitTooLarge) as err:
        c.orbit_sizes(gens, whole=False)
    assert str(err.value) == (f"coset walk of cartan_nonsplit_normalizer mod "
                              f"{n} reached {s - 1} cosets, cap {s - 1}")
    monkeypatch.setattr(modscreen.subgroups, "ORBIT_CAP", s)
    assert c.orbit_sizes(gens, whole=False) == [s]


@pytest.mark.parametrize("n", [5, 25, 125, 121, 343])
def test_an_orbit_of_one_pair_takes_no_split(monkeypatch, n):
    # N fixes the pair of N*1, so under N's own generators its orbit is one
    # pair, found with one step per generator, and no cycle generator is
    # chosen; a whole walk splits at the first start that a generator moves
    c = CartanNormalizer(*_helpers.prime_power_exponent(n))
    gens = c.generator_quads()
    split = modscreen.subgroups._cycle_split
    calls = []

    def counted_split(m, gens):
        calls.append(m)
        return split(m, gens)

    monkeypatch.setattr(modscreen.subgroups, "_cycle_split", counted_split)
    assert c.orbit_sizes(gens, whole=False) == [1] and calls == []
    sizes = c.orbit_sizes(gens, whole=True)
    assert sizes[0] == 1 and calls == [n]


def counted(starts, drawn):
    """starts, each appended to drawn as the walk draws it."""
    for start in starts:
        drawn.append(start)
        yield start


@pytest.mark.parametrize("n", WALK_LEVELS)
def test_a_whole_walk_draws_no_start_after_every_pair_is_known(n):
    # the walk draws starts up to the one whose orbit completes the
    # n*phi(n)/2 = [GL2 : N] pairs, the last start that opens an orbit of the
    # walk by pairs, and no further, with the sizes of the walk by pairs: for
    # N's own list and two conjugates, where every generator steps once per
    # cycle, seeded lists with a generator that steps from every pair, no
    # generator, and scalars alone, whose orbits are single pairs
    c = CartanNormalizer(*_helpers.prime_power_exponent(n))
    pairs = all_pairs(n)
    assert len(pairs) == gl2_order(n) // c.order
    rng = random.Random(n)
    lists = own_and_conjugates(rng, n)
    mixed = [lists[0] + _helpers.generator_list(rng, n, 1)[:1]]
    mixed += [_helpers.generator_list(rng, n, k)[:k] for k in (2, 3)]
    assert _cycle_split(n, mixed[-1])[2], n  # at 3 and 9 the others may have none
    for gens in lists + mixed + [(), [(2, 0, 0, 2), (1, 0, 0, 1)]]:
        drawn = []
        sizes = quadratic_pair_orbits(c, gens, counted(pairs, drawn))

        def reference(starts):
            return _helpers.reference_pair_orbits(n, c.eps, gens, starts, len(pairs),
                                                  refuse_at_cap)

        k = len(drawn)
        assert sizes == reference(pairs[:k]) and sum(sizes) == len(pairs), (n, gens)
        assert sum(reference(pairs[:k - 1])) < len(pairs), (n, gens)
        if gens == lists[0] and n == 125:
            assert k == 1271


@pytest.mark.parametrize("n, later", [(27, 100), (125, 300), (343, 300)])
def test_a_whole_walk_stops_at_a_cap_inside_a_cycle(monkeypatch, n, later):
    # no cycle here is longer than 49 pairs: caps 1..60 fall inside the first
    # cycles of a whole walk and 30 caps from later inside a later one; at
    # each the walk refuses at the count and with the message of the walk by
    # pairs
    c = CartanNormalizer(*_helpers.prime_power_exponent(n))
    pairs = all_pairs(n)
    for gens in (c.generator_quads(), conjugated(random.Random(n), n, c.generator_quads())):
        for cap in [*range(1, 61), *range(later, later + 30)]:
            monkeypatch.setattr(modscreen.subgroups, "ORBIT_CAP", cap)
            messages = []
            with pytest.raises(OrbitTooLarge) as err:
                quadratic_pair_orbits(c, gens, pairs)
            messages.append(str(err.value))
            with pytest.raises(OrbitTooLarge) as err:
                _helpers.reference_pair_orbits(
                    n, c.eps, gens, pairs, cap,
                    lambda j: modscreen.subgroups._check_orbit_cap(c, j))
            messages.append(str(err.value))
            assert messages[0] == messages[1] == (
                f"coset walk of cartan_nonsplit_normalizer mod {n} reached {cap} "
                f"cosets, cap {cap}"), (n, gens, cap)


def test_cnspre_hands_the_hook_its_reduced_generators():
    # the cosets of a preimage are those of its base, so are the orbits
    pre = LiftedGroup(CartanNormalizer(5, 1), 125)
    gens = borel(125, _helpers.random_delta(random.Random(5), 125)).generator_quads()
    base = [tuple(x % 5 for x in g) for g in gens]
    assert pre.orbit_sizes(gens, whole=True) == \
        CartanNormalizer(5, 1).orbit_sizes(base, whole=True)
    assert_hook_matches_the_walk(pre, gens)


def test_the_pair_walk_reads_the_orbit_cap(monkeypatch):
    # one cap for every walk: the message coset_action gives, at call time
    c = CartanNormalizer(5, 2)
    gens = FullGroup(25).generator_quads()
    monkeypatch.setattr(modscreen.subgroups, "ORBIT_CAP", 7)
    for whole in (True, False):
        with pytest.raises(OrbitTooLarge) as err:
            c.orbit_sizes(gens, whole)
        assert str(err.value) == \
            "coset walk of cartan_nonsplit_normalizer mod 25 reached 7 cosets, cap 7"
    monkeypatch.setattr(modscreen.subgroups, "ORBIT_CAP", 250)  # [GL2 : N]
    assert c.orbit_sizes(gens, whole=True) == [250]


def test_a_whole_pair_walk_past_the_cap_refuses_before_walking(capsys,
                                                               monkeypatch):
    # a whole walk reaches all [GL2 : N] = 250 pairs of cns:5:2, so a cap
    # below that refuses up front, with the message and exit code the walk
    # itself would give at the cap, and no pair is walked
    def refuse(*args):
        raise AssertionError("the pair walk ran past a known cap")

    monkeypatch.setattr(modscreen.subgroups, "quadratic_pair_orbits", refuse)
    monkeypatch.setattr(modscreen.subgroups, "ORBIT_CAP", 249)
    with pytest.raises(OrbitTooLarge) as err:
        CartanNormalizer(5, 2).orbit_sizes(FullGroup(25).generator_quads(), True)
    assert (err.value.reached, err.value.cap) == (249, 249)
    assert main(["fiber-degrees", "--image", "cns:5:2", "--group", "cns:5:2"]) == 3
    assert capsys.readouterr().err == ("error: coset walk of cartan_nonsplit_"
                                       "normalizer mod 25 reached 249 cosets, "
                                       "cap 249\n")


def test_the_pair_walk_calls_back_only_at_the_cap(capsys, monkeypatch):
    # under the default cap no walk of cns:5:3 comes near it, so the walk
    # compares its count inline and never calls the cap check
    calls = []
    check = modscreen.subgroups._check_orbit_cap

    def counted(h, j):
        calls.append(j)
        check(h, j)

    monkeypatch.setattr(modscreen.subgroups, "_check_orbit_cap", counted)
    assert main(["fiber-degrees", "--image", "cns:5:3", "--group", "cns:5:3"]) == 0
    assert capsys.readouterr().out
    assert calls == []


def test_cartan_fibers_use_no_coset_walk(capsys, monkeypatch):
    argv = ["fiber-degrees", "--image", "cns:5:2", "--group", "cns:5:2"]
    assert main(argv) == 0
    plain = capsys.readouterr()

    def refuse(*args):
        raise AssertionError("coset_action walked the Cartan cosets")

    monkeypatch.setattr(modscreen.subgroups, "coset_action", refuse)
    assert main(argv) == 0
    assert capsys.readouterr() == plain


@pytest.mark.parametrize("argv", [
    ["point-degree", "--image", "cns:13:2", "--group", "borel:169:"],
    ["fiber-degrees", "--image", "cns:5:3", "--group", "cns:5:3"],
], ids=["point-degree", "fiber-degrees"])
@pytest.mark.filterwarnings("ignore:adjoined -I to a subgroup mod 169")
def test_cartan_commands_enumerate_nothing(capsys, monkeypatch, argv):
    # the generators and the fibers come from O/l^d, so an enumeration cap
    # of 10 leaves the output as it is uncapped
    assert main(argv) == 0
    plain = capsys.readouterr()
    monkeypatch.setattr(modscreen.subgroups, "ENUMERATION_CAP", 10)
    assert main(argv) == 0
    assert capsys.readouterr() == plain
