"""Cartan orbit sizes from the pairs {z, conj z} of P^1(O/l^d), against the
coset walk.

CartanNormalizer.orbit_sizes (and LiftedGroup's over a Cartan base, the
cnspre groups) never walks a coset: it walks the points z = x + y*sqrt(e)
of O/l^d with y a unit, paired with their conjugates. Its orbit sizes are
checked against walked_orbit_sizes, the components of coset_action's
permutations: the sorted sizes, and the size of the orbit of H*1, which
comes first. Generator lists are random (det != 1, repeats, the identity),
Cartan generators conjugated by a random matrix (as the file: images of a
catalog are), Borel generators, the ambient group's and none at all.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import modscreen.subgroups  # noqa: E402
from modscreen.cli import main  # noqa: E402
from modscreen.errors import OrbitTooLarge  # noqa: E402
from modscreen.subgroups import (CartanNormalizer, FullGroup,  # noqa: E402
                                 LiftedGroup, borel, walked_orbit_sizes)
from modscreen.zmod import quad_inv, quad_mul  # noqa: E402

import _helpers  # noqa: E402

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
