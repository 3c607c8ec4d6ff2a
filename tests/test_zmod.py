"""Residue arithmetic, 2x2 quad operations, and unit-group machinery."""

import random
import re

import pytest

import modscreen
from modscreen.subgroups import SubgroupSpec
from modscreen import catalog, curves, points, subgroups, zmod
from modscreen.zmod import (UnitSubgroup, delta_full, delta_pm1, delta_trivial,
                            divisors, euler_phi, factorize, is_prime, quad_det,
                            quad_inv, quad_is_invertible, quad_mul, quad_reduce,
                            unit_group_generators, unit_subgroup,
                            unit_subgroups_containing_minus_one, units)

import _oracles
from _helpers import reference_unit_closure, reference_unit_generators


def random_invertible(rng, n):
    while True:
        q = tuple(rng.randrange(n) for _ in range(4))
        if quad_is_invertible(n, q):
            return q


def test_quad_mul_matches_matrix_product():
    # (1 1; 0 1)(0 -1; 1 0) worked by hand mod 7
    assert quad_mul(7, (1, 1, 0, 1), (0, 6, 1, 0)) == (1, 6, 1, 0)


def test_quad_mul_associative():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(2, 30)
        a, b, c = (tuple(rng.randrange(n) for _ in range(4)) for _ in range(3))
        assert quad_mul(n, quad_mul(n, a, b), c) == quad_mul(n, a, quad_mul(n, b, c))


def test_quad_det_multiplicative():
    rng = random.Random(102)
    for _ in range(300):
        n = rng.randint(2, 30)
        a = tuple(rng.randrange(n) for _ in range(4))
        b = tuple(rng.randrange(n) for _ in range(4))
        assert quad_det(n, quad_mul(n, a, b)) == quad_det(n, a) * quad_det(n, b) % n


def test_quad_inv_left_and_right():
    rng = random.Random(103)
    for _ in range(200):
        n = rng.randint(2, 40)
        q = random_invertible(rng, n)
        ident = quad_reduce((1, 0, 0, 1), n)
        assert quad_mul(n, q, quad_inv(n, q)) == ident
        assert quad_mul(n, quad_inv(n, q), q) == ident


def test_quad_inv_rejects_singular():
    with pytest.raises(Exception):
        quad_inv(4, (2, 0, 0, 1))


def test_factorize_and_divisors():
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(1) == (1,)


def test_euler_phi_agrees_with_unit_count():
    for n in range(1, 200):
        assert euler_phi(n) == len(units(n)), n


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(1, 25):
        assert is_prime(n) == (n in primes), n


def test_unit_group_generators_generate():
    for n in range(1, 60):
        got = unit_subgroup(n, unit_group_generators(n))
        assert got.elements == units(n), n


def test_unit_subgroup_closure_is_a_group():
    rng = random.Random(104)
    for _ in range(100):
        n = rng.randint(3, 50)
        gens = [rng.choice(units(n)) for _ in range(rng.randint(1, 3))]
        d = unit_subgroup(n, gens)
        els = set(d.elements)
        assert 1 in els
        assert all(a * b % n in els for a in els for b in els)


def test_unit_subgroup_rejects_sets_not_closed():
    with pytest.raises(ValueError):
        UnitSubgroup(7, (1, 2))
    # above 2000 elements too: every unit mod the prime 4099 but -1
    with pytest.raises(ValueError):
        UnitSubgroup(4099, tuple(range(1, 4098)))
    assert UnitSubgroup(4099, tuple(range(1, 4099))).order == 4098


def test_unit_subgroups_are_immutable_values():
    # built apart, equal (n, elements) compare and hash equal: a subgroup
    # keys catalog._borel_genus's cache and verify-formulae's sets
    a, b = unit_subgroup(25, [7]), UnitSubgroup(25, (1, 7, 18, 24))
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, delta_pm1(25)}) == 2
    assert a != UnitSubgroup(5, (1, 2, 3, 4)) and a != (25, a.elements)
    assert UnitSubgroup(4, (1, 3)) != UnitSubgroup(8, (1, 3))
    catalog._borel_genus(25, a)
    hits = catalog._borel_genus.cache_info().hits
    assert catalog._borel_genus(25, b) == catalog._borel_genus(25, a)
    assert catalog._borel_genus.cache_info().hits == hits + 2
    # a field cannot be assigned or deleted, so a cached hash stays true;
    # the cached properties still fill
    for name in ("n", "elements", "order"):
        with pytest.raises(AttributeError):
            setattr(a, name, 5)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert (a.n, a.elements, a.generators, a.contains(32)) == \
        (25, (1, 7, 18, 24), (7,), True)


def test_unit_subgroup_rejects_nonunit():
    with pytest.raises(ValueError):
        unit_subgroup(10, [5])


@pytest.mark.parametrize("build, message", [
    (lambda: UnitSubgroup(0, (1,)), "modulus must be >= 1, got 0"),
    (lambda: unit_subgroup(0), "modulus must be >= 1, got 0"),
    (lambda: unit_subgroup(-4, [1]), "modulus must be >= 1, got -4"),
    (lambda: UnitSubgroup(7, (1, 8)), "not a residue mod 7"),
    (lambda: UnitSubgroup(7, (-1, 1)), "not a residue mod 7"),
], ids=["UnitSubgroup-mod-0", "unit_subgroup-mod-0", "unit_subgroup-mod-minus-4",
        "UnitSubgroup-8-mod-7", "UnitSubgroup-minus-1-mod-7"])
def test_unit_subgroup_rejects_bad_modulus_and_unreduced_residues(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _assert_matches_reference(d):
    n = d.n
    want = reference_unit_closure(n, d.elements)
    assert d.elements == tuple(sorted(want)), n
    assert d.generators == reference_unit_generators(n, d.elements), n
    assert reference_unit_closure(n, d.generators) == want, n


def test_lattice_subgroups_match_reference_closure():
    for n in range(3, 65):
        for d in unit_subgroups_containing_minus_one(n):
            _assert_matches_reference(d)


def test_delta_shorthands_match_reference_closure():
    for n in range(1, 65):
        for d in (delta_trivial(n), delta_pm1(n), delta_full(n)):
            _assert_matches_reference(d)


def test_unit_subgroup_matches_reference_on_random_generators():
    rng = random.Random(105)
    for _ in range(100):
        n = rng.randint(2, 200)
        gens = [rng.choice(units(n)) for _ in range(rng.randint(0, 4))]
        d = unit_subgroup(n, gens)
        assert d.elements == tuple(sorted(reference_unit_closure(n, gens))), (n, gens)
        _assert_matches_reference(d)
        for m in divisors(n):
            r = d.reduced(m)
            want = reference_unit_closure(m, d.elements)
            assert r.elements == tuple(sorted(want)), (n, gens, m)


def test_public_api_resolves():
    names = modscreen.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from modscreen import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(names)
    # the matrix class and its helpers are gone: matrices are quads only
    gone = re.compile(r"Mat\d+|mat_[a-z]+|(minus_)?identity")
    assert not [name for name in dir(modscreen) if gone.fullmatch(name)]
    assert not [a for a in ("contains", "generators", "elements")
                if hasattr(SubgroupSpec, a)]
    assert not [a for a in dir(UnitSubgroup) if a.endswith("_minus_one")]
    # names that no computation reached are gone; GeneratedGroup, SL2Part,
    # .order and kernel_generator_quads stand in for them
    gone = {"EnumeratedGroup", "ProductSetCheck", "product_set_check",
            "surjective_image_index_check", "kernel_subgroup", "order",
            "point_report", "PointDegreeReport", "degree_bound_check",
            "sl2_part"}
    assert not gone & set(names)
    assert not [name for name in gone if hasattr(modscreen, name)]
    for module in (subgroups, points, curves):
        assert not [name for name in gone if hasattr(module, name)], module


def test_delta_shorthands():
    assert delta_trivial(7).elements == (1,)
    assert delta_pm1(7).elements == (1, 6)
    assert delta_full(7).elements == (1, 2, 3, 4, 5, 6)
    # mod 2 the two coincide
    assert delta_pm1(2).elements == delta_trivial(2).elements == (1,)


def test_subgroups_containing_minus_one_against_powerset_scan():
    for n in range(3, 17):
        got = {d.elements for d in unit_subgroups_containing_minus_one(n)}
        want = {tuple(sorted(s)) for s in _oracles.unit_subgroups_with_minus_one(n)}
        assert got == want, n


def test_subgroups_containing_minus_one_rejects_tiny_modulus():
    with pytest.raises(ValueError):
        unit_subgroups_containing_minus_one(2)


def _prime_powers(lo, hi):
    return [n for n in range(lo, hi + 1) if len(factorize(n)) == 1]


def test_structural_unit_subgroups_match_the_lattice_walk():
    for n in _prime_powers(3, 512):
        got = unit_subgroups_containing_minus_one(n)
        assert got == zmod._unit_lattice_walk(n), n


@pytest.mark.parametrize("n", [5**4, 7**3, 11**3, 2**8, 3**5, 3**6])
def test_structural_unit_subgroup_counts_at_deep_prime_powers(n):
    got = unit_subgroups_containing_minus_one(n)
    (ell, e), = factorize(n)
    phi = euler_phi(n)
    # cyclic for odd l: one subgroup of each even order dividing phi;
    # <-1> x <5> at 2^e: <-1, 5^(2^j)> for j = 0..e-2
    want = e - 1 if ell == 2 else sum(1 for d in divisors(phi) if d % 2 == 0)
    assert len(got) == want
    assert all(d.contains(n - 1) for d in got)
    keys = [(d.order, d.elements) for d in got]
    assert keys == sorted(set(keys))


def test_prime_power_does_not_walk_the_lattice(monkeypatch):
    def refuse(n):
        raise AssertionError(f"walked the lattice at {n}")
    monkeypatch.setattr(zmod, "_unit_lattice_walk", refuse)
    assert len(unit_subgroups_containing_minus_one(625)) == 8


@pytest.mark.parametrize("n", [15, 21, 24, 40])
def test_composite_moduli_take_the_lattice_walk(n):
    assert unit_subgroups_containing_minus_one(n) == zmod._unit_lattice_walk(n)
