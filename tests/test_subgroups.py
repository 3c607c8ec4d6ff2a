"""Subgroup families, orders, indices, lifts, levels, and product sets."""

import itertools
import random
import time

import pytest

import modscreen.chain
import modscreen.subgroups
from modscreen.chain import StabilizerChain
from modscreen.cli import main as cli_main
from modscreen.curves import coset_space, curve_data, label_prefix
from modscreen.errors import (ComputationCap, EvenPrimeUnsupported,
                              ModulusMismatch, NonDivisor, NonInvertible,
                              NotASubgroup, TooLarge)
from modscreen.subgroups import (BorelGroup, CartanNormalizer, FullGroup,
                                 GeneratedGroup, LiftedGroup, SL2Part,
                                 SubgroupSpec, adjoin_minus_i, borel,
                                 borel_index, borel_order, closure_quads,
                                 contains_minus_i,
                                 coset_action, gl2_order, identity_quad,
                                 index_via_orbit, kernel_generator_quads,
                                 level, lift_subgroup, minus_identity_quad,
                                 nonsplit_cartan_normalizer,
                                 nonsplit_cartan_normalizer_preimage,
                                 reduce_subgroup,
                                 scanned_level, sigma_quad, sl2_order, tau_quad)
from modscreen.zmod import (_p1_normalize, delta_full, delta_pm1, delta_trivial,
                            divisors, euler_phi, factorize, is_prime, quad_det,
                            quad_inv, quad_is_invertible, quad_mul, quad_reduce,
                            quadratic_generator, unit_subgroup,
                            unit_subgroups_containing_minus_one, units)

import _helpers
import _oracles


# ---------------------------------------------------------------- orders

def test_gl2_order_examples():
    assert gl2_order(2) == 6
    assert gl2_order(6) == 288
    assert gl2_order(25) == 300000
    assert gl2_order(1) == 1


def test_gl2_order_against_brute_scan():
    for n in range(1, 10):
        assert gl2_order(n) == _oracles.brute_gl2_order(n), n


def test_gl2_order_multiplicative_over_coprime_parts():
    assert gl2_order(6) == gl2_order(2) * gl2_order(3)
    assert gl2_order(45) == gl2_order(9) * gl2_order(5)


def test_sl2_order_against_brute_scan():
    for n in range(1, 10):
        assert sl2_order(n) == _oracles.brute_sl2_order(n), n


def test_borel_order_examples():
    assert borel(5, delta_pm1(5)).order == 40
    assert borel(25, delta_full(25)).order == 10000
    d6 = unit_subgroup(49, [31])  # 31 has order 6 mod 49 and 31**3 = -1
    assert d6.order == 6
    assert borel_order(49, d6) == 6 * 7 ** 3 * 6


def test_borel_index_examples():
    for ell in (2, 3, 5, 7, 11, 13):
        assert borel_index(ell, delta_full(ell)) == ell + 1
    # order-4 subgroup mod 25: generated by 7, which squares to -1
    d4 = unit_subgroup(25, [7])
    assert d4.order == 4
    assert borel_index(25, d4) == 150


def test_borel_lagrange_consistency_up_to_49():
    """Closed-form order times closed-form index is the full group order."""
    for n in range(3, 50):
        for delta in unit_subgroups_containing_minus_one(n):
            assert borel_order(n, delta) * borel_index(n, delta) == gl2_order(n), (n, delta)


def test_borel_enumeration_matches_closed_form_up_to_16():
    for n in range(1, 17):
        deltas = (unit_subgroups_containing_minus_one(n) if n >= 3
                  else [delta_trivial(n)])
        for delta in deltas:
            b = BorelGroup(n, delta)
            assert len(b.element_quads) == b.order == borel_order(n, delta)
            assert b.order == _oracles.brute_borel_order(n, delta.elements)


def test_borel_membership_containment():
    big = borel(25, delta_full(25))
    small = borel(25, delta_pm1(25))
    assert all(big.member_quad(q) for q in small.generator_quads())


# ------------------------------------------------- membership vs closure

def test_structural_groups_closure_equals_predicate():
    """The closure of the generators and the membership predicate must carve
    out the same set."""
    for n in (3, 4, 5, 7, 8, 9):
        pool = [FullGroup(n)]
        pool.extend(BorelGroup(n, d) for d in _helpers.deltas_with_minus_one(n))
        if _helpers.is_odd_prime_power(n):
            pool.append(CartanNormalizer(*_helpers.prime_power_exponent(n)))
        for g in pool:
            from_gens = closure_quads(n, g.generator_quads())
            assert from_gens == _helpers.predicate_elements(g), (n, g.kind)


def test_lifted_group_closure_equals_predicate():
    lifted = lift_subgroup(borel(3, delta_full(3)), 9)
    assert closure_quads(9, lifted.generator_quads()) == _helpers.predicate_elements(lifted)


def test_cached_order_equals_enumerated_order():
    for g in _helpers.structural_pool(12):
        assert g.order == len(g.element_quads), g.kind


def test_closure_and_greedy_generators_match_the_reference_bfs():
    """The coset-by-coset closure gives the element BFS's group, and a
    generated group's chain its order, on seeded random generator lists with
    repeats, the identity and both orders."""
    rng = random.Random(4)
    for n in range(2, 13):
        pool = [q for q in itertools.product(range(n), repeat=4)
                if quad_is_invertible(n, q)]
        lists = [[], [identity_quad(n)]]
        for _ in range(10):
            gens = rng.sample(pool, rng.randint(1, 3))
            gens += [rng.choice(gens), identity_quad(n)]
            rng.shuffle(gens)
            lists += [gens, gens[::-1]]
        for gens in lists:
            want = _helpers.reference_closure_quads(n, gens)
            assert closure_quads(n, gens) == want, (n, gens)
            assert GeneratedGroup(n, gens).order == len(want), (n, gens)


def _no_enumeration(self):
    raise AssertionError(f"{self!r} enumerated its elements")


@pytest.mark.parametrize("ell, d", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1),
                                    (11, 1), (5, 3), (7, 3), (3, 5)])
def test_cartan_generators_have_the_formula_order(monkeypatch, ell, d):
    """The three generators from the arithmetic of O/l^d are members whose
    chain has the formula's order, and building them enumerates nothing."""
    monkeypatch.setattr(modscreen.subgroups, "ENUMERATION_CAP", 10)
    monkeypatch.setattr(CartanNormalizer, "element_quads",
                        property(_no_enumeration))
    c = CartanNormalizer(ell, d)
    gens = c.generator_quads()
    assert len(gens) == (2 if d == 1 else 3)
    assert all(c.member_quad(g) for g in gens)
    assert GeneratedGroup(c.n, gens).order == c.order


CARTAN_LEVELS = [(ell, d) for ell in range(3, 60) if is_prime(ell)
                 for d in range(1, 8) if ell**d <= 3000]


def test_the_cartan_levels_are_the_odd_prime_powers_to_3000():
    assert len(CARTAN_LEVELS) == 42


@pytest.mark.parametrize("ell, d", CARTAN_LEVELS)
def test_cartan_generators_match_the_pair_construction(ell, d):
    """The generators built as matrices are, in order, the ones that the
    ring O/l^d of pairs (a, b) gave."""
    assert CartanNormalizer(ell, d).generator_quads() == \
        _helpers.reference_cartan_generators(ell, d)


def test_the_generator_of_f_l2_is_searched_once_per_prime():
    quadratic_generator.cache_clear()
    for d in (1, 2, 3):
        CartanNormalizer(13, d).generator_quads()
    assert quadratic_generator.cache_info().misses == 1


@pytest.mark.parametrize("group", [borel(5, delta_full(5)), CartanNormalizer(3, 2),
                                   lift_subgroup(borel(2, delta_full(2)), 4)],
                         ids=["borel-5", "cns-9", "lifted-4"])
def test_closure_cap_is_exact(monkeypatch, group):
    """A cap of |G| closes the group; one less raises before the last coset."""
    n, gens, size = group.n, group.generator_quads(), group.order
    want = group.element_quads
    monkeypatch.setattr(modscreen.subgroups, "ENUMERATION_CAP", size)
    assert closure_quads(n, gens) == want
    monkeypatch.setattr(modscreen.subgroups, "ENUMERATION_CAP", size - 1)
    with pytest.raises(TooLarge) as err:
        closure_quads(n, gens)
    assert str(err.value) == f"closure mod {n} exceeds cap {size - 1}"


def test_enumeration_cap_is_read_at_call_time(monkeypatch):
    b = borel(5, delta_full(5))
    monkeypatch.setattr(modscreen.subgroups, "ENUMERATION_CAP", 10)
    with pytest.raises(TooLarge, match="^closure mod 5 exceeds cap 10$"):
        closure_quads(5, b.generator_quads())
    with pytest.raises(TooLarge, match="^enumeration of generated mod 5 needs "
                       "80 elements, cap 10$"):
        GeneratedGroup(5, b.generator_quads()).element_quads
    with pytest.raises(TooLarge, match="^enumeration of borel mod 5 needs "
                       "80 elements, cap 10$"):
        label_prefix(b)


def _cap_cases():
    b = borel(5, delta_full(5))
    cns = nonsplit_cartan_normalizer(5)
    return {
        # name: (call, cap attribute, cap, message, operation, modulus, reached)
        "closure": (lambda: closure_quads(5, b.generator_quads()),
                    "ENUMERATION_CAP", 10, "closure mod 5 exceeds cap 10",
                    "closure", 5, 15),
        "label-hash": (lambda: label_prefix(b), "ENUMERATION_CAP", 10,
                       "enumeration of borel mod 5 needs 80 elements, cap 10",
                       "enumeration", 5, 80),
        "gl2": (lambda: FullGroup(3).element_quads, "ENUMERATION_CAP", 10,
                "enumeration of full mod 3 needs 48 elements, cap 10",
                "enumeration", 3, 48),
        "borel": (lambda: b.element_quads, "ENUMERATION_CAP", 10,
                  "enumeration of borel mod 5 needs 80 elements, cap 10",
                  "enumeration", 5, 80),
        # GL2 given by its generators: FullGroup(5) would descend to
        # modulus 1 and walk nothing
        "coset-walk": (lambda: index_via_orbit(
                           GeneratedGroup(5, FullGroup(5).generator_quads()), cns),
                       "ORBIT_CAP", 2,
                       "coset walk of cartan_nonsplit_normalizer mod 5 "
                       "reached 2 cosets, cap 2", "coset walk", 5, 2),
    }


@pytest.mark.parametrize("site", sorted(_cap_cases()))
def test_cap_errors_carry_typed_fields(monkeypatch, site):
    call, attr, cap, message, operation, modulus, reached = _cap_cases()[site]
    monkeypatch.setattr(modscreen.subgroups, attr, cap)
    with pytest.raises(ComputationCap) as err:
        call()
    exc = err.value
    assert str(exc) == message
    assert (exc.operation, exc.modulus, exc.reached, exc.cap) == \
        (operation, modulus, reached, cap)
    assert exc.reached >= exc.cap


# ---------------------------------------------------------------- cartan

def test_cartan_orders():
    assert nonsplit_cartan_normalizer(5).order == 48
    assert nonsplit_cartan_normalizer(7).order == 96
    assert nonsplit_cartan_normalizer(25).order == 2 * 25 * 24


def test_cartan_enumeration_matches_closed_form():
    for q in (3, 5, 7, 9, 11, 13, 25, 27):
        c = nonsplit_cartan_normalizer(q)
        assert len(c.element_quads) == c.order, q


def test_cartan_contains_minus_i():
    for q in (3, 5, 7, 9, 25):
        assert contains_minus_i(nonsplit_cartan_normalizer(q))


def test_cartan_rejects_even_prime():
    with pytest.raises(EvenPrimeUnsupported):
        nonsplit_cartan_normalizer(2)
    with pytest.raises(EvenPrimeUnsupported):
        nonsplit_cartan_normalizer(8)


def test_cartan_nonresidue_is_stable_under_lifting():
    assert CartanNormalizer(5, 2).eps == CartanNormalizer(5, 1).eps
    assert CartanNormalizer(7, 2).eps == CartanNormalizer(7, 1).eps


def test_cartan_coset_key_separates_exactly():
    """The key, the pair {z, conj z} of the point z of (1, sqrt(e)) * g,
    must induce the same partition as the brute-force cosets."""
    for q in (3, 5, 7, 9, 11, 13):
        c = nonsplit_cartan_normalizer(q)
        full = FullGroup(q)
        assert len({c.coset_key(x) for x in full.element_quads}) == \
            full.order // c.order
        assert _helpers.key_classes_are_cosets(c.coset_key, full.element_quads,
                                               c.element_quads, q)


def test_borel_coset_keys_separate_exactly():
    """Both Borel keys induce the right-coset partition, by brute force, for
    every modulus to 16 and every Delta that is trivial, cyclic or holds -1."""
    exact = _helpers.key_classes_are_cosets
    pairs = 0
    for n in range(2, 17):
        deltas = {unit_subgroup(n, [u]).elements for u in units(n)}
        if n >= 3:
            deltas |= {d.elements for d in unit_subgroups_containing_minus_one(n)}
        gl2 = FullGroup(n).element_quads
        sl2 = [q for q in gl2 if (q[0] * q[3] - q[1] * q[2]) % n == 1 % n]
        for els in sorted(deltas):
            b = BorelGroup(n, unit_subgroup(n, els))
            whole = [(x, y, 0, z) for x in els for y in range(n) for z in units(n)]
            det_one = [(x, y, 0, pow(x, -1, n)) for x in els for y in range(n)]
            assert exact(b.coset_key, gl2, whole, n), (n, els)
            assert exact(b.sl2_coset_key, sl2, det_one, n), (n, els)
            pairs += 1
    assert pairs == 61


@pytest.mark.parametrize("n", [25, 27, 32])
def test_borel_coset_key_values_are_pinned(n):
    """The Delta-class table, now zmod._unit_classes, and the Borel key read
    off it keep their values: against the table as it was built before."""
    rng = random.Random(n)
    quads = _helpers.generator_list(rng, n, 200)
    for delta in unit_subgroups_containing_minus_one(n) + (delta_trivial(n),):
        b = BorelGroup(n, delta)
        table = _helpers.reference_delta_class(n, delta)
        assert b._delta_class == table
        for q in quads:
            code, u = _p1_normalize(n, q[2], q[3])
            assert b.coset_key(q) == code * n + table[u * quad_det(n, q) % n]


def _key_pool(m):
    """A Borel, a generated and, at an odd prime power, a Cartan group mod m."""
    pool = [borel(m, delta_trivial(m)),
            GeneratedGroup(m, [tau_quad(m), (1, 0, 1, 1), (1, 0, 0, m - 1)])]
    if _helpers.is_odd_prime_power(m):
        pool.append(nonsplit_cartan_normalizer(m))
    return pool


@pytest.mark.parametrize("n", range(2, 13))
def test_lifted_and_sl2_part_keys_separate_exactly(n):
    """The lifted key (the base's key downstairs) and the det-1 key (det
    beside the parent's key) induce the right-coset partition of GL2, by
    brute force against each group's element set."""
    exact = _helpers.key_classes_are_cosets
    gl2 = FullGroup(n).element_quads
    for m in divisors(n)[1:-1]:
        for base in _key_pool(m):
            lifted = LiftedGroup(base, n)
            assert exact(lifted.coset_key, gl2, lifted.element_quads, n), (n, base)
    for parent in _key_pool(n) + [LiftedGroup(borel(m, delta_pm1(m)), n)
                                  for m in divisors(n)[1:-1]]:
        s = SL2Part(parent)
        assert exact(s.coset_key, gl2, s.element_quads, n), (n, parent)


def test_cartan_preimage_variant():
    pre = nonsplit_cartan_normalizer_preimage(25)
    thin = nonsplit_cartan_normalizer(25)
    assert level(pre) == 5
    assert pre.order == 48 * (gl2_order(25) // gl2_order(5))
    # the thin shape group sits inside its preimage relative
    assert all(pre.member_quad(g) for g in thin.generator_quads())
    assert thin.order < pre.order


def test_cartan_preimage_takes_its_prime_power_from_the_thin_constructor():
    for q in (0, 1, 2, 6, 8, 12):
        errors = []
        for make in (nonsplit_cartan_normalizer, nonsplit_cartan_normalizer_preimage):
            with pytest.raises(Exception) as caught:
                make(q)
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1], q
    for q in (3, 5, 9, 125):
        (ell, d), = factorize(q)
        pre = nonsplit_cartan_normalizer_preimage(q)
        base = pre if d == 1 else pre.base
        assert (pre.n, base.kind, base.ell, base.d) == \
            (q, "cartan_nonsplit_normalizer", ell, 1)


# ------------------------------------------------------- generated kinds

def test_generated_group_rejects_singular_generator():
    with pytest.raises(NonInvertible):
        GeneratedGroup(4, [(2, 0, 0, 1)])


def test_order_of_trivial_group():
    assert GeneratedGroup(7, []).order == 1


def test_order_closed_form_for_full():
    assert FullGroup(25).order == 300000


# ------------------------------------------------------- index via orbit

def test_index_examples():
    assert index_via_orbit(nonsplit_cartan_normalizer(5), borel(5, delta_pm1(5))) == 12
    assert index_via_orbit(FullGroup(5), borel(5, delta_full(5))) == 6
    h = borel(7, delta_full(7))
    assert index_via_orbit(h, h) == 1


def test_index_rejects_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        index_via_orbit(FullGroup(5), borel(7, delta_full(7)))


def test_index_against_naive_coset_scan():
    rng = random.Random(105)
    pools = {n: _helpers.structural_pool(n, max_order=3000) for n in (3, 4, 5, 7, 8, 9)}
    for _ in range(60):
        n = rng.choice(sorted(pools))
        r = rng.choice(pools[n])
        h = rng.choice(pools[n])
        if r.kind == "full" and n > 5:
            continue  # keep the quadratic scan small
        index = index_via_orbit(r, h)
        assert index == _helpers.naive_coset_count(r, h), (n, r.kind, h.kind)
        # the walk behind the index: one permutation of the cosets per generator
        gens = r.generator_quads()
        reps, perms = coset_action(h, gens)
        assert len(reps) == index and len(perms) == len(gens)
        for g, perm in zip(gens, perms):
            assert sorted(perm) == list(range(index)), (n, r.kind, h.kind)
            for x, j in zip(reps, perm):
                assert h.coset_key(quad_mul(n, x, g)) == h.coset_key(reps[j])
        assert coset_action(h, ()) == ([identity_quad(n)], [])


def test_index_times_intersection_is_group_order():
    """[R : R meet H] * |R meet H| = |R| over a thousand structural pairs."""
    rng = random.Random(106)
    moduli = (3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 16, 18, 20, 24, 25)
    pools = {n: _helpers.structural_pool(n) for n in moduli}
    checked = 0
    while checked < 1000:
        n = rng.choice(moduli)
        r = rng.choice(pools[n])
        h = rng.choice(pools[n])
        if r.kind == "full" == h.kind:
            continue  # intersection enumeration would walk all of GL2
        got = index_via_orbit(r, h) * _helpers.intersection_order(r, h)
        assert got == r.order, (n, r.kind, h.kind)
        checked += 1


# ------------------------------------------------------- reduce and lift

def test_reduce_structural_families():
    assert reduce_subgroup(borel(25, delta_full(25)), 5).element_quads == \
        borel(5, delta_full(5)).element_quads
    assert reduce_subgroup(FullGroup(12), 4).kind == "full"
    c = reduce_subgroup(nonsplit_cartan_normalizer(25), 5)
    assert c.element_quads == nonsplit_cartan_normalizer(5).element_quads


@pytest.mark.parametrize("n", [8, 9, 12, 25])
def test_sl2_part_reduces_to_the_image_of_its_elements(n):
    p = _helpers.least_prime_factor(n)
    parents = [borel(n, delta_pm1(n)), borel(n, delta_trivial(n)),
               lift_subgroup(borel(p, delta_full(p)), n)]
    if _helpers.is_odd_prime_power(n):
        parents += [nonsplit_cartan_normalizer(n),
                    nonsplit_cartan_normalizer_preimage(n)]
    for parent in parents:
        s = SL2Part(parent)
        for m in divisors(n)[:-1]:
            image = {quad_reduce(q, m) for q in s.element_quads}
            assert reduce_subgroup(s, m).element_quads == image, (n, parent, m)


def test_reduce_rejects_non_divisor():
    with pytest.raises(NonDivisor):
        reduce_subgroup(FullGroup(12), 5)


def test_lift_of_full_is_full():
    assert lift_subgroup(FullGroup(1), 40).kind == "full"


@pytest.mark.parametrize("n", range(1, 33))
def test_a_lift_of_full_collapses_to_modulus_one(n):
    # GL2(Z/m) is itself the preimage of GL2(Z/1), so a lift of it at any
    # m | n is the full group mod n, kept as the preimage of modulus 1
    full = FullGroup(n)
    rng = random.Random(3800 + n)
    quads = [q for q in (tuple(rng.randrange(n) for _ in range(4))
                         for _ in range(40)) if quad_is_invertible(n, q)]
    for m in divisors(n):
        lifted = LiftedGroup(FullGroup(m), n)
        assert lifted.base.kind == "full" and lifted.base.n == 1, (n, m)
        assert (lifted.order, lifted.level, curve_data(lifted)) == \
            (full.order, full.level, curve_data(full)), (n, m)
        assert [lifted.coset_key(q) for q in quads] == \
            [full.coset_key(q) for q in quads], (n, m)


def test_lift_of_full_rejects_non_multiple():
    # the message every other kind gives through LiftedGroup
    with pytest.raises(NonDivisor, match="^base modulus 5 must divide 7$"):
        FullGroup(5).lifted(7)
    with pytest.raises(NonDivisor, match="^base modulus 5 must divide 7$"):
        borel(5, delta_full(5)).lifted(7)


@pytest.mark.parametrize("group", [
    FullGroup(5), borel(5, delta_pm1(5)), CartanNormalizer(5),
    GeneratedGroup(5, [(1, 1, 0, 1)]), LiftedGroup(FullGroup(1), 5)],
    ids=lambda h: h.kind)
def test_lift_to_a_non_multiple_has_one_message(group):
    for lift in (lambda n: lift_subgroup(group, n), group.lifted):
        with pytest.raises(NonDivisor, match="^base modulus 5 must divide 7$"):
            lift(7)


def test_lift_order_and_containment():
    lifted = lift_subgroup(borel(5, delta_full(5)), 25)
    assert lifted.order == 50000
    inner = borel(25, delta_full(25))
    assert all(lifted.member_quad(q) for q in inner.generator_quads())
    assert index_via_orbit(lifted, inner) == 5


def test_lift_order_formula_against_enumeration():
    for base_n, n in ((2, 4), (2, 8), (3, 9), (5, 25), (4, 8), (2, 6), (3, 12)):
        base = borel(base_n, delta_trivial(base_n))
        lifted = lift_subgroup(base, n)
        assert lifted.order == len(_helpers.predicate_elements(lifted)), (base_n, n)


def test_lift_then_reduce_roundtrip():
    base = borel(5, delta_pm1(5))
    again = reduce_subgroup(lift_subgroup(base, 25), 5)
    assert again.element_quads == base.element_quads


@pytest.mark.parametrize("base", [
    GeneratedGroup(5, nonsplit_cartan_normalizer(5).generator_quads()),
    CartanNormalizer(5)], ids=["generated", "cartan"])
def test_a_lift_reduced_to_its_base_modulus_is_the_base_itself(base):
    # no rebuilt base, so a generated one keeps its stabilizer chain
    lift = LiftedGroup(base, 125)
    assert reduce_subgroup(lift, 5) is base
    assert reduce_subgroup(lift, 25).base is base


# ------------------------------------------------------------------ level

def test_level_examples():
    assert level(FullGroup(49)) == 1
    assert level(lift_subgroup(borel(5, delta_full(5)), 25)) == 5
    assert level(borel(25, delta_trivial(25))) == 25
    assert level(borel(25, delta_full(25))) == 25


def test_level_of_lifted_full_is_one():
    assert level(lift_subgroup(FullGroup(1), 32)) == 1


def test_level_idempotence_over_pool():
    """level(lift(reduce(H, level(H)), n)) = level(H)."""
    for n in (8, 9, 12, 16, 25, 27):
        for h in _helpers.structural_pool(n, max_order=30000):
            lv = level(h)
            back = lift_subgroup(reduce_subgroup(h, lv), n)
            assert level(back) == lv, (n, h.kind)


def test_level_detects_full_preimages():
    """A group equals the preimage of its reduction exactly at its level."""
    h = lift_subgroup(nonsplit_cartan_normalizer(3), 27)
    assert level(h) == 3
    assert level(nonsplit_cartan_normalizer(27)) == 27


def _closed_form_level_pool(n, rng):
    """Full, Borel (trivial, +-1, full and two seeded cyclic Delta) and the
    Cartan normalizer at an odd prime power, each also lifted to a seeded
    multiple of n up to 80 and rebuilt from its generators."""
    deltas = {delta_trivial(n), delta_full(n)}
    if n > 2:
        deltas.add(delta_pm1(n))
    deltas.update(unit_subgroup(n, [rng.choice(units(n))]) for _ in range(2))
    pool = [FullGroup(n)] + [borel(n, d) for d in sorted(deltas, key=lambda d: d.elements)]
    fac = factorize(n)
    if len(fac) == 1 and fac[0][0] > 2:
        pool.append(CartanNormalizer(*fac[0]))
    pool += [lift_subgroup(h, n * rng.randint(1, max(1, 80 // n))) for h in pool]
    return pool + [GeneratedGroup(h.n, h.generator_quads()) for h in pool]


@pytest.mark.parametrize("n", range(1, 41))
def test_level_hook_equals_the_scan(n):
    """Each kind's closed-form level against the kernel-generator scan, and
    against the scan of the group rebuilt from its generators."""
    rng = random.Random(2700 + n)
    pool = _closed_form_level_pool(n, rng)
    kinds = {h.kind for h in pool}
    assert {"full", "borel", "generated"} <= kinds, kinds
    for h in pool:
        assert level(h) == scanned_level(h), (h, h.kind)
    assert all(level(h) == n for h in pool if h.kind == "borel")


def test_level_hooks_scan_no_kernel_generators(monkeypatch, capsys):
    """A Borel genus and a Cartan preimage's level read their closed forms."""
    def refuse(*args, **kwargs):
        raise AssertionError("scanned the kernel generators")

    monkeypatch.setattr(modscreen.subgroups, "kernel_generator_quads", refuse)
    assert cli_main(["genus", "--group", "borel:625:all"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split("\t") == \
        ["750", "2", "0", "30", "48", "625.750.48"]
    assert cli_main(["level", "--group", "cnspre:13:2"]) == 0
    assert capsys.readouterr().out == "13\n"


@pytest.mark.parametrize("n", range(1, 65))
def test_borel_with_minus_i_closes_the_generators_of_delta(n):
    """<Delta's generators, -1> is <Delta's elements, -1> for every Delta."""
    deltas = [delta_trivial(n)]
    for d in deltas:  # grows while it is walked: every subgroup, once
        for u in units(n):
            e = unit_subgroup(n, d.generators + (u,))
            if e not in deltas:
                deltas.append(e)
    for d in deltas:
        assert borel(n, d).with_minus_i().delta == \
            unit_subgroup(n, d.elements + (n - 1,)), d.elements


# ------------------------------------------------------- kernel machinery

def test_kernel_generators_close_to_the_kernel():
    for n, m in ((4, 2), (8, 2), (16, 4), (9, 3), (27, 3), (25, 5), (12, 6)):
        gens = kernel_generator_quads(n, m)
        got = closure_quads(n, gens)
        want = frozenset(q for q in _helpers.predicate_elements(FullGroup(n))
                         if all(x % m == y for x, y in zip(q, (1, 0, 0, 1))))
        assert got == want, (n, m)


def _kernel(n, m):
    return GeneratedGroup(n, kernel_generator_quads(n, m))


def test_kernel_subgroup_order_is_fourth_power():
    for n, m in ((4, 2), (9, 3), (25, 5), (27, 9), (16, 2)):
        assert _kernel(n, m).order == (n // m) ** 4, (n, m)


def test_kernel_at_m_equal_one_is_everything():
    assert _kernel(6, 1).order == gl2_order(6)


# -------------------------------------------------------------- minus one

def test_contains_minus_i_examples():
    assert contains_minus_i(borel(5, delta_pm1(5)))
    assert not contains_minus_i(borel(5, delta_trivial(5)))
    assert contains_minus_i(FullGroup(9))


def test_adjoin_minus_i_doubles_or_fixes():
    b1 = borel(5, delta_trivial(5))
    bpm = adjoin_minus_i(b1)
    assert bpm.order == 2 * b1.order
    assert bpm.element_quads == borel(5, delta_pm1(5)).element_quads
    again = adjoin_minus_i(bpm)
    assert again is bpm


def test_adjoin_minus_i_on_lifted_and_enumerated():
    lifted = lift_subgroup(borel(5, delta_trivial(5)), 25)
    out = adjoin_minus_i(lifted)
    assert out.member_quad(minus_identity_quad(25))
    assert out.order == 2 * lifted.order

    e = GeneratedGroup(5, [])
    out = adjoin_minus_i(e)
    assert out.element_quads == frozenset({(1, 0, 0, 1), (4, 0, 0, 4)})


# ------------------------------------------------------------ kind hooks

def _hook_pool(n):
    """structural_pool(n), Borel and lifted groups without -I, and two
    generated groups and one det-1 group, all at modulus n."""
    pool = _helpers.structural_pool(n)
    pool += [lift_subgroup(borel(m, delta_trivial(m)), n) for m in divisors(n)]
    pool += [GeneratedGroup(n, [tau_quad(n)]),
             GeneratedGroup(n, [tau_quad(n), (1, 0, 0, n - 1)]),
             SL2Part(borel(n, delta_trivial(n)))]
    return pool


@pytest.mark.parametrize("n", range(1, 17))
def test_kind_hooks_against_reference_closures(n):
    """with_minus_i, SL2Part's generators and lifted on every kind, each
    against the element-by-element closure or the defining predicate."""
    rng = random.Random(n)
    minus = minus_identity_quad(n)
    for h in _hook_pool(n):
        pm = adjoin_minus_i(h)
        assert pm.kind == h.kind, (n, h)
        assert pm.element_quads == _helpers.reference_closure_quads(
            n, h.generator_quads() + (minus,)), (n, h)
        s = SL2Part(h)
        assert _helpers.reference_closure_quads(n, s.generator_quads()) == \
            s.element_quads, (n, h)
        for k in (2, 3):
            big = k * n
            lifted = lift_subgroup(h, big)
            members = rng.sample(sorted(h.element_quads), min(40, h.order))
            quads = [tuple(rng.randrange(big) for _ in range(4)) for _ in range(200)]
            quads += [tuple((x + n * rng.randrange(k)) % big for x in q)
                      for q in members]
            for q in quads:
                want = (quad_is_invertible(big, q)
                        and h.member_quad(quad_reduce(q, n)))
                assert lifted.member_quad(q) == want, (n, h, k, q)
            assert reduce_subgroup(lifted, n).element_quads == h.element_quads, \
                (n, h, k)


@pytest.mark.parametrize("n", range(1, 13))
def test_element_sets_are_the_members(n):
    """The one route to an element set, the closure of the generators, gives
    exactly the matrices each kind's predicate accepts, for every kind and
    its determinant-1 part."""
    gl2 = [q for q in itertools.product(range(n), repeat=4)
           if quad_is_invertible(n, q)]
    for h in _hook_pool(n):
        for g in (h, SL2Part(h)):
            assert g.element_quads == {q for q in gl2 if g.member_quad(q)}, (n, g)


@pytest.mark.parametrize("n", range(1, 13))
def test_every_reduction_is_the_image_of_the_elements(n):
    """The closed-form reductions of the full, Borel, Cartan and lifted kinds,
    and the default one of the generated and det-1 kinds, against the image
    of the element set."""
    for h in _hook_pool(n):
        for m in divisors(n):
            assert reduce_subgroup(h, m).element_quads == \
                {quad_reduce(q, m) for q in h.element_quads}, (n, h, m)


class _OnlyGenerators(SubgroupSpec):
    """A kind that supplies its generators and nothing else."""

    def __init__(self, n, gens):
        super().__init__(n)
        self._gens = gens


@pytest.mark.parametrize("n", [6, 8, 9])
def test_a_kind_with_only_generators_is_the_generated_group(n):
    """Every default hook of the base class answers as GeneratedGroup does on
    the same generators."""
    gl2 = [q for q in itertools.product(range(n), repeat=4)
           if quad_is_invertible(n, q)]
    rng = random.Random(n)
    sample = rng.sample(gl2, 60)
    full_gens = FullGroup(n).generator_quads()
    for h in _hook_pool(n):
        gen = GeneratedGroup(n, h.generator_quads())
        bare = _OnlyGenerators(n, gen.generator_quads())
        assert bare.generator_quads() == gen.generator_quads(), h
        assert [bare.member_quad(q) for q in gl2] == \
            [gen.member_quad(q) for q in gl2], h
        assert bare.order == gen.order and bare.element_quads == gen.element_quads, h
        assert [bare.coset_key(q) for q in sample] == \
            [gen.coset_key(q) for q in sample], h
        assert bare.curve_counts() is gen.curve_counts() is None, h
        for gens, whole in ((full_gens, True), ((sigma_quad(n), tau_quad(n)), False)):
            assert bare.orbit_sizes(gens, whole) == gen.orbit_sizes(gens, whole), h
        assert bare.det_image == gen.det_image, h
        assert bare.has_full_determinant() == gen.has_full_determinant(), h
        assert bare.preimage_base is bare, h
        for m in divisors(n):
            a, b = bare.reduced(m), gen.reduced(m)
            assert (a.kind, a.generator_quads()) == (b.kind, b.generator_quads()), (h, m)
        a, b = bare.with_minus_i(), gen.with_minus_i()
        assert (a.kind, a.generator_quads()) == (b.kind, b.generator_quads()), h
        a, b = bare.lifted(2 * n), gen.lifted(2 * n)
        assert (a.kind, a.order, a.generator_quads()) == \
            (b.kind, b.order, b.generator_quads()), h
        assert repr(bare) == f"<_OnlyGenerators mod {n}>"


@pytest.mark.parametrize("n", [9, 25])
def test_generators_are_built_once_per_group(n):
    pool = _hook_pool(n)
    pool += [SL2Part(h) for h in pool]
    for h in pool:
        assert h.generator_quads() is h.generator_quads(), h
    assert {h.kind for h in pool} == {"full", "borel", "cartan_nonsplit_normalizer",
                                      "generated", "lifted", "sl2_part"}


@pytest.mark.parametrize("n", [9, 25])
def test_enumeration_past_the_cap_raises_before_any_closure(monkeypatch, n):
    """The cap is checked against the order before a single product."""
    pool = _hook_pool(n)
    pool += [SL2Part(h) for h in pool]

    def refuse(*args, **kwargs):
        raise AssertionError("closed the generators before checking the cap")

    monkeypatch.setattr(modscreen.subgroups, "ENUMERATION_CAP", 10)
    monkeypatch.setattr(modscreen.subgroups, "closure_quads", refuse)
    kinds = set()
    for h in pool:
        if h.order <= 10:
            continue
        with pytest.raises(TooLarge) as err:
            h.element_quads
        exc = err.value
        assert (exc.operation, exc.modulus, exc.reached, exc.cap) == \
            ("enumeration", n, h.order, 10), h
        kinds.add(h.kind)
    assert kinds == {"full", "borel", "cartan_nonsplit_normalizer", "generated",
                     "lifted", "sl2_part"}


def test_a_generated_group_past_the_default_cap_fails_at_once():
    # |B| = 500 * 625 * 500 > 10^7: refused on the chain's order, where
    # closing the generators would build 10^7 elements before raising
    g = GeneratedGroup(625, borel(625, delta_full(625)).generator_quads())
    assert g.order == 156_250_000
    start = time.perf_counter()
    with pytest.raises(TooLarge) as err:
        g.element_quads
    assert time.perf_counter() - start < 0.1
    assert (err.value.operation, err.value.reached, err.value.cap) == \
        ("enumeration", g.order, 10_000_000)


@pytest.mark.parametrize("grp", [
    FullGroup(625), borel(243, delta_full(243)), borel(625, delta_full(625)),
    borel(625, delta_pm1(625)), CartanNormalizer(7, 3)],
    ids=["full625", "borel243", "borel625", "borel625pm", "cns343"])
def test_sl2_part_keeps_few_schreier_generators_at_deep_levels(grp):
    # each Schreier generator is kept only if the ones before miss it, so
    # the set stays small where there are up to |det H| * #gens candidates
    gens = SL2Part(grp).generator_quads()
    assert len(gens) <= 10
    assert StabilizerChain(grp.n, gens).order == grp.order // grp.det_image.order


@pytest.mark.parametrize("n", [25, 27])
def test_chain_membership_computes_no_inverse(monkeypatch, n):
    """contains reads the stored inverses of the line transversal: with
    quad_inv patched to raise, it still agrees with the group's predicate."""
    b = borel(n, delta_pm1(n))
    groups = [b, GeneratedGroup(n, _conjugated(n, b.generator_quads()))]
    chains = [StabilizerChain(n, g.generator_quads()) for g in groups]
    rng = random.Random(n)
    quads = [q for q in (tuple(rng.randrange(n) for _ in range(4))
                         for _ in range(400)) if quad_is_invertible(n, q)]
    for g in groups:
        gens = g.generator_quads()
        quads += [quad_mul(n, x, y) for x in gens for y in gens]
    want = [[g.member_quad(q) for q in quads] for g in groups]
    assert all(any(row) and not all(row) for row in want)

    def refuse(n, q):
        raise AssertionError("contains computed an inverse")

    monkeypatch.setattr(modscreen.chain, "quad_inv", refuse)
    assert [[c.contains(q) for q in quads] for c in chains] == want


def test_lifted_groups_flatten_to_the_first_base():
    base = borel(3, delta_trivial(3))
    assert LiftedGroup(LiftedGroup(base, 9), 27).base is base
    assert lift_subgroup(lift_subgroup(base, 9), 27).base is base


def _conjugated(n, gens):
    """The generators conjugated by c = (1 0; 1 1): c^-1 * g * c."""
    c = (1 % n, 0, 1 % n, 1 % n)
    ci = quad_inv(n, c)
    return [quad_mul(n, quad_mul(n, ci, g), c) for g in gens]


@pytest.mark.parametrize("n", range(1, 17))
def test_coset_space_walks_the_cosets_of_h_like_its_det_one_part(n):
    """With full determinant, the walk on H's own cosets gives the same
    representatives and permutations as the walk on the cosets of H meet
    SL2 in SL2, the oracle."""
    pool = _hook_pool(n)
    pool.append(GeneratedGroup(n, _conjugated(
        n, borel(n, delta_trivial(n)).generator_quads())))
    walked = 0
    for h in pool:
        if not h.has_full_determinant():
            continue
        space = coset_space(h)
        reps, (perm_s, perm_t) = coset_action(SL2Part(h),
                                              (sigma_quad(n), tau_quad(n)))
        assert (space.reps, space.perm_s, space.perm_t) == \
            (reps, perm_s, perm_t), (n, h)
        walked += 1
    assert walked >= 3


@pytest.mark.parametrize("n", [125, 169])
def test_sl2_part_generators_enumerate_nothing(monkeypatch, n):
    """Schreier generators of H meet SL2 from H's generators alone: under an
    enumeration cap of 10 they are det-1 members of H that generate a group
    of order |H| / |det H|."""
    p = _helpers.least_prime_factor(n)
    pool = [GeneratedGroup(n, _conjugated(n, borel(n, delta_pm1(n)).generator_quads())),
            borel(n, delta_trivial(n)),
            lift_subgroup(nonsplit_cartan_normalizer(p), n),
            nonsplit_cartan_normalizer(n)]
    monkeypatch.setattr(modscreen.subgroups, "ENUMERATION_CAP", 10)
    for h in pool:
        s = SL2Part(h)
        gens = s.generator_quads()
        assert all(quad_det(n, g) == 1 and h.member_quad(g) for g in gens), h
        assert GeneratedGroup(n, gens).order == s.order, h


# ------------------------------------------------------------ product sets

def _lift_order(h, m):
    """|H*K| for K the kernel of reduction to m, as |H| [K : K meet H]."""
    return h.order * index_via_orbit(_kernel(h.n, m), h)


def test_product_with_kernel_is_the_lift():
    h = borel(25, delta_full(25))
    lifted = lift_subgroup(borel(5, delta_full(5)), 25)
    assert _lift_order(h, 5) == 50000 == lifted.order
    # H*K is the lift itself, element for element
    h, m = borel(9, delta_full(9)), 3
    assert _helpers.reference_product_set(h, _kernel(9, m)) == \
        lift_subgroup(reduce_subgroup(h, m), 9).element_quads


def test_preimage_factors_as_group_times_kernel():
    """Over random structural H and divisors m, H * ker(reduction to m) is
    exactly the preimage of the reduction of H."""
    rng = random.Random(107)
    moduli = (4, 8, 9, 12, 16, 18, 25, 27)
    pools = {n: [g for g in _helpers.structural_pool(n, max_order=20000)
                 if g.kind != "full"] for n in moduli}
    checked = 0
    while checked < 100:
        n = rng.choice(moduli)
        h = rng.choice(pools[n])
        ms = [m for m in range(2, n) if n % m == 0]
        if not ms:
            continue
        m = rng.choice(ms)
        lifted = lift_subgroup(reduce_subgroup(h, m), n)
        # HK sits inside the preimage since both factors do, so cardinality
        # equality is set equality
        assert all(lifted.member_quad(q) for q in h.generator_quads())
        assert all(lifted.member_quad(q) for q in kernel_generator_quads(n, m))
        assert _lift_order(h, m) == lifted.order, (n, m, h.kind)
        checked += 1


# ------------------------------------------------- image index comparison

def _index_drops(g, h, m):
    """[G:H] >= [G(m):H(m)]: indices can only drop under reduction."""
    small = index_via_orbit(reduce_subgroup(g, m), reduce_subgroup(h, m))
    return index_via_orbit(g, h) >= small


def test_surjective_image_index_check_examples():
    g = FullGroup(25)
    h = borel(25, delta_full(25))
    assert _index_drops(g, h, 5)
    # the two indices compared: 30 upstairs, 6 downstairs
    assert index_via_orbit(g, h) == 30
    assert index_via_orbit(FullGroup(5), borel(5, delta_full(5))) == 6
    assert _index_drops(g, g, 5)
    assert _index_drops(g, h, 25)


def test_image_index_never_grows_under_reduction():
    rng = random.Random(108)
    for _ in range(40):
        n = rng.choice((8, 9, 12, 16, 18, 25, 27))
        deltas = _helpers.deltas_with_minus_one(n)
        small = rng.choice(deltas)
        h = borel(n, small)
        g = FullGroup(n)
        for m in (m for m in range(2, n + 1) if n % m == 0):
            assert _index_drops(g, h, m), (n, m)


def test_subgroup_check_raises_for_non_subgroup():
    with pytest.raises(NotASubgroup):
        from modscreen.subgroups import subgroup_of
        subgroup_of(borel(5, delta_full(5)), nonsplit_cartan_normalizer(5))
