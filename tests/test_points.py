"""Point degrees, fiber decompositions, level reduction, and the screens."""

import itertools
import random
import warnings

import pytest

from modscreen import points
from modscreen.curves import map_degree
from modscreen.errors import ModulusMismatch, NonIntegral
from modscreen.points import (Verdict, cartan_degree_formula, fiber_degrees,
                              galois_context, level_reduction, point_degree,
                              point_degree_general, rr_screen,
                              semidirect_lower_bound)
from modscreen.subgroups import (FullGroup, GeneratedGroup,
                                 LiftedGroup, SL2Part, borel,
                                 gl2_order, index_via_orbit, lift_subgroup,
                                 nonsplit_cartan_normalizer, preimage_descent,
                                 reduce_subgroup)
from modscreen.zmod import (delta_full, delta_pm1, delta_trivial, divisors,
                            quad_inv, quad_mul, unit_subgroup,
                            unit_subgroups_containing_minus_one, units)

import _helpers


# ----------------------------------------------------------------- context

def test_context_validates_dj():
    with pytest.raises(ValueError):
        galois_context(FullGroup(5), d_j=0)


def test_context_validates_aut_modulus():
    with pytest.raises(ModulusMismatch):
        galois_context(FullGroup(5), aut=FullGroup(7))


def test_context_adjoins_minus_i_with_warning():
    image = GeneratedGroup(5, [(1, 1, 0, 1)])
    with pytest.warns(UserWarning):
        ctx = galois_context(image)
    assert ctx.adjoined_minus_i
    assert ctx.image.member_quad((4, 0, 0, 4))


# ------------------------------------------------------------ point degree

def test_point_degree_examples():
    ctx = galois_context(nonsplit_cartan_normalizer(5))
    assert point_degree(ctx, borel(5, delta_pm1(5))) == 12

    full = galois_context(FullGroup(7))
    h = borel(7, delta_pm1(7))
    assert point_degree(full, h) == gl2_order(7) // h.order

    same = galois_context(borel(7, delta_full(7)), d_j=3)
    assert point_degree(same, borel(7, delta_full(7))) == 3


def test_point_degree_scales_with_dj():
    h = borel(5, delta_pm1(5))
    base = point_degree(galois_context(nonsplit_cartan_normalizer(5)), h)
    tripled = point_degree(galois_context(nonsplit_cartan_normalizer(5), d_j=3), h)
    assert tripled == 3 * base


def test_point_degree_general_reduces_to_plus_minus():
    r = nonsplit_cartan_normalizer(5)
    h = borel(5, delta_pm1(5))
    pm = GeneratedGroup(5, [(4, 0, 0, 4)])
    assert point_degree_general(galois_context(r, aut=pm), h) == \
        point_degree(galois_context(r), h)


def test_point_degree_general_with_trivial_aut():
    r = nonsplit_cartan_normalizer(5)
    one = GeneratedGroup(5, [])
    h = borel(5, delta_pm1(5))
    assert point_degree_general(galois_context(r, aut=one), h) == \
        index_via_orbit(r, h)


def test_point_degree_general_against_set_arithmetic_mod_seven():
    """Derive RA and AH by predicate scans over all of GL2(Z/7) and compare.

    x lies in R*A iff x*a^-1 lands in R for some a, so the scan never builds
    products in the same order as the implementation does.
    """
    rng = random.Random(109)
    n = 7
    ambient = sorted(FullGroup(n).element_quads)
    pool = _helpers.structural_pool(n, max_order=5000)
    checked = 0
    for _ in range(20):
        r = rng.choice(pool)
        h = rng.choice(pool)
        a_gen = rng.choice(ambient)
        aut = GeneratedGroup(n, [a_gen])
        if aut.order > 48:
            continue
        inv_auts = [quad_inv(n, a) for a in aut.element_quads]
        ra = {x for x in ambient
              if any(r.member_quad(quad_mul(n, x, ai)) for ai in inv_auts)}
        ah = {x for x in ambient
              if any(h.member_quad(quad_mul(n, ai, x)) for ai in inv_auts)}
        both = ra & ah
        ctx = galois_context(r, aut=aut)
        if len(ra) % len(both):
            with pytest.raises(NonIntegral):
                point_degree_general(ctx, h)
        else:
            assert point_degree_general(ctx, h) == len(ra) // len(both)
        checked += 1
    assert checked >= 12


def test_point_degree_general_default_aut_is_the_plus_minus_path():
    """aut=None stands for {I, -I}: the general formula's product sets give
    the index the walk gives, over the structural pools and over a Borel
    group without -I, which A*H doubles as the walk's adjoining does."""
    rng = random.Random(112)
    for n in (5, 7, 8, 9):
        pool = _helpers.structural_pool(n, max_order=5000)
        pairs = rng.sample(list(itertools.product(pool, pool)), 8)
        pairs += [(r, borel(n, delta_trivial(n))) for r in rng.sample(pool, 2)]
        for r, h in pairs:
            ctx = galois_context(r)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = point_degree(ctx, h)
            assert point_degree_general(ctx, h) == want, (n, r.kind, h.kind)


@pytest.mark.parametrize("gen", [(4, 0, 0, 1), (2, 0, 0, 2)],
                         ids=["order-2-without-minus-i", "order-4-with-minus-i"])
def test_only_plus_minus_itself_takes_the_plus_minus_path(gen):
    # {I, -I} is read off the order and -I: an aut of the same order without
    # -I, or one with -I and more, takes the general formula
    r = nonsplit_cartan_normalizer(5)
    h = borel(5, delta_pm1(5))
    ctx = galois_context(r, aut=GeneratedGroup(5, [gen]))
    assert point_degree(ctx, h) == point_degree_general(ctx, h)
    with pytest.raises(ValueError):
        fiber_degrees(ctx, h)


# ------------------------------------------------------------------ fibers

def test_fiber_degrees_single_orbit_for_full_image():
    h = borel(9, delta_full(9))
    ctx = galois_context(FullGroup(9))
    assert fiber_degrees(ctx, h) == (gl2_order(9) // h.order,)


def test_fiber_degrees_cartan_over_level_five():
    ctx = galois_context(nonsplit_cartan_normalizer(5))
    assert fiber_degrees(ctx, borel(5, delta_full(5))) == (6,)


def test_fiber_degrees_contain_the_identity_point_degree():
    ctx = galois_context(nonsplit_cartan_normalizer(7))
    h = borel(7, delta_pm1(7))
    assert point_degree(ctx, h) in set(fiber_degrees(ctx, h))


def test_fiber_degrees_partition_the_coset_space():
    rng = random.Random(110)
    for _ in range(10):
        n = rng.choice((5, 7, 8, 9, 12))
        pool = _helpers.structural_pool(n, max_order=20000)
        r = rng.choice(pool)
        h = rng.choice(pool)
        ctx = galois_context(r)
        degs = fiber_degrees(ctx, h)
        assert sum(degs) == gl2_order(n) // h.order, (n, r.kind, h.kind)


def _brute_fiber(r, h):
    """Sorted sizes of the R-orbits on H's right cosets, every coset and
    every orbit enumerated element by element."""
    n = h.n
    coset_of = {}
    reps = []
    for g in sorted(FullGroup(n).element_quads):
        if g not in coset_of:
            for x in h.element_quads:
                coset_of[quad_mul(n, x, g)] = len(reps)
            reps.append(g)
    sizes = []
    done = set()
    for c, g in enumerate(reps):
        if c not in done:
            orbit = {coset_of[quad_mul(n, g, y)] for y in r.element_quads}
            done |= orbit
            sizes.append(len(orbit))
    return tuple(sorted(sizes))


def test_fiber_degrees_match_brute_force_orbits():
    rng = random.Random(111)
    for n in (5, 7, 8, 9):
        pool = _helpers.structural_pool(n, max_order=5000)
        # a context built directly keeps R = {I} without -I, so R walks
        # with no generators at all; FullGroup's generators are the ambient ones
        trivial = GeneratedGroup(n, [])
        assert trivial.generator_quads() == ()
        images = [FullGroup(n), trivial] + rng.sample(pool, 2)
        for r in images:
            ctx = points.GaloisImageContext(image=r)
            for h in rng.sample(pool, 3):
                assert fiber_degrees(ctx, h) == _brute_fiber(r, h), (n, r.kind, h.kind)


def test_fiber_degrees_scale_with_dj():
    ctx1 = galois_context(nonsplit_cartan_normalizer(5))
    ctx2 = galois_context(nonsplit_cartan_normalizer(5), d_j=2)
    h = borel(5, delta_pm1(5))
    assert fiber_degrees(ctx2, h) == tuple(2 * d for d in fiber_degrees(ctx1, h))


def test_fiber_degrees_reject_general_aut():
    aut = GeneratedGroup(5, [(2, 0, 0, 1)])
    ctx = galois_context(FullGroup(5), aut=aut)
    with pytest.raises(ValueError):
        fiber_degrees(ctx, borel(5, delta_full(5)))


# ------------------------------------------- descent to a lifted image's level

def _lifted_images(n):
    """Full preimages at n of a base at every proper divisor m: Borel with
    trivial Delta and up to three Delta containing -1, and the Cartan
    normalizer at m in (3, 5, 7, 9). m = 1 is built directly, since
    lift_subgroup turns it into FullGroup(n)."""
    out = [LiftedGroup(FullGroup(1), n)]
    for m in divisors(n)[1:-1]:
        bases = [borel(m, delta_trivial(m))]
        bases += [borel(m, d) for d in _helpers.deltas_with_minus_one(m)[:3]]
        if m in (3, 5, 7, 9):
            bases.append(nonsplit_cartan_normalizer(m))
        out += [LiftedGroup(b, n) for b in bases]
    return out


def _structure_groups(n):
    """One H of each kind at n; generated ones only where keys stay cheap."""
    p = _helpers.least_prime_factor(n)
    out = [borel(n, delta_pm1(n)), borel(n, delta_trivial(n)),
           lift_subgroup(borel(p, delta_pm1(p)), n), SL2Part(borel(n, delta_pm1(n)))]
    if _helpers.is_odd_prime_power(n):
        out.append(nonsplit_cartan_normalizer(n))
    if gl2_order(n) <= 5_000:
        g = (1, 1, 1, 2)  # det 1: conjugate B(n) by it
        out.append(GeneratedGroup(n, [quad_mul(n, quad_mul(n, quad_inv(n, g), q), g)
                                      for q in borel(n, delta_pm1(n)).generator_quads()]))
    return out


def _with_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, len(caught)


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12, 14, 16, 18, 25, 27])
def test_descent_matches_the_walk_at_the_image_modulus(n):
    for r in _lifted_images(n):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ctx = galois_context(r)
        for i, h in enumerate(_structure_groups(n)):
            case = (n, r.base.n, r.base.kind, i, h.kind)
            # the walk descends to the base object itself
            assert preimage_descent(r, h)[0] is r.base, case
            assert (_with_warnings(fiber_degrees, ctx, h)
                    == _with_warnings(_helpers.reference_fiber_degrees, ctx, h)), case
            assert (_with_warnings(point_degree, ctx, h)
                    == _with_warnings(_helpers.reference_point_degree, ctx, h)), case
            assert index_via_orbit(r, h) == _helpers.reference_index(r, h), case
            assert (index_via_orbit(ctx.image, h)
                    == _helpers.reference_index(ctx.image, h)), case


# --------------------------------------------------------- level reduction

def test_level_reduction_pinned_example():
    r = lift_subgroup(nonsplit_cartan_normalizer(5), 25)
    ctx = galois_context(r)
    res = level_reduction(ctx, borel(25, delta_full(25)), 1)
    assert res.lhs == res.rhs == 5
    assert res.equal
    assert res.hypothesis_holds


def test_level_reduction_when_target_already_at_that_level():
    r = lift_subgroup(nonsplit_cartan_normalizer(5), 25)
    ctx = galois_context(r)
    h = lift_subgroup(borel(5, delta_pm1(5)), 25)
    res = level_reduction(ctx, h, 1)
    assert res.lhs == res.rhs == 1
    assert res.equal


def test_level_reduction_trivial_for_full_image():
    ctx = galois_context(FullGroup(27))
    res = level_reduction(ctx, borel(27, delta_pm1(27)), 1)
    assert res.equal
    assert res.rhs == index_via_orbit(res.h_prime, borel(27, delta_pm1(27)))


def test_level_reduction_without_hypothesis_is_advisory():
    # the image has full level here, so the divisibility hypothesis fails,
    # yet the identity may still hold; the result must report both facts
    ctx = galois_context(nonsplit_cartan_normalizer(25))
    res = level_reduction(ctx, borel(25, delta_pm1(25)), 1)
    assert not res.hypothesis_holds
    assert res.lhs == res.rhs == 25


def test_level_reduction_non_dividing_indices_raise(monkeypatch):
    # fine index 5 over coarse index 3
    indices = iter([5, 3, 1])
    monkeypatch.setattr(points, "index_via_orbit", lambda r, h: next(indices))
    ctx = galois_context(FullGroup(25))
    with pytest.raises(NonIntegral):
        level_reduction(ctx, borel(25, delta_full(25)), 1)


def test_level_reduction_randomized_structural_suite():
    rng = random.Random(111)
    cases = 0
    while cases < 40:
        ell, e = rng.choice(((5, 2), (3, 3), (2, 5), (7, 2)))
        n = ell ** e
        b = rng.randint(0, e - 1)
        base_mod = ell ** b
        if base_mod == 1:
            r = FullGroup(n)
        elif _helpers.is_odd_prime_power(base_mod) and rng.random() < 0.4:
            r = lift_subgroup(nonsplit_cartan_normalizer(base_mod), n)
        else:
            r = lift_subgroup(borel(base_mod, _helpers.random_delta(rng, base_mod)), n)
        h = borel(n, _helpers.random_delta(rng, n))
        m = rng.randint(b, e)
        res = level_reduction(galois_context(r), h, m)
        assert res.hypothesis_holds, (ell, e, b, m)
        assert res.equal, (ell, e, b, m, r.kind)
        cases += 1


def test_level_reduction_rejects_composite_modulus():
    with pytest.raises(ValueError):
        level_reduction(galois_context(FullGroup(12)), borel(12, delta_pm1(12)), 1)


# -------------------------------------------------------------- inequality

def test_degree_monotonicity_along_maps():
    """Nested groups: the degree upstairs never exceeds the map degree times
    the degree downstairs, with equality in the lifted setting."""
    rng = random.Random(112)
    for _ in range(25):
        n = rng.choice((8, 9, 16, 25, 27))
        pe = _helpers.prime_power_exponent(n)
        h = borel(n, _helpers.random_delta(rng, n))
        hp = lift_subgroup(reduce_subgroup(h, pe[0]), n)
        if _helpers.is_odd_prime_power(n) and rng.random() < 0.5:
            r = nonsplit_cartan_normalizer(n)
        else:
            r = FullGroup(n)
        ctx = galois_context(r)
        up = point_degree(ctx, h)
        down = point_degree(ctx, hp)
        assert up <= map_degree(h, hp) * down
        if r.kind == "full":
            assert up == map_degree(h, hp) * down


# ----------------------------------------------------------------- screens

def test_rr_screen_examples():
    assert rr_screen(30, 1, 4) is Verdict.FORCED_P1
    assert rr_screen(1, 1, 0) is Verdict.FORCED_P1
    assert rr_screen(3, 1, 3) is Verdict.INCONCLUSIVE


def test_rr_screen_monotone_in_degree():
    for r, g in itertools.product((1, 2, 3), (0, 1, 4)):
        fired = False
        for degree in range(1, 30):
            v = rr_screen(degree, r, g)
            if fired:
                assert v is Verdict.FORCED_P1
            fired = fired or v is Verdict.FORCED_P1


def test_verdict_text():
    assert str(Verdict.FORCED_P1) == "ForcedP1Parametrized"
    assert str(Verdict.INCONCLUSIVE) == "Inconclusive"


# ----------------------------------------------------------- closed forms

def test_cartan_degree_formula_examples():
    assert cartan_degree_formula(5, 1, 2) == 12
    assert cartan_degree_formula(7, 2, 14) == 168


def test_cartan_degree_formula_orbit_cross_check_at_49():
    d14 = unit_subgroup(49, [3 ** 3 % 49])  # order 14 subgroup
    assert d14.order == 14
    ctx = galois_context(nonsplit_cartan_normalizer(49))
    assert point_degree(ctx, borel(49, d14)) == 168


def test_cartan_degree_formula_full_delta_collapses():
    for ell, n in ((5, 1), (7, 1), (5, 2), (11, 1)):
        phi = len(units(ell ** n))
        assert cartan_degree_formula(ell, n, phi) == ell ** (n - 1) * (ell + 1)


def test_cartan_degree_formula_validation():
    with pytest.raises(ValueError):
        cartan_degree_formula(2, 1, 2)
    with pytest.raises(ValueError):
        cartan_degree_formula(5, 0, 2)
    with pytest.raises(ValueError):
        cartan_degree_formula(5, 1, 5)  # odd subgroup order
    with pytest.raises(NonIntegral):
        cartan_degree_formula(5, 1, 16)


def test_semidirect_lower_bound_examples():
    assert semidirect_lower_bound(7, 14) == 24
    assert semidirect_lower_bound(11, 10) == 132
    assert semidirect_lower_bound(13, 78) == 28
    with pytest.raises(NonIntegral):
        semidirect_lower_bound(5, 16)


def test_formula_matches_orbit_for_all_small_parameters():
    """Cross-validation grid: closed form against coset orbits."""
    for ell in (5, 7):
        for n in (1, 2):
            q = ell ** n
            ctx = galois_context(nonsplit_cartan_normalizer(q))
            for delta in unit_subgroups_containing_minus_one(q):
                got = point_degree(ctx, borel(q, delta))
                assert got == cartan_degree_formula(ell, n, delta.order)


@pytest.mark.parametrize("ell, n", [(3, 3), (3, 4), (5, 3), (7, 3), (5, 4)])
def test_cartan_degree_formula_past_level_two(ell, n):
    q = ell ** n
    ctx = galois_context(nonsplit_cartan_normalizer(q))
    for delta in unit_subgroups_containing_minus_one(q):
        got = point_degree(ctx, borel(q, delta))
        assert got == cartan_degree_formula(ell, n, delta.order), delta.order

