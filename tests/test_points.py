"""Point degrees, fiber decompositions, level reduction, and the screens."""

import itertools
import random
import time
import warnings

import pytest

from modscreen import chain, points, subgroups
from modscreen.curves import map_degree
from modscreen.errors import ModulusMismatch, NonIntegral
from modscreen.points import (GaloisImageContext, Verdict,
                              cartan_degree_formula, fiber_degrees,
                              level_reduction, point_degree,
                              point_degree_general, rr_screen,
                              semidirect_lower_bound)
from modscreen.subgroups import (FullGroup, GeneratedGroup,
                                 LiftedGroup, SL2Part, adjoin_minus_i, borel,
                                 contains_minus_i, coset_action, gl2_order,
                                 index_via_orbit, kernel_generator_quads,
                                 level, lift_subgroup, minus_identity_quad,
                                 nonsplit_cartan_normalizer, preimage_descent,
                                 reduce_subgroup)
from modscreen.zmod import (delta_full, delta_pm1, delta_trivial, divisors,
                            quad_inv, quad_is_invertible, quad_mul,
                            unit_group_generators,
                            unit_subgroup,
                            unit_subgroups_containing_minus_one, units)

import _helpers


# ----------------------------------------------------------------- context

def test_context_validates_dj():
    with pytest.raises(ValueError):
        GaloisImageContext(FullGroup(5), d_j=0)


def test_context_validates_aut_modulus():
    with pytest.raises(ModulusMismatch, match="aut mod 7 against image mod 5"):
        point_degree_general(GaloisImageContext(FullGroup(5)),
                             borel(5, delta_pm1(5)), aut=FullGroup(7))


@pytest.mark.parametrize("d_j", [0, -2])
def test_a_directly_built_context_validates_dj(d_j):
    # a d_j below 1 would give degrees <= 0
    with pytest.raises(ValueError, match="j-field degree must be >= 1"):
        points.GaloisImageContext(FullGroup(5), d_j=d_j)


def test_a_directly_built_context_validates_aut_modulus(monkeypatch):
    # A is an argument of the general formula alone, checked before any walk
    def no_walk(*args):
        raise AssertionError("walked before the modulus check")

    monkeypatch.setattr(points, "index_via_orbit", no_walk)
    ctx = points.GaloisImageContext(nonsplit_cartan_normalizer(5))
    with pytest.raises(ModulusMismatch, match="aut mod 7 against image mod 5"):
        point_degree_general(ctx, borel(5, delta_pm1(5)),
                             aut=GeneratedGroup(7, [(6, 0, 0, 6)]))


def _count_chains(monkeypatch):
    """The moduli of the stabilizer chains built from here on."""
    moduli = []
    init = subgroups.StabilizerChain.__init__

    def counting(self, n, gens):
        moduli.append(n)
        init(self, n, gens)

    monkeypatch.setattr(subgroups.StabilizerChain, "__init__", counting)
    return moduli


def test_context_takes_the_image_as_given(monkeypatch):
    # every degree is over +-H, and R and +-R have the same orbits on its
    # cosets: the image is kept as it is, with no -I test and no notice
    chains = _count_chains(monkeypatch)
    image = GeneratedGroup(5, [(1, 1, 0, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ctx = GaloisImageContext(image)
    assert ctx.image is image
    assert chains == []
    assert not contains_minus_i(image)


def _conjugated_borel(n, c):
    """B(n) with trivial Delta conjugated by c: no -I in it for n > 2."""
    ci = quad_inv(n, c)
    return [quad_mul(n, quad_mul(n, ci, g), c)
            for g in borel(n, delta_trivial(n)).generator_quads()]


@pytest.mark.parametrize("n", [4, 8, 9, 16, 25, 27])
def test_degrees_are_the_same_with_minus_i_appended(n):
    rng = random.Random(2200 + n)
    diagonal = [(1, 0, 0, u) for u in unit_group_generators(n)]
    images = [_helpers.generator_list(rng, n, count)
              for count in (1, 1, 1, 2, 2, 3)]
    images += [_helpers.generator_list(rng, n, 1) + diagonal,
               _conjugated_borel(n, _helpers.generator_list(rng, n, 1)[0])]
    hs = [borel(n, delta_pm1(n)), borel(n, delta_full(n)),
          borel(n, _helpers.random_delta(rng, n))]
    exponent = _helpers.prime_power_exponent(n)[1]
    without = 0
    for gens in images:
        r = GeneratedGroup(n, gens)
        without += not contains_minus_i(r)
        ctx = GaloisImageContext(r)
        pm = GaloisImageContext(GeneratedGroup(n, gens + [minus_identity_quad(n)]))
        for h in hs:
            case = (n, gens, h.delta.order)
            assert point_degree(ctx, h) == point_degree(pm, h), case
            assert fiber_degrees(ctx, h) == fiber_degrees(pm, h), case
            for m in range(exponent + 1):
                got, want = level_reduction(ctx, h, m), level_reduction(pm, h, m)
                assert ((got.lhs, got.rhs, got.equal, got.hypothesis_holds)
                        == (want.lhs, want.rhs, want.equal,
                            want.hypothesis_holds)), (case, m)
    assert without >= 1


# ------------------------------------------------------------ point degree

def test_point_degree_examples():
    ctx = GaloisImageContext(nonsplit_cartan_normalizer(5))
    assert point_degree(ctx, borel(5, delta_pm1(5))) == 12

    full = GaloisImageContext(FullGroup(7))
    h = borel(7, delta_pm1(7))
    assert point_degree(full, h) == gl2_order(7) // h.order

    same = GaloisImageContext(borel(7, delta_full(7)), d_j=3)
    assert point_degree(same, borel(7, delta_full(7))) == 3


def test_point_degree_scales_with_dj():
    h = borel(5, delta_pm1(5))
    base = point_degree(GaloisImageContext(nonsplit_cartan_normalizer(5)), h)
    tripled = point_degree(GaloisImageContext(nonsplit_cartan_normalizer(5), d_j=3), h)
    assert tripled == 3 * base


def test_point_degree_general_reduces_to_plus_minus():
    r = nonsplit_cartan_normalizer(5)
    h = borel(5, delta_pm1(5))
    pm = GeneratedGroup(5, [(4, 0, 0, 4)])
    assert point_degree_general(GaloisImageContext(r), h, aut=pm) == \
        point_degree(GaloisImageContext(r), h)


def test_point_degree_general_with_trivial_aut():
    r = nonsplit_cartan_normalizer(5)
    one = GeneratedGroup(5, [])
    h = borel(5, delta_pm1(5))
    assert point_degree_general(GaloisImageContext(r), h, aut=one) == \
        index_via_orbit(r, h)


def _normalizes(r, aut):
    """Whether every element of R conjugates every element of A into A."""
    n, inside = r.n, aut.element_quads
    return all(quad_mul(n, quad_mul(n, x, a), quad_inv(n, x)) in inside
               for x in r.element_quads for a in inside)


def _scanned_degrees(ambient, r, aut, hs):
    """|RA| / |RA meet AH| for each H by predicate scans, None where
    |RA meet AH| does not divide |RA|.

    x lies in R*A iff x*a^-1 lands in R for some a, and in A*H iff a^-1*x
    lands in H for some a, so the scan never builds products in the same
    order as the implementation does.
    """
    n = r.n
    inside = r.element_quads
    inv_auts = [quad_inv(n, a) for a in aut.element_quads]
    ra = [x for x in ambient if any(quad_mul(n, x, ai) in inside for ai in inv_auts)]
    out = []
    for h in hs:
        both = sum(1 for x in ra
                   if any(h.member_quad(quad_mul(n, ai, x)) for ai in inv_auts))
        out.append(None if len(ra) % both else len(ra) // both)
    return out


def test_point_degree_general_against_set_arithmetic_mod_seven():
    """Derive RA and AH by predicate scans over all of GL2(Z/7) and compare;
    a draw whose R does not normalize A is refused. At this seed every draw
    is refused: the oracle test below draws normalizing pairs on purpose."""
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
        ctx = GaloisImageContext(r)
        checked += 1
        if not _normalizes(r, aut):
            with pytest.raises(ValueError, match="does not normalize"):
                point_degree_general(ctx, h, aut=aut)
            continue
        want, = _scanned_degrees(ambient, r, aut, [h])
        if want is None:
            with pytest.raises(NonIntegral):
                point_degree_general(ctx, h, aut=aut)
        else:
            assert point_degree_general(ctx, h, aut=aut) == want
    assert checked >= 12


def test_point_degree_general_default_aut_is_the_plus_minus_path():
    """aut=None stands for {I, -I}: the general formula's quotient gives the
    index the walk gives, over the structural pools and over a Borel group
    without -I, whose [A : A meet H] = 2 halves [RA : RA meet H] as the
    walk's adjoining does."""
    rng = random.Random(112)
    for n in (5, 7, 8, 9):
        pool = _helpers.structural_pool(n, max_order=5000)
        pairs = rng.sample(list(itertools.product(pool, pool)), 8)
        pairs += [(r, borel(n, delta_trivial(n))) for r in rng.sample(pool, 2)]
        for r, h in pairs:
            ctx = GaloisImageContext(r)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = point_degree(ctx, h)
            assert point_degree_general(ctx, h) == want, (n, r.kind, h.kind)


def _rho_image(rng, n, rho):
    """R generated by two seeded units x + y*rho, which commute with rho, and
    the swap (0 1; 1 0), which inverts both rho below: R normalizes <rho>."""
    gens = [(0, 1, 1, 0)]
    while len(gens) < 3:
        x, y = rng.randrange(n), rng.randrange(n)
        q = (x, -y % n, y % n, (x + y * rho[3]) % n)
        if quad_is_invertible(n, q):
            gens.append(q)
    return gens


def _rhos(n):
    """(0 -1; 1 1) of order 6, the j = 0 automorphisms, and (0 -1; 1 0) of
    order 4, the j = 1728 ones."""
    return (0, n - 1, 1, 1), (0, n - 1, 1, 0)


@pytest.mark.parametrize("n", [5, 7, 8, 9, 13])
def test_point_degree_general_against_the_scan(n):
    """d_j * |RA| / |RA meet AH| by predicate scans over GL2(Z/n), for
    A = <rho> under R of _rho_image and that pair conjugated by a seeded
    matrix, and for A = <rho>, {I}, {I, -I} and the scalars under R and
    under the swap alone, which holds no element of A but I, so that RA is
    larger than R."""
    rng = random.Random(113 + n)
    ambient = sorted(FullGroup(n).element_quads)
    hs = _helpers.structural_pool(n, max_order=30000)
    hs.append(borel(n, delta_trivial(n)))
    c = _helpers.generator_list(rng, n, 1)[0]
    scalars = [(u, 0, 0, u) for u in unit_group_generators(n)]
    cases = []
    for rho in _rhos(n):
        gens = _rho_image(rng, n, rho)
        cases.append(([chain._conjugate(n, c, g) for g in gens],
                      [chain._conjugate(n, c, rho)]))
        for r_gens in (gens, [(0, 1, 1, 0)]):
            cases += [(r_gens, a) for a in
                      ([rho], [], [minus_identity_quad(n)], scalars)]
    for gens, a_gens in cases:
        r, aut = GeneratedGroup(n, gens), GeneratedGroup(n, a_gens)
        ctx = GaloisImageContext(r, d_j=2)
        for h, want in zip(hs, _scanned_degrees(ambient, r, aut, hs)):
            assert point_degree_general(ctx, h, aut=aut) == 2 * want, \
                (gens, a_gens, h.kind)


@pytest.mark.parametrize("n", [5, 7, 8, 9, 13])
def test_point_degree_general_refuses_a_pair_that_does_not_normalize(
        monkeypatch, n):
    """Adding the translation (1 1; 0 1) to R of _rho_image, or taking R the
    full group, breaks the normalization of <rho>: ValueError, before any
    walk."""
    rng = random.Random(127 + n)

    def no_walk(*args):
        raise AssertionError("walked before the normalization check")

    monkeypatch.setattr(points, "index_via_orbit", no_walk)
    h = borel(n, delta_pm1(n))
    for rho in _rhos(n):
        aut = GeneratedGroup(n, [rho])
        for r in (GeneratedGroup(n, _rho_image(rng, n, rho) + [(1, 1, 0, 1)]),
                  FullGroup(n)):
            assert not _normalizes(r, aut)
            with pytest.raises(ValueError, match="does not normalize"):
                point_degree_general(GaloisImageContext(r), h, aut=aut)


@pytest.mark.parametrize("n, want", [(343, (14406, 28812)),
                                     (625, (62500, 31250))])
def test_point_degree_general_is_fast_past_the_paper(n, want):
    """B_{+-1} at 343 and 625 under both rho: two walks of lines each, under
    a second where the product sets R*A and A*H took seconds. The degrees
    are the ones the product sets gave."""
    rng = random.Random(n)
    h = borel(n, delta_pm1(n))
    got = []
    for rho in _rhos(n):
        ctx = GaloisImageContext(GeneratedGroup(n, _rho_image(rng, n, rho)))
        start = time.perf_counter()
        got.append(point_degree_general(ctx, h, aut=GeneratedGroup(n, [rho])))
        assert time.perf_counter() - start < 1.0, (n, rho)
    assert tuple(got) == want


# ------------------------------------------------------------------ fibers

def test_fiber_degrees_single_orbit_for_full_image():
    h = borel(9, delta_full(9))
    ctx = GaloisImageContext(FullGroup(9))
    assert fiber_degrees(ctx, h) == (gl2_order(9) // h.order,)


def test_fiber_degrees_cartan_over_level_five():
    ctx = GaloisImageContext(nonsplit_cartan_normalizer(5))
    assert fiber_degrees(ctx, borel(5, delta_full(5))) == (6,)


def test_fiber_degrees_contain_the_identity_point_degree():
    ctx = GaloisImageContext(nonsplit_cartan_normalizer(7))
    h = borel(7, delta_pm1(7))
    assert point_degree(ctx, h) in set(fiber_degrees(ctx, h))


def test_fiber_degrees_partition_the_coset_space():
    rng = random.Random(110)
    for _ in range(10):
        n = rng.choice((5, 7, 8, 9, 12))
        pool = _helpers.structural_pool(n, max_order=20000)
        r = rng.choice(pool)
        h = rng.choice(pool)
        ctx = GaloisImageContext(r)
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
    ctx1 = GaloisImageContext(nonsplit_cartan_normalizer(5))
    ctx2 = GaloisImageContext(nonsplit_cartan_normalizer(5), d_j=2)
    h = borel(5, delta_pm1(5))
    assert fiber_degrees(ctx2, h) == tuple(2 * d for d in fiber_degrees(ctx1, h))


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
            ctx = GaloisImageContext(r)
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


def _refuse_walks_above_one(monkeypatch):
    """Every orbit walk raises at a modulus above 1 from here on."""
    def at_one(walk):
        def guarded(h, *args, **kwargs):
            if h.n != 1:
                raise AssertionError(f"{walk.__name__} of {h.kind} mod {h.n}")
            return walk(h, *args, **kwargs)
        return guarded
    monkeypatch.setattr(subgroups.BorelGroup, "orbit_sizes",
                        at_one(subgroups.BorelGroup.orbit_sizes))
    for name in ("quadratic_pair_orbits", "coset_action"):
        monkeypatch.setattr(subgroups, name, at_one(getattr(subgroups, name)))


@pytest.mark.parametrize("n", [8, 9, 25, 27, 49, 121])
def test_a_full_image_walks_nothing_above_modulus_one(monkeypatch, n):
    # GL2 is the preimage of GL2(Z/1): its one orbit there is every coset,
    # so the fiber is one point of degree [GL2 : +-H]. The trivial-Delta
    # Borel group lacks -I, where [GL2 : H] is twice that degree.
    full, walked = FullGroup(n), GeneratedGroup(n, FullGroup(n).generator_quads())
    groups = _helpers.structural_pool(n) + [borel(n, delta_trivial(n))]
    expected = []
    ctx = GaloisImageContext(walked)
    for h in groups:
        pm_index = gl2_order(n) // adjoin_minus_i(h).order
        by_walk = (_with_warnings(fiber_degrees, ctx, h)[0],
                   _with_warnings(point_degree, ctx, h)[0],
                   index_via_orbit(walked, h))
        assert by_walk == ((pm_index,), pm_index, gl2_order(n) // h.order)
        expected.append(by_walk)
    _refuse_walks_above_one(monkeypatch)
    with pytest.raises(AssertionError, match=f"^orbit_sizes of borel mod {n}$"):
        index_via_orbit(walked, groups[1])
    ctx = GaloisImageContext(full)
    for i, h in enumerate(groups):
        assert (_with_warnings(fiber_degrees, ctx, h)[0],
                _with_warnings(point_degree, ctx, h)[0],
                index_via_orbit(full, h)) == expected[i], (n, i, h.kind)


# --------------------------------------------------------- level reduction

def test_level_reduction_pinned_example():
    r = lift_subgroup(nonsplit_cartan_normalizer(5), 25)
    ctx = GaloisImageContext(r)
    res = level_reduction(ctx, borel(25, delta_full(25)), 1)
    assert res.lhs == res.rhs == 5
    assert res.equal
    assert res.hypothesis_holds


def test_level_reduction_when_target_already_at_that_level():
    r = lift_subgroup(nonsplit_cartan_normalizer(5), 25)
    ctx = GaloisImageContext(r)
    h = lift_subgroup(borel(5, delta_pm1(5)), 25)
    res = level_reduction(ctx, h, 1)
    assert res.lhs == res.rhs == 1
    assert res.equal


def test_level_reduction_trivial_for_full_image():
    ctx = GaloisImageContext(FullGroup(27))
    h = borel(27, delta_pm1(27))
    res = level_reduction(ctx, h, 1)
    # H' as level_reduction builds it: the full preimage of +-H mod 3
    h_prime = lift_subgroup(reduce_subgroup(adjoin_minus_i(h), 3), 27)
    assert res.equal
    assert res.rhs == index_via_orbit(h_prime, borel(27, delta_pm1(27)))


def test_level_reduction_without_hypothesis_is_advisory():
    # the image has full level here, so the divisibility hypothesis fails,
    # yet the identity may still hold; the result must report both facts
    ctx = GaloisImageContext(nonsplit_cartan_normalizer(25))
    res = level_reduction(ctx, borel(25, delta_pm1(25)), 1)
    assert not res.hypothesis_holds
    assert res.lhs == res.rhs == 25


def test_level_reduction_non_dividing_indices_raise(monkeypatch):
    # fine index 5 over coarse index 3
    indices = iter([5, 3, 1])
    monkeypatch.setattr(points, "index_via_orbit", lambda r, h: next(indices))
    ctx = GaloisImageContext(FullGroup(25))
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
        res = level_reduction(GaloisImageContext(r), h, m)
        assert res.hypothesis_holds, (ell, e, b, m)
        assert res.equal, (ell, e, b, m, r.kind)
        cases += 1


def test_level_reduction_hypothesis_reads_the_level_of_plus_minus_image():
    # R has order 16, no -I and level 8; R*diag(-1, -1) holds diag(5, 1),
    # so +-R holds the whole kernel mod 4 and has level 4
    r = GeneratedGroup(8, [(1, 4, 0, 1), (1, 0, 4, 1), (1, 0, 0, 5),
                           (3, 0, 0, 7)])
    assert (r.order, contains_minus_i(r), level(r)) == (16, False, 8)
    assert level(adjoin_minus_i(r)) == 4
    res = level_reduction(GaloisImageContext(r), borel(8, delta_pm1(8)), 2)
    assert (res.lhs, res.rhs, res.hypothesis_holds) == (4, 4, True)


def test_level_reduction_rejects_composite_modulus():
    with pytest.raises(ValueError):
        level_reduction(GaloisImageContext(FullGroup(12)), borel(12, delta_pm1(12)), 1)


# ------------------------------------------- index between nested groups

def _conjugated(n, c, h):
    """The group generated by c^-1 * H * c, a generated group."""
    ci = quad_inv(n, c)
    return GeneratedGroup(n, [quad_mul(n, quad_mul(n, ci, q), c)
                              for q in h.generator_quads()])


def _nested_pairs(n):
    """Seeded (H, G) with -I in H <= G mod n: Borel in Borel, in the lift of
    its reduction and in GL2, a lift in a lift, and each Borel pair
    conjugated into generated groups."""
    rng = random.Random(f"nested:{n}")
    m = rng.choice(divisors(n)[1:-1])
    p = _helpers.least_prime_factor(m)
    h = borel(n, _helpers.random_delta(rng, n))
    pairs = [(borel(n, delta_pm1(n)), h),
             (h, lift_subgroup(reduce_subgroup(h, m), n)),
             (h, FullGroup(n)),
             (lift_subgroup(borel(m, delta_pm1(m)), n),
              lift_subgroup(borel(m, _helpers.random_delta(rng, m)), n)),
             (lift_subgroup(borel(m, delta_pm1(m)), n),
              lift_subgroup(borel(p, delta_full(p)), n))]
    c = _helpers.generator_list(rng, n, 1)[0]
    return pairs + [(_conjugated(n, c, a), _conjugated(n, c, b))
                    for a, b in pairs[:2]]


NESTED_MODULI = [4, 8, 9, 12, 16, 18, 25, 27]


@pytest.mark.parametrize("n", NESTED_MODULI)
def test_map_degree_is_the_walked_index(n):
    for i, (h, g) in enumerate(_nested_pairs(n)):
        assert map_degree(h, g) == _helpers.reference_index(g, h), (n, i)


@pytest.mark.parametrize("n", [4, 8, 9, 16, 25, 27])
def test_level_reduction_rhs_is_the_walked_index(n):
    ctx = GaloisImageContext(FullGroup(n))
    ell, k = _helpers.prime_power_exponent(n)
    for i, (h, _) in enumerate(_nested_pairs(n)):
        for m in range(k + 1):
            res = level_reduction(ctx, h, m)
            # H' as level_reduction builds it: the full preimage of +-H mod l^m
            h_prime = lift_subgroup(reduce_subgroup(adjoin_minus_i(h), ell**m), n)
            assert res.rhs == index_via_orbit(h_prime, h) == \
                _helpers.reference_index(h_prime, h), (n, i, m)


@pytest.mark.parametrize("n", NESTED_MODULI)
def test_descent_scale_is_the_kernel_orbit(n):
    # over the full preimage of any group mod m, s = [K : K meet H], the
    # orbit of H*1 under the kernel's generators; GL2 mod m given by its
    # generators stands for that group, since FullGroup(m) itself declares
    # the preimage of modulus 1
    for i, (h, g) in enumerate(_nested_pairs(n)):
        for grp, m in itertools.product((h, g), divisors(n)):
            walked = coset_action(grp, kernel_generator_quads(n, m))[0]
            full_m = GeneratedGroup(m, FullGroup(m).generator_quads())
            scale = preimage_descent(LiftedGroup(full_m, n), grp)[2]
            assert scale == len(walked), (n, i, m)


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
        ctx = GaloisImageContext(r)
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
    ctx = GaloisImageContext(nonsplit_cartan_normalizer(49))
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
            ctx = GaloisImageContext(nonsplit_cartan_normalizer(q))
            for delta in unit_subgroups_containing_minus_one(q):
                got = point_degree(ctx, borel(q, delta))
                assert got == cartan_degree_formula(ell, n, delta.order)


@pytest.mark.parametrize("ell, n", [(3, 3), (3, 4), (5, 3), (7, 3), (5, 4)])
def test_cartan_degree_formula_past_level_two(ell, n):
    q = ell ** n
    ctx = GaloisImageContext(nonsplit_cartan_normalizer(q))
    for delta in unit_subgroups_containing_minus_one(q):
        got = point_degree(ctx, borel(q, delta))
        assert got == cartan_degree_formula(ell, n, delta.order), delta.order

