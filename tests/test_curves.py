"""Coset spaces, elliptic point counts, cusps, genus, and map degrees."""

import random
import time
import warnings

import pytest

from modscreen import chain, curves, subgroups
from modscreen.curves import (CosetSpace, CurveData, coset_space, curve_data,
                              curve_genus, genus_from_counts, label_prefix,
                              map_degree)
from modscreen.errors import (InvariantFailed, NonIntegral, NotASubgroup,
                              NotFullDeterminant)
from modscreen.subgroups import (FullGroup, GeneratedGroup, SL2Part,
                                 adjoin_minus_i, borel, borel_index,
                                 contains_minus_i, gl2_order,
                                 identity_quad, lift_subgroup,
                                 nonsplit_cartan_normalizer, sl2_order)
from modscreen.zmod import (delta_full, delta_pm1, delta_trivial, factorize,
                            unit_group_generators, unit_subgroup,
                            unit_subgroups_containing_minus_one, units)

import _helpers
import _oracles


def _perm_apply(perm, times, i):
    for _ in range(times):
        i = perm[i]
    return i


# ---------------------------------------------------------------- SL2 part

def test_sl2_part_of_full_group():
    s = SL2Part(FullGroup(8))
    assert s.order == sl2_order(8)
    assert all(s.member_quad(q) for q in s.generator_quads())


def test_sl2_part_of_borel():
    s = SL2Part(borel(5, delta_full(5)))
    assert s.order == 20
    assert len(s.element_quads) == 20


def test_sl2_part_keeps_minus_i():
    s = SL2Part(borel(7, delta_pm1(7)))
    assert s.member_quad((6, 0, 0, 6))


# ------------------------------------------------------------- coset space

def test_coset_space_of_full_group_is_a_point():
    cs = coset_space(FullGroup(11))
    assert cs.mu == 1
    assert cs.genus == 0


def test_coset_space_coset_counts():
    assert coset_space(borel(5, delta_full(5))).mu == 6
    d4 = unit_subgroup(169, [70])  # 70 has order 4 mod 169
    assert d4.order == 4
    assert coset_space(borel(169, d4)).mu == 7098


def test_coset_space_rejects_small_determinant_image():
    h = GeneratedGroup(5, [(4, 0, 0, 4)])
    with pytest.raises(NotFullDeterminant):
        coset_space(h)


def test_permutations_are_bijections_with_pinned_orders():
    for h in (borel(8, delta_pm1(8)), borel(9, delta_full(9)),
              nonsplit_cartan_normalizer(5), lift_subgroup(borel(3, delta_pm1(3)), 9)):
        cs = coset_space(h)
        mu = cs.mu
        assert sorted(cs.perm_s) == list(range(mu))
        assert sorted(cs.perm_t) == list(range(mu))
        for i in range(mu):
            assert _perm_apply(cs.perm_s, 4, i) == i
        # with -I in the group the s-action is already an involution
        assert all(cs.perm_s[cs.perm_s[i]] == i for i in range(mu))


def test_order_six_word_acts_trivially_when_cubed():
    for h in (borel(7, delta_full(7)), borel(25, delta_pm1(25))):
        cs = coset_space(h)
        for i in range(cs.mu):
            j = i
            for _ in range(6):
                j = cs.perm_t[cs.perm_s[j]]
            assert j == i


def test_cusp_widths_sum_to_mu():
    for h in (borel(4, delta_full(4)), borel(25, delta_pm1(25)),
              nonsplit_cartan_normalizer(7)):
        cs = coset_space(h)
        assert sum(cs.cusp_widths) == cs.mu
        assert len(cs.cusp_widths) == cs.nu_inf


def test_cusp_widths_at_level_four():
    # widths of the three cusps at level 4 are 1, 1, 4
    cs = coset_space(borel(4, delta_full(4)))
    assert cs.cusp_widths == (1, 1, 4)


# -------------------------------------------------------------- curve data

def test_curve_data_level_one():
    d = curve_data(FullGroup(1))
    assert (d.mu, d.nu2, d.nu3, d.nu_inf, d.genus) == (1, 1, 1, 1, 0)
    assert d.label_prefix == "1.1.0"


def test_curve_data_against_classical_formulas_spot():
    for n in (2, 3, 4, 5, 11, 27, 49):
        got = curve_data(borel(n, delta_full(n)))
        assert (got.mu, got.nu2, got.nu3, got.nu_inf, got.genus) == \
            _oracles.gamma0_data(n), n
    for n in (2, 4, 5, 11, 25):
        got = curve_data(borel(n, delta_pm1(n)))
        assert (got.mu, got.nu2, got.nu3, got.nu_inf, got.genus) == \
            _oracles.gamma1_data(n), n


@pytest.mark.parametrize("n", [30, 121, 169])
def test_generated_split_cartan_has_the_curve_of_gamma0_n_squared(n):
    # C_s(N), the diagonal units, meets SL2(Z) in a conjugate of Gamma0(N^2)
    # by diag(N, 1). Its cosets are walked by chain keys with |A| = |D| =
    # phi(N), one class lookup each: 0.24 s at 169 on a 2.0 GHz Xeon core,
    # where a min over A and over D per key took 4.4 s.
    gens = [q for u in unit_group_generators(n) for q in ((u, 0, 0, 1), (1, 0, 0, u))]
    start = time.perf_counter()
    got = curve_data(GeneratedGroup(n, gens))
    assert time.perf_counter() - start < 2
    assert tuple(got)[:5] == _oracles.gamma0_data(n * n)


def test_curve_data_adjoins_minus_i_with_warning():
    with pytest.warns(UserWarning):
        got = curve_data(borel(5, delta_trivial(5)))
    want = curve_data(borel(5, delta_pm1(5)))
    assert (got.mu, got.nu2, got.nu3, got.nu_inf, got.genus) == \
        (want.mu, want.nu2, want.nu3, want.nu_inf, want.genus)


def test_genus_formula_integrality_over_pool():
    for n in (8, 9, 12, 25):
        for h in _helpers.structural_pool(n, max_order=30000):
            d = curve_data(h)
            assert 12 * (d.genus - 1) + 3 * d.nu2 + 4 * d.nu3 + 6 * d.nu_inf == d.mu
            assert d.genus >= 0


def test_curve_genus_silent_helper_agrees():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = curve_genus(borel(25, delta_trivial(25)))
    assert g == curve_data(borel(25, delta_pm1(25))).genus


# ------------------------------------------------ closed-form Borel counts

def _deltas_with_minus_one(n):
    return (unit_subgroups_containing_minus_one(n) if n >= 3
            else (delta_full(n),))


def _walked_counts(n, delta):
    return coset_space(adjoin_minus_i(borel(n, delta))).counts


def test_borel_curve_counts_match_the_walk_to_level_64():
    # every Delta containing -1, and the trivial Delta (+-1 once -I is
    # adjoined), composite levels included
    wrong = []
    for n in range(1, 65):
        for delta in _deltas_with_minus_one(n) + (delta_trivial(n),):
            got, walked = borel(n, delta).curve_counts(), _walked_counts(n, delta)
            if got != walked:
                wrong.append((n, delta.elements, got, walked))
    assert wrong == []


@pytest.mark.parametrize("n", [72, 100, 108, 144])
def test_borel_curve_counts_match_the_walk_where_divisors_share_a_cusp_modulus(n):
    # lcm(d, n/d) takes one value on several pairs {d, n/d} here, as m = 72
    # at 72 for d = 1, 8, 9 and 72, so each |+-Delta mod m| is read back
    for delta in _deltas_with_minus_one(n) + (delta_trivial(n),):
        assert borel(n, delta).curve_counts() == _walked_counts(n, delta), delta


@pytest.mark.parametrize("n", [125, 243, 256])
def test_borel_curve_counts_match_the_walk_at_deep_levels(n):
    for delta in _deltas_with_minus_one(n):
        assert borel(n, delta).curve_counts() == _walked_counts(n, delta), delta


def test_borel_curve_counts_against_classical_formulas_at_prime_powers():
    prime_powers = [n for n in range(2, 626) if len(factorize(n)) == 1]
    for n in prime_powers:
        for delta, classical in ((delta_full(n), _oracles.gamma0_data),
                                 (delta_trivial(n), _oracles.gamma1_data)):
            counts = borel(n, delta).curve_counts()
            assert counts + (genus_from_counts(n, *counts),) == classical(n), n


def test_kinds_without_a_closed_form_return_none():
    for h in (nonsplit_cartan_normalizer(5),
              lift_subgroup(borel(3, delta_pm1(3)), 9)):
        assert h.curve_counts() is None


def test_full_group_counts_are_one_fixed_coset():
    for n in range(1, 31):
        assert FullGroup(n).curve_counts() == coset_space(FullGroup(n)).counts


def test_lifted_curves_are_their_bases_curves():
    # curve_data takes a lift's counts from its base; the oracle walks the
    # cosets at the lifted level
    checked = 0
    for n in range(2, 28):
        for g in _helpers.structural_pool(n):
            if g.kind == "lifted":
                d = curve_data(g)
                walked = coset_space(adjoin_minus_i(g)).counts
                assert (d.mu, d.nu2, d.nu3, d.nu_inf) == walked, (n, g)
                checked += 1
    assert checked > 50


# ------------------------------------------------- class counts at a prime

def _prime_level_groups(ell):
    """Seeded groups mod the prime ell with full determinant: random ones
    (with diag(1, u) for the unit generators), a conjugate of the Borel of
    every Delta and of the nonsplit Cartan normalizer; each as given and
    with -I appended."""
    rng = random.Random(2400 + ell)
    diag = [(1, 0, 0, u) for u in unit_group_generators(ell)]
    gen_lists = [_helpers.generator_list(rng, ell, count) + diag
                 for count in (1, 1, 2, 2)]
    deltas = {unit_subgroup(ell, [x]) for x in units(ell)}
    structural = [borel(ell, d) for d in sorted(deltas, key=lambda d: d.elements)]
    if ell > 2:
        structural.append(nonsplit_cartan_normalizer(ell))
    for h in structural:
        c = _helpers.generator_list(rng, ell, 1)[0]
        gen_lists.append([chain._conjugate(ell, c, g)
                          for g in h.generator_quads()])
    for gens in gen_lists:
        yield GeneratedGroup(ell, gens)
        yield GeneratedGroup(ell, gens + [(ell - 1, 0, 0, ell - 1)])


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11, 13])
def test_prime_counts_match_the_walk(monkeypatch, ell):
    # at 2 and 3 sigma or sigma*tau^-1 shares its characteristic polynomial
    # with a scalar or with tau; the counts at a prime walk no coset
    groups = list(_prime_level_groups(ell))
    walked = [coset_space(h).counts for h in groups]

    def refuse(*args):
        raise AssertionError("walked the cosets at a prime")

    monkeypatch.setattr(subgroups, "coset_action", refuse)
    monkeypatch.setattr(curves, "coset_action", refuse)
    assert [curves._counts(h) for h in groups] == walked
    # -I = I mod 2
    assert ell == 2 or any(not contains_minus_i(h) for h in groups)


# ------------------------------------------------------------- map degrees

def test_map_degree_examples():
    assert map_degree(borel(25, delta_pm1(25)), borel(25, delta_full(25))) == 10
    h = borel(7, delta_full(7))
    assert map_degree(h, h) == 1


def test_map_degree_to_level_one_is_borel_index():
    for n, delta in ((5, delta_full(5)), (25, delta_pm1(25)),
                     (9, delta_full(9))):
        assert map_degree(borel(n, delta), FullGroup(n)) == borel_index(n, delta)


def test_map_degree_rejects_non_nested():
    with pytest.raises(NotASubgroup):
        map_degree(borel(5, delta_full(5)), nonsplit_cartan_normalizer(5))


def test_map_degree_multiplicative_along_chains():
    d2 = delta_pm1(25)
    d4 = unit_subgroup(25, [7])  # 7*7 = -1 mod 25
    d20 = delta_full(25)
    lo, mid, hi = borel(25, d2), borel(25, d4), borel(25, d20)
    assert map_degree(lo, mid) * map_degree(mid, hi) == map_degree(lo, hi)

    lifted_mid = lift_subgroup(borel(5, delta_pm1(5)), 25)
    top = FullGroup(25)
    assert map_degree(lo, lifted_mid) * map_degree(lifted_mid, top) == \
        map_degree(lo, top)


# ------------------------------------------------------------------ labels

def test_label_prefix_examples():
    assert label_prefix(borel(49, delta_full(49))).startswith("49.56.1#")
    assert label_prefix(FullGroup(6)).startswith("1.1.0#")
    # level 25, ambient index 300, classical genus 12
    assert label_prefix(borel(25, delta_pm1(25))).startswith("25.300.12#")


def test_label_prefix_level_is_minimal():
    lifted = lift_subgroup(borel(5, delta_full(5)), 25)
    assert label_prefix(lifted).startswith("5.6.0#")


def test_label_prefix_deterministic_across_instances():
    a = label_prefix(borel(27, delta_pm1(27)))
    b = label_prefix(borel(27, delta_pm1(27)))
    assert a == b
    suffix = a.rsplit("#", 1)[1]
    assert len(suffix) == 8
    int(suffix, 16)  # hex digest chunk


def test_label_is_the_same_for_every_construction_route():
    b = borel(5, delta_full(5))
    routes = [
        b,
        GeneratedGroup(5, b.generator_quads() + ((2, 0, 0, 3),)),
        GeneratedGroup(5, reversed(b.generator_quads())),
        GeneratedGroup(5, sorted(b.element_quads)),
        lift_subgroup(b, 25),
    ]
    labels = {label_prefix(h) for h in routes}
    assert len(labels) == 1, labels
    assert labels.pop().startswith("5.6.0#")


def test_label_uses_reduced_group_at_its_level():
    thin = borel(25, delta_full(25))
    preimage = lift_subgroup(borel(5, delta_full(5)), 25)
    assert label_prefix(thin).split("#")[0] == "25.30.0"
    assert label_prefix(preimage).split("#")[0] == "5.6.0"


def test_adjoin_warnings_point_at_the_caller():
    for fn in (curve_data, label_prefix):
        with pytest.warns(UserWarning, match="adjoined -I") as record:
            fn(borel(5, delta_trivial(5)))
        assert [w.filename for w in record] == [__file__], fn


# ------------------------------------------------ invariants raise typed

def test_non_integral_genus_raises():
    n = 5
    q = identity_quad(n)
    # 12 + 2 - 0 - 0 - 6 * 2 = 2, not a multiple of 12
    space = CosetSpace(n=n, reps=(q, q), perm_s=(1, 0), perm_t=(0, 1))
    with pytest.raises(NonIntegral):
        space.genus


def test_coset_count_mismatch_raises(monkeypatch):
    monkeypatch.setattr(curves, "sl2_order", lambda n: 7)
    with pytest.raises(InvariantFailed):
        coset_space(borel(5, delta_full(5)))


def test_ambient_order_not_divisible_raises(monkeypatch):
    # the index [GL2 : +-H] is a quotient of orders (subgroups.nested_index),
    # and FullGroup reads gl2_order from its own module
    monkeypatch.setattr(subgroups, "gl2_order", lambda n: 81)
    with pytest.raises(NonIntegral, match="order 80 does not divide order 81"):
        curve_data(borel(5, delta_full(5)))


# ------------------------------------------------------------ genus tables

def test_intermediate_genus_values_from_the_tables():
    d4 = unit_subgroup(25, [7])
    d10 = unit_subgroup(25, [4])
    assert curve_genus(borel(25, d4)) == 4
    assert curve_genus(borel(25, d10)) == 0
    d6 = unit_subgroup(27, [5 ** 3 % 27])  # 125 = 17 has order 6 mod 27
    assert d6.order == 6
    assert curve_genus(borel(27, d6)) == 1
    d4_32 = unit_subgroup(32, [15, 17])
    d8_32 = unit_subgroup(32, [31, 9])
    assert (d4_32.order, d8_32.order) == (4, 8)
    assert curve_genus(borel(32, d4_32)) == 5
    assert curve_genus(borel(32, d8_32)) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_genus_below_six_is_zero_at_full_determinant(monkeypatch, n):
    # X(n) has genus 0 for n <= 5 and covers every curve of full
    # determinant: curve_genus counts nothing there and builds no chain,
    # and it refuses the other groups as the walk does
    rng = random.Random(3700 + n)
    diag = [(1, 0, 0, u) for u in unit_group_generators(n)]
    gen_lists = [_helpers.generator_list(rng, n, count) + diag[:rng.randint(0, 1)]
                 for count in (1, 1, 2, 2, 3) for _ in range(6)]
    expected = []
    for gens in gen_lists:
        h = GeneratedGroup(n, gens)
        if h.has_full_determinant():
            expected.append(genus_from_counts(
                n, *coset_space(adjoin_minus_i(h)).counts))
        else:
            with pytest.raises(NotFullDeterminant):
                coset_space(adjoin_minus_i(h))
            expected.append(NotFullDeterminant)

    def refuse(self, n, gens):
        raise AssertionError("built a stabilizer chain")

    monkeypatch.setattr(chain.StabilizerChain, "__init__", refuse)
    for gens, want in zip(gen_lists, expected):
        h = GeneratedGroup(n, gens)
        if want is NotFullDeterminant:
            with pytest.raises(NotFullDeterminant):
                curve_genus(h)
        else:
            assert curve_genus(h) == want == 0, gens
    assert 0 in expected
    assert n == 2 or NotFullDeterminant in expected


def test_genus_of_cartan_normalizer_curves():
    assert curve_genus(nonsplit_cartan_normalizer(5)) == 0
    assert curve_genus(nonsplit_cartan_normalizer(7)) == 0
    assert curve_genus(nonsplit_cartan_normalizer(11)) == 1
