"""The stabilizer chain behind generated groups, against brute force.

Generator lists of one to four invertible quads at moduli 1..16, composite
moduli included, are checked against the element-by-element reference
closure: the chain's order, its membership test and its coset keys. The
keys, a canonical element of each coset picked by class lookups and one gcd
step, are checked against the least element of the coset taken over every
element of the column group C, on generated Borels of every Delta,
conjugated, and on upper-triangular lists, at moduli where neither entry of
the first column need be a unit.
"""

import functools
import itertools
import random
import tracemalloc

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import modscreen.subgroups  # noqa: E402
from modscreen.chain import _conjugate  # noqa: E402
from modscreen.curves import curve_genus  # noqa: E402
from modscreen.subgroups import (GeneratedGroup, borel,  # noqa: E402
                                 borel_order, contains_minus_i, level,
                                 reduce_subgroup)
from modscreen.zmod import (delta_full, delta_pm1, delta_trivial,  # noqa: E402
                            quad_is_invertible, quad_mul,
                            unit_subgroups_containing_minus_one)

import _helpers  # noqa: E402

# a fixed example sequence per test, and no example database on disk
PROPERTY = settings(deadline=None, derandomize=True, database=None)


@functools.cache
def gl2(n):
    return tuple(q for q in itertools.product(range(n), repeat=4)
                 if quad_is_invertible(n, q))


@st.composite
def generator_lists(draw, max_n):
    """(n, gens): invertible quads, some upper-triangular, so that groups
    with a small line orbit and a large line stabilizer come up too."""
    n = draw(st.integers(1, max_n))
    entry = st.integers(0, n - 1)
    quad = st.one_of(st.tuples(entry, entry, entry, entry),
                     st.tuples(entry, entry, st.just(0), entry)).filter(
        lambda q: quad_is_invertible(n, q))
    return n, draw(st.lists(quad, min_size=1, max_size=4))


@settings(PROPERTY, max_examples=60)
@given(generator_lists(16))
# the scalar generator is sifted before the column one, so the column group
# is whole only once it is closed under conjugation by (2 1; 0 1)
@example((5, [(1, 0, 0, 2), (2, 1, 0, 1)]))
def test_chain_order_is_the_closure_size(case):
    n, gens = case
    want = _helpers.reference_closure_quads(n, gens)
    assert GeneratedGroup(n, gens).order == len(want)


@settings(PROPERTY, max_examples=60)
@given(generator_lists(16))
def test_chain_membership_is_closure_membership(case):
    """On all of GL2 up to modulus 8; above, on every generated element when
    there are few, else a sample of them, and on random invertible quads."""
    n, gens = case
    want = _helpers.reference_closure_quads(n, gens)
    group = GeneratedGroup(n, gens)
    if n <= 8:
        quads = gl2(n)
    else:
        rng = random.Random(repr(case))
        members = sorted(want)
        quads = rng.sample(members, min(300, len(members)))
        quads += [q for q in (tuple(rng.randrange(n) for _ in range(4))
                              for _ in range(600)) if quad_is_invertible(n, q)]
    for q in quads:
        assert group.member_quad(q) == (q in want), q


@settings(PROPERTY, max_examples=60)
@given(generator_lists(12), st.booleans())
def test_chain_keys_are_exactly_the_right_cosets(case, every_element):
    """Over all of GL2, on the chain of the drawn generators and on a second
    one, built from every element of the group in sorted order."""
    n, gens = case
    want = _helpers.reference_closure_quads(n, gens)
    group = GeneratedGroup(n, sorted(want) if every_element else gens)
    assert _helpers.key_classes_are_cosets(group.coset_key, gl2(n), want, n)


@pytest.mark.parametrize("n", [25, 27, 32, 121])
def test_generated_borel_curves_match_the_closed_form(n):
    # the chain keys walk the cosets of a Borel group given by generators
    # only; at 121, B_+-1 has 7,260 cosets, each keyed over the 110 diagonal
    # entries of C = {(1 b; 0 d)}
    for delta in (delta_trivial(n), delta_pm1(n), delta_full(n)):
        b = borel(n, delta)
        assert curve_genus(GeneratedGroup(n, b.generator_quads())) == curve_genus(b)


def every_delta(n):
    deltas = {delta_trivial(n), delta_pm1(n), delta_full(n)}
    deltas.update(unit_subgroups_containing_minus_one(n))
    return sorted(deltas, key=lambda d: (d.order, d.elements))


def upper_triangular_list(rng, n, count):
    out = []
    while len(out) < count:
        q = (rng.randrange(n), rng.randrange(n), 0, rng.randrange(n))
        if quad_is_invertible(n, q):
            out.append(q)
    return out


@pytest.mark.parametrize("n", [18, 24, 25, 27, 32, 36, 49])
def test_chain_keys_take_the_least_second_column_over_c(n):
    """The key of q lies in q^-1 * H, and two keys are equal exactly when the
    least elements of the two cosets are, with the least second column taken
    over every element of C. The key itself is a canonical element of the
    coset, not the least one, so only the partition is compared."""
    rng = random.Random(n)
    c = _helpers.generator_list(rng, n, 1)[0]
    lists = [[_conjugate(n, c, g) for g in borel(n, delta).generator_quads()]
             for delta in every_delta(n)]
    lists += [upper_triangular_list(rng, n, k) for k in (1, 2, 2, 3)]
    for gens in lists:
        chain = GeneratedGroup(n, gens)._chain
        group = _helpers.reference_closure_quads(n, gens)
        columns = [h for h in group if h[0] == 1 % n and h[2] == 0]
        pairs = set()
        for q in _helpers.generator_list(rng, n, 40):
            key = chain.key(q)
            assert quad_mul(n, q, key) in group, (n, gens, q)
            pairs.add((key, _helpers.reference_chain_key(chain, columns, q)))
        keys, least = zip(*pairs)
        assert len(pairs) == len(set(keys)) == len(set(least)), (n, gens)


def test_the_chain_of_a_large_column_group_stays_small():
    # |C| = 625 * 500 for the full Borel mod 625; the chain keeps a
    # transversal of its 500 diagonal entries and one gcd
    b = borel(625, delta_full(625))
    gens = b.generator_quads()
    tracemalloc.start()
    try:
        order = GeneratedGroup(625, gens).order
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert order == borel_order(625, b.delta)
    assert peak < 1_000_000, peak


def test_yes_no_questions_and_orders_enumerate_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated a group")

    monkeypatch.setattr(modscreen.subgroups, "closure_quads", refuse)
    b = borel(27, delta_pm1(27))
    group = GeneratedGroup(27, b.generator_quads())
    assert contains_minus_i(group)
    assert group.order == b.order
    assert level(reduce_subgroup(group, 9)) == 9
    assert group.coset_key(b.generator_quads()[0]) == group.coset_key((1, 0, 0, 1))
