"""The stabilizer chain behind generated groups, against brute force.

Generator lists of one to four invertible quads at moduli 1..16, composite
moduli included, are checked against the element-by-element reference
closure: the chain's order, its membership test and its coset keys.
"""

import functools
import itertools
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import modscreen.subgroups  # noqa: E402
from modscreen.curves import curve_genus  # noqa: E402
from modscreen.subgroups import (GeneratedGroup, borel,  # noqa: E402
                                 contains_minus_i, level, reduce_subgroup)
from modscreen.zmod import (delta_full, delta_pm1, delta_trivial,  # noqa: E402
                            quad_is_invertible)

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


@pytest.mark.parametrize("n", [25, 27, 32])
def test_generated_borel_curves_match_the_closed_form(n):
    # the chain keys walk the cosets of a Borel group given by generators only
    for delta in (delta_trivial(n), delta_pm1(n), delta_full(n)):
        b = borel(n, delta)
        assert curve_genus(GeneratedGroup(n, b.generator_quads())) == curve_genus(b)


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
