"""Acceptance suite: one test per shipping criterion.

Each test carries its runtime budget as a hard assertion so a performance
regression fails loudly rather than rotting quietly. Criterion 7 depends on
an externally supplied image catalog; without the file it must skip with a
SKIPPED-DATA marker, never pass vacuously.
"""

import os
import random
import time
import warnings

import pytest

from modscreen.catalog import (emit_table1, emit_table2, load_catalog,
                               screen_entry)
from modscreen.curves import curve_data
from modscreen.points import (GaloisImageContext, cartan_degree_formula,
                              fiber_degrees, level_reduction, point_degree)
from modscreen.subgroups import (FullGroup, borel, borel_index, borel_order,
                                 factorize, gl2_order, lift_subgroup,
                                 nonsplit_cartan_normalizer)
from modscreen.zmod import (UnitSubgroup, delta_full, delta_pm1,
                            unit_subgroups_containing_minus_one)

import _helpers
import _oracles


def test_criterion_1_intermediate_curve_genera():
    start = time.perf_counter()
    table = emit_table1()
    assert [(m, d) for m, d, *_ in table.rows] == \
        [(25, 4), (25, 10), (27, 6), (32, 4), (32, 8)]
    assert [g for _, _, g, *_ in table.rows] == [4, 0, 1, 5, 1]
    assert time.perf_counter() - start < 10


def test_criterion_2_prime_square_genus_and_bound_table():
    start = time.perf_counter()
    table = emit_table2()
    assert len(table.rows) == 12
    assert [g for _, _, g, _, _ in table.rows] == \
        [4, 0, 19, 3, 106, 26, 516, 340, 164, 50, 24, 16]
    assert [b for _, _, _, b, _ in table.rows] == \
        [30, 12, 56, 24, 132, 60, 546, 364, 182, 84, 42, 28]
    assert time.perf_counter() - start < 300


def test_criterion_3_order_formulas_against_enumeration():
    start = time.perf_counter()
    for n in range(1, 17):
        brute_ambient = _oracles.brute_gl2_order(n)
        assert brute_ambient == gl2_order(n), n
        for elements in _oracles.unit_subgroups_with_minus_one(n):
            delta = UnitSubgroup(n, tuple(sorted(elements)))
            brute = _oracles.brute_borel_order(n, elements)
            assert brute == borel_order(n, delta), (n, sorted(elements))
            assert brute_ambient % brute == 0
            assert brute_ambient // brute == borel_index(n, delta), \
                (n, sorted(elements))
    assert time.perf_counter() - start < 60


def test_criterion_4_classical_curve_data_to_level_sixty():
    start = time.perf_counter()
    for n in range(1, 61):
        got0 = curve_data(borel(n, delta_full(n)))
        assert (got0.mu, got0.nu2, got0.nu3, got0.nu_inf, got0.genus) == \
            _oracles.gamma0_data(n), n
        got1 = curve_data(borel(n, delta_pm1(n)))
        assert (got1.mu, got1.nu2, got1.nu3, got1.nu_inf, got1.genus) == \
            _oracles.gamma1_data(n), n
    assert time.perf_counter() - start < 120


def test_criterion_5_cartan_point_degree_closed_form():
    start = time.perf_counter()
    # the hand-checked anchor first
    ctx5 = GaloisImageContext(nonsplit_cartan_normalizer(5))
    assert point_degree(ctx5, borel(5, delta_pm1(5))) == 12
    assert cartan_degree_formula(5, 1, 2) == 12
    for ell in (5, 7, 11):
        for n in (1, 2):
            q = ell**n
            ctx = GaloisImageContext(nonsplit_cartan_normalizer(q))
            for delta in unit_subgroups_containing_minus_one(q):
                assert point_degree(ctx, borel(q, delta)) == \
                    cartan_degree_formula(ell, n, delta.order), \
                    (ell, n, delta.order)
    assert time.perf_counter() - start < 60


def test_criterion_6_level_reduction_property_suite():
    start = time.perf_counter()
    rng = random.Random(601)
    cases = 0
    while cases < 200:
        ell, e = rng.choice(((5, 2), (3, 3), (2, 5), (7, 2)))
        n = ell**e
        b = rng.randint(0, e - 1)
        base_mod = ell**b
        if base_mod == 1:
            r = FullGroup(n)
        elif _helpers.is_odd_prime_power(base_mod) and rng.random() < 0.4:
            r = lift_subgroup(nonsplit_cartan_normalizer(base_mod), n)
        else:
            r = lift_subgroup(borel(base_mod, _helpers.random_delta(rng, base_mod)), n)
        h = borel(n, _helpers.random_delta(rng, n))
        m = rng.randint(b, e)  # level(R) divides ell**b, hence ell**m
        res = level_reduction(GaloisImageContext(r), h, m)
        assert res.hypothesis_holds, (ell, e, b, m)
        assert res.equal, (ell, e, b, m, r.kind)
        assert res.lhs == res.rhs
        cases += 1
    assert time.perf_counter() - start < 120


def _catalog_path():
    env = os.environ.get("MODSCREEN_ELLADIC_CATALOG")
    if env:
        return env if os.path.exists(env) else None
    bundled = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                           "elladic_images.jsonl")
    return bundled if os.path.exists(bundled) else None


def test_criterion_7_catalog_screen_and_the_56_fiber():
    path = _catalog_path()
    if path is None:
        pytest.skip("SKIPPED-DATA: image catalog not supplied; set "
                    "MODSCREEN_ELLADIC_CATALOG or add data/elladic_images.jsonl")
    entries = load_catalog(path)
    towers = {2: 5, 3: 3, 5: 2}
    screened = [e for e in entries
                if e.level > 1 and factorize(e.level)[0][0] in towers]
    assert len(screened) == 132
    survivors = []
    for entry in screened:
        ell = factorize(entry.level)[0][0]
        report = screen_entry(entry, towers[ell])
        if not report.fiber_screen_passed:
            survivors.append(report)
    assert len(survivors) == 28
    assert all(rep.genus_zero_at_ell for rep in survivors)

    (target,) = [e for e in entries if e.label == "49.196.9.1"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ctx = GaloisImageContext(target.subgroup())
    degrees = fiber_degrees(ctx, borel(49, delta_full(49)))
    assert set(degrees) == {56}


def test_criterion_8_fiber_partition_invariant():
    start = time.perf_counter()
    rng = random.Random(801)
    for _ in range(50):
        n = rng.choice((5, 8, 9, 12, 16, 25, 27, 32, 49))
        pool = _helpers.structural_pool(n, max_order=200_000)
        r = rng.choice(pool)
        h = rng.choice(pool)
        degrees = fiber_degrees(GaloisImageContext(r), h)
        assert sum(degrees) == gl2_order(n) // h.order, (n, r.kind, h.kind)
    assert time.perf_counter() - start < 60
