"""Geometry of the modular curve attached to a subgroup of GL2(Z/NZ).

A curve is pinned by four counts: mu, the index of the determinant-1 part in
SL2(Z/NZ), the points of the two elliptic fiber types (nu2, nu3) and the cusps
(nu_inf). The genus follows from them by the usual Euler characteristic
bookkeeping, in one place (genus_from_counts). A group kind with closed forms
for the counts supplies them through SubgroupSpec.curve_counts (the full group
and the Borel-type groups do). Every other kind gets them from one permutation
representation, the right cosets of the determinant-1 part S = H meet SL2
inside SL2(Z/NZ) acted on by the rotation and translation generators. When
det(H) is all of (Z/NZ)^x, S*g -> H*g maps those cosets one to one onto the
right cosets of H in GL2(Z/NZ) and commutes with right multiplication. At a
prime N the counts are fixed points of that action, read off the permutation
character of H by counting the elements of H of each trace and determinant
(_class_counts); at any other N the cosets are walked on H's own keys
(coset_space), the oracle of the closed forms and of the class counts. The
genus alone needs no counts at N <= 5: X(N) has genus 0 there and covers the
curve of every H of full determinant (curve_genus). Everything is exact
integer arithmetic.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from functools import cached_property

from .errors import InvariantFailed, NonIntegral, NotFullDeterminant
from .subgroups import (FullGroup, SubgroupSpec, _check_walk_length,
                        adjoin_minus_i, coset_action, level, nested_index,
                        permutation_orbit_sizes, reduce_subgroup, sigma_quad,
                        sl2_order, subgroup_of, tau_quad)
from .zmod import Quad, is_prime, quad_det, quad_inv, quad_mul, units


class CosetSpace:
    """Right cosets of S = H meet SL2 in SL2, acted on by the two generators.

    H has full determinant: the cosets are walked as the cosets H*g they map
    onto, each represented by a det-1 element g.
    perm_s[i] and perm_t[i] are the indices of reps[i] * (0 -1; 1 0) and
    reps[i] * (1 1; 0 1). Representative order is BFS discovery order from
    the identity, so it is deterministic.
    """

    def __init__(self, n: int, reps: list[Quad], perm_s: list[int],
                 perm_t: list[int]):
        self.n = n
        self.reps = reps
        self.perm_s = perm_s
        self.perm_t = perm_t

    @property
    def mu(self) -> int:
        return len(self.reps)

    @cached_property
    def nu2(self) -> int:
        """Cosets fixed by the order-4 rotation (order 2 in the projective group)."""
        return sum(1 for i, j in enumerate(self.perm_s) if i == j)

    @cached_property
    def nu3(self) -> int:
        # the order-3 element is (rotation) * (translation)^-1, so a coset is
        # fixed exactly when both generators move it to the same place
        return sum(1 for s, t in zip(self.perm_s, self.perm_t) if s == t)

    @cached_property
    def nu_inf(self) -> int:
        return len(self.cusp_widths)

    @cached_property
    def cusp_widths(self) -> tuple[int, ...]:
        """Cycle lengths of the translation action, sorted; they sum to mu."""
        return tuple(sorted(permutation_orbit_sizes([self.perm_t], self.mu)))

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return self.mu, self.nu2, self.nu3, self.nu_inf

    @cached_property
    def genus(self) -> int:
        return genus_from_counts(self.n, *self.counts)


def genus_from_counts(n: int, mu: int, nu2: int, nu3: int, nu_inf: int) -> int:
    """Genus from 12(g - 1) = mu - 3 nu2 - 4 nu3 - 6 nu_inf; NonIntegral when
    the counts give no non-negative integer."""
    twelve_g = 12 + mu - 3 * nu2 - 4 * nu3 - 6 * nu_inf
    if twelve_g % 12 or twelve_g < 0:
        raise NonIntegral(f"12 * genus = {twelve_g} mod {n} is not "
                          "12 times a non-negative integer")
    return twelve_g // 12


def coset_space(h: SubgroupSpec) -> CosetSpace:
    """Enumerate the cosets of the determinant-1 part of H inside SL2(Z/nZ),
    walked from H*1 as right cosets of H under sigma and tau; H must have
    full determinant. _counts walks them only at a modulus that is not prime;
    the walk is the oracle of every closed form and of the class counts."""
    _require_full_determinant(h)
    n = h.n
    # |S| = |H| / |det H|, and the mu cosets of S fill SL2, so the walk's
    # length is known before it starts
    filled = sl2_order(n) * h.det_image.order
    _check_walk_length(h, filled // h.order)
    reps, (perm_s, perm_t) = coset_action(h, (sigma_quad(n), tau_quad(n)))
    space = CosetSpace(n=n, reps=reps, perm_s=perm_s, perm_t=perm_t)
    if space.mu * h.order != filled:
        raise InvariantFailed(f"{space.mu} cosets of the det-1 part of a group "
                              f"of order {h.order} do not fill SL2(Z/{n})")
    return space


def _require_full_determinant(h: SubgroupSpec) -> None:
    if not h.has_full_determinant():
        raise NotFullDeterminant(
            f"determinant image has order {h.det_image.order}, "
            f"expected the full unit group mod {h.n}")


def _class_counts(h: SubgroupSpec) -> tuple[int, int, int, int]:
    """The counts of coset_space(h) at a prime modulus l, without its walk.

    A coset H*g is fixed by x exactly when g x g^-1 is in H, so x fixes
    |C(x)| |x^G meet H| / |H| cosets of G = GL2(F_l) (the permutation
    character of H, Isaacs, Character Theory of Finite Groups, ch. 5). A
    non-scalar x is conjugate to every non-scalar element of its trace and
    determinant, so |x^G meet H| is the count of those in H less the scalars
    among them, and |C(x)| is (l-1)^2, l(l-1) or l^2-1 as its characteristic
    polynomial has 2, 1 or 0 roots. sigma, sigma*tau^-1 and tau are not
    scalar, and their three classes are counted in one pass
    (StabilizerChain.trace_det_counts); nu2 and nu3 are the cosets the first
    two fix, and nu_inf, the tau-cycles, is (mu + (l-1) fix(tau)) / l, each
    tau^k with k != 0 being conjugate to tau.
    """
    _require_full_determinant(h)
    ell = h.n
    mu = nested_index(FullGroup(ell), h)
    # counted, not walked, but the cap binds as it does on the walk
    _check_walk_length(h, mu)

    sigma, tau = sigma_quad(ell), tau_quad(ell)
    xs = (sigma, quad_mul(ell, sigma, quad_inv(ell, tau)), tau)
    classes = [((x[0] + x[3]) % ell, quad_det(ell, x)) for x in xs]
    fixed = []
    for x, (t, det), count in zip(xs, classes, h._chain.trace_det_counts(classes)):
        roots = sum(1 for r in range(ell) if (r * r - t * r + det) % ell == 0)
        centralizer = (ell * ell - 1, ell * (ell - 1), (ell - 1) ** 2)[roots]
        scalars = sum(1 for c in units(ell) if (2 * c - t) % ell == 0
                      and (c * c - det) % ell == 0
                      and h.member_quad((c, 0, 0, c)))
        conjugates = count - scalars
        if centralizer * conjugates % h.order:
            raise InvariantFailed(f"{centralizer} * {conjugates} conjugates of "
                                  f"{x} mod {ell} is not a multiple of {h.order}")
        fixed.append(centralizer * conjugates // h.order)
    nu2, nu3, fixed_by_tau = fixed
    cusps = mu + (ell - 1) * fixed_by_tau
    if cusps % ell:
        raise InvariantFailed(f"{cusps} fixed cosets of tau mod {ell} "
                              "do not split into its cycles")
    return mu, nu2, nu3, cusps // ell


def _counts(hpm: SubgroupSpec) -> tuple[int, int, int, int]:
    """(mu, nu2, nu3, nu_inf) of a group containing -I: its kind's closed form
    when it has one, else the class counts at a prime modulus and the coset
    walk at any other. A full preimage has its base's curve, so the counts
    come from the base."""
    base = hpm.preimage_base
    counts = base.curve_counts()
    if counts is None:
        counts = (_class_counts(base) if is_prime(base.n)
                  else coset_space(base).counts)
    return counts


CurveData = namedtuple("CurveData", "mu nu2 nu3 nu_inf genus label_prefix")
CurveData.__doc__ = """The columns of `genus`: the curve's four counts, its
genus and the level.index.genus label."""


def curve_data(h: SubgroupSpec) -> CurveData:
    """Invariants of the curve attached to H (with -I adjoined if missing)."""
    return _curve_data(h)[0]


def _curve_data(h: SubgroupSpec) -> tuple[CurveData, SubgroupSpec, int]:
    """curve_data(h), +-H and its level; warns at the public function's
    caller. +-H is the preimage of its reduction there: the index is its own."""
    hpm = adjoin_minus_i(h)
    if hpm is not h:
        warnings.warn(f"adjoined -I to a subgroup mod {h.n} before computing "
                      "curve data", stacklevel=3)
    counts = _counts(hpm)
    lvl = level(hpm)
    genus = genus_from_counts(h.n, *counts)
    label = f"{lvl}.{nested_index(FullGroup(h.n), hpm)}.{genus}"
    return CurveData(*counts, genus, label), hpm, lvl


def map_degree(h1: SubgroupSpec, h2: SubgroupSpec) -> int:
    """Degree of the curve of H1 over the curve of H2: |+-H2| / |+-H1|."""
    a = adjoin_minus_i(h1)
    b = adjoin_minus_i(h2)
    if a is not h1 or b is not h2:
        warnings.warn("adjoined -I before computing the covering degree",
                      stacklevel=2)
    subgroup_of(a, b)
    return nested_index(b, a)


def label_prefix(h: SubgroupSpec) -> str:
    """Level.index.genus label, then a content hash in place of the final
    disambiguator (which follows an ordering convention we do not compute).

    The hash covers the sorted element set of the group at its level, so
    equal groups get equal labels however they were built; TooLarge when
    that set exceeds the enumeration cap.
    """
    import hashlib  # only label needs it: kept off the import path

    data, hpm, lvl = _curve_data(h)
    els = sorted(reduce_subgroup(hpm, lvl).element_quads)
    blob = f"{lvl}|" + ";".join(",".join(map(str, q)) for q in els)
    digest = hashlib.sha256(blob.encode("ascii")).hexdigest()[:8]
    return f"{data.label_prefix}#{digest}"


def curve_genus(h: SubgroupSpec) -> int:
    """Genus alone, skipping the level and index bookkeeping of curve_data."""
    if h.n <= 5:
        # X(n) has genus 0 for n <= 5 (Diamond-Shurman, A First Course in
        # Modular Forms, 3.9) and covers the curve of every H of full
        # determinant, so nothing is counted
        _require_full_determinant(h)
        return 0
    return genus_from_counts(h.n, *_counts(adjoin_minus_i(h)))


__all__ = [
    "CosetSpace", "CurveData", "coset_space", "curve_data", "curve_genus",
    "genus_from_counts", "label_prefix", "map_degree",
]
