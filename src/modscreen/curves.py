"""Geometry of the modular curve attached to a subgroup of GL2(Z/NZ).

A curve is pinned by four counts: mu, the index of the determinant-1 part in
SL2(Z/NZ), the points of the two elliptic fiber types (nu2, nu3) and the cusps
(nu_inf). The genus follows from them by the usual Euler characteristic
bookkeeping, in one place (genus_from_counts). A group kind with closed forms
for the counts supplies them through SubgroupSpec.curve_counts (the Borel-type
groups do); every other kind gets them from one permutation representation,
the right cosets of the determinant-1 part S = H meet SL2 inside SL2(Z/NZ)
acted on by the rotation and translation generators (coset_space), which is
also the oracle the closed forms are tested against. When det(H) is all of
(Z/NZ)^x, S*g -> H*g maps those cosets one to one onto the right cosets of H
in GL2(Z/NZ) and commutes with right multiplication, so the walk runs on H's
own cosets and keys. Everything is exact integer arithmetic.
"""

from __future__ import annotations

import warnings
from functools import cached_property

from .errors import InvariantFailed, NonIntegral, NotFullDeterminant
from .subgroups import (SubgroupSpec, _check_walk_length, adjoin_minus_i,
                        coset_action, gl2_order, index_via_orbit, level,
                        reduce_subgroup, sigma_quad, sl2_order, subgroup_of,
                        tau_quad)
# the benchmark's tracer test reads curves.quad_mul by name
from .zmod import Quad, quad_mul  # noqa: F401


class CosetSpace:
    """Right cosets of S = H meet SL2 in SL2, acted on by the two generators.

    base is H, a group of full determinant: the cosets are walked as the
    cosets H*g they map onto, each represented by a det-1 element g.
    perm_s[i] and perm_t[i] are the indices of reps[i] * (0 -1; 1 0) and
    reps[i] * (1 1; 0 1). Representative order is BFS discovery order from
    the identity, so it is deterministic.
    """

    def __init__(self, n: int, base: SubgroupSpec, reps: list[Quad],
                 perm_s: list[int], perm_t: list[int]):
        self.n = n
        self.base = base
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
        seen = [False] * self.mu
        widths = []
        for i in range(self.mu):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                length += 1
                j = self.perm_t[j]
            widths.append(length)
        return tuple(sorted(widths))

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
    full determinant."""
    if not h.has_full_determinant():
        raise NotFullDeterminant(
            f"determinant image has order {h.det_image.order}, "
            f"expected the full unit group mod {h.n}")
    n = h.n
    # |S| = |H| / |det H|, and the mu cosets of S fill SL2, so the walk's
    # length is known before it starts
    filled = sl2_order(n) * h.det_image.order
    _check_walk_length(h, filled // h.order)
    reps, (perm_s, perm_t) = coset_action(h, (sigma_quad(n), tau_quad(n)))
    space = CosetSpace(n=n, base=h, reps=reps, perm_s=perm_s, perm_t=perm_t)
    if space.mu * h.order != filled:
        raise InvariantFailed(f"{space.mu} cosets of the det-1 part of a group "
                              f"of order {h.order} do not fill SL2(Z/{n})")
    return space


def _counts(hpm: SubgroupSpec) -> tuple[int, int, int, int]:
    """(mu, nu2, nu3, nu_inf) of a group containing -I: its kind's closed form
    when it has one, else the coset walk. A full preimage has its base's
    curve, so the counts come from the base."""
    base = hpm.preimage_base
    counts = base.curve_counts()
    if counts is None:
        counts = coset_space(base).counts
    return counts


class CurveData:
    """Numerical invariants of the curve, plus the level.index.genus label."""

    __slots__ = ("mu", "nu2", "nu3", "nu_inf", "genus", "label_prefix",
                 "adjoined_minus_i")

    def __init__(self, mu: int, nu2: int, nu3: int, nu_inf: int, genus: int,
                 label_prefix: str, adjoined_minus_i: bool):
        self.mu = mu
        self.nu2 = nu2
        self.nu3 = nu3
        self.nu_inf = nu_inf
        self.genus = genus
        self.label_prefix = label_prefix
        self.adjoined_minus_i = adjoined_minus_i


def curve_data(h: SubgroupSpec) -> CurveData:
    """Invariants of the curve attached to H (with -I adjoined if missing)."""
    return _curve_data(h)[0]


def _curve_data(h: SubgroupSpec) -> tuple[CurveData, SubgroupSpec]:
    """curve_data(h), and +-H reduced to its level; warns at the public
    function's caller."""
    hpm = adjoin_minus_i(h)
    if hpm is not h:
        warnings.warn(f"adjoined -I to a subgroup mod {h.n} before computing "
                      "curve data", stacklevel=3)
    mu, nu2, nu3, nu_inf = _counts(hpm)
    lvl = level(hpm)
    reduced = reduce_subgroup(hpm, lvl)
    ambient = gl2_order(lvl)
    if ambient % reduced.order:
        raise NonIntegral(f"order {reduced.order} does not divide #GL2(Z/{lvl})")
    idx = ambient // reduced.order
    genus = genus_from_counts(h.n, mu, nu2, nu3, nu_inf)
    return CurveData(
        mu=mu,
        nu2=nu2,
        nu3=nu3,
        nu_inf=nu_inf,
        genus=genus,
        label_prefix=f"{lvl}.{idx}.{genus}",
        adjoined_minus_i=hpm is not h,
    ), reduced


def map_degree(h1: SubgroupSpec, h2: SubgroupSpec) -> int:
    """Degree of the covering from the curve of H1 down to the curve of H2."""
    a = adjoin_minus_i(h1)
    b = adjoin_minus_i(h2)
    if a is not h1 or b is not h2:
        warnings.warn("adjoined -I before computing the covering degree",
                      stacklevel=2)
    subgroup_of(a, b)
    return index_via_orbit(b, a)


def label_prefix(h: SubgroupSpec) -> str:
    """Level.index.genus label, then a content hash in place of the final
    disambiguator (which follows an ordering convention we do not compute).

    The hash covers the sorted element set of the group at its level, so
    equal groups get equal labels however they were built; TooLarge when
    that set exceeds the enumeration cap.
    """
    import hashlib  # only label needs it: kept off the import path

    data, reduced = _curve_data(h)
    els = sorted(reduced.element_quads)
    blob = f"{reduced.n}|" + ";".join(",".join(map(str, q)) for q in els)
    digest = hashlib.sha256(blob.encode("ascii")).hexdigest()[:8]
    return f"{data.label_prefix}#{digest}"


def curve_genus(h: SubgroupSpec) -> int:
    """Genus alone, skipping the level and index bookkeeping of curve_data."""
    return genus_from_counts(h.n, *_counts(adjoin_minus_i(h)))


__all__ = [
    "CosetSpace", "CurveData", "coset_space", "curve_data", "curve_genus",
    "genus_from_counts", "label_prefix", "map_degree",
]
