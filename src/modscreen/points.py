"""Degrees of closed points over a fixed j-class, from a Galois image subgroup.

The degree of a point is the residue field degree of the j-coordinate times
a coset index: the image R acting on cosets of the structure group H. The
whole fiber decomposes into R-orbits on the cosets, one closed point per
orbit. For a Borel-type H the orbits are read off R's orbits on the lines of
P^1(Z/NZ) and the scalars of the line stabilizers, and for the nonsplit
Cartan normalizer off R's orbits on pairs of conjugate points of
P^1(O/l^d), never from the cosets themselves; other kinds walk the cosets
(the default SubgroupSpec.orbit_sizes). When R is the full preimage of a
group at a lower modulus m, the orbits are taken at m and scaled by
[K : K meet H], K the kernel of reduction to m (subgroups.preimage_descent);
all of GL2 is the preimage of GL2(Z/1), so a full image walks nothing above
modulus 1.
Under a larger automorphism group A the degree is a quotient of two such
indices, [RA : RA meet H] / [A : A meet H] (point_degree_general), so no
degree builds an element set. On top of that sit the closed-form degree
identities for the nonsplit Cartan normalizer tower and the Riemann-Roch
screen (rr_screen), which rules isolation out (never in); every screen
verdict of the catalog screen and of table 2 is its comparison.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from enum import Enum

from .chain import _conjugate
from .errors import ModulusMismatch, NonIntegral
from .subgroups import (GeneratedGroup, SubgroupSpec, adjoin_minus_i,
                        contains_minus_i, factorize, index_via_orbit, level,
                        lift_subgroup, minus_identity_quad, nested_index,
                        preimage_descent, reduce_subgroup)
from .zmod import identity_quad, is_prime


class Verdict(str, Enum):
    FORCED_P1 = "ForcedP1Parametrized"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self) -> str:  # keep CLI output free of enum repr noise
        return self.value


class GaloisImageContext:
    """A Galois image R, the degree of the j-field, and the automorphism set.

    R is taken as given, -I or not: under the +- convention (aut=None) every
    degree is over +-H, and -I is central, so R and +-R have the same orbits
    on H's cosets. An explicit aut A is carried verbatim for the general
    formula, which needs R to normalize A, as Galois acting on Aut(E) by
    conjugation does. d_j must be at least 1 and aut must live at R's modulus.
    """

    __slots__ = ("image", "d_j", "aut")

    def __init__(self, image: SubgroupSpec, d_j: int = 1,
                 aut: SubgroupSpec | None = None):
        if d_j < 1:
            raise ValueError(f"j-field degree must be >= 1, got {d_j}")
        if aut is not None and aut.n != image.n:
            raise ModulusMismatch(f"aut mod {aut.n} against image mod {image.n}")
        self.image = image
        self.d_j = d_j
        self.aut = aut


def galois_context(image: SubgroupSpec, d_j: int = 1,
                   aut: SubgroupSpec | None = None) -> GaloisImageContext:
    """The context of R as given (GaloisImageContext checks d_j and aut)."""
    return GaloisImageContext(image=image, d_j=d_j, aut=aut)


def _aut_is_plus_minus(aut: SubgroupSpec | None, n: int) -> bool:
    if aut is None:
        return True
    # {I, -I} is one element at n <= 2
    return (aut.order == len({identity_quad(n), minus_identity_quad(n)})
            and contains_minus_i(aut))


def point_degree(ctx: GaloisImageContext, h: SubgroupSpec) -> int:
    """d_j times the index of R meet H in R, for the +-convention."""
    if not _aut_is_plus_minus(ctx.aut, ctx.image.n):
        return point_degree_general(ctx, h)
    h = _require_minus_i(h)
    return ctx.d_j * index_via_orbit(ctx.image, h)


def point_degree_general(ctx: GaloisImageContext, h: SubgroupSpec) -> int:
    """d_j * |RA| / |RA meet AH| for a finite automorphism group A that R
    normalizes, as d_j * [RA : RA meet H] / [A : A meet H].

    R normalizes A, so RA is a group containing A, and by Dedekind's law
    RA meet AH = A (RA meet H), of order |A| |RA meet H| / |A meet H|. Both
    indices are orbit walks (index_via_orbit); ValueError, before either,
    when a generator of R conjugates one of A out of A.
    """
    r = ctx.image
    if r.n != h.n:
        raise ModulusMismatch(f"image mod {r.n} against group mod {h.n}")
    n = r.n
    aut = ctx.aut
    if aut is None:
        aut = GeneratedGroup(n, [minus_identity_quad(n)])
    r_gens, a_gens = r.generator_quads(), aut.generator_quads()
    if not all(aut.member_quad(_conjugate(n, g, a))
               for g in r_gens for a in a_gens):
        raise ValueError(f"the image mod {n} does not normalize the "
                         "automorphism group")
    ra = GeneratedGroup(n, r_gens + a_gens)
    num, den = index_via_orbit(ra, h), index_via_orbit(aut, h)
    if num % den:
        raise NonIntegral(f"[A : A meet H] = {den} does not divide "
                          f"[RA : RA meet H] = {num}")
    return ctx.d_j * (num // den)


def fiber_degrees(ctx: GaloisImageContext, h: SubgroupSpec) -> tuple[int, ...]:
    """Degrees of every closed point over the j-class, sorted ascending.

    One degree per orbit of R on all right cosets of H; the orbit of the
    identity coset carries the distinguished point, whose degree is exactly
    point_degree(ctx, h). The orbit sizes come from the orbit_sizes hook of
    H's kind (line orbits in P^1 for a Borel-type H, orbits of conjugate
    pairs in P^1(O/l^d) for the Cartan normalizer), by default from the
    coset walk (subgroups.walked_orbit_sizes). Over an image that is a full
    preimage they are taken at its base's modulus and every orbit is scaled
    by [K : K meet H] (subgroups.preimage_descent): a lift's base, and
    GL2(Z/1) for all of GL2, whose fiber is one point of degree
    d_j [GL2 : +-H] with nothing walked above modulus 1.
    """
    if not _aut_is_plus_minus(ctx.aut, ctx.image.n):
        raise ValueError("fiber decomposition needs the +- automorphism convention")
    h = _require_minus_i(h)
    r = ctx.image
    if r.n != h.n:
        raise ModulusMismatch(f"image mod {r.n} against group mod {h.n}")
    r, h, scale = preimage_descent(r, h)
    sizes = h.orbit_sizes(r.generator_quads(), whole=True)
    return tuple(sorted(ctx.d_j * scale * size for size in sizes))


def _require_minus_i(h: SubgroupSpec) -> SubgroupSpec:
    hpm = adjoin_minus_i(h)
    if hpm is not h:
        warnings.warn(f"adjoined -I to a subgroup mod {h.n} before the degree "
                      "computation", stacklevel=3)
    return hpm


LevelReductionResult = namedtuple("LevelReductionResult",
                                  "lhs rhs equal hypothesis_holds")
LevelReductionResult.__doc__ = """The columns of `reduce-level`: both sides
of the degree identity along a reduction of level.

hypothesis_holds records whether the +-image's level divides the target
modulus; when it fails the identity is not guaranteed, and the sides are
reported anyway. When the sides agree, isolation is known to transfer from
the source curve down along the reduction map; this report states the degree
identity only and makes no isolation claim of its own.
"""


def level_reduction(ctx: GaloisImageContext, h: SubgroupSpec,
                    m: int) -> LevelReductionResult:
    """Compare [R meet H' : R meet H] with [H' : H] for H' the mod-l^m relaxation.

    The modulus must be a prime power l^n with m <= n; H' is the full preimage
    of the reduction of H to l^m, so H <= H' and [H' : H] = |H'| / |H|.
    """
    r = ctx.image
    if not _aut_is_plus_minus(ctx.aut, r.n):
        raise ValueError("level reduction needs the +- automorphism convention")
    if r.n != h.n:
        raise ModulusMismatch(f"image mod {r.n} against group mod {h.n}")
    fac = factorize(h.n)
    if len(fac) != 1:
        raise ValueError(f"modulus {h.n} is not a prime power")
    ell, n_exp = fac[0]
    if not 0 <= m <= n_exp:
        raise ValueError(f"exponent {m} out of range for {ell}^{n_exp}")
    h = _require_minus_i(h)

    target = ell**m
    h_prime = lift_subgroup(reduce_subgroup(h, target), h.n)
    fine = index_via_orbit(r, h)
    coarse = index_via_orbit(r, h_prime)
    if fine % coarse:
        raise NonIntegral(f"index {coarse} does not divide index {fine}")
    lhs = fine // coarse
    rhs = nested_index(h_prime, h)
    return LevelReductionResult(lhs, rhs, lhs == rhs,
                                target % level(adjoin_minus_i(r)) == 0)


def rr_screen(degree: int, r: int, genus: int) -> Verdict:
    """Points of degree above (components) * (genus) move in a pencil."""
    if degree < 1 or r < 1 or genus < 0:
        raise ValueError(f"bad screen inputs ({degree}, {r}, {genus})")
    if degree > r * genus:
        return Verdict.FORCED_P1
    return Verdict.INCONCLUSIVE


def cartan_degree_formula(ell: int, n: int, delta_order: int) -> int:
    """(l^2 - 1) l^(2n-2) / delta_order, the degree over the Cartan-normalizer
    image of the distinguished point at level l^n."""
    _check_odd_prime(ell)
    if n < 1:
        raise ValueError(f"exponent must be >= 1, got {n}")
    _check_even_order(delta_order)
    num = (ell * ell - 1) * ell ** (2 * n - 2)
    if num % delta_order:
        raise NonIntegral(f"{delta_order} does not divide {num}")
    return num // delta_order


def semidirect_lower_bound(ell: int, delta_order: int) -> int:
    """l (l^2 - 1) / delta_order, the degree floor in the level-l^2 twist case."""
    _check_odd_prime(ell)
    _check_even_order(delta_order)
    num = ell * (ell * ell - 1)
    if num % delta_order:
        raise NonIntegral(f"{delta_order} does not divide {num}")
    return num // delta_order


def _check_odd_prime(ell: int) -> None:
    if not is_prime(ell) or ell == 2:
        raise ValueError(f"{ell} is not an odd prime")


def _check_even_order(delta_order: int) -> None:
    if delta_order < 2 or delta_order % 2:
        raise ValueError(f"delta order must be even and positive, got {delta_order}")
