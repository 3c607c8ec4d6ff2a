"""Subgroups of GL2(Z/NZ): predicates, generators, orders, indices, lifts, levels.

Every group is carried two ways at once: a membership predicate and a small
generating set. The base class, SubgroupSpec, is the group its generators
generate: a kind supplies them (_gens), and membership, order and keys
default to a stabilizer chain (chain.StabilizerChain) built from them
instead of the element set, and reduction to the group of the reduced
generators; a kind overrides a hook only where it knows a closed form.
Index and fiber computations never enumerate the ambient group. A
Borel-type H reads the orbits on its right cosets off the orbits on the
lines of P^1(Z/NZ) (BorelGroup.orbit_sizes), and the nonsplit Cartan
normalizer off the orbits on pairs of conjugate points of P^1(O/l^d),
O = Z[sqrt(e)] (CartanNormalizer.orbit_sizes, by quadratic_pair_orbits);
every other kind walks right cosets H*g under the other group's generators
(the default orbit_sizes: coset_action, the one walk behind index and fiber
computations without a closed form and behind the genus at a modulus that
is not prime, and walked_orbit_sizes over it, whose orbits
permutation_orbit_sizes splits) and identifies a coset by a canonical key
(equal keys exactly when the cosets are equal). An element set is built one
way for every kind: the closure of the generators
(SubgroupSpec.element_quads), refused up front when the order passes
ENUMERATION_CAP. A walk whose length the orders give (all of H's cosets, or
those of its det-1 part in SL2) is refused up front the same way when that
length passes ORBIT_CAP (_check_walk_length). Instances are immutable after
construction and safe to share.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from functools import cached_property
from math import gcd

from .chain import StabilizerChain, _transversal
from .errors import (EvenPrimeUnsupported, ModulusMismatch, NonDivisor,
                     NonIntegral, NonInvertible, NotASubgroup, OrbitTooLarge,
                     TooLarge)
from .zmod import (Quad, UnitSubgroup, _check_modulus, _extend_subgroup,
                   _p1_normalize, _p1_points, _unit_classes, _unit_inverses,
                   divisors, euler_phi, factorize, identity_quad, is_prime,
                   lift_quad, quad_det, quad_inv, quad_is_invertible, quad_mul,
                   quad_pow, quad_reduce, quadratic_generator,
                   unit_group_generators, unit_subgroup, units)

ENUMERATION_CAP = 10_000_000
# cosets one coset_action walk, or one Cartan walk of point pairs (a pair is
# a coset), may reach; Borel orbit sizes walk at most psi(N) lines instead
# and, like the Borel curve counts, are not capped
ORBIT_CAP = 10_000_000


def gl2_order(n: int) -> int:
    """#GL2(Z/nZ) via the multiplicative formula over prime powers."""
    out = 1
    for p, e in factorize(n):
        out *= p ** (4 * e - 3) * (p * p - 1) * (p - 1)
    return out


def sl2_order(n: int) -> int:
    out = 1
    for p, e in factorize(n):
        out *= p ** (3 * e - 2) * (p * p - 1)
    return out


def minus_identity_quad(n: int) -> Quad:
    return ((-1) % n, 0, 0, (-1) % n)


def sigma_quad(n: int) -> Quad:
    """(0 -1; 1 0), order 4 in SL2, order 2 in PSL2."""
    return (0, (-1) % n, 1 % n, 0)


def tau_quad(n: int) -> Quad:
    """(1 1; 0 1), the translation whose orbits are the cusps."""
    return (1 % n, 1 % n, 0, 1 % n)


def closure_quads(n: int, gen_quads: Iterable[Quad]) -> frozenset[Quad]:
    """The subgroup generated by gen_quads, closed coset by coset (Dimino).

    Each generator g not yet inside grows the closed group H to <H, g> as a
    union of right cosets of H: the walk goes over the cosets H*r from H*1
    under the generators so far, and (H*r)*s = H*(r*s) is new exactly when
    r*s is not yet seen. The old generators fix H*1, so only g moves it.
    Every element is made once, as h*r, and one product per (coset,
    generator) pair decides whether a coset is new: about |G| products
    instead of |G| * #gens. TooLarge exactly when the order exceeds
    ENUMERATION_CAP, read at call time.
    """
    group = [identity_quad(n)]
    seen = set(group)
    gens: list[Quad] = []
    cap = ENUMERATION_CAP
    for g in gen_quads:
        if g in seen:
            continue
        gens.append(g)
        h = group[:]
        reps = [group[0]]
        for i, r in enumerate(reps):  # reps grows while it is walked
            for s in gens if i else gens[-1:]:
                y = quad_mul(n, r, s)
                if y in seen:
                    continue
                if len(group) + len(h) > cap:
                    raise TooLarge(f"closure mod {n} exceeds cap {cap}",
                                   operation="closure", modulus=n,
                                   reached=len(group) + len(h), cap=cap)
                reps.append(y)
                y0, y1, y2, y3 = y
                coset = [((a * y0 + b * y2) % n, (a * y1 + b * y3) % n,
                          (c * y0 + d * y2) % n, (c * y1 + d * y3) % n)
                         for a, b, c, d in h]
                group += coset
                seen.update(coset)
    del seen  # the list holds the same elements: free the set before the copy
    return frozenset(group)


class SubgroupSpec:
    """A subgroup of GL2(Z/nZ): the group its generators _gens generate.

    A kind supplies _gens; every hook below is the generic path for the
    group they generate, and a kind overrides one where it knows a closed
    form. The default membership, order and key come from a stabilizer chain
    built once from the generators, the default level from the scan of the
    kernel generators (scanned_level), and the default reduction to a
    divisor modulus generates the group of the reduced generators; only
    element_quads enumerates the group, by closing the generators, and it
    checks the cap against the order first.
    """

    kind = "abstract"
    _gens: tuple[Quad, ...]

    def __init__(self, n: int):
        _check_modulus(n)
        self.n = n

    # membership and generators

    def member_quad(self, q: Quad) -> bool:
        return self._chain.contains(q)

    def generator_quads(self) -> tuple[Quad, ...]:
        return self._gens

    # size and enumeration

    @cached_property
    def order(self) -> int:
        return self._chain.order

    @cached_property
    def element_quads(self) -> frozenset[Quad]:
        """Every element, closed from the generators; TooLarge before any
        work when the order passes ENUMERATION_CAP, read at call time."""
        n, size, cap = self.n, self.order, ENUMERATION_CAP
        if size > cap:
            raise TooLarge(f"enumeration of {self.kind} mod {n} needs {size} "
                           f"elements, cap {cap}", operation="enumeration",
                           modulus=n, reached=size, cap=cap)
        return closure_quads(n, self._gens)

    @cached_property
    def _chain(self) -> StabilizerChain:
        return StabilizerChain(self.n, self._gens)

    # structure

    @cached_property
    def level(self) -> int:
        """Least divisor d of n with the whole mod-d kernel inside H."""
        return scanned_level(self)

    def reduced(self, m: int) -> "SubgroupSpec":
        _check_divisor(self.n, m)
        # the image of a closure is the closure of the images
        return GeneratedGroup(m, (quad_reduce(q, m) for q in self._gens))

    @property
    def preimage_base(self) -> "SubgroupSpec":
        """A group at a divisor modulus whose full preimage this group is,
        known from how it was built: a lift's base, GL2(Z/1) for all of
        GL2, and the group itself for any other kind."""
        return self

    def lifted(self, n: int) -> "SubgroupSpec":
        """The full preimage at the multiple modulus n."""
        return LiftedGroup(self, n)

    def with_minus_i(self) -> "SubgroupSpec":
        """The group generated by H and -I, for an H without -I."""
        n = self.n
        return GeneratedGroup(n, self._gens + (minus_identity_quad(n),))

    def coset_key(self, q: Quad) -> Hashable:
        return self._chain.key(q)

    def curve_counts(self) -> tuple[int, int, int, int] | None:
        """(mu, nu2, nu3, nu_inf) of the curve of +-H in closed form, or None
        when the kind has no closed form and the cosets must be walked."""
        return None

    def orbit_sizes(self, gens: Sequence[Quad], whole: bool) -> list[int]:
        """Sizes of the orbits of <gens> on the right cosets of H, the orbit
        of H*1 first and only that one unless whole; by default from the
        coset walk."""
        if not whole:
            return [len(coset_action(self, gens)[0])]
        return walked_orbit_sizes(self, tuple(gens))

    @cached_property
    def det_image(self) -> UnitSubgroup:
        n = self.n
        return unit_subgroup(n, (quad_det(n, g) for g in self._gens))

    def has_full_determinant(self) -> bool:
        return self.det_image.order == euler_phi(self.n)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} mod {self.n}>"


class FullGroup(SubgroupSpec):
    """All of GL2(Z/nZ)."""

    kind = "full"
    level = 1

    def member_quad(self, q: Quad) -> bool:
        return quad_is_invertible(self.n, q)

    @cached_property
    def _gens(self) -> tuple[Quad, ...]:
        n = self.n
        gens = [sigma_quad(n), tau_quad(n)]
        gens += [(1 % n, 0, 0, u) for u in unit_group_generators(n)]
        return _dedup(n, gens)

    @cached_property
    def order(self) -> int:
        return gl2_order(self.n)

    def reduced(self, m: int) -> SubgroupSpec:
        _check_divisor(self.n, m)
        return FullGroup(m)

    def lifted(self, n: int) -> SubgroupSpec:
        if n % self.n:
            raise NonDivisor(f"base modulus {self.n} must divide {n}")
        return FullGroup(n)

    @property
    def preimage_base(self) -> SubgroupSpec:
        # every matrix reduces into GL2(Z/1), the one-element group
        return FullGroup(1)

    def coset_key(self, q: Quad) -> Hashable:
        return 0

    def curve_counts(self) -> tuple[int, int, int, int]:
        # one coset, fixed by everything: one cusp and one point of each
        # elliptic type
        return 1, 1, 1, 1


class BorelGroup(SubgroupSpec):
    """Upper-triangular matrices (x y; 0 z) whose upper-left entry lies in Delta."""

    kind = "borel"

    def __init__(self, n: int, delta: UnitSubgroup):
        if delta.n != n:
            raise ModulusMismatch(f"Delta mod {delta.n} against modulus {n}")
        super().__init__(n)
        self.delta = delta

    def member_quad(self, q: Quad) -> bool:
        a, b, c, d = q
        return c == 0 and self.delta.contains(a) and gcd(d, self.n) == 1

    @cached_property
    def _gens(self) -> tuple[Quad, ...]:
        n = self.n
        gens = [tau_quad(n)]
        gens += [(g, 0, 0, 1 % n) for g in self.delta.generators]
        gens += [(1 % n, 0, 0, u) for u in unit_group_generators(n)]
        return _dedup(n, gens)

    @cached_property
    def order(self) -> int:
        return borel_order(self.n, self.delta)

    @property
    def level(self) -> int:
        # every mod-d kernel, d a proper divisor, holds (1 0; d 1), which is
        # not upper triangular
        return self.n

    def reduced(self, m: int) -> SubgroupSpec:
        _check_divisor(self.n, m)
        return BorelGroup(m, self.delta.reduced(m))

    def with_minus_i(self) -> SubgroupSpec:
        n = self.n
        return BorelGroup(n, unit_subgroup(n, self.delta.generators + (n - 1,)))

    @cached_property
    def _delta_class(self) -> list[int]:
        """Unit t -> least element of the coset t*Delta (0 at non-units)."""
        return _unit_classes(self.n, self.delta.elements)

    def coset_key(self, q: Quad) -> Hashable:
        # A right coset B*g is pinned by the bottom row up to unit scaling
        # together with the Delta-class of (matching scalar * det). Bottom rows
        # of invertible matrices are unimodular, so the unit u taking the row
        # to its normal form is unique and the pair below is a complete
        # invariant, packed into one int (a tuple key costs far more memory
        # in tables of 10^5 cosets).
        n = self.n
        a, b, c, d = q
        code, u = _p1_normalize(n, c, d)
        return code * n + self._delta_class[u * (a * d - b * c) % n]

    def sl2_coset_key(self, q: Quad) -> Hashable:
        # For det-1 inputs the invariant collapses to the bottom row up to
        # scaling by Delta itself: the coset_key formula with det = 1.
        n = self.n
        code, u = _p1_normalize(n, q[2], q[3])
        return code * n + self._delta_class[u]

    def curve_counts(self) -> tuple[int, int, int, int]:
        # The det-1 part of B with -I adjoined is Gamma_H for H = +-Delta
        # (upper-triangular; conjugating by sigma gives the usual c = 0 form).
        # Gamma_H is normal in Gamma_0 with quotient (Z/n)^x / H, so each
        # elliptic point of Gamma_0 has k = [units : H] preimages, all elliptic
        # when the diagonal entry x of its stabilizer lies in H, none otherwise;
        # mu = [GL2 : B_H] = k * psi(n).
        n = self.n
        h = adjoin_minus_i(self).delta
        k = euler_phi(n) // h.order
        nu2 = k * sum(1 for x in h.elements if (x * x + 1) % n == 0)
        nu3 = k * sum(1 for x in h.elements if (x * x + x + 1) % n == 0)
        # Cusps are the H-orbits on the pairs (a mod gcd(c, n), c mod n) with
        # gcd(a, c, n) = 1, under (a, c) -> (a/h, h*c). The pairs with
        # gcd(c, n) = d number phi(d) * phi(n/d), and H acts on them through
        # its image mod lcm(d, n/d), freely, so each block splits evenly.
        # m repeats over d (at l^e only ceil((e+1)/2) values), so each |H mod m|
        # is counted once
        nu_inf = 0
        images: dict[int, int] = {}
        for d in divisors(n):
            m = d * (n // d) // gcd(d, n // d)
            if m not in images:
                images[m] = len({x % m for x in h.elements})
            nu_inf += euler_phi(d) * euler_phi(n // d) // images[m]
        return borel_index(n, h), nu2, nu3, nu_inf

    def orbit_sizes(self, gens: Sequence[Quad], whole: bool) -> list[int]:
        # B*g -> w = (bottom row of g) / det g, taken mod Delta, is a bijection
        # onto the primitive rows mod Delta, and g*r sends w to w*r / det r.
        # So walk the lines of P^1(Z/n) under r / det r instead of the
        # cosets: over a line orbit O the rows form one orbit per coset of
        # Lambda = <Delta, the scalars the line's stabilizer puts on it>, so O
        # carries phi(n)/|Lambda| coset orbits of |O| |Lambda| / |Delta| each.
        # The scalars come from the Schreier generators: a walk back onto a
        # known line, whose stored row has normalizing unit u_j, lands on it
        # times u_j / u. The identity coset is the line of (0, 1); a whole
        # walk draws start lines until all psi(n) lines are known.
        n = self.n
        rows = []
        for s in gens:
            e = pow(quad_det(n, s), -1, n)
            rows.append(tuple(x * e % n for x in s))
        delta = frozenset(self.delta.elements)
        inverse = _unit_inverses(n)
        inverse_units: dict[int, int] = {}  # line code -> 1/u_j
        sizes: list[int] = []
        points = _p1_points(n)
        for start in points if whole else points[:1]:
            code, u = _p1_normalize(n, *start)
            if code in inverse_units:
                continue
            inverse_units[code] = inverse[u]
            line, scalars = [start], delta
            for c, d in line:  # grows while it is walked: the BFS queue
                for s0, s1, s2, s3 in rows:
                    y0, y1 = (c * s0 + d * s2) % n, (c * s1 + d * s3) % n
                    # _p1_normalize, its two unit branches inlined: the walk
                    # spends its time here
                    u = inverse[y0]
                    if u:
                        code = y1 * u % n
                    elif inverse[y1]:
                        u = inverse[y1]
                        code = n + y0 * u % n
                    else:
                        code, u = _p1_normalize(n, y0, y1)
                    inv = inverse_units.get(code)
                    if inv is None:
                        inverse_units[code] = inverse[u]
                        line.append((y0, y1))
                    elif u * inv % n not in scalars:
                        # u/u_j generates the same group as u_j/u
                        scalars = _extend_subgroup(n, scalars, u * inv % n)
            k = len(scalars)
            sizes += [len(line) * k // len(delta)] * (euler_phi(n) // k if whole else 1)
            if len(inverse_units) == len(points):  # every line is known
                break
        return sizes


class CartanNormalizer(SubgroupSpec):
    """Normalizer of a nonsplit Cartan subgroup at an odd prime power l^d.

    Elements are (a eb; b a) and (a -eb; b -a) with e the least positive
    non-residue mod l, kept at the same value mod l^d. This is the thin
    matrix-shape group at level l^d, not the full preimage of the mod-l
    normalizer; see nonsplit_cartan_normalizer_preimage for that one.
    """

    kind = "cartan_nonsplit_normalizer"

    def __init__(self, ell: int, d: int = 1):
        if not is_prime(ell):
            raise ValueError(f"{ell} is not prime")
        if ell == 2:
            raise EvenPrimeUnsupported("nonsplit Cartan normalizer needs an odd prime")
        if d < 1:
            raise ValueError(f"exponent must be >= 1, got {d}")
        super().__init__(ell**d)
        self.ell = ell
        self.d = d
        self.eps = least_nonresidue(ell)

    def member_quad(self, q: Quad) -> bool:
        n = self.n
        a, b, c, d = q
        if not quad_is_invertible(n, q):
            return False
        if d == a and b == self.eps * c % n:
            return True
        return d == -a % n and b == -self.eps * c % n

    @cached_property
    def order(self) -> int:
        l, d = self.ell, self.d
        return 2 * l ** (2 * d - 2) * (l * l - 1)

    @cached_property
    def _gens(self) -> tuple[Quad, ...]:
        # The Cartan is (O/l^d)^x = F_{l^2}^x x (1 + lO), O = Z[sqrt(e)]. t has
        # the order l^2 - 1 of F_{l^2}^x, and at odd l the factor 1 + lO is
        # generated by 1 + l and 1 + l*sqrt(e); the coprime orders let
        # t*(1 + l) stand for two of them. (1 0; 0 -1) adds the normalizer.
        l, n, e = self.ell, self.n, self.eps
        g = quadratic_generator(l, e)
        t = quad_mul(n, quad_pow(n, g, l ** (2 * self.d - 2)), (1 + l, 0, 0, 1 + l))
        return _dedup(n, [t, (1, e * l % n, l % n, 1), (1, 0, 0, n - 1)])

    def coset_key(self, q: Quad) -> int:
        # The row (1, sqrt(e)) is a left eigenvector of every Cartan element,
        # and the Cartan is exactly its stabilizer on P^1(O/l^d); (1 0; 0 -1)
        # sends it to its conjugate. So C*q is pinned by the point z of
        # (1, sqrt(e))*q, one z = x + y*sqrt(e) with y a unit per coset of C,
        # and N*q by the pair {z, conj z}, keyed x*n + y^2: the pair walk's
        # step from (0, 1) = sqrt(e) under q, with m = N(a + c*sqrt(e)).
        n, e = self.n, self.eps
        a, b, c, d = q
        i = _unit_inverses(n)[(a * a - e * c * c) % n]
        return (a * b - e * c * d) * i % n * n + (a * d - b * c) ** 2 * i * i % n

    def orbit_sizes(self, gens: Sequence[Quad], whole: bool) -> list[int]:
        # (N*g)*r has the pair of z -> (r12 + z*r22) / (r11 + z*r21), so walk
        # the pairs (x, y^2) instead of the cosets: from (0, 1) = sqrt(e), the
        # coset N*1, then when whole from every (x, Y) until all [GL2 : N]
        # are known
        n = self.n
        starts = [(0, 1)]
        if whole:
            _check_walk_length(self, gl2_order(n) // self.order)
            squares = sorted({y * y % n for y in units(n)})
            starts = ((x, y2) for x in range(n) for y2 in squares)
        return quadratic_pair_orbits(self, gens, starts)

    @property
    def level(self) -> int:
        # the kernel mod every proper divisor of n = l^d holds
        # (1 l^(d-1); 0 1), which has neither shape
        return self.n

    def reduced(self, m: int) -> SubgroupSpec:
        _check_divisor(self.n, m)
        if m == 1:
            return FullGroup(1)
        return CartanNormalizer(self.ell, _p_adic_valuation(m, self.ell))


def _projective_form(n: int, q: Quad) -> Quad:
    """q scaled by the inverse of its first unit entry, which an invertible
    matrix at a prime power has: equal forms mean equal matrices modulo
    scalars."""
    inv = _unit_inverses(n)
    s = inv[q[0]] or inv[q[1]] or inv[q[2]] or inv[q[3]]
    return (q[0] * s % n, q[1] * s % n, q[2] * s % n, q[3] * s % n)


def _cycle_split(n: int, gens: Sequence[Quad]) -> tuple[Quad, list[Quad], list[Quad]]:
    """(c, per_cycle, per_pair): how quadratic_pair_orbits steps gens at an odd
    prime power n.

    Scalars act trivially on the pairs and take no step, nor does a repeat of
    a generator. The cycle generator c
    is the generator that the most others normalize modulo scalars,
    g*c*g^-1 in <c>*scalars, ties going to the longest order modulo scalars
    and then to the first; those others step once per c-cycle, the rest once
    per pair. Each candidate lists the forms of its powers until one repeats.
    With no generator left, c is the identity.
    """
    powers = {}
    for g in gens:
        g = quad_reduce(g, n)
        forms, p = set(), (1, 0, 0, 1)
        while (f := _projective_form(n, p)) not in forms:
            forms.add(f)
            p = quad_mul(n, p, g)
        powers[g] = forms
    gens = [g for g, forms in powers.items() if len(forms) > 1]
    if not gens:
        return (1, 0, 0, 1), [], []
    partners = {c: [g for g in gens if g != c and _projective_form(
        n, quad_mul(n, quad_mul(n, g, c), quad_inv(n, g))) in powers[c]] for c in gens}
    c = max(gens, key=lambda c: (len(partners[c]), len(powers[c])))
    return c, partners[c], [g for g in gens if g != c and g not in partners[c]]


def quadratic_pair_orbits(h: CartanNormalizer, gens: Sequence[Quad],
                          starts: Iterable[tuple[int, int]]) -> list[int]:
    """Sizes of the orbits of <gens> on the pairs {z, conj z} of O/nO, n = h.n
    and O = Z[sqrt(eps)], eps = h.eps, under z -> (r1 + z*r3) / (r0 + z*r2),
    the row (1, z) times r = (r0 r1; r2 r3) rescaled to first entry 1, one for
    each orbit that starts meets, in that order. There are n*phi(n)/2 pairs,
    and once the walk knows them all it draws no further start.

    A pair is walked as (x, Y), Y = y^2 for z = x + y*sqrt(eps) with y a unit,
    and keyed as the int x*n + Y: the units mod n are cyclic, so y^2 = y'^2
    exactly when y' = +-y, and equal keys mean equal pairs. starts are such
    (x, Y). Let a = r0 + x*r2, so that the norm of the denominator is
    m = N(r0 + z*r2) = a^2 - eps*r2^2*Y; it is a unit for r in GL2, since
    (1, z) is a multiple of (1, sqrt(eps)) * g for some g in GL2. Then
    z' = (r1 + z*r3) * conj(r0 + z*r2) / m, whose parts are
      Re z' = ((r1 + x*r3)*a - eps*r2*r3*Y) / m,
      Im z' = y*(r3*(r0 + x*r2) - r2*(r1 + x*r3)) / m = y*det(r) / N(r0 + z*r2),
    so the pair of z' is (Re z', Y*det(r)^2 / m^2), and neither part needs y.
    eps*r2^2, eps*r2*r3 and det(r)^2 are taken once per generator.

    An orbit is walked as a union of cycles of one generator c (_cycle_split).
    Scalars act trivially, so if g*c*g^-1 = s*c^m for a scalar s, then
    conjugation by g maps the finite group <c>*scalars onto itself, and
    g^-1*c*g = s'*c^m' too; hence c^k*g = s'^k*g*c^(m'k), and p*c^k*g is
    (p*g)*c^(m'k): g maps the c-cycle of p onto the c-cycle of p*g. Such a
    g steps once per cycle, from its first pair; every other generator steps
    from each pair, so a cycle keeps its other pairs only while such a
    generator exists. Each new pair's c-cycle is walked at once, one step a
    pair, until it returns to that pair, so every pair the walk knows lies in
    a whole cycle it knows. Until the first start that some generator moves,
    each start is an orbit of one pair, found by one step per generator, and
    no split is made.

    OrbitTooLarge (_check_orbit_cap) once the walk knows ORBIT_CAP pairs,
    read at call time, and needs another.
    """
    n, eps, cap = h.n, h.eps, ORBIT_CAP

    def constants(r: Quad) -> tuple[int, ...]:
        r0, r1, r2, r3 = r
        return (r0, r1, r2, r3, eps * r2 * r2 % n, eps * r2 * r3 % n,
                (r0 * r3 - r1 * r2) ** 2 % n)

    def step(r: tuple[int, ...], x: int, y2: int) -> tuple[int, int]:
        # the pair of (x, y2) moved by r, given as its constants; the walk's
        # two hot loops below inline it, as a call a step would cost more
        r0, r1, r2, r3, er22, er23, det2 = r
        a = r0 + x * r2
        i = inv[(a * a - er22 * y2) % n]
        return ((r1 + x * r3) * a - er23 * y2) * i % n, y2 * det2 * i * i % n

    inv = _unit_inverses(n)
    total = n * euler_phi(n) // 2
    unsplit = [constants(r) for r in gens]
    # until the split: c the identity, and no generator steps in the walk
    c0, c1, c2, c3, ce22, ce23, cdet2 = constants((1, 0, 0, 1))
    keep, at_first, per_pair = False, [], []
    seen: set[int] = set()

    def cycle(x: int, y2: int) -> list[tuple[int, int]]:
        # the c-cycle of the new pair (x, y2), each pair counted in seen; it
        # returns the pairs that a generator steps from
        x0, y0 = x, y2
        out = [(x, y2)]
        while True:
            if len(seen) >= cap:
                _check_orbit_cap(h, len(seen))
            seen.add(x * n + y2)
            a = c0 + x * c2
            i = inv[(a * a - ce22 * y2) % n]
            x, y2 = ((c1 + x * c3) * a - ce23 * y2) * i % n, y2 * cdet2 * i * i % n
            if x == x0 and y2 == y0:
                return out
            if keep:
                out.append((x, y2))

    sizes = []
    for x0, y0 in starts:
        if x0 * n + y0 in seen:
            continue
        if unsplit and any(step(r, x0, y0) != (x0, y0) for r in unsplit):
            c, per_cycle, per_pair = _cycle_split(n, gens)
            c0, c1, c2, c3, ce22, ce23, cdet2 = constants(c)
            per_pair = [constants(r) for r in per_pair]
            at_first = [constants(r) for r in per_cycle] + per_pair
            keep, unsplit = bool(per_pair), []
        known = len(seen)
        orbit = [cycle(x0, y0)]
        for pairs in orbit:  # grows while it is walked: the BFS queue of cycles
            steps = at_first
            for x, y2 in pairs:
                for r0, r1, r2, r3, er22, er23, det2 in steps:
                    a = r0 + x * r2
                    i = inv[(a * a - er22 * y2) % n]
                    u = ((r1 + x * r3) * a - er23 * y2) * i % n
                    v = y2 * det2 * i * i % n
                    if u * n + v not in seen:
                        orbit.append(cycle(u, v))
                steps = per_pair
        sizes.append(len(seen) - known)
        if len(seen) == total:
            break
    return sizes


class GeneratedGroup(SubgroupSpec):
    """The closure of an explicit generator list, decided by its stabilizer chain."""

    kind = "generated"

    def __init__(self, n: int, gen_quads: Iterable[Quad]):
        super().__init__(n)
        gens = _dedup(n, [quad_reduce(q, n) for q in gen_quads])
        for q in gens:
            if not quad_is_invertible(n, q):
                raise NonInvertible(f"generator {q} is singular mod {n}")
        self._gens = gens


class LiftedGroup(SubgroupSpec):
    """Full preimage of a base group under reduction from modulus n to base.n."""

    kind = "lifted"

    def __init__(self, base: SubgroupSpec, n: int):
        if n % base.n:
            raise NonDivisor(f"base modulus {base.n} must divide {n}")
        super().__init__(n)
        self.base = base.preimage_base

    def member_quad(self, q: Quad) -> bool:
        return quad_is_invertible(self.n, q) and self.base.member_quad(quad_reduce(q, self.base.n))

    @cached_property
    def _gens(self) -> tuple[Quad, ...]:
        n, m = self.n, self.base.n
        gens = [lift_quad(g, m, n) for g in self.base.generator_quads()]
        gens += list(kernel_generator_quads(n, m))
        return _dedup(n, gens)

    @cached_property
    def order(self) -> int:
        return self.base.order * (gl2_order(self.n) // gl2_order(self.base.n))

    @property
    def preimage_base(self) -> SubgroupSpec:
        return self.base

    @property
    def level(self) -> int:
        # the mod-m kernel lies inside, m = base.n, so the level divides m;
        # for d | m the mod-d kernel lies inside exactly when its image mod
        # m, the mod-d kernel there, lies in the base
        return self.base.level

    def reduced(self, m: int) -> SubgroupSpec:
        _check_divisor(self.n, m)
        # the base itself at its own modulus, with its chain if one is built
        inner = reduce_subgroup(self.base, gcd(m, self.base.n))
        return lift_subgroup(inner, m)

    def with_minus_i(self) -> SubgroupSpec:
        return LiftedGroup(adjoin_minus_i(self.base), self.n)

    def coset_key(self, q: Quad) -> Hashable:
        # cosets of a preimage are pinned entirely downstairs
        return self.base.coset_key(quad_reduce(q, self.base.n))

    def orbit_sizes(self, gens: Sequence[Quad], whole: bool) -> list[int]:
        # the same cosets, so the same orbits under the reduced generators
        m = self.base.n
        return self.base.orbit_sizes([quad_reduce(g, m) for g in gens], whole)


class SL2Part(SubgroupSpec):
    """The determinant-1 part of a parent subgroup."""

    kind = "sl2_part"

    def __init__(self, parent: SubgroupSpec):
        super().__init__(parent.n)
        self.parent = parent

    def member_quad(self, q: Quad) -> bool:
        return quad_det(self.n, q) == 1 % self.n and self.parent.member_quad(q)

    @cached_property
    def order(self) -> int:
        return self.parent.order // self.parent.det_image.order

    @cached_property
    def _gens(self) -> tuple[Quad, ...]:
        # Schreier's lemma over det: S = H meet SL2 is the stabilizer of the
        # determinant 1 under x -> g*x, so the transversal's Schreier
        # generators t_{det y}^-1 * y generate it. The sift keeps each one
        # that the chain of those kept before it misses.
        n = self.n
        _, schreier = _transversal(n, self.parent.generator_quads(),
                                   lambda y: quad_det(n, y))
        kept: list[Quad] = []
        chain = StabilizerChain(n, kept)
        for q in schreier:
            if not chain.contains(q):
                kept.append(q)
                chain = StabilizerChain(n, kept)
        return tuple(kept)

    def coset_key(self, q: Quad) -> Hashable:
        # S*g1 = S*g2 iff the parent cosets agree and the determinants agree
        return (quad_det(self.n, q), self.parent.coset_key(q))

    def with_minus_i(self) -> SubgroupSpec:
        return SL2Part(adjoin_minus_i(self.parent))


# constructors named for what they build

def borel(n: int, delta: UnitSubgroup) -> BorelGroup:
    return BorelGroup(n, delta)


def nonsplit_cartan_normalizer(q: int) -> CartanNormalizer:
    """The matrix-shape normalizer at the odd prime power q = l^d."""
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    ell, d = fac[0]
    return CartanNormalizer(ell, d)


def nonsplit_cartan_normalizer_preimage(q: int) -> SubgroupSpec:
    """Full preimage at modulus q = l^d of the mod-l normalizer."""
    thin = nonsplit_cartan_normalizer(q)
    return thin if thin.d == 1 else LiftedGroup(CartanNormalizer(thin.ell), q)


def least_nonresidue(ell: int) -> int:
    """Least positive quadratic non-residue mod an odd prime."""
    for e in range(2, ell):
        if pow(e, (ell - 1) // 2, ell) == ell - 1:
            return e
    raise ValueError(f"no non-residue mod {ell}")


# closed-form sizes

def borel_order(n: int, delta: UnitSubgroup) -> int:
    """#B_Delta(n) = #Delta * prod p^(2a-1) (p-1)."""
    out = delta.order
    for p, e in factorize(n):
        out *= p ** (2 * e - 1) * (p - 1)
    return out


def borel_index(n: int, delta: UnitSubgroup) -> int:
    """[GL2 : B_Delta] = (1/#Delta) * prod p^(2a-2) (p^2-1)."""
    num = 1
    for p, e in factorize(n):
        num *= p ** (2 * e - 2) * (p * p - 1)
    k = delta.order
    if num % k:
        raise NonIntegral(f"#Delta = {k} does not divide {num}")
    return num // k


# generic group operations

def contains_minus_i(h: SubgroupSpec) -> bool:
    return h.member_quad(minus_identity_quad(h.n))


def adjoin_minus_i(h: SubgroupSpec) -> SubgroupSpec:
    """The group generated by H and -I; H itself when -I is already inside."""
    return h if contains_minus_i(h) else h.with_minus_i()


def coset_action(h: SubgroupSpec,
                 gens: Sequence[Quad]) -> tuple[list[Quad], list[list[int]]]:
    """The right cosets of H reached from H*1 under gens, and how gens act on them.

    One BFS from the identity coset: reps[i] represents the i-th coset in
    discovery order and perms[k][i] is the index of reps[i] * gens[k], so each
    (coset, generator) pair costs exactly one key. OrbitTooLarge once the walk
    would pass ORBIT_CAP cosets.
    """
    n = h.n
    key = h.coset_key
    reps = [identity_quad(n)]
    index = {key(reps[0]): 0}
    perms: list[list[int]] = [[] for _ in gens]
    for x in reps:  # reps grows while it is walked: it is the BFS queue
        for g, perm in zip(gens, perms):
            y = quad_mul(n, x, g)
            k = key(y)
            j = index.get(k)
            if j is None:
                j = len(reps)
                _check_orbit_cap(h, j)
                index[k] = j
                reps.append(y)
            perm.append(j)
    return reps, perms


def _check_orbit_cap(h: SubgroupSpec, j: int) -> None:
    """OrbitTooLarge when a walk that knows j cosets of H needs another."""
    if j >= ORBIT_CAP:
        raise OrbitTooLarge(f"coset walk of {h.kind} mod {h.n} reached {j} "
                            f"cosets, cap {ORBIT_CAP}", operation="coset walk",
                            modulus=h.n, reached=j, cap=ORBIT_CAP)


def _check_unit_count(n: int) -> None:
    """TooLarge before the unit subgroups mod n are built, when the phi(n)
    units pass ENUMERATION_CAP, read at call time."""
    size, cap = euler_phi(n), ENUMERATION_CAP
    if size > cap:
        raise TooLarge(f"unit subgroups mod {n} need {size} units, cap {cap}",
                       operation="unit subgroups", modulus=n, reached=size,
                       cap=cap)


def _check_walk_length(h: SubgroupSpec, cosets: int) -> None:
    """OrbitTooLarge before a walk that must reach this many cosets of H
    passes ORBIT_CAP, with the message the walk itself would give there."""
    if cosets > ORBIT_CAP:
        _check_orbit_cap(h, ORBIT_CAP)


def walked_orbit_sizes(h: SubgroupSpec, gens: tuple[Quad, ...]) -> list[int]:
    """Sizes of the orbits of <gens> on the right cosets of H, the orbit of
    H*1 first, by the coset walk: gens then the ambient generators reach
    every coset, and the orbits are the components of gens' permutations.
    The walk reaches all [GL2 : H] cosets, so that count is checked first."""
    _check_walk_length(h, gl2_order(h.n) // h.order)
    walk = gens + tuple(g for g in FullGroup(h.n).generator_quads()
                        if g not in gens)
    reps, perms = coset_action(h, walk)
    return permutation_orbit_sizes(perms[:len(gens)], len(reps))


def permutation_orbit_sizes(perms: Sequence[Sequence[int]], count: int) -> list[int]:
    """Sizes of the orbits of the index permutations perms on range(count),
    in the order of each orbit's least point."""
    sizes = []
    assigned = [False] * count
    for start in range(count):
        if assigned[start]:
            continue
        assigned[start] = True
        orbit = [start]
        for i in orbit:  # orbit grows while it is walked
            for perm in perms:
                j = perm[i]
                if not assigned[j]:
                    assigned[j] = True
                    orbit.append(j)
        sizes.append(len(orbit))
    return sizes


def preimage_descent(r: SubgroupSpec,
                     h: SubgroupSpec) -> tuple[SubgroupSpec, SubgroupSpec, int]:
    """(R_m, H_m, s): R's orbits on the right cosets of H mod n are those of
    R_m on the cosets of H_m mod m, each s times larger.

    When R is the full preimage of R_m = r.preimage_base at m < n, the kernel
    K of reduction to m is normal and inside R, so H*g*R is the preimage of
    pi(H)*pi(g)*R_m: the orbits match one to one and each grows by
    s = [K : K meet H] = [K*H : H], K*H the full preimage of H_m = pi(H).
    All of GL2 is the preimage of GL2(Z/1): m = 1, one orbit, s = [GL2 : H].
    Otherwise m = n, (R, H, 1), and the orbits are taken at n.
    """
    base = r.preimage_base
    h_m = reduce_subgroup(h, base.n)
    return base, h_m, nested_index(lift_subgroup(h_m, h.n), h)


def nested_index(g: SubgroupSpec, h: SubgroupSpec) -> int:
    """[G : H] = |G| / |H| for H inside G; NonIntegral unless |H| divides |G|."""
    if g.order % h.order:
        raise NonIntegral(f"order {h.order} does not divide order {g.order}")
    return g.order // h.order


def index_via_orbit(r: SubgroupSpec, h: SubgroupSpec) -> int:
    """[R : R meet H], the size of the orbit of the coset H*1 under R's generators."""
    if r.n != h.n:
        raise ModulusMismatch(f"groups live mod {r.n} and mod {h.n}")
    r, h, scale = preimage_descent(r, h)
    return scale * h.orbit_sizes(r.generator_quads(), whole=False)[0]


def reduce_subgroup(h: SubgroupSpec, m: int) -> SubgroupSpec:
    """Image of H under entrywise reduction to the divisor modulus m."""
    _check_divisor(h.n, m)
    if m == h.n:
        return h
    return h.reduced(m)


def lift_subgroup(h: SubgroupSpec, n: int) -> SubgroupSpec:
    """Full preimage of H at the multiple modulus n; NonDivisor, from the
    kind's lifted, at any other n."""
    return h if n == h.n else h.lifted(n)


def _ladder_quads(p: int, lo: int, hi: int, pe: int) -> list[Quad]:
    # elementary congruence generators I + p^j E at every level lo <= j < hi;
    # including each level directly sidesteps the p = 2 power pathologies
    out = []
    for j in range(lo, hi):
        pj = p**j
        out += [
            ((1 + pj) % pe, 0, 0, 1),
            (1, pj % pe, 0, 1),
            (1, 0, pj % pe, 1),
            (1, 0, 0, (1 + pj) % pe),
        ]
    return out


def kernel_generator_quads(n: int, d: int) -> tuple[Quad, ...]:
    """Generators of ker(GL2(Z/n) -> GL2(Z/d)) for d | n."""
    _check_divisor(n, d)
    if d == n:
        return ()
    gens: list[Quad] = []
    for p, e in factorize(n):
        f = _p_adic_valuation(d, p)
        if f == e:
            continue
        pe = p**e
        local = (FullGroup(pe).generator_quads() if f == 0
                 else _ladder_quads(p, f, e, pe))
        gens += [lift_quad(q, pe, n) for q in local]
    return _dedup(n, gens)


def level(h: SubgroupSpec) -> int:
    """Least divisor d of the modulus with the whole mod-d kernel inside H:
    the kind's closed form where it has one (full 1, Borel and Cartan
    normalizer n, a lift its base's level), else scanned_level."""
    return h.level


def scanned_level(h: SubgroupSpec) -> int:
    """The level by scan: the first divisor d of the modulus whose mod-d
    kernel generators all lie in H. The kernels of two good divisors
    generate the kernel of their gcd, so the first is the least."""
    n = h.n
    for d in divisors(n):
        if all(h.member_quad(g) for g in kernel_generator_quads(n, d)):
            return d
    return n


def subgroup_of(h: SubgroupSpec, g: SubgroupSpec) -> None:
    """Raise NotASubgroup unless every generator of h lies in g."""
    if h.n != g.n:
        raise ModulusMismatch(f"groups live mod {h.n} and mod {g.n}")
    for q in h.generator_quads():
        if not g.member_quad(q):
            raise NotASubgroup(f"generator {q} escapes the claimed overgroup")


def _dedup(n: int, quads: Iterable[Quad]) -> tuple[Quad, ...]:
    ident = identity_quad(n)
    out = []
    seen = set()
    for q in quads:
        if q != ident and q not in seen:
            seen.add(q)
            out.append(q)
    return tuple(out)


def _check_divisor(n: int, m: int) -> None:
    if m < 1 or n % m:
        raise NonDivisor(f"{m} does not divide {n}")


def _p_adic_valuation(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v
