"""Subgroups of GL2(Z/NZ): predicates, generators, orders, indices, lifts, levels.

Every group is carried two ways at once: a membership predicate and a small
generating set. Index computations never enumerate the ambient group; they
walk right cosets H*g under the other group's generators (coset_action, the
one walk behind index, genus and fiber computations) and identify a coset by
a canonical key (equal keys exactly when the cosets are equal). Instances
are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import gcd
from typing import Hashable, Iterable, Sequence

from .errors import (EvenPrimeUnsupported, ModulusMismatch, NonDivisor,
                     NonInvertible, NotASubgroup, OrbitTooLarge, TooLarge)
from .zmod import (Mat2, Quad, UnitSubgroup, divisors, euler_phi, factorize,
                   is_prime, quad_det, quad_inv, quad_is_invertible, quad_mul,
                   quad_reduce, unit_group_generators, unit_subgroup, units)

ENUMERATION_CAP = 10_000_000
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


def identity_quad(n: int) -> Quad:
    return (1 % n, 0, 0, 1 % n)


def minus_identity_quad(n: int) -> Quad:
    return ((-1) % n, 0, 0, (-1) % n)


def sigma_quad(n: int) -> Quad:
    """(0 -1; 1 0), order 4 in SL2, order 2 in PSL2."""
    return (0, (-1) % n, 1 % n, 0)


def tau_quad(n: int) -> Quad:
    """(1 1; 0 1), the translation whose orbits are the cusps."""
    return (1 % n, 1 % n, 0, 1 % n)


def tau3_quad(n: int) -> Quad:
    """(0 -1; 1 -1), order 3; its fixed cosets count the order-3 points."""
    return (0, (-1) % n, 1 % n, (-1) % n)


def closure_quads(n: int, gen_quads: Iterable[Quad], cap: int = ENUMERATION_CAP) -> frozenset[Quad]:
    """All products of the generators (the generated subgroup, groups being finite)."""
    start = identity_quad(n)
    seen = {start}
    frontier = [start]
    gens = list(gen_quads)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = quad_mul(n, x, g)
                if y not in seen:
                    if len(seen) >= cap:
                        raise TooLarge(f"closure mod {n} exceeds cap {cap}")
                    seen.add(y)
                    new.append(y)
        frontier = new
    return frozenset(seen)


def _greedy_generator_quads(n: int, element_quads: Iterable[Quad]) -> tuple[Quad, ...]:
    """Small generating set extracted from a full element list, deterministically."""
    elements = sorted(element_quads)
    total = len(elements)
    gens: list[Quad] = []
    closed: frozenset[Quad] = frozenset({identity_quad(n)})
    for q in elements:
        if q not in closed:
            gens.append(q)
            closed = closure_quads(n, gens)
            if len(closed) == total:
                break
    return tuple(gens)


class SubgroupSpec:
    """A subgroup of GL2(Z/nZ).

    Concrete kinds supply membership, generators, exact order, reduction to a
    divisor modulus, and a canonical right-coset key. The default key is the
    minimum of h*g over the enumerated elements, which is exact but requires
    the group to fit under the enumeration cap; structured kinds override it.
    """

    kind = "abstract"

    def __init__(self, n: int, label: str | None = None):
        if n < 1:
            raise ValueError(f"modulus must be >= 1, got {n}")
        self.n = n
        self.label = label

    # membership and generators

    def member_quad(self, q: Quad) -> bool:
        raise NotImplementedError

    def generator_quads(self) -> tuple[Quad, ...]:
        raise NotImplementedError

    def contains(self, m: Mat2) -> bool:
        if m.n != self.n:
            raise ModulusMismatch(f"matrix mod {m.n} against group mod {self.n}")
        return self.member_quad(m.quad)

    def generators(self) -> tuple[Mat2, ...]:
        return tuple(Mat2(self.n, *q) for q in self.generator_quads())

    # size and enumeration

    @cached_property
    def order(self) -> int:
        return len(self.element_quads)

    @cached_property
    def element_quads(self) -> frozenset[Quad]:
        return closure_quads(self.n, self.generator_quads())

    def elements(self) -> frozenset[Mat2]:
        return frozenset(Mat2(self.n, *q) for q in self.element_quads)

    # structure

    def reduced(self, m: int) -> "SubgroupSpec":
        raise NotImplementedError

    def coset_key(self, q: Quad) -> Hashable:
        els = self.element_quads
        n = self.n
        return min(quad_mul(n, h, q) for h in els)

    @cached_property
    def det_image(self) -> UnitSubgroup:
        n = self.n
        return unit_subgroup(n, (quad_det(n, g) for g in self.generator_quads()))

    def has_full_determinant(self) -> bool:
        return self.det_image.order == euler_phi(self.n)

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"<{type(self).__name__} mod {self.n}{tag}>"


class FullGroup(SubgroupSpec):
    """All of GL2(Z/nZ)."""

    kind = "full"

    def member_quad(self, q: Quad) -> bool:
        return quad_is_invertible(self.n, q)

    def generator_quads(self) -> tuple[Quad, ...]:
        n = self.n
        gens = [sigma_quad(n), tau_quad(n)]
        gens += [(1 % n, 0, 0, u) for u in unit_group_generators(n)]
        return _dedup(n, gens)

    @cached_property
    def order(self) -> int:
        return gl2_order(self.n)

    @cached_property
    def element_quads(self) -> frozenset[Quad]:
        n = self.n
        if n**4 > ENUMERATION_CAP:
            raise TooLarge(f"GL2(Z/{n}) enumeration exceeds cap")
        rng = range(n)
        return frozenset(
            (a, b, c, d)
            for a in rng for b in rng for c in rng for d in rng
            if gcd((a * d - b * c) % n, n) == 1
        )

    def reduced(self, m: int) -> SubgroupSpec:
        _check_divisor(self.n, m)
        return FullGroup(m)

    def coset_key(self, q: Quad) -> Hashable:
        return 0


class BorelGroup(SubgroupSpec):
    """Upper-triangular matrices (x y; 0 z) whose upper-left entry lies in Delta."""

    kind = "borel"

    def __init__(self, n: int, delta: UnitSubgroup, label: str | None = None):
        if delta.n != n:
            raise ModulusMismatch(f"Delta mod {delta.n} against modulus {n}")
        super().__init__(n, label)
        self.delta = delta

    def member_quad(self, q: Quad) -> bool:
        a, b, c, d = q
        return c == 0 and self.delta.contains(a) and gcd(d, self.n) == 1

    def generator_quads(self) -> tuple[Quad, ...]:
        n = self.n
        gens = [tau_quad(n)]
        gens += [(g, 0, 0, 1 % n) for g in self.delta.generators]
        gens += [(1 % n, 0, 0, u) for u in unit_group_generators(n)]
        return _dedup(n, gens)

    @cached_property
    def order(self) -> int:
        return self.delta.order * self.n * euler_phi(self.n)

    @cached_property
    def element_quads(self) -> frozenset[Quad]:
        if self.order > ENUMERATION_CAP:
            raise TooLarge("Borel enumeration exceeds cap")
        n = self.n
        return frozenset(
            (a, b, 0, d)
            for a in self.delta.elements for b in range(n) for d in units(n)
        )

    def reduced(self, m: int) -> SubgroupSpec:
        _check_divisor(self.n, m)
        return BorelGroup(m, self.delta.reduced(m))

    @cached_property
    def _delta_class(self) -> list[int]:
        """Unit t -> least element of the coset t*Delta (0 at non-units)."""
        n = self.n
        out = [0] * n
        dels = self.delta.elements
        # ascending walk: the first unit to reach a coset is its least element
        for t in units(n):
            if not out[t]:
                for dl in dels:
                    out[t * dl % n] = t
        return out

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


class CartanNormalizer(SubgroupSpec):
    """Normalizer of a nonsplit Cartan subgroup at an odd prime power l^d.

    Elements are (a eb; b a) and (a -eb; b -a) with e the least positive
    non-residue mod l, kept at the same value mod l^d. This is the thin
    matrix-shape group at level l^d, not the full preimage of the mod-l
    normalizer; see nonsplit_cartan_normalizer_preimage for that one.
    """

    kind = "cartan_nonsplit_normalizer"

    def __init__(self, ell: int, d: int = 1, label: str | None = None):
        if not is_prime(ell):
            raise ValueError(f"{ell} is not prime")
        if ell == 2:
            raise EvenPrimeUnsupported("nonsplit Cartan normalizer needs an odd prime")
        if d < 1:
            raise ValueError(f"exponent must be >= 1, got {d}")
        super().__init__(ell**d, label)
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
    def element_quads(self) -> frozenset[Quad]:
        n = self.n
        e = self.eps
        out = set()
        for a in range(n):
            for b in range(n):
                if gcd((a * a - e * b * b) % n, n) == 1:
                    out.add((a, e * b % n, b, a))
                    out.add((a, -e * b % n, b, -a % n))
        return frozenset(out)

    def generator_quads(self) -> tuple[Quad, ...]:
        return self._gens

    @cached_property
    def _gens(self) -> tuple[Quad, ...]:
        return _greedy_generator_quads(self.n, self.element_quads)

    def coset_key(self, q: Quad) -> Hashable:
        # Hq1 = Hq2 iff q2*q1^-1 commutes or anticommutes with the twisting
        # matrix J = (0 e; 1 0), and at odd ell the commutant of J is exactly
        # the Cartan, so the unordered pair {q^-1 J q, -(q^-1 J q)} is a
        # complete right-coset invariant.
        n = self.n
        m = quad_mul(n, quad_mul(n, quad_inv(n, q), (0, self.eps, 1, 0)), q)
        neg = (-m[0] % n, -m[1] % n, -m[2] % n, -m[3] % n)
        return m if m <= neg else neg

    def reduced(self, m: int) -> SubgroupSpec:
        _check_divisor(self.n, m)
        if m == 1:
            return FullGroup(1)
        d = 0
        mm = m
        while mm % self.ell == 0:
            mm //= self.ell
            d += 1
        return CartanNormalizer(self.ell, d)


class EnumeratedGroup(SubgroupSpec):
    """A subgroup given by its explicit element set."""

    kind = "enumerated"

    def __init__(self, n: int, element_quads: Iterable[Quad], label: str | None = None):
        super().__init__(n, label)
        els = frozenset(quad_reduce(q, n) for q in element_quads)
        if identity_quad(n) not in els:
            raise ValueError("element set must contain the identity")
        for q in els:
            if not quad_is_invertible(n, q):
                raise NonInvertible(f"element {q} is singular mod {n}")
        self._elements = els

    def member_quad(self, q: Quad) -> bool:
        return q in self._elements

    @cached_property
    def element_quads(self) -> frozenset[Quad]:
        return self._elements

    @cached_property
    def order(self) -> int:
        return len(self._elements)

    def generator_quads(self) -> tuple[Quad, ...]:
        return self._gens

    @cached_property
    def _gens(self) -> tuple[Quad, ...]:
        return _greedy_generator_quads(self.n, self._elements)

    def reduced(self, m: int) -> SubgroupSpec:
        _check_divisor(self.n, m)
        return EnumeratedGroup(m, (quad_reduce(q, m) for q in self._elements))


class GeneratedGroup(SubgroupSpec):
    """The closure of an explicit generator list; membership needs enumeration."""

    kind = "generated"

    def __init__(self, n: int, gen_quads: Iterable[Quad], label: str | None = None):
        super().__init__(n, label)
        gens = _dedup(n, [quad_reduce(q, n) for q in gen_quads])
        for q in gens:
            if not quad_is_invertible(n, q):
                raise NonInvertible(f"generator {q} is singular mod {n}")
        self._gens = gens

    def member_quad(self, q: Quad) -> bool:
        return q in self.element_quads

    def generator_quads(self) -> tuple[Quad, ...]:
        return self._gens

    def reduced(self, m: int) -> SubgroupSpec:
        _check_divisor(self.n, m)
        # the image of a closure is the closure of the images
        return GeneratedGroup(m, (quad_reduce(q, m) for q in self._gens),
                              label=self.label)


class LiftedGroup(SubgroupSpec):
    """Full preimage of a base group under reduction from modulus n to base.n."""

    kind = "lifted"

    def __init__(self, base: SubgroupSpec, n: int, label: str | None = None):
        if n % base.n:
            raise NonDivisor(f"base modulus {base.n} must divide {n}")
        if isinstance(base, LiftedGroup):
            base = base.base
        super().__init__(n, label)
        self.base = base

    def member_quad(self, q: Quad) -> bool:
        return quad_is_invertible(self.n, q) and self.base.member_quad(quad_reduce(q, self.base.n))

    def generator_quads(self) -> tuple[Quad, ...]:
        n, m = self.n, self.base.n
        gens = [lift_quad(g, m, n) for g in self.base.generator_quads()]
        gens += list(kernel_generator_quads(n, m))
        return _dedup(n, gens)

    @cached_property
    def order(self) -> int:
        return self.base.order * (gl2_order(self.n) // gl2_order(self.base.n))

    def reduced(self, m: int) -> SubgroupSpec:
        _check_divisor(self.n, m)
        g = gcd(m, self.base.n)
        inner = self.base.reduced(g)
        return lift_subgroup(inner, m)

    def coset_key(self, q: Quad) -> Hashable:
        # cosets of a preimage are pinned entirely downstairs
        return self.base.coset_key(quad_reduce(q, self.base.n))


class SL2Part(SubgroupSpec):
    """The determinant-1 part of a parent subgroup."""

    kind = "sl2_part"

    def __init__(self, parent: SubgroupSpec, label: str | None = None):
        super().__init__(parent.n, label)
        self.parent = parent

    def member_quad(self, q: Quad) -> bool:
        return quad_det(self.n, q) == 1 % self.n and self.parent.member_quad(q)

    @cached_property
    def order(self) -> int:
        return self.parent.order // self.parent.det_image.order

    @cached_property
    def element_quads(self) -> frozenset[Quad]:
        one = 1 % self.n
        return frozenset(q for q in self.parent.element_quads
                         if quad_det(self.n, q) == one)

    def generator_quads(self) -> tuple[Quad, ...]:
        return self._gens

    @cached_property
    def _gens(self) -> tuple[Quad, ...]:
        n = self.n
        p = self.parent
        if isinstance(p, FullGroup):
            return _dedup(n, [sigma_quad(n), tau_quad(n)])
        if isinstance(p, BorelGroup):
            gens = [tau_quad(n)]
            for dl in p.delta.generators:
                gens.append((dl, 0, 0, pow(dl, -1, n)))
            return _dedup(n, gens)
        if isinstance(p, LiftedGroup):
            m = p.base.n
            gens = [det_one_lift_quad(g, m, n) for g in SL2Part(p.base).generator_quads()]
            gens += list(sl2_kernel_generator_quads(n, m))
            return _dedup(n, gens)
        return _greedy_generator_quads(n, self.element_quads)

    def coset_key(self, q: Quad) -> Hashable:
        # S*g1 = S*g2 iff the parent cosets agree and the determinants agree;
        # branch on det so each det class uses one consistent encoding.
        d = quad_det(self.n, q)
        p = self.parent
        if d == 1 % self.n and isinstance(p, BorelGroup):
            return (d, p.sl2_coset_key(q))
        return (d, p.coset_key(q))

    def reduced(self, m: int) -> SubgroupSpec:
        # the image of a det-1 part need not be the det-1 part of the image
        raise NotImplementedError("reduce the parent group instead")


# constructors named for what they build

def borel(n: int, delta: UnitSubgroup, label: str | None = None) -> BorelGroup:
    return BorelGroup(n, delta, label)


def nonsplit_cartan_normalizer(q: int) -> CartanNormalizer:
    """The matrix-shape normalizer at the odd prime power q = l^d."""
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    ell, d = fac[0]
    return CartanNormalizer(ell, d)

def nonsplit_cartan_normalizer_preimage(q: int) -> SubgroupSpec:
    """Full preimage at modulus q = l^d of the mod-l normalizer."""
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    ell, d = fac[0]
    base = CartanNormalizer(ell, 1)
    return base if d == 1 else LiftedGroup(base, q)


def least_nonresidue(ell: int) -> int:
    """Least positive quadratic non-residue mod an odd prime."""
    for e in range(2, ell):
        if pow(e, (ell - 1) // 2, ell) == ell - 1:
            return e
    raise ValueError(f"no non-residue mod {ell}")


# closed-form sizes

def _delta_order(delta: UnitSubgroup | int) -> int:
    return delta if isinstance(delta, int) else delta.order


def borel_order(n: int, delta: UnitSubgroup | int) -> int:
    """#B_Delta(n) = #Delta * prod p^(2a-1) (p-1)."""
    out = _delta_order(delta)
    for p, e in factorize(n):
        out *= p ** (2 * e - 1) * (p - 1)
    return out


def borel_index(n: int, delta: UnitSubgroup | int) -> int:
    """[GL2 : B_Delta] = (1/#Delta) * prod p^(2a-2) (p^2-1)."""
    num = 1
    for p, e in factorize(n):
        num *= p ** (2 * e - 2) * (p * p - 1)
    k = _delta_order(delta)
    if num % k:
        from .errors import NonIntegral
        raise NonIntegral(f"#Delta = {k} does not divide {num}")
    return num // k


# generic group operations

def order(h: SubgroupSpec) -> int:
    return h.order


def contains_minus_i(h: SubgroupSpec) -> bool:
    return h.member_quad(minus_identity_quad(h.n))


def adjoin_minus_i(h: SubgroupSpec) -> SubgroupSpec:
    """The group generated by H and -I; H itself when -I is already inside."""
    if contains_minus_i(h):
        return h
    n = h.n
    if isinstance(h, BorelGroup):
        return BorelGroup(n, unit_subgroup(n, h.delta.elements + (n - 1,)))
    if isinstance(h, EnumeratedGroup):
        m = minus_identity_quad(n)
        doubled = set(h.element_quads) | {quad_mul(n, m, q) for q in h.element_quads}
        return EnumeratedGroup(n, doubled)
    if isinstance(h, LiftedGroup):
        return LiftedGroup(adjoin_minus_i(h.base), n)
    if isinstance(h, SL2Part):
        return SL2Part(adjoin_minus_i(h.parent))
    return GeneratedGroup(n, h.generator_quads() + (minus_identity_quad(n),),
                          label=h.label)


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
                if j >= ORBIT_CAP:
                    raise OrbitTooLarge(f"coset walk of {h.kind} mod {n} "
                                        f"reached {j} cosets, cap {ORBIT_CAP}")
                index[k] = j
                reps.append(y)
            perm.append(j)
    return reps, perms


def index_via_orbit(r: SubgroupSpec, h: SubgroupSpec) -> int:
    """[R : R meet H], the size of the orbit of the coset H*1 under R's generators."""
    if r.n != h.n:
        raise ModulusMismatch(f"groups live mod {r.n} and mod {h.n}")
    reps, _ = coset_action(h, r.generator_quads())
    return len(reps)


def reduce_subgroup(h: SubgroupSpec, m: int) -> SubgroupSpec:
    """Image of H under entrywise reduction to the divisor modulus m."""
    _check_divisor(h.n, m)
    if m == h.n:
        return h
    return h.reduced(m)


def lift_subgroup(h: SubgroupSpec, n: int) -> SubgroupSpec:
    """Full preimage of H at the multiple modulus n."""
    if n % h.n:
        raise NonDivisor(f"{h.n} does not divide {n}")
    if n == h.n:
        return h
    if isinstance(h, FullGroup):
        return FullGroup(n)
    return LiftedGroup(h, n)


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
        if f == 0:
            local = [sigma_quad(pe), tau_quad(pe)]
            local += [(1, 0, 0, u) for u in unit_group_generators(pe)]
        else:
            local = _ladder_quads(p, f, e, pe)
        gens += [crt_embed_quad(q, pe, n) for q in local]
    return _dedup(n, gens)


def sl2_kernel_generator_quads(n: int, d: int) -> tuple[Quad, ...]:
    """Generators of ker(SL2(Z/n) -> SL2(Z/d)) for d | n."""
    _check_divisor(n, d)
    if d == n:
        return ()
    gens: list[Quad] = []
    for p, e in factorize(n):
        f = _p_adic_valuation(d, p)
        if f == e:
            continue
        pe = p**e
        if f == 0:
            local = [sigma_quad(pe), tau_quad(pe)]
        else:
            local = []
            for j in range(f, e):
                pj = p**j
                local += [
                    (1, pj % pe, 0, 1),
                    (1, 0, pj % pe, 1),
                    ((1 + pj) % pe, 0, 0, pow(1 + pj, -1, pe)),
                ]
        gens += [crt_embed_quad(q, pe, n) for q in local]
    return _dedup(n, gens)


def kernel_subgroup(n: int, d: int) -> SubgroupSpec:
    """ker(GL2(Z/n) -> GL2(Z/d)) as a generated group."""
    if d == n:
        return EnumeratedGroup(n, [identity_quad(n)], label=f"ker({n}->{d})")
    return GeneratedGroup(n, kernel_generator_quads(n, d), label=f"ker({n}->{d})")


def level(h: SubgroupSpec, divisor_chain: Iterable[int] | None = None) -> int:
    """Least divisor d of the modulus with the whole mod-d kernel inside H."""
    n = h.n
    if divisor_chain is None:
        chain = list(divisors(n))
    else:
        chain = sorted(set(divisor_chain) | {n})
        for d in chain:
            _check_divisor(n, d)
    for d in chain:
        if all(h.member_quad(g) for g in kernel_generator_quads(n, d)):
            return d
    return n


def lift_quad(q: Quad, m: int, n: int) -> Quad:
    """Some invertible lift of q from modulus m to modulus n (m | n).

    Entries are kept verbatim at primes shared with m and set to the identity
    at primes new to n, so the lift always reduces back to q.
    """
    if m == n:
        return q
    shared = 1
    for p, e in factorize(n):
        if m % p == 0:
            shared *= p**e
    rest = n // shared
    if rest == 1:
        return quad_reduce(q, n)
    ident = identity_quad(rest)
    return tuple(_crt2(q[i] % shared, shared, ident[i], rest) for i in range(4))  # type: ignore[return-value]


def det_one_lift_quad(q: Quad, m: int, n: int) -> Quad:
    """A lift of a det-1 matrix that has determinant exactly 1 mod n."""
    y = lift_quad(q, m, n)
    det = quad_det(n, y)
    fix = pow(det, -1, n)
    return (y[0], y[1] * fix % n, y[2], y[3] * fix % n)


def crt_embed_quad(q: Quad, pe: int, n: int) -> Quad:
    """Entry-wise CRT: q at the prime power pe, the identity elsewhere."""
    rest = n // pe
    if rest == 1:
        return q
    ident = identity_quad(rest)
    return tuple(_crt2(q[i], pe, ident[i], rest) for i in range(4))  # type: ignore[return-value]


@dataclass(frozen=True)
class ProductSetCheck:
    """Size of the set H*K and whether that set is itself a group."""

    size: int
    is_group: bool


def _product_coset_reps(h: SubgroupSpec, k: SubgroupSpec) -> dict[Hashable, Quad]:
    # H*K is a union of right cosets H*k, so one representative per distinct
    # H-coset met by K pins the whole set; only K must be enumerable
    if h.n != k.n:
        raise ModulusMismatch(f"groups live mod {h.n} and mod {k.n}")
    reps: dict[Hashable, Quad] = {}
    for q in sorted(k.element_quads):
        key = h.coset_key(q)
        if key not in reps:
            reps[key] = q
    return reps


def product_set_quads(h: SubgroupSpec, k: SubgroupSpec) -> frozenset[Quad]:
    reps = _product_coset_reps(h, k)
    if h.order * len(reps) > ENUMERATION_CAP:
        raise TooLarge("product set exceeds cap")
    n = h.n
    return frozenset(quad_mul(n, a, b) for a in h.element_quads for b in reps.values())


def product_set_check(h: SubgroupSpec, k: SubgroupSpec) -> ProductSetCheck:
    """Size of H*K and closure of H*K under right multiplication by both groups.

    Closure under the generators of H and K decides groupness: the set always
    contains the identity and sits inside the group the two generate, so being
    stable under those generators makes it that whole group.
    """
    reps = _product_coset_reps(h, k)
    n = h.n
    gens = _dedup(n, list(h.generator_quads()) + list(k.generator_quads()))
    closed = all(h.coset_key(quad_mul(n, q, g)) in reps
                 for q in reps.values() for g in gens)
    return ProductSetCheck(size=h.order * len(reps), is_group=closed)


def subgroup_of(h: SubgroupSpec, g: SubgroupSpec) -> None:
    """Raise NotASubgroup unless every generator of h lies in g."""
    if h.n != g.n:
        raise ModulusMismatch(f"groups live mod {h.n} and mod {g.n}")
    for q in h.generator_quads():
        if not g.member_quad(q):
            raise NotASubgroup(f"generator {q} escapes the claimed overgroup")


def surjective_image_index_check(g: SubgroupSpec, h: SubgroupSpec, m: int) -> bool:
    """Indices can only drop under reduction: [G:H] >= [G(m):H(m)]."""
    subgroup_of(h, g)
    big = index_via_orbit(g, h)
    small = index_via_orbit(reduce_subgroup(g, m), reduce_subgroup(h, m))
    return big >= small


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


@cache
def _p1_tables(n: int) -> tuple[tuple[int, list[int], int], ...]:
    """(p^e, inverse table mod p^e with 0 at non-units, CRT idempotent)
    for each prime power p^e exactly dividing n."""
    out = []
    for p, e in factorize(n):
        pe = p**e
        inv = [0] * pe
        for x in units(pe):
            inv[x] = pow(x, -1, pe)
        out.append((pe, inv, _crt2(1, pe, 0, n // pe)))
    return tuple(out)


def _p1_normalize(n: int, c: int, d: int) -> tuple[int, int]:
    """Normal form of the unimodular row (c, d) as a point of P^1(Z/nZ).

    Returns (code, u): u is the unique unit with u*(c, d) in normal form, and
    code numbers that form. At each p^e | n the form is (1, d/c) when p does
    not divide c, else (c/d, 1); the code packs the local forms in mixed radix
    2*p^e, so equal codes mean equal points (Cremona, Algorithms for Modular
    Elliptic Curves, 2.2).
    """
    code = 0
    u = 0
    for pe, inv, idem in _p1_tables(n):
        s = inv[c % pe]
        if s:
            code = code * 2 * pe + d * s % pe
        else:
            s = inv[d % pe]
            code = code * 2 * pe + pe + c * s % pe
        u += s * idem
    return code, u % n


def _crt2(a: int, m: int, b: int, k: int) -> int:
    # unique residue mod m*k matching a mod m and b mod k, gcd(m, k) = 1
    t = (b - a) * pow(m, -1, k) % k
    return (a + m * t) % (m * k)
