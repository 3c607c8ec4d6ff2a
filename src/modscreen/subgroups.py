"""Subgroups of GL2(Z/NZ): predicates, generators, orders, indices, lifts, levels.

Every group is carried two ways at once: a membership predicate and a small
generating set. Index and fiber computations never enumerate the ambient
group. A Borel-type H reads the orbits on its right cosets off the orbits on
the lines of P^1(Z/NZ) (BorelGroup.orbit_sizes), and the nonsplit Cartan
normalizer off the orbits on pairs of conjugate points of P^1(O/l^d), O =
Z[sqrt(e)] (CartanNormalizer.orbit_sizes); every other kind walks right
cosets H*g under the other group's generators (the default orbit_sizes:
coset_action, the one walk behind index, genus and fiber computations
without a closed form, and walked_orbit_sizes over it) and identifies a
coset by a canonical key (equal keys exactly when the cosets are equal). A
group without a closed form answers order, membership and keys from a
stabilizer chain (StabilizerChain) instead of its element set. One
transversal walk (_transversal) serves the chain's first two levels and the
det-1 part's Schreier generators, which SL2Part sifts through the chain of
those kept. An element set is built one way for every kind: the closure of
the generators (SubgroupSpec.element_quads), refused up front when the order
passes ENUMERATION_CAP. A walk whose length the orders give (all of H's
cosets, or those of its det-1 part in SL2) is refused up front the same way
when that length passes ORBIT_CAP (_check_walk_length). Instances are
immutable after construction and safe to share.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Sequence

from .errors import (EvenPrimeUnsupported, ModulusMismatch, NonDivisor,
                     NonIntegral, NonInvertible, NotASubgroup, OrbitTooLarge,
                     TooLarge)
from .zmod import (Quad, UnitSubgroup, _check_modulus, _extend_subgroup,
                   _p1_normalize, _p1_points, divisors,
                   euler_phi, factorize, is_prime, lift_quad, quad_det,
                   quad_inv, quad_is_invertible, quad_mul, quad_reduce,
                   quadratic_generator, quadratic_mobius, quadratic_mul,
                   quadratic_pair_key, quadratic_pair_orbits, quadratic_pow,
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


def closure_quads(n: int, gen_quads: Iterable[Quad]) -> frozenset[Quad]:
    """The subgroup generated by gen_quads, closed coset by coset (Dimino).

    Each generator not yet inside grows the closed group H to <H, g> as a
    union of right cosets of H, so every element is made once, as h*r, and
    one product per (coset, generator) pair decides whether a coset is new:
    about |G| products instead of |G| * #gens. TooLarge exactly when the
    order exceeds ENUMERATION_CAP, read at call time.
    """
    group = [identity_quad(n)]
    seen = set(group)
    gens: list[Quad] = []
    for g in gen_quads:
        if g not in seen:
            gens.append(g)
            _adjoin_generator(n, group, seen, gens, ENUMERATION_CAP)
    del seen  # the list holds the same elements: free the set before the copy
    return frozenset(group)


def _adjoin_generator(n: int, group: list[Quad], seen: set[Quad],
                      gens: list[Quad], cap: int) -> None:
    """One Dimino step: grow the closed group H (group, seen) to <H, gens[-1]>.

    Walks the right cosets H*r from H*1 under gens; (H*r)*s = H*(r*s), so
    r*s is new exactly when it is not yet seen. The old generators fix H*1,
    so only the new one moves it. Both containers grow in place.
    """
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
            e, f, g, k = y
            coset = [((a * e + b * g) % n, (a * f + b * k) % n,
                      (c * e + d * g) % n, (c * f + d * k) % n)
                     for a, b, c, d in h]
            group += coset
            seen.update(coset)


def _transversal(n: int, gens: Sequence[Quad], point: Callable[[Quad], Hashable]
                ) -> tuple[dict[Hashable, tuple[Quad, Quad]], list[Quad]]:
    """A Schreier transversal of the orbit of point(I) under x -> s*x.

    One BFS over the generators from I: returns {point(t): (t, t^-1)}, one t
    in H per point of the orbit, and the Schreier generators t_{point(y)}^-1
    * y of every product y = s*t that lands on a point already reached. By
    Schreier's lemma these generate the stabilizer of point(I) in H.
    """
    one = identity_quad(n)
    table = {point(one): (one, one)}
    reps = [one]
    schreier = []
    for t in reps:  # grows while it is walked: the BFS queue
        for s in gens:
            y = quad_mul(n, s, t)
            p = point(y)
            w = table.get(p)
            if w is None:
                table[p] = y, quad_inv(n, y)
                reps.append(y)
            else:
                schreier.append(quad_mul(n, w[1], y))
    return table, schreier


class StabilizerChain:
    """A generated group H < GL2(Z/nZ) as a line-scalar-column stabilizer chain.

    H acts on column vectors mod n. The chain has three levels:
      1. the orbit L of the line <e1> in P^1(Z/n) (at most psi(n) lines),
         keyed by _p1_normalize of a first column, with a transversal u_l in H;
      2. the line's stabilizer H_L = H meet upper-triangular maps onto the
         scalars A = {t[0]} on e1 (at most phi(n) units), with a transversal
         v_a in H_L;
      3. the kernel H_e1 = {(1 b; 0 d)} of that map, kept whole as its set C
         of elements (at most n * phi(n)).
    Every element of H is u_l * v_a * c in exactly one way, so
    |H| = |L| |A| |C|, and membership is two products and three lookups.

    Built by Schreier-Sims with sifting (Seress, Permutation Group
    Algorithms, 2003, ch. 4): every Schreier generator of level 1 is sifted
    into levels 2 and 3, and every Schreier generator of level 2 into level 3.
    C is also kept closed under conjugation by the level-2 strong generators,
    so it is normal in H_L and is the whole kernel. The line, not the vector
    e1, is the first base point because the orbit of e1 can reach n^2 vectors
    (Murray-O'Brien, 1995, on choosing base points for matrix groups).
    """

    def __init__(self, n: int, gens: Sequence[Quad]):
        self.n = n
        one = identity_quad(n)
        # level 1: line code -> (u_l, u_l^-1), and its Schreier generators
        self._lines, todo = _transversal(
            n, gens, lambda y: _p1_normalize(n, y[0], y[2])[0])
        # level 2: strong generators and a -> (v_a, v_a^-1)
        self._strong: list[Quad] = []
        self._scalars = {1 % n: (one, one)}
        # level 3: the closed set C, as a list and a set, and its generators
        self._columns = [one]
        self._column_set = {one}
        self._column_gens: list[Quad] = []
        self._sift(todo)

    @property
    def order(self) -> int:
        return len(self._lines) * len(self._scalars) * len(self._columns)

    def contains(self, q: Quad) -> bool:
        n = self.n
        u = self._lines.get(_p1_normalize(n, q[0], q[2])[0])
        if u is None:
            return False
        # u^-1 * q fixes the line <e1>; v^-1 * u^-1 * q fixes e1
        g = quad_mul(n, u[1], q)
        v = self._scalars.get(g[0])
        return v is not None and quad_mul(n, v[1], g) in self._column_set

    def key(self, q: Quad) -> Quad:
        """The canonical element of the left coset q^-1 * H.

        H*q1 = H*q2 exactly when q1^-1 * H = q2^-1 * H. With x = q^-1 every
        element of x*H is x * u_l * v_a * c, and its first column is
        a * (x * u_l * e1): take the line of least P^1 code, then the least
        scalar multiple of that column, then the least second column over C.
        Each step pins one factor, so the result depends only on the coset.
        """
        n = self.n
        x0, x1, x2, x3 = x = quad_inv(n, q)
        best = None
        for u, _ in self._lines.values():
            a, c = (x0 * u[0] + x1 * u[2]) % n, (x2 * u[0] + x3 * u[2]) % n
            code = _p1_normalize(n, a, c)[0]
            if best is None or code < best[0]:
                best = code, a, c, u
        _, a, c, u = best
        t = min(self._scalars, key=lambda t: (t * a % n, t * c % n))
        y0, y1, y2, y3 = quad_mul(n, quad_mul(n, x, u), self._scalars[t][0])
        b, d = min(((y0 * b + y1 * d) % n, (y2 * b + y3 * d) % n)
                   for _, b, _, d in self._columns)
        return (y0, b, y2, d)

    def _sift(self, todo: list[Quad]) -> None:
        """Sift elements of H_L into levels 2 and 3 until every one of them,
        and every Schreier generator and conjugate they bring, is inside."""
        n = self.n
        while todo:
            g = todo.pop()
            v = self._scalars.get(g[0])
            if v is None:
                # a new scalar: g is a level-2 strong generator, and level 2
                # is rebuilt; its Schreier generators lie in H_e1
                self._strong.append(g)
                self._scalars, schreier = _transversal(n, self._strong, itemgetter(0))
                todo += schreier
                todo += [_conjugate(n, g, c) for c in self._column_gens]
                continue
            c = quad_mul(n, v[1], g)
            if c in self._column_set:
                continue
            self._column_gens.append(c)
            # C has at most n * phi(n) elements, so the cap never binds
            _adjoin_generator(n, self._columns, self._column_set,
                              self._column_gens, n * n)
            todo += [_conjugate(n, s, c) for s in self._strong]


def _conjugate(n: int, s: Quad, c: Quad) -> Quad:
    """s^-1 * c * s."""
    return quad_mul(n, quad_mul(n, quad_inv(n, s), c), s)


class SubgroupSpec:
    """A subgroup of GL2(Z/nZ).

    Concrete kinds supply membership, generators, exact order, reduction to a
    divisor modulus, and a canonical right-coset key. The hooks below hold the
    generic path; a kind overrides one where it knows a closed form. The
    default order and key come from a stabilizer chain built once from the
    generators; only element_quads enumerates the group, by closing the
    generators, and it checks the cap against the order first.
    """

    kind = "abstract"

    def __init__(self, n: int, label: str | None = None):
        _check_modulus(n)
        self.n = n
        self.label = label

    # membership and generators

    def member_quad(self, q: Quad) -> bool:
        raise NotImplementedError

    def generator_quads(self) -> tuple[Quad, ...]:
        raise NotImplementedError

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
        return closure_quads(n, self.generator_quads())

    @cached_property
    def _chain(self) -> StabilizerChain:
        return StabilizerChain(self.n, self.generator_quads())

    # structure

    def reduced(self, m: int) -> "SubgroupSpec":
        raise NotImplementedError

    @property
    def preimage_base(self) -> "SubgroupSpec":
        """A group at a divisor modulus whose full preimage this group is,
        known from how it was built: the group itself unless it is a lift."""
        return self

    def lifted(self, n: int) -> "SubgroupSpec":
        """The full preimage at the multiple modulus n."""
        return LiftedGroup(self, n)

    def with_minus_i(self) -> "SubgroupSpec":
        """The group generated by H and -I, for an H without -I."""
        n = self.n
        return GeneratedGroup(n, self.generator_quads() + (minus_identity_quad(n),),
                              label=self.label)

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

    def reduced(self, m: int) -> SubgroupSpec:
        _check_divisor(self.n, m)
        return FullGroup(m)

    def lifted(self, n: int) -> SubgroupSpec:
        return FullGroup(n)

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

    def reduced(self, m: int) -> SubgroupSpec:
        _check_divisor(self.n, m)
        return BorelGroup(m, self.delta.reduced(m))

    def with_minus_i(self) -> SubgroupSpec:
        n = self.n
        return BorelGroup(n, unit_subgroup(n, self.delta.elements + (n - 1,)))

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
        nu_inf = 0
        for d in divisors(n):
            m = d * (n // d) // gcd(d, n // d)
            image = len({x % m for x in h.elements})
            nu_inf += euler_phi(d) * euler_phi(n // d) // image
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
        # times u_j / u. The identity coset is the line of (0, 1).
        n = self.n
        rows = []
        for s in gens:
            e = pow(quad_det(n, s), -1, n)
            rows.append(tuple(x * e % n for x in s))
        delta = frozenset(self.delta.elements)
        inverse_units: dict[int, int] = {}  # line code -> 1/u_j
        sizes: list[int] = []
        points = _p1_points(n)
        for start in points if whole else points[:1]:
            code, u = _p1_normalize(n, *start)
            if code in inverse_units:
                continue
            inverse_units[code] = pow(u, -1, n)
            line, scalars = [start], delta
            for c, d in line:  # grows while it is walked: the BFS queue
                for s0, s1, s2, s3 in rows:
                    y = (c * s0 + d * s2) % n, (c * s1 + d * s3) % n
                    code, u = _p1_normalize(n, *y)
                    inv = inverse_units.get(code)
                    if inv is None:
                        inverse_units[code] = pow(u, -1, n)
                        line.append(y)
                    elif u * inv % n not in scalars:
                        # u/u_j generates the same group as u_j/u
                        scalars = _extend_subgroup(n, scalars, u * inv % n)
            k = len(scalars)
            sizes += [len(line) * k // len(delta)] * (euler_phi(n) // k if whole else 1)
        return sizes


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

    def generator_quads(self) -> tuple[Quad, ...]:
        return self._gens

    @cached_property
    def _gens(self) -> tuple[Quad, ...]:
        # The Cartan is (O/l^d)^x = F_{l^2}^x x (1 + lO), O = Z[sqrt(e)]. t has
        # the order l^2 - 1 of F_{l^2}^x, and at odd l the factor 1 + lO is
        # generated by 1 + l and 1 + l*sqrt(e); the coprime orders let
        # t*(1 + l) stand for two of them. (1 0; 0 -1) adds the normalizer.
        l, n, e = self.ell, self.n, self.eps
        t = quadratic_pow(n, e, quadratic_generator(l, e), l ** (2 * self.d - 2))
        cartan = [quadratic_mul(n, e, t, (1 + l, 0)), (1, l % n)]
        return _dedup(n, [(a, e * b % n, b, a) for a, b in cartan] + [(1, 0, 0, n - 1)])

    def coset_key(self, q: Quad) -> int:
        # The row (1, sqrt(e)) is a left eigenvector of every Cartan element,
        # and the Cartan is exactly its stabilizer on P^1(O/l^d); (1 0; 0 -1)
        # sends it to its conjugate. So C*q is pinned by the point z of
        # (1, sqrt(e))*q, one z = x + y*sqrt(e) with y a unit per coset of C,
        # and N*q by the pair {z, conj z}.
        return quadratic_pair_key(self.n, quadratic_mobius(self.n, self.eps, q, (0, 1)))

    def orbit_sizes(self, gens: Sequence[Quad], whole: bool) -> list[int]:
        # (N*g)*r has the pair of z -> (r12 + z*r22) / (r11 + z*r21), so walk
        # the pairs instead of the cosets: from sqrt(e), the coset N*1, then
        # from one z of each pair when whole, which reaches all [GL2 : N]
        n = self.n
        if whole:
            _check_walk_length(self, gl2_order(n) // self.order)
        starts = ((x, y) for x in range(n) for y in units(n) if 2 * y < n)
        return quadratic_pair_orbits(n, self.eps, gens, starts if whole else [(0, 1)],
                                     lambda j: _check_orbit_cap(self, j))

    def reduced(self, m: int) -> SubgroupSpec:
        _check_divisor(self.n, m)
        if m == 1:
            return FullGroup(1)
        return CartanNormalizer(self.ell, _p_adic_valuation(m, self.ell))


class GeneratedGroup(SubgroupSpec):
    """The closure of an explicit generator list, decided by its stabilizer chain."""

    kind = "generated"

    def __init__(self, n: int, gen_quads: Iterable[Quad], label: str | None = None):
        super().__init__(n, label)
        gens = _dedup(n, [quad_reduce(q, n) for q in gen_quads])
        for q in gens:
            if not quad_is_invertible(n, q):
                raise NonInvertible(f"generator {q} is singular mod {n}")
        self._gens = gens

    def member_quad(self, q: Quad) -> bool:
        return self._chain.contains(q)

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
        super().__init__(n, label)
        self.base = base.preimage_base

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

    @property
    def preimage_base(self) -> SubgroupSpec:
        return self.base

    def reduced(self, m: int) -> SubgroupSpec:
        _check_divisor(self.n, m)
        g = gcd(m, self.base.n)
        inner = self.base.reduced(g)
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

    def __init__(self, parent: SubgroupSpec, label: str | None = None):
        super().__init__(parent.n, label)
        self.parent = parent

    def member_quad(self, q: Quad) -> bool:
        return quad_det(self.n, q) == 1 % self.n and self.parent.member_quad(q)

    @cached_property
    def order(self) -> int:
        return self.parent.order // self.parent.det_image.order

    def generator_quads(self) -> tuple[Quad, ...]:
        return self._gens

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

    def reduced(self, m: int) -> SubgroupSpec:
        # the image of a det-1 part need not be the det-1 part of the image,
        # but it is generated by the images of the generators
        _check_divisor(self.n, m)
        return GeneratedGroup(m, (quad_reduce(q, m) for q in self.generator_quads()))

    def with_minus_i(self) -> SubgroupSpec:
        return SL2Part(adjoin_minus_i(self.parent))


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
    sizes = []
    assigned = [False] * len(reps)
    for start in range(len(reps)):
        if assigned[start]:
            continue
        assigned[start] = True
        orbit = [start]
        for i in orbit:  # orbit grows while it is walked
            for perm in perms[:len(gens)]:
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
    s = [K : K meet H], the orbit of H*1 under K's generators; H_m = pi(H).
    Otherwise (R, H, 1), and the orbits are taken at n.
    """
    base = r.preimage_base
    if base.n == h.n:
        return r, h, 1
    scale = h.orbit_sizes(kernel_generator_quads(h.n, base.n), whole=False)[0]
    return base, reduce_subgroup(h, base.n), scale


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
    """Full preimage of H at the multiple modulus n."""
    if n % h.n:
        raise NonDivisor(f"{h.n} does not divide {n}")
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
        if f == 0:
            local = [sigma_quad(pe), tau_quad(pe)]
            local += [(1, 0, 0, u) for u in unit_group_generators(pe)]
        else:
            local = _ladder_quads(p, f, e, pe)
        gens += [lift_quad(q, pe, n) for q in local]
    return _dedup(n, gens)


def level(h: SubgroupSpec) -> int:
    """Least divisor d of the modulus with the whole mod-d kernel inside H."""
    n = h.n
    for d in divisors(n):
        if all(h.member_quad(g) for g in kernel_generator_quads(n, d)):
            return d
    return n


def product_set_quads(h: SubgroupSpec, k: SubgroupSpec) -> frozenset[Quad]:
    """H*K as a set. It is a union of right cosets H*k, so one representative
    per distinct H-coset met by K pins it; only K must be enumerable."""
    if h.n != k.n:
        raise ModulusMismatch(f"groups live mod {h.n} and mod {k.n}")
    reps: dict[Hashable, Quad] = {}
    for q in sorted(k.element_quads):
        reps.setdefault(h.coset_key(q), q)
    size = h.order * len(reps)
    if size > ENUMERATION_CAP:
        raise TooLarge("product set exceeds cap", operation="product set",
                       modulus=h.n, reached=size, cap=ENUMERATION_CAP)
    n = h.n
    return frozenset(quad_mul(n, a, b) for a in h.element_quads for b in reps.values())


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
