"""Exact arithmetic for 2x2 matrices over Z/NZ and subgroups of its unit group.

A matrix is a Quad: the 4-tuple (a, b, c, d) of (a b; c d), row-major, with
entries reduced mod the modulus that every routine takes alongside it.
"""

from __future__ import annotations

from functools import cache, cached_property
from math import gcd
from typing import Callable, Iterable, Sequence

from .errors import NonDivisor, NonInvertible

Quad = tuple[int, int, int, int]


# quad-level arithmetic: the hot loops carry a fixed modulus and bare 4-tuples

def quad_mul(n: int, x: Quad, y: Quad) -> Quad:
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % n, (a * f + b * h) % n,
            (c * e + d * g) % n, (c * f + d * h) % n)


def quad_det(n: int, q: Quad) -> int:
    return (q[0] * q[3] - q[1] * q[2]) % n


def quad_is_invertible(n: int, q: Quad) -> bool:
    return gcd(quad_det(n, q), n) == 1


def quad_inv(n: int, q: Quad) -> Quad:
    try:
        i = pow(quad_det(n, q), -1, n)
    except ValueError:
        raise NonInvertible(f"matrix {q} is singular mod {n}") from None
    a, b, c, d = q
    return (d * i % n, -b * i % n, -c * i % n, a * i % n)


def quad_reduce(q: Quad, m: int) -> Quad:
    return (q[0] % m, q[1] % m, q[2] % m, q[3] % m)


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
    ident = (1, 0, 0, 1)  # the identity mod rest > 1
    return tuple(_crt2(q[i] % shared, shared, ident[i], rest) for i in range(4))  # type: ignore[return-value]


# elementary number theory, sized for the small moduli this package works at

@cache
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization by trial division, as ((p, exponent), ...)."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def is_prime(n: int) -> bool:
    return n > 1 and factorize(n) == ((n, 1),)


@cache
def divisors(n: int) -> tuple[int, ...]:
    out = [1]
    for p, e in factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return tuple(sorted(out))


def euler_phi(n: int) -> int:
    out = 1
    for p, e in factorize(n):
        out *= p ** (e - 1) * (p - 1)
    return out


@cache
def units(n: int) -> tuple[int, ...]:
    """Residues coprime to n, ascending. units(1) is (0,)."""
    return tuple(x for x in range(n) if gcd(x, n) == 1)


def _check_modulus(n: int) -> None:
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")


def _unit_closure(n: int, gens: Iterable[int]) -> tuple[frozenset[int], tuple[int, ...]]:
    """The subgroup generated by the units gens, and the gens it adjoined: one
    _extend_subgroup for each gen not already inside, none for the rest."""
    out = frozenset({1 % n})
    kept = []
    for g in gens:
        g %= n
        if g not in out:
            kept.append(g)
            out = _extend_subgroup(n, out, g)
    return out, tuple(kept)


def _extend_subgroup(n: int, sub: frozenset[int], g: int) -> frozenset[int]:
    """<sub, g> for a closed sub: the union of its g-power translates, the
    abelian case of the coset-by-coset (Dimino) step that closes GL2 groups."""
    out = set(sub)
    coset = {x * g % n for x in sub}
    while not coset <= out:
        out |= coset
        coset = {x * g % n for x in coset}
    return frozenset(out)


@cache
def unit_group_generators(n: int) -> tuple[int, ...]:
    """A small generating set of (Z/nZ)^x: the units that closing them in
    ascending order adjoins, the greedy generators of delta_full(n)."""
    return _unit_closure(n, units(n))[1]


class UnitSubgroup:
    """The subgroup of (Z/nZ)^x that the units gens generate, closed once and
    carried as its sorted element tuple; with no gens, the trivial subgroup.

    An immutable value: equal (n, elements) compare and hash equal, so a
    subgroup can key a cache (catalog._borel_genus) or a set.
    """

    def __init__(self, n: int, gens: Iterable[int] = ()):
        _check_modulus(n)
        gens = list(gens)
        if any(gcd(g, n) != 1 for g in gens):
            raise ValueError(f"generators must be units mod {n}")
        closed = _unit_closure(n, gens)[0]  # reduces each generator mod n
        object.__setattr__(self, "n", n)  # past the refusing __setattr__
        object.__setattr__(self, "elements", tuple(sorted(closed)))
        object.__setattr__(self, "_set", closed)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnitSubgroup):
            return NotImplemented
        return self.n == other.n and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.n, self.elements))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"UnitSubgroup is immutable: {name!r} stays as built")

    __delattr__ = __setattr__

    @property
    def order(self) -> int:
        return len(self.elements)

    def contains(self, x: int) -> bool:
        return x % self.n in self._set

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """The ascending greedy scan of the elements, run when first read:
        each element not yet generated is kept and adjoined."""
        return _unit_closure(self.n, self.elements)[1]

    def reduced(self, m: int) -> "UnitSubgroup":
        if m < 1 or self.n % m:
            raise NonDivisor(f"{m} does not divide {self.n}")
        return UnitSubgroup(m, self.elements)


# the one constructor, under the name most callers build by
unit_subgroup = UnitSubgroup


def delta_trivial(n: int) -> UnitSubgroup:
    return UnitSubgroup(n)


def delta_pm1(n: int) -> UnitSubgroup:
    return UnitSubgroup(n, (n - 1,))


def delta_full(n: int) -> UnitSubgroup:
    return UnitSubgroup(n, units(n))


def unit_subgroups_containing_minus_one(n: int) -> tuple[UnitSubgroup, ...]:
    """Every subgroup of (Z/nZ)^x containing -1, for n >= 3.

    At a prime power they are read off the group's structure. For odd l,
    (Z/l^k)^x is cyclic of order phi, with one subgroup of each order d | phi,
    and it holds -1 exactly when d is even: a cyclic group has one element of
    order 2. At 2^e it is <-1> x <5>, and the subgroups holding -1 are
    <-1, 5^(2^j)> for j = 0..e-2. Other n walk the lattice. Output is
    ordered by (order, element tuple).
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    fac = factorize(n)
    if len(fac) > 1:
        return _unit_lattice_walk(n)
    p, e = fac[0]
    if p == 2:
        # <-1, 5^(2^j)> has order 2^(e-1-j), so the largest j comes first
        gens = [(n - 1, pow(5, 2**j, n)) for j in reversed(range(e - 1))]
    else:
        phi = euler_phi(n)
        primes = [q for q, _ in factorize(phi)]
        g = next(u for u in units(n)
                 if all(pow(u, phi // q, n) != 1 for q in primes))
        # <g^(phi/d)>, one subgroup of each order d, and the divisors ascend
        gens = [(pow(g, phi // d, n),) for d in divisors(phi) if d % 2 == 0]
    return tuple(UnitSubgroup(n, s) for s in gens)


def _unit_lattice_walk(n: int) -> tuple[UnitSubgroup, ...]:
    """unit_subgroups_containing_minus_one at any n >= 3, by walking the
    subgroup lattice upward from <-1>: repeatedly adjoins a single unit to
    each known subgroup and closes. Every subgroup above <-1> is reachable
    this way.
    """
    us = units(n)
    base = frozenset({1, n - 1})
    found = {base}
    frontier = [base]
    while frontier:
        new = []
        for sub in frontier:
            for u in us:
                if u in sub:
                    continue
                bigger = _extend_subgroup(n, sub, u)
                if bigger not in found:
                    found.add(bigger)
                    new.append(bigger)
        frontier = new
    ordered = sorted(found, key=lambda s: (len(s), tuple(sorted(s))))
    return tuple(UnitSubgroup(n, s) for s in ordered)


def _unit_classes(n: int, sub: Iterable[int]) -> list[int]:
    """Unit t -> least element of t*sub, sub a unit subgroup (0 at non-units)."""
    out = [0] * n
    # ascending walk: the first unit to reach a coset is its least element
    for t in units(n):
        if not out[t]:
            for x in sub:
                out[t * x % n] = t
    return out


# points of P^1(Z/nZ): normal forms of unimodular rows, one per line

@cache
def _unit_inverses(n: int) -> list[int]:
    """The inverse of each residue mod n, 0 at non-units."""
    inv = [0] * n
    for x in units(n):
        inv[x] = pow(x, -1, n)
    return inv


@cache
def _p1_tables(n: int) -> tuple[tuple[int, list[int], int], ...]:
    """(p^e, inverse table mod p^e with 0 at non-units, CRT idempotent)
    for each prime power p^e exactly dividing n."""
    out = []
    for p, e in factorize(n):
        pe = p**e
        out.append((pe, _unit_inverses(pe), _crt2(1, pe, 0, n // pe)))
    return tuple(out)


@cache
def _p1_points(n: int) -> tuple[tuple[int, int], ...]:
    """One row on each point of P^1(Z/nZ), psi(n) of them, (0, 1) first: the
    local normal forms (c/d, 1) and (1, d/c) at each p^e | n, joined by CRT."""
    points = [(0, 0)]
    for (p, _), (pe, _, idem) in zip(factorize(n), _p1_tables(n)):
        local = [(p * t, 1) for t in range(pe // p)] + [(1, t) for t in range(pe)]
        points = [((c + x * idem) % n, (d + y * idem) % n)
                  for c, d in points for x, y in local]
    return tuple(points)


def _p1_normalize(n: int, c: int, d: int) -> tuple[int, int]:
    """Normal form of the unimodular row (c, d) as a point of P^1(Z/nZ).

    Returns (code, u): u is the unique unit with u*(c, d) in normal form, and
    code numbers that form. The form is (1, d/c), code d/c, when c is a unit,
    else (c/d, 1), code n + c/d, when d is a unit; at a prime power one of
    the two always is. Otherwise, at composite n only, the form at each
    p^e | n is (1, d/c) when p does not divide c, else (c/d, 1), and the code
    is 2n plus the local forms packed in mixed radix 2*p^e. Equal codes mean
    equal points (Cremona, Algorithms for Modular Elliptic Curves, 2.2).
    """
    inverse = _unit_inverses(n)
    s = inverse[c % n]
    if s:
        return d * s % n, s
    s = inverse[d % n]
    if s:
        return n + c * s % n, s
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
    return 2 * n + code, u % n


def _crt2(a: int, m: int, b: int, k: int) -> int:
    # unique residue mod m*k matching a mod m and b mod k, gcd(m, k) = 1
    t = (b - a) * pow(m, -1, k) % k
    return (a + m * t) % (m * k)


# the ring O/nO, O = Z[sqrt(eps)] for a non-residue eps mod an odd prime: an
# element a + b*sqrt(eps) is the pair (a, b), and the matrix (a eps*b; b a)

def quadratic_mul(n: int, eps: int, x: tuple[int, int],
                  y: tuple[int, int]) -> tuple[int, int]:
    a, b = x
    c, d = y
    return (a * c + eps * b * d) % n, (a * d + b * c) % n


def quadratic_pow(n: int, eps: int, x: tuple[int, int], k: int) -> tuple[int, int]:
    out = (1 % n, 0)
    while k:
        if k & 1:
            out = quadratic_mul(n, eps, out, x)
        x = quadratic_mul(n, eps, x, x)
        k >>= 1
    return out


def quadratic_generator(ell: int, eps: int) -> tuple[int, int]:
    """The least (a, b) with a + b*sqrt(eps) generating F_{ell^2}^x: its
    (ell^2 - 1)/p-th power is not 1 for any prime p | ell^2 - 1."""
    order = ell * ell - 1
    for z in ((a, b) for a in range(ell) for b in range(1, ell)):
        if all(quadratic_pow(ell, eps, z, order // p) != (1, 0)
               for p, _ in factorize(order)):
            return z
    raise ValueError(f"{eps} is not a non-residue mod {ell}")


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


def quadratic_pair_orbits(n: int, eps: int, gens: Sequence[Quad],
                          starts: Iterable[tuple[int, int]], cap: int,
                          at_cap: Callable[[int], None]) -> list[int]:
    """Sizes of the orbits of <gens> on the pairs {z, conj z} of O/nO under
    z -> (r1 + z*r3) / (r0 + z*r2), the row (1, z) times r = (r0 r1; r2 r3)
    rescaled to first entry 1, one for each orbit that starts meets, in that
    order, at an odd prime power n. There are n*phi(n)/2 pairs, and once the
    walk knows them all it draws no further start.

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

    at_cap(j) runs only when the walk knows j >= cap pairs and needs another,
    so that the caller can stop it.
    """
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
                at_cap(len(seen))
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
