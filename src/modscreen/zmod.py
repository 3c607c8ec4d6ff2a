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


def _unit_closure(n: int, gens: Iterable[int]) -> frozenset[int]:
    """The subgroup generated by the units gens, one _extend_subgroup each."""
    out = frozenset({1 % n})
    for g in gens:
        out = _extend_subgroup(n, out, g % n)
    return out


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
    """A small generating set of (Z/nZ)^x, found greedily in ascending order."""
    return delta_full(n).generators


class UnitSubgroup:
    """Subgroup of (Z/nZ)^x, carried as its full sorted element tuple.

    An immutable value: equal (n, elements) compare and hash equal, so a
    subgroup can key a cache (catalog._borel_genus) or a set.
    """

    def __init__(self, n: int, elements: tuple[int, ...]):
        _check_modulus(n)
        object.__setattr__(self, "n", n)  # past the refusing __setattr__
        object.__setattr__(self, "elements", elements)
        els = elements
        if not els or list(els) != sorted(set(els)):
            raise ValueError("elements must be sorted and distinct")
        if els[0] < 0 or els[-1] >= self.n:
            raise ValueError(f"element is not a residue mod {self.n}")
        if any(gcd(x, self.n) != 1 for x in els):
            raise ValueError(f"non-unit element mod {self.n}")
        if 1 % self.n not in els:
            raise ValueError("subgroup must contain 1")
        # the greedy generators reach every element, so the group they close
        # to is the set exactly when the set is closed under multiplication
        if self._greedy_scan[1] != self._set:
            raise ValueError(f"not closed under multiplication mod {self.n}")

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

    @cached_property
    def _set(self) -> frozenset[int]:
        return frozenset(self.elements)

    def contains(self, x: int) -> bool:
        return x % self.n in self._set

    @cached_property
    def _greedy_scan(self) -> tuple[tuple[int, ...], frozenset[int]]:
        # ascending: each element not yet generated is kept and adjoined
        gens: list[int] = []
        closed = _unit_closure(self.n, ())
        for u in self.elements:
            if u not in closed:
                gens.append(u)
                closed = _extend_subgroup(self.n, closed, u)
        return tuple(gens), closed

    @property
    def generators(self) -> tuple[int, ...]:
        return self._greedy_scan[0]

    def reduced(self, m: int) -> "UnitSubgroup":
        if m < 1 or self.n % m:
            raise NonDivisor(f"{m} does not divide {self.n}")
        return UnitSubgroup(m, tuple(sorted(_unit_closure(m, self.generators))))


def unit_subgroup(n: int, gens: Iterable[int] = ()) -> UnitSubgroup:
    """Closure of the given units; with no generators, the trivial subgroup."""
    _check_modulus(n)
    g = [x % n for x in gens]
    if any(gcd(x, n) != 1 for x in g):
        raise ValueError(f"generators must be units mod {n}")
    return UnitSubgroup(n, tuple(sorted(_unit_closure(n, g))))


def delta_trivial(n: int) -> UnitSubgroup:
    return unit_subgroup(n, ())


def delta_pm1(n: int) -> UnitSubgroup:
    return unit_subgroup(n, (n - 1,))


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
        subs = [_unit_closure(n, (n - 1, pow(5, 2**j, n)))
                for j in reversed(range(e - 1))]
    else:
        phi = euler_phi(n)
        primes = [q for q, _ in factorize(phi)]
        g = next(u for u in units(n)
                 if all(pow(u, phi // q, n) != 1 for q in primes))
        # one subgroup of each order d, and the divisors ascend
        subs = [{pow(g, phi // d * i, n) for i in range(d)}
                for d in divisors(phi) if d % 2 == 0]
    return tuple(UnitSubgroup(n, tuple(sorted(s))) for s in subs)


def _unit_lattice_walk(n: int) -> tuple[UnitSubgroup, ...]:
    """unit_subgroups_containing_minus_one at any n >= 3, by walking the
    subgroup lattice upward from <-1>: repeatedly adjoins a single unit to
    each known subgroup and closes. Every subgroup above <-1> is reachable
    this way.
    """
    us = units(n)
    base = _unit_closure(n, (n - 1,))
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
    return tuple(UnitSubgroup(n, tuple(sorted(s))) for s in ordered)


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


# the ring O/nO, O = Z[sqrt(eps)] for a non-residue eps mod an odd prime: an
# element a + b*sqrt(eps) is the pair (a, b), and the matrix (a eps*b; b a)

def quadratic_mul(n: int, eps: int, x: tuple[int, int],
                  y: tuple[int, int]) -> tuple[int, int]:
    a, b = x
    c, d = y
    return (a * c + eps * b * d) % n, (a * d + b * c) % n


def quadratic_inv(n: int, eps: int, x: tuple[int, int]) -> tuple[int, int]:
    """x^-1 = conj(x) / norm(x), with norm(a + b*sqrt(eps)) = a^2 - eps*b^2."""
    a, b = x
    try:
        i = pow((a * a - eps * b * b) % n, -1, n)
    except ValueError:
        raise NonInvertible(f"{a} + {b}*sqrt({eps}) is not a unit mod {n}") from None
    return a * i % n, -b * i % n


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


def quadratic_mobius(n: int, eps: int, q: Quad,
                     z: tuple[int, int]) -> tuple[int, int]:
    """(q12 + z*q22) / (q11 + z*q21): the row (1, z) times q, rescaled to
    first entry 1. The denominator is a unit for every q in GL2 and every z
    whose sqrt(eps)-coefficient is a unit, since (1, z) is then a multiple
    of (1, sqrt(eps)) * g for some g in GL2."""
    x, y = z
    return quadratic_mul(n, eps, ((q[1] + x * q[3]) % n, y * q[3] % n),
                         quadratic_inv(n, eps, (q[0] + x * q[2], y * q[2])))


def quadratic_pair_key(n: int, z: tuple[int, int]) -> int:
    """One int for the pair {z, conj z} of O/nO."""
    x, y = z
    return x * n + min(y, n - y)


def quadratic_pair_orbits(n: int, eps: int, gens: Sequence[Quad],
                          starts: Iterable[tuple[int, int]],
                          grow: Callable[[int], None]) -> list[int]:
    """Sizes of the orbits of <gens> on the pairs {z, conj z} of O/nO under
    z -> quadratic_mobius(n, eps, r, z), one for each orbit that starts meets,
    in that order. Every z must have a unit sqrt(eps)-coefficient at an odd
    prime power n. grow(j) runs before the walk takes a pair past the j it
    knows, so that the caller can stop it.
    """
    inv = _unit_inverses(n)
    seen: set[int] = set()
    sizes = []
    for start in starts:
        if quadratic_pair_key(n, start) in seen:
            continue
        grow(len(seen))
        seen.add(quadratic_pair_key(n, start))
        orbit = [start]
        for x, y in orbit:  # grows while it is walked: the BFS queue
            for r0, r1, r2, r3 in gens:
                # quadratic_mobius and quadratic_pair_key, inlined: the walk
                # spends its time here
                a, b, p, q = r0 + x * r2, y * r2, r1 + x * r3, y * r3
                i = inv[(a * a - eps * b * b) % n]
                u, v = (p * a - eps * q * b) * i % n, (q * a - p * b) * i % n
                k = u * n + min(v, n - v)
                if k not in seen:
                    grow(len(seen))
                    seen.add(k)
                    orbit.append((u, v))
        sizes.append(len(orbit))
    return sizes
