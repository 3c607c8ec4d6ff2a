"""Exact arithmetic for 2x2 matrices over Z/NZ and subgroups of its unit group.

A matrix is a Quad: the 4-tuple (a, b, c, d) of (a b; c d), row-major, with
entries reduced mod the modulus that every routine takes alongside it.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cache, cached_property
from math import gcd

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


def identity_quad(n: int) -> Quad:
    return (1 % n, 0, 0, 1 % n)


def quad_pow(n: int, q: Quad, k: int) -> Quad:
    out = identity_quad(n)
    while k:
        if k & 1:
            out = quad_mul(n, out, q)
        q = quad_mul(n, q, q)
        k >>= 1
    return out


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


@cache
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
    """<sub, g> for a closed sub: the translates sub*g^j for j < k, k the
    least power with g^k in sub, which the walk g, g^2, ... finds; the
    abelian case of the coset-by-coset (Dimino) step that closes GL2 groups."""
    powers = [1]
    x = g % n
    while x not in sub:
        powers.append(x)
        x = x * g % n
    return frozenset({s * t % n for s in sub for t in powers})


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


# F_{ell^2} = F_ell[sqrt(eps)] for a non-residue eps mod an odd prime ell: the
# element a + b*sqrt(eps) is the matrix (a eps*b; b a)

@cache
def quadratic_generator(ell: int, eps: int) -> Quad:
    """(a eps*b; b a) for the least (a, b) with a + b*sqrt(eps) generating
    F_{ell^2}^x: its norm a^2 - eps*b^2 is a unit and its (ell^2 - 1)/p-th
    power is not I for any prime p | ell^2 - 1. eps*b is left unreduced, so
    the matrix stands for a + b*sqrt(eps) mod every power of ell. A residue
    eps raises ValueError: then every unit's (ell^2 - 1)/2-th power is I."""
    order = ell * ell - 1
    for z in ((a, eps * b, b, a) for a in range(ell) for b in range(1, ell)
              if (a * a - eps * b * b) % ell):
        if all(quad_pow(ell, z, order // p) != (1, 0, 0, 1)
               for p, _ in factorize(order)):
            return z
    raise ValueError(f"{eps} is not a non-residue mod {ell}")
