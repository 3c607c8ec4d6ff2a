"""Exact arithmetic for 2x2 matrices over Z/NZ and subgroups of its unit group."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import gcd
from typing import Iterable, NamedTuple

from .errors import ModulusMismatch, NonDivisor, NonInvertible

Quad = tuple[int, int, int, int]


class _Mat2Fields(NamedTuple):
    n: int
    a: int
    b: int
    c: int
    d: int


class Mat2(_Mat2Fields):
    """Row-major 2x2 matrix (a b; c d) over Z/nZ, entries stored reduced."""

    __slots__ = ()

    def __new__(cls, n: int, a: int, b: int, c: int, d: int):
        if n < 1:
            raise ValueError(f"modulus must be >= 1, got {n}")
        return super().__new__(cls, n, a % n, b % n, c % n, d % n)

    @property
    def quad(self) -> Quad:
        return (self.a, self.b, self.c, self.d)

    def __repr__(self) -> str:
        return f"Mat2({self.n}; {self.a} {self.b}; {self.c} {self.d})"


def identity(n: int) -> Mat2:
    return Mat2(n, 1, 0, 0, 1)


def minus_identity(n: int) -> Mat2:
    return Mat2(n, -1, 0, 0, -1)


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


def mat_mul(x: Mat2, y: Mat2) -> Mat2:
    if x.n != y.n:
        raise ModulusMismatch(f"cannot multiply mod {x.n} by mod {y.n}")
    return Mat2(x.n, *quad_mul(x.n, x.quad, y.quad))


def mat_det(x: Mat2) -> int:
    return quad_det(x.n, x.quad)


def mat_inv(x: Mat2) -> Mat2:
    return Mat2(x.n, *quad_inv(x.n, x.quad))


def mat_reduce(x: Mat2, m: int) -> Mat2:
    """Entrywise reduction to a divisor modulus; mod 1 everything is zero."""
    if m < 1 or x.n % m:
        raise NonDivisor(f"{m} does not divide the modulus {x.n}")
    return Mat2(m, *quad_reduce(x.quad, m))


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


def _unit_closure(n: int, gens: Iterable[int], seed: Iterable[int] = ()) -> frozenset[int]:
    out = set(x % n for x in seed)
    out.add(1 % n)
    frontier = list(out)
    gens = [g % n for g in gens]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g % n
                if y not in out:
                    out.add(y)
                    new.append(y)
        frontier = new
    return frozenset(out)


@cache
def unit_group_generators(n: int) -> tuple[int, ...]:
    """A small generating set of (Z/nZ)^x, found greedily in ascending order."""
    return delta_full(n).generators


@dataclass(frozen=True)
class UnitSubgroup:
    """Subgroup of (Z/nZ)^x, carried as its full sorted element tuple."""

    n: int
    elements: tuple[int, ...]

    def __post_init__(self):
        els = self.elements
        if not els or list(els) != sorted(set(els)):
            raise ValueError("elements must be sorted and distinct")
        if any(gcd(x, self.n) != 1 for x in els):
            raise ValueError(f"non-unit element mod {self.n}")
        if 1 % self.n not in els:
            raise ValueError("subgroup must contain 1")
        # the greedy generators reach every element, so their closure is the
        # set exactly when the set is closed under multiplication
        if _unit_closure(self.n, self.generators) != self._set:
            raise ValueError(f"not closed under multiplication mod {self.n}")

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def _set(self) -> frozenset[int]:
        return frozenset(self.elements)

    def contains(self, x: int) -> bool:
        return x % self.n in self._set

    @property
    def contains_minus_one(self) -> bool:
        return self.contains(-1)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        gens: list[int] = []
        closed = _unit_closure(self.n, ())
        for u in self.elements:
            if u not in closed:
                gens.append(u)
                closed = _unit_closure(self.n, gens)
        return tuple(gens)

    def reduced(self, m: int) -> "UnitSubgroup":
        if m < 1 or self.n % m:
            raise NonDivisor(f"{m} does not divide {self.n}")
        return UnitSubgroup(m, tuple(sorted(_unit_closure(m, (x % m for x in self.elements)))))


def unit_subgroup(n: int, gens: Iterable[int] = ()) -> UnitSubgroup:
    """Closure of the given units; with no generators, the trivial subgroup."""
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

    Walks the subgroup lattice upward from <-1>: repeatedly adjoins a single
    unit to each known subgroup and closes. Every subgroup above <-1> is
    reachable this way. Output is ordered by (order, element tuple).
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    us = units(n)
    base = frozenset(_unit_closure(n, (n - 1,)))
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


def _extend_subgroup(n: int, sub: frozenset[int], g: int) -> frozenset[int]:
    # <sub, g> in an abelian group: union of g-power translates of sub
    out = set(sub)
    coset = {x * g % n for x in sub}
    while not coset <= out:
        out |= coset
        coset = {x * g % n for x in coset}
    return frozenset(out)
