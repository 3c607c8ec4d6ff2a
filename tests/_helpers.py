"""Shared test utilities: naive reference computations done the slow,
obviously-correct way, plus deterministic pools of structural subgroup
instances for randomized property tests. Random choices always flow
through an explicit random.Random so runs are reproducible.
"""

import itertools

from modscreen.errors import ModulusMismatch, TooLarge
from modscreen.points import _aut_is_plus_minus, _require_minus_i
from modscreen.subgroups import (ENUMERATION_CAP, BorelGroup, CartanNormalizer,
                                 FullGroup, coset_action, gl2_order,
                                 identity_quad, lift_subgroup)
from modscreen.zmod import (_p1_normalize, _unit_inverses, quad_inv,
                            quad_is_invertible, quad_mul, quadratic_mul,
                            unit_subgroup, units)


# Reference closure: the element-by-element BFS that the coset-by-coset
# closure replaced, kept verbatim for comparison.

def reference_closure_quads(n, gen_quads, cap=ENUMERATION_CAP):
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
                        raise TooLarge(f"closure mod {n} exceeds cap {cap}",
                                       operation="closure", modulus=n,
                                       reached=len(seen) + 1, cap=cap)
                    seen.add(y)
                    new.append(y)
        frontier = new
    return frozenset(seen)


# Reference chain key: the least element of the coset q^-1 * H, as
# StabilizerChain.key returned it while it took the least scalar over A and
# the least second column over the column group C = {(1 b; 0 d)} of H, here
# over every element of C. The key now returns a canonical element instead,
# equal for two cosets exactly when these are.

def reference_chain_key(chain, columns, q):
    """The least element of q^-1 * H: the chain's line and scalar levels pin
    the first column, and the second is the least over the elements of C
    (columns, enumerated from reference_closure_quads)."""
    n = chain.n
    x0, x1, x2, x3 = x = quad_inv(n, q)
    scalars = chain._levels[0]
    best = None
    for u, _ in chain._lines.values():
        a, c = (x0 * u[0] + x1 * u[2]) % n, (x2 * u[0] + x3 * u[2]) % n
        code = _p1_normalize(n, a, c)[0]
        if best is None or code < best[0]:
            best = code, a, c, u
    _, a, c, u = best
    t = min(scalars, key=lambda t: (t * a % n, t * c % n))
    y0, y1, y2, y3 = quad_mul(n, quad_mul(n, x, u), scalars[t][0])
    b, d = min(((y0 * b + y1 * d) % n, (y2 * b + y3 * d) % n)
               for _, b, _, d in columns)
    return (y0, b, y2, d)


# Reference Delta-class table: BorelGroup._delta_class as it was before the
# chain's class tables and it came to share zmod._unit_classes, kept verbatim.

def reference_delta_class(n, delta):
    """Unit t -> least element of the coset t*Delta (0 at non-units)."""
    out = [0] * n
    dels = delta.elements
    # ascending walk: the first unit to reach a coset is its least element
    for t in units(n):
        if not out[t]:
            for dl in dels:
                out[t * dl % n] = t
    return out


# Reference unit-group closure and greedy generators: the element-by-element
# BFS that the one-unit-at-a-time extension replaced, kept for comparison.

def reference_unit_closure(n, gens):
    """All products of the units gens mod n, 1 included."""
    out = {1 % n}
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


def reference_unit_generators(n, elements):
    """Ascending greedy scan, re-closing from scratch after each kept unit."""
    gens = []
    closed = reference_unit_closure(n, ())
    for u in elements:
        if u not in closed:
            gens.append(u)
            closed = reference_unit_closure(n, gens)
    return tuple(gens)


# Reference Cartan pair walk: every generator steps from every pair, the walk
# that the walk by cycles of one generator replaced, kept for comparison.

def reference_pair_orbits(n, eps, gens, starts, cap, at_cap):
    """Sizes of the orbits of <gens> on the pairs (x, y^2) that starts meet,
    in that order: quadratic_pair_orbits stepping every generator from every
    pair, with the same closed step and the same cap check."""
    inv = _unit_inverses(n)
    steps = [(r0, r1, r2, r3, eps * r2 * r2 % n, eps * r2 * r3 % n,
              (r0 * r3 - r1 * r2) ** 2 % n) for r0, r1, r2, r3 in gens]
    seen = set()
    sizes = []
    for start in starts:
        k = start[0] * n + start[1]
        if k in seen:
            continue
        if len(seen) >= cap:
            at_cap(len(seen))
        seen.add(k)
        orbit = [start]
        for x, y2 in orbit:  # grows while it is walked: the BFS queue
            for r0, r1, r2, r3, er22, er23, det2 in steps:
                a = r0 + x * r2
                i = inv[(a * a - er22 * y2) % n]
                u = ((r1 + x * r3) * a - er23 * y2) * i % n
                v = y2 * det2 * i * i % n
                k = u * n + v
                if k not in seen:
                    if len(seen) >= cap:
                        at_cap(len(seen))
                    seen.add(k)
                    orbit.append((u, v))
        sizes.append(len(orbit))
    return sizes


# Reference Mobius map and pair key of O/nO, O = Z[sqrt(eps)]: the map that
# the pair walk's closed step and CartanNormalizer.coset_key replaced, kept
# for comparison.

def quadratic_inv(n, eps, x):
    """x^-1 = conj(x) / norm(x), with norm(a + b*sqrt(eps)) = a^2 - eps*b^2."""
    a, b = x
    i = pow((a * a - eps * b * b) % n, -1, n)
    return a * i % n, -b * i % n


def quadratic_mobius(n, eps, q, z):
    """(q12 + z*q22) / (q11 + z*q21): the row (1, z) times q, rescaled to
    first entry 1."""
    x, y = z
    return quadratic_mul(n, eps, ((q[1] + x * q[3]) % n, y * q[3] % n),
                         quadratic_inv(n, eps, (q[0] + x * q[2], y * q[2])))


def quadratic_pair_key(n, z):
    """One int for the pair {z, conj z}, z = x + y*sqrt(eps) with y a unit
    at an odd prime power n: x*n + y^2."""
    x, y = z
    return x * n + y * y % n


# Reference product set: subgroups.product_set_quads as it was before point
# degrees under a larger automorphism group became a quotient of two orbit
# indices, kept verbatim but for its annotations, for comparison.

def reference_product_set(h, k):
    """H*K as a set. It is a union of right cosets H*k, so one representative
    per distinct H-coset met by K pins it; only K must be enumerable."""
    if h.n != k.n:
        raise ModulusMismatch(f"groups live mod {h.n} and mod {k.n}")
    reps = {}
    for q in sorted(k.element_quads):
        reps.setdefault(h.coset_key(q), q)
    size = h.order * len(reps)
    if size > ENUMERATION_CAP:
        raise TooLarge("product set exceeds cap", operation="product set",
                       modulus=h.n, reached=size, cap=ENUMERATION_CAP)
    n = h.n
    return frozenset(quad_mul(n, a, b) for a in h.element_quads for b in reps.values())


# Reference orbit walks: every coset at the image's modulus n, with no descent
# to the level of a lifted image, kept verbatim for comparison.

def reference_index(r, h):
    """[R : R meet H], the size of the orbit of the coset H*1 under R's generators."""
    if r.n != h.n:
        raise ModulusMismatch(f"groups live mod {r.n} and mod {h.n}")
    reps, _ = coset_action(h, r.generator_quads())
    return len(reps)


def reference_fiber_degrees(ctx, h):
    """Degrees of every closed point over the j-class, sorted ascending."""
    if not _aut_is_plus_minus(ctx.aut, ctx.image.n):
        raise ValueError("fiber decomposition needs the +- automorphism convention")
    h = _require_minus_i(h)
    r = ctx.image
    if r.n != h.n:
        raise ModulusMismatch(f"image mod {r.n} against group mod {h.n}")
    rgens = r.generator_quads()
    gens = rgens + tuple(g for g in FullGroup(h.n).generator_quads()
                         if g not in rgens)
    reps, perms = coset_action(h, gens)
    rperms = perms[:len(rgens)]

    degrees = []
    assigned = [False] * len(reps)
    for start in range(len(reps)):
        if assigned[start]:
            continue
        assigned[start] = True
        orbit = [start]
        for i in orbit:  # orbit grows while it is walked
            for perm in rperms:
                j = perm[i]
                if not assigned[j]:
                    assigned[j] = True
                    orbit.append(j)
        degrees.append(ctx.d_j * len(orbit))
    return tuple(sorted(degrees))


def reference_point_degree(ctx, h):
    """d_j times the index of R meet H in R, for the +-convention."""
    h = _require_minus_i(h)
    return ctx.d_j * reference_index(ctx.image, h)


def naive_coset_count(r, h):
    """[R : R meet H] by scanning R's elements against H's membership
    predicate. Quadratic in the answer; small groups only."""
    n = r.n
    reps = []
    for q in sorted(r.element_quads):
        for rep in reps:
            if h.member_quad(quad_mul(n, q, quad_inv(n, rep))):
                break
        else:
            reps.append(q)
    return len(reps)


def key_classes_are_cosets(key, elements, subgroup, n):
    """True when equal keys on `elements` mean exactly equal cosets H*g."""
    buckets = {}
    for g in elements:
        buckets.setdefault(key(g), set()).add(g)
    for bucket in buckets.values():
        g = next(iter(bucket))
        if bucket != {quad_mul(n, h, g) for h in subgroup}:
            return False
    return True


def intersection_order(r, h):
    """|R meet H| by filtering the smaller element set through the other
    side's membership predicate."""
    small, big = (r, h) if r.order <= h.order else (h, r)
    return sum(1 for q in small.element_quads if big.member_quad(q))


def predicate_elements(h):
    """Every quad the membership predicate accepts, by scanning all n**4
    tuples. Keep n small."""
    n = h.n
    return frozenset(q for q in itertools.product(range(n), repeat=4)
                     if h.member_quad(q))


def least_prime_factor(n):
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def prime_power_exponent(n):
    """(p, e) with n = p**e, or None when n is not a prime power."""
    if n < 2:
        return None
    p = least_prime_factor(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return (p, e) if n == 1 else None


def is_odd_prime_power(n):
    pe = prime_power_exponent(n)
    return pe is not None and pe[0] != 2


def generator_list(rng, n, count):
    """Invertible quads mod n with det != 1 likely, plus a repeat and the identity."""
    gens = []
    while len(gens) < count:
        q = tuple(rng.randrange(n) for _ in range(4))
        if quad_is_invertible(n, q):
            gens.append(q)
    return gens + gens[:1] + [(1 % n, 0, 0, 1 % n)]


def random_delta(rng, n, minus_one=True):
    """A random unit subgroup mod n, by default forced to contain -1."""
    gens = [n - 1] if minus_one else []
    pool = units(n)
    for _ in range(rng.randint(0, 2)):
        gens.append(rng.choice(pool))
    return unit_subgroup(n, gens)


def deltas_with_minus_one(n):
    """Unit subgroups containing -1, found by single-generator extensions
    of <-1>. Not exhaustive above rank 2, which is fine for pool building."""
    if n < 3:
        return [unit_subgroup(n)]
    out = {unit_subgroup(n, [n - 1]).elements: unit_subgroup(n, [n - 1])}
    for u in units(n):
        d = unit_subgroup(n, [n - 1, u])
        out.setdefault(d.elements, d)
    return sorted(out.values(), key=lambda d: (d.order, d.elements))


def structural_pool(n, max_order=100_000):
    """Structural groups at modulus n, all containing -I, small enough for
    element enumeration. FullGroup is always included; its elements are
    only materialized if a test actually asks for them."""
    pool = [FullGroup(n)]
    for delta in deltas_with_minus_one(n):
        b = BorelGroup(n, delta)
        if b.order <= max_order:
            pool.append(b)
    pe = prime_power_exponent(n)
    if pe is not None and pe[0] != 2:
        c = CartanNormalizer(*pe)
        if c.order <= max_order:
            pool.append(c)
    for m in range(2, n):
        if n % m:
            continue
        for base in structural_pool(m, max_order):
            if base.kind == "full":
                continue  # lifts of Full are Full again
            lifted = lift_subgroup(base, n)
            if lifted.order <= max_order:
                pool.append(lifted)
    return pool
