"""The stabilizer chain of a group H < GL2(Z/NZ) given by generators
(StabilizerChain), and the one transversal walk (_transversal) that serves
its first three levels and the Schreier generators of subgroups.SL2Part.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Sequence
from functools import cached_property
from math import gcd
from operator import itemgetter

from .zmod import (Quad, _p1_normalize, _unit_classes, _unit_inverses,
                   identity_quad, quad_det, quad_inv, quad_mul)


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
    """A generated group H < GL2(Z/nZ) as a stabilizer chain of four levels.

    H acts on column vectors mod n. The levels are:
      1. the orbit L of the line <e1> in P^1(Z/n) (at most psi(n) lines),
         keyed by _p1_normalize of a first column, with a transversal u_l in H;
      2. the line's stabilizer H_L = H meet upper-triangular maps onto the
         scalars A = {t[0]} on e1 (at most phi(n) units), with a transversal
         v_a in H_L;
      3. the kernel C = {(1 b; 0 d)} of that map onto its diagonal entries D
         (at most phi(n) units), with a transversal w_d = (1 b_d; 0 d) in C;
      4. the kernel of that map, the translations (1 b; 0 1) in H: exactly
         those with b in step*Z/n, for one divisor step of n.
    Every element of H is u_l * v_a * w_d * (1 step*k; 0 1) in exactly one
    way (k mod n/step), so |H| = |L| |A| |D| n/step, membership is one sift
    and one divisibility, a key is O(|L|) plus a unit-class lookup in A and D
    (zmod._unit_classes), and the elements of a given trace and determinant are
    counted over the |L| |A| products u_l * v_a alone (trace_det_counts).

    Built by Schreier-Sims with sifting (Seress, Permutation Group
    Algorithms, 2003, ch. 4): every Schreier generator of levels 1 and 2 is
    sifted through levels 2 and 3 (_strip). Those of level 3, and whatever
    sifts through it, are translations, whose b join step by one gcd. The
    strong generators of level 3 are kept closed under conjugation by those
    of level 2, so C is normal in H_L and is the whole kernel; conjugating a
    translation by an upper-triangular map scales its b by a unit, so
    step*Z/n needs no such care. The line, not the vector e1, is the first
    base point because the orbit of e1 can reach n^2 vectors (Murray-O'Brien,
    1995, on choosing base points for matrix groups).
    """

    def __init__(self, n: int, gens: Sequence[Quad]):
        self.n = n
        # level 1: line code -> (u_l, u_l^-1), and its Schreier generators
        self._lines, todo = _transversal(
            n, gens, lambda y: _p1_normalize(n, y[0], y[2])[0])
        # levels 2 and 3: their strong generators, and a -> (v_a, v_a^-1)
        # and d -> (w_d, w_d^-1)
        one = identity_quad(n)
        self._strong: tuple[list[Quad], list[Quad]] = ([], [])
        self._levels = [{1 % n: (one, one)}, {1 % n: (one, one)}]
        # level 4: the translations (1 b; 0 1) in H are those with step | b
        self._step = n
        self._sift(todo)

    @property
    def order(self) -> int:
        scalars, columns = self._levels
        return len(self._lines) * len(scalars) * len(columns) * self.n // self._step

    def contains(self, q: Quad) -> bool:
        n = self.n
        u = self._lines.get(_p1_normalize(n, q[0], q[2])[0])
        if u is None:
            return False
        # u^-1 * q fixes the line <e1>
        level, t = self._strip(quad_mul(n, u[1], q))
        return level == 2 and t[1] % self._step == 0

    def key(self, q: Quad) -> Quad:
        """A canonical element of the left coset q^-1 * H, not the least one.

        H*q1 = H*q2 exactly when q1^-1 * H = q2^-1 * H. With x = q^-1 every
        element of x*H is x * u_l * v_a * c, and its first column is
        a * (x * u_l * e1): take the line of least P^1 code, whose column is
        1/s times its normal form, then v_a by the class of 1/s in A, w_d by
        the class of det(x * u_l * v_a) in D and the translation by one gcd
        step: each pins one factor, so the result depends only on the coset.
        """
        n = self.n
        x0, x1, x2, x3 = x = quad_inv(n, q)
        best = None
        for u, _ in self._lines.values():
            a, c = (x0 * u[0] + x1 * u[2]) % n, (x2 * u[0] + x3 * u[2]) % n
            code, s = _p1_normalize(n, a, c)
            if best is None or code < best[0]:
                best = code, s, u
        _, s, u = best
        (scalars, columns), (a_class, d_class) = self._levels, self._classes
        inverse = _unit_inverses(n)
        y = quad_mul(n, quad_mul(n, x, u), scalars[a_class[inverse[s]] * s % n][0])
        det = quad_det(n, y)
        y0, p, y2, r = quad_mul(n, y, columns[d_class[det] * inverse[det] % n][0])
        # y * w_d * (1 step*k; 0 1) has second column (p + y0*step*k,
        # r + y2*step*k). The top entry is least, p mod g for
        # g = gcd(y0*step, n), at the k = -(p // g) / (y0*step/g) mod m = n/g,
        # and over those k the bottom one is least mod gcd(y2*step*m, n).
        step = self._step
        g = gcd(y0 * step, n)
        m = n // g
        shift = y2 * step * pow(y0 * step // g, -1, m)
        return (y0, p % g, y2, (r - shift * (p // g)) % gcd(y2 * step * m, n))

    @cached_property
    def _classes(self) -> tuple[list[int], ...]:
        return tuple(_unit_classes(self.n, level) for level in self._levels)

    def trace_det_counts(self, classes: Sequence[tuple[int, int]]) -> list[int]:
        """#{h in H : tr h = t, det h = det} for each (t, det) in classes, in
        one pass over the |L| |A| products, without enumerating H.

        Every h is w * c with w = u_l * v_a and c = (1 b; 0 d) in C, and then
        det h = det(w) * d and tr h = w0 + w2 * b + w3 * d. So det pins d, and
        the b with (1 b; 0 d) in C are b_d + step*k, read off w_d and level 4.
        On them the trace is the congruence w2 * step * k = r mod n in
        k mod n/step, r = t - w0 - w2 * b_d - w3 * d: g/step solutions when
        g = gcd(w2 * step, n) divides r, else none.
        """
        n, step = self.n, self._step
        scalars, columns = self._levels
        inverse = _unit_inverses(n)
        counts = [0] * len(classes)
        for u, _ in self._lines.values():
            for v, _ in scalars.values():
                w0, _, w2, w3 = w = quad_mul(n, u, v)
                g = gcd(w2 * step, n)
                over = inverse[quad_det(n, w)]
                for j, (t, det) in enumerate(classes):
                    d = det * over % n
                    c = columns.get(d)
                    if c is not None and (t - w0 - w2 * c[0][1] - w3 * d) % g == 0:
                        counts[j] += g // step
        return counts

    def _strip(self, g: Quad) -> tuple[int, Quad]:
        """The one sift of an element g of H_L through levels 2 and 3: the
        level (0 for 2, 1 for 3) whose transversal misses it, with what is
        left of g there, or 2 with the translation left after both."""
        for i, table in enumerate(self._levels):
            t = table.get(g[3 * i])
            if t is None:
                return i, g
            g = quad_mul(self.n, t[1], g)
        return 2, g

    def _sift(self, todo: list[Quad]) -> None:
        """Sift elements of H_L into levels 2 to 4 until every one of them,
        and every Schreier generator and conjugate they bring, is inside."""
        n = self.n
        scalar_gens, column_gens = self._strong
        while todo:
            i, g = self._strip(todo.pop())
            if i == 2:
                self._step = gcd(self._step, g[1])
                continue
            # a new strong generator: its level is rebuilt, and its Schreier
            # generators lie in the next one
            self._strong[i].append(g)
            self._levels[i], schreier = _transversal(n, self._strong[i],
                                                     itemgetter(3 * i))
            todo += schreier
            if i:
                todo += [_conjugate(n, s, g) for s in scalar_gens]
            else:
                todo += [_conjugate(n, g, c) for c in column_gens]


def _conjugate(n: int, s: Quad, c: Quad) -> Quad:
    """s^-1 * c * s."""
    return quad_mul(n, quad_mul(n, quad_inv(n, s), c), s)
