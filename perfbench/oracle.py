"""Output oracle for the benchmark, independent of the package under test.

Nothing here imports ``modscreen``. Expected values come from the paper's
tables, classical closed forms and plain integer arithmetic. ``check_pass``
takes one pass's operations and results and returns, per operation, the list
of problems found; an empty list means the output is right.
"""

from __future__ import annotations

import json

TABLE1_KEYS = [(25, 4), (25, 10), (27, 6), (32, 4), (32, 8)]
TABLE1_GENERA = [4, 0, 1, 5, 1]
TABLE2_GENERA = [4, 0, 19, 3, 106, 26, 516, 340, 164, 50, 24, 16]
TABLE2_BOUNDS = [30, 12, 56, 24, 132, 60, 546, 364, 182, 84, 42, 28]
FORCED, INCONCLUSIVE = "ForcedP1Parametrized", "Inconclusive"

# (modulus, delta order) -> genus, read off the two paper tables
KNOWN_GENUS = dict(zip(TABLE1_KEYS, TABLE1_GENERA))
KNOWN_GENUS.update({(25, 4): 4, (25, 10): 0, (49, 6): 19, (49, 14): 3})


# arithmetic

def prime_power(n: int) -> tuple[int, int]:
    p = next(q for q in range(2, n + 1) if n % q == 0)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise ValueError(f"not a prime power: {n}")
    return p, e


def phi(n: int) -> int:
    if n == 1:
        return 1
    p, e = prime_power(n)
    return p ** (e - 1) * (p - 1)


def gl2_order(n: int) -> int:
    if n == 1:
        return 1
    p, e = prime_power(n)
    return p ** (4 * e - 3) * (p * p - 1) * (p - 1)


def psi2(n: int) -> int:
    """[GL2 : upper triangular with the full unit group on the diagonal] * phi."""
    p, e = prime_power(n)
    return p ** (2 * e - 2) * (p * p - 1)


def borel_order(n: int, delta_order: int) -> int:
    return delta_order * n * phi(n)


def unit_closure(n: int, gens) -> frozenset[int]:
    out = {1 % n}
    frontier = [1 % n]
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


def intermediate_orders(n: int) -> list[int]:
    """Orders of unit subgroups mod the prime power n strictly between
    {+-1} and the whole group, one per order (every such group is fixed by
    its order: the units are cyclic, or <-1> x cyclic at powers of 2)."""
    p, e = prime_power(n)
    if p == 2:
        orders = [2 * 2**i for i in range(max(e - 1, 0))] if e >= 3 else [phi(n)]
    else:
        orders = [k for k in range(2, phi(n) + 1, 2) if phi(n) % k == 0]
    return [k for k in orders if 2 < k < phi(n)]


def gamma1_data(n: int) -> tuple[int, int, int, int, int]:
    """(mu, nu2, nu3, nu_inf, genus) of the plus-minus Gamma_1(n) curve, n >= 5."""
    if n < 5:
        raise ValueError("the generic formula needs n >= 5")
    mu = psi2(n) // 2
    nu_inf = sum(phi(d) * phi(n // d) for d in range(1, n + 1) if n % d == 0) // 2
    twelve_g = 12 + mu - 6 * nu_inf
    return mu, 0, 0, nu_inf, twelve_g // 12


# output parsing

def _tsv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.rstrip("\n").split("\n")
    return lines[0].split("\t"), [line.split("\t") for line in lines[1:]]


def _ints(row) -> list[int]:
    return [int(v) for v in row]


# per-kind checks: each returns a list of problems

def _table1(out, check, prior) -> list[str]:
    header, rows = _tsv(out)
    if header != ["modulus", "delta_order", "genus", "threshold", "verdict"]:
        return [f"table1 header {header}"]
    got = [(int(r[0]), int(r[1])) for r in rows]
    problems = []
    if got != TABLE1_KEYS:
        problems.append(f"table1 rows {got}")
    if [int(r[2]) for r in rows] != TABLE1_GENERA:
        problems.append("table1 genera differ from the paper")
    for m, k, g, t, v in rows:
        if int(t) != int(k) // 2 * int(g):
            problems.append(f"table1 threshold {t} at ({m}, {k})")
        if v != (FORCED if int(g) == 0 else INCONCLUSIVE):
            problems.append(f"table1 verdict {v} at ({m}, {k})")
    return problems


def _table2(out, check, prior) -> list[str]:
    header, rows = _tsv(out)
    if header != ["ell", "delta_order", "genus", "degree_lower_bound", "verdict"]:
        return [f"table2 header {header}"]
    keys = [(ell, k) for ell in (5, 7, 11, 13) for k in intermediate_orders(ell * ell)]
    problems = []
    if [(int(r[0]), int(r[1])) for r in rows] != keys:
        problems.append("table2 rows differ")
    if [int(r[2]) for r in rows] != TABLE2_GENERA:
        problems.append("table2 genera differ from the paper")
    if [int(r[3]) for r in rows] != TABLE2_BOUNDS:
        problems.append("table2 bounds differ from the paper")
    for ell, k, g, b, v in rows:
        ell, k, g, b = int(ell), int(k), int(g), int(b)
        if b * k != ell * (ell * ell - 1):
            problems.append(f"table2 bound {b} at ({ell}, {k})")
        if v != (FORCED if g == 0 or b > g else INCONCLUSIVE):
            problems.append(f"table2 verdict {v} at ({ell}, {k})")
    return problems


def _genus_row(out) -> tuple[list[int], str]:
    header, rows = _tsv(out)
    if header != ["mu", "nu2", "nu3", "nu_inf", "genus", "label_prefix"] or len(rows) != 1:
        raise ValueError("not a genus table")
    return _ints(rows[0][:5]), rows[0][5]


def _genus_gamma1(out, check, prior) -> list[str]:
    n = check["n"]
    got, label = _genus_row(out)
    problems = []
    if tuple(got) != gamma1_data(n):
        problems.append(f"Gamma1({n}) data {got} != {gamma1_data(n)}")
    if label != f"{n}.{got[0]}.{got[4]}":
        problems.append(f"Gamma1({n}) label {label}")
    return problems


def _genus_borel(out, check, prior) -> list[str]:
    n, k = check["n"], check["order"]
    (mu, nu2, nu3, nu_inf, g), label = _genus_row(out)
    problems = []
    if mu * k != psi2(n):
        problems.append(f"mu {mu} at ({n}, {k})")
    if 12 * g != 12 + mu - 3 * nu2 - 4 * nu3 - 6 * nu_inf or g < 0 or nu_inf < 1:
        problems.append(f"inconsistent curve data at ({n}, {k})")
    lvl, idx, gen = label.split(".")
    if n % int(lvl) or int(idx) != mu or int(gen) != g:
        problems.append(f"label {label} at ({n}, {k})")
    # a smaller Delta is a cover of a larger one: genus cannot go up
    for other in prior.values():
        if other.get("n") == n and "genus" in other:
            small, big = sorted((k, other["order"]))
            g_small, g_big = (g, other["genus"]) if small == k else (other["genus"], g)
            if big % small == 0 and g_small < g_big:
                problems.append(f"genus not monotone in Delta at {n}")
    return problems


def _fiber_full(out, check, prior) -> list[str]:
    n = check["n"]
    expected = f"degree\tmultiplicity\n{psi2(n) // 2}\t1\n"
    return [] if out == expected else [f"fiber of the full image at {n}: {out!r}"]


def _point_cns(out, check, prior) -> list[str]:
    ell, d = check["ell"], check["d"]
    expected = (ell * ell - 1) * ell ** (2 * d - 2) // 2
    return [] if out == f"{expected}\n" else [f"CNS point degree {out!r} != {expected}"]


def _fiber_cartan(out, check, prior) -> list[str]:
    ell, d = check["ell"], check["d"]
    n = ell**d
    cns_order = 2 * ell ** (2 * d - 2) * (ell * ell - 1)
    header, rows = _tsv(out)
    pairs = [_ints(r) for r in rows]
    problems = []
    if header != ["degree", "multiplicity"] or not pairs:
        return [f"not a fiber table: {out!r}"]
    if sum(deg * mult for deg, mult in pairs) != gl2_order(n) // cns_order:
        problems.append(f"fiber degrees do not partition [GL2 : CNS({n})]")
    if any(cns_order % deg for deg, _ in pairs):
        problems.append("an orbit size does not divide the image order")
    return problems


def _reduce_level(out, check, prior) -> list[str]:
    n, m, gens = check["n"], check["m"], check["gens"]
    ell, _ = prime_power(n)
    delta = unit_closure(n, gens)
    low = ell**m
    delta_low = {x % low for x in delta}
    expected = (borel_order(low, len(delta_low)) * (gl2_order(n) // gl2_order(low))
                // borel_order(n, len(delta)))
    header, rows = _tsv(out)
    if header != ["lhs", "rhs", "equal", "hypothesis_holds"] or len(rows) != 1:
        return [f"not a reduce-level table: {out!r}"]
    lhs, rhs, equal, hyp = rows[0]
    if (int(lhs), int(rhs), equal, hyp) != (expected, expected, "True", "True"):
        return [f"reduce-level at {n}, m={m}: {rows[0]} (expected {expected})"]
    return []


def _twin(out, check, prior) -> list[str]:
    twin = prior.get(check["twin"])
    problems = []
    if twin is None or out != twin["stdout"]:
        problems.append(f"conjugate twin of {check['twin']} differs")
    if check.get("also"):
        problems += CHECKS[check["also"]](out, check, prior)
    return problems


def _screen(out, check, prior) -> list[str]:
    records = [json.loads(line) for line in out.splitlines()]
    by_label = {r["label"]: r for r in records}
    levels = check["levels"]
    problems = []
    if len(records) != check["entries"] or set(by_label) != set(levels):
        return [f"screen returned {len(records)} records for {check['entries']} entries"]
    genus: dict[tuple[int, int], int] = {}
    for rec in records:
        level = levels[rec["label"]]
        ell, k = prime_power(level)
        top = max(k, check["tower"][str(ell)])
        where = f"screen entry {rec['label']}"
        if rec["ell"] != ell or rec["n_max"] != top:
            problems.append(f"{where}: ell/n_max {rec['ell']}/{rec['n_max']}")
        keys = [(ell**j, o) for j in range(max(k, 1), top + 1)
                for o in intermediate_orders(ell**j)]
        rows = rec["rows"]
        if [(r["modulus"], r["delta_order"]) for r in rows] != keys:
            problems.append(f"{where}: tower rows differ")
            continue
        for r in rows:
            modulus, g = r["modulus"], r["genus"]
            if genus.setdefault((modulus, r["delta_order"]), g) != g:
                problems.append(f"{where}: genus at {modulus} differs between entries")
            known = KNOWN_GENUS.get((modulus, r["delta_order"]))
            if known is not None and known != g:
                problems.append(f"{where}: genus {g} at {modulus} != paper's {known}")
            if r["threshold"] != r["delta_order"] // 2 * g:
                problems.append(f"{where}: threshold at {modulus}")
            fired = r["min_fiber_degree"] > r["threshold"]
            if r["verdict"] != (FORCED if fired else INCONCLUSIVE):
                problems.append(f"{where}: row verdict at {modulus}")
            if not 1 <= r["min_fiber_degree"] <= psi2(modulus) // 2:
                problems.append(f"{where}: fiber degree out of range at {modulus}")
        passed = all(r["verdict"] == FORCED for r in rows)
        if rec["fiber_screen_passed"] != passed:
            problems.append(f"{where}: fiber_screen_passed")
        # every entry reduces mod ell (<= 7) to a Borel group, whose curve sits
        # between X_1(ell) and X_0(ell), or to a nonsplit Cartan normalizer,
        # whose curve X_ns^+(ell) has genus 0 for ell <= 7
        if rec["genus_zero_at_ell"] is not True:
            problems.append(f"{where}: genus at ell should be zero")
        if rec["verdict"] != (FORCED if passed or rec["genus_zero_at_ell"] else INCONCLUSIVE):
            problems.append(f"{where}: verdict")
    for conj, base in check["twins"]:
        a, b = dict(by_label[conj]), dict(by_label[base])
        a.pop("label")
        b.pop("label")
        if a != b:
            problems.append(f"screen twins {conj} and {base} differ")
    return problems


CHECKS = {
    "table1": _table1,
    "table2": _table2,
    "genus_gamma1": _genus_gamma1,
    "genus_borel": _genus_borel,
    "fiber_full": _fiber_full,
    "point_cns": _point_cns,
    "fiber_cartan": _fiber_cartan,
    "reduce_level": _reduce_level,
    "twin": _twin,
    "screen": _screen,
}


def check_pass(ops: list[dict], results: list[dict]) -> list[list[str]]:
    """Problems per operation; a nonzero exit or an unreadable output is one."""
    prior: dict[str, dict] = {}
    out = []
    for op, res in zip(ops, results):
        check = op["check"]
        seen = {"stdout": res["stdout"], "n": check.get("n"),
                "order": check.get("order", 2)}
        if res["rc"] != 0:
            problems = [f"exit code {res['rc']}"]
        else:
            try:
                problems = CHECKS[check["kind"]](res["stdout"], check, prior)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if check["kind"].startswith("genus_") and not problems:
                seen["genus"] = _genus_row(res["stdout"])[0][4]
        prior[op["name"]] = seen
        out.append([f"{op['name']}: {p}" for p in problems])
    return out
