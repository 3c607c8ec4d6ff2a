"""Traced passes: spans and counters around the package's public calls.

Nothing here runs in a timed pass. ``Tracer.install`` replaces selected
functions and methods of the imported package with wrappers, in every
``modscreen`` module that holds them by name, and ``uninstall`` puts the
originals back. The package's source is not touched.

Two kinds of wrapper:

* span wrappers on the coarse calls (one CLI operation, catalog parsing, a
  screen entry, a fiber, an orbit, a coset space, a closure, a level, the
  unit-subgroup lattice) keep one span each: name, parent, start, end and
  self time, where self time is the span minus the spans and coset keys it
  contains;
* aggregating wrappers on the per-coset calls (``coset_key`` of each group
  kind and ``quad_mul``) keep only a call count and total time per name, so
  memory stays bounded however many cosets a pass walks. ``quad_mul`` is
  only counted: timing a call that short would cost more than the call.
"""

from __future__ import annotations

import itertools
import json
import sys
from time import perf_counter_ns

# (module, attribute) -> span name; per-call measures are in _SIZE below
SPANS = {
    ("cli", "main"): "cli.main",
    ("catalog", "parse_catalog"): "catalog.parse",
    ("catalog", "screen_entry"): "catalog.screen_entry",
    ("points", "fiber_degrees"): "points.fiber",
    ("points", "point_degree"): "points.point_degree",
    ("subgroups", "index_via_orbit"): "subgroups.orbit",
    ("subgroups", "closure_quads"): "subgroups.closure",
    ("subgroups", "level"): "subgroups.level",
    ("curves", "coset_space"): "curves.coset_space",
    ("zmod", "unit_subgroups_containing_minus_one"): "zmod.unit_lattice",
}

# (class, method) -> key name
KEYS = {
    ("BorelGroup", "coset_key"): "borel_key",
    ("BorelGroup", "sl2_coset_key"): "borel_sl2_key",
    ("CartanNormalizer", "coset_key"): "cartan_key",
    ("LiftedGroup", "coset_key"): "lifted_key",
    ("FullGroup", "coset_key"): "full_key",
    ("SL2Part", "coset_key"): "sl2_part_key",
    ("SubgroupSpec", "coset_key"): "generic_key",
}

# per-layer metric -> unit; the traced run reports exactly these
UNITS = {
    "zmod.quad_mul_calls": "count",
    "zmod.unit_lattice_calls": "count",
    "zmod.unit_lattice_s": "s",
    "subgroups.borel_key_calls": "count",
    "subgroups.borel_key_s": "s",
    "subgroups.borel_sl2_key_calls": "count",
    "subgroups.borel_sl2_key_s": "s",
    "subgroups.cartan_key_calls": "count",
    "subgroups.cartan_key_s": "s",
    "subgroups.lifted_key_calls": "count",
    "subgroups.lifted_key_s": "s",
    "subgroups.closure_calls": "count",
    "subgroups.closure_elements": "count",
    "subgroups.closure_s": "s",
    "subgroups.orbit_cosets": "count",
    "subgroups.orbit_s": "s",
    "subgroups.level_s": "s",
    "subgroups.cap_headroom": "ratio",
    "curves.cosets": "count",
    "curves.coset_space_s": "s",
    "points.fiber_cosets": "count",
    "points.fiber_s": "s",
    "points.keys_per_coset": "ratio",
    "points.point_degree_s": "s",
    "catalog.entries": "count",
    "catalog.parse_s": "s",
    "catalog.screen_entry_s": "s",
    "catalog.screen_entry_p50_ms": "ms",
    "catalog.screen_entry_p90_ms": "ms",
    "catalog.fiber_tables": "count",
    "catalog.fiber_table_reuse": "ratio",
    "cli.self_s": "s",
    "cli.stdout_bytes": "B",
    "trace.overhead_s": "s",
}

# which end-to-end metric each layer metric should move, and where
MOVES = {
    "zmod.quad_mul_calls": "wall_s on fiber_deep and genus_deep",
    "zmod.unit_lattice_calls": "wall_s on genus_deep, entries_per_s on screen",
    "zmod.unit_lattice_s": "wall_s on genus_deep, entries_per_s on screen",
    "subgroups.borel_key_calls": "wall_s, op_p50_ms on fiber_deep; not genus_deep",
    "subgroups.borel_key_s": "wall_s, op_p50_ms on fiber_deep; not genus_deep",
    "subgroups.borel_sl2_key_calls": "wall_s on genus_deep; not fiber_deep",
    "subgroups.borel_sl2_key_s": "wall_s on genus_deep; not fiber_deep",
    "subgroups.cartan_key_calls": "wall_s on fiber_deep",
    "subgroups.cartan_key_s": "wall_s on fiber_deep",
    "subgroups.lifted_key_calls": "wall_s on fiber_deep",
    "subgroups.lifted_key_s": "wall_s on fiber_deep (self time)",
    "subgroups.closure_calls": "entries_per_s on screen, setup_s",
    "subgroups.closure_elements": "entries_per_s on screen, setup_s",
    "subgroups.closure_s": "entries_per_s on screen, setup_s",
    "subgroups.orbit_cosets": "wall_s on fiber_deep",
    "subgroups.orbit_s": "wall_s on fiber_deep (self time)",
    "subgroups.level_s": "op_p50_ms on genus_deep",
    "subgroups.cap_headroom": "no timing; distance to the caps",
    "curves.cosets": "wall_s on genus_deep",
    "curves.coset_space_s": "wall_s on genus_deep (self time)",
    "points.fiber_cosets": "wall_s on fiber_deep, entries_per_s on screen",
    "points.fiber_s": "wall_s on fiber_deep, entries_per_s on screen (self)",
    "points.keys_per_coset": "wall_s on fiber_deep (wasted key work)",
    "points.point_degree_s": "op_p50_ms on fiber_deep",
    "catalog.entries": "entries_per_s on screen",
    "catalog.parse_s": "entries_per_s on screen",
    "catalog.screen_entry_s": "entries_per_s on screen (self time)",
    "catalog.screen_entry_p50_ms": "entries_per_s on screen",
    "catalog.screen_entry_p90_ms": "entries_per_s on screen",
    "catalog.fiber_tables": "entries_per_s on screen",
    "catalog.fiber_table_reuse": "entries_per_s on screen",
    "cli.self_s": "entries_per_s on screen; near zero share on the deep ones",
    "cli.stdout_bytes": "entries_per_s on screen",
    "trace.overhead_s": "traced wall_s minus untraced wall_s",
}


def _closure_size(out, args, kwargs):
    from modscreen.subgroups import ENUMERATION_CAP
    cap = args[2] if len(args) > 2 else kwargs.get("cap", ENUMERATION_CAP)
    return len(out), cap, args[0]


def _orbit_size(out, args, kwargs):
    from modscreen.subgroups import ORBIT_CAP
    return out, ORBIT_CAP, args[0].n


def _coset_space_size(out, args, kwargs):
    from modscreen.subgroups import ORBIT_CAP
    return out.mu, ORBIT_CAP, out.n


def _fiber_size(out, args, kwargs):
    from modscreen.subgroups import ENUMERATION_CAP
    return sum(out) // args[0].d_j, ENUMERATION_CAP, args[1].n


# span name -> (size, cap, modulus) of one call, from its result and arguments
_SIZE = {
    "subgroups.closure": _closure_size,
    "subgroups.orbit": _orbit_size,
    "curves.coset_space": _coset_space_size,
    "points.fiber": _fiber_size,
}


class _Frame:
    __slots__ = ("span_id", "child_ns", "keys")

    def __init__(self, span_id: int):
        self.span_id = span_id
        self.child_ns = 0
        self.keys = 0


class Span(tuple):
    """(id, parent, name, start_ns, end_ns, self_ns, keys, size, cap, modulus)."""

    __slots__ = ()

    @property
    def seconds(self) -> float:
        return (self[4] - self[3]) / 1e9


class Tracer:
    """Span and counter recorder for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[_Frame] = []
        # key name -> [calls, total ns, self ns]
        self.keys: dict[str, list[int]] = {name: [0, 0, 0] for name in KEYS.values()}
        self._key_depth = 0
        self._key_child_ns = 0
        self._ids = itertools.count(1)
        self._quad_mul_calls = itertools.count()
        self._undo: list[tuple[object, str, object]] = []

    # installation

    def install(self) -> None:
        from modscreen import subgroups, zmod
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "modscreen" or name.startswith("modscreen.")]
        for (modname, attr), span_name in SPANS.items():
            fn = getattr(sys.modules[f"modscreen.{modname}"], attr)
            self._replace_everywhere(mods, fn, self._span(span_name, fn))
        for (clsname, attr), key_name in KEYS.items():
            cls = getattr(subgroups, clsname)
            self._set(cls, attr, self._key(key_name, cls.__dict__[attr]))
        self._replace_everywhere(mods, zmod.quad_mul, self._counted(zmod.quad_mul))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, mods, fn, wrapper) -> None:
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    # wrappers

    def _span(self, name: str, fn):
        stack, spans, ids = self.stack, self.spans, self._ids
        size = _SIZE.get(name)

        def wrapper(*args, **kwargs):
            frame = _Frame(next(ids))
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                if parent is not None:
                    parent.child_ns += t1 - t0
            measured = size(out, args, kwargs) if size else (0, 0, 0)
            spans.append(Span((frame.span_id, parent.span_id if parent else 0,
                               name, t0, t1, t1 - t0 - frame.child_ns,
                               frame.keys, *measured)))
            return out

        return wrapper

    def _key(self, name: str, fn):
        rec, stack, tracer = self.keys[name], self.stack, self

        def wrapper(*args):
            t0 = perf_counter_ns()
            tracer._key_depth += 1
            outer_child_ns = tracer._key_child_ns
            tracer._key_child_ns = 0
            try:
                return fn(*args)
            finally:
                dur = perf_counter_ns() - t0
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - tracer._key_child_ns
                tracer._key_child_ns = outer_child_ns + dur
                tracer._key_depth -= 1
                if tracer._key_depth == 0:
                    # an outermost key call is a child of the innermost span
                    tracer._key_child_ns = 0
                    if stack:
                        stack[-1].child_ns += dur
                        stack[-1].keys += 1

        return wrapper

    def _counted(self, fn):
        counter = self._quad_mul_calls

        def quad_mul(n, x, y):
            next(counter)
            return fn(n, x, y)

        return quad_mul

    # results

    def quad_mul_calls(self) -> int:
        """Calls counted so far; reading the counter ends counting."""
        if not isinstance(self._quad_mul_calls, int):
            self._quad_mul_calls = next(self._quad_mul_calls)
        return self._quad_mul_calls

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of UNITS except the two the caller adds."""
        by_name: dict[str, list[Span]] = {name: [] for name in SPANS.values()}
        for span in self.spans:
            by_name[span[2]].append(span)
        names = {span[0]: span[2] for span in self.spans}
        parents = {span[0]: span[1] for span in self.spans}

        def inside_entry(span) -> bool:
            sid = span[1]
            while sid:
                if names[sid] == "catalog.screen_entry":
                    return True
                sid = parents[sid]
            return False

        def seconds(name):
            return sum(s.seconds for s in by_name[name])

        def self_seconds(name):
            return sum(s[5] for s in by_name[name]) / 1e9

        def sizes(name):
            return sum(s[7] for s in by_name[name])

        fiber_cosets = sizes("points.fiber")
        fiber_keys = sum(s[6] for s in by_name["points.fiber"])
        entry_ms = [s.seconds * 1e3 for s in by_name["catalog.screen_entry"]]
        tables = [s for s in by_name["points.fiber"] if inside_entry(s)]
        keys = self.keys
        return {
            "zmod.quad_mul_calls": self.quad_mul_calls(),
            "zmod.unit_lattice_calls": len(by_name["zmod.unit_lattice"]),
            "zmod.unit_lattice_s": seconds("zmod.unit_lattice"),
            "subgroups.borel_key_calls": keys["borel_key"][0],
            "subgroups.borel_key_s": keys["borel_key"][1] / 1e9,
            "subgroups.borel_sl2_key_calls": keys["borel_sl2_key"][0],
            "subgroups.borel_sl2_key_s": keys["borel_sl2_key"][1] / 1e9,
            "subgroups.cartan_key_calls": keys["cartan_key"][0],
            "subgroups.cartan_key_s": keys["cartan_key"][1] / 1e9,
            "subgroups.lifted_key_calls": keys["lifted_key"][0],
            "subgroups.lifted_key_s": keys["lifted_key"][2] / 1e9,
            "subgroups.closure_calls": len(by_name["subgroups.closure"]),
            "subgroups.closure_elements": sizes("subgroups.closure"),
            "subgroups.closure_s": seconds("subgroups.closure"),
            "subgroups.orbit_cosets": sizes("subgroups.orbit"),
            "subgroups.orbit_s": self_seconds("subgroups.orbit"),
            "subgroups.level_s": seconds("subgroups.level"),
            "subgroups.cap_headroom": max((s[7] / s[8] for s in self.spans if s[8]),
                                          default=0.0),
            "curves.cosets": sizes("curves.coset_space"),
            "curves.coset_space_s": self_seconds("curves.coset_space"),
            "points.fiber_cosets": fiber_cosets,
            "points.fiber_s": self_seconds("points.fiber"),
            "points.keys_per_coset": fiber_keys / fiber_cosets if fiber_cosets else 0.0,
            "points.point_degree_s": seconds("points.point_degree"),
            "catalog.entries": len(entry_ms),
            "catalog.parse_s": seconds("catalog.parse"),
            "catalog.screen_entry_s": self_seconds("catalog.screen_entry"),
            "catalog.screen_entry_p50_ms": _quantile(entry_ms, 0.5),
            "catalog.screen_entry_p90_ms": _quantile(entry_ms, 0.9),
            "catalog.fiber_tables": len(tables),
            "catalog.fiber_table_reuse": (len({s[9] for s in tables}) / len(tables)
                                          if tables else 0.0),
            "cli.self_s": self_seconds("cli.main"),
        }

    def write_spans(self, path: str) -> None:
        """One JSON line per span, then one per aggregated key name."""
        fields = ("id", "parent", "name", "start_ns", "end_ns", "self_ns",
                  "keys", "size", "cap", "modulus")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
            for name, (calls, total_ns, self_ns) in self.keys.items():
                fh.write(json.dumps({"aggregate": name, "calls": calls,
                                     "total_ns": total_ns,
                                     "self_ns": self_ns}) + "\n")
            fh.write(json.dumps({"aggregate": "quad_mul",
                                 "calls": self.quad_mul_calls()}) + "\n")


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
