"""Spans and counters around the library's module entry points.

The library imports its own functions with ``from .x import f``, so a function
can be bound under the same name in several modules (``lp_feasible`` lives in
``linprog``, ``colored`` and ``quasiproj``).  ``Tracer.install`` wraps every
entry point once and rebinds the wrapper in every module of the package that
holds the original, then checks that no original binding is left.

A span is ``(name, start, end, parent, query)``: the parent is the index of
the enclosing span, or -1.  Spans stay in memory until ``write``.  A layer is
a module; its self time is the time of its spans minus the time of their
direct child spans.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

LAYERS = (
    "linalg",
    "linprog",
    "cones",
    "colored",
    "quasiproj",
    "galois",
    "monoid",
    "fileio",
    "cli",
)

# Element-wise vector helpers run inside every other layer, millions of times
# per query; their time is charged to the caller rather than traced.
UNTRACED = {
    "linalg": {
        "vec", "mat", "zero_vec", "is_zero", "dot", "add", "sub", "neg",
        "scale", "matvec", "transpose", "identity",
    },
}
# Private helpers whose calls are counted: the DD pass and the simplex pivot.
PRIVATE = {"cones": {"_dd"}, "linprog": {"_pivot"}}
# Methods that carry their own counters.
METHODS = {"cones": {"Cone": ("faces",)}, "galois": {"GroupAction": ("elements",)}}

# The end-to-end metric and workload that each layer's metrics should move.
SHOULD_MOVE = {
    "linprog": "queries_per_s and query_s.p50 on cube3d (pivots dominate); "
    "the solve count sets query_s.p50 on plane_fans",
    "quasiproj": "query_s.p50 on cube3d (support LP size); little on plane_fans",
    "colored": "query_s.p50 on plane_fans and kform_orbits (validation, relint LPs)",
    "cones": "query_s.p50 on plane_fans and kform_orbits (DD passes, faces)",
    "linalg": "query_s.p50 on every workload, most on plane_fans",
    "galois": "queries_per_s and query_s.p50 on kform_orbits only; no change elsewhere",
    "monoid": "query_s.p50 on cli_files only",
    "fileio": "query_s.p50 on cli_files only",
    "cli": "query_s.p50 on cli_files only",
}

LP_BUCKETS = ((16, "rows_le16"), (64, "rows_le64"), (256, "rows_le256"), (None, "rows_gt256"))


def _rows(rows):
    return tuple(tuple(Fraction(x) for x in r) for r in rows)


PACKAGE = "coloredfans"


class Tracer:
    def __init__(self):
        self.active = False
        self.query = -1
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.lp_rows: list[int] = []
        self.support_lps: list[tuple[int, int, int]] = []
        self.group_orders: dict[int, int] = {}
        self.seen_cones: set = set()

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.lp_rows.clear()
        self.support_lps.clear()
        self.group_orders.clear()
        self.seen_cones.clear()

    # -- installation ---------------------------------------------------

    def _modules(self):
        prefix = PACKAGE + "."
        return [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(prefix))
        ]

    def install(self) -> None:
        """Wrap every entry point of every layer."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if name.startswith("_") and name not in PRIVATE.get(layer, ()):
                    continue
                if name in UNTRACED.get(layer, ()):
                    continue
                wrapped[fn] = self._wrap(f"{layer}.{name}", fn)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = getattr(cls, meth)
                    setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))
        for mod in self._modules():
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, name, wrapped[value])
        left = [
            f"{mod.__name__}.{name}"
            for mod in self._modules()
            for name, value in vars(mod).items()
            if inspect.isfunction(value) and value in wrapped
        ]
        if left:
            raise RuntimeError(f"unwrapped bindings remain: {left}")

    def _wrap(self, name: str, fn):
        tracer = self
        spans, stack = self.spans, self.stack
        after = self._after_hooks().get(name)
        construct = name in ("cones.cone_from_generators", "cones.cone_from_inequalities")

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if construct:
                args = (_rows(args[0]),) + args[1:]
                key = (name, args[1] if len(args) > 1 else kwargs.get("dim"), args[0])
                tracer.counts["cones.repeat"] += key in tracer.seen_cones
                tracer.seen_cones.add(key)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.query)
            tracer.counts[name] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def _after_hooks(self):
        counts = self.counts

        def lp_solved(args, kwargs, result):
            lp = args[0]
            self.lp_rows.append(len(lp.eq_constraints) + len(lp.ineq_constraints))
            counts["linprog.feasible"] += result is not None

        def relint(args, kwargs, result):
            counts["colored.relint.true"] += bool(result)

        def support_lp(args, kwargs, result):
            self.support_lps.append(
                (result.num_vars, len(result.eq_constraints), len(result.ineq_constraints))
            )

        def elements(args, kwargs, result):
            self.group_orders[self.query] = len(result)

        def loaded(args, kwargs, result):
            counts["fileio.bytes"] += os.path.getsize(args[0])

        return {
            "linprog.lp_feasible": lp_solved,
            "colored.relative_interior_meets": relint,
            "quasiproj.build_support_lp": support_lp,
            "galois.GroupAction.elements": elements,
            "fileio.load_json": loaded,
        }

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer, summed over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name.split(".", 1)[0]] += end - start - covered
        return out

    def metrics(self, queries: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics averaged over ``queries`` traced queries."""
        c = self.counts
        q = max(queries, 1)

        def per_query(n):
            return (n / q, "count/query")

        def share(n, d):
            return (n / d if d else 0.0, "1")

        selfs = self.self_times()
        solves = c["linprog.lp_feasible"]
        constructions = c["cones.cone_from_generators"] + c["cones.cone_from_inequalities"]
        lps = self.support_lps
        out = {
            "linprog.solves": per_query(solves),
            "linprog.pivots": per_query(c["linprog._pivot"]),
            "linprog.rows": (sum(self.lp_rows) / solves if solves else 0.0, "count"),
            "linprog.feasible_ratio": share(c["linprog.feasible"], solves),
        }
        low = 0
        for high, label in LP_BUCKETS:
            hits = sum(1 for r in self.lp_rows if low < r and (high is None or r <= high))
            out[f"linprog.{label}"] = share(hits, solves)
            low = high
        out.update({
            "quasiproj.support_lp.rows": (
                sum(e + i for _, e, i in lps) / len(lps) if lps else 0.0, "count"),
            "quasiproj.support_lp.vars": (
                sum(v for v, _, _ in lps) / len(lps) if lps else 0.0, "count"),
            "quasiproj.maximal_members.calls": per_query(c["quasiproj.maximal_members"]),
            "colored.validate_cone.calls": per_query(c["colored.validate_colored_cone"]),
            "colored.relint.calls": per_query(c["colored.relative_interior_meets"]),
            "colored.relint.true_ratio": share(
                c["colored.relint.true"], c["colored.relative_interior_meets"]),
            "colored.faces.calls": per_query(c["colored.colored_faces"]),
            "cones.construct.calls": per_query(constructions),
            "cones.dd.calls": per_query(c["cones._dd"]),
            "cones.faces.calls": per_query(c["cones.Cone.faces"]),
            "cones.repeat_share": share(c["cones.repeat"], constructions),
            "linalg.rref.calls": per_query(c["linalg.rref"]),
            "galois.group_order": (
                sum(self.group_orders.values()) / len(self.group_orders)
                if self.group_orders else 0.0, "count"),
            "galois.apply.calls": per_query(c["galois.apply_element"]),
            "galois.orbit_fans": per_query(c["galois.orbit_subfan"]),
            "monoid.calls": per_query(sum(
                n for name, n in c.items()
                if name.startswith("monoid.") and name.count(".") == 1)),
            "fileio.parse.calls": per_query(sum(
                c[f"fileio.parse_{kind}"] for kind in ("datum", "fan", "action", "morphism"))),
            "fileio.bytes_read": (c["fileio.bytes"] / q, "B/query"),
            "cli.commands": per_query(c["cli.run_command"]),
        })
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (selfs.get(layer, 0.0) / q, "s/query")
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, query in self.spans:
                fh.write(json.dumps([name, start, end, parent, query]) + "\n")
