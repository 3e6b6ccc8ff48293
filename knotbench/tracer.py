"""
Outside-in tracing of the knotcover package.

The tracer wraps, from outside the program, every public module-level
function of each layer (the package's modules), both where it is defined and
wherever another knotcover module imported the name, plus a few hot class
methods.  While a query is being recorded each call becomes a span kept in
memory: name, parent, start, end, an optional size probe and the exception
it raised.  When the query ends its spans are folded into Stats: call counts,
inclusive time (outermost call of a name only), self time (duration minus
the time its child spans cover), probe values and exceptions per layer.
Outside a recorded query a wrapper only checks one attribute and calls
through.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterator

LAYERS = ("cli", "knots", "laurent_poly", "exact_linalg", "invariants",
          "rep_variety", "series", "mahler", "acceptance")

# Class methods traced besides module-level functions: (module, class,
# attribute, span name).  Reflected operators share the span of the operator.
METHODS = (
    ("laurent_poly", "IntPoly", "__divmod__", "laurent_poly.IntPoly.__divmod__"),
    ("laurent_poly", "LaurentPoly", "__mul__", "laurent_poly.LaurentPoly.__mul__"),
    ("laurent_poly", "LaurentPoly", "__rmul__", "laurent_poly.LaurentPoly.__mul__"),
    ("exact_linalg", "CycNumber", "__mul__", "exact_linalg.CycNumber.__mul__"),
    ("exact_linalg", "CycNumber", "__rmul__", "exact_linalg.CycNumber.__mul__"),
    ("exact_linalg", "CycNumber", "inverse", "exact_linalg.CycNumber.inverse"),
)

REFUSALS = ("Degenerate", "CapExceeded")


def _matrix_bits(a) -> int:
    return max((abs(x).bit_length() for row in a for x in row), default=0)


# Problem sizes recorded per span, from the call's arguments and result.
PROBES: dict[str, Callable[[tuple, Any], Any]] = {
    "laurent_poly.resultant": lambda args, res: args[0].deg() + args[1].deg(),
    "exact_linalg.det_exact": lambda args, res: (len(args[0]), _matrix_bits(args[0])),
    "exact_linalg.smith_normal_form": lambda args, res: res.rows * res.cols,
    "exact_linalg.poly_at_matrix": lambda args, res: (args[0].min_deg, args[0].coeffs, len(args[1])),
    "rep_variety.kernel_torus_solutions": lambda args, res: len(res),
    "rep_variety.wirtinger_torus_matrix": lambda args, res: len(res) * (len(res[0]) if res else 0),
    "mahler.poly_roots": lambda args, res: (res.iterations, res.residual_bound),
}


class Stats:
    """Span totals over a set of recorded queries."""

    def __init__(self) -> None:
        self.queries = 0
        self.calls: Counter[str] = Counter()
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.values: defaultdict[str, list] = defaultdict(list)
        # Distinct probe values within each query, summed over queries.
        self.distinct: Counter[str] = Counter()
        self.exceptions: defaultdict[str, Counter[str]] = defaultdict(Counter)

    def add(self, spans: list[list]) -> None:
        child = [0.0] * len(spans)
        for name, parent, start, end, *_ in spans:
            if parent >= 0:
                child[parent] += end - start
        in_query: defaultdict[str, list] = defaultdict(list)
        seen: set[tuple[str, int]] = set()
        for i, (name, _, start, end, nested, value, exc) in enumerate(spans):
            dur = end - start
            self.calls[name] += 1
            self.self_s[name] += dur - child[i]
            if not nested:
                self.incl_s[name] += dur
            if value is not None:
                in_query[name].append(value)
            if exc is not None:
                layer = name.split(".", 1)[0]
                if (layer, id(exc)) not in seen:
                    seen.add((layer, id(exc)))
                    self.exceptions[layer][type(exc).__name__] += 1
        for name, vals in in_query.items():
            self.values[name].extend(vals)
            self.distinct[name] += len(set(vals))
        self.queries += 1

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)


class Tracer:
    """Installs and removes the wrappers; records one query at a time."""

    def __init__(self) -> None:
        self._restore: list[tuple[object, str, object]] = []
        self._spans: list[list] | None = None
        self._stack: list[int] = []
        self._active: dict[str, int] = {}

    def install(self) -> None:
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"knotcover.{layer}")
            except ModuleNotFoundError:
                continue  # a layer the package no longer has reports zeros
        package = [m for name, m in list(sys.modules.items())
                   if name == "knotcover" or name.startswith("knotcover.")]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(obj, f"{layer}.{attr}")
                for owner in package:
                    for name, value in list(vars(owner).items()):
                        if value is obj:
                            self._set(owner, name, wrapper)
        for layer, cls_name, attr, span in METHODS:
            cls = getattr(modules.get(layer), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is not None:
                self._set(cls, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _set(self, owner: object, name: str, value: object) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        probe = PROBES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self._spans
            if spans is None:
                return fn(*args, **kwargs)
            active, stack = self._active, self._stack
            depth = active.get(name, 0)
            active[name] = depth + 1
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, depth > 0, None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[6] = exc
                raise
            finally:
                rec[3] = clock()
                stack.pop()
                active[name] = depth
            if probe is not None:
                try:
                    rec[5] = probe(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # a signature this probe does not know; size unrecorded
            return result

        return traced

    @contextlib.contextmanager
    def query(self, stats: Stats) -> Iterator[None]:
        """Record the spans of the enclosed calls into `stats`."""
        self._spans, self._stack, self._active = [], [], {}
        try:
            yield
        finally:
            spans, self._spans = self._spans, None
            stats.add(spans)


def layer_metrics(stats: Stats) -> dict[str, tuple[float, str]]:
    """The per-layer metrics (value, unit) derived from the span totals."""
    q = max(stats.queries, 1)

    def ms(name: str) -> tuple[float, str]:
        return stats.incl_s[name] * 1e3 / q, "ms/query"

    def self_ms(name: str) -> tuple[float, str]:
        return stats.self_s[name] * 1e3 / q, "ms/query"

    def calls(name: str) -> tuple[float, str]:
        return stats.calls[name] / q, "1/query"

    def vmax(name: str, unit: str, pick: Callable[[Any], float] = lambda v: v) -> tuple[float, str]:
        return max((pick(v) for v in stats.values[name]), default=0), unit

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    pam, kernel = "exact_linalg.poly_at_matrix", "rep_variety.kernel_torus_solutions"
    points = sum(stats.values[kernel])
    roots = stats.values["mahler.poly_roots"]
    out = {
        "cli.self_ms": (stats.layer_self_s("cli") * 1e3 / q, "ms/query"),
        "knots.burau_ms": ms("knots.alexander_burau"),
        "knots.fox_ms": ms("knots.alexander_fox"),
        "knots.wirtinger_ms": ms("knots.braid_closure_wirtinger"),
        "laurent_poly.divmod_calls": calls("laurent_poly.IntPoly.__divmod__"),
        "laurent_poly.divmod_ms": ms("laurent_poly.IntPoly.__divmod__"),
        "laurent_poly.laurent_mul_calls": calls("laurent_poly.LaurentPoly.__mul__"),
        "laurent_poly.resultant_ms": ms("laurent_poly.resultant"),
        "laurent_poly.resultant_max_dim": vmax("laurent_poly.resultant", "dim"),
        "exact_linalg.poly_at_matrix_ms": ms(pam),
        "exact_linalg.poly_at_matrix_calls": calls(pam),
        "exact_linalg.delta_tau_useful_ratio": (ratio(stats.distinct[pam], stats.calls[pam]), "ratio"),
        "exact_linalg.inverse_unimodular_ms": ms("exact_linalg.matrix_inverse_unimodular"),
        "exact_linalg.inverse_unimodular_calls": calls("exact_linalg.matrix_inverse_unimodular"),
        "exact_linalg.det_ms": ms("exact_linalg.det_exact"),
        "exact_linalg.det_max_dim": vmax("exact_linalg.det_exact", "dim", lambda v: v[0]),
        "exact_linalg.det_max_bits": vmax("exact_linalg.det_exact", "bits", lambda v: v[1]),
        "exact_linalg.snf_ms": ms("exact_linalg.smith_normal_form"),
        "exact_linalg.snf_calls": calls("exact_linalg.smith_normal_form"),
        "exact_linalg.snf_max_cells": vmax("exact_linalg.smith_normal_form", "cells"),
        "exact_linalg.mat_pow_ms": ms("exact_linalg.mat_pow"),
        "exact_linalg.cyc_mul_calls": calls("exact_linalg.CycNumber.__mul__"),
        "exact_linalg.cyc_mul_ms": ms("exact_linalg.CycNumber.__mul__"),
        "exact_linalg.cyc_inverse_calls": calls("exact_linalg.CycNumber.inverse"),
        "exact_linalg.cyc_inverse_ms": ms("exact_linalg.CycNumber.inverse"),
        "exact_linalg.cyc_det_ms": ms("exact_linalg.cyc_det"),
        "invariants.q_relative_ms": ms("invariants.q_relative"),
        "invariants.q_relative_self_ms": self_ms("invariants.q_relative"),
        "invariants.homology_ms": ms("invariants.branched_cover_homology"),
        "invariants.cyclic_product_ms": ms("invariants.cyclic_product_magnitude"),
        "rep_variety.verify_t3_ms": ms("rep_variety.verify_t3_points"),
        "rep_variety.kernel_self_ms": self_ms(kernel),
        "rep_variety.kernel_points": (points / q, "1/query"),
        "rep_variety.kernel_us_per_point": (ratio(stats.self_s[kernel] * 1e6, points), "us/point"),
        "rep_variety.wirtinger_ms": ms("rep_variety.wirtinger_torus_count"),
        "rep_variety.wirtinger_max_cells": vmax("rep_variety.wirtinger_torus_matrix", "cells"),
        "rep_variety.refusals": (
            sum(stats.exceptions["rep_variety"][r] for r in REFUSALS) / q, "1/query"),
        "series.donaldson_ms": ms("series.donaldson_series_xk"),
        "mahler.roots_ms": ms("mahler.poly_roots"),
        "mahler.aberth_iterations": (sum(v[0] for v in roots) / q, "1/query"),
        "mahler.max_residual_bound": (max((v[1] for v in roots), default=0.0), "ratio"),
        "mahler.integral_ms": ms("mahler.mahler_measure_integral"),
        "mahler.table_self_ms": self_ms("mahler.asymptotic_table"),
    }
    for layer in LAYERS[1:-1]:
        out[f"{layer}.self_ms"] = (stats.layer_self_s(layer) * 1e3 / q, "ms/query")
    return out
