"""Outside-in tracer: wraps the package's public functions from the benchmark.

Nothing in the package is edited. ``Tracer.install`` replaces each listed
function in its defining module and in every loaded ``intersective`` module
that imported it by name, so calls made inside the package are seen too.
Each call becomes a span ``[name, start, end, parent, query, info]`` kept in
a list in memory; ``info`` holds work counts read from the call's arguments
and result. ``spectral.ball_mul`` runs millions of times, so it gets a bare
call counter instead of spans.

``layer_metrics`` turns the spans of one pass into the per-layer metrics.
A span's self time is its duration minus the durations of its direct
children; calls run on one thread, so children nest inside their parent.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

# (module, attribute, span name). Names follow the module that defines them.
TRACED = (
    ("spectral", "count_nonneg_tuples", "spectral.count_nonneg_tuples"),
    ("spectral", "residue_dp_count", "spectral.residue_dp"),
    ("spectral", "residue_dp_profile", "spectral.residue_dp"),
    ("spectral", "clique_bounds", "spectral.clique_bounds"),
    ("cyclotomic", "cyclotomic", "cyclotomic.cyclotomic"),
    ("cyclotomic", "inverse_cyclotomic", "cyclotomic.inverse_cyclotomic"),
    ("oracle", "max_independent_set", "oracle.max_independent_set"),
    ("oracle", "exact_avoidance", "oracle.exact_avoidance"),
    ("engine", "best_bounds", "engine.best_bounds"),
    ("engine", "best_divisor_polynomial", "engine.best_divisor_polynomial"),
    ("constructions", "slab_is_valid", "constructions.slab_is_valid"),
    ("constructions", "slab_size", "constructions.slab_size"),
    ("constructions", "build_construction", "constructions.build_construction"),
    ("constructions", "verify_construction", "constructions.verify_construction"),
    ("constructions", "product_lower_bound", "constructions.product_lower_bound"),
    ("cli", "main", "cli.main"),
)
# Every public module-level function of these modules is one span name per module.
WHOLE_MODULES = ("numtheory", "abelian")
AMBIGUOUS_MARK = "ambiguous at precision cap"


def _count_info(args, kwargs, result):
    h, n, N = args[:3]
    return {"h": list(h.coeffs), "n": n, "N": N}


def _mis_info(args, kwargs, result):
    return {"nodes": result.nodes, "vertices": args[0].n_vertices}


def _notes_info(args, kwargs, result):
    return {"notes": len(result.notes)}


INFO = {
    "spectral.count_nonneg_tuples": _count_info,
    "oracle.max_independent_set": _mis_info,
    "engine.best_bounds": _notes_info,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.query = -1
        self.ball_mul_calls = 0
        self.ambiguous_warnings = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[5] = {"raised": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return traced

    def _count_ball_mul(self, fn):
        @functools.wraps(fn)
        def counted(a, b):
            self.ball_mul_calls += 1
            return fn(a, b)

        return counted

    def install(self) -> None:
        """Wrap every traced function wherever the package's modules bound it."""
        package = "intersective"
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == package or name.startswith(package + "."))}
        replace: dict[int, object] = {}
        for mod_name, attr, span in TRACED:
            fn = getattr(mods[f"{package}.{mod_name}"], attr)
            replace[id(fn)] = self.wrap(span, fn, INFO.get(span))
        for mod_name in WHOLE_MODULES:
            mod = mods[f"{package}.{mod_name}"]
            for attr, fn in vars(mod).items():
                if callable(fn) and not isinstance(fn, type) and not attr.startswith("_") \
                        and getattr(fn, "__module__", None) == mod.__name__ \
                        and not inspect.isgeneratorfunction(fn):
                    replace[id(fn)] = self.wrap(mod_name, fn)
        spectral = mods[f"{package}.spectral"]
        replace[id(spectral.ball_mul)] = self._count_ball_mul(spectral.ball_mul)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, attr, replace[id(value)])
        # A method, so it is replaced on the class rather than in modules.
        poly = mods[f"{package}.cyclotomic"].IntPolynomial
        poly.exact_divide = self.wrap("cyclotomic.exact_divide", poly.exact_divide)

    def note_warning(self, message) -> None:
        if AMBIGUOUS_MARK in str(message):
            self.ambiguous_warnings += 1

    def dump(self) -> dict:
        return {"spans": self.spans, "ball_mul_calls": self.ball_mul_calls,
                "ambiguous_warnings": self.ambiguous_warnings}


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


PER_LAYER = (
    "spectral.count_nonneg_tuples.calls", "spectral.count_nonneg_tuples.distinct",
    "spectral.count_nonneg_tuples.useful_ratio", "spectral.count_nonneg_tuples.multisets",
    "spectral.count_nonneg_tuples.self_s", "spectral.us_per_multiset",
    "spectral.ball_mul.calls", "spectral.ambiguous_warnings",
    "spectral.residue_dp.self_s", "spectral.clique_bounds.self_s", "spectral.self_s",
    "cyclotomic.cyclotomic.calls", "cyclotomic.cyclotomic.self_s",
    "cyclotomic.exact_divide.calls", "cyclotomic.exact_divide.self_s",
    "cyclotomic.inverse_cyclotomic.self_s", "cyclotomic.self_s",
    "oracle.max_independent_set.calls", "oracle.max_independent_set.self_s",
    "oracle.max_independent_set.nodes", "oracle.max_independent_set.vertices",
    "oracle.us_per_node", "oracle.exact_avoidance.calls", "oracle.exact_avoidance.self_s",
    "oracle.exact_avoidance.infeasible", "oracle.self_s",
    "engine.best_bounds.calls", "engine.best_bounds.self_s", "engine.best_bounds.notes",
    "engine.best_divisor_polynomial.calls", "engine.best_divisor_polynomial.self_s",
    "engine.self_s",
    "constructions.slab_is_valid.self_s", "constructions.slab_size.self_s",
    "constructions.build_construction.self_s", "constructions.verify_construction.self_s",
    "constructions.product_lower_bound.self_s", "constructions.self_s",
    "numtheory.calls", "numtheory.self_s", "abelian.calls", "abelian.self_s",
    "cli.main.self_s",
)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac") or metric.endswith("_ratio"):
        return "ratio"
    if ".us_per_" in metric:
        return "us"
    return "count"


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass, from the trace dumps of its processes."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    distinct: set = set()
    multisets = nodes = vertices = notes = infeasible = 0
    ball_mul = ambiguous = 0
    for dump in dumps:
        spans = dump["spans"]
        ball_mul += dump["ball_mul_calls"]
        ambiguous += dump["ambiguous_warnings"]
        for s, own in zip(spans, self_times(spans)):
            name, info = s[0], s[5] or {}
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            layer = name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + own
            if "raised" in info:
                infeasible += name == "oracle.exact_avoidance" and info["raised"] == "OracleInfeasible"
                continue
            if name == "spectral.count_nonneg_tuples":
                distinct.add((tuple(info["h"]), info["n"], info["N"]))
                multisets += math.comb(info["N"] + info["n"] - 1, info["n"] - 1)
            elif name == "oracle.max_independent_set":
                nodes += info["nodes"]
                vertices += info["vertices"]
            elif name == "engine.best_bounds":
                notes += info["notes"]

    out: dict[str, float] = {}
    for metric in PER_LAYER:
        head, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls.get(head, 0)
        elif field == "self_s":
            out[metric] = self_s.get(head, 0.0) if "." in head else layer_self.get(head, 0.0)
    cnt = "spectral.count_nonneg_tuples"
    n_calls = calls.get(cnt, 0)
    out[f"{cnt}.distinct"] = len(distinct)
    out[f"{cnt}.useful_ratio"] = len(distinct) / n_calls if n_calls else 0.0
    out[f"{cnt}.multisets"] = multisets
    out["spectral.us_per_multiset"] = 1e6 * self_s.get(cnt, 0.0) / multisets if multisets else 0.0
    out["spectral.ball_mul.calls"] = ball_mul
    out["spectral.ambiguous_warnings"] = ambiguous
    mis = "oracle.max_independent_set"
    out[f"{mis}.nodes"] = nodes
    out[f"{mis}.vertices"] = vertices
    out["oracle.us_per_node"] = 1e6 * self_s.get(mis, 0.0) / nodes if nodes else 0.0
    out["oracle.exact_avoidance.infeasible"] = infeasible
    out["engine.best_bounds.notes"] = notes
    return {m: out[m] for m in PER_LAYER}
