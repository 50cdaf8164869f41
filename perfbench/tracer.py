"""Span tracing of lcone's layers, installed from outside the library.

`Tracer.install` replaces every public function of every `lcone` module by
a wrapper that records one span per call, at every binding of it: the
module's own attribute, the names other modules (the benchmark's own
included) brought in with `from ... import`, and module-level dicts such as
the task table. A span is
(name, start, end, parent span, item id). Spans are kept in memory while the
run lasts and written out at its end; `layer_metrics` turns them into the
per-layer numbers. Calls made while no item runs are not recorded.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

# Results whose size is the work a call did, by span name.
_SIZES = {
    "lattice.enumerate_close": ("points", len),
    "delaunay.delaunay_star": ("cells", lambda star: len(star.cells)),
}


def lcone_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "lcone" or name.startswith("lcone.")]


def public_functions(module) -> dict:
    """The public functions a module defines, lru-cached ones included."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_clear"):
            out[name] = obj
    return out


class Tracer:
    def __init__(self):
        self.spans: list = []        # (name, start, end, parent index, item)
        self.sizes: dict = defaultdict(int)
        self.checkpoint_bytes = 0
        self.item = None             # id of the running item, None between items
        self._stack: list = []
        self._active: dict = defaultdict(int)
        self._outer: list = []       # per span: no enclosing span of the same name
        self._undo: list = []

    def _wrap(self, name: str, fn):
        spans, stack, active, outer = self.spans, self._stack, self._active, self._outer
        size = _SIZES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            item = self.item
            if item is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            outer.append(active[name] == 0)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                spans[idx] = (name, start, end, parent, item)
            if size is not None:
                self.sizes[f"{name}.{size[0]}"] += size[1](result)
            return result

        return wrapper

    def install(self, callers=()):
        """Wrap every public lcone function at every binding in the lcone
        modules and in the `callers` modules."""
        modules = lcone_modules()
        wrappers = {}
        for mod in modules:
            short = mod.__name__.split(".")[-1]
            for name, fn in public_functions(mod).items():
                wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
        for mod in modules + list(callers):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._undo.append((setattr, mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict) and mod in modules:
                    for key, fn in list(value.items()):
                        if id(fn) in wrappers:
                            self._undo.append((dict.__setitem__, value, key, fn))
                            value[key] = wrappers[id(fn)]
        self._hook_checkpoint()

    def _hook_checkpoint(self):
        """Count the bytes of each checkpoint file when it is closed."""
        from lcone.classify import DiskCache

        close = DiskCache.close

        def counted_close(cache):
            if self.item is not None and cache.path and os.path.exists(cache.path):
                self.checkpoint_bytes += os.path.getsize(cache.path)
            close(cache)

        self._undo.append((setattr, DiskCache, "close", close))
        DiskCache.close = counted_close

    def uninstall(self):
        while self._undo:
            setter, target, key, value = self._undo.pop()
            setter(target, key, value)

    def write(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("span\tname\tstart\tend\tparent\titem\n")
            for i, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{item}\n")


def _has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, hits: dict) -> dict:
    """Per-layer numbers named <module>.<function>.<stat>.

    `hits` maps a cache name to its (hits, misses) summed over the items.
    """
    spans = tracer.spans
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        if tracer._outer[i]:
            total[name] += end - start
        self_s[name] += end - start - child[i]
    module_self = defaultdict(float)
    for name, value in self_s.items():
        module_self[name.split(".")[0]] += value

    def nested(name, inside):
        return sum(1 for i, s in enumerate(spans)
                   if s[0] == name and _has_ancestor(spans, i, inside))

    out = {}
    for name in ("exact.solve", "exact.nullspace", "lattice.enumerate_close",
                 "delaunay.delaunay_star", "delaunay.initial_cell", "delaunay.adjacent_cell",
                 "delaunay.cell_facets", "scone.star_wall_forms",
                 "scone.secondary_cone", "scone.cone_facets",
                 "polyhedral.dv_polytope", "polyhedral.polytope_from_halfspaces",
                 "polyhedral.dual_description", "polyhedral.face_lattice",
                 "equiv.canonical_labeling", "equiv.cone_equivalent",
                 "classify.merge_candidates"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in ("lattice.short_vectors", "lattice.closest_vectors",
                 "delaunay.neighbor_triangulation", "scone.cone_from_rays",
                 "classify.enrich_cone"):
        out[f"{name}.calls"] = calls[name]
    for name in ("delaunay.delaunay_star", "delaunay.neighbor_triangulation",
                 "polyhedral.dv_polytope", "classify.enrich_cone", "classify.write_db"):
        out[f"{name}.total_s"] = total[name]
    for module in ("exact", "lattice", "delaunay", "scone", "polyhedral", "equiv",
                   "classify"):
        out[f"{module}.self_s"] = module_self[module]
    out["lattice.enumerate_close.points"] = tracer.sizes["lattice.enumerate_close.points"]
    cells = tracer.sizes["delaunay.delaunay_star.cells"]
    out["delaunay.delaunay_star.cells"] = cells
    out["delaunay.adjacent_per_cell"] = _ratio(calls["delaunay.adjacent_cell"], cells)
    out["delaunay.stars_per_crossing"] = _ratio(
        nested("delaunay.delaunay_star", "delaunay.neighbor_triangulation"),
        calls["delaunay.neighbor_triangulation"])
    out["polyhedral.stars_per_dv"] = _ratio(
        nested("delaunay.delaunay_star", "polyhedral.dv_polytope"),
        calls["polyhedral.dv_polytope"])
    out["polyhedral.face_lattice_per_dv"] = _ratio(
        calls["polyhedral.face_lattice"], calls["polyhedral.dv_polytope"])
    out["classify.checkpoint_bytes"] = tracer.checkpoint_bytes
    for name, (h, m) in hits.items():
        out[f"{name}.hit_ratio"] = _ratio(h, h + m)
    return out
