"""Per-layer spans and cache counters, recorded from outside the package.

The layers are the package's modules.  ``Tracer.install`` replaces every
public function of each layer module, and the arithmetic and public methods
of ``LaurentScalar`` and ``FockVector``, with a span recorder.  Names that
other modules imported with ``from . import`` are replaced there too, so a
call is recorded whichever namespace it goes through.  ``remove`` puts the
originals back.

Spans are aggregated as they close: per layer the number of calls, the busy
time (wall time with at least one span of the layer open) and the self time
(span time not covered by child spans); per (parent layer, layer) edge the
calls and time.  Nothing is written until the run ends.

Cached kernels are found by introspection (anything with ``cache_info`` and
``cache_clear``), so the counters follow the package through refactors.
"""

from __future__ import annotations

import inspect
import types
from collections import defaultdict
from time import perf_counter

import fockheis
from fockheis import cherednik, cli, fock, oracles, partitions, schar, symfunc, young

LAYER_MODULES = {
    "cli": cli,
    "cherednik": cherednik,
    "fock": fock,
    "symfunc": symfunc,
    "schar": schar,
    "young": young,
    "partitions": partitions,
    "oracles": oracles,
}
CLASS_LAYERS = {"fock.vector": fock.FockVector, "fock.scalar": fock.LaurentScalar}
LAYERS = tuple(LAYER_MODULES) + tuple(CLASS_LAYERS)
CACHED_LAYERS = ("young", "schar", "symfunc", "fock")
ARITHMETIC = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__eq__")


def _all_modules():
    return [fockheis] + [m for m in vars(fockheis).values() if isinstance(m, types.ModuleType)]


def cached_kernels() -> list:
    """(layer, name, cached callable) for every functools cache in the package."""
    out = []
    for layer, mod in LAYER_MODULES.items():
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == mod.__name__:
                out.append((layer, name, obj))
    return out


_KERNELS = cached_kernels()


def clear_caches() -> None:
    for _, _, fn in _KERNELS:
        fn.cache_clear()


class CacheCounter:
    """Hits and misses summed over intervals, per cached layer.

    cache_clear() also zeroes the counters, so every interval is read as a
    difference between ``start`` and ``stop`` and added up here.
    """

    def __init__(self):
        self.hits = defaultdict(int)
        self.misses = defaultdict(int)
        self._base = None

    def _read(self):
        return [(layer, fn.cache_info()) for layer, _, fn in _KERNELS]

    def start(self) -> None:
        self._base = self._read()

    def stop(self) -> None:
        for (layer, before), (_, after) in zip(self._base, self._read()):
            self.hits[layer] += after.hits - before.hits
            self.misses[layer] += after.misses - before.misses
        self._base = None

    @staticmethod
    def entries() -> dict:
        out = defaultdict(int)
        for layer, _, fn in _KERNELS:
            out[layer] += fn.cache_info().currsize
        return out


class Tracer:
    def __init__(self):
        self.stack: list = []  # open spans: [layer, child time]
        self.depth = defaultdict(int)
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edge_calls = defaultdict(int)
        self.edge_time = defaultdict(float)
        self.out_terms = 0
        self.out_monomials = 0
        self.paused = False
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, layer: str, count_output: bool = False):
        tracer = self
        generator = inspect.isgeneratorfunction(getattr(fn, "__wrapped__", fn))

        def span(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            tracer.depth[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if generator:  # time the iteration, not just the call
                    result = iter(list(result))
            finally:
                dt = perf_counter() - t0
                stack.pop()
                tracer.depth[layer] -= 1
                tracer.calls[layer] += 1
                tracer.self_time[layer] += dt - frame[1]
                if not tracer.depth[layer]:
                    tracer.busy[layer] += dt
                edge = (parent[0] if parent else "-", layer)
                tracer.edge_calls[edge] += 1
                tracer.edge_time[edge] += dt
                if parent is not None:
                    parent[1] += dt
            if isinstance(result, types.FunctionType):
                # b_rep returns the operator as a closure
                return tracer.wrap(result, layer, count_output)
            if count_output and isinstance(result, fock.FockVector):
                tracer._count(result, parent)
            return result

        span.__wrapped__ = fn
        return span

    def _count(self, vec, parent) -> None:
        # read through the public API with recording suspended; the time
        # spent is charged to nobody
        t0 = perf_counter()
        self.paused = True
        try:
            self.out_terms += len(vec.support())
            self.out_monomials += sum(len(c.monomials()) for _, c in vec.terms())
        finally:
            self.paused = False
        if parent is not None:
            parent[1] += perf_counter() - t0

    # -- installation --------------------------------------------------------

    def _replace(self, namespace, name, new) -> None:
        # namespace is a module dict or a class
        if isinstance(namespace, dict):
            self._patches.append((namespace, name, namespace[name]))
            namespace[name] = new
        else:
            self._patches.append((namespace, name, vars(namespace)[name]))
            setattr(namespace, name, new)

    def install(self) -> None:
        wrapped = {}
        for layer, mod in LAYER_MODULES.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not callable(obj) or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapped[id(obj)] = (obj, self.wrap(obj, layer, count_output=layer == "fock"))
        for mod in _all_modules():
            ns = vars(mod)
            for name, obj in list(ns.items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._replace(ns, name, hit[1])
        for layer, cls in CLASS_LAYERS.items():
            for name, obj in list(vars(cls).items()):
                if not (name in ARITHMETIC or not name.startswith("_")):
                    continue
                if isinstance(obj, (classmethod, staticmethod)):
                    new = type(obj)(self.wrap(obj.__func__, layer))
                elif callable(obj):
                    new = self.wrap(obj, layer)
                else:
                    continue
                self._replace(cls, name, new)

    def remove(self) -> None:
        for namespace, name, old in reversed(self._patches):
            if isinstance(namespace, dict):
                namespace[name] = old
            else:
                setattr(namespace, name, old)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = (self.busy[layer], "s")
            out[f"{layer}.self_s"] = (self.self_time[layer], "s")
            out[f"{layer}.calls"] = (self.calls[layer], "count")
        out["fock.out_terms"] = (self.out_terms, "count")
        out["fock.out_monomials"] = (self.out_monomials, "count")
        return out

    def edges(self) -> list:
        return [
            {"parent": p, "layer": l, "calls": self.edge_calls[(p, l)], "time_s": self.edge_time[(p, l)]}
            for (p, l) in sorted(self.edge_calls)
        ]


def cache_metrics(counter: CacheCounter) -> dict:
    entries = counter.entries()
    out = {}
    for layer in CACHED_LAYERS:
        hits, misses = counter.hits[layer], counter.misses[layer]
        out[f"{layer}.cache_hits"] = (hits, "count")
        out[f"{layer}.cache_misses"] = (misses, "count")
        out[f"{layer}.cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
        out[f"{layer}.cache_entries"] = (entries[layer], "count")
    return out
