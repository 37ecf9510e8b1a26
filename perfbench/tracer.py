"""Per-layer tracing from outside the program.

``Tracer.install`` wraps every public function of every ``nigdiff``
module, and ``ParticleSystem.__init__``, and rebinds each wrapper under
every name a ``nigdiff`` module binds the original to, so calls between
modules (``particle`` calling ``urn.predictive_weights``) are seen. Each
wrapper aggregates calls, total time and self time (total minus the time
of wrapped calls made inside it), counts ``PrecisionLossError`` raised
through it and, for a few functions, a size taken from the arguments.
Hit and miss counts come from ``cache_info()`` of the ``lru_cache``
functions. One span per item records the function totals of that item.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import nigdiff

MODULES = ("specfun", "gibbs", "urn", "diffusion", "particle", "cli")

# function -> how to read its size (elements, steps, events) from its
# bound arguments
SIZES = {
    "gibbs.w_factor_batch": lambda a: len(a["n_arr"]),
    "urn.sample_k_batch": lambda a: a["n"] - 1,
    "particle.conditioned_phi2_average": lambda a: a["steps"],
    "diffusion.simulate_chain_ensemble":
        lambda a: a["steps"] * a["replicates"],
}

# the fallback that predictive_weights takes when the exact route refuses
FALLBACK = ("gibbs.weights_gg_exact", "urn.predictive_weights")


class _Stat:
    __slots__ = ("calls", "total", "self_time", "size", "refused",
                 "fallbacks")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.size = 0
        self.refused = 0
        self.fallbacks = 0

    def row(self) -> list:
        return [self.calls, self.total, self.self_time, self.size,
                self.refused, self.fallbacks]


class Tracer:
    def __init__(self):
        self.stats = {}
        self.caches = {}
        self._stack = []   # [name, time spent in wrapped callees]
        self._cache_start = {}
        self.spans = []
        self._item_start = None

    def install(self) -> None:
        modules = [sys.modules[f"nigdiff.{m}"] for m in MODULES]
        wrappers = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or not callable(value)
                        or isinstance(value, type)
                        or getattr(value, "__module__", None)
                        != mod.__name__):
                    continue
                name = f"{mod.__name__.split('.')[-1]}.{attr}"
                wrappers[id(value)] = self._wrap(name, value)
                if hasattr(value, "cache_info"):
                    self.caches[name] = value
        for mod in modules + [nigdiff]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
        cls = nigdiff.particle.ParticleSystem
        cls.__init__ = self._wrap("particle.ParticleSystem", cls.__init__)
        self._cache_start = {n: f.cache_info() for n, f in
                             self.caches.items()}

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        clock = time.perf_counter
        size_of = SIZES.get(name)
        signature = inspect.signature(fn) if size_of else None
        fallback_parent = FALLBACK[1] if name == FALLBACK[0] else None
        refusal = nigdiff.PrecisionLossError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except refusal:
                stat.refused += 1
                if (fallback_parent is not None and len(stack) > 1
                        and stack[-2][0] == fallback_parent):
                    stat.fallbacks += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if size_of is not None:
                    stat.size += size_of(
                        signature.bind(*args, **kwargs).arguments)

        return wrapper

    def begin_item(self) -> None:
        self._item_start = {n: s.row() for n, s in self.stats.items()}

    def end_item(self, index: int, label: str, start: float,
                 end: float) -> None:
        children = {}
        for name, stat in self.stats.items():
            before = self._item_start[name]
            calls = stat.calls - before[0]
            if calls:
                children[name] = {"calls": calls,
                                  "total_s": stat.total - before[1],
                                  "self_s": stat.self_time - before[2]}
        self.spans.append({"span": index, "name": label, "start": start,
                           "end": end, "children": children})

    def summary(self) -> dict:
        caches = {}
        for name, fn in self.caches.items():
            info, start = fn.cache_info(), self._cache_start[name]
            caches[name] = [info.hits - start.hits,
                            info.misses - start.misses]
        return {"functions": {n: s.row() for n, s in self.stats.items()},
                "caches": caches, "spans": self.spans}
