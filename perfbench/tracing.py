"""Per-layer tracing done from the benchmark's side of the API.

:class:`LayerTrace` wraps the public entry points of each layer of the
program (module functions and class methods) with timing wrappers for the
duration of a traced run, then restores the originals.  Nothing inside the
program changes: the wrappers sit around the calls *into* each layer, and a
layer's **self** time is its wrapped calls' wall time minus the time spent in
wrapped calls nested inside them on the same thread.

Coroutine methods (the aio front-end and client) interleave on the event-loop
thread, so their wrappers record inclusive wall time only and never join the
per-thread nesting stack.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class LayerTrace:
    """Self and inclusive seconds per layer, plus free-form counters."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] += amount

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _finish(self, layer: str, elapsed: float, child: float) -> None:
        with self._lock:
            self.self_s[layer] += elapsed - child
            self.total_s[layer] += elapsed

    def _timed(self, layer: str, fn: Callable,
               observe: Optional[Callable] = None) -> Callable:
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    self._finish(layer, time.perf_counter() - start, 0.0)
                if observe is not None:
                    observe(self, args, kwargs, result)
                return result
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self._finish(layer, elapsed, child)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return wrapper

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls: type, attr: str, layer: str,
                    observe: Optional[Callable] = None) -> None:
        """Wrap ``cls.attr`` (defined on ``cls`` itself) for ``layer``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._set(cls, attr,
                      staticmethod(self._timed(layer, raw.__func__, observe)))
        else:
            self._set(cls, attr, self._timed(layer, raw, observe))

    def wrap_function(self, module: object, attr: str, layer: str,
                      observe: Optional[Callable] = None) -> None:
        """Wrap a module function everywhere it was imported by name.

        ``from m import f`` binds ``f`` in the importing module, so the
        wrapper replaces every ``repro.*`` module attribute that is the
        original function object.
        """
        original = getattr(module, attr)
        wrapper = self._timed(layer, original, observe)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------ #
    # Installation: the program's layers
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every layer the benchmark profiles (see METRICS.md)."""
        # By module path: some packages re-export a function under its
        # module's name (``repro.circles.exact_maxcrs``).
        (aio_client, aio_engine, protocol, coverage, exact_maxcrs, dispatch,
         merge_sweep, transform, numpy_backend, pure, external_sort, cache,
         engine, grid_index, sharding, store) = (
            importlib.import_module(f"repro.{name}") for name in (
                "aio.client", "aio.engine", "aio.protocol", "circles.coverage",
                "circles.exact_maxcrs", "core.dispatch", "core.merge_sweep",
                "core.transform", "core.backends.numpy_backend",
                "core.backends.pure", "em.external_sort", "service.cache",
                "service.engine", "service.grid_index", "service.sharding",
                "service.store"))

        def count_events(trace, args, kwargs, result):
            trace.add("core.backends.events", len(args[1]))

        def count_points(trace, args, kwargs, result):
            trace.add("circles.exact_maxcrs_points", len(args[0]))

        def count_cache(trace, args, kwargs, result):
            trace.add("service.cache.gets", 1)
            trace.add("service.cache.hits", 1 if result[0] else 0)

        def count_invalidated(trace, args, kwargs, result):
            trace.add("service.cache.invalidated", int(result))

        self.wrap_method(store.PointStore, "register", "service.store.register")
        self.wrap_method(store.PointStore, "register_columns",
                         "service.store.register")
        self.wrap_method(store.RegisteredDataset, "subset",
                         "service.store.subset")
        for cls in (grid_index.GridIndex, sharding.ShardedGridIndex):
            self.wrap_method(cls, "__init__", "service.grid_index.build")
            self.wrap_method(cls, "points_in_mask",
                             "service.grid_index.gather")
        ops = grid_index.GridQueryOps
        for attr in ("upper_bounds", "best_cell", "candidate_mask"):
            self.wrap_method(ops, attr, "service.grid_index.bounds")
        for attr in ("points_in_window", "dilate"):
            self.wrap_method(ops, attr, "service.grid_index.gather")
        for attr in ("level_bounds", "refine_level_mask"):
            self.wrap_method(ops, attr, "service.grid_index.descend")
        self.wrap_method(cache.LRUCache, "get", "service.cache.get",
                         count_cache)
        self.wrap_method(cache.LRUCache, "invalidate_matching",
                         "service.cache.invalidate", count_invalidated)
        self.wrap_method(engine.MaxRSEngine, "query", "service.engine.query")
        self.wrap_function(transform, "objects_to_event_records",
                           "core.transform.events")
        self.wrap_method(pure.PurePythonBackend, "sweep",
                         "core.backends.pure.sweep", count_events)
        self.wrap_method(numpy_backend.NumpySweepBackend, "sweep",
                         "core.backends.numpy.sweep", count_events)
        self.wrap_function(dispatch, "solve_point_set_top_k",
                           "core.dispatch.topk")
        self.wrap_function(exact_maxcrs, "exact_maxcrs",
                           "circles.exact_maxcrs", count_points)
        self.wrap_function(external_sort, "external_sort",
                           "em.external_sort")
        self.wrap_function(merge_sweep, "merge_sweep", "core.merge_sweep.merge")
        self.wrap_function(coverage, "coverage_of_candidates_file",
                           "circles.coverage")
        for attr in ("encode_line", "decode_line", "spec_to_wire",
                     "spec_from_wire", "points_to_wire", "points_from_wire",
                     "result_to_wire", "result_from_wire"):
            self.wrap_function(protocol, attr, "aio.protocol.codec")
        self.wrap_method(aio_engine.AsyncMaxRSEngine, "query", "aio.engine.query")
        self.wrap_method(aio_client.AsyncQueryClient, "query", "aio.client.query")
