"""In-memory span tracing installed from the benchmark's own files.

A :class:`Tracer` wraps a layer's public functions so each call records
a span.  Spans nest per thread; a span's *self time* is its duration
minus the part its child spans cover.  Nothing is written while the
program runs: totals, call counts and (optionally) per-call self times
stay in memory and are read out, or dumped to JSON, at the end.

Coroutine functions are timed by their *active* steps only (the time
between being resumed and suspending again), so an ``await`` on the
network counts as the event loop's time, not the layer's.

:data:`CAMPAIGN_LAYERS` and :data:`SERVE_LAYERS` name what gets wrapped
for each workload family; :func:`install` applies such a table.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
import types
from collections import defaultdict

perf_counter = time.perf_counter


class Tracer:
    """Span recorder: self time, calls and counters per span name."""

    def __init__(self, keep_samples: bool = False) -> None:
        self.keep_samples = keep_samples
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counters: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(frame[0] == name for frame in self._stack())

    def record(self, name: str, self_time: float) -> None:
        """Account one finished span."""
        with self._lock:
            self.self_s[name] += self_time
            self.calls[name] += 1
            if self.keep_samples:
                self.samples[name].append(self_time)

    def count(self, name: str, amount: int = 1) -> None:
        """Add to an exact counter."""
        with self._lock:
            self.counters[name] += amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(tracer, args, result)`` may
        add counters once the call returned."""
        if inspect.iscoroutinefunction(fn):
            return self._wrap_async(name, fn)
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer._stack()
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                tracer.record(name, duration - frame[1])
            if after is not None:
                after(tracer, args, result)
            return result

        return span

    def _wrap_async(self, name: str, fn):
        tracer = self

        @types.coroutine
        def drive(coro):
            active = 0.0
            value, error = None, None
            try:
                while True:
                    start = perf_counter()
                    try:
                        if error is not None:
                            yielded = coro.throw(error)
                        else:
                            yielded = coro.send(value)
                    except StopIteration as stop:
                        active += perf_counter() - start
                        return stop.value
                    active += perf_counter() - start
                    try:
                        value, error = (yield yielded), None
                    except BaseException as exc:  # delivered into coro
                        value, error = None, exc
            finally:
                coro.close()
                tracer.record(name, active)

        @functools.wraps(fn)
        async def span(*args, **kwargs):
            return await drive(fn(*args, **kwargs))

        return span

    def snapshot(self) -> dict:
        """Plain-data copy of everything recorded."""
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "samples": {k: list(v) for k, v in self.samples.items()},
                "counters": dict(self.counters),
            }


def _replace_references(old, new) -> int:
    """Point every loaded ``repro`` module-level name (and module-level
    registry dict value) bound to ``old`` at ``new``; returns how many."""
    replaced = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is old:
                namespace[attr] = new
                replaced += 1
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if item is old:
                        value[key] = new
                        replaced += 1
    return replaced


def install(tracer: Tracer, layers) -> None:
    """Wrap every ``(module, attribute path, span name, after)`` entry.

    ``attribute path`` is ``"func"`` for a module-level function (every
    module that imported it by name is re-pointed too) or
    ``"Class.method"`` for a method.  Raises ``LookupError`` when a
    layer's entry point is missing, so a renamed API fails loudly.
    """
    for module_name, path, span_name, after in layers:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = vars(owner).get(attr)
        if original is None:
            raise LookupError(f"{module_name}.{path} not found")
        wrapped = tracer.wrap(span_name, original, after)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
        elif not _replace_references(original, wrapped):
            raise LookupError(f"{module_name}.{path} has no references")


def install_backend_kernels(tracer: Tracer) -> str:
    """Wrap the resolved backend's compiled kernels; returns its name.

    Backends without kernels (numpy) leave ``core.backend.kernel`` at
    zero calls.
    """
    from repro.core.backend import get_backend

    backend = get_backend()
    for attr in ("run_levels", "solve_rows", "sim_run"):
        kernel = getattr(backend, attr, None)
        if kernel is not None:
            setattr(backend, attr, tracer.wrap("core.backend.kernel", kernel))
    return backend.name


def _count_scenarios(tracer: Tracer, args, result) -> None:
    tracer.count("core.batch.analyze_batch.scenarios", len(result))


def _count_analyze(tracer: Tracer, args, result) -> None:
    if tracer.inside("core.batch.analyze_batch"):
        tracer.count("core.engine.analyze.in_batch")


def _count_cycles(tracer: Tracer, args, result) -> None:
    tracer.count("sim.cycles", int(result.end_time))


#: Layers of the campaign workloads (``fig4``, ``validate``).
CAMPAIGN_LAYERS = (
    ("repro.workloads.synthetic", "synthetic_flows",
     "workloads.synthetic_flows", None),
    ("repro.flows.priority", "rate_monotonic", "flows.rate_monotonic", None),
    ("repro.core.interference", "InterferenceGraph.__init__",
     "core.interference.graph_build", None),
    ("repro.core.interference", "InterferenceGraph.geometry_matrices",
     "core.interference.geometry_matrices", None),
    ("repro.core.batch", "analyze_batch", "core.batch.analyze_batch",
     _count_scenarios),
    ("repro.core.engine", "analyze", "core.engine.analyze", _count_analyze),
    ("repro.campaigns.store", "ResultStore.put", "campaigns.store.put", None),
    ("repro.campaigns.scheduler", "Scheduler.run", "campaigns.scheduler",
     None),
    ("repro.campaigns.export", "CsvExporter.export", "campaigns.export",
     None),
    ("repro.campaigns.export", "JsonExporter.export", "campaigns.export",
     None),
    ("repro.sim.simulator", "WormholeSimulator.run", "sim.simulator.run",
     _count_cycles),
    ("repro.sim.worstcase", "simulate_offsets", "sim.worstcase", None),
    ("repro.sim.worstcase", "enumerate_phasings", "sim.worstcase", None),
)

#: Layers of the ``serve-zipf`` workload, wrapped inside the server.
SERVE_LAYERS = (
    ("repro.serve.http", "read_request", "serve.http.read_request", None),
    ("repro.serve.http", "render_response", "serve.http.render_response",
     None),
    ("repro.serve.jobs", "analyze_params", "serve.jobs.analyze_params", None),
    ("repro.campaigns.spec", "job_hash", "serve.service.job_hash", None),
    ("repro.serve.jobs", "run_analyze", "serve.jobs.run_analyze", None),
    ("repro.serve.cache", "ServeCache.get", "serve.cache.get", None),
    ("repro.serve.cache", "JsonlQueryStore.get", "serve.cache.store_get",
     None),
    ("repro.serve.cache", "JsonlQueryStore.put", "serve.cache.store_put",
     None),
)

#: Modules whose import completes the name bindings the tables patch.
PRELOAD = (
    "repro.experiments",
    "repro.campaigns.engine",
    "repro.sim.worstcase",
    "repro.experiments.sim_jobs",
    "repro.serve.server",
    "repro.serve.service",
    "repro.serve.jobs",
)


def preload() -> None:
    """Import everything a layer table patches, before patching."""
    for module_name in PRELOAD:
        importlib.import_module(module_name)
