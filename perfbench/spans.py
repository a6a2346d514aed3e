"""Outside-in tracing for the ledger's traced run.

The traced run wraps public functions and methods of the ``repro`` layers
from the benchmark's side; nothing inside ``src/`` records spans.  Every
wrapped call pushes a frame on a per-thread stack, so each span knows its
parent and its self time (its duration minus what its children cover, see
:func:`summary.self_time`).  Counts are taken on every call.  Calls made
once per objective evaluation ("hot" boundaries) are timed on every call
too, because their parents' self times depend on it, but only one in
``sample_every`` of them is kept as a span record.  Records stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time

from summary import ratio, self_time


class Tracer:
    """Per-thread span stacks, aggregated per span name."""

    def __init__(self, sample_every: int = 64):
        self.sample_every = sample_every
        self.spans: list[tuple] = []  # (id, name, start, end, parent, self_s)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[dict, dict]] = []
        self._ids = itertools.count(1)
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], {}, {})  # open frames, {name: [calls, s, self_s]}, counters
            with self._lock:
                self._threads.append(state[1:])
            self._local.state = state
        return state

    def count(self, name: str, n: int = 1) -> None:
        counters = self._state()[2]
        counters[name] = counters.get(name, 0) + n

    def current(self):
        """Name of the innermost open span on this thread, or ``None``."""
        stack = self._state()[0]
        return stack[-1][0] if stack else None

    def wrap(self, name: str, fn, hot: bool = False):
        sample_every = self.sample_every if hot else 1
        ids = self._ids
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack, table, _counters = self._state()
            span_id = next(ids)
            frame = (name, span_id, [])
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                own = self_time(start, end, frame[2]) if frame[2] else end - start
                parent = None
                if stack:
                    parent = stack[-1][1]
                    stack[-1][2].append((start, end))
                row = table.get(name)
                if row is None:
                    row = table[name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += end - start
                row[2] += own
                if span_id % sample_every == 0:
                    spans.append((span_id, name, start, end, parent, own))

        traced.__wrapped__ = fn
        return traced

    # -- results -----------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """Merged ``({name: [calls, s, self_s]}, {counter: n})``."""
        table: dict = {}
        counters: dict = {}
        with self._lock:
            threads = list(self._threads)
        for thread_table, thread_counters in threads:
            for name, (calls, total, own) in list(thread_table.items()):
                row = table.setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total
                row[2] += own
            for name, n in list(thread_counters.items()):
                counters[name] = counters.get(name, 0) + n
        return table, counters

    def write(self, path) -> None:
        """Write the span records as JSON lines."""
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, own in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "self_s": own,
                }) + "\n")

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr]
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, value)

    def patch_method(self, cls, attr: str, name: str, hot: bool = False, around=None):
        fn = cls.__dict__[attr]
        traced = self.wrap(name, fn, hot=hot)
        self._set(cls, attr, around(traced) if around is not None else traced)

    def patch_function(self, module, attr: str, name: str) -> None:
        """Wrap a module-level function in every loaded module that bound it
        (``from m import f`` copies the reference)."""
        fn = getattr(module, attr)
        traced = self.wrap(name, fn)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is fn:
                    self._set(loaded, key, traced)

    def patch_registry(self, get, register, names, name: str) -> None:
        """Wrap every entry of an optimizer registry."""
        for key in names:
            original = get(key)
            register(key, self.wrap(name, original), replace=True)
            self._undo.append(lambda k=key, f=original: register(k, f, replace=True))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(tracer: Tracer) -> None:
    """Wrap the public boundary of every measured layer."""
    from repro.baselines.afl import AFLFuzzer
    from repro.baselines.austin import AustinTester
    from repro.baselines.random_testing import RandomTester
    from repro.core.representing import RepresentingFunction
    from repro.coverage.branch import BranchCoverage
    from repro.engine import worker as engine_worker
    from repro.engine.core import SearchEngine
    from repro.instrument import program as program_module
    from repro.instrument.native import cache as native_cache
    from repro.instrument.native import kernel as native_kernel
    from repro.optimize import registry
    from repro.optimize.memo import BitPatternMemo
    from repro.service import jobs as service_jobs
    from repro.service.client import ServiceClient
    from repro.store import RunStore

    tracer.patch_function(program_module, "instrument", "instrument")

    def count_rows(counter):
        def around(traced):
            def rows(self, X, *args, **kwargs):
                tracer.count(counter, len(X))
                return traced(self, X, *args, **kwargs)
            return rows
        return around

    RF = RepresentingFunction
    tracer.patch_method(RF, "__call__", "representing.call", hot=True)
    tracer.patch_method(RF, "evaluate_batch", "representing.batch",
                        around=count_rows("representing.batch_rows"))
    tracer.patch_method(RF, "evaluate_with_coverage", "representing.harvest")

    P = program_module.InstrumentedProgram
    tracer.patch_method(P, "specialize", "specialize.build")
    tracer.patch_method(P, "run", "runtime.record", hot=True)

    def fallback_probe(traced):
        def run(self, args):
            if tracer.current() in ("native.scalar", "native.batch"):
                tracer.count("native.fallback_rows")
            return traced(self, args)
        return run

    tracer.patch_method(program_module.SpecializedVariant, "run", "specialize.variant_run",
                        hot=True, around=fallback_probe)

    tracer.patch_function(native_kernel, "build_native_kernel", "native.kernel_load")
    tracer.patch_function(native_cache, "compile_kernel", "native.cc")
    tracer.patch_function(native_cache, "compile_kernel_background", "native.cc")
    NK = native_kernel.NativeKernel
    tracer.patch_method(NK, "scalar", "native.scalar", hot=True)
    tracer.patch_method(NK, "__call__", "native.batch", around=count_rows("native.batch_rows"))

    def memo_hits(traced):
        def call(self, x):
            before = self.hits
            value = traced(self, x)
            if self.hits != before:
                tracer.count("memo.hits")
            return value
        return call

    tracer.patch_method(BitPatternMemo, "__call__", "memo.call", hot=True, around=memo_hits)

    tracer.patch_registry(registry.get_backend, registry.register_backend,
                          registry.available_backends(), "optimize.hop")
    tracer.patch_registry(registry.get_local_minimizer, registry.register_local_minimizer,
                          registry.available_local_minimizers(), "optimize.local")

    tracer.patch_method(SearchEngine, "run", "engine.run")
    tracer.patch_function(engine_worker, "run_start", "engine.start")
    tracer.patch_function(engine_worker, "prime_chunk", "engine.prime")

    tracer.patch_method(RandomTester, "generate", "baselines.rand")
    tracer.patch_method(AFLFuzzer, "generate", "baselines.afl")
    tracer.patch_method(AustinTester, "generate", "baselines.austin")
    tracer.patch_method(BranchCoverage, "run_all", "coverage.replay")

    tracer.patch_function(service_jobs, "execute_job", "service.execute")
    for attr in ("submit", "job", "stats"):
        tracer.patch_method(ServiceClient, attr, "http.request")

    def store_hits(traced):
        def get_satisfying(self, key):
            payload = traced(self, key)
            if payload is not None:
                tracer.count("store.get_hits")
            return payload
        return get_satisfying

    tracer.patch_method(RunStore, "put", "store.put")
    tracer.patch_method(RunStore, "get_satisfying", "store.get", around=store_hits)


#: Per-layer metrics of the traced run: name -> unit.  Every traced run
#: reports all of them; a layer a workload does not reach reads 0.
LAYER_METRICS = {
    "instrument.calls": "count", "instrument.s": "s",
    "representing.calls": "count", "representing.s": "s",
    "representing.batch_rows": "count", "representing.batch_s": "s",
    "representing.harvest_calls": "count", "representing.harvest_s": "s",
    "specialize.builds": "count", "specialize.s": "s", "specialize.variant_runs": "count",
    "native.kernel_loads": "count", "native.kernel_load_s": "s",
    "native.kernel_load_self_s": "s",
    "native.cc_builds": "count", "native.cc_s": "s",
    "native.scalar_calls": "count", "native.scalar_s": "s",
    "native.batch_rows": "count", "native.batch_s": "s",
    "native.fallback_rows": "count", "native.fallback_ratio": "ratio",
    "native.disk_entries": "count",
    "optimize.hop_calls": "count", "optimize.hop_s": "s",
    "optimize.local_calls": "count", "optimize.local_s": "s", "optimize.self_s": "s",
    "memo.calls": "count", "memo.hits": "count", "memo.hit_ratio": "ratio",
    "engine.runs": "count", "engine.s": "s", "engine.starts": "count",
    "engine.start_s": "s", "engine.prime_s": "s", "engine.self_s": "s",
    "baselines.rand_s": "s", "baselines.afl_s": "s", "baselines.austin_s": "s",
    "coverage.replay_calls": "count", "coverage.replay_s": "s",
    "runtime.record_calls": "count", "runtime.record_s": "s",
    "service.submitted": "count", "service.executed": "count",
    "service.cache_hits": "count", "service.coalesced": "count",
    "service.failed": "count", "service.rejected": "count",
    "service.queue_wait_s": "s", "service.execute_s": "s",
    "http.requests": "count", "http.s": "s",
    "store.put_calls": "count", "store.put_s": "s",
    "store.get_calls": "count", "store.get_s": "s", "store.hit_ratio": "ratio",
    "trace.overhead_s": "s", "trace.spans": "count",
}


def layer_metrics(table: dict, counters: dict) -> dict:
    """Map span totals and counters onto :data:`LAYER_METRICS` names
    (service counters, queue wait, disk entries and the tracing overhead
    are filled in by the caller)."""

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return table.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return table.get(name, (0, 0.0, 0.0))[2]

    native_rows = calls("native.scalar") + counters.get("native.batch_rows", 0)
    return {
        "instrument.calls": calls("instrument"),
        "instrument.s": total("instrument"),
        "representing.calls": calls("representing.call"),
        "representing.s": total("representing.call"),
        "representing.batch_rows": counters.get("representing.batch_rows", 0),
        "representing.batch_s": total("representing.batch"),
        "representing.harvest_calls": calls("representing.harvest"),
        "representing.harvest_s": total("representing.harvest"),
        "specialize.builds": calls("specialize.build"),
        "specialize.s": total("specialize.build"),
        "specialize.variant_runs": calls("specialize.variant_run"),
        "native.kernel_loads": calls("native.kernel_load"),
        "native.kernel_load_s": total("native.kernel_load"),
        "native.kernel_load_self_s": own("native.kernel_load"),
        "native.cc_builds": calls("native.cc"),
        "native.cc_s": total("native.cc"),
        "native.scalar_calls": calls("native.scalar"),
        "native.scalar_s": total("native.scalar"),
        "native.batch_rows": counters.get("native.batch_rows", 0),
        "native.batch_s": total("native.batch"),
        "native.fallback_rows": counters.get("native.fallback_rows", 0),
        "native.fallback_ratio": ratio(counters.get("native.fallback_rows", 0), native_rows),
        "optimize.hop_calls": calls("optimize.hop"),
        "optimize.hop_s": total("optimize.hop"),
        "optimize.local_calls": calls("optimize.local"),
        "optimize.local_s": total("optimize.local"),
        "optimize.self_s": own("optimize.local"),
        "memo.calls": calls("memo.call"),
        "memo.hits": counters.get("memo.hits", 0),
        "memo.hit_ratio": ratio(counters.get("memo.hits", 0), calls("memo.call")),
        "engine.runs": calls("engine.run"),
        "engine.s": total("engine.run"),
        "engine.starts": calls("engine.start"),
        "engine.start_s": total("engine.start"),
        "engine.prime_s": total("engine.prime"),
        "engine.self_s": own("engine.run"),
        "baselines.rand_s": total("baselines.rand"),
        "baselines.afl_s": total("baselines.afl"),
        "baselines.austin_s": total("baselines.austin"),
        "coverage.replay_calls": calls("coverage.replay"),
        "coverage.replay_s": total("coverage.replay"),
        "runtime.record_calls": calls("runtime.record"),
        "runtime.record_s": total("runtime.record"),
        "service.execute_s": total("service.execute"),
        "http.requests": calls("http.request"),
        "http.s": total("http.request"),
        "store.put_calls": calls("store.put"),
        "store.put_s": total("store.put"),
        "store.get_calls": calls("store.get"),
        "store.get_s": total("store.get"),
        "store.hit_ratio": ratio(counters.get("store.get_hits", 0), calls("store.get")),
    }
