"""Outside-in layer tracing for the benchmark.

The tracer replaces public functions of the program's layers with timing
wrappers, patched where their caller looks them up (the executor imports
``build_layout`` and the batch operators by name, the session imports
``build_plan`` and ``execute_plan`` by name, methods are patched on their
classes).  No program file changes: :meth:`LayerTracer.install` patches,
:meth:`LayerTracer.uninstall` restores the originals.

Every wrapped call records one span ``(id, name, start, end, parent, query)``
in memory.  Calls that return a generator are timed per ``next()`` instead,
each step a span of its own, so a lazily consumed raw scan is charged to the
layer that produces the batch and not to whoever happens to iterate it.
Parents come from a per-thread span stack, so spans of concurrently served
queries never nest into each other.  A layer's self time is the duration of
its spans minus the part covered by their child spans; the self times of all
layers plus the session's own self time add up to the session time.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: span names, one per layer, in report order
LAYERS = (
    "formats.scan",
    "formats.point_read",
    "layouts.build",
    "layouts.scan",
    "operators.join",
    "operators.aggregate",
    "operators.filter",
    "optimizer.plan",
    "cache.lookup",
    "cache.admit",
    "cache.reuse",
    "eviction.choose",
    "executor",
    "session.execute",
)

SESSION = "session.execute"


class LayerTracer:
    """Span recorder plus the patch table of the layers it times."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self.records_scanned = 0
        self.built_bytes = 0
        self._ids = itertools.count(1)
        self._query_ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._count_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name: str, fn, args, kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, getattr(self._local, "query", 0))
            )

    def _steps(self, name: str, iterator, on_item):
        """Re-yield ``iterator``, timing each ``next()`` as one span."""
        try:
            while True:
                try:
                    item = self._timed(name, next, (iterator,), {})
                except StopIteration:
                    return
                if on_item is not None:
                    on_item(item)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _call_wrapper(self, name: str, fn, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            result = tracer._timed(name, fn, args, kwargs)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _iter_wrapper(self, name: str, fn, on_item=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            iterator = iter(tracer._timed(name, fn, args, kwargs))
            return tracer._steps(name, iterator, on_item)

        traced.__wrapped__ = fn
        return traced

    def _session_wrapper(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            local = tracer._local
            outer = getattr(local, "query", 0)
            local.query = next(tracer._query_ids)
            try:
                return tracer._timed(SESSION, fn, args, kwargs)
            finally:
                local.query = outer

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------
    # Counters fed by the wrappers
    # ------------------------------------------------------------------
    def _count_scanned(self, item) -> None:
        # Raw scans yield RecordBatch chunks; point reads yield one group of
        # rows per record.
        with self._count_lock:
            self.records_scanned += getattr(item, "record_count", 1)

    def _count_built(self, layout) -> None:
        with self._count_lock:
            self.built_bytes += layout.nbytes

    def _count_converted(self, result) -> None:
        self._count_built(result[0])

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every traced entry point (idempotent per tracer)."""
        if self._patches:
            return
        from repro.core import cache_manager
        from repro.core.eviction import EvictionPolicy
        from repro.engine import executor, session
        from repro.formats.datafile import DataSource
        from repro.layouts.columnar import ColumnarLayout
        from repro.layouts.parquet import ParquetLayout
        from repro.layouts.row import RowLayout

        call, steps = self._call_wrapper, self._iter_wrapper

        self._patch(session.QueryEngine, "execute", self._session_wrapper(session.QueryEngine.execute))
        self._patch(session, "build_plan", call("optimizer.plan", session.build_plan))
        self._patch(session, "execute_plan", call("executor", session.execute_plan))

        self._patch(DataSource, "scan_batches", steps("formats.scan", DataSource.scan_batches, self._count_scanned))
        self._patch(DataSource, "read_record_rows", steps("formats.point_read", DataSource.read_record_rows, self._count_scanned))

        self._patch(executor, "build_layout", call("layouts.build", executor.build_layout, self._count_built))
        self._patch(cache_manager, "convert_layout", call("layouts.build", cache_manager.convert_layout, self._count_converted))
        for cls in (ColumnarLayout, ParquetLayout, RowLayout):
            for name in ("scan_batches", "scan_range_filtered"):
                if name in cls.__dict__:
                    self._patch(cls, name, steps("layouts.scan", cls.__dict__[name]))
            if "range_filtered_batch" in cls.__dict__:
                self._patch(cls, "range_filtered_batch", call("layouts.scan", cls.range_filtered_batch))

        for name, layer in (
            ("hash_join_batches", "operators.join"),
            ("aggregate_batches", "operators.aggregate"),
            ("filter_batches", "operators.filter"),
        ):
            self._patch(executor, name, call(layer, getattr(executor, name)))

        recache = cache_manager.ReCache
        self._patch(recache, "lookup", call("cache.lookup", recache.lookup))
        for name in ("admit_eager", "admit_lazy", "upgrade_lazy", "note_skipped_admission"):
            self._patch(recache, name, call("cache.admit", getattr(recache, name)))
        self._patch(recache, "record_reuse", call("cache.reuse", recache.record_reuse))

        policies = [EvictionPolicy]
        for cls in policies:
            policies.extend(sub for sub in cls.__subclasses__() if sub not in policies)
            if "choose_victims" in cls.__dict__:
                self._patch(cls, "choose_victims", call("eviction.choose", cls.__dict__["choose_victims"]))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        self.enabled = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Self time per layer over spans under a session span."""
        covered: dict[int, float] = defaultdict(float)
        for span_id, _, start, end, parent, _ in self.spans:
            covered[parent] += end - start
        totals = dict.fromkeys(LAYERS, 0.0)
        for span_id, name, start, end, _, query in self.spans:
            if query:
                totals[name] += (end - start) - covered.get(span_id, 0.0)
        return totals

    def session_total(self) -> float:
        return sum(end - start for _, name, start, end, _, _ in self.spans if name == SESSION)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines (written once, when the run ends)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "query")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))))
                out.write("\n")
