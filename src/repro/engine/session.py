"""The high-level query engine session tying everything together.

:class:`QueryEngine` is the public entry point of the library: register raw CSV
and JSON files, then call :meth:`QueryEngine.execute` with declarative
:class:`~repro.engine.query.Query` objects.  Each execution goes through the
cache-aware optimizer and the instrumented executor, and returns a
:class:`~repro.engine.executor.QueryReport` carrying the results and the timing
breakdown the benchmarks consume.
"""

from __future__ import annotations

# recheck-lint: check-no-swallow — except blocks in this module must re-raise,
# wrap in a typed error, or route through an audited containment sink.

import random
import threading
import time
from pathlib import Path
from typing import Callable, Sequence

from repro.core.cache_manager import ReCache
from repro.core.circuit_breaker import SourceCircuitBreaker
from repro.core.config import ReCacheConfig, validate_result_format
from repro.core.errors import DeadlineExceeded, TransientScanError
from repro.core.sharded_cache import ShardedReCache
from repro.faults import runtime as faults
from repro.engine.executor import (
    ExecutionContext,
    QueryReport,
    execute_plan,
    execute_plan_columnar,
)
from repro.engine.optimizer import PlanInfo, build_plan
from repro.engine.query import Query
from repro.engine.types import RecordType
from repro.formats.datafile import DataSource, DataSourceCatalog


class QueryEngine:
    """Cache-accelerated query engine over raw heterogeneous data files.

    ``execute`` may be called from many threads at once (that is what
    :class:`~repro.engine.server.EngineServer` does): each execution gets its
    own :class:`~repro.engine.executor.ExecutionContext` and report, and the
    shared cache manager synchronizes internally.  Register all data sources
    before the first concurrent query — registration is not synchronized.
    """

    def __init__(
        self,
        config: ReCacheConfig | None = None,
        recache: ReCache | ShardedReCache | None = None,
    ) -> None:
        self.config = config or ReCacheConfig()
        if recache is None:
            if self.config.shard_count > 1:
                recache = ShardedReCache(self.config)
            else:
                recache = ReCache(self.config)
        self.recache = recache
        self.catalog = DataSourceCatalog()
        #: routes repeatedly faulting sources around the cache (see execute)
        self.breaker = SourceCircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            cooldown=self.config.breaker_cooldown,
        )
        if self.config.faults:
            # Config-driven fault plans are process-global by design: the
            # injection points live in the shared format plugins and layouts.
            faults.install_spec(self.config.faults, seed=self.config.seed)
        self.query_count = 0
        self._count_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Data source registration
    # ------------------------------------------------------------------
    def register_csv(
        self, name: str, path: str | Path, schema: RecordType, delimiter: str = "|"
    ) -> DataSource:
        """Register a CSV file as a queryable data source."""
        return self.catalog.register_csv(name, path, schema, delimiter)

    def register_json(self, name: str, path: str | Path, schema: RecordType) -> DataSource:
        """Register a line-delimited JSON file as a queryable data source."""
        return self.catalog.register_json(name, path, schema)

    def register(self, source: DataSource) -> DataSource:
        return self.catalog.register(source)

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def plan(self, query: Query) -> PlanInfo:
        """Build (but do not execute) the cache-aware plan for a query."""
        return build_plan(query, self.catalog, self.recache)

    def execute(
        self,
        query: Query,
        *,
        vectorized: bool | None = None,
        result_format: str | None = None,
    ) -> QueryReport:
        """Execute a query and return its results plus execution report.

        ``vectorized`` overrides ``config.vectorized_execution`` for this one
        query (the parity tests and the batch-pipeline bench compare the two
        pipelines over the same engine this way).  ``result_format`` likewise
        overrides the output representation for this one query: ``"rows"``
        (the default list of row dictionaries) or ``"columnar"`` (a
        :class:`~repro.engine.types.ColumnarResult` carrying the batched
        pipeline's record batches with no per-row dict assembly at the exit).
        Resolution order: explicit argument, then ``query.result_format``,
        then ``config.result_format``.  Execution, report counters and cache
        behaviour are identical in both formats.

        Failure containment: the query's deadline (``query.deadline`` falling
        back to ``config.default_deadline``) spans all attempts; a
        :class:`~repro.core.errors.TransientScanError` is retried up to
        ``config.scan_retry_limit`` times with jittered exponential backoff
        (admission happens only at scan completion, so a failed attempt
        leaves no cache state behind); each failed attempt feeds the
        per-source circuit breaker, and queries over a tripped source are
        planned as plain raw scans until its cooldown elapses.
        """
        config = self.config
        if vectorized is not None and vectorized != config.vectorized_execution:
            config = config.with_overrides(vectorized_execution=vectorized)
        if result_format is None:
            result_format = query.result_format or config.result_format
        validate_result_format(result_format)
        deadline = query.deadline if query.deadline is not None else config.default_deadline
        deadline_at = time.perf_counter() + deadline if deadline is not None else None
        retry_limit = max(0, config.scan_retry_limit)
        attempt = 0
        while True:
            try:
                report = self._execute_attempt(query, config, result_format, deadline_at)
            except TransientScanError as exc:
                for table in query.tables:
                    self.breaker.record_failure(table.source)
                if attempt >= retry_limit:
                    raise
                if deadline_at is not None and time.perf_counter() >= deadline_at:
                    raise DeadlineExceeded(
                        f"deadline expired retrying transient scan fault "
                        f"(label={query.label!r}, attempts={attempt + 1})"
                    ) from exc
                # Jittered exponential backoff; the jitter needs no
                # determinism (fault schedules are seeded independently).
                backoff = config.scan_retry_backoff * (2**attempt)
                time.sleep(backoff * (0.5 + random.random() / 2))
                attempt += 1
                continue
            report.retries = attempt
            for table in query.tables:
                self.breaker.record_success(table.source)
            with self._count_lock:
                self.query_count += 1
            return report

    def _execute_attempt(
        self,
        query: Query,
        config: ReCacheConfig,
        result_format: str,
        deadline_at: float | None,
    ) -> QueryReport:
        """One planning + execution pass of :meth:`execute` (no retry logic)."""
        report = QueryReport(label=query.label)
        sequence = self.recache.begin_query()
        started = time.perf_counter()

        plan_info = build_plan(query, self.catalog, self.recache, breaker=self.breaker)
        ctx = ExecutionContext(
            catalog=self.catalog,
            recache=self.recache,
            config=config,
            report=report,
            sequence=sequence,
            query_started=started,
            deadline_at=deadline_at,
        )
        if result_format == "columnar":
            results = execute_plan_columnar(plan_info.plan, ctx)
        else:
            results = execute_plan(plan_info.plan, ctx)

        report.results = results
        report.rows_returned = len(results)
        report.total_time = time.perf_counter() - started
        return report

    def execute_group(
        self,
        queries: Sequence[Query],
        *,
        vectorized: bool | None = None,
        result_formats: "Sequence[str | None] | str | None" = None,
        on_report: Callable[[Query, QueryReport], None] | None = None,
        on_error: Callable[[Query, Exception], None] | None = None,
    ) -> list["QueryReport | None"]:
        """Execute a cache-affine group of queries back to back on this thread.

        The server's batched submission path routes each group here: the group
        shares one worker, so the first query of an overlapping group warms the
        cache and the rest are served from it in the same pass — one shard-lock
        acquisition and one raw scan feeding several requests instead of N
        independently queued executions.  ``on_report`` is invoked after each
        query completes (the server uses it to resolve that query's future
        immediately rather than when the whole group finishes).  A failing
        query is isolated when ``on_error`` is given: the exception goes to the
        callback, its report slot is ``None``, and the rest of the group still
        executes; without the callback the exception propagates.

        ``result_formats`` selects each query's output representation: one
        string applies to the whole group, a sequence (aligned with
        ``queries``) carries per-query overrides — the serving tier uses the
        latter so one group can mix ``"rows"`` and ``"columnar"`` requests.
        """
        if result_formats is None or isinstance(result_formats, str):
            formats: list[str | None] = [result_formats] * len(queries)
        else:
            formats = list(result_formats)
            if len(formats) != len(queries):
                raise ValueError(
                    f"result_formats length {len(formats)} != query count {len(queries)}"
                )
        reports: list[QueryReport | None] = []
        for query, result_format in zip(queries, formats):
            try:
                report = self.execute(
                    query, vectorized=vectorized, result_format=result_format
                )
            except Exception as exc:
                if on_error is None:
                    raise
                on_error(query, exc)
                reports.append(None)
                continue
            if on_report is not None:
                on_report(query, report)
            reports.append(report)
        return reports

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cache_stats(self):
        """Aggregate cache-manager counters (hits, misses, evictions, ...)."""
        return self.recache.stats

    def cache_entries(self):
        return self.recache.entries()

    def cached_bytes(self) -> int:
        return self.recache.total_bytes

    def explain(self, query: Query) -> str:
        """Return a human-readable plan for ``query`` without executing it."""
        return self.plan(query).plan.pretty()
