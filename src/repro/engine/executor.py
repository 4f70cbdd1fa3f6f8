"""Physical execution of cache-aware logical plans.

Two execution pipelines share this module:

* the **batched vectorized pipeline** (default, ``config.vectorized_execution``)
  moves :class:`~repro.engine.batch.RecordBatch` chunks from the scans up
  through select/project/join, evaluating predicates as NumPy masks and
  touching record granularity only where ReCache's semantics demand it
  (admission sampling, record-level dedup);
* the **row interpreter** walks the same plans one Python dict at a time — it
  is the parity baseline the batch-pipeline bench and the parity test suite
  compare against, and remains available via
  ``config.vectorized_execution=False``.

Both pipelines produce identical results, reports and cache behaviour.  The
most involved piece is the materializer, which reproduces ReCache's reactive
admission behaviour (Section 5.2): it caches the first records of a scan both
eagerly and lazily while measuring the time spent on caching work, extrapolates
the caching overhead to the end of the file, and downgrades to lazy
(offsets-only) caching when the projected overhead exceeds the configured
threshold.  The batched materializer samples those admission costs per batch
instead of per record.  Cache scans measure the data/compute costs that feed
the layout selector, and lazy caches are upgraded to eager ones on their first
reuse.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

import numpy as np

# recheck-lint: check-no-swallow — except blocks in this module must re-raise,
# wrap in a typed error, or route through an audited containment sink.
from repro.core.admission import AdmissionDecision, AdmissionSample
from repro.core.cache_entry import LayoutObservation
from repro.core.cache_manager import ReCache
from repro.core.config import ReCacheConfig
from repro.core.errors import DeadlineExceeded
from repro.core.sharded_cache import ShardedReCache
from repro.engine.algebra import (
    AggregateNode,
    CacheScanNode,
    JoinNode,
    MaterializeNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SelectNode,
)
from repro.engine.batch import RecordBatch, approx_record_bytes, rows_from_batches
from repro.engine.calibration import split_scan_cost
from repro.engine.compiler import (
    compile_aggregates,
    compile_batch_predicate,
    compile_predicate,
)
from repro.engine.operators import (
    aggregate_batches,
    aggregate_rows,
    filter_batches,
    hash_join,
    hash_join_batches,
    project_batches,
    project_rows,
)
from repro.engine.types import ColumnarResult, flatten_record
from repro.formats.datafile import DataSource, DataSourceCatalog
from repro.layouts import build_layout
from repro.utils.timing import SampledTimer


@dataclass
class QueryReport:
    """Per-query execution report returned by the engine."""

    #: the query output: a list of row dictionaries by default, or a
    #: :class:`~repro.engine.types.ColumnarResult` when the query ran with
    #: ``result_format="columnar"`` (same rows, columnar representation).
    results: "list[dict] | ColumnarResult" = field(default_factory=list)
    rows_returned: int = 0
    total_time: float = 0.0
    operator_time: float = 0.0
    caching_time: float = 0.0
    cache_scan_time: float = 0.0
    lookup_time: float = 0.0
    exact_hits: int = 0
    subsumption_hits: int = 0
    misses: int = 0
    layout_switches: int = 0
    lazy_upgrades: int = 0
    admissions: dict = field(default_factory=lambda: {"eager": 0, "lazy": 0})
    #: time spent between submission to the serving tier and execution start
    #: (backpressure blocking plus queue residency); 0 outside a server
    queue_wait_time: float = 0.0
    #: the server's pending-query depth observed when this query was enqueued
    queue_depth: int = 0
    #: 1 when this request was served from another identical request's
    #: execution in the same submission batch (no engine work of its own)
    coalesced: int = 0
    #: wait accumulated by coalesced duplicates between their own enqueue and
    #: the primary's resolution.  Kept out of ``queue_wait_time`` so N
    #: duplicates of one execution cannot report N full queue waits (the
    #: accounting bug that made batched-bench wait dwarf wall time).
    coalesced_wait_time: float = 0.0
    #: transparent re-executions after a transient scan fault (the report of
    #: the attempt that finally succeeded carries the count)
    retries: int = 0
    #: cache scans that fell back to a raw-source scan after their cached
    #: layout raised mid-scan (the result stays correct, just slower)
    degraded_scans: int = 0
    #: poisoned cache entries this query invalidated (evicted under the
    #: shard lock with their budget share released)
    quarantined_entries: int = 0
    #: 1 when the serving tier rejected this query under eviction pressure
    #: (set by whoever converts the typed QueryRejected into a report)
    shed: int = 0
    #: 1 when the query's deadline elapsed before a result was produced
    deadline_exceeded: int = 0
    label: str = ""

    @property
    def cache_hits(self) -> int:
        return self.exact_hits + self.subsumption_hits

    @property
    def caching_overhead(self) -> float:
        """Fraction of the query's time spent on caching work (Figure 12)."""
        if self.total_time <= 0.0:
            return 0.0
        return self.caching_time / self.total_time

    def as_dict(self) -> dict:
        return {
            "rows_returned": self.rows_returned,
            "total_time": self.total_time,
            "operator_time": self.operator_time,
            "caching_time": self.caching_time,
            "cache_scan_time": self.cache_scan_time,
            "lookup_time": self.lookup_time,
            "exact_hits": self.exact_hits,
            "subsumption_hits": self.subsumption_hits,
            "misses": self.misses,
            "caching_overhead": self.caching_overhead,
            "layout_switches": self.layout_switches,
            "queue_wait_time": self.queue_wait_time,
            "queue_depth": self.queue_depth,
            "coalesced": self.coalesced,
            "coalesced_wait_time": self.coalesced_wait_time,
            "retries": self.retries,
            "degraded_scans": self.degraded_scans,
            "quarantined_entries": self.quarantined_entries,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
        }


@dataclass
class ExecutionContext:
    """Everything the executor needs while interpreting one plan.

    One context is created per query execution (the engine never shares a
    context between threads), so the report and timing fields need no locking;
    only the cache manager behind ``recache`` is shared.
    """

    catalog: DataSourceCatalog
    recache: ReCache | ShardedReCache | None
    config: ReCacheConfig
    report: QueryReport
    sequence: int
    query_started: float
    #: absolute ``time.perf_counter()`` instant after which execution must
    #: abort with :class:`DeadlineExceeded`; ``None`` disables the checks
    deadline_at: float | None = None


def _check_deadline(ctx: ExecutionContext) -> None:
    """Raise :class:`DeadlineExceeded` once the context's deadline passes.

    Called at operator boundaries and periodically inside scan loops; cost
    is one comparison when no deadline is set.
    """
    deadline_at = ctx.deadline_at
    if deadline_at is not None and time.perf_counter() > deadline_at:
        ctx.report.deadline_exceeded = 1
        raise DeadlineExceeded(
            f"query exceeded its deadline mid-execution (label={ctx.report.label!r})"
        )


def execute_plan(plan: PlanNode, ctx: ExecutionContext) -> list[dict]:
    """Execute a logical plan, returning its output rows.

    Dispatches between the batched vectorized pipeline and the row
    interpreter according to ``ctx.config.vectorized_execution``.
    """
    if ctx.config.vectorized_execution:
        return _execute_plan_batched(plan, ctx)
    return _execute_plan_rows(plan, ctx)


def execute_plan_columnar(plan: PlanNode, ctx: ExecutionContext) -> ColumnarResult:
    """Execute a logical plan, returning its output as a :class:`ColumnarResult`.

    The ``result_format="columnar"`` exit: under the batched pipeline the
    operator tree's :class:`RecordBatch` stream is handed to the caller as-is
    — no per-row dictionary assembly happens at all.  Aggregate roots (a
    handful of group rows) and the row interpreter wrap their row output
    instead, so the knob is valid under either pipeline.  Execution, report
    counters and cache accounting are byte-identical to the rows exit; only
    the output representation differs, and ``ColumnarResult.to_rows()``
    reproduces the rows exit bit for bit.
    """
    if not ctx.config.vectorized_execution:
        return ColumnarResult.from_rows(_execute_plan_rows(plan, ctx))
    if isinstance(plan, AggregateNode):
        return ColumnarResult.from_rows(_execute_plan_batched(plan, ctx))
    return ColumnarResult(_execute_batches(plan, ctx))


# ===========================================================================
# Row-at-a-time interpreter (parity baseline)
# ===========================================================================
def _execute_plan_rows(plan: PlanNode, ctx: ExecutionContext) -> list[dict]:
    """Interpret a logical plan bottom-up, one row dictionary at a time."""
    if isinstance(plan, AggregateNode):
        rows = _execute_plan_rows(plan.child, ctx)
        aggregates = compile_aggregates(plan.aggregates)
        return aggregate_rows(rows, aggregates, plan.group_by)
    if isinstance(plan, JoinNode):
        left = _execute_plan_rows(plan.left, ctx)
        right = _execute_plan_rows(plan.right, ctx)
        started = time.perf_counter()
        joined = hash_join(left, right, plan.left_key, plan.right_key)
        ctx.report.operator_time += time.perf_counter() - started
        return joined
    if isinstance(plan, ProjectNode):
        return project_rows(_execute_plan_rows(plan.child, ctx), plan.fields)
    if isinstance(plan, CacheScanNode):
        return _execute_cache_scan(plan, ctx)
    if isinstance(plan, MaterializeNode):
        return _execute_materialize(plan, ctx)
    if isinstance(plan, SelectNode):
        return _execute_select(plan, ctx)
    if isinstance(plan, ScanNode):
        return _scan_source_rows(ctx.catalog.get(plan.source), plan.fields)
    raise TypeError(f"cannot execute plan node of type {type(plan).__name__}")


# ---------------------------------------------------------------------------
# Raw scans without caching
# ---------------------------------------------------------------------------
def _scan_source_rows(source: DataSource, fields: list[str]) -> list[dict]:
    return list(source.scan(fields or None))


def _execute_select(node: SelectNode, ctx: ExecutionContext) -> list[dict]:
    """Select over a raw scan with no materializer (caching disabled)."""
    if not isinstance(node.child, ScanNode):
        rows = _execute_plan_rows(node.child, ctx)
        predicate = compile_predicate(node.predicate)
        return [row for row in rows if predicate(row)]
    source = ctx.catalog.get(node.child.source)
    fields = node.child.fields
    predicate = compile_predicate(node.predicate)
    dedupe = _record_level_semantics(source, fields)
    started = time.perf_counter()
    rows: list[dict] = []
    for group_index, (_, record_rows, _) in enumerate(_iter_record_groups(source, fields)):
        if (group_index & 0xFF) == 0:
            _check_deadline(ctx)
        satisfying = [row for row in record_rows if predicate(row)]
        if not satisfying:
            continue
        if dedupe:
            rows.append(satisfying[0])
        else:
            rows.extend(satisfying)
    ctx.report.operator_time += time.perf_counter() - started
    return rows


def _record_level_semantics(source: DataSource, fields: list[str]) -> bool:
    """True when a query over ``fields`` aggregates once per record.

    Queries that reference no nested attribute follow the nested algebra's
    record-level semantics; flattening duplicates must not be double counted
    for them, regardless of which layout serves the data.
    """
    if not source.is_nested():
        return False
    schema = source.schema
    known = set(schema.leaf_paths())
    return not any(schema.is_nested_path(path) for path in fields if path in known)


# ---------------------------------------------------------------------------
# Cache reuse
# ---------------------------------------------------------------------------
def _execute_cache_scan(node: CacheScanNode, ctx: ExecutionContext) -> list[dict]:
    entry = node.entry
    recache = ctx.recache
    assert recache is not None
    ctx.report.lookup_time += node.lookup_time
    if node.exact:
        ctx.report.exact_hits += 1
    else:
        ctx.report.subsumption_hits += 1

    # Snapshot the entry's mutable state once: a concurrent lazy upgrade or
    # layout switch writes the new layout before clearing the offsets, so a
    # non-None offsets list is always usable and a None one implies the layout
    # reference is already valid.  Scans then run entirely on local references,
    # outside any cache lock.
    offsets = entry.lazy_offsets
    if offsets is not None:
        try:
            return _execute_lazy_cache_scan(node, ctx, offsets)
        except DeadlineExceeded:
            raise
        except Exception:
            _quarantine_entry(node, ctx)
            return _degraded_raw_rows(node, ctx)

    layout = entry.layout
    assert layout is not None
    wanted = node.fields
    schema = layout.schema
    accessed_nested = any(
        schema.is_nested_path(path) for path in wanted if path in set(schema.leaf_paths())
    )
    # Queries that touch no nested attribute follow record-level (nested
    # algebra) semantics: parent attributes must not be double counted just
    # because the cache stores the flattened view.
    dedupe = bool(schema.nested_paths()) and not accessed_nested

    started = time.perf_counter()
    layout_name = layout.layout_name
    try:
        ranges = _vectorizable_ranges(node.residual_predicate, layout, wanted)
        if ranges is not None:
            # The cached data is binary and columnar: evaluate the residual range
            # predicate vectorized and materialize only the matching rows.
            if layout_name == "parquet":
                rows = list(layout.scan_range_filtered(ranges, fields=wanted))
                scanned_rows = layout.record_count
            else:
                rows = list(
                    layout.scan_range_filtered(ranges, fields=wanted, dedupe_records=dedupe)
                )
                scanned_rows = layout.flattened_row_count
        else:
            predicate = compile_predicate(node.residual_predicate)
            scanned_rows = 0
            rows = []
            scan_kwargs = {}
            if dedupe and layout_name in ("columnar", "row"):
                scan_kwargs["dedupe_records"] = True
            for row in layout.scan(fields=wanted, **scan_kwargs):
                scanned_rows += 1
                if predicate(row):
                    rows.append(row)
            if layout_name in ("columnar", "row") and dedupe:
                # The dedup scan still walks every flattened row internally.
                scanned_rows = layout.flattened_row_count
    except DeadlineExceeded:
        raise
    except Exception:
        ctx.report.cache_scan_time += time.perf_counter() - started
        _quarantine_entry(node, ctx)
        return _degraded_raw_rows(node, ctx)
    scan_time = time.perf_counter() - started
    ctx.report.cache_scan_time += scan_time

    _record_cache_scan_reuse(
        node, ctx, layout_name, scan_time, scanned_rows, wanted, accessed_nested
    )
    return rows


def _record_cache_scan_reuse(
    node: CacheScanNode,
    ctx: ExecutionContext,
    layout_name: str,
    scan_time: float,
    scanned_rows: int,
    wanted: list[str],
    accessed_nested: bool,
) -> None:
    """Feed one cache-scan measurement to the layout selector and policies."""
    recache = ctx.recache
    assert recache is not None
    data_cost, compute_cost = split_scan_cost(scan_time, scanned_rows * max(1, len(wanted)))
    observation = LayoutObservation(
        query_index=ctx.sequence,
        layout_name=layout_name,
        data_cost=data_cost,
        compute_cost=compute_cost,
        rows_accessed=scanned_rows,
        columns_accessed=max(1, len(wanted)),
        accessed_nested=accessed_nested,
    )
    switched = recache.record_reuse(
        node.entry, scan_time=scan_time, lookup_time=node.lookup_time, observation=observation
    )
    if switched:
        ctx.report.layout_switches += 1


# ---------------------------------------------------------------------------
# Poisoned-entry containment
# ---------------------------------------------------------------------------
def _quarantine_entry(node: CacheScanNode, ctx: ExecutionContext) -> None:
    """Invalidate a cache entry whose scan raised (audited no-swallow sink).

    The entry is evicted under its shard lock with its budget reservation and
    occupancy released; the query then degrades to a raw-source scan instead
    of failing.  Racing queries that already hold the entry either finish
    their own scan or hit the same fault and find the entry already gone.
    """
    recache = ctx.recache
    if recache is not None and recache.quarantine(node.entry):
        ctx.report.quarantined_entries += 1


def _degraded_raw_rows(node: CacheScanNode, ctx: ExecutionContext) -> list[dict]:  # rowwise-fallback: degraded re-scan after quarantine trades throughput for containment
    """Serve a cache-scan node from the raw source after quarantining its entry.

    ``residual_predicate`` always carries the full table predicate (even on
    exact hits), so re-applying it over a fresh raw scan reproduces the cache
    scan's output bit for bit.
    """
    ctx.report.degraded_scans += 1
    source = ctx.catalog.get(node.entry.source)
    predicate = compile_predicate(node.residual_predicate)
    dedupe = _record_level_semantics(source, node.fields)
    started = time.perf_counter()
    rows: list[dict] = []
    for _, record_rows, _ in _iter_record_groups(source, node.fields):
        satisfying = [row for row in record_rows if predicate(row)]
        if not satisfying:
            continue
        rows.extend(satisfying[:1] if dedupe else satisfying)
    ctx.report.operator_time += time.perf_counter() - started
    return rows


def _degraded_raw_batches(node: CacheScanNode, ctx: ExecutionContext) -> list[RecordBatch]:  # rowwise-fallback: degraded re-scan after quarantine trades throughput for containment
    """Batched counterpart of :func:`_degraded_raw_rows` (same semantics)."""
    ctx.report.degraded_scans += 1
    source = ctx.catalog.get(node.entry.source)
    batch_predicate = compile_batch_predicate(node.residual_predicate)
    dedupe = _record_level_semantics(source, node.fields)
    started = time.perf_counter()
    output = filter_batches(
        source.scan_batches(node.fields, batch_size=ctx.config.batch_size),
        batch_predicate,
        dedupe_records=dedupe,
    )
    ctx.report.operator_time += time.perf_counter() - started
    return output


def _vectorizable_ranges(predicate, layout, wanted_fields) -> dict[str, tuple[float, float]] | None:
    """Closed ranges usable by the layouts' vectorized filter, or ``None``.

    The fast path applies when the residual predicate is a pure conjunction of
    numeric range constraints and the layout can filter/project all involved
    fields vectorized (for Parquet, nested numeric leaves qualify too as long
    as they form a single aligned repetition group — the mask then evaluates
    at entry granularity over the raw striped arrays).  Open/half-open bounds
    are widened to +/-inf, which is safe for closed-interval evaluation
    because the underlying predicates produced by the workload generators are
    inclusive.
    """
    from repro.engine.expressions import Comparison, RangePredicate, conjuncts, extract_ranges

    if not hasattr(layout, "scan_range_filtered"):
        return None
    parts = conjuncts(predicate)
    for part in parts:
        if not isinstance(part, (Comparison, RangePredicate)):
            return None
        # Every conjunct must convert into a closed interval on its own,
        # otherwise the vectorized filter would silently drop a constraint.
        part_ranges = extract_ranges(part)
        if len(part_ranges) != 1:
            return None
        interval = next(iter(part_ranges.values()))
        if not (interval.low_inclusive and interval.high_inclusive):
            return None
    intervals = extract_ranges(predicate)
    involved = set(wanted_fields) | set(intervals)
    if not layout.supports_range_filter(sorted(involved)):
        return None
    return {field: (interval.low, interval.high) for field, interval in intervals.items()}


def _execute_lazy_cache_scan(
    node: CacheScanNode, ctx: ExecutionContext, offsets: list[int]
) -> list[dict]:
    """Reuse a lazy cache: re-read the satisfying records via the positional map.

    ``offsets`` is the caller's snapshot of the entry's lazy offsets; the entry
    itself may be upgraded concurrently by another query, in which case
    :meth:`~repro.core.cache_manager.ReCache.upgrade_lazy` below declines the
    duplicate upgrade.
    """
    entry = node.entry
    recache = ctx.recache
    assert recache is not None
    source = ctx.catalog.get(entry.source)
    predicate = compile_predicate(node.residual_predicate)
    upgrade = (
        ctx.config.upgrade_lazy_on_reuse
        and not ctx.config.always_lazy
        and not entry.upgrade_blocked
    )
    # When the lazy entry is about to be upgraded, parse complete tuples so the
    # resulting eager cache can serve any later query over this source.
    wanted = None if upgrade else node.fields
    schema = source.schema
    accessed_nested = any(
        schema.is_nested_path(path) for path in node.fields if path in set(schema.leaf_paths())
    )
    dedupe = source.is_nested() and not accessed_nested

    started = time.perf_counter()
    rows_out: list[dict] = []
    cached_rows: list[dict] = []
    cached_counts: list[int] = []
    for record_rows in source.read_record_rows(offsets, wanted):
        satisfying = [row for row in record_rows if predicate(row)]
        if satisfying:
            rows_out.append(satisfying[0]) if dedupe else rows_out.extend(satisfying)
        if upgrade:
            cached_rows.extend(record_rows)
            cached_counts.append(len(record_rows))
    scan_time = time.perf_counter() - started
    ctx.report.cache_scan_time += scan_time

    if upgrade and entry.is_lazy:
        build_started = time.perf_counter()
        all_fields = source.flattened_schema.field_names()
        layout = build_layout(
            ctx.config.default_flat_layout if not source.is_nested() else "columnar",
            source.flattened_schema if not source.is_nested() else source.schema,
            all_fields,
            rows=cached_rows,
            record_row_counts=cached_counts if source.is_nested() else None,
        )
        build_time = time.perf_counter() - build_started
        ctx.report.caching_time += build_time
        if recache.upgrade_lazy(entry, layout, build_time):
            entry.fields = all_fields
            ctx.report.lazy_upgrades += 1

    recache.record_reuse(entry, scan_time=scan_time, lookup_time=node.lookup_time)
    return rows_out


# ---------------------------------------------------------------------------
# Materialization (cache miss path)
# ---------------------------------------------------------------------------
def _execute_materialize(node: MaterializeNode, ctx: ExecutionContext) -> list[dict]:
    source = ctx.catalog.get(node.source)
    recache = ctx.recache
    config = ctx.config
    predicate = compile_predicate(node.predicate)
    nested = source.is_nested()
    layout_name = config.default_nested_layout if nested else config.default_flat_layout
    ctx.report.misses += 1

    dedupe_output = _record_level_semantics(source, node.fields)

    if recache is None or not config.caching_enabled:
        started = time.perf_counter()
        rows = []
        for _, record_rows, _ in _iter_record_groups(source, node.fields):
            satisfying = [row for row in record_rows if predicate(row)]
            if not satisfying:
                continue
            rows.extend(satisfying[:1] if dedupe_output else satisfying)
        ctx.report.operator_time += time.perf_counter() - started
        return rows

    # The operator itself parses only the fields the query needs; *caching*
    # eagerly means additionally parsing/flattening the complete tuple of every
    # satisfying record, and that extra work is measured as caching time
    # (Section 5.1: ``c`` includes "the time spent parsing the cached fields of
    # each record").  The cached entry therefore exposes every leaf field and
    # can serve any later query over this source.
    cache_fields = source.flattened_schema.field_names()

    mode = _initial_admission_mode(ctx, source)
    sampling = mode is None
    sample_limit = config.admission_sample_records
    to1 = time.perf_counter() - ctx.query_started
    tc1 = ctx.report.caching_time

    caching_seconds = 0.0
    post_sample_timer = SampledTimer(sample_rate=config.timing_sample_rate)
    rows_out: list[dict] = []
    eager_rows: list[dict] = []
    eager_records: list[dict] = []
    eager_counts: list[int] = []
    lazy_offsets: list[int] = []
    record_index = -1
    bytes_seen = 0

    operator_started = time.perf_counter()
    for record_index, (record, rows, approx_bytes) in enumerate(
        _iter_record_groups(source, node.fields)
    ):
        # Admission only happens after the loop completes, so aborting on a
        # deadline mid-scan leaves no cache state or budget reservation behind.
        if (record_index & 0xFF) == 0:
            _check_deadline(ctx)
        bytes_seen += approx_bytes
        satisfying = [row for row in rows if predicate(row)]
        if satisfying:
            rows_out.extend(satisfying[:1] if dedupe_output else satisfying)
        if not satisfying and not sampling:
            continue

        exact_timing = sampling
        if exact_timing:
            cache_started = time.perf_counter()
        else:
            post_sample_timer.maybe_start()

        if satisfying:
            if mode == "lazy":
                lazy_offsets.append(record_index)
            else:
                # Eager (or still sampling): parse the complete tuple(s) of the
                # satisfying record into the cache buffers; the sampling phase
                # also tracks offsets so a later lazy decision can keep them.
                if sampling:
                    lazy_offsets.append(record_index)
                if nested and layout_name == "parquet":
                    eager_records.append(record)
                elif source.format == "json":
                    # Already parsed by json.loads; flattening yields the
                    # complete tuple(s) for the cache.
                    full_rows = flatten_record(record, source.schema)
                    eager_rows.extend(full_rows)
                    if nested:
                        eager_counts.append(len(full_rows))
                else:
                    eager_rows.append(source.plugin.parse_full(record))

        if exact_timing:
            caching_seconds += time.perf_counter() - cache_started
        else:
            post_sample_timer.maybe_stop()

        if sampling and record_index + 1 >= sample_limit:
            sampling = False
            mode, sample_overhead = _decide_admission(
                ctx,
                source,
                layout_name,
                cache_fields,
                nested,
                eager_rows,
                eager_records,
                eager_counts,
                caching_seconds,
                to1,
                tc1,
                record_index + 1,
                bytes_seen,
            )
            caching_seconds = sample_overhead
            if mode == "lazy":
                eager_rows, eager_records, eager_counts = [], [], []
            else:
                lazy_offsets = []

    elapsed = time.perf_counter() - operator_started
    caching_seconds += post_sample_timer.estimated_total

    # If the file ended before the sample completed, fall back to eager: the
    # whole (small) result is already buffered.
    if mode is None:
        mode = "eager"

    # -- build and admit the cache -------------------------------------------
    caching_seconds += _admit(
        ctx,
        node,
        source,
        mode,
        layout_name,
        cache_fields,
        nested,
        eager_rows,
        eager_records,
        eager_counts,
        lazy_offsets,
        elapsed,
        caching_seconds,
    )

    operator_seconds = max(0.0, elapsed - caching_seconds)
    ctx.report.operator_time += operator_seconds
    ctx.report.caching_time += caching_seconds
    return rows_out


def _initial_admission_mode(ctx: ExecutionContext, source: DataSource) -> str | None:
    """The admission mode fixed before scanning, or ``None`` to sample first."""
    config = ctx.config
    recache = ctx.recache
    assert recache is not None
    if config.always_lazy:
        return "lazy"
    if not config.adaptive_admission:
        return "eager"
    if recache.admission.should_skip_sampling(recache.has_hot_entries(source.name)):
        return "eager"
    return None


def _decide_admission(
    ctx: ExecutionContext,
    source: DataSource,
    layout_name: str,
    fields: list[str],
    nested: bool,
    eager_rows: list[dict],
    eager_records: list[dict],
    eager_counts: list[int],
    caching_seconds: float,
    to1: float,
    tc1: float,
    sample_records: int,
    bytes_seen: int,
) -> tuple[str, float]:
    """Build the sample cache, extrapolate the overhead, pick eager or lazy."""
    recache = ctx.recache
    assert recache is not None
    # Building the sample's eager cache is genuine caching work: include it in
    # the sampled caching time so the extrapolation sees the full cost.
    build_started = time.perf_counter()
    with contextlib.suppress(ValueError):  # empty sample: nothing to build
        if nested and layout_name == "parquet":
            build_layout(layout_name, source.schema, fields, records=eager_records)
        else:
            schema = source.schema if nested else source.flattened_schema
            build_layout(
                "columnar" if layout_name == "parquet" else layout_name,
                schema,
                fields,
                rows=eager_rows,
                record_row_counts=eager_counts or None,
            )
    caching_seconds += time.perf_counter() - build_started

    now = time.perf_counter() - ctx.query_started
    total_records = _estimate_total_records(source, sample_records, bytes_seen)
    sample = AdmissionSample(
        to1=to1,
        tc1=tc1,
        to2=now,
        tc2=ctx.report.caching_time + caching_seconds,
        sample_records=sample_records,
        total_records=total_records,
    )
    if ctx.config.admission_extrapolation:
        decision = recache.admission.decide(sample)
    else:
        decision = recache.admission.decide_naive(sample)
    mode = "lazy" if decision is AdmissionDecision.LAZY else "eager"
    return mode, caching_seconds


def _admit(
    ctx: ExecutionContext,
    node: MaterializeNode,
    source: DataSource,
    mode: str,
    layout_name: str,
    fields: list[str],
    nested: bool,
    eager_rows: list[dict],
    eager_records: list[dict],
    eager_counts: list[int],
    lazy_offsets: list[int],
    elapsed: float,
    caching_seconds: float,
) -> float:
    """Admit the materialized result into ReCache; returns extra caching time."""
    recache = ctx.recache
    assert recache is not None
    extra = 0.0
    if mode == "lazy":
        operator_seconds = max(0.0, elapsed - caching_seconds)
        entry = recache.admit_lazy(
            source=node.source,
            source_format=source.format,
            predicate=node.predicate,
            fields=fields,
            offsets=lazy_offsets,
            operator_time=operator_seconds,
            caching_time=caching_seconds,
        )
        if entry is not None:
            ctx.report.admissions["lazy"] += 1
        return extra

    build_started = time.perf_counter()
    try:
        if nested and layout_name == "parquet":
            layout = build_layout(layout_name, source.schema, fields, records=eager_records)
        else:
            schema = source.schema if nested else source.flattened_schema
            layout = build_layout(
                "columnar" if (nested and layout_name == "parquet") else layout_name,
                schema,
                fields,
                rows=eager_rows,
                record_row_counts=eager_counts or None,
            )
    except ValueError:
        # A degenerate result (empty source, zero satisfying records, or
        # inconsistent buffered rows) cannot be materialized into a layout.
        # The sampling path guards its trial build the same way; skip the
        # admission cleanly instead of failing the whole query.
        recache.note_skipped_admission(node.source, node.predicate)
        return time.perf_counter() - build_started
    extra = time.perf_counter() - build_started
    operator_seconds = max(0.0, elapsed - caching_seconds - extra)
    entry = recache.admit_eager(
        source=node.source,
        source_format=source.format,
        predicate=node.predicate,
        fields=fields,
        layout=layout,
        operator_time=operator_seconds,
        caching_time=caching_seconds + extra,
    )
    if entry is not None:
        ctx.report.admissions["eager"] += 1
    return extra


def _estimate_total_records(source: DataSource, sample_records: int, bytes_seen: int) -> int:
    """Estimate the file's record count from the bytes consumed by the sample."""
    if source.plugin.positional_map.complete:
        return source.plugin.positional_map.record_count
    if bytes_seen <= 0:
        return sample_records
    try:
        file_size = source.file_size()
    except OSError:  # recheck-lint: allow(no-swallow) — estimate, not containment
        return sample_records
    per_record = bytes_seen / sample_records
    return max(sample_records, int(file_size / max(1.0, per_record)))


def _iter_record_groups(source: DataSource, fields: list[str]):
    """Yield ``(record, flattened_rows, approx_bytes)`` per raw record.

    The record granularity is what admission sampling and lazy offsets operate
    on: one CSV line or one JSON object per record.  ``record`` carries what a
    materializer needs to build the complete cached tuple later: the parsed
    JSON object for nested sources, the raw text line for CSV sources.  The
    ``flattened_rows`` are restricted to ``fields`` (what the query itself
    needs for filtering and aggregation).
    """
    wanted = set(fields)
    if source.format == "json":
        for record in source.scan_records():
            rows = [
                {key: row.get(key) for key in wanted}
                for row in flatten_record(record, source.schema)
            ]
            approx = approx_record_bytes(record)
            yield record, rows, approx
    else:
        for line, row in source.plugin.scan_with_lines(fields or None):
            yield line, [row], max(16, len(line))


# ===========================================================================
# Batched vectorized pipeline
# ===========================================================================
def _execute_plan_batched(plan: PlanNode, ctx: ExecutionContext) -> list[dict]:
    """Execute a plan over record batches, materializing rows only at the top."""
    if isinstance(plan, AggregateNode):
        batches = _execute_batches(plan.child, ctx)
        aggregates = compile_aggregates(plan.aggregates)
        return aggregate_batches(batches, aggregates, plan.group_by)
    return rows_from_batches(_execute_batches(plan, ctx))  # rowwise-fallback: rows result format materializes Python rows once at the query boundary


def _execute_batches(plan: PlanNode, ctx: ExecutionContext) -> list[RecordBatch]:
    """Evaluate a plan subtree, returning its output as record batches."""
    if isinstance(plan, JoinNode):
        left = _execute_batches(plan.left, ctx)
        right = _execute_batches(plan.right, ctx)
        started = time.perf_counter()
        joined = hash_join_batches(left, right, plan.left_key, plan.right_key)
        ctx.report.operator_time += time.perf_counter() - started
        return joined
    if isinstance(plan, ProjectNode):
        return project_batches(_execute_batches(plan.child, ctx), plan.fields)
    if isinstance(plan, CacheScanNode):
        return _execute_cache_scan_batched(plan, ctx)
    if isinstance(plan, MaterializeNode):
        return _execute_materialize_batched(plan, ctx)
    if isinstance(plan, SelectNode):
        return _execute_select_batched(plan, ctx)
    if isinstance(plan, ScanNode):
        source = ctx.catalog.get(plan.source)
        return list(source.scan_batches(plan.fields or None, batch_size=ctx.config.batch_size))
    if isinstance(plan, AggregateNode):
        # An aggregate below the plan root (not produced by the optimizer, but
        # legal plan algebra): materialize its rows into a single batch.
        rows = _execute_plan_batched(plan, ctx)
        return [RecordBatch.from_rows(rows)] if rows else []
    raise TypeError(f"cannot execute plan node of type {type(plan).__name__}")


def _execute_select_batched(node: SelectNode, ctx: ExecutionContext) -> list[RecordBatch]:
    """Select over a raw scan with no materializer (caching disabled)."""
    batch_predicate = compile_batch_predicate(node.predicate)
    if not isinstance(node.child, ScanNode):
        return filter_batches(_execute_batches(node.child, ctx), batch_predicate)
    source = ctx.catalog.get(node.child.source)
    fields = node.child.fields
    dedupe = _record_level_semantics(source, fields)
    started = time.perf_counter()
    output = filter_batches(
        source.scan_batches(fields, batch_size=ctx.config.batch_size),
        batch_predicate,
        dedupe_records=dedupe,
    )
    ctx.report.operator_time += time.perf_counter() - started
    return output


def _execute_cache_scan_batched(node: CacheScanNode, ctx: ExecutionContext) -> list[RecordBatch]:
    entry = node.entry
    recache = ctx.recache
    assert recache is not None
    ctx.report.lookup_time += node.lookup_time
    if node.exact:
        ctx.report.exact_hits += 1
    else:
        ctx.report.subsumption_hits += 1

    # Same snapshot discipline as the interpreted path (see
    # :func:`_execute_cache_scan`): offsets/layout are read once and the scan
    # runs on local references outside any cache lock.
    offsets = entry.lazy_offsets
    if offsets is not None:
        # Lazy reuse re-reads the raw file through the positional map; its cost
        # is dominated by I/O and (on first reuse) the eager upgrade, so the
        # row implementation is shared and its output wrapped into one batch.
        try:
            rows = _execute_lazy_cache_scan(node, ctx, offsets)
        except DeadlineExceeded:
            raise
        except Exception:
            _quarantine_entry(node, ctx)
            return _degraded_raw_batches(node, ctx)
        return [RecordBatch.from_rows(rows)] if rows else []

    layout = entry.layout
    assert layout is not None
    wanted = node.fields
    schema = layout.schema
    known = set(schema.leaf_paths())
    accessed_nested = any(
        schema.is_nested_path(path) for path in wanted if path in known
    )
    dedupe = bool(schema.nested_paths()) and not accessed_nested

    started = time.perf_counter()
    layout_name = layout.layout_name
    try:
        batches, scanned_rows = _scan_layout_batches(node, ctx, layout, dedupe)
    except DeadlineExceeded:
        raise
    except Exception:
        ctx.report.cache_scan_time += time.perf_counter() - started
        _quarantine_entry(node, ctx)
        return _degraded_raw_batches(node, ctx)
    scan_time = time.perf_counter() - started
    ctx.report.cache_scan_time += scan_time

    _record_cache_scan_reuse(
        node, ctx, layout_name, scan_time, scanned_rows, wanted, accessed_nested
    )
    return batches


def _scan_layout_batches(
    node: CacheScanNode, ctx: ExecutionContext, layout, dedupe: bool
) -> tuple[list[RecordBatch], int]:
    """The batched layout-scan body of :func:`_execute_cache_scan_batched`.

    Factored out so the caller can wrap the whole scan in the poisoned-entry
    containment handler; returns ``(batches, scanned_rows)``.
    """
    wanted = node.fields
    layout_name = layout.layout_name
    batches: list[RecordBatch] = []
    ranges = _vectorizable_ranges(node.residual_predicate, layout, wanted)
    if ranges is not None:
        if hasattr(layout, "range_filtered_batch"):
            # Columnar/parquet fast path: one vectorized mask over the cached
            # column arrays, matching rows gathered straight into batch
            # columns.  Parquet's mask runs on the short per-record parent
            # stripes, so its scan cardinality is records, not flattened rows
            # (matching the interpreted path's accounting).
            batch = layout.range_filtered_batch(ranges, fields=wanted, dedupe_records=dedupe)
            if batch.row_count:
                batches.append(batch)
            if layout_name == "parquet":
                scanned_rows = layout.record_count
            else:
                scanned_rows = layout.flattened_row_count
        else:
            rows = list(layout.scan_range_filtered(ranges, fields=wanted))
            if rows:
                batches.append(RecordBatch.from_rows(rows, wanted))
            scanned_rows = layout.record_count
    else:
        batch_predicate = compile_batch_predicate(node.residual_predicate)
        scan_kwargs = {}
        if dedupe and layout_name in ("columnar", "row"):
            scan_kwargs["dedupe_records"] = True
        if layout_name in ("columnar", "parquet") and node.residual_predicate is not None:
            # Pre-build the layout's shared float64 views for the predicate's
            # columns so every batch mask slices one cached array instead of
            # re-converting its column lists (predicate fields are always part
            # of the scanned fields, so the columns exist; parquet only seeds
            # views on its flat fast path, where batch rows are records).
            scan_kwargs["numeric_fields"] = sorted(
                node.residual_predicate.referenced_fields()
            )
        scanned_rows = 0
        for batch in layout.scan_batches(
            fields=wanted, batch_size=ctx.config.batch_size, **scan_kwargs
        ):
            scanned_rows += batch.row_count
            indexes = np.nonzero(batch_predicate(batch))[0]
            if len(indexes) == batch.row_count:
                batches.append(batch)  # everything matched: no copy needed
            elif len(indexes):
                batches.append(batch.take(indexes))
        if layout_name in ("columnar", "row") and dedupe:
            # The dedup scan still walks every flattened row internally.
            scanned_rows = layout.flattened_row_count
    return batches, scanned_rows


def _execute_materialize_batched(node: MaterializeNode, ctx: ExecutionContext) -> list[RecordBatch]:
    """The materializer over record batches.

    Control flow mirrors :func:`_execute_materialize` record for record; the
    differences are that predicate evaluation is one mask per batch, output
    rows move as column slices, and caching work is timed per *batch* — exact
    timestamps around each batch's caching block while sampling, one
    :class:`SampledTimer` start/stop pair per batch afterwards.
    """
    source = ctx.catalog.get(node.source)
    recache = ctx.recache
    config = ctx.config
    batch_predicate = compile_batch_predicate(node.predicate)
    nested = source.is_nested()
    layout_name = config.default_nested_layout if nested else config.default_flat_layout
    ctx.report.misses += 1

    dedupe_output = _record_level_semantics(source, node.fields)
    batch_size = config.batch_size

    if recache is None or not config.caching_enabled:
        started = time.perf_counter()
        output = filter_batches(
            source.scan_batches(node.fields, batch_size=batch_size),
            batch_predicate,
            dedupe_records=dedupe_output,
        )
        ctx.report.operator_time += time.perf_counter() - started
        return output

    cache_fields = source.flattened_schema.field_names()

    mode = _initial_admission_mode(ctx, source)
    sampling = mode is None
    sample_limit = config.admission_sample_records
    to1 = time.perf_counter() - ctx.query_started
    tc1 = ctx.report.caching_time

    caching_seconds = 0.0
    # One timing decision covers a whole batch, so the per-batch sampling rate
    # is scaled by the batch size: the expected number of *records* whose
    # caching work gets timed matches the interpreted path, while the clock
    # overhead per record shrinks by ~batch_size (at the default 1024-record
    # batches and 1% record rate every batch is timed — two clock calls per
    # thousand records, far below the paper's monitoring-overhead concern).
    batch_timing_rate = min(1.0, config.timing_sample_rate * batch_size)
    post_sample_timer = SampledTimer(sample_rate=batch_timing_rate)
    output = []
    eager_rows: list[dict] = []
    eager_records: list[dict] = []
    eager_counts: list[int] = []
    lazy_offsets: list[int] = []
    records_seen = 0
    bytes_seen = 0

    operator_started = time.perf_counter()
    for scanned in source.scan_batches(node.fields, batch_size=batch_size, with_payload=True):
        # Admission only happens after the loop completes, so aborting on a
        # deadline mid-scan leaves no cache state or budget reservation behind.
        _check_deadline(ctx)
        # A batch that straddles the end of the admission sample is split so
        # the decision happens after exactly ``sample_limit`` records, as in
        # the record-at-a-time path.
        if sampling and 0 < sample_limit - records_seen < scanned.record_count:
            boundary = sample_limit - records_seen
            parts = [
                scanned.slice_records(0, boundary),
                scanned.slice_records(boundary, scanned.record_count),
            ]
        else:
            parts = [scanned]

        for batch in parts:
            bytes_seen += batch.total_record_bytes
            mask = batch_predicate(batch)
            out_indexes = (
                batch.first_true_per_record(mask) if dedupe_output else np.nonzero(mask)[0]
            )
            if len(out_indexes) == batch.row_count:
                # Everything matched: pass the columns through without a copy,
                # but shed the caching payload (raw lines / parsed records) so
                # the query output does not pin the whole file's records.
                output.append(RecordBatch(batch.columns, row_count=batch.row_count))
            elif len(out_indexes):
                output.append(batch.take(out_indexes))

            any_satisfying = bool(len(out_indexes))
            if any_satisfying or sampling:
                exact_timing = sampling
                if exact_timing:
                    cache_started = time.perf_counter()
                else:
                    post_sample_timer.maybe_start()

                if any_satisfying:
                    if batch.record_row_counts is None and not dedupe_output:
                        # Flat source: rows are records, and out_indexes is
                        # already the satisfying-row set.
                        satisfied = out_indexes
                    else:
                        satisfied = batch.records_with_true(mask)
                    if mode == "lazy":
                        lazy_offsets.extend(records_seen + int(r) for r in satisfied)
                    else:
                        if sampling:
                            lazy_offsets.extend(records_seen + int(r) for r in satisfied)
                        payload = batch.records
                        if nested and layout_name == "parquet":
                            eager_records.extend(payload[r] for r in satisfied)
                        elif source.format == "json":
                            for r in satisfied:
                                full_rows = flatten_record(payload[r], source.schema)
                                eager_rows.extend(full_rows)
                                if nested:
                                    eager_counts.append(len(full_rows))
                        else:
                            parse_full = source.plugin.parse_full
                            eager_rows.extend(parse_full(payload[r]) for r in satisfied)

                if exact_timing:
                    caching_seconds += time.perf_counter() - cache_started
                else:
                    post_sample_timer.maybe_stop()

            records_seen += batch.record_count
            if sampling and records_seen >= sample_limit:
                sampling = False
                mode, sample_overhead = _decide_admission(
                    ctx,
                    source,
                    layout_name,
                    cache_fields,
                    nested,
                    eager_rows,
                    eager_records,
                    eager_counts,
                    caching_seconds,
                    to1,
                    tc1,
                    records_seen,
                    bytes_seen,
                )
                caching_seconds = sample_overhead
                if mode == "lazy":
                    eager_rows, eager_records, eager_counts = [], [], []
                else:
                    lazy_offsets = []

    elapsed = time.perf_counter() - operator_started
    caching_seconds += post_sample_timer.estimated_total

    if mode is None:
        mode = "eager"

    caching_seconds += _admit(
        ctx,
        node,
        source,
        mode,
        layout_name,
        cache_fields,
        nested,
        eager_rows,
        eager_records,
        eager_counts,
        lazy_offsets,
        elapsed,
        caching_seconds,
    )

    operator_seconds = max(0.0, elapsed - caching_seconds)
    ctx.report.operator_time += operator_seconds
    ctx.report.caching_time += caching_seconds
    return output
