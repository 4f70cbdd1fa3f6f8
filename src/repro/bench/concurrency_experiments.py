"""Experiment drivers for the concurrent serving layer.

Measures queries/second of the :class:`~repro.engine.server.EngineServer` as a
function of (a) worker-thread count and (b) cache shard count, on a
cache-hit-heavy zipfian workload driven by closed-loop clients
(:class:`~repro.workloads.runner.ConcurrentWorkloadRunner`).

Methodology note: the per-request service includes a configurable *response
delivery* stage (``io_wait_ms``, injected through the server's
``response_hook``) modelling the serialization + socket write a network server
performs per request.  Worker threads overlap those delivery waits, which is
what makes throughput scale with the pool size even under CPython's GIL (and
on the single-core CI runners these benches run on); on multi-core hosts the
cache-scan work in NumPy adds genuine CPU parallelism on top.  With
``io_wait_ms=0`` the bench degenerates to a pure lock-contention measurement.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.bench.datasets import bench_data_root
from repro.core.config import ReCacheConfig
from repro.engine.expressions import AggregateSpec, FieldRef, RangePredicate
from repro.engine.query import Query
from repro.engine.server import EngineServer
from repro.engine.session import QueryEngine
from repro.engine.types import FLOAT, INT, Field, RecordType
from repro.formats import write_csv
from repro.workloads.runner import ConcurrentWorkloadRunner

SERVE_SCHEMA = RecordType(
    [Field("id", INT), Field("value", FLOAT), Field("weight", FLOAT), Field("bucket", INT)]
)


def _serving_dataset(rows: int, seed: int) -> Path:
    path = bench_data_root() / f"serving_{rows}_{seed}.csv"
    if not path.exists():
        write_csv(
            path,
            SERVE_SCHEMA,
            (
                {
                    "id": i,
                    "value": float((i * 37 + seed) % (rows * 2)),
                    "weight": ((i * 13) % 1000) / 10.0,
                    "bucket": i % 17,
                }
                for i in range(rows)
            ),
        )
    return path


def _query_pool(pool_size: int, rows: int) -> list[Query]:
    """Distinct range queries; pool order defines zipfian popularity rank."""
    span = rows * 2
    width = max(1.0, span / (pool_size + 1))
    return [
        Query.select_aggregate(
            "serve",
            RangePredicate("value", index * width, index * width + 2.0 * width),
            [AggregateSpec("sum", FieldRef("weight")), AggregateSpec("count", FieldRef("id"))],
            label=f"serve-q{index}",
        )
        for index in range(pool_size)
    ]


def _build_engine(shard_count: int, rows: int, seed: int, pool: list[Query]) -> QueryEngine:
    """A fresh engine with every pool query pre-warmed into the cache."""
    config = ReCacheConfig(
        shard_count=shard_count,
        admission_sample_records=50,
        adaptive_admission=False,  # warm everything eagerly: hit-heavy serving
    )
    engine = QueryEngine(config)
    engine.register_csv("serve", _serving_dataset(rows, seed), SERVE_SCHEMA)
    for query in pool:
        engine.execute(query)
    return engine


def _measure(
    engine: QueryEngine,
    pool: list[Query],
    workers: int,
    clients: int,
    queries_per_client: int,
    io_wait_ms: float,
    zipf_s: float,
    seed: int,
) -> dict:
    io_wait = io_wait_ms / 1000.0

    def deliver_response(report) -> None:
        time.sleep(io_wait)

    hook = deliver_response if io_wait > 0 else None
    with EngineServer(engine, max_workers=workers, response_hook=hook) as server:
        runner = ConcurrentWorkloadRunner(server, clients=clients, seed=seed)
        result = runner.run(
            pool,
            label=f"w{workers}",
            queries_per_client=queries_per_client,
            zipf_s=zipf_s,
        )
    aggregate = result.aggregate
    served = result.total_queries
    hits = aggregate.exact_hits + aggregate.subsumption_hits
    return {
        "queries": served,
        "wall_time": result.wall_time,
        "queries_per_second": result.queries_per_second,
        "hit_rate": hits / max(1, hits + aggregate.misses),
    }


def concurrent_throughput_experiment(
    thread_counts: tuple[int, ...] = (1, 2, 4),
    shard_counts: tuple[int, ...] = (1, 4, 8),
    clients: int = 8,
    rows: int = 2000,
    pool_size: int = 24,
    queries_per_client: int = 25,
    io_wait_ms: float = 4.0,
    zipf_s: float = 1.1,
    seed: int = 11,
) -> dict:
    """Queries/sec vs worker-thread count and vs shard count.

    The thread sweep fixes ``shard_count=max(shard_counts)`` and varies the
    server pool; the shard sweep fixes ``max(thread_counts)`` workers and
    varies the cache partitioning.  Every run gets a freshly warmed engine so
    runs never share cache state.
    """
    pool = _query_pool(pool_size, rows)
    thread_rows = []
    for workers in thread_counts:
        engine = _build_engine(max(shard_counts), rows, seed, pool)
        measured = _measure(
            engine, pool, workers, clients, queries_per_client, io_wait_ms, zipf_s, seed
        )
        thread_rows.append({"threads": workers, "shards": max(shard_counts), **measured})

    shard_rows = []
    for shards in shard_counts:
        engine = _build_engine(shards, rows, seed, pool)
        measured = _measure(
            engine,
            pool,
            max(thread_counts),
            clients,
            queries_per_client,
            io_wait_ms,
            zipf_s,
            seed,
        )
        budget_ok = engine.recache.total_bytes == sum(
            entry.nbytes for entry in engine.recache.entries()
        )
        shard_rows.append(
            {"shards": shards, "threads": max(thread_counts), "budget_ok": budget_ok, **measured}
        )

    by_threads = {row["threads"]: row["queries_per_second"] for row in thread_rows}
    base = by_threads[min(thread_counts)] or 1e-9
    return {
        "thread_rows": thread_rows,
        "shard_rows": shard_rows,
        "speedup_vs_single_thread": {t: qps / base for t, qps in by_threads.items()},
        "io_wait_ms": io_wait_ms,
    }


def async_submission_experiment(
    clients: int = 8,
    workers: int = 4,
    shard_count: int = 4,
    rows: int = 4000,
    pool_size: int = 24,
    queries_per_client: int = 48,
    batch_size: int = 16,
    zipf_s: float = 1.4,
    seed: int = 29,
) -> dict:
    """Batched ``submit_batch`` vs per-request ``submit`` throughput.

    Both modes drive the *same* zipfian query streams (same seed, same
    clients) against identically warmed engines; the batched mode submits
    ``batch_size`` draws per round, letting the server coalesce duplicate hot
    queries and group overlapping ones onto one worker, while the per-request
    baseline queues every draw as its own pool task.  The speedup is therefore
    purely the serving tier's doing — the engine and cache are identical.
    """
    pool = _query_pool(pool_size, rows)
    results: dict[str, dict] = {}
    for mode in ("per_request", "batched"):
        engine = _build_engine(shard_count, rows, seed, pool)
        with EngineServer(engine, max_workers=workers) as server:
            runner = ConcurrentWorkloadRunner(server, clients=clients, seed=seed)
            if mode == "batched":
                outcome = runner.run_batched(
                    pool,
                    label=mode,
                    queries_per_client=queries_per_client,
                    batch_size=batch_size,
                    zipf_s=zipf_s,
                )
            else:
                outcome = runner.run(
                    pool, label=mode, queries_per_client=queries_per_client, zipf_s=zipf_s
                )
            aggregate = outcome.aggregate
            hits = aggregate.exact_hits + aggregate.subsumption_hits
            results[mode] = {
                "queries": outcome.total_queries,
                "engine_executions": engine.query_count,
                "wall_time": outcome.wall_time,
                "queries_per_second": outcome.queries_per_second,
                "hit_rate": hits / max(1, hits + aggregate.misses),
                "coalesced": aggregate.coalesced,
                "queue_wait_time": aggregate.queue_wait_time,
                "peak_queue_depth": server.peak_queue_depth,
            }
    per_request = results["per_request"]["queries_per_second"] or 1e-9
    results["batched_speedup"] = results["batched"]["queries_per_second"] / per_request
    results["batch_size"] = batch_size
    results["zipf_s"] = zipf_s
    return results


def borrowing_admission_experiment(
    rows: int = 2500,
    shard_count: int = 4,
    clients: int = 4,
    queries_per_client: int = 10,
    seed: int = 23,
) -> dict:
    """Cross-shard borrowing under the multi-client driver (CI smoke).

    Builds a pool whose hottest query caches an item larger than one shard's
    proportional share (but within the global budget), then drives the
    multi-client server against a *cold* sharded cache.  Under the old static
    split that item could never be admitted; the shared-budget protocol must
    admit it by borrowing global headroom.
    """
    span = rows * 2
    big_predicate = RangePredicate("value", 0.0, span * 0.9)  # caches ~90% of the file
    big_query = Query.select_aggregate(
        "serve",
        big_predicate,
        [AggregateSpec("sum", FieldRef("weight")), AggregateSpec("count", FieldRef("id"))],
        label="serve-big",
    )
    narrow = _query_pool(8, rows)
    pool = [big_query] + narrow  # rank 0: the zipfian head, always drawn

    # Probe the big item's cached size with an unlimited cache, then size the
    # budget so the item exceeds one shard's share but fits globally.
    probe = QueryEngine(ReCacheConfig(adaptive_admission=False))
    probe.register_csv("serve", _serving_dataset(rows, seed), SERVE_SCHEMA)
    probe.execute(big_query)
    item_bytes = max(entry.nbytes for entry in probe.recache.entries())
    limit = int(item_bytes * 1.5)

    config = ReCacheConfig(
        shard_count=shard_count,
        cache_size_limit=limit,
        admission_sample_records=50,
        adaptive_admission=False,
    )
    engine = QueryEngine(config)
    engine.register_csv("serve", _serving_dataset(rows, seed), SERVE_SCHEMA)
    with EngineServer(engine, max_workers=shard_count) as server:
        runner = ConcurrentWorkloadRunner(server, clients=clients, seed=seed)
        runner.run_batched(
            pool,
            label="borrowing",
            queries_per_client=queries_per_client,
            batch_size=5,
            zipf_s=1.3,
        )
    stats = engine.recache.stats
    total = engine.recache.total_bytes
    return {
        "item_bytes": item_bytes,
        "global_limit": limit,
        "shard_share": limit // shard_count,
        "shard_count": shard_count,
        "item_exceeds_share": item_bytes > limit // shard_count,
        "borrowed_admissions": stats.extras.get("borrowed_admissions", 0),
        "cross_shard_rounds": stats.extras.get("cross_shard_rounds", 0),
        "admitted": engine.recache.get_exact("serve", big_predicate) is not None
        or stats.extras.get("borrowed_admissions", 0) > 0,
        "budget_ok": total <= limit
        and total == sum(entry.nbytes for entry in engine.recache.entries()),
    }
