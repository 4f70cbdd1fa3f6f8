"""Concurrent serving throughput: queries/sec vs worker threads and shards.

Not a paper figure — this measures the serving layer added on top of the
reproduction: an :class:`~repro.engine.server.EngineServer` thread pool in
front of one shared :class:`~repro.core.sharded_cache.ShardedReCache`, driven
by closed-loop zipfian clients.  Per-request service includes a simulated
response-delivery wait (see ``io_wait_ms`` in the experiment driver) that the
worker pool overlaps; with it at zero the bench reduces to pure
lock-contention measurement.
"""

from repro.bench.concurrency_experiments import concurrent_throughput_experiment
from repro.bench.reporting import format_table


def test_throughput_scales_with_worker_threads(run_experiment):
    result = run_experiment(
        concurrent_throughput_experiment,
        thread_counts=(1, 2, 4),
        shard_counts=(4,),
    )
    print(format_table(result["thread_rows"], title="Throughput vs worker threads"))
    speedups = result["speedup_vs_single_thread"]
    print(
        "speedup vs 1 thread: "
        + ", ".join(f"{t} threads = {s:.2f}x" for t, s in sorted(speedups.items()))
    )
    # The workload must actually be cache-hit-heavy for the scaling claim to
    # mean anything.
    for row in result["thread_rows"]:
        assert row["hit_rate"] >= 0.9, row
    # Four workers overlap the per-request delivery waits of four requests;
    # required scaling is >= 2x over a single worker.
    assert speedups[4] >= 2.0, speedups
    assert speedups[2] >= 1.3, speedups


def test_throughput_across_shard_counts(run_experiment):
    result = run_experiment(
        concurrent_throughput_experiment,
        thread_counts=(4,),
        shard_counts=(1, 4, 8),
    )
    print(format_table(result["shard_rows"], title="Throughput vs shard count (4 workers)"))
    for row in result["shard_rows"]:
        # Sharding must never lose entries or corrupt the byte accounting,
        # and every configuration must sustain the hit-heavy workload.
        assert row["budget_ok"], row
        assert row["hit_rate"] >= 0.9, row
        assert row["queries_per_second"] > 0.0, row
