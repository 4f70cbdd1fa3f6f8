"""Run one benchmark workload and print its metrics as the last output line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_explore --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced timed window.
``--trace 1`` runs that window, then a second one with the layer tracer
installed, and prints the per-layer metrics of the traced window (plus the
tracing overhead as traced / untraced throughput).  ``--smoke`` shrinks every
input so a workload finishes in seconds (see ``selftest.py``).

The program is imported from ``src/`` next to this directory.  Generated data
lives in ``.bench_out/`` under the repository root while the run lasts; the
run record (configuration, host, decision counters, probe timings) and, for
traced runs, the spans are left there as JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import random
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "cache_mb": "MB",
}

#: decision counters copied from the cache statistics of the traced window
CACHE_COUNTS = (
    "lookups",
    "subsumption_hits",
    "misses",
    "admissions_eager",
    "admissions_lazy",
    "admissions_skipped",
    "lazy_upgrades",
    "layout_switches",
    "evictions",
)


def percentile(latencies: list[float], failures: int, fraction: float) -> float:
    """Nearest-rank percentile; a failed query counts as an infinite latency."""
    ordered = sorted(latencies) + [math.inf] * failures
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def end_to_end(workload, window) -> dict:
    from scenarios import MB

    values = {
        "setup_s": statistics.median(workload.setup_times),
        "queries_per_s": window.queries_per_s,
        "latency_p50_ms": percentile(window.latencies, window.failures, 0.50) * 1000.0,
        "latency_p95_ms": percentile(window.latencies, window.failures, 0.95) * 1000.0,
        "cache_mb": statistics.median(window.cache_bytes) / MB,
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}


def per_layer(tracer, traced, untraced) -> dict:
    from layertrace import LAYERS, SESSION
    from scenarios import MB

    self_times = tracer.self_times()
    session = tracer.session_total()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        prefix = {"executor": "executor.self", SESSION: "session.unattributed"}.get(layer, layer)
        put(f"{prefix}_s", self_times[layer], "s")
        put(f"{prefix}_share", 100.0 * self_times[layer] / session if session else 0.0, "%")
    put("session.execute_s", session, "s")
    put("formats.records_scanned", tracer.records_scanned, "count")
    put("layouts.built_mb", tracer.built_bytes / MB, "MB")
    stats = traced.stats
    for name in CACHE_COUNTS:
        put(f"cache.{name}", stats[name], "count")
    hits = stats["exact_hits"] + stats["subsumption_hits"]
    served = hits + stats["misses"]
    put("cache.hit_ratio", hits / served if served else 0.0, "ratio")
    put("cache.evicted_mb", stats["evicted_bytes"] / MB, "MB")
    put("server.queue_wait_s", traced.queue_wait, "s")
    put("server.peak_queue_depth", traced.peak_queue_depth, "count")
    put("trace.queries_per_s", traced.queries_per_s, "1/s")
    put("trace.qps_ratio", traced.queries_per_s / untraced.queries_per_s, "ratio")
    return metrics


def run(args, data_dir: Path) -> tuple[dict, dict]:
    import scenarios
    from layertrace import LAYERS, LayerTracer

    probe_before = scenarios.probe_ms()
    workload = scenarios.WORKLOADS[args.workload](data_dir, args.seed, args.smoke)
    tracer = None
    try:
        workload.set_up()
        untraced = scenarios.Window()
        workload.window(args.seconds, untraced)
        windows = [untraced]
        if args.trace:
            tracer = LayerTracer()
            tracer.install()
            traced = scenarios.Window()
            try:
                tracer.enabled = True
                workload.window(args.seconds, traced)
            finally:
                tracer.uninstall()
            windows.append(traced)
    finally:
        workload.close()
    probe_after = scenarios.probe_ms()

    executed = [item for window in windows for item in window.executed]
    checked, mismatches, details = scenarios.check_results(
        workload, executed, scenarios.CHECK_SAMPLES[args.workload], random.Random(args.seed)
    )
    attempted = sum(window.attempted for window in windows)
    failed = sum(window.failures for window in windows) + mismatches
    if args.trace:
        metrics = per_layer(tracer, traced, untraced)
    else:
        metrics = end_to_end(workload, untraced)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    stats = untraced.stats
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "config": dataclasses.asdict(workload.config),
        "config_fields_dropped": workload.dropped_config,
        "latency_samples": len(untraced.latencies),
        "setup_times_s": workload.setup_times,
        "probe_ms": {"before": probe_before, "after": probe_after},
        "decisions": {
            "admissions_eager": stats["admissions_eager"],
            "admissions_lazy": stats["admissions_lazy"],
            "lazy_upgrades": stats["lazy_upgrades"],
            "layout_switches": stats["layout_switches"],
            "evictions": stats["evictions"],
            "missing_queries": stats["misses"],
        },
        "result_check": {"checked": checked, "mismatches": mismatches, "details": details},
        "errors": [error for window in windows for error in window.errors][:20],
    }
    if tracer is not None:
        self_times = tracer.self_times()
        session = tracer.session_total()
        layer_sum = sum(self_times[layer] for layer in LAYERS)
        record["trace"] = {
            "spans": len(tracer.spans),
            "layer_sum_s": layer_sum,
            "session_execute_s": session,
            "sum_error": abs(layer_sum - session) / session if session else 0.0,
        }
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    return result, record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cold_explore", "hot_serve", "evict_churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pinned = sorted(name for name in os.environ if name.startswith("RECACHE_"))
    if pinned:
        print(f"refusing to run: {', '.join(pinned)} would change the measured program", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    OUT.mkdir(exist_ok=True)
    data_dir = Path(tempfile.mkdtemp(prefix="data-", dir=OUT))
    try:
        result, record = run(args, data_dir)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str))
    print("run record: " + json.dumps(record, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
