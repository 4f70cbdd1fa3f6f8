"""The benchmark's workloads: inputs, set-up, timed windows and result check.

Every workload is a closed loop (each client waits for its answer before it
sends the next query) through the public ``EngineServer`` / ``QueryEngine``
API.  Data files and queries are generated from the workload seed before any
clock starts; the program only ever sees the generated files and queries.
See ``README.md`` next to this file for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import random
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro import EngineServer, QueryEngine, ReCacheConfig
from repro.workloads.queries import spj_tpch_workload, symantec_mixed_workload
from repro.workloads.symantec import (
    SYMANTEC_CSV_SCHEMA,
    SYMANTEC_JSON_SCHEMA,
    write_symantec_dataset,
)
from repro.workloads.tpch import TPCH_SCHEMAS, write_tpch_dataset

#: The library defaults, written out so that a change of a default (or an
#: environment variable read by a default factory) cannot silently change
#: which program is measured.  Only the deployment settings ``cache_size_limit``
#: and ``max_workers`` are overridden per workload.  A field the library no
#: longer has is dropped and reported in the run record.
PINNED_CONFIG = {
    "cache_size_limit": None,
    "eviction_policy": "recache",
    "admission_threshold": 0.10,
    "admission_sample_records": 200,
    "adaptive_admission": True,
    "admission_extrapolation": True,
    "always_lazy": False,
    "caching_enabled": True,
    "default_nested_layout": "parquet",
    "default_flat_layout": "columnar",
    "layout_selection": True,
    "row_column_selection": True,
    "timing_sample_rate": 0.01,
    "enable_subsumption": True,
    "use_rtree_index": True,
    "recompute_benefit": True,
    "upgrade_lazy_on_reuse": True,
    "vectorized_execution": True,
    "batch_size": 1024,
    "result_format": "rows",
    "shard_count": 1,
    "max_workers": 4,
    "execution_mode": "threads",
    "process_workers": None,
    "max_pending_queries": 256,
    "faults": None,
    "default_deadline": None,
    "scan_retry_limit": 2,
    "scan_retry_backoff": 0.005,
    "breaker_failure_threshold": 3,
    "breaker_cooldown": 30.0,
    "shed_pressure_threshold": None,
    "shed_pressure_window": 64,
    "seed": 7,
}

#: number of full set-ups per run; ``setup_s`` is their median
SETUPS = 3

#: Input sizes as (JSON objects, CSV rows) or TPC-H scale factor, full and
#: smoke size.  Smaller than the paper-style sizes on purpose: more, shorter
#: queries per timed window make the run-to-run spread smaller (see README).
COLD_RECORDS = {False: (2000, 6000), True: (400, 1200)}
EVICT_RECORDS = {False: (1000, 3000), True: (400, 1200)}
EVICT_BUDGET = {False: 2_500_000, True: 1_000_000}
HOT_SCALE = {False: 0.003, True: 0.001}

#: Query seeds.  Queries come from fixed generator seeds so that every run
#: asks the same questions; the workload seed generates the data files and
#: the order of zipfian draws.  With per-seed query sets the run-to-run
#: spread of cold_explore throughput was 20% (IQR over five seeds) against
#: 5% at one seed, because which ranges subsume which decides the misses.
COLD_QUERY_SEED = 1000
HOT_POOL_SEED = 7
EVICT_POOL_SEED = 2000

#: result-check sample size per run
CHECK_SAMPLES = {"cold_explore": 12, "hot_serve": 12, "evict_churn": 16}

MB = 1_000_000


def pinned_config(**deployment) -> tuple[ReCacheConfig, list[str]]:
    """``ReCacheConfig`` from :data:`PINNED_CONFIG` plus deployment settings."""
    known = {f.name for f in dataclasses.fields(ReCacheConfig)}
    values = {**PINNED_CONFIG, **deployment}
    dropped = sorted(name for name in values if name not in known)
    return ReCacheConfig(**{k: v for k, v in values.items() if k in known}), dropped


def probe_ms() -> float:
    """Median time of a fixed pure-Python loop, to spot a slow host phase."""
    times = []
    for _ in range(7):
        started = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append(perf_counter() - started)
    return sorted(times)[3] * 1000.0


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
def symantec_files(directory: Path, seed: int, records: tuple[int, int]) -> dict[str, Path]:
    """The Symantec-style files: ``records`` = (JSON objects, CSV rows)."""
    return write_symantec_dataset(directory / "symantec", *records, seed=seed)


def register_symantec(engine: QueryEngine, files: dict[str, Path]) -> None:
    engine.register_json("spam_json", files["spam_json"], SYMANTEC_JSON_SCHEMA)
    engine.register_csv("spam_csv", files["spam_csv"], SYMANTEC_CSV_SCHEMA)


def symantec_queries(count: int, seed: int) -> list:
    """The Symantec mix: 10% joins of CSV with JSON, 60% of the rest on the
    JSON file, 30% of those allowed nested attributes."""
    return symantec_mixed_workload(
        count, nested_fraction=0.3, json_fraction=0.6, join_fraction=0.1, seed=seed
    )


def zipf_draws(pool_size: int, rng: random.Random):
    """Endless zipfian (s=1) pool indexes, drawn a round at a time.

    Each round holds ``4 * pool_size`` draws placed by systematic sampling of
    the zipf CDF (one random offset per round) and then shuffled, so every
    round carries each rank within one draw of its expected share.
    """
    weights = [1.0 / (rank + 1) for rank in range(pool_size)]
    total = sum(weights)
    cumulative = []
    running = 0.0
    for weight in weights:
        running += weight / total
        cumulative.append(running)
    per_round = 4 * pool_size
    while True:
        offset = rng.random()
        round_draws = []
        rank = 0
        for step in range(per_round):
            point = (step + offset) / per_round
            while rank < pool_size - 1 and cumulative[rank] < point:
                rank += 1
            round_draws.append(rank)
        rng.shuffle(round_draws)
        yield from round_draws


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------
@dataclass
class Window:
    """What one timed window observed."""

    latencies: list = field(default_factory=list)
    busy_seconds: float = 0.0
    failures: int = 0
    errors: list = field(default_factory=list)
    executed: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    cache_bytes: list = field(default_factory=list)
    queue_wait: float = 0.0
    peak_queue_depth: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failures

    @property
    def queries_per_s(self) -> float:
        return len(self.latencies) / self.busy_seconds

    def add_stats(self, before: dict, after: dict) -> None:
        for key, value in after.items():
            self.stats[key] = self.stats.get(key, 0) + value - before.get(key, 0)


def _stats(engine: QueryEngine) -> dict:
    stats = dataclasses.asdict(engine.cache_stats)
    stats.pop("extras", None)
    return stats


def serve_closed_loop(
    server: EngineServer, pool: list, draws, clients: int, seconds: float, window: Window
) -> None:
    """``clients`` threads take the next draw until ``seconds`` have passed
    or the draws run out; each waits for its answer before the next draw."""
    lock = threading.Lock()
    stop_at = perf_counter() + seconds

    def ask(query) -> None:
        started = perf_counter()
        try:
            report = server.submit(query).result()
        except Exception as exc:  # a failed query counts against attempted
            with lock:
                window.failures += 1
                window.errors.append(f"{query.label}: {type(exc).__name__}: {exc}")
            return
        latency = perf_counter() - started
        with lock:
            window.latencies.append(latency)
            window.executed.append((query, report.results))
            window.queue_wait += report.queue_wait_time
            window.peak_queue_depth = max(window.peak_queue_depth, report.queue_depth)

    def client() -> None:
        while perf_counter() < stop_at:
            with lock:
                index = next(draws, None)
            if index is None:
                return
            ask(pool[index])

    gc.collect()
    before = _stats(server.engine)
    started = perf_counter()
    threads = [threading.Thread(target=client, name=f"bench-client-{i}") for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window.busy_seconds += perf_counter() - started
    window.add_stats(before, _stats(server.engine))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
class Workload:
    """Common shape: generate inputs, set up (timed), serve windows (timed)."""

    name = ""
    clients = 1

    def __init__(self, directory: Path, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.config, self.dropped_config = pinned_config(**self.deployment())
        self.setup_times: list[float] = []
        self.server: EngineServer | None = None

    def deployment(self) -> dict:
        return {"max_workers": self.clients}

    def register(self, engine: QueryEngine) -> None:
        raise NotImplementedError

    def warm(self, server: EngineServer) -> None:
        """Cache warm-up that belongs to set-up (none by default)."""

    def build(self) -> None:
        """One timed set-up from scratch: engine, sources, server, warm-up."""
        self.close()  # the previous engine is freed here, untimed
        gc.collect()
        started = perf_counter()
        engine = QueryEngine(self.config)
        self.register(engine)
        self.server = EngineServer(engine, max_workers=self.clients)
        self.warm(self.server)
        self.setup_times.append(perf_counter() - started)

    def set_up(self) -> None:
        """Set-up before the first window (none by default: see ``window``)."""

    def window(self, seconds: float, window: Window) -> None:
        raise NotImplementedError

    def reference_engine(self) -> QueryEngine:
        config, _ = pinned_config(caching_enabled=False)
        engine = QueryEngine(config)
        self.register(engine)
        return engine

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server = None


class ColdExplore(Workload):
    """Fresh engines answering Symantec queries: the raw-data miss path."""

    name = "cold_explore"

    def __init__(self, directory: Path, seed: int, smoke: bool) -> None:
        super().__init__(directory, seed, smoke)
        self.files = symantec_files(directory, seed, COLD_RECORDS[smoke])
        self.pass_size = 20 if smoke else 80

    def register(self, engine: QueryEngine) -> None:
        register_symantec(engine, self.files)

    def window(self, seconds: float, window: Window) -> None:
        """Passes, each on a freshly set-up engine, until ``seconds`` of serving.

        Every pass asks the same queries.  A faster host fits more passes
        into the window, and repeating one pass keeps the mix of queries the
        same however many passes fit (with a new query set per pass, latency
        p50 spread 0.20 to 0.23 over ten seeds).  The window ends on time,
        inside a pass, so a slower or faster host shifts the window's end
        smoothly instead of adding or dropping a whole pass.  ``cache_mb``
        comes from the passes that ran to their end.
        """
        queries = symantec_queries(self.pass_size, seed=COLD_QUERY_SEED)
        spent = 0.0
        while spent < seconds:
            self.build()
            busy, asked = window.busy_seconds, window.attempted
            serve_closed_loop(
                self.server, queries, iter(range(len(queries))), 1, seconds - spent, window
            )
            spent += window.busy_seconds - busy
            if window.attempted - asked == len(queries) or not window.cache_bytes:
                window.cache_bytes.append(self.server.cached_bytes())
            self.close()


class HotServe(Workload):
    """Two clients on a warm TPC-H cache: the hit path under concurrency."""

    name = "hot_serve"
    clients = 2

    def __init__(self, directory: Path, seed: int, smoke: bool) -> None:
        super().__init__(directory, seed, smoke)
        self.files = write_tpch_dataset(directory / "tpch", HOT_SCALE[smoke], seed=seed)
        self.pool = spj_tpch_workload(10 if smoke else 30, seed=HOT_POOL_SEED)
        self.draws = zipf_draws(len(self.pool), random.Random(seed))

    def register(self, engine: QueryEngine) -> None:
        for table, path in self.files.items():
            engine.register_csv(table, path, TPCH_SCHEMAS[table])

    def warm(self, server: EngineServer) -> None:
        # Twice: the first pass admits, the second upgrades lazy entries.
        for _ in range(2):
            for query in self.pool:
                server.execute(query)

    def set_up(self) -> None:
        """:data:`SETUPS` full set-ups; the windows run on the last one."""
        for _ in range(SETUPS):
            self.build()

    def window(self, seconds: float, window: Window) -> None:
        serve_closed_loop(self.server, self.pool, self.draws, self.clients, seconds, window)
        window.cache_bytes.append(self.server.cached_bytes())


class EvictChurn(Workload):
    """One client, zipfian Symantec queries, a working set above the budget."""

    name = "evict_churn"

    #: independent episodes per window, each on a freshly set-up engine
    episodes = 4

    def __init__(self, directory: Path, seed: int, smoke: bool) -> None:
        super().__init__(directory, seed, smoke)
        self.files = symantec_files(directory, seed, EVICT_RECORDS[smoke])
        self.pool = symantec_queries(30 if smoke else 120, seed=EVICT_POOL_SEED)
        self.warm_queries = 10 if smoke else 60
        self.draws = None

    def deployment(self) -> dict:
        return {"max_workers": self.clients, "cache_size_limit": EVICT_BUDGET[self.smoke]}

    def register(self, engine: QueryEngine) -> None:
        register_symantec(engine, self.files)

    def warm(self, server: EngineServer) -> None:
        # The opening draws of the episode fill the budget; serving continues
        # the same draw sequence.
        for _ in range(self.warm_queries):
            server.execute(self.pool[next(self.draws)])

    def window(self, seconds: float, window: Window) -> None:
        """:attr:`episodes` equal slices of ``seconds``, each on a fresh engine.

        Which entries survive the first evictions steers how many later
        queries hit, so one long episode settles into one of a few regimes;
        averaging independent episodes keeps that choice from deciding the
        whole run.  Episode ``n`` of every window replays the same draws.
        """
        for number in range(self.episodes):
            self.draws = zipf_draws(len(self.pool), random.Random(self.seed * 100 + number))
            self.build()
            serve_closed_loop(
                self.server, self.pool, self.draws, self.clients, seconds / self.episodes, window
            )
            window.cache_bytes.append(self.server.cached_bytes())
            self.close()


WORKLOADS = {cls.name: cls for cls in (ColdExplore, HotServe, EvictChurn)}


# ---------------------------------------------------------------------------
# Result check
# ---------------------------------------------------------------------------
def _same_value(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def same_results(got, expected) -> bool:
    """Row lists equal up to row order and float rounding."""
    if len(got) != len(expected):
        return False
    key = lambda row: sorted((k, repr(v)) for k, v in row.items())  # noqa: E731
    for left, right in zip(sorted(got, key=key), sorted(expected, key=key)):
        if left.keys() != right.keys():
            return False
        if not all(_same_value(left[k], right[k]) for k in left):
            return False
    return True


def check_results(workload: Workload, executed: list, samples: int, rng: random.Random) -> tuple[int, int, list]:
    """Compare a seeded sample of executed queries with an uncached engine.

    Returns ``(checked, mismatches, details)``; a reference query that raises
    counts as a mismatch.
    """
    if not executed:
        return 0, 0, []
    picked = rng.sample(range(len(executed)), min(samples, len(executed)))
    reference = workload.reference_engine()
    expected_by_query: dict[str, list] = {}
    mismatches = 0
    details = []
    for index in sorted(picked):
        query, results = executed[index]
        signature = query.signature()
        try:
            if signature not in expected_by_query:
                expected_by_query[signature] = reference.execute(query).results
        except Exception as exc:  # counted, never hidden
            mismatches += 1
            details.append(f"{query.label}: reference raised {type(exc).__name__}: {exc}")
            continue
        if not same_results(results, expected_by_query[signature]):
            mismatches += 1
            details.append(f"{query.label}: results differ from the uncached engine")
    return len(picked), mismatches, details
