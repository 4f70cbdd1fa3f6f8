"""Chaos-mode parity fuzzing: seeded fault schedules against the full stack.

Each schedule activates a deterministic :class:`~repro.faults.FaultPlan`
(seeded, so any failure replays exactly) and pushes a small query batch
through an :class:`~repro.engine.server.EngineServer`.  The contract under
chaos — the tentpole's acceptance bar — is that every query ends in exactly
one of two states:

* a **bit-identical result** (vs. a fault-free caching-disabled baseline run
  with the same pipeline settings), or
* a **typed error** (:class:`~repro.core.errors.ReCacheError` subclass),

and never a hang (every ``future.result`` is bounded), never a stranded
future, and never a leaked budget reservation or occupancy byte (checked
after every schedule).

The default run executes ``RECACHE_CHAOS_SCHEDULES`` (220) schedules across
five fault classes — raw-scan faults, cached-layout corruption, admission
budget exhaustion, serving-worker-thread crashes, and a mixed class
combining them with deadlines.  When ``RECACHE_CHAOS_REPORT`` names a file,
a JSON summary of schedules, fault mix and outcome counts is written there
(the CI chaos-suite step archives it).
"""

from __future__ import annotations

import json
import os
import random
from concurrent.futures import TimeoutError as FutureTimeoutError

import pytest

from repro import EngineServer, Query, ReCacheConfig
from repro.core.errors import ReCacheError
from repro.engine.expressions import AggregateSpec, FieldRef, RangePredicate
from repro.engine.query import TableRef
from repro.faults import runtime as faults

from tests.conftest import build_engine
from tests.test_batch_execution import _canonical


def _match(served_rows: list[dict], expected: list[dict]) -> bool:
    """Parity modulo projection width.

    The serving tier may return a *wider* projection for a bare select than a
    standalone execution does (group execution unions the fields of the
    queries it serves together) — the values of the requested fields must
    still be bit-identical, so compare after projecting the served rows onto
    the expected field set.
    """
    if not expected:
        return not served_rows
    fields = list(expected[0])
    projected = [{name: row[name] for name in fields} for row in served_rows]
    return _canonical(projected) == _canonical(expected)

CHAOS_SEED = 20260808
CHAOS_SCHEDULES = int(os.environ.get("RECACHE_CHAOS_SCHEDULES", "220"))
RESULT_TIMEOUT = 30.0

#: module-level outcome accumulator, dumped by the session report fixture.
_OUTCOMES: dict = {
    "schedules": 0,
    "ok": 0,
    "typed_errors": {},
    "fault_classes": {},
}


# ---------------------------------------------------------------------------
# Schedule generation (pure function of the schedule index)
# ---------------------------------------------------------------------------
def _scan_raw_spec(rng: random.Random) -> str:
    kind = rng.choice(["io_error", "short_read", "latency"])
    if kind == "latency":
        return f"scan.raw:latency:rate=0.2,limit={rng.randint(1, 8)},delay=0.001"
    rate = rng.choice([1.0, 0.5, 0.05])
    limit = rng.randint(1, 3)
    after = rng.choice([0, 0, rng.randint(1, 200)])
    return f"scan.raw:{kind}:rate={rate},limit={limit},after={after}"


def _scan_layout_spec(rng: random.Random) -> str:
    kind = rng.choice(["corrupt", "corrupt", "latency"])
    if kind == "latency":
        return f"scan.layout:latency:rate=0.3,limit={rng.randint(1, 5)},delay=0.001"
    rate = rng.choice([1.0, 0.5])
    return f"scan.layout:corrupt:rate={rate},limit={rng.randint(1, 2)}"


def _budget_spec(rng: random.Random) -> str:
    rate = rng.choice([1.0, 0.5])
    return f"budget.reserve:budget_exhausted:rate={rate}"


def _worker_spec(rng: random.Random) -> str:
    return f"server.worker:worker_crash:rate={rng.choice([1.0, 0.5])},limit={rng.randint(1, 2)}"


FAULT_CLASSES = {
    "scan-raw": lambda rng: _scan_raw_spec(rng),
    "scan-layout": lambda rng: _scan_layout_spec(rng),
    "budget": lambda rng: _budget_spec(rng),
    "worker": lambda rng: _worker_spec(rng),
    "mixed": lambda rng: ";".join(
        rng.sample(
            [_scan_raw_spec(rng), _scan_layout_spec(rng), _budget_spec(rng), _worker_spec(rng)],
            rng.randint(2, 3),
        )
    ),
}


#: Per-class seed index.  Pinned rather than derived from the sorted class
#: names so that adding or removing a class never reseeds the others: these
#: are the positions the classes held in the six-class suite, so every
#: schedule index that ran there replays exactly.
CLASS_SEED_INDEX = {"budget": 0, "mixed": 1, "scan-layout": 3, "scan-raw": 4, "worker": 5}


def _chaos_queries(rng: random.Random, with_deadlines: bool) -> list[Query]:
    low = round(rng.uniform(0.0, 80.0), 1)
    width = round(rng.uniform(10.0, 120.0), 1)
    price_low = rng.uniform(0.0, 100000.0)
    queries = [
        Query.select_aggregate(
            "flat",
            RangePredicate("value", low, low + width),
            [AggregateSpec("sum", FieldRef("score")), AggregateSpec("count", FieldRef("id"))],
            label="chaos-flat-agg",
        ),
        Query(
            tables=[TableRef("flat", RangePredicate("value", low, low + width / 2))],
            label="chaos-flat-rows",
        ),
        Query.select_aggregate(
            "orders",
            RangePredicate("o_totalprice", price_low, 1e6),
            [
                AggregateSpec("sum", FieldRef("lineitems.l_quantity")),
                AggregateSpec("count", FieldRef("o_orderkey")),
            ],
            label="chaos-orders-agg",
        ),
    ]
    if with_deadlines and rng.random() < 0.3:
        # A tight-but-feasible deadline: either met (parity) or DeadlineExceeded
        # (typed) — both legal chaos outcomes.
        victim = rng.randrange(len(queries))
        queries[victim] = Query(
            tables=queries[victim].tables,
            aggregates=queries[victim].aggregates,
            label=queries[victim].label,
            deadline=0.05,
        )
    return queries


def _chaos_config(rng: random.Random) -> ReCacheConfig:
    return ReCacheConfig(
        shard_count=rng.choice([1, 2]),
        cache_size_limit=rng.choice([None, 64_000]),
        adaptive_admission=rng.random() < 0.3,
        vectorized_execution=rng.random() < 0.5,
        scan_retry_limit=2,
        scan_retry_backoff=0.0005,
        max_workers=2,
    )


# ---------------------------------------------------------------------------
# Fault-free baseline (same pipeline settings, caching disabled)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def baseline(dataset_dir):
    engines = {}
    cache: dict = {}

    def run(query: Query, vectorized: bool):
        key = (query.signature(), vectorized)
        if key not in cache:
            if vectorized not in engines:
                engines[vectorized] = build_engine(
                    dataset_dir,
                    ReCacheConfig(caching_enabled=False, vectorized_execution=vectorized),
                )
            cache[key] = _canonical(engines[vectorized].execute(query).results)
        return cache[key]

    return run


@pytest.fixture(scope="module", autouse=True)
def chaos_report():
    """Dump the outcome summary when RECACHE_CHAOS_REPORT names a file."""
    yield
    path = os.environ.get("RECACHE_CHAOS_REPORT")
    if path:
        with open(path, "w") as handle:
            json.dump(_OUTCOMES, handle, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# The schedule runner
# ---------------------------------------------------------------------------
def _run_schedule(dataset_dir, baseline, fault_class: str, index: int) -> None:
    # Integer-only seed derivation: string hashing is randomized per process
    # and would break replayability across runs.
    class_index = CLASS_SEED_INDEX[fault_class]
    rng = random.Random(CHAOS_SEED * 1_000_003 + class_index * 100_003 + index)
    spec = FAULT_CLASSES[fault_class](rng)
    seed = rng.randrange(1 << 30)
    config = _chaos_config(rng)
    engine = build_engine(dataset_dir, config)
    queries = _chaos_queries(rng, with_deadlines=fault_class == "mixed")
    context = f"schedule {fault_class}#{index} spec={spec!r} seed={seed}"

    # Materialize the fault-free baselines BEFORE activating the plan: the
    # plan is process-global, so a lazy baseline execution inside the chaos
    # window would be fault-injected itself.
    for query in queries:
        baseline(query, config.vectorized_execution)

    with EngineServer(engine, max_workers=2) as server:
        with faults.activate(spec, seed=seed):
            futures = server.submit_batch(queries)
            for query, future in zip(queries, futures):
                try:
                    report = future.result(timeout=RESULT_TIMEOUT)
                except ReCacheError as exc:
                    _OUTCOMES["typed_errors"][type(exc).__name__] = (
                        _OUTCOMES["typed_errors"].get(type(exc).__name__, 0) + 1
                    )
                except FutureTimeoutError:
                    pytest.fail(f"HANG: {query.label} never resolved under {context}")
                else:
                    _OUTCOMES["ok"] += 1
                    assert _match(
                        report.results, baseline(query, config.vectorized_execution)
                    ), f"parity violation on {query.label} under {context}"

        # Also run the batch once more fault-free on the same (possibly
        # quarantine-scarred) cache: containment must leave a healthy engine.
        # Deadlines are stripped — only fault pressure may miss them.
        replay = [
            Query(tables=q.tables, joins=q.joins, aggregates=q.aggregates,
                  group_by=q.group_by, label=q.label)
            for q in queries
        ]
        for query, report in zip(replay, server.serve_all(replay, timeout=RESULT_TIMEOUT)):
            assert _match(
                report.results, baseline(query, config.vectorized_execution)
            ), f"post-fault parity violation on {query.label} under {context}"

    # No stranded futures / leaked backpressure capacity.
    assert server.queue_depth == 0, f"backpressure capacity leaked under {context}"
    # No leaked budget reservation; occupancy equals resident entry bytes.
    budget = getattr(engine.recache, "budget", None)
    if budget is not None:
        assert budget.reserved == 0, f"leaked budget reservation under {context}"
    resident = sum(entry.nbytes for entry in engine.recache.entries())
    assert engine.recache.total_bytes == resident, (
        f"occupancy {engine.recache.total_bytes} != resident {resident} under {context}"
    )

    _OUTCOMES["schedules"] += 1
    _OUTCOMES["fault_classes"][fault_class] = (
        _OUTCOMES["fault_classes"].get(fault_class, 0) + 1
    )


def _class_budget() -> dict[str, int]:
    """Split the schedule budget across the five fault classes."""
    per = CHAOS_SCHEDULES // len(FAULT_CLASSES)
    counts = {name: per for name in FAULT_CLASSES}
    counts["mixed"] += CHAOS_SCHEDULES - per * len(FAULT_CLASSES)
    return counts


@pytest.mark.parametrize("fault_class", sorted(FAULT_CLASSES))
def test_chaos_schedules(dataset_dir, baseline, fault_class):
    for index in range(_class_budget()[fault_class]):
        _run_schedule(dataset_dir, baseline, fault_class, index)


def test_schedule_budget_meets_acceptance_bar():
    assert sum(_class_budget().values()) == CHAOS_SCHEDULES >= 200
    # every class has its own pinned seed index
    assert sorted(CLASS_SEED_INDEX) == sorted(FAULT_CLASSES)
    assert len(set(CLASS_SEED_INDEX.values())) == len(CLASS_SEED_INDEX)

