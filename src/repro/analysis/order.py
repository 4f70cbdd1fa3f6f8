"""The declared lock partial order and the heavy-work call denylist.

Lock ranks must strictly increase along any nested acquisition chain:
server lifecycle first, then sharded-coordinator bookkeeping locks, then
per-shard cache locks, then leaf counter/budget locks.  Two locks of the
same rank must never be held together (there is no safe tiebreak), which
is exactly how shard-lock pairs would deadlock — the cross-shard
eviction round therefore holds at most one shard lock at a time.

Modules outside the core (e.g. the lint self-test corpus) can extend the
table with a module-level ``RECHECK_LOCK_RANKS = {"Class._attr": rank}``
literal, which the analyzer merges in.
"""

from __future__ import annotations

#: (class name, lock attribute) -> rank; lower ranks are acquired first.
LOCK_RANKS: dict[tuple[str, str], int] = {
    ("EngineServer", "_lifecycle"): 0,
    ("ShardedReCache", "_sequence_lock"): 10,
    ("ShardedReCache", "_balance_lock"): 11,
    ("ShardedReCache", "_lookup_lock"): 12,
    ("ReCache", "_lock"): 20,
    ("AtomicCounter", "_lock"): 30,
    ("SharedBudget", "_lock"): 30,
    # Leaf locks of the failure-containment layer: nothing is acquired
    # under them, and they are never held while taking a cache lock.
    ("SourceCircuitBreaker", "_lock"): 30,
    ("_InjectorState", "_lock"): 30,
}

#: Lock attribute names whose rank is recoverable even when acquired on a
#: receiver other than ``self`` (e.g. ``with shard._lock:`` inside the
#: sharded coordinator).  ``_lock`` maps to the per-shard ReCache tier —
#: the only cross-object ``_lock`` acquisition in the tree.
LOCK_RANKS_BY_ATTR: dict[str, int] = {
    "_lifecycle": 0,
    "_backpressure": 0,
    "_sequence_lock": 10,
    "_balance_lock": 11,
    "_lookup_lock": 12,
    "_lock": 20,
}

#: Plain function names whose calls are forbidden while holding a lock.
HEAVY_CALL_NAMES: frozenset[str] = frozenset(
    {"build_layout", "convert_layout", "stripe_records", "open", "sleep", "print"}
)

#: Attribute (method) names whose calls are forbidden while holding a lock.
HEAVY_CALL_ATTRS: frozenset[str] = frozenset(
    {
        "convert",
        "scan",
        "scan_batches",
        "scan_range_filtered",
        "range_filtered_batch",
        "read_record_rows",
        "sleep",
        "open",
        "execute",
        "execute_group",
    }
)
