"""A sharded, thread-safe ReCache for the concurrent serving layer.

:class:`ShardedReCache` partitions cache entries by ``hash(CacheKey)`` across N
independently locked :class:`~repro.core.cache_manager.ReCache` shards.  Each
shard owns its own :class:`~repro.core.subsumption.SubsumptionIndex`, eviction
policy instance (including Greedy-Dual baseline state) and statistics, so the
hot path — an exact-match lookup followed by a cache scan — touches exactly one
shard lock and scales with cores instead of serializing on a single mutex.

Byte budget: the global ``cache_size_limit`` is one shared pool — a
:class:`SharedBudget` tracks the global occupancy (an O(1) read that takes no
shard lock), the hard limit and in-flight admission reservations.  Shards keep
a *nominal* proportional share (``shard_limits``) for accounting, but the
binding constraint is the global limit: a shard admitting an item larger than
its share simply *borrows* global headroom (counted in
``stats.extras["borrowed_admissions"]``), and when no single shard can free
enough space a cross-shard eviction round picks victims across all shards by
the global benefit metric (:func:`repro.core.eviction.choose_global_victims`).
This restores the paper's single-pool Greedy-Dual semantics (Section 5.1,
Algorithm 1): the static split's fragmentation — an item larger than one
shard's share rejected while the cache is mostly empty — cannot happen.

What is and is not atomic:

* exact lookups, admissions, evictions and reuse bookkeeping are atomic *per
  shard* (the entry's home shard lock covers them); a layout *switch* decides
  and installs under the shard lock but performs the conversion itself outside
  it (see :meth:`~repro.core.cache_manager.ReCache.record_reuse`), so a shard
  serving a layout rebuild keeps answering lookups meanwhile;
* a subsumption lookup probes the home shard first and then the other shards
  one at a time — it never holds two shard locks at once, so the candidate set
  is a consistent-per-shard snapshot rather than a global snapshot;
* the query sequence number is issued globally (one atomic increment per
  query) and pushed to every shard, keeping recency stamps comparable across
  shards;
* aggregate ``stats`` are a merged snapshot: per-shard counters are summed at
  read time, and lookup counters (which the wrapper tracks itself, since a
  subsumption probe spans shards) are added on top.

With ``shard_count=1`` the behaviour — entry placement, eviction order,
statistics — is identical to a plain ``ReCache``.
"""

from __future__ import annotations

import threading
import time
import zlib

from repro.core.benefit import benefit_metric
from repro.core.cache_entry import CacheEntry, CacheKey, LayoutObservation
from repro.core.cache_manager import CacheManagerStats, CacheMatch, ReCache
from repro.core.config import ReCacheConfig
from repro.core.eviction import EvictionPolicy, choose_global_victims
from repro.engine.expressions import Expression
from repro.faults import runtime as faults
from repro.layouts.base import CacheLayout


class AtomicCounter:
    """A lock-protected integer counter (CPython has no atomic int add)."""

    __slots__ = ("_lock", "_value")

    GUARDED_BY = {"_value": "_lock"}

    def __init__(self, initial: int = 0) -> None:
        self._lock = threading.Lock()
        self._value = initial

    def add(self, delta: int) -> int:
        with self._lock:
            self._value += delta
            return self._value

    @property
    def value(self) -> int:
        return self._value  # unguarded-read: GIL-atomic int; monitoring path


class SharedBudget(AtomicCounter):
    """The single global byte budget all shards draw from.

    The counter part mirrors the global occupancy (shards feed every byte
    delta into it), and on top of that the budget carries the hard ``limit``
    and in-flight admission *reservations*.  An admission first reserves its
    bytes — which can only succeed while ``occupancy + reserved + nbytes``
    stays within the limit — then installs the entry (occupancy grows) and
    releases the reservation.  Because concurrent admissions on different
    shards each hold a reservation while they install, the global invariant
    ``total_bytes <= cache_size_limit`` holds at every instant without any
    shard ever taking another shard's lock.

    This is what lets a shard *borrow* headroom beyond its proportional share:
    the binding constraint is the global limit, so an item larger than
    ``cache_size_limit / shard_count`` is admissible whenever the cache as a
    whole has room — exactly the fragmentation-free behaviour of the paper's
    single-pool Greedy-Dual eviction (Section 5.1).
    """

    __slots__ = ("limit", "_reserved")

    GUARDED_BY = {"_value": "_lock", "_reserved": "_lock"}

    def __init__(self, limit: int | None = None, initial: int = 0) -> None:
        super().__init__(initial)
        #: the global ``cache_size_limit`` (None = unlimited)
        self.limit = limit
        self._reserved = 0

    def headroom(self) -> int | None:
        """Unreserved bytes left under the limit (None when unlimited)."""
        if self.limit is None:
            return None
        with self._lock:
            return self.limit - self._value - self._reserved

    def deficit_for(self, nbytes: int) -> int:
        """Bytes that must be freed before ``nbytes`` can be reserved."""
        if self.limit is None:
            return 0
        with self._lock:
            return max(0, self._value + self._reserved + nbytes - self.limit)

    def try_reserve(self, nbytes: int) -> bool:
        """Reserve headroom for an admission; False when it would not fit."""
        injector = faults.injector_for("budget.reserve")
        if injector is not None and injector.fires():
            return False  # injected budget exhaustion: admission denied
        with self._lock:
            if self.limit is not None and self._value + self._reserved + nbytes > self.limit:
                return False
            self._reserved += nbytes
            return True

    def release(self, nbytes: int) -> None:
        """Return a reservation (after install, or an abandoned admission)."""
        with self._lock:
            self._reserved -= nbytes

    @property
    def reserved(self) -> int:
        return self._reserved  # unguarded-read: GIL-atomic int; test/monitoring path


def shard_limits(limit: int | None, shard_count: int) -> list[int | None]:
    """Split a global byte budget into proportional per-shard shares.

    The remainder bytes of an uneven division go to the first shards, so the
    shares always sum to exactly ``limit``.  Since the shared-budget protocol
    these are *nominal* shares: enforcement is global (see
    :class:`SharedBudget`), and a shard occupying more than its share is
    simply counted as borrowing.
    """
    if limit is None:
        return [None] * shard_count
    base, remainder = divmod(limit, shard_count)
    return [base + (1 if i < remainder else 0) for i in range(shard_count)]


class ShardedReCache:
    """Thread-safe cache manager presenting the ``ReCache`` API over N shards."""

    #: Lock discipline, machine-checked by ``python -m repro.analysis.lint``.
    #: Per-shard entry state is guarded by each shard's own ``ReCache._lock``;
    #: the wrapper only guards its global sequence and its cross-shard and
    #: lookup counters (a subsumption probe spans shards).
    GUARDED_BY = {
        "_sequence": "_sequence_lock",
        "_cross_shard_rounds": "_balance_lock",
        "_cross_shard_evicted_bytes": "_balance_lock",
        "_lookups": "_lookup_lock",
        "_exact_hits": "_lookup_lock",
        "_subsumption_hits": "_lookup_lock",
        "_misses": "_lookup_lock",
    }

    def __init__(self, config: ReCacheConfig | None = None, shard_count: int | None = None) -> None:
        self.config = config or ReCacheConfig()
        count = shard_count if shard_count is not None else self.config.shard_count
        if count < 1:
            raise ValueError("shard_count must be >= 1")
        self.shard_count = count
        self._budget = SharedBudget(self.config.cache_size_limit)
        limits = shard_limits(self.config.cache_size_limit, count)
        self.shards: list[ReCache] = []
        for limit in limits:
            # Each shard keeps its proportional share in its config (for
            # introspection and borrow accounting), but byte enforcement goes
            # through the shared budget: the global limit is the binding one.
            shard_config = self.config.with_overrides(cache_size_limit=limit)
            self.shards.append(ReCache(shard_config, shared_budget=self._budget))
        self._sequence = 0
        self._sequence_lock = threading.Lock()
        # Cross-shard admission-balancing counters (surfaced via stats.extras).
        self._balance_lock = threading.Lock()
        self._cross_shard_rounds = 0
        self._cross_shard_evicted_bytes = 0
        # Lookup counters live on the wrapper: a subsumption probe spans
        # shards, so no single shard could account for it consistently.
        self._lookup_lock = threading.Lock()
        self._lookups = 0
        self._exact_hits = 0
        self._subsumption_hits = 0
        self._misses = 0

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_for(self, key: CacheKey) -> ReCache:
        """The home shard of a cache key.

        Uses a process-independent hash (CRC32 of the key string) rather than
        ``hash()`` so shard placement is reproducible run-to-run despite
        Python's per-process string-hash randomization.
        """
        return self.shards[zlib.crc32(key.as_string().encode("utf-8")) % self.shard_count]

    def _home(self, source: str, predicate: Expression | None) -> ReCache:
        return self.shard_for(CacheKey.for_select(source, predicate))

    # ------------------------------------------------------------------
    # Query lifecycle
    # ------------------------------------------------------------------
    def begin_query(self) -> int:
        """Issue a global query sequence number and push it to every shard."""
        with self._sequence_lock:
            self._sequence += 1
            sequence = self._sequence
        for shard in self.shards:
            shard.advance_sequence(sequence)
        return sequence

    @property
    def sequence(self) -> int:
        return self._sequence  # unguarded-read: GIL-atomic int; monitoring path

    @property
    def policy(self) -> EvictionPolicy:
        """The first shard's policy (for introspection; each shard has its own)."""
        return self.shards[0].policy

    def eviction_policies(self) -> list[EvictionPolicy]:
        """All per-shard policy instances (e.g. to install offline schedules)."""
        return [shard.policy for shard in self.shards]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def entries(self) -> list[CacheEntry]:
        collected: list[CacheEntry] = []
        for shard in self.shards:
            collected.extend(shard.entries())
        return collected

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    @property
    def total_bytes(self) -> int:
        return self._budget.value

    @property
    def budget(self) -> SharedBudget:
        """The shared global byte budget all shards draw from."""
        return self._budget

    def has_live_entries(self, source: str) -> bool:
        return any(shard.has_live_entries(source) for shard in self.shards)

    def has_hot_entries(self, source: str) -> bool:
        return any(shard.has_hot_entries(source) for shard in self.shards)

    def get_exact(self, source: str, predicate: Expression | None) -> CacheEntry | None:
        return self._home(source, predicate).get_exact(source, predicate)

    @property
    def stats(self) -> CacheManagerStats:
        """A merged snapshot of all shard counters plus the wrapper's lookups."""
        merged = CacheManagerStats()
        for shard in self.shards:
            merged.merge(shard.stats)
        with self._lookup_lock:
            merged.lookups += self._lookups
            merged.exact_hits += self._exact_hits
            merged.subsumption_hits += self._subsumption_hits
            merged.misses += self._misses
        with self._balance_lock:
            if self._cross_shard_rounds:
                merged.extras["cross_shard_rounds"] = (
                    merged.extras.get("cross_shard_rounds", 0) + self._cross_shard_rounds
                )
                merged.extras["cross_shard_evicted_bytes"] = (
                    merged.extras.get("cross_shard_evicted_bytes", 0)
                    + self._cross_shard_evicted_bytes
                )
        return merged

    @property
    def admission(self):
        """The home of the admission controller is per-shard; expose shard 0's
        (the controller is stateless apart from its configured thresholds)."""
        return self.shards[0].admission

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(
        self, source: str, predicate: Expression | None, fields: list[str]
    ) -> CacheMatch | None:
        """Find an exactly matching or subsuming cache for a select operator.

        The exact probe touches only the key's home shard; subsumption probes
        every shard (one lock at a time) because a subsuming entry's key hashes
        to an arbitrary shard.
        """
        if not self.config.caching_enabled:
            return None
        started = time.perf_counter()
        key = CacheKey.for_select(source, predicate)
        home = self.shard_for(key)

        entry = home.exact_match(source, predicate, fields)
        if entry is not None:
            lookup_time = time.perf_counter() - started
            self._count_lookup("exact")
            return CacheMatch(entry=entry, exact=True, lookup_time=lookup_time)

        if self.config.enable_subsumption:
            key_string = key.as_string()
            matches: list[CacheEntry] = []
            for shard in self.shards:
                matches.extend(
                    shard.subsuming_matches(source, predicate, fields, exclude_key=key_string)
                )
            if matches:
                best = min(matches, key=lambda e: e.nbytes)
                lookup_time = time.perf_counter() - started
                self._count_lookup("subsumption")
                return CacheMatch(entry=best, exact=False, lookup_time=lookup_time)

        self._count_lookup("miss")
        return None

    def _count_lookup(self, outcome: str) -> None:
        with self._lookup_lock:
            self._lookups += 1
            if outcome == "exact":
                self._exact_hits += 1
            elif outcome == "subsumption":
                self._subsumption_hits += 1
            else:
                self._misses += 1

    # ------------------------------------------------------------------
    # Cross-shard admission balancing
    # ------------------------------------------------------------------
    def _balance_for(self, nbytes: int, home: ReCache, exclude: CacheEntry | None = None) -> None:
        """Free global headroom for an admission of ``nbytes``, if needed.

        Runs *before* the admission is routed to its home shard, while this
        thread holds no shard lock: the cross-shard eviction round takes one
        shard lock at a time (snapshot, then per-victim eviction), so two
        concurrent over-share admissions on different shards can never
        deadlock.  The round only fires when the home shard cannot cover the
        deficit from its own entries — the common full-cache admission keeps
        the cheap local path (home policy, home lock), and the global round
        is reserved for the case no single shard can absorb (the over-share
        item the static split used to reject).  Items larger than the whole
        budget are left for the home shard to reject; ``exclude`` (a lazy
        entry being upgraded in place) is never chosen as a victim.
        """
        if nbytes <= 0:
            return
        limit = self._budget.limit
        if limit is not None and nbytes > limit:
            return
        deficit = self._budget.deficit_for(nbytes)
        if deficit <= 0:
            return
        locally_evictable = home.total_bytes - (exclude.nbytes if exclude is not None else 0)
        if deficit > locally_evictable:
            self._cross_shard_evict(deficit, exclude=exclude)

    def _cross_shard_evict(self, bytes_to_free: int, exclude: CacheEntry | None = None) -> int:
        """One cross-shard eviction round; returns the bytes actually freed.

        Victims are chosen across *all* shards by the global benefit metric.
        The candidate snapshot is taken without holding any lock, so a victim
        may already be gone when its home shard is asked to evict it —
        :meth:`ReCache.evict_if_resident` makes that a no-op.
        """
        candidates = [
            entry
            for shard in self.shards
            for entry in shard.entries()
            if entry is not exclude
        ]
        victims = choose_global_victims(candidates, bytes_to_free)
        freed = 0
        for victim in victims:
            freed += self.shard_for(victim.key).evict_if_resident(victim)
        with self._balance_lock:
            self._cross_shard_rounds += 1
            self._cross_shard_evicted_bytes += freed
        return freed

    # ------------------------------------------------------------------
    # Admission / reuse / eviction: route to the entry's home shard
    # ------------------------------------------------------------------
    def admit_eager(
        self,
        source: str,
        source_format: str,
        predicate: Expression | None,
        fields: list[str],
        layout: CacheLayout,
        operator_time: float,
        caching_time: float,
    ) -> CacheEntry | None:
        home = self._home(source, predicate)
        self._balance_for(layout.nbytes, home)
        return home.admit_eager(
            source, source_format, predicate, fields, layout, operator_time, caching_time
        )

    def admit_lazy(
        self,
        source: str,
        source_format: str,
        predicate: Expression | None,
        fields: list[str],
        offsets: list[int],
        operator_time: float,
        caching_time: float,
    ) -> CacheEntry | None:
        home = self._home(source, predicate)
        self._balance_for(8 * len(offsets), home)  # mirrors CacheEntry.nbytes for lazy mode
        return home.admit_lazy(
            source, source_format, predicate, fields, offsets, operator_time, caching_time
        )

    def note_skipped_admission(
        self, source: str | None = None, predicate: Expression | None = None
    ) -> None:
        if source is None:
            self.shards[0].note_skipped_admission()
        else:
            self._home(source, predicate).note_skipped_admission(source, predicate)

    def record_reuse(
        self,
        entry: CacheEntry,
        scan_time: float,
        lookup_time: float,
        observation: LayoutObservation | None = None,
    ) -> str | None:
        return self.shard_for(entry.key).record_reuse(
            entry, scan_time, lookup_time, observation=observation
        )

    def upgrade_lazy(self, entry: CacheEntry, layout: CacheLayout, caching_time: float) -> bool:
        home = self.shard_for(entry.key)
        self._balance_for(layout.nbytes - entry.nbytes, home, exclude=entry)
        return home.upgrade_lazy(entry, layout, caching_time)

    def evict_entry(self, entry: CacheEntry) -> None:
        self.shard_for(entry.key).evict_entry(entry)

    def quarantine(self, entry: CacheEntry) -> bool:
        """Invalidate a poisoned entry on its home shard (see ReCache.quarantine)."""
        return self.shard_for(entry.key).quarantine(entry)

    def recent_evicted_bytes(self) -> int:
        return sum(shard.recent_evicted_bytes() for shard in self.shards)

    def eviction_pressure(self) -> float:
        """Recent evicted bytes across all shards over the global byte budget."""
        limit = self.budget.limit if self.budget.limit is not None else self.config.cache_size_limit
        if not limit:
            return 0.0
        return self.recent_evicted_bytes() / limit

    def benefit_of(self, entry: CacheEntry) -> float:
        return benefit_metric(entry)
