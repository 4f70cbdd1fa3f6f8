"""The ReCache cache manager: the coordination point of all reactive decisions.

The query engine interacts with this class at four points of a query's life:

1. :meth:`ReCache.lookup` — before executing a select operator, ask whether an
   exactly matching or subsuming cache exists (measuring lookup time ``l``).
2. :meth:`ReCache.admit_eager` / :meth:`ReCache.admit_lazy` — after a cache
   miss, admit the materialized result (or just the satisfying offsets) under
   the admission controller's decision, evicting older items if capacity is
   exceeded.
3. :meth:`ReCache.record_reuse` — after reusing a cache, update its statistics
   and layout observations, and let the layout selector switch its layout if
   the observed workload warrants it.
4. :meth:`ReCache.upgrade_lazy` — replace a lazy entry with an eager one the
   first time it is reused.

Concurrency model: every public method takes the instance's re-entrant lock,
so one ``ReCache`` may be shared by many threads — the metadata operations
(lookup, admission bookkeeping, eviction, statistics) serialize on the lock
while the expensive work (raw scans, cache scans, layout construction *and*
layout conversion) happens outside it; :meth:`ReCache.record_reuse` decides a
layout switch under the lock, converts outside it, then re-validates liveness
and budget on re-acquire before installing.  For lock-free scaling across
cores, partition the
cache with :class:`~repro.core.sharded_cache.ShardedReCache`, which gives every
shard its own ``ReCache`` (and therefore its own lock, subsumption index and
eviction-policy state).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.core.admission import AdmissionController
from repro.core.benefit import benefit_metric
from repro.core.cache_entry import CacheEntry, CacheKey, LayoutObservation
from repro.core.config import ReCacheConfig
from repro.core.eviction import EvictionPolicy
from repro.core.layout_selector import LayoutSelector
from repro.core.policies import OfflinePolicy, make_policy
from repro.core.subsumption import SubsumptionIndex
from repro.engine.expressions import Expression
from repro.layouts import convert_layout
from repro.layouts.base import CacheLayout


@dataclass
class CacheMatch:
    """The result of a successful cache lookup."""

    entry: CacheEntry
    exact: bool
    lookup_time: float


@dataclass
class CacheManagerStats:
    """Aggregate counters exposed for reporting and tests."""

    lookups: int = 0
    exact_hits: int = 0
    subsumption_hits: int = 0
    misses: int = 0
    admissions_eager: int = 0
    admissions_lazy: int = 0
    admissions_skipped: int = 0
    evictions: int = 0
    evicted_bytes: int = 0
    layout_switches: int = 0
    lazy_upgrades: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def hits(self) -> int:
        return self.exact_hits + self.subsumption_hits

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def merge(self, other: "CacheManagerStats") -> None:
        """Accumulate another stats object into this one (shard aggregation)."""
        self.lookups += other.lookups
        self.exact_hits += other.exact_hits
        self.subsumption_hits += other.subsumption_hits
        self.misses += other.misses
        self.admissions_eager += other.admissions_eager
        self.admissions_lazy += other.admissions_lazy
        self.admissions_skipped += other.admissions_skipped
        self.evictions += other.evictions
        self.evicted_bytes += other.evicted_bytes
        self.layout_switches += other.layout_switches
        self.lazy_upgrades += other.lazy_upgrades
        for key, value in other.extras.items():
            # Accumulator convention, as in TimingBreakdown.merge: numeric
            # extras sum across shards, anything else keeps the latest value.
            existing = self.extras.get(key)
            if isinstance(value, (int, float)) and isinstance(existing, (int, float)):
                self.extras[key] = existing + value
            else:
                self.extras[key] = value


class ReCache:
    """Reactive cache of intermediate operator results over raw data.

    ``shared_budget``, when given, is an atomic counter mirroring this cache's
    byte occupancy; :class:`~repro.core.sharded_cache.ShardedReCache` passes one
    counter to all shards so the global occupancy is readable in O(1) without
    touching any shard lock.

    When the shared budget carries a hard ``limit`` (a
    :class:`~repro.core.sharded_cache.SharedBudget`), byte enforcement is
    *pooled*: admissions, lazy upgrades and layout switches check and reserve
    headroom against the global limit instead of this shard's
    ``config.cache_size_limit``, which then only marks the shard's nominal
    proportional share (occupancy beyond it counts as borrowing in
    ``stats.extras``).  With one shard the two protocols make identical
    decisions.
    """

    #: Lock discipline, machine-checked by ``python -m repro.analysis.lint``:
    #: every load/store of these fields must hold the declared lock (methods
    #: below the "Internals" banner document ``# caller-holds: self._lock``).
    GUARDED_BY = {
        "_entries": "_lock",
        "_sequence": "_lock",
        "_switches_in_progress": "_lock",
        "_occupancy": "_lock",
        "_reservation": "_lock",
        "_recent_evictions": "_lock",
        "stats": "_lock",
    }

    def __init__(self, config: ReCacheConfig | None = None, shared_budget=None) -> None:
        self.config = config or ReCacheConfig()
        #: bytes reserved in the shared budget by the admission currently in
        #: flight on this shard (always settled before the shard lock drops)
        self._reservation = 0
        self.policy: EvictionPolicy = make_policy(
            self.config.eviction_policy, recompute_benefit=self.config.recompute_benefit
        )
        self.admission = AdmissionController(
            overhead_threshold=self.config.admission_threshold,
            sample_records=self.config.admission_sample_records,
        )
        self.layout_selector = LayoutSelector()
        self.subsumption = SubsumptionIndex(use_rtree=self.config.use_rtree_index)
        self.stats = CacheManagerStats()
        self._entries: dict[str, CacheEntry] = {}
        self._sequence = 0
        self._lock = threading.RLock()
        #: keys whose layout conversion is currently running outside the lock;
        #: concurrent reuses of the same entry skip the (expensive) conversion
        #: instead of racing N rebuilds of which all but one would be dropped.
        self._switches_in_progress: set[str] = set()
        #: incrementally maintained byte occupancy (sum of entry.nbytes)
        self._occupancy = 0
        self._shared_budget = shared_budget
        #: (sequence, nbytes) of recent capacity evictions, pruned to the
        #: configured shed_pressure_window; feeds eviction-pressure shedding
        self._recent_evictions: list[tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Query lifecycle
    # ------------------------------------------------------------------
    def begin_query(self) -> int:
        """Advance the logical clock; returns the new query sequence number."""
        with self._lock:
            self._sequence += 1
            if isinstance(self.policy, OfflinePolicy):
                self.policy.advance_to(self._sequence)
            return self._sequence

    def advance_sequence(self, sequence: int) -> None:
        """Fast-forward the logical clock to an externally issued sequence.

        The sharded cache issues one global sequence per query and pushes it to
        every shard, so per-shard recency/creation stamps stay comparable.
        """
        with self._lock:
            if sequence > self._sequence:
                self._sequence = sequence
                if isinstance(self.policy, OfflinePolicy):
                    self.policy.advance_to(sequence)

    @property
    def sequence(self) -> int:
        return self._sequence  # unguarded-read: GIL-atomic int; monitoring path

    def eviction_policies(self) -> list[EvictionPolicy]:
        """All policy instances managed by this cache (one, unless sharded)."""
        return [self.policy]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def entries(self) -> list[CacheEntry]:
        with self._lock:
            return list(self._entries.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def total_bytes(self) -> int:
        return self._occupancy  # unguarded-read: GIL-atomic int; monitoring path

    def has_live_entries(self, source: str) -> bool:
        """True when at least one cached item from ``source`` is resident."""
        with self._lock:
            return any(entry.source == source for entry in self._entries.values())

    def has_hot_entries(self, source: str) -> bool:
        """True when a cached item from ``source`` has already been reused.

        This drives the admission controller's working-set shortcut
        (Section 5.2): once caching a file has demonstrably paid off, further
        accesses to the same file are cached eagerly without re-sampling.
        """
        with self._lock:
            return any(
                entry.source == source and entry.stats.reuse_count > 0
                for entry in self._entries.values()
            )

    def get_exact(self, source: str, predicate: Expression | None) -> CacheEntry | None:
        key = CacheKey.for_select(source, predicate)
        with self._lock:
            return self._entries.get(key.as_string())

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(
        self, source: str, predicate: Expression | None, fields: list[str]
    ) -> CacheMatch | None:
        """Find an exactly matching or subsuming cache for a select operator."""
        if not self.config.caching_enabled:
            return None
        started = time.perf_counter()
        key = CacheKey.for_select(source, predicate)
        with self._lock:
            self.stats.lookups += 1

            entry = self._entries.get(key.as_string())
            if entry is not None and entry.supports_fields(fields):
                lookup_time = time.perf_counter() - started
                self.stats.exact_hits += 1
                return CacheMatch(entry=entry, exact=True, lookup_time=lookup_time)

            if self.config.enable_subsumption:
                matches = self.subsumption.find_subsuming(
                    source, predicate, fields, exclude_key=key.as_string()
                )
                if matches:
                    # Prefer the smallest subsuming cache: cheapest to scan.
                    best = min(matches, key=lambda e: e.nbytes)
                    lookup_time = time.perf_counter() - started
                    self.stats.subsumption_hits += 1
                    return CacheMatch(entry=best, exact=False, lookup_time=lookup_time)

            self.stats.misses += 1
            return None

    def exact_match(
        self, source: str, predicate: Expression | None, fields: list[str]
    ) -> CacheEntry | None:
        """The exactly matching usable entry, if any — no statistics updates.

        Used by the sharded cache, which routes the exact probe to the key's
        home shard and accounts for the lookup itself.
        """
        key = CacheKey.for_select(source, predicate)
        with self._lock:
            entry = self._entries.get(key.as_string())
            if entry is not None and entry.supports_fields(fields):
                return entry
            return None

    def subsuming_matches(
        self,
        source: str,
        predicate: Expression | None,
        fields: list[str],
        exclude_key: str | None = None,
    ) -> list[CacheEntry]:
        """Subsuming entries resident in this cache — no statistics updates."""
        with self._lock:
            return self.subsumption.find_subsuming(
                source, predicate, fields, exclude_key=exclude_key
            )

    # ------------------------------------------------------------------
    # Admission
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
        """Admit a fully materialized cache entry."""
        if not self.config.caching_enabled:
            return None
        key = CacheKey.for_select(source, predicate)
        entry = CacheEntry(
            key=key,
            source=source,
            source_format=source_format,
            predicate=predicate,
            fields=fields,
            mode="eager",
            layout=layout,
        )
        with self._lock:
            entry.record_creation(self._sequence, operator_time, caching_time)
            if not self._make_room_for(entry):
                self.stats.admissions_skipped += 1
                return None
            try:
                self._install(entry)
            finally:
                # Settle on the exception edge too: a policy/subsumption hook
                # raising mid-install must not strand the pooled reservation.
                self._settle_reservation()
            self.stats.admissions_eager += 1
            return entry

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
        """Admit a lazy (offsets-only) cache entry."""
        if not self.config.caching_enabled:
            return None
        key = CacheKey.for_select(source, predicate)
        entry = CacheEntry(
            key=key,
            source=source,
            source_format=source_format,
            predicate=predicate,
            fields=fields,
            mode="lazy",
            lazy_offsets=offsets,
        )
        with self._lock:
            entry.record_creation(self._sequence, operator_time, caching_time)
            if not self._make_room_for(entry):
                self.stats.admissions_skipped += 1
                return None
            try:
                self._install(entry)
            finally:
                self._settle_reservation()
            self.stats.admissions_lazy += 1
            return entry

    def note_skipped_admission(
        self, source: str | None = None, predicate: Expression | None = None
    ) -> None:
        """Count an admission the executor abandoned before reaching the cache
        (e.g. a layout build that failed on a degenerate result).  The source
        and predicate are routing hints for the sharded cache."""
        with self._lock:
            self.stats.admissions_skipped += 1

    # ------------------------------------------------------------------
    # Reuse
    # ------------------------------------------------------------------
    def record_reuse(
        self,
        entry: CacheEntry,
        scan_time: float,
        lookup_time: float,
        observation: LayoutObservation | None = None,
    ) -> str | None:
        """Update statistics after reusing ``entry``; maybe switch its layout.

        Returns the name of the new layout if a switch was performed.

        The switch *decision* happens under the lock, but the conversion — the
        expensive part, a full rebuild of the cached data in the target layout
        — runs outside it, so concurrent queries on this cache (or shard) are
        not serialized behind a layout rebuild.  The install step re-acquires
        the lock and re-validates entry liveness and the byte budget before
        publishing the converted layout.
        """
        with self._lock:
            entry.record_reuse(self._sequence, scan_time, lookup_time)
            self.policy.on_access(entry, self._sequence)
            if observation is not None:
                self.layout_selector.observe(entry, observation)
            if not self.config.layout_selection or entry.is_lazy:
                return None
            if not self._is_resident(entry):
                # The entry was evicted while this query was scanning it (the
                # scan itself stays valid — it holds the layout reference).
                # Switching a ghost's layout would corrupt the byte accounting.
                return None
            decision = self.layout_selector.decide(entry)
            if not decision.should_switch:
                return None
            target = decision.target_layout
            old_layout = entry.layout
            if target is None or old_layout is None:
                return None
            key = entry.key.as_string()
            if key in self._switches_in_progress:
                # Another thread is already converting this entry; its install
                # will publish the result — a second rebuild would be wasted.
                return None
            self._switches_in_progress.add(key)
        try:
            try:
                converted, conversion_time = convert_layout(
                    old_layout, target, old_layout.schema
                )
            except Exception:
                # The rebuild re-reads the cached bytes, so a conversion
                # failure means the entry itself is suspect: quarantine it
                # instead of leaking a raw scan/corruption error past the
                # reuse path (record_reuse's contract is "raises nothing").
                self.quarantine(entry)
                return None
            with self._lock:
                return self._install_switched_layout(
                    entry, old_layout, converted, conversion_time, target
                )
        finally:
            with self._lock:
                self._switches_in_progress.discard(key)

    def upgrade_lazy(self, entry: CacheEntry, layout: CacheLayout, caching_time: float) -> bool:
        """Replace a lazy entry's offsets with a materialized layout.

        Returns False when the upgrade was skipped: another thread already
        upgraded the entry, the entry was evicted mid-scan, or the eager
        layout cannot fit in the byte budget even after eviction (the entry
        then stays lazy).
        """
        with self._lock:
            if not entry.is_lazy or not self._is_resident(entry):
                return False
            size_delta = layout.nbytes - entry.nbytes
            if self._pooled():
                budget = self._shared_budget
                if layout.nbytes > budget.limit:
                    # The eager form can never fit this budget: remember that,
                    # so reuses stop rebuilding a layout that will be rejected.
                    entry.upgrade_blocked = True
                    return False
                if size_delta > 0:
                    deficit = budget.deficit_for(size_delta)
                    # Local eviction only if this shard (minus the upgrading
                    # entry) can cover the deficit; see _make_room_pooled.
                    if 0 < deficit <= self._occupancy - entry.nbytes:
                        self._evict_until_available(deficit, exclude=entry)
                    if not budget.try_reserve(size_delta):
                        return False
                    self._reservation = size_delta
            else:
                limit = self.config.cache_size_limit
                if limit is not None:
                    if layout.nbytes > limit:
                        entry.upgrade_blocked = True
                        return False
                    self._free_overage(size_delta, exclude=entry)
                    if self._occupancy + size_delta > limit:
                        return False
            try:
                entry.upgrade_to_eager(layout, caching_time)
                self._adjust_occupancy(size_delta)
            finally:
                self._settle_reservation()
            self.stats.lazy_upgrades += 1
            return True

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def evict_entry(self, entry: CacheEntry) -> None:
        with self._lock:
            key = entry.key.as_string()
            if key in self._entries and self._entries[key] is entry:
                del self._entries[key]
                self._adjust_occupancy(-entry.nbytes)
            self.subsumption.unregister(entry)
            self.policy.on_evict(entry)
            self.stats.evictions += 1
            self.stats.evicted_bytes += entry.nbytes
            self._recent_evictions.append((self._sequence, entry.nbytes))

    def quarantine(self, entry: CacheEntry) -> bool:
        """Invalidate a poisoned entry whose layout scan raised mid-query.

        The entry is removed under the lock with its occupancy (and shared
        budget share) released through the normal eviction path, so a
        corrupted cache can never be served again and never strands bytes.
        Returns False for ghosts (already evicted/replaced) so concurrent
        quarantines of the same entry count it once.
        """
        with self._lock:
            if not self._is_resident(entry):
                return False
            self.evict_entry(entry)
            self.stats.extras["quarantined"] = self.stats.extras.get("quarantined", 0) + 1
            return True

    def recent_evicted_bytes(self) -> int:
        """Bytes evicted within the last ``shed_pressure_window`` queries."""
        window = self.config.shed_pressure_window
        with self._lock:
            horizon = self._sequence - window
            if self._recent_evictions and self._recent_evictions[0][0] <= horizon:
                self._recent_evictions = [
                    (seq, nbytes) for seq, nbytes in self._recent_evictions if seq > horizon
                ]
            return sum(nbytes for _, nbytes in self._recent_evictions)

    def eviction_pressure(self) -> float:
        """Recent evicted bytes as a fraction of the byte budget (0 when unlimited).

        A value near/above 1 means the cache churned through its whole
        capacity within the recent query window — admitting more work will
        thrash, which is the signal the server's load shedding keys off.
        """
        pooled_limit = getattr(self._shared_budget, "limit", None)
        limit = pooled_limit if pooled_limit is not None else self.config.cache_size_limit
        if not limit:
            return 0.0
        return self.recent_evicted_bytes() / limit

    def evict_if_resident(self, entry: CacheEntry) -> int:
        """Evict ``entry`` if it is still resident; returns the bytes freed.

        The cross-shard eviction round snapshots candidates without holding
        any shard lock, so a chosen victim may already be gone (or replaced)
        by the time its home shard is asked to evict it — a ghost eviction
        must not double-count stats or corrupt the byte accounting.
        """
        with self._lock:
            if not self._is_resident(entry):
                return 0
            self.evict_entry(entry)
            return entry.nbytes

    def benefit_of(self, entry: CacheEntry) -> float:
        """The current benefit metric of a cached entry (for reporting)."""
        return benefit_metric(entry)

    # ------------------------------------------------------------------
    # Internals (all called with the lock held)
    # ------------------------------------------------------------------
    def _is_resident(self, entry: CacheEntry) -> bool:  # caller-holds: self._lock
        return self._entries.get(entry.key.as_string()) is entry

    def _pooled(self) -> bool:  # caller-holds: self._lock
        """True when byte enforcement goes through a shared global budget."""
        return getattr(self._shared_budget, "limit", None) is not None

    def _settle_reservation(self) -> None:  # caller-holds: self._lock
        """Return the in-flight admission's reservation after its install.

        Between the occupancy adjustment and this release the shared budget
        transiently double-counts the admitted bytes, which can only make a
        concurrent reservation fail spuriously — never admit too much.
        """
        if self._reservation:
            self._shared_budget.release(self._reservation)
            self._reservation = 0

    def _adjust_occupancy(self, delta: int) -> None:  # caller-holds: self._lock
        self._occupancy += delta
        if self._shared_budget is not None:
            self._shared_budget.add(delta)

    def _install(self, entry: CacheEntry) -> None:  # caller-holds: self._lock
        key = entry.key.as_string()
        existing = self._entries.get(key)
        if existing is not None:
            # A re-admission with (for example) a wider field set replaces the
            # previous entry for the same operator.
            self.evict_entry(existing)
            self.stats.evictions -= 1  # replacement, not a capacity eviction
            self.stats.evicted_bytes -= existing.nbytes
            self._recent_evictions.pop()  # replacement adds no eviction pressure
        self._entries[key] = entry
        self._adjust_occupancy(entry.nbytes)
        self.policy.on_admit(entry, self._sequence)
        self.subsumption.register(entry)

    def _make_room_for(self, entry: CacheEntry) -> bool:  # caller-holds: self._lock; caller-settles: reservation
        """Ensure the new entry fits; returns False when it cannot fit.

        On success under a pooled budget, the entry's bytes are left reserved
        in the shared budget — the caller installs the entry and settles the
        reservation via :meth:`_settle_reservation` before the lock drops.
        """
        if self._pooled():
            return self._make_room_pooled(entry)
        limit = self.config.cache_size_limit
        if limit is None:
            return True
        if entry.nbytes > limit:
            # The item is larger than the entire cache: never admit it.
            return False
        needed = self._occupancy + entry.nbytes - limit
        if needed > 0:
            self._evict_until_available(needed, exclude=entry)
            if self._occupancy + entry.nbytes > limit:
                # The policy freed fewer bytes than requested (e.g. returned
                # too few victims); admitting now would blow the byte budget.
                return False
        return True

    def _make_room_pooled(self, entry: CacheEntry) -> bool:  # caller-holds: self._lock; caller-settles: reservation
        """Shared-budget admission: the *global* limit is the binding one.

        An entry larger than this shard's proportional share is admissible by
        borrowing global headroom — the fragmentation a statically split
        budget causes cannot happen.  Any global deficit left after the
        coordinator's cross-shard round is covered from this shard's own
        entries (its policy, its lock); the reservation makes the global
        invariant race-free against admissions on other shards.
        """
        budget = self._shared_budget
        nbytes = entry.nbytes
        if nbytes > budget.limit:
            # Larger than the entire global cache: never admit it.
            return False
        deficit = budget.deficit_for(nbytes)
        # Evict locally only when this shard alone can cover the global
        # deficit — flushing every resident for a reservation that would
        # still fail destroys good entries for nothing (the coordinator's
        # cross-shard round already ran if other shards had to contribute).
        if 0 < deficit <= self._occupancy:
            self._evict_until_available(deficit, exclude=entry)
        if not budget.try_reserve(nbytes):
            return False
        self._reservation = nbytes
        share = self.config.cache_size_limit
        if share is not None and self._occupancy + nbytes > share:
            extras = self.stats.extras
            extras["borrowed_admissions"] = extras.get("borrowed_admissions", 0) + 1
            # Only the newly borrowed increment: bytes of this admission that
            # land beyond the share, not the shard's whole standing overage.
            previous_overage = max(0, self._occupancy - share)
            extras["borrowed_bytes"] = (
                extras.get("borrowed_bytes", 0)
                + self._occupancy + nbytes - share - previous_overage
            )
        return True

    def _evict_until_available(self, bytes_to_free: int, exclude: CacheEntry | None = None) -> None:  # caller-holds: self._lock
        candidates = [e for e in self._entries.values() if e is not exclude]
        victims = self.policy.choose_victims(candidates, bytes_to_free)
        for victim in victims:
            self.evict_entry(victim)

    def _free_overage(self, size_delta: int, exclude: CacheEntry) -> None:  # caller-holds: self._lock
        """Evict enough to absorb ``size_delta`` extra bytes, if a limit is set."""
        limit = self.config.cache_size_limit
        if limit is None or size_delta <= 0:
            return
        needed = self._occupancy + size_delta - limit
        if needed > 0:
            self._evict_until_available(needed, exclude=exclude)

    def _install_switched_layout(  # caller-holds: self._lock
        self,
        entry: CacheEntry,
        old_layout: CacheLayout,
        converted: CacheLayout,
        conversion_time: float,
        target: str,
    ) -> str | None:
        """Publish a layout converted outside the lock (lock held by caller).

        The world may have moved while the conversion ran, so everything is
        re-validated: the entry must still be resident and still hold the
        layout the conversion started from (a concurrent switch, upgrade or
        re-admission loses the race and the converted layout is dropped), and
        the converted size must still fit the byte budget after eviction.
        """
        if not self._is_resident(entry) or entry.layout is not old_layout:
            return None
        size_delta = converted.nbytes - entry.nbytes
        if self._pooled():
            budget = self._shared_budget
            if converted.nbytes > budget.limit:
                # The converted layout would not fit at all; keep the old one.
                return None
            if size_delta > 0:
                deficit = budget.deficit_for(size_delta)
                # A reuse-triggered switch gets no cross-shard balancing round
                # (its size is unknown until the conversion finishes), so a
                # global deficit larger than this shard's other residents must
                # fail here WITHOUT evicting: flushing the whole shard for a
                # reservation that still fails would destroy good entries.
                if 0 < deficit <= self._occupancy - entry.nbytes:
                    self._evict_until_available(deficit, exclude=entry)
                if not budget.try_reserve(size_delta):
                    # Eviction could not absorb the growth; keep the old
                    # layout rather than blowing the byte budget.
                    return None
                self._reservation = size_delta
        else:
            limit = self.config.cache_size_limit
            if limit is not None and converted.nbytes > limit:
                # The converted layout would not fit at all; keep the old one.
                return None
            self._free_overage(size_delta, exclude=entry)
            if limit is not None and self._occupancy + size_delta > limit:
                # Eviction could not absorb the growth; keep the old layout
                # rather than blowing the byte budget.
                return None
        try:
            entry.replace_layout(converted)
            self._adjust_occupancy(size_delta)
        finally:
            self._settle_reservation()
        # Converting the cache is additional caching work: fold it into ``c`` so
        # the benefit metric keeps reflecting the true reconstruction cost.
        entry.stats.caching_time += conversion_time
        self.layout_selector.after_switch(entry)
        self.stats.layout_switches += 1
        return target
