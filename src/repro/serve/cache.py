"""Thread-safe LRU cache with hit/miss accounting.

The oracle's ``lru`` cache tier: the policy tier answers default-bounds
recommends without a table, precomputed sweep tables cover the
discretized Table-I links, and every other table (arbitrary distances,
reference-SNR links) lands here. Entries are whole
:class:`~repro.serve.oracle.SweepTable` objects — the expensive artefact
is the table, not any single answer derived from it — so one cached link
serves every objective/constraint combination asked about it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, TypeVar

from ..errors import ServeError

__all__ = [
    "CacheStats",
    "LruCache",
]

_V = TypeVar("_V")

#: Internal miss sentinel, so ``get`` does one dict lookup per call and
#: cached values of ``None`` would still be distinguishable from misses.
_MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of a cache's counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-ready view for the ``/metrics`` endpoint."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "lookups": self.lookups,
            "evictions": self.evictions,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": self.hit_rate,
        }


class LruCache:
    """A bounded mapping evicting the least-recently-used entry.

    All operations take an internal lock, so a cache instance can be shared
    by every worker thread of the service. Values are built *outside* the
    lock by callers (a full 4560-configuration grid builds in ~3 ms, see
    ``BENCH_grid_eval.json``); concurrent builders
    of the same key are coalesced upstream by the micro-batcher, so the
    cache itself stays simple.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ServeError(f"cache capacity must be >= 1, got {capacity!r}")
        self._capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Optional[object]:
        """The cached value, marking it most-recently-used; None on miss.

        The lookup, the recency update, and the counter bump happen in one
        critical section, so ``hits + misses == lookups`` holds exactly at
        every instant a reader can observe (:meth:`stats` snapshots under
        the same lock).
        """
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
                self._hits += 1
                return value
            self._misses += 1
            return None

    def put(self, key: Hashable, value: object) -> None:
        """Insert (or refresh) an entry, evicting the LRU one when full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            self._entries[key] = value
            if len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def stats(self) -> CacheStats:
        """Snapshot of the counters (consistent under the lock)."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self._capacity,
            )
