"""One bounded, thread-safe, instrumented LRU cache.

Every cache in the package — batch results, maintained states, Codd grids, join analyses, aggregate preparations and the
service's TTL'd results — is an :class:`LRUCache`, so each one counts its
hits, misses and evictions the same way and the service can publish them
all as gauges.

Callers build a missing value outside the cache and :meth:`~LRUCache.put`
it afterwards: concurrent misses on one key may both build, and the last
write wins. The lock is reentrant, because a weakref callback fired by a
collection inside a locked section may call back into the same instance.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Hashable, Iterator
from typing import Any

from repro.utils.validation import check_positive_int

__all__ = ["LRUCache"]

_MISS = object()


class LRUCache:
    """At most ``maxsize`` entries, least recently used evicted first.

    With ``ttl_s`` an entry also expires that many seconds after its
    :meth:`put`, by the injectable ``clock``; an expired entry counts as a
    miss and an expiration, and is dropped on sight. A cache without a TTL
    never reads the clock. A stored ``None`` is an ordinary value: looking
    it up is a hit.
    """

    def __init__(
        self,
        maxsize: int,
        ttl_s: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.maxsize = check_positive_int(maxsize, "maxsize")
        if ttl_s is not None and not ttl_s > 0:
            raise ValueError(f"ttl_s must be positive, got {ttl_s}")
        self.ttl_s = None if ttl_s is None else float(ttl_s)
        self._clock = clock
        # key -> (expiry time or None, value)
        self._entries: OrderedDict[Hashable, tuple[float | None, Any]] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[Hashable]:
        """The keys, least recently used first (a snapshot)."""
        with self._lock:
            return iter(list(self._entries))

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The value for ``key``, marked most recently used, or ``default``."""
        with self._lock:
            item = self._entries.get(key, _MISS)
            if item is not _MISS:
                expires, value = item
                if expires is None or self._clock() < expires:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return value
                del self._entries[key]
                self.expirations += 1
            self.misses += 1
            return default

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Like :meth:`get`, but counts nothing and leaves the order alone."""
        with self._lock:
            item = self._entries.get(key, _MISS)
            if item is _MISS or (item[0] is not None and self._clock() >= item[0]):
                return default
            return item[1]

    def put(self, key: Hashable, value: Any) -> list[Hashable]:
        """Store ``value`` as most recently used; returns the evicted keys."""
        with self._lock:
            expires = None if self.ttl_s is None else self._clock() + self.ttl_s
            self._entries[key] = (expires, value)
            self._entries.move_to_end(key)
            evicted = []
            while len(self._entries) > self.maxsize:
                evicted.append(self._entries.popitem(last=False)[0])
            self.evictions += len(evicted)
            return evicted

    def pop(self, key: Hashable, default: Any = None) -> Any:
        """Remove ``key``; its value, or ``default`` when absent. Counts nothing."""
        with self._lock:
            item = self._entries.pop(key, _MISS)
            return default if item is _MISS else item[1]

    def discard_where(self, predicate: Callable[[Hashable], bool]) -> int:
        """Remove every entry whose key satisfies ``predicate``; returns how many."""
        with self._lock:
            doomed = [key for key in self._entries if predicate(key)]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def purge(self) -> int:
        """Remove every expired entry; returns how many."""
        if self.ttl_s is None:
            return 0
        with self._lock:
            now = self._clock()
            n_expired = self.discard_where(
                lambda key: self._entries[key][0] <= now
            )
            self.expirations += n_expired
            return n_expired

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = self.expirations = 0

    def stats(self) -> dict[str, Any]:
        """A snapshot of size, bounds and counters, for metrics and tests."""
        with self._lock:
            stats = {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "ttl_s": self.ttl_s,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
            }
        lookups = stats["hits"] + stats["misses"]
        stats["hit_rate"] = stats["hits"] / lookups if lookups else 0.0
        return stats
