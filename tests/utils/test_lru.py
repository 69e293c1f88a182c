"""LRUCache: recency, eviction, TTL expiry, counters and thread safety."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.utils.lru import LRUCache


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _never_read() -> float:
    raise AssertionError("a cache without a TTL read the clock")


class TestRecencyAndEviction:
    def test_lru_eviction_at_maxsize(self):
        cache = LRUCache(2, clock=_never_read)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b (least recently used)
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_put_returns_the_evicted_keys(self):
        cache = LRUCache(2)
        assert cache.put("a", 1) == []
        assert cache.put("b", 2) == []
        assert cache.put("a", 10) == []  # a refresh evicts nothing
        assert cache.put("c", 3) == ["b"]
        assert list(cache) == ["a", "c"]  # iteration: least recent first

    def test_stored_none_is_a_hit(self):
        cache = LRUCache(4)
        cache.put("declined", None)
        sentinel = object()
        assert cache.get("declined", sentinel) is None
        assert cache.get("absent", sentinel) is sentinel
        assert (cache.hits, cache.misses) == (1, 1)

    def test_peek_counts_nothing_and_keeps_the_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.peek("absent", "default") == "default"
        assert (cache.hits, cache.misses) == (0, 0)
        assert cache.put("c", 3) == ["a"]  # the peek did not refresh "a"

    def test_pop_and_discard_where(self):
        cache = LRUCache(8)
        for key in (("x", 1), ("x", 2), ("y", 1)):
            cache.put(key, key[1])
        assert cache.pop(("y", 1)) == 1
        assert cache.pop(("y", 1), "gone") == "gone"
        assert cache.discard_where(lambda key: key[0] == "x") == 2
        assert len(cache) == 0
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["evictions"]) == (0, 0, 0)

    def test_clear_drops_entries_and_counters(self):
        cache = LRUCache(1)
        cache.put("a", 1)
        cache.get("a")
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0
        stats = cache.stats()
        assert stats["hits"] == stats["misses"] == stats["evictions"] == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(0)
        with pytest.raises(ValueError):
            LRUCache(4, ttl_s=0)


class TestTTL:
    def test_entries_expire_after_ttl(self):
        clock = FakeClock()
        cache = LRUCache(8, ttl_s=10.0, clock=clock)
        cache.put("key", [1, 2])
        assert cache.get("key") == [1, 2]
        clock.now = 9.9
        assert cache.get("key") == [1, 2]
        clock.now = 10.1
        assert cache.peek("key") is None
        assert cache.get("key") is None  # expired == miss
        stats = cache.stats()
        assert (stats["expirations"], stats["misses"], stats["hits"]) == (1, 1, 2)
        assert len(cache) == 0

    def test_purge_drops_only_expired(self):
        clock = FakeClock()
        cache = LRUCache(8, ttl_s=5.0, clock=clock)
        cache.put("old", 1)
        clock.now = 3.0
        cache.put("new", 2)
        clock.now = 5.5  # 'old' expired at 5.0, 'new' expires at 8.0
        assert cache.purge() == 1
        assert len(cache) == 1 and cache.get("new") == 2
        assert cache.stats()["expirations"] == 1

    def test_without_ttl_nothing_expires(self):
        cache = LRUCache(2, clock=_never_read)
        cache.put("a", 1)
        assert cache.purge() == 0
        assert cache.get("a") == 1 and cache.peek("a") == 1
        assert cache.stats()["ttl_s"] is None


class TestConcurrency:
    @pytest.mark.parametrize("ttl_s", [None, 100.0])
    def test_concurrent_hammer(self, ttl_s):
        """Many threads of get/put/clear on one instance. No exception, size
        stays bounded, and — because every lookup bumps exactly one counter
        under the lock — the counters never exceed the lookups made."""
        cache = LRUCache(16, ttl_s=ttl_s)
        n_threads, n_ops = 8, 500
        gets_done = [0] * n_threads
        errors: list[Exception] = []

        def hammer(thread_index: int) -> None:
            rng = np.random.default_rng(thread_index)
            try:
                for op in range(n_ops):
                    key = ("key", int(rng.integers(0, 48)))
                    roll = rng.random()
                    if roll < 0.45:
                        cache.put(key, [thread_index, op])
                    elif roll < 0.9:
                        value = cache.get(key)
                        gets_done[thread_index] += 1
                        assert value is None or isinstance(value, list)
                    elif roll < 0.95:
                        _ = cache.stats(), len(cache), list(cache), cache.purge()
                    else:
                        cache.clear()
            except Exception as exc:  # pragma: no cover - surfaces below
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(index,))
            for index in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 16
        # clear() resets the counters, so only a bound survives.
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] <= sum(gets_done)
        assert 0.0 <= stats["hit_rate"] <= 1.0

    def test_reentry_from_inside_a_locked_section_does_not_deadlock(self):
        """Code that runs while the lock is held (a key's ``__eq__``, a
        ``discard_where`` predicate, a weakref callback fired by a
        collection) may call back into the same instance."""
        cache = LRUCache(4)

        class ReentrantKey:
            def __hash__(self) -> int:
                cache.peek("other")
                return 7

            def __eq__(self, other) -> bool:
                return self is other

        def run() -> None:
            key = ReentrantKey()
            cache.put(key, 1)
            assert cache.get(key) == 1
            cache.discard_where(lambda k: cache.pop("other") is None and k is key)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive(), "re-entering the cache deadlocked"
        assert len(cache) == 0
