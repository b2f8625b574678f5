"""Cache layer: LRU semantics, exact counters, thread safety."""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.cloud.plan_cache import CacheStats, PlanCache
from repro.errors import ConfigurationError


class TestLru:
    def test_eviction_order_is_least_recently_used(self):
        cache = PlanCache(capacity=2, name="t.lru")
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a's recency
        cache.put("c", 3)  # evicts b, not a
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats().evictions == 1

    def test_put_refreshes_recency_too(self):
        cache = PlanCache(capacity=2, name="t.lru2")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, not insert: no eviction
        assert cache.stats().evictions == 0
        cache.put("c", 3)  # now b is the LRU entry
        assert cache.keys() == ["a", "c"]
        assert cache.get("a") == 10

    def test_capacity_bound_holds(self):
        cache = PlanCache(capacity=3, name="t.bound")
        for i in range(10):
            cache.put(i, i)
        assert len(cache) == 3
        stats = cache.stats()
        assert stats.size == 3
        assert stats.evictions == 7
        assert cache.keys() == [7, 8, 9]

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            PlanCache(capacity=0)
        with pytest.raises(ConfigurationError):
            PlanCache(capacity=-1)

    def test_stored_none_is_a_hit_not_a_miss(self):
        cache = PlanCache(capacity=2, name="t.none")
        cache.put("a", None)
        assert cache.get("a") is None
        assert cache.get("b") is None
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)


class TestPeek:
    def test_peek_is_side_effect_free(self):
        cache = PlanCache(capacity=2, name="t.peek")
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.peek("zzz") is None
        stats = cache.stats()
        assert stats.lookups == 0  # neither peek counted
        # Recency was not refreshed: "a" is still the LRU entry.
        cache.put("c", 3)
        assert cache.keys() == ["b", "c"]


class TestCounters:
    def test_stats_snapshot_is_immutable_and_complete(self):
        cache = PlanCache(capacity=2, name="t.stats")
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        cache.note_revalidation_miss()
        stats = cache.stats()
        assert isinstance(stats, CacheStats)
        assert (stats.name, stats.hits, stats.misses) == ("t.stats", 1, 1)
        assert stats.revalidation_misses == 1
        assert stats.capacity == 2
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5
        with pytest.raises(AttributeError):
            stats.hits = 99  # frozen
        # Snapshot semantics: later traffic never mutates it.
        cache.get("a")
        assert stats.hits == 1

    def test_clear_drops_entries_keeps_counters(self):
        cache = PlanCache(capacity=4, name="t.clear")
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.size == 0

    def test_obs_counters_mirrored(self):
        with obs.use_registry(obs.MetricsRegistry()) as registry:
            cache = PlanCache(capacity=1, name="t.obs")
            cache.put("a", 1)
            cache.get("a")
            cache.get("b")
            cache.put("b", 2)  # evicts a
            cache.note_revalidation_miss()
            counters = registry.snapshot()["counters"]
            assert counters["t.obs.hits"] == 1
            assert counters["t.obs.misses"] == 1
            assert counters["t.obs.evictions"] == 1
            assert counters["t.obs.revalidation_misses"] == 1

    def test_summary_mentions_the_interesting_counts(self):
        cache = PlanCache(capacity=1, name="t.sum")
        cache.put("a", 1)
        cache.put("b", 2)  # evicts a
        cache.get("a")
        cache.note_revalidation_miss()
        text = cache.stats().summary()
        assert "1 eviction(s)" in text
        assert "1 miss(es)" in text
        assert "revalidation" in text


class TestThreadSafety:
    def test_concurrent_mixed_traffic_keeps_exact_books(self):
        cache = PlanCache(capacity=8, name="t.threads")
        n_threads, ops = 8, 500
        barrier = threading.Barrier(n_threads)

        def worker(tid: int) -> None:
            barrier.wait()
            for i in range(ops):
                cache.put((tid, i % 16), i)
                cache.get((tid, (i + 1) % 16))

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = cache.stats()
        # Every lookup is accounted exactly once, and the bound held.
        assert stats.lookups == n_threads * ops
        assert stats.size <= 8
        assert len(cache) == stats.size
