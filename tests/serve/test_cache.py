"""The bounded LRU result cache and its result-store write-through."""

import pytest

from repro.campaigns.store import MemoryStore, ResultStore
from repro.serve.cache import ServeCache


class TestLru:
    def test_miss_then_hit(self):
        cache = ServeCache(maxsize=4)
        found, _ = cache.get("a")
        assert not found and cache.misses == 1
        cache.put("a", {"v": 1})
        found, value = cache.get("a")
        assert found and value == {"v": 1}
        assert cache.hits == 1

    def test_results_are_normalised(self):
        cache = ServeCache(maxsize=4)
        stored = cache.put("a", {"t": (1, 2)})
        assert stored == {"t": [1, 2]}  # tuples -> lists, like the store

    def test_eviction_is_lru_ordered(self):
        cache = ServeCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now least recent
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            ServeCache(maxsize=0)


class TestStoreBacked:
    def test_write_through(self):
        store = MemoryStore()
        cache = ServeCache(maxsize=4, store=store)
        cache.put("a", {"v": 1})
        assert store.get("a") == {"v": 1}

    def test_store_hit_promotes_into_lru(self):
        store = MemoryStore()
        store.put("a", {"v": 1})
        cache = ServeCache(maxsize=4, store=store)
        found, value = cache.get("a")
        assert found and value == {"v": 1}
        assert cache.store_hits == 1 and cache.hits == 0
        cache.get("a")
        assert cache.hits == 1  # second lookup is an LRU hit

    def test_eviction_keeps_store_entry(self):
        store = MemoryStore()
        cache = ServeCache(maxsize=1, store=store)
        cache.put("a", 1)
        cache.put("b", 2)  # evicts a from the LRU only
        assert "a" not in cache
        found, value = cache.get("a")
        assert found and value == 1 and cache.store_hits == 1

    def test_persistent_store_survives_cache(self, tmp_path):
        cache = ServeCache(maxsize=4, store=ResultStore(tmp_path / "q"))
        cache.put("a", {"v": 1})
        assert cache.stats()["persistent"] is True
        # a fresh cache over the same directory starts warm
        warm = ServeCache(maxsize=4, store=ResultStore(tmp_path / "q"))
        found, value = warm.get("a")
        assert found and value == {"v": 1} and warm.store_hits == 1

    def test_stats_shape(self):
        cache = ServeCache(maxsize=3)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zz")
        assert cache.stats() == {
            "size": 1,
            "maxsize": 3,
            "hits": 1,
            "store_hits": 0,
            "misses": 1,
            "evictions": 0,
            "persistent": False,
        }


class TestResultStoreTier:
    def test_roundtrip_and_reload(self, tmp_path):
        store = ResultStore(tmp_path / "q")
        store.put("a", {"t": (1, 2)})
        store.put("b", 7)
        assert store.get("a") == {"t": [1, 2]}  # normalised like put()
        assert "b" in store and len(store) == 2
        reloaded = ResultStore(tmp_path / "q")
        assert reloaded.get("a") == {"t": [1, 2]}
        assert reloaded.get("missing", "dflt") == "dflt"

    def test_rewrite_uses_latest_line(self, tmp_path):
        store = ResultStore(tmp_path / "q")
        store.put("a", 1)
        store.put("a", 2)
        assert store.get("a") == 2
        assert ResultStore(tmp_path / "q").get("a") == 2

    def test_torn_final_line_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "q")
        store.put("a", 1)
        with store.path.open("a", encoding="utf-8") as handle:
            handle.write('{"job": "b", "result"')  # killed mid-write
        reloaded = ResultStore(tmp_path / "q")
        assert reloaded.get("a") == 1
        assert "b" not in reloaded

    def test_memory_holds_index_not_results(self, tmp_path):
        """Only offsets live in memory — the store never keeps results."""
        store = ResultStore(tmp_path / "q")
        payload = {"big": "x" * 10_000}
        store.put("a", payload)
        assert isinstance(store._index["a"], int)
        assert store.get("a") == payload


class TestTornLineAppend:
    def test_append_after_torn_line_starts_fresh(self, tmp_path):
        """A record written after a crash must survive the next reload."""
        store = ResultStore(tmp_path / "q")
        store.put("a", 1)
        with store.path.open("a", encoding="utf-8") as handle:
            handle.write('{"job": "torn", "result"')  # killed mid-write
        recovered = ResultStore(tmp_path / "q")
        recovered.put("b", 2)
        assert recovered.get("b") == 2
        # the crucial part: b is still there after ANOTHER reload
        final = ResultStore(tmp_path / "q")
        assert final.get("a") == 1 and final.get("b") == 2
        assert "torn" not in final
