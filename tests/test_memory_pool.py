"""Unit tests for the LRU memory pool (repro.baselines.memory_pool)."""
import pickle

from repro.baselines.memory_pool import MemoryPool


def _loader(val, nbytes):
    return lambda: (val, nbytes)


def test_miss_then_hit():
    p = MemoryPool(None)
    assert p.get("a", _loader(1, 10)) == 1
    assert p.get("a", _loader(2, 10)) == 1  # cached value, loader not re-run
    assert p.stats.misses == 1 and p.stats.hits == 1


def test_unbounded_never_evicts():
    p = MemoryPool(None)
    for i in range(100):
        p.get(i, _loader(i, 1 << 20))
    assert p.stats.evictions == 0 and p.cached_bytes == 100 << 20


def test_budget_evicts_lru():
    p = MemoryPool(30)
    p.get("a", _loader(1, 10))
    p.get("b", _loader(2, 10))
    p.get("c", _loader(3, 10))
    p.get("a", _loader(0, 10))  # refresh a
    p.get("d", _loader(4, 10))  # evicts b (LRU)
    assert p.get("b", _loader(99, 10)) == 99  # b was evicted, reloaded
    assert p.stats.evictions >= 1


def test_contains_leaves_lru_order_and_stats():
    p = MemoryPool(20)
    p.get("a", _loader(1, 10))
    p.get("b", _loader(2, 10))
    before = (p.stats.hits, p.stats.misses, p.stats.evictions)
    assert "a" in p and "z" not in p
    assert (p.stats.hits, p.stats.misses, p.stats.evictions) == before
    p.get("c", _loader(3, 10))  # "a" is still least recently used
    assert "a" not in p and "b" in p and "c" in p


def test_budget_respected():
    p = MemoryPool(25)
    for i in range(10):
        p.get(i, _loader(i, 10))
    assert p.used_bytes <= 25


def test_pin_consumes_budget():
    p = MemoryPool(100)
    p.pin("model", 80)
    p.get("x", _loader(1, 15))
    p.get("y", _loader(2, 15))  # x must go: 80 + 15 + 15 > 100
    assert p.used_bytes <= 100
    assert p.pinned_bytes == 80


def test_pin_never_evicted():
    p = MemoryPool(10)
    p.pin("model", 50)  # over budget on its own — stays anyway
    assert p.pinned_bytes == 50
    p.get("x", _loader(1, 5))
    assert p.pinned_bytes == 50


def test_invalidate_forces_reload():
    p = MemoryPool(None)
    p.get("a", _loader(1, 1))
    p.invalidate("a")
    assert p.get("a", _loader(2, 1)) == 2


def test_clear():
    p = MemoryPool(None)
    p.get("a", _loader(1, 1))
    p.clear()
    assert p.cached_bytes == 0


def test_timed_counter():
    p = MemoryPool(None)
    out = p.timed("decompress", lambda: 42)
    assert out == 42 and p.stats.decompress_time >= 0


def test_stats_reset():
    p = MemoryPool(None)
    p.get("a", _loader(1, 1))
    p.stats.reset()
    assert p.stats.misses == 0 and p.stats.hits == 0


def test_pickle_drops_cache_keeps_budget_and_pins():
    p = MemoryPool(123)
    p.pin("m", 7)
    p.get("a", _loader(1, 1))
    q = pickle.loads(pickle.dumps(p))
    assert q.budget == 123 and q.pinned_bytes == 7 and q.cached_bytes == 0


def test_simulated_io_bandwidth_charges_time():
    p = MemoryPool(None, io_bandwidth=1e6)  # 1 MB/s
    p.simulate_io(100_000)  # 0.1 s
    assert p.stats.io_time >= 0.1


def test_simulated_io_disabled_by_default():
    p = MemoryPool(None)
    p.simulate_io(10**9)
    assert p.stats.io_time == 0.0


def test_io_bandwidth_survives_pickle():
    p = MemoryPool(10, io_bandwidth=5e6)
    q = pickle.loads(pickle.dumps(p))
    assert q.io_bandwidth == 5e6
