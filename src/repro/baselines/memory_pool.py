"""LRU memory pool — the paper's constrained-memory substrate.

The paper's small-size machine has a 3 GB memory pool; partitioned
stores load a partition from disk, decompress and deserialize it into
the pool, and evict the least-recently-used partition when the budget is
exceeded (Sec. IV-B "Lookup Process"). We reproduce that behaviour with
an explicit byte budget so the *exceeds-memory* (Table I) and
*fits-memory* (Table II) regimes can both be measured on one machine.

The pool also tracks the cost counters behind the paper's Fig. 7 latency
breakdown: bytes read from disk, time spent decompressing, time spent
deserializing, hits/misses/evictions.
"""
from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["MemoryPool", "PoolStats"]


@dataclass
class PoolStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_read: int = 0
    io_time: float = 0.0
    decompress_time: float = 0.0
    deserialize_time: float = 0.0

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = self.bytes_read = 0
        self.io_time = self.decompress_time = self.deserialize_time = 0.0


class MemoryPool:
    """Byte-budget LRU cache of deserialized partitions.

    ``budget_bytes=None`` means unbounded (the *fits-memory* regime).
    Structures that must stay resident (the DeepMapping model, ``V_exist``,
    ``f_decode``) are *pinned*: they consume budget but are never evicted —
    this is exactly why DM wins the constrained regime in the paper: its
    resident structure fits the pool while baselines thrash.
    """

    def __init__(
        self,
        budget_bytes: int | None = None,
        io_bandwidth: float | None = None,
    ):
        """``io_bandwidth`` (bytes/second) simulates the storage device:
        the container's files sit in the OS page cache, so without a
        throttle every 'disk read' is nearly free and the paper's
        I/O-bound regime (slow edge/EBS storage) cannot manifest. When
        set, each partition load sleeps ``bytes/bandwidth`` seconds
        (DESIGN.md §2.6's hardware substitution)."""
        self.budget = budget_bytes
        self.io_bandwidth = io_bandwidth
        self._cache: OrderedDict[Any, tuple[Any, int]] = OrderedDict()
        self._pinned: dict[Any, int] = {}
        self.stats = PoolStats()

    def simulate_io(self, nbytes: int) -> None:
        """Charge the simulated device time for reading ``nbytes``."""
        if self.io_bandwidth:
            delay = nbytes / self.io_bandwidth
            time.sleep(delay)
            self.stats.io_time += delay

    # -- pinned residents --------------------------------------------------
    def pin(self, name: str, nbytes: int) -> None:
        self._pinned[name] = int(nbytes)
        self._evict_to_budget()

    @property
    def pinned_bytes(self) -> int:
        return sum(self._pinned.values())

    @property
    def cached_bytes(self) -> int:
        return sum(n for _, n in self._cache.values())

    @property
    def used_bytes(self) -> int:
        return self.pinned_bytes + self.cached_bytes

    # -- cache protocol ------------------------------------------------------
    def __contains__(self, key: Any) -> bool:
        """Whether ``key`` is resident; neither refreshes its LRU position
        nor counts as a hit or miss."""
        return key in self._cache

    def get(self, key: Any, loader: Callable[[], tuple[Any, int]]) -> Any:
        """Return the cached object for ``key``, loading on miss.

        ``loader`` returns ``(object, resident_nbytes)`` and is expected to
        update ``stats`` io/decompress/deserialize counters itself (the
        partition stores do, via :meth:`timed`).
        """
        if key in self._cache:
            self._cache.move_to_end(key)
            self.stats.hits += 1
            return self._cache[key][0]
        self.stats.misses += 1
        obj, nbytes = loader()
        self._cache[key] = (obj, int(nbytes))
        self._evict_to_budget()
        return obj

    def invalidate(self, key: Any) -> None:
        self._cache.pop(key, None)

    def clear(self) -> None:
        self._cache.clear()

    def _evict_to_budget(self) -> None:
        if self.budget is None:
            return
        while self._cache and self.used_bytes > self.budget:
            self._cache.popitem(last=False)
            self.stats.evictions += 1

    # -- instrumentation helper ----------------------------------------------
    def timed(self, counter: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` and add its wall time to ``stats.<counter>_time``."""
        t0 = time.perf_counter()
        out = fn()
        setattr(
            self.stats,
            f"{counter}_time",
            getattr(self.stats, f"{counter}_time") + time.perf_counter() - t0,
        )
        return out

    # pools are per-process runtime state; a pickled store re-creates one
    def __getstate__(self):
        return {
            "budget": self.budget,
            "io_bandwidth": self.io_bandwidth,
            "_pinned": dict(self._pinned),
        }

    def __setstate__(self, state):
        self.budget = state["budget"]
        self.io_bandwidth = state.get("io_bandwidth")
        self._pinned = state["_pinned"]
        self._cache = OrderedDict()
        self.stats = PoolStats()
