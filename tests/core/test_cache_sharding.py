"""StageCache under concurrency: one lock, exact counters, bounded size.

The multi-tenant service hands every session's engine the same
:class:`StageCache`, so concurrent callers must be safe.  These tests
pin that precisely: eight threads driving the cache observe exactly the
per-key outcomes a single thread would (nothing torn or lost, every
lookup one hit or one miss), the LRU never holds more than its
capacity, and the epoch-in-key staleness story holds on the shared
cache (old-epoch entries are unreachable by new-epoch keys and eagerly
droppable).
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.plan.cache import StageCache

N_THREADS = 8


def _key(stage: str, ds_epoch: int, extra: int = 0) -> tuple:
    """Planner-shaped keys: ``(stage, ("ds", epoch), ...)``."""
    return (stage, ("ds", ds_epoch), ("cv", extra))


def _run_threads(work) -> None:
    """Run ``work(tid)`` on ``N_THREADS`` threads released together,
    with a shortened switch interval so threads interleave inside cache
    operations; fail on any error or on a thread still running after
    the timeout."""
    barrier = threading.Barrier(N_THREADS)
    errors: list[BaseException] = []

    def body(tid: int) -> None:
        try:
            barrier.wait(timeout=30)
            work(tid)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(t,)) for t in range(N_THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            StageCache(0)

    def test_shard_count_and_capacity(self):
        """One lock, no shards: the capacity is exactly the one asked
        for, and concurrent overflow never exceeds it."""
        cache = StageCache(100)
        assert cache.capacity == 100

        def work(tid: int) -> None:
            for i in range(60):
                cache.put(_key("s", tid, i), i)
                assert len(cache) <= 100

        _run_threads(work)
        assert len(cache) == 100
        assert cache.stats.evictions == N_THREADS * 60 - 100

    def test_single_shard_degenerates_to_plain_cache_semantics(self):
        """The one-lock cache keeps plain LRU order: overflow evicts the
        least recently used keys first."""
        cache = StageCache(16)
        for i in range(20):
            cache.put(_key("s", 0, i), i)
        assert cache.keys() == [_key("s", 0, i) for i in range(4, 20)]
        assert cache.stats.evictions == 4


class TestParityWithSingleCache:
    """The same operation sequence gives the same per-key outcomes
    whether one thread drives the cache or eight do (disjoint keys, no
    eviction)."""

    def _drive(self, cache, tid: int = 0) -> list:
        observed = []
        for i in range(30):
            key = _key("temporal_mask", tid, i % 10)
            value, found = cache.lookup(key)
            if not found:
                cache.put(key, i % 10)
                value = i % 10
            observed.append((key, value, found))
        return observed

    def test_hit_miss_parity(self):
        serial = StageCache(1024)
        want = {tid: self._drive(serial, tid) for tid in range(N_THREADS)}
        shared = StageCache(1024)
        got: dict[int, list] = {}

        def work(tid: int) -> None:
            got[tid] = self._drive(shared, tid)

        _run_threads(work)
        assert got == want
        for cache in (serial, shared):
            assert cache.stats.hits == N_THREADS * 20
            assert cache.stats.misses == N_THREADS * 10
            assert len(cache) == N_THREADS * 10
        assert sorted(serial.keys()) == sorted(shared.keys())

    def test_taint_parity_invalidate_by_epoch(self):
        serial, shared = StageCache(1024), StageCache(1024)

        def fill(cache, tid: int) -> None:
            for i in range(6):
                cache.put(_key("combine", 1 + tid % 2, tid * 10 + i), (tid, i))

        for tid in range(N_THREADS):
            fill(serial, tid)
        _run_threads(lambda tid: fill(shared, tid))
        # eager drop of everything not at epoch 2
        assert serial.invalidate(dataset_epoch=2) == shared.invalidate(
            dataset_epoch=2
        ) == N_THREADS // 2 * 6
        assert sorted(serial.keys()) == sorted(shared.keys())
        assert all(k[1] == ("ds", 2) for k in shared.keys())
        assert serial.stats.invalidations == shared.stats.invalidations

    def test_clear_parity(self):
        shared = StageCache(1024)

        def work(tid: int) -> None:
            for i in range(12):
                shared.put(_key("s", tid, i), i)

        _run_threads(work)
        shared.clear()
        assert len(shared) == 0
        assert shared.stats.invalidations == N_THREADS * 12


class TestStaleEpochEntries:
    def test_old_epoch_entries_unreachable_after_epoch_bump(self):
        """The rollover story: epoch-tagged keys make pre-swap entries
        invisible to post-swap queries — no flush required — while a
        pinned old-epoch session still hits them."""
        cache = StageCache(64)
        old, new = 7, 12
        cache.put(_key("aggregate", old), "old-epoch-output")
        # a new-epoch query computes a *different* key: structural miss
        value, found = cache.lookup(_key("aggregate", new))
        assert not found
        # the pinned old-epoch session still hits its entry
        assert cache.get(_key("aggregate", old)) == "old-epoch-output"
        # retirement hygiene: one eager sweep drops the stale entries
        dropped = cache.invalidate(dataset_epoch=new)
        assert dropped == 1
        assert _key("aggregate", old) not in cache


class TestConcurrency:
    def test_counter_conservation_under_concurrent_load(self):
        """8 threads, disjoint key ranges: totals are exact (every
        lookup is one hit or one miss, nothing torn or lost)."""
        cache = StageCache(1024)
        per_thread = 200

        def work(tid: int) -> None:
            for i in range(per_thread):
                key = _key(f"stage-{tid}", tid, i % 50)
                value, found = cache.lookup(key)
                if found:
                    assert value == (tid, i % 50)
                else:
                    cache.put(key, (tid, i % 50))

        _run_threads(work)
        stats = cache.stats
        assert stats.hits + stats.misses == N_THREADS * per_thread
        # disjoint ranges, ample capacity: exactly 50 misses per thread
        assert stats.misses == N_THREADS * 50
        assert stats.evictions == 0
        assert len(cache) == N_THREADS * 50

    def test_concurrent_same_key_last_put_wins_consistently(self):
        """Contending on one key never corrupts: every get returns some
        thread's complete value, never a torn mix."""
        cache = StageCache(16)
        key = _key("hot", 1)

        def work(tid: int) -> None:
            for i in range(200):
                cache.put(key, (tid, i))
                got = cache.get(key)
                assert isinstance(got, tuple) and len(got) == 2

        _run_threads(work)
        assert len(cache) == 1
