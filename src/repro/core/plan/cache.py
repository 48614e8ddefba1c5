"""The keyed stage cache.

An LRU mapping stage cache keys to stage outputs.  Invalidation is
epoch-based and *explicit*: every key embeds the epochs its value
depends on (dataset epoch, canvas stroke epoch, window key), so a
bumped epoch makes stale entries unreachable immediately — they are
then either evicted lazily by the LRU or eagerly via
:meth:`StageCache.invalidate`.

Stage outputs are numpy arrays marked read-only by the executor before
insertion, so serving the same array to multiple queries is safe.

One class serves the single-user engine and the multi-tenant service
alike: every operation runs behind one mutex (an LRU lookup is a
read-*modify* operation — ``move_to_end``), so concurrent sessions may
share one cache.  The critical section is a handful of dict operations,
bounded and allocation-light, and it never touches the service lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any

__all__ = ["StageCache", "CacheStats"]

_MISSING = object()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache lifetime."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class StageCache:
    """Thread-safe LRU cache of stage outputs keyed on epoch-embedding
    tuples.

    Parameters
    ----------
    capacity:
        Maximum number of retained stage outputs; least recently used
        entries are evicted beyond it.

    Every method holds the cache's one lock for its whole body, so
    counters are exact under concurrency (each lookup is one hit or one
    miss) and :attr:`stats` reads a consistent copy.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self._stats = CacheStats()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def stats(self) -> CacheStats:
        """A consistent copy of the counters (mutating it does not
        write back)."""
        with self._lock:
            return replace(self._stats)

    def get(self, key: tuple) -> Any:
        """Look up a stage output; counts a hit/miss and refreshes
        recency.  Returns ``None`` on a miss — use :meth:`lookup` when
        ``None`` is a legal cached value."""
        value, found = self.lookup(key)
        return value if found else None

    def lookup(self, key: tuple) -> tuple[Any, bool]:
        """(value, found) lookup that distinguishes a cached ``None``."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self._stats.misses += 1
                return None, False
            self._entries.move_to_end(key)
            self._stats.hits += 1
            return value, True

    def put(self, key: tuple, value: Any) -> None:
        """Insert (or refresh) a stage output, evicting LRU overflow."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._stats.evictions += 1

    # Invalidation -------------------------------------------------------
    def invalidate(
        self,
        *,
        dataset_epoch: int | None = None,
        canvas_epoch: int | None = None,
        window_key: tuple | None = None,
    ) -> int:
        """Eagerly drop entries whose key embeds a *different* epoch.

        Keys are tuples of the form ``(stage, dataset_epoch, ...)``
        built by the planner; each criterion drops every entry whose
        embedded value for that dimension differs from the one given
        (i.e. "keep only the current epoch").  Returns the number of
        entries dropped.  Purely an eager complement to the lazy
        epoch-in-key scheme — correctness never depends on calling it.
        """
        with self._lock:
            drop: list[tuple] = []
            for key in self._entries:
                meta = _key_meta(key)
                if dataset_epoch is not None and meta.get("dataset_epoch") != dataset_epoch:
                    drop.append(key)
                elif canvas_epoch is not None and meta.get("canvas_epoch", canvas_epoch) != canvas_epoch:
                    drop.append(key)
                elif window_key is not None and meta.get("window_key", window_key) != window_key:
                    drop.append(key)
            for key in drop:
                del self._entries[key]
            self._stats.invalidations += len(drop)
            return len(drop)

    def clear(self) -> None:
        """Drop everything (counts as invalidations)."""
        with self._lock:
            self._stats.invalidations += len(self._entries)
            self._entries.clear()

    def keys(self) -> list[tuple]:
        """Current keys, LRU-first (introspection/tests)."""
        with self._lock:
            return list(self._entries)


def _key_meta(key: tuple) -> dict:
    """Decode the epoch metadata the planner embeds in a cache key.

    Planner keys are ``(stage, ("ds", e), ("cv", e)?, ("win", k)?,
    ...)`` — tagged pairs after the stage name; unrecognized elements
    are ignored so key shapes can evolve per stage.
    """
    meta: dict = {}
    tag_names = {"ds": "dataset_epoch", "cv": "canvas_epoch", "win": "window_key"}
    for element in key[1:]:
        if isinstance(element, tuple) and len(element) == 2 and element[0] in tag_names:
            meta[tag_names[element[0]]] = element[1]
    return meta
