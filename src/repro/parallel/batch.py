"""Chunked/parallel batch queries for very large datasets.

The §VI-C workloads (10k-1M traces) exceed what one packed-array pass
should hold in cache at once; this module shards a dataset into
contiguous trajectory chunks, runs the coordinated-brush kernel per
chunk (optionally across a process pool), and merges the per-chunk
per-trajectory outcomes.  Results are exactly the engine's — sharding
only changes the execution schedule.

Workers normally receive the dataset once, pickled through the pool
initializer.  Passing a published :class:`repro.store.SharedArenaStore`
(``store=``) replaces that with a handle ship + zero-copy attach — the
pool's per-worker payload becomes O(handle bytes) and every worker
reads the same resident arrays.  An unattachable handle falls back to
the pickle path (``report.transport == "pickle-fallback"``).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.store.arena import StoreHandle

import numpy as np

from repro.core.brush import BrushStroke
from repro.core.canvas import BrushCanvas
from repro.core.engine import CoordinatedBrushingEngine
from repro.core.temporal import TimeWindow
from repro.parallel.partition import chunk_indices
from repro.trajectory.dataset import TrajectoryDataset

__all__ = ["BatchQueryReport", "parallel_query_support"]

# Heterogeneous per-worker state (dataset, strokes, pinned client) —
# an explicit Any beats casting at every read site.
_WORKER_DATA: dict[str, Any] = {}


def _init_batch_worker(dataset: TrajectoryDataset, strokes: list[BrushStroke],
                       color: str, window: TimeWindow) -> None:
    _WORKER_DATA["dataset"] = dataset
    _WORKER_DATA["strokes"] = strokes
    _WORKER_DATA["color"] = color
    _WORKER_DATA["window"] = window


def _init_batch_worker_shm(handle: StoreHandle, strokes: list[BrushStroke],
                           color: str, window: TimeWindow) -> None:
    """Zero-copy initializer: attach the shared store once per worker
    and serve every chunk from view-backed trajectories."""
    from repro.store.arena import attach

    client = attach(handle)
    _WORKER_DATA["client"] = client  # keeps the mapping alive
    _WORKER_DATA["dataset"] = client.dataset
    _WORKER_DATA["strokes"] = strokes
    _WORKER_DATA["color"] = color
    _WORKER_DATA["window"] = window


def _query_chunk(chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dataset: TrajectoryDataset = _WORKER_DATA["dataset"]
    sub = dataset[int(chunk[0]) : int(chunk[-1]) + 1]
    canvas = BrushCanvas()
    for s in _WORKER_DATA["strokes"]:
        canvas.add(s)
    engine = CoordinatedBrushingEngine(sub)
    result = engine.query(canvas, _WORKER_DATA["color"], window=_WORKER_DATA["window"])
    return chunk, result.traj_mask


@dataclass(frozen=True)
class BatchQueryReport:
    """Merged outcome of a sharded query.

    ``transport`` records how workers received the dataset:
    ``"in-process"`` (serial path), ``"pickle"`` (initializer ship),
    ``"shm"`` (zero-copy store attach), or ``"pickle-fallback"``
    (a store was requested but its handle could not be attached).
    """

    traj_mask: np.ndarray
    elapsed_s: float
    n_chunks: int
    workers: int
    transport: str = "pickle"

    @property
    def support(self) -> float:
        return float(self.traj_mask.mean()) if len(self.traj_mask) else 0.0


def parallel_query_support(
    dataset: TrajectoryDataset,
    strokes: list[BrushStroke],
    *,
    color: str = "red",
    window: TimeWindow | None = None,
    n_chunks: int | None = None,
    max_workers: int = 0,
    store: "object | None" = None,
) -> BatchQueryReport:
    """Sharded coordinated-brush query over a large dataset.

    With ``max_workers <= 1`` chunks run serially in-process (still
    sharded, which bounds peak memory); otherwise across a pool whose
    workers receive the dataset once via the initializer — as a pickle,
    or as a zero-copy shared-memory attach when ``store`` (a
    :class:`~repro.store.SharedArenaStore` or
    :class:`~repro.store.StoreHandle` publishing ``dataset``) is given.
    """
    window = window or TimeWindow.all()
    if n_chunks is None:
        n_chunks = max(1, len(dataset) // 10_000)
    chunks = chunk_indices(len(dataset), n_chunks)
    mask = np.zeros(len(dataset), dtype=bool)
    t0 = time.perf_counter()
    if max_workers <= 1:
        transport = "in-process"
        _init_batch_worker(dataset, strokes, color, window)
        try:
            for chunk in chunks:
                if len(chunk) == 0:
                    continue
                idx, sub_mask = _query_chunk(chunk)
                mask[idx] = sub_mask
        finally:
            _WORKER_DATA.clear()
        workers = 1
    else:
        initializer, initargs = _init_batch_worker, (dataset, strokes, color, window)
        transport = "pickle"
        if store is not None:
            from repro.store.arena import SharedArenaStore, attach
            from repro.store.shm import StoreAttachError

            handle = store.handle if isinstance(store, SharedArenaStore) else store
            try:
                attach(handle).close()  # fail fast in the parent
            except StoreAttachError:
                transport = "pickle-fallback"
            else:
                initializer = _init_batch_worker_shm
                initargs = (handle, strokes, color, window)
                transport = "shm"
        with ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=initializer,
            initargs=initargs,
        ) as executor:
            for idx, sub_mask in executor.map(_query_chunk, [c for c in chunks if len(c)]):
                mask[idx] = sub_mask
        workers = max_workers
    elapsed = time.perf_counter() - t0
    return BatchQueryReport(
        traj_mask=mask, elapsed_s=elapsed, n_chunks=len(chunks), workers=workers,
        transport=transport,
    )
