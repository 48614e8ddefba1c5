"""Parallel execution harness.

On the real wall each tile is driven by its own render node; the
software reproduction mirrors that with a process pool over per-tile
render jobs (tiles share nothing, so the decomposition is embarrassing
— the interesting part is amortizing worker startup and shipping only
what a tile needs).  The pool is persistent: one render service per
published store keeps its workers, its shared frame block and its
retained base layers for the session.
"""

from repro.parallel.partition import chunk_indices, partition_jobs_by_cost
from repro.parallel.tilerender import render_viewport_parallel

__all__ = [
    "chunk_indices",
    "partition_jobs_by_cost",
    "render_viewport_parallel",
]
