"""Uniform-grid segment binning (build only).

No query route reads this structure any more: brush queries answer
through the :class:`~repro.core.aggregate.SummaryPyramid` or, as the
oracle and degradation rung, the linear scan.  :class:`UniformGridIndex`
is kept only because the traced run of the interaction benchmark
(``perfbench``) times its build as a layer of the ledger; a later
change that edits the benchmark removes the module.  Nothing under
``src/`` imports it.

The bin structure is CSR-like (one int array of segment rows + one
offset array per cell), built fully vectorized with a counting sort.
"""

from __future__ import annotations

import numpy as np

from repro.trajectory.dataset import PackedSegments

__all__ = ["UniformGridIndex"]


class UniformGridIndex:
    """A ``res`` x ``res`` uniform grid over the segments' bounding box.

    Each segment is registered in every cell its axis-aligned bounding
    box overlaps (segments are short relative to cells at sensible
    resolutions, so the duplication factor stays near 1).
    """

    def __init__(self, packed: PackedSegments, res: int = 64) -> None:
        if res < 1:
            raise ValueError("res must be >= 1")
        if packed.n_segments == 0:
            raise ValueError("cannot index an empty segment set")
        self.res = int(res)
        self.packed = packed

        lo = np.minimum(packed.a, packed.b).min(axis=0)
        hi = np.maximum(packed.a, packed.b).max(axis=0)
        span = np.maximum(hi - lo, 1e-12)
        # pad so boundary points land strictly inside
        self.lo = lo - 1e-9 * span
        self.cell_size = (span * (1.0 + 2e-9)) / res

        # integer cell ranges per segment (inclusive)
        lo_cells = self._cell_of(np.minimum(packed.a, packed.b))
        hi_cells = self._cell_of(np.maximum(packed.a, packed.b))
        spans = (hi_cells - lo_cells + 1).prod(axis=1)
        total = int(spans.sum())

        # expand each segment id into all covered cells, vectorized by
        # span size classes (the vast majority cover a single cell)
        seg_ids = np.empty(total, dtype=np.int64)
        cell_ids = np.empty(total, dtype=np.int64)
        cursor = 0
        for sx in range(1, int((hi_cells[:, 0] - lo_cells[:, 0] + 1).max()) + 1):
            for sy in range(1, int((hi_cells[:, 1] - lo_cells[:, 1] + 1).max()) + 1):
                sel = (
                    (hi_cells[:, 0] - lo_cells[:, 0] + 1 == sx)
                    & (hi_cells[:, 1] - lo_cells[:, 1] + 1 == sy)
                )
                if not sel.any():
                    continue
                rows = np.flatnonzero(sel)
                base = lo_cells[rows]
                # all (dx, dy) offsets of this span class
                dx, dy = np.meshgrid(np.arange(sx), np.arange(sy), indexing="ij")
                offs = np.stack([dx.ravel(), dy.ravel()], axis=1)  # (sx*sy, 2)
                cells = base[:, None, :] + offs[None, :, :]  # (R, sx*sy, 2)
                flat = cells[..., 1] * res + cells[..., 0]
                count = rows.size * sx * sy
                seg_ids[cursor : cursor + count] = np.repeat(rows, sx * sy)
                cell_ids[cursor : cursor + count] = flat.ravel()
                cursor += count
        assert cursor == total, (cursor, total)

        order = np.argsort(cell_ids, kind="stable")
        self._entries = seg_ids[order]
        sorted_cells = cell_ids[order]
        counts = np.bincount(sorted_cells, minlength=res * res)
        self._offsets = np.zeros(res * res + 1, dtype=np.int64)
        np.cumsum(counts, out=self._offsets[1:])

    def _cell_of(self, points: np.ndarray) -> np.ndarray:
        """Integer grid cell of (N, 2) points, clipped into the grid."""
        cells = np.floor((points - self.lo) / self.cell_size).astype(np.int64)
        np.clip(cells, 0, self.res - 1, out=cells)
        return cells
