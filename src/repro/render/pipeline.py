"""The wall rendering pipeline.

A :class:`WallRenderer` turns an exploration state — dataset, layout
assignment, brush canvas, query results, temporal window, projection —
into per-tile, per-eye framebuffers.  Tiles are independent render
units: :meth:`render_tile` touches only geometry overlapping one panel,
which is what makes process-parallel rendering
(:mod:`repro.parallel.tilerender`) a drop-in.

A :class:`RenderJob` is the picklable work description one tile worker
needs (everything resolved to plain arrays before shipping).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.canvas import BrushCanvas
from repro.core.result import QueryResult
from repro.display.coords import CoordinateMapper
from repro.display.tile import Tile
from repro.display.viewport import Viewport
from repro.layout.cells import CellAssignment
from repro.render.framebuffer import Framebuffer, Sprite
from repro.render.lines import Window
from repro.render.raster import CellRenderer, CellStyle, FootprintCache
from repro.stereo.camera import Eye
from repro.stereo.projection import SpaceTimeProjection
from repro.synth.arena import Arena
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.model import Trajectory

__all__ = ["RenderJob", "WallRenderer", "BaseBoxes", "brush_clears_later_bases"]


@dataclass(frozen=True)
class RenderJob:
    """Work description for rendering one tile for one eye."""

    tile: Tile
    eye: Eye
    cell_rects: np.ndarray            # (C, 4) wall rects of cells on this tile
    cell_traj: np.ndarray             # (C,) dataset indices (-1 = empty)
    cell_colors: np.ndarray           # (C, 3) group background colors
    cell_labels: tuple[str, ...] = () # per-cell annotation ("" = none)


class WallRenderer:
    """Renders the application's state onto a wall viewport.

    Parameters
    ----------
    dataset:
        Trajectories being displayed.
    arena:
        The shared arena (drives per-cell coordinate mappers).
    viewport:
        The hosting viewport.
    projection:
        Stereo space-time projection.
    style:
        Cell styling.
    """

    def __init__(
        self,
        dataset: TrajectoryDataset,
        arena: Arena,
        viewport: Viewport,
        projection: SpaceTimeProjection | None = None,
        style: CellStyle | None = None,
    ) -> None:
        self.dataset = dataset
        self.arena = arena
        self.viewport = viewport
        self.projection = projection or SpaceTimeProjection()
        self.style = style or CellStyle()

    # Job construction -----------------------------------------------------
    def _cells_on_tile(
        self, tile: Tile, assignment: CellAssignment
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rects, traj_indices, colors) of cells intersecting one tile.

        Bezel-aware grids place each cell wholly inside a panel, so the
        intersection test is a containment test of cell centers.
        """
        rects = assignment.grid.rects()
        cx = 0.5 * (rects[:, 0] + rects[:, 2])
        cy = 0.5 * (rects[:, 1] + rects[:, 3])
        x0, y0, x1, y1 = tile.rect
        on_tile = (cx >= x0) & (cx < x1) & (cy >= y0) & (cy < y1)
        idx = np.flatnonzero(on_tile)
        colors = np.full((len(idx), 3), 0.10, dtype=np.float64)
        labels = [""] * len(idx)
        if assignment.groups is not None:
            specs = list(assignment.groups)
            labeled_groups: set[int] = set()
            for k, cell_i in enumerate(idx):
                gi = int(assignment.group_of_cell[cell_i])
                if gi >= 0:
                    colors[k] = specs[gi].color
                    # label each group once per tile, at its first cell
                    if gi not in labeled_groups:
                        labels[k] = specs[gi].name
                        labeled_groups.add(gi)
        return rects[idx], assignment.cell_to_traj[idx], colors, tuple(labels)

    def make_jobs(self, assignment: CellAssignment, eyes: tuple[Eye, ...] = (Eye.LEFT, Eye.RIGHT)) -> list[RenderJob]:
        """One job per (tile, eye) over the viewport."""
        jobs: list[RenderJob] = []
        for tile in self.viewport.tiles():
            rects, trajs, colors, labels = self._cells_on_tile(tile, assignment)
            for eye in eyes:
                jobs.append(RenderJob(tile, eye, rects, trajs, colors, labels))
        return jobs

    # Rendering ---------------------------------------------------------------
    def _target(
        self, job: RenderJob, into: np.ndarray | None, *, clear: bool = True
    ) -> Framebuffer:
        """A fresh background-filled framebuffer for the job's tile, or
        ``into`` adopted (it must be a C-contiguous float32 (H, W, 3)
        array) and, with ``clear``, filled with the background."""
        tile = job.tile
        if into is None:
            return Framebuffer(tile.px_width, tile.px_height, self.style.background)
        fb = Framebuffer.from_array(into)
        if fb.data is not into or fb.data.shape != (tile.px_height, tile.px_width, 3):
            raise ValueError(
                "into must be a C-contiguous float32 "
                f"({tile.px_height}, {tile.px_width}, 3) array"
            )
        if clear:
            fb.clear(self.style.background)
        return fb

    def render_job(
        self,
        job: RenderJob,
        *,
        canvas: BrushCanvas | None = None,
        results: dict[str, QueryResult] | None = None,
        footprint_cache: FootprintCache | None = None,
        into: np.ndarray | None = None,
    ) -> Framebuffer:
        """Rasterize one tile/eye job into a framebuffer.

        The framebuffer is fresh, or with ``into`` it adopts that
        (H, W, 3) C-contiguous float32 array — a pooled job's writable
        shared-framebuffer slot — clears it and draws in place, so the
        pixels need no copy afterwards.

        Cells are drawn in order, each with its base layers (background,
        rim, label, trajectory) and then its brush layers (footprints,
        highlights).  Within a tile, every cell draws the brush
        footprint sprite of the first cell of its pixel size (sub-pixel
        offsets between cells are ignored; a cell whose sprite would
        overhang the tile draws it cropped).  ``footprint_cache``
        (:data:`~repro.render.raster.FootprintCache`) may be shared
        across the jobs of one frame or batch: it holds those
        first-cell footprints and the arena-rim sprites, each keyed by
        the exact inputs it was computed from, so a job served from the
        cache draws the bytes it would have computed itself and a frame
        pays each distinct footprint and rim once.  The stroke set of a
        color is constant within a frame; never reuse a cache across
        canvas changes.
        """
        fb = self._target(job, into)
        cells = _CellPasses(self, job, canvas, results, footprint_cache)
        for i in range(len(cells)):
            cells.base(fb, i)
            cells.brush(fb, i)
        return fb

    def render_base(
        self,
        job: RenderJob,
        *,
        into: np.ndarray,
        footprint_cache: FootprintCache | None = None,
    ) -> np.ndarray:
        """Clear ``into`` and draw only the base layers of every cell.

        Returns the job's :data:`BaseBoxes`: one ``(cell, x0, y0, x1,
        y1)`` row per pixel box a base layer was drawn in, which
        :meth:`render_brush` needs to tell whether the brush layers may
        be drawn over this base.
        """
        fb = self._target(job, into)
        cells = _CellPasses(self, job, None, None, footprint_cache)
        return _boxes([(i, box) for i in range(len(cells)) for box in cells.base(fb, i)])

    def render_brush(
        self,
        job: RenderJob,
        *,
        into: np.ndarray,
        base_boxes: np.ndarray,
        canvas: BrushCanvas | None = None,
        results: dict[str, QueryResult] | None = None,
        footprint_cache: FootprintCache | None = None,
    ) -> bool:
        """Draw the brush layers of every cell onto ``into``, which
        holds the job's base (as :meth:`render_base` drew it).

        The result is byte-equal to :meth:`render_job` when no brush
        pixel of a cell lands in a box where a *later* cell draws base
        layers: :meth:`render_job` draws such a pixel's brush before
        that base, this pass after it.  Returns whether that holds,
        checked against ``base_boxes``; on False the caller must render
        the job in full.
        """
        fb = self._target(job, into, clear=False)
        cells = _CellPasses(self, job, canvas, results, footprint_cache)
        brush = _boxes([(i, box) for i in range(len(cells)) for box in cells.brush(fb, i)])
        return brush_clears_later_bases(brush, base_boxes)

    def render_viewport(
        self,
        assignment: CellAssignment,
        *,
        eyes: tuple[Eye, ...] = (Eye.LEFT, Eye.RIGHT),
        canvas: BrushCanvas | None = None,
        results: dict[str, QueryResult] | None = None,
    ) -> dict[Eye, dict[tuple[int, int], Framebuffer]]:
        """Render every tile serially; returns {eye: {(col,row): fb}}.

        One footprint cache serves the whole frame, as it serves each
        worker's batch on the pooled path.

        The process-parallel equivalent lives in
        :func:`repro.parallel.tilerender.render_viewport_parallel`.
        """
        out: dict[Eye, dict[tuple[int, int], Framebuffer]] = {eye: {} for eye in eyes}
        footprint_cache: FootprintCache = {}
        for job in self.make_jobs(assignment, eyes):
            fb = self.render_job(
                job, canvas=canvas, results=results, footprint_cache=footprint_cache
            )
            out[job.eye][(job.tile.col, job.tile.row)] = fb
        return out


#: Pixel boxes of one job's layers: an (n, 5) int64 array of rows
#: ``(cell index, x0, y0, x1, y1)``, columns ``[x0, x1)`` and rows
#: ``[y0, y1)`` of the tile.
BaseBoxes = np.ndarray


def _boxes(rows: list[tuple[int, Window]]) -> np.ndarray:
    return np.array([(i, *box) for i, box in rows], dtype=np.int64).reshape(-1, 5)


def brush_clears_later_bases(brush_boxes: np.ndarray, base_boxes: np.ndarray) -> bool:
    """True when no brush box of a cell ``c`` meets a base box of a cell
    ``d > c`` — the condition under which drawing all bases first and
    all brushes after leaves the bytes of the per-cell order."""
    for c, x0, y0, x1, y1 in brush_boxes:
        later = base_boxes[base_boxes[:, 0] > c]
        if np.any(
            (later[:, 1] < x1) & (later[:, 3] > x0)
            & (later[:, 2] < y1) & (later[:, 4] > y0)
        ):
            return False
    return True


class _CellPasses:
    """The two layer passes over one job's cells.

    :meth:`base` draws a cell's background, arena rim, label and
    time-graded trajectory; :meth:`brush` its brush footprints and
    highlighted segments.  Both return the pixel boxes they drew in.
    """

    def __init__(
        self,
        wall: WallRenderer,
        job: RenderJob,
        canvas: BrushCanvas | None,
        results: dict[str, QueryResult] | None,
        footprint_cache: FootprintCache | None,
    ) -> None:
        self.dataset = wall.dataset
        self.arena = wall.arena
        self.job = job
        self.results = results
        self.cache = footprint_cache
        self.renderer = CellRenderer(job.tile, wall.projection, wall.style)
        self.packed = wall.dataset.packed() if results else None
        self.labels = job.cell_labels or ("",) * len(job.cell_rects)
        self.rects = [tuple(float(v) for v in rect) for rect in job.cell_rects]
        self.mappers = [CoordinateMapper(self.arena, rect) for rect in self.rects]
        self.trajs: dict[int, Trajectory] = {}
        # footprint sprite per (cell pixel size, color) on this tile
        self.tile_footprints: dict[tuple[int, int, str], Sprite] = {}
        self.stamps = [] if canvas is None else [
            (color_name, *canvas.stamps_of(color_name))
            for color_name in canvas.colors()
        ]

    def __len__(self) -> int:
        return len(self.rects)

    def traj(self, traj_idx: int) -> Trajectory:
        traj = self.trajs.get(traj_idx)
        if traj is None:
            traj = self.trajs[traj_idx] = self.dataset[traj_idx]
        return traj

    def base(self, fb: Framebuffer, i: int) -> list[Window]:
        renderer, rect_t, mapper = self.renderer, self.rects[i], self.mappers[i]
        boxes = [
            renderer.draw_background(fb, rect_t, tuple(self.job.cell_colors[i])),
            renderer.draw_arena_rim(fb, mapper, cache=self.cache),
        ]
        label = self.labels[i]
        if label:
            from repro.render.font import draw_text

            x0, y0, _, y1 = renderer._cell_px_rect(rect_t)
            # scale the label with the cell so it stays legible on
            # composed (downscaled) wall frames
            scale = max(1, (y1 - y0) // 60)
            boxes.append(draw_text(fb, x0 + 3, y0 + 3, label, alpha=0.9, scale=scale))
        traj_idx = int(self.job.cell_traj[i])
        if traj_idx >= 0:
            traj = self.traj(traj_idx)
            boxes.append(renderer.draw_trajectory(fb, traj, mapper, self.job.eye, rect_t))
        return [box for box in boxes if box is not None]

    def brush(self, fb: Framebuffer, i: int) -> list[Window]:
        traj_idx = int(self.job.cell_traj[i])
        if traj_idx < 0:
            return []
        renderer, rect_t, mapper = self.renderer, self.rects[i], self.mappers[i]
        boxes = []
        if self.stamps:
            x0, y0, x1, y1 = renderer._cell_px_rect(rect_t)
            for color_name, centers, radii in self.stamps:
                if not len(centers):
                    continue
                key = (x1 - x0, y1 - y0, color_name)
                sprite = self.tile_footprints.get(key)
                if sprite is None:
                    _, sprite = renderer.footprint_sprite(
                        mapper, centers, radii, color_name, rect_t, cache=self.cache,
                    )
                    self.tile_footprints[key] = sprite
                boxes.append(renderer.draw_sprite(fb, sprite, rect_t))
        if self.results:
            traj = self.traj(traj_idx)
            rows = self.packed.rows_of(traj_idx)
            for color_name, res in self.results.items():
                seg_mask = res.segment_mask[rows]
                if seg_mask.any():
                    boxes.append(renderer.draw_highlights(
                        fb, traj, mapper, self.job.eye, seg_mask, color_name, rect_t
                    ))
        return [box for box in boxes if box is not None]
