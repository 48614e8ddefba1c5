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
from repro.render.framebuffer import Framebuffer
from repro.render.raster import CellRenderer, CellStyle, FootprintCache
from repro.stereo.camera import Eye
from repro.stereo.projection import SpaceTimeProjection
from repro.synth.arena import Arena
from repro.trajectory.dataset import TrajectoryDataset

__all__ = ["RenderJob", "WallRenderer"]


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
    def render_job(
        self,
        job: RenderJob,
        *,
        canvas: BrushCanvas | None = None,
        results: dict[str, QueryResult] | None = None,
        footprint_cache: FootprintCache | None = None,
    ) -> Framebuffer:
        """Rasterize one tile/eye job into a fresh framebuffer.

        Within a tile, every cell draws the brush footprint of the
        first cell of its pixel size (sub-pixel offsets between cells
        are ignored).  ``footprint_cache`` may be shared across the jobs
        of one frame: it holds those first-cell maps keyed by the exact
        arena grid of the cell they were computed for and the color, so
        a job served from the cache draws the bytes it would have
        computed itself, and a frame pays each distinct map once.  The
        stroke set of a color is constant within a frame; never reuse
        a cache across canvas changes.
        """
        tile = job.tile
        fb = Framebuffer(tile.px_width, tile.px_height, self.style.background)
        renderer = CellRenderer(tile, self.projection, self.style)
        packed = self.dataset.packed() if results else None
        # footprint per (cell pixel size, color) on this tile
        tile_footprints: dict[tuple[int, int, str], np.ndarray] = {}
        labels = job.cell_labels or ("",) * len(job.cell_rects)
        for rect, traj_idx, color, label in zip(
            job.cell_rects, job.cell_traj, job.cell_colors, labels
        ):
            rect_t = tuple(float(v) for v in rect)
            renderer.draw_background(fb, rect_t, tuple(color))
            mapper = CoordinateMapper(self.arena, rect_t)
            renderer.draw_arena_rim(fb, mapper)
            if label:
                from repro.render.font import draw_text

                x0, y0, _, y1 = renderer._cell_px_rect(rect_t)
                # scale the label with the cell so it stays legible on
                # composed (downscaled) wall frames
                scale = max(1, (y1 - y0) // 60)
                draw_text(fb, x0 + 3, y0 + 3, label, alpha=0.9, scale=scale)
            if traj_idx < 0:
                continue
            traj = self.dataset[int(traj_idx)]
            renderer.draw_trajectory(fb, traj, mapper, job.eye, rect_t)
            if canvas is not None:
                x0, y0, x1, y1 = renderer._cell_px_rect(rect_t)
                for color_name in canvas.colors():
                    centers, radii = canvas.stamps_of(color_name)
                    if not len(centers):
                        continue
                    key = (x1 - x0, y1 - y0, color_name)
                    cov = renderer.draw_brush_footprint(
                        fb, mapper, centers, radii, color_name, rect_t,
                        precomputed=tile_footprints.get(key),
                        cache=footprint_cache,
                    )
                    if cov is not None:
                        tile_footprints.setdefault(key, cov)
            if results:
                for color_name, res in results.items():
                    rows = packed.rows_of(int(traj_idx))
                    seg_mask = res.segment_mask[rows]
                    if seg_mask.any():
                        renderer.draw_highlights(
                            fb, traj, mapper, job.eye, seg_mask, color_name, rect_t
                        )
        return fb

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
