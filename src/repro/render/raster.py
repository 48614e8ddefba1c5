"""Cell rasterization.

A :class:`CellRenderer` draws one small-multiple cell — group
background, arena rim, the trajectory's per-eye projected space-time
polyline with a time gradient, brush-highlighted segments in their
query color, and the translucent brush footprint — into a tile
framebuffer.  All geometry arrives in wall meters and is converted to
tile pixels through the owning :class:`~repro.display.tile.Tile`.

Coverage accumulation happens in *cell-local* scratch buffers (the
cell's pixel bounding box, not the whole tile), which keeps per-cell
cost proportional to cell area — with 36x12 layouts a tile hosts dozens
of cells and tile-sized temporaries would dominate the frame time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.display.coords import CoordinateMapper
from repro.display.tile import Tile
from repro.render.color import Color, named_color, time_gradient
from repro.render.framebuffer import Framebuffer, composite
from repro.render.lines import splat_polylines
from repro.stereo.camera import Eye
from repro.stereo.projection import SpaceTimeProjection
from repro.trajectory.model import Trajectory

__all__ = ["CellStyle", "CellRenderer", "FootprintCache"]

#: Brush-footprint coverage maps keyed by the exact inputs they are a
#: pure function of: (arena x of the pixel-centre columns, arena y of
#: the rows, soft-edge width, brush color), the grids as raw bytes.
FootprintCache = dict[tuple[bytes, bytes, float, str], np.ndarray]


@dataclass(frozen=True)
class CellStyle:
    """Visual styling of a cell."""

    background: Color = (0.10, 0.10, 0.12)
    rim_color: Color = (0.35, 0.35, 0.40)
    line_width: float = 1.6
    highlight_width: float = 2.4
    brush_alpha: float = 0.25
    background_dim: float = 0.35
    step_px: float = 0.7
    #: Pixels of slack around a cell for content that overhangs it
    #: (stereo shear pushes near-depth samples sideways).
    overdraw_px: int = 8


class CellRenderer:
    """Draws trajectory cells onto one tile's framebuffer."""

    def __init__(
        self,
        tile: Tile,
        projection: SpaceTimeProjection,
        style: CellStyle | None = None,
    ) -> None:
        self.tile = tile
        self.projection = projection
        self.style = style or CellStyle()

    # Helpers ---------------------------------------------------------------
    def _cell_px_rect(
        self, cell_rect: tuple[float, float, float, float], pad: int = 0
    ) -> tuple[int, int, int, int]:
        """Cell wall-rect -> clipped integer tile pixel rect (x0,y0,x1,y1)."""
        corners = np.array(
            [[cell_rect[0], cell_rect[1]], [cell_rect[2], cell_rect[3]]], dtype=np.float64
        )
        px = self.tile.wall_to_pixel(corners)
        x0 = max(0, int(np.floor(px[0, 0])) - pad)
        y0 = max(0, int(np.floor(px[0, 1])) - pad)
        x1 = min(self.tile.px_width, int(np.ceil(px[1, 0])) + pad)
        y1 = min(self.tile.px_height, int(np.ceil(px[1, 1])) + pad)
        return x0, y0, x1, y1

    def _dim(self, color: Color) -> Color:
        k = self.style.background_dim
        return (color[0] * k, color[1] * k, color[2] * k)

    # Drawing ------------------------------------------------------------------
    def draw_background(
        self,
        fb: Framebuffer,
        cell_rect: tuple[float, float, float, float],
        group_color: Color | None,
    ) -> None:
        """Fill the cell with its (dimmed) group color."""
        x0, y0, x1, y1 = self._cell_px_rect(cell_rect)
        color = self._dim(group_color) if group_color is not None else self.style.background
        fb.fill_rect(x0, y0, x1, y1, color)

    def draw_arena_rim(self, fb: Framebuffer, mapper: CoordinateMapper) -> None:
        """The arena outline — the visual reference for brushing."""
        center_wall = mapper.arena_to_wall(np.zeros((1, 2)))[0]
        center_px = self.tile.wall_to_pixel(center_wall[None, :])[0]
        radius_px = mapper.scale * mapper.arena.radius * self.tile.pixels_per_meter[0]
        fb.draw_circle_outline(
            center_px[0], center_px[1], radius_px, self.style.rim_color, thickness=1.0
        )

    def draw_trajectory(
        self,
        fb: Framebuffer,
        traj: Trajectory,
        mapper: CoordinateMapper,
        eye: Eye,
        cell_rect: tuple[float, float, float, float],
    ) -> None:
        """Splat the per-eye projected space-time polyline, time-graded."""
        x0, y0, x1, y1 = self._cell_px_rect(cell_rect, pad=self.style.overdraw_px)
        if x1 <= x0 or y1 <= y0:
            return
        projected_wall = self.projection.project(traj, mapper, eye)
        px = self.tile.wall_to_pixel(projected_wall)
        px -= (x0, y0)
        a = px[:-1]
        b = px[1:]
        tmid = 0.5 * (traj.times[:-1] + traj.times[1:])
        denom = max(traj.duration, 1e-9)
        t01 = (tmid - traj.times[0]) / denom
        ch, cw = y1 - y0, x1 - x0
        coverage = np.zeros((ch, cw), dtype=np.float64)
        rgb = np.zeros((ch, cw, 3), dtype=np.float64)
        splat_polylines(
            coverage,
            a,
            b,
            width=self.style.line_width,
            step=self.style.step_px,
            seg_values=t01,
            rgb_accum=rgb,
            value_to_rgb=time_gradient,
        )
        hit = coverage > 1e-9
        mean_rgb = np.zeros_like(rgb)
        mean_rgb[hit] = rgb[hit] / coverage[hit][:, None]
        composite(
            fb.data[y0:y1, x0:x1], np.minimum(coverage, 1.0), mean_rgb.astype(np.float32)
        )

    def draw_highlights(
        self,
        fb: Framebuffer,
        traj: Trajectory,
        mapper: CoordinateMapper,
        eye: Eye,
        seg_mask: np.ndarray,
        color_name: str,
        cell_rect: tuple[float, float, float, float],
    ) -> None:
        """Overlay the highlighted segments in the brush color."""
        seg_mask = np.asarray(seg_mask, dtype=bool)
        if seg_mask.shape != (traj.n_samples - 1,):
            raise ValueError(
                f"seg_mask has {seg_mask.shape}, expected ({traj.n_samples - 1},)"
            )
        if not seg_mask.any():
            return
        x0, y0, x1, y1 = self._cell_px_rect(cell_rect, pad=self.style.overdraw_px)
        if x1 <= x0 or y1 <= y0:
            return
        projected_wall = self.projection.project(traj, mapper, eye)
        px = self.tile.wall_to_pixel(projected_wall)
        px -= (x0, y0)
        a = px[:-1][seg_mask]
        b = px[1:][seg_mask]
        coverage = np.zeros((y1 - y0, x1 - x0), dtype=np.float64)
        splat_polylines(
            coverage, a, b, width=self.style.highlight_width, step=self.style.step_px
        )
        composite(
            fb.data[y0:y1, x0:x1], np.minimum(coverage, 1.0), named_color(color_name)
        )

    def _footprint_grid(
        self, mapper: CoordinateMapper, cell_rect: tuple[float, float, float, float]
    ) -> tuple[np.ndarray, np.ndarray, float, tuple[int, int, int, int]]:
        """Arena coordinates of the cell's pixel-centre columns and rows,
        the one-pixel soft-edge width in arena meters, and the clipped
        pixel rect.  The footprint coverage is a pure function of the
        two grids, the soft width and the stamps."""
        x0, y0, x1, y1 = self._cell_px_rect(cell_rect)
        xs = np.arange(x0, x1, dtype=np.float64) + 0.5
        ys = np.arange(y0, y1, dtype=np.float64) + 0.5
        # every mapping below is per-axis elementwise, so one padded
        # (n, 2) pass yields exactly the per-pixel values of a full grid
        px = np.zeros((max(len(xs), len(ys)), 2))
        px[: len(xs), 0] = xs
        px[: len(ys), 1] = ys
        arena = mapper.wall_to_arena(self.tile.pixel_to_wall(px))
        soft = 1.0 / (mapper.scale * self.tile.pixels_per_meter[0])  # 1 px in arena m
        return arena[: len(xs), 0], arena[: len(ys), 1], soft, (x0, y0, x1, y1)

    def brush_footprint_coverage(
        self,
        mapper: CoordinateMapper,
        cell_rect: tuple[float, float, float, float],
        centers_arena: np.ndarray,
        radii_arena: np.ndarray,
        *,
        stamp_chunk: int = 64,
    ) -> tuple[np.ndarray, tuple[int, int, int, int]]:
        """Coverage map of the brushed region over one cell.

        Computed as a signed distance field on the cell's pixel grid:
        for each pixel, the minimum of (distance-to-stamp - radius)
        over all stamps, converted to coverage with a one-pixel soft
        edge.  The field is evaluated only over the pixels near the
        stamps' bounding box (the rest is exactly 0), and stamps are
        processed in chunks to bound the (pixels x stamps) temporary.
        """
        ax, ay, soft, rect = self._footprint_grid(mapper, cell_rect)
        return self._footprint(ax, ay, soft, centers_arena, radii_arena, stamp_chunk), rect

    @staticmethod
    def _footprint(
        ax: np.ndarray,
        ay: np.ndarray,
        soft: float,
        centers_arena: np.ndarray,
        radii_arena: np.ndarray,
        stamp_chunk: int = 64,
    ) -> np.ndarray:
        if len(ax) == 0 or len(ay) == 0:
            return np.zeros((0, 0))
        centers = np.asarray(centers_arena, dtype=np.float64)
        radii = np.asarray(radii_arena, dtype=np.float64)
        coverage = np.zeros((len(ay), len(ax)))
        if len(centers) == 0:
            return coverage
        # A pixel more than one soft width outside the box of every
        # stamp has signed distance > soft, so 0.5 - signed / soft clips
        # to exactly 0: the field is evaluated only inside that box.
        lo = (centers - radii[:, None] - soft).min(axis=0)
        hi = (centers + radii[:, None] + soft).max(axis=0)
        cols = np.flatnonzero((ax >= lo[0]) & (ax <= hi[0]))
        rows = np.flatnonzero((ay >= lo[1]) & (ay <= hi[1]))
        if len(cols) == 0 or len(rows) == 0:
            return coverage
        box = np.s_[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
        gx, gy = np.meshgrid(ax[box[1]], ay[box[0]])
        arena_pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        signed = np.full(len(arena_pts), np.inf)
        for lo_j in range(0, len(centers), stamp_chunk):
            c = centers[lo_j : lo_j + stamp_chunk]
            r = radii[lo_j : lo_j + stamp_chunk]
            d = np.sqrt(
                (arena_pts[:, None, 0] - c[None, :, 0]) ** 2
                + (arena_pts[:, None, 1] - c[None, :, 1]) ** 2
            )
            np.minimum(signed, (d - r[None, :]).min(axis=1), out=signed)
        coverage[box] = np.clip(0.5 - signed / soft, 0.0, 1.0).reshape(gx.shape)
        return coverage

    def draw_brush_footprint(
        self,
        fb: Framebuffer,
        mapper: CoordinateMapper,
        centers_arena: np.ndarray,
        radii_arena: np.ndarray,
        color_name: str,
        cell_rect: tuple[float, float, float, float],
        *,
        precomputed: np.ndarray | None = None,
        cache: FootprintCache | None = None,
    ) -> np.ndarray | None:
        """Translucent discs showing where the brush was painted.

        ``precomputed`` draws the coverage of another cell of the same
        pixel size instead (see :meth:`WallRenderer.render_job
        <repro.render.pipeline.WallRenderer.render_job>`).  Otherwise
        the map is computed for this cell, or taken from ``cache``:
        entries are keyed by the exact arena coordinates of the cell's
        pixel grid, so a hit only ever serves a map that would have
        been computed bit for bit the same.  Returns the coverage map.
        """
        centers_arena = np.asarray(centers_arena, dtype=np.float64)
        if len(centers_arena) == 0:
            return None
        if precomputed is not None:
            x0, y0, x1, y1 = self._cell_px_rect(cell_rect)
            coverage = precomputed
            ch, cw = coverage.shape
            x1, y1 = x0 + cw, y0 + ch
            if x1 > self.tile.px_width or y1 > self.tile.px_height:
                coverage = coverage[: self.tile.px_height - y0, : self.tile.px_width - x0]
                y1 = min(y1, self.tile.px_height)
                x1 = min(x1, self.tile.px_width)
        else:
            ax, ay, soft, (x0, y0, x1, y1) = self._footprint_grid(mapper, cell_rect)
            key = (ax.tobytes(), ay.tobytes(), soft, color_name)
            coverage = None if cache is None else cache.get(key)
            if coverage is None:
                coverage = self._footprint(ax, ay, soft, centers_arena, radii_arena)
                if cache is not None:
                    cache[key] = coverage
        if coverage.size == 0:
            return coverage
        composite(
            fb.data[y0:y1, x0:x1],
            coverage * self.style.brush_alpha,
            named_color(color_name),
        )
        return coverage
