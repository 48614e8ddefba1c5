"""Cell rasterization.

A :class:`CellRenderer` draws one small-multiple cell — group
background, arena rim, the trajectory's per-eye projected space-time
polyline with a time gradient, brush-highlighted segments in their
query color, and the translucent brush footprint — into a tile
framebuffer.  All geometry arrives in wall meters and is converted to
tile pixels through the owning :class:`~repro.display.tile.Tile`.

Coverage accumulation happens in *cell-local* scratch buffers (the
cell's pixel bounding box, not the whole tile), and every per-pixel
pass after the splat — the mean-color map, the clamp, the cast and the
composite — runs only over the window the splat reports its content
landed in, so per-cell cost follows the pixels a line covers rather
than the cell's area.  Brush footprints and arena rims are blended as
:class:`~repro.render.framebuffer.Sprite` s held in the frame's one
:data:`FootprintCache`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.display.coords import CoordinateMapper
from repro.display.tile import Tile
from repro.render.color import Color, named_color, time_gradient
from repro.render.framebuffer import Framebuffer, Sprite, composite, composite_sprite
from repro.render.lines import Window, splat_polylines
from repro.stereo.camera import Eye
from repro.stereo.projection import SpaceTimeProjection
from repro.trajectory.model import Trajectory

__all__ = ["CellStyle", "CellRenderer", "FootprintCache"]

#: Side, in pixels, of the blocks the brush distance field is evaluated
#: in (each over only the stamps near it).
_FOOTPRINT_BLOCK = 32

#: The one render cache of a frame (serial) or a worker's batch
#: (pooled), keyed by the exact inputs each entry is a pure function of,
#: arrays as raw bytes:
#:
#: * ``("footprint", arena x of the pixel-centre columns, arena y of the
#:   rows, soft-edge width, brush color, brush alpha)`` -> the cell's
#:   brush coverage map and the :class:`Sprite` it blends;
#: * ``("rim", pixel columns - centre x, pixel rows - centre y, radius,
#:   thickness, color)`` -> the arena rim's :class:`Sprite`.
#:
#: The stroke set of a color must be constant while a cache lives.
FootprintCache = dict[tuple, Any]


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
    ) -> Window | None:
        """Fill the cell with its (dimmed) group color; returns the
        filled pixel box (None when the cell covers no pixel)."""
        x0, y0, x1, y1 = self._cell_px_rect(cell_rect)
        color = self._dim(group_color) if group_color is not None else self.style.background
        fb.fill_rect(x0, y0, x1, y1, color)
        return (x0, y0, x1, y1) if x1 > x0 and y1 > y0 else None

    def draw_arena_rim(
        self,
        fb: Framebuffer,
        mapper: CoordinateMapper,
        *,
        cache: FootprintCache | None = None,
    ) -> Window | None:
        """The arena outline — the visual reference for brushing.

        With ``cache``, cells whose rim sits at the same tile-local
        pixel position (on any tile, for either eye) share one sprite.
        Returns the pixel box the ring was blended in (or None).
        """
        center_wall = mapper.arena_to_wall(np.zeros((1, 2)))[0]
        center_px = self.tile.wall_to_pixel(center_wall[None, :])[0]
        radius_px = mapper.scale * mapper.arena.radius * self.tile.pixels_per_meter[0]
        return fb.draw_circle_outline(
            center_px[0], center_px[1], radius_px, self.style.rim_color,
            thickness=1.0, cache=cache,
        )

    def draw_trajectory(
        self,
        fb: Framebuffer,
        traj: Trajectory,
        mapper: CoordinateMapper,
        eye: Eye,
        cell_rect: tuple[float, float, float, float],
    ) -> Window | None:
        """Splat the per-eye projected space-time polyline, time-graded;
        returns the pixel box it was blended in (or None)."""
        x0, y0, x1, y1 = self._cell_px_rect(cell_rect, pad=self.style.overdraw_px)
        if x1 <= x0 or y1 <= y0:
            return None
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
        window = splat_polylines(
            coverage,
            a,
            b,
            width=self.style.line_width,
            step=self.style.step_px,
            seg_values=t01,
            rgb_accum=rgb,
            value_to_rgb=time_gradient,
        )
        if window is None:
            return None
        # outside the window coverage is exactly 0: nothing to blend
        wx0, wy0, wx1, wy1 = window
        coverage = coverage[wy0:wy1, wx0:wx1]
        rgb = rgb[wy0:wy1, wx0:wx1]
        mean_rgb = np.zeros_like(rgb)
        np.divide(rgb, coverage[..., None], out=mean_rgb, where=coverage[..., None] > 1e-9)
        composite(
            fb.data[y0 + wy0 : y0 + wy1, x0 + wx0 : x0 + wx1],
            np.minimum(coverage, 1.0),
            mean_rgb.astype(np.float32),
        )
        return x0 + wx0, y0 + wy0, x0 + wx1, y0 + wy1

    def draw_highlights(
        self,
        fb: Framebuffer,
        traj: Trajectory,
        mapper: CoordinateMapper,
        eye: Eye,
        seg_mask: np.ndarray,
        color_name: str,
        cell_rect: tuple[float, float, float, float],
    ) -> Window | None:
        """Overlay the highlighted segments in the brush color; returns
        the pixel box they were blended in (or None)."""
        seg_mask = np.asarray(seg_mask, dtype=bool)
        if seg_mask.shape != (traj.n_samples - 1,):
            raise ValueError(
                f"seg_mask has {seg_mask.shape}, expected ({traj.n_samples - 1},)"
            )
        if not seg_mask.any():
            return None
        x0, y0, x1, y1 = self._cell_px_rect(cell_rect, pad=self.style.overdraw_px)
        if x1 <= x0 or y1 <= y0:
            return None
        projected_wall = self.projection.project(traj, mapper, eye)
        px = self.tile.wall_to_pixel(projected_wall)
        px -= (x0, y0)
        a = px[:-1][seg_mask]
        b = px[1:][seg_mask]
        coverage = np.zeros((y1 - y0, x1 - x0), dtype=np.float64)
        window = splat_polylines(
            coverage, a, b, width=self.style.highlight_width, step=self.style.step_px
        )
        if window is None:
            return None
        wx0, wy0, wx1, wy1 = window
        composite(
            fb.data[y0 + wy0 : y0 + wy1, x0 + wx0 : x0 + wx1],
            np.minimum(coverage[wy0:wy1, wx0:wx1], 1.0),
            named_color(color_name),
        )
        return x0 + wx0, y0 + wy0, x0 + wx1, y0 + wy1

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
        edge.  The field is evaluated in pixel blocks, each over only
        the stamps near it (everywhere else it is exactly 0), and
        stamps are processed in chunks to bound the (pixels x stamps)
        temporary.
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
        # A pixel more than one soft width outside the box of a stamp
        # has signed distance > soft to it, so that stamp cannot bring
        # 0.5 - signed / soft above 0: the field is evaluated block by
        # block, each over only the stamps whose padded box meets it,
        # and blocks no stamp meets stay exactly 0.  The minimum is
        # exact, so leaving out stamps that cannot win changes no bit.
        lo = centers - radii[:, None] - soft
        hi = centers + radii[:, None] + soft
        cols = np.flatnonzero((ax >= lo[:, 0].min()) & (ax <= hi[:, 0].max()))
        rows = np.flatnonzero((ay >= lo[:, 1].min()) & (ay <= hi[:, 1].max()))
        if len(cols) == 0 or len(rows) == 0:
            return coverage
        block = _FOOTPRINT_BLOCK
        for r0 in range(rows[0], rows[-1] + 1, block):
            by = ay[r0 : min(r0 + block, rows[-1] + 1)]
            near_y = (hi[:, 1] >= by.min()) & (lo[:, 1] <= by.max())
            if not near_y.any():
                continue
            for c0 in range(cols[0], cols[-1] + 1, block):
                bx = ax[c0 : min(c0 + block, cols[-1] + 1)]
                near = near_y & (hi[:, 0] >= bx.min()) & (lo[:, 0] <= bx.max())
                if not near.any():
                    continue
                gx, gy = np.meshgrid(bx, by)
                arena_pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
                signed = np.full(len(arena_pts), np.inf)
                near_c = centers[near]
                near_r = radii[near]
                for lo_j in range(0, len(near_c), stamp_chunk):
                    c = near_c[lo_j : lo_j + stamp_chunk]
                    r = near_r[lo_j : lo_j + stamp_chunk]
                    d = np.sqrt(
                        (arena_pts[:, None, 0] - c[None, :, 0]) ** 2
                        + (arena_pts[:, None, 1] - c[None, :, 1]) ** 2
                    )
                    np.minimum(signed, (d - r[None, :]).min(axis=1), out=signed)
                coverage[r0 : r0 + len(by), c0 : c0 + len(bx)] = np.clip(
                    0.5 - signed / soft, 0.0, 1.0
                ).reshape(gx.shape)
        return coverage

    def footprint_sprite(
        self,
        mapper: CoordinateMapper,
        centers_arena: np.ndarray,
        radii_arena: np.ndarray,
        color_name: str,
        cell_rect: tuple[float, float, float, float],
        *,
        cache: FootprintCache | None = None,
    ) -> tuple[np.ndarray, Sprite]:
        """The cell's brush coverage map and the sprite it blends
        (coverage times the style's brush alpha, in the brush color).

        Taken from ``cache`` when present: entries are keyed by the
        exact arena coordinates of the cell's pixel grid, so a hit only
        ever serves what would have been computed bit for bit the same.
        """
        ax, ay, soft, _ = self._footprint_grid(mapper, cell_rect)
        alpha = self.style.brush_alpha
        key = ("footprint", ax.tobytes(), ay.tobytes(), soft, color_name, alpha)
        entry = None if cache is None else cache.get(key)
        if entry is None:
            coverage = self._footprint(ax, ay, soft, centers_arena, radii_arena)
            entry = (coverage, Sprite.of(coverage * alpha, named_color(color_name)))
            if cache is not None:
                cache[key] = entry
        return entry

    def draw_sprite(
        self,
        fb: Framebuffer,
        sprite: Sprite,
        cell_rect: tuple[float, float, float, float],
    ) -> Window | None:
        """Blend a sprite at the cell's pixel origin, cropped to the
        framebuffer; returns the box of the pixels blended (or None)."""
        x0, y0, _, _ = self._cell_px_rect(cell_rect)
        sprite = sprite.crop(fb.height - y0, fb.width - x0)
        composite_sprite(fb.data[y0:, x0:], sprite)
        if len(sprite.rows) == 0:
            return None
        return (
            x0 + int(sprite.cols.min()), y0 + int(sprite.rows.min()),
            x0 + int(sprite.cols.max()) + 1, y0 + int(sprite.rows.max()) + 1,
        )

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
        pixel size instead, cropped to the framebuffer.  Otherwise the
        map is computed for this cell, or taken from ``cache`` (see
        :meth:`footprint_sprite`).  Returns the coverage map.
        """
        centers_arena = np.asarray(centers_arena, dtype=np.float64)
        if len(centers_arena) == 0:
            return None
        if precomputed is not None:
            coverage = precomputed
            sprite = Sprite.of(coverage * self.style.brush_alpha, named_color(color_name))
        else:
            coverage, sprite = self.footprint_sprite(
                mapper, centers_arena, radii_arena, color_name, cell_rect, cache=cache
            )
        self.draw_sprite(fb, sprite, cell_rect)
        return coverage
