"""Tests for cell rasterization."""

import numpy as np
import pytest

from repro.display.coords import CoordinateMapper
from repro.display.tile import Tile
from repro.render.framebuffer import Framebuffer
from repro.render.raster import CellRenderer, CellStyle
from repro.stereo.camera import Eye
from repro.stereo.projection import SpaceTimeProjection


@pytest.fixture()
def tile():
    return Tile(0, 0, 0.0, 0.0, 0.4, 0.3, 400, 300)


@pytest.fixture()
def cell_rect():
    return (0.0, 0.0, 0.2, 0.15)


@pytest.fixture()
def renderer(tile):
    return CellRenderer(tile, SpaceTimeProjection(time_scale=0.001))


@pytest.fixture()
def mapper(arena, cell_rect):
    return CoordinateMapper(arena, cell_rect)


class TestBackground:
    def test_group_color_dimmed(self, renderer, tile, cell_rect):
        fb = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        renderer.draw_background(fb, cell_rect, (1.0, 0.0, 0.0))
        # inside the cell: dimmed red
        assert fb.data[50, 50, 0] == pytest.approx(CellStyle().background_dim, abs=1e-5)
        # outside the cell: untouched
        assert fb.data[250, 350, 0] == 0.0

    def test_none_color_uses_style_background(self, renderer, tile, cell_rect):
        fb = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        renderer.draw_background(fb, cell_rect, None)
        np.testing.assert_allclose(
            fb.data[50, 50], CellStyle().background, atol=1e-6
        )


class TestArenaRim:
    def test_rim_pixels_lit(self, renderer, tile, mapper):
        fb = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        renderer.draw_arena_rim(fb, mapper)
        center = tile.wall_to_pixel(mapper.arena_to_wall(np.zeros((1, 2))))[0]
        radius_px = mapper.scale * mapper.arena.radius * tile.pixels_per_meter[0]
        on_ring = fb.data[int(center[1]), int(center[0] + radius_px)]
        assert on_ring.max() > 0.2
        at_center = fb.data[int(center[1]), int(center[0])]
        assert at_center.max() == 0.0


class TestTrajectoryDrawing:
    def test_trajectory_lights_pixels(self, renderer, tile, mapper, simple_traj, cell_rect):
        fb = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        renderer.draw_trajectory(fb, simple_traj, mapper, Eye.LEFT, cell_rect)
        assert (fb.data.max(axis=2) > 0.2).sum() > 20

    def test_eye_views_differ_with_depth(self, tile, mapper, simple_traj, cell_rect):
        # exaggerate depth so per-eye shear exceeds a pixel
        renderer = CellRenderer(tile, SpaceTimeProjection(time_scale=0.05))
        fb_l = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        fb_r = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        renderer.draw_trajectory(fb_l, simple_traj, mapper, Eye.LEFT, cell_rect)
        renderer.draw_trajectory(fb_r, simple_traj, mapper, Eye.RIGHT, cell_rect)
        assert not np.allclose(fb_l.data, fb_r.data)

    def test_highlights_respect_mask(self, renderer, tile, mapper, simple_traj, cell_rect):
        fb_none = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        mask = np.zeros(simple_traj.n_samples - 1, dtype=bool)
        renderer.draw_highlights(fb_none, simple_traj, mapper, Eye.LEFT, mask, "red", cell_rect)
        assert fb_none.data.sum() == 0.0
        fb_some = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        mask[:3] = True
        renderer.draw_highlights(fb_some, simple_traj, mapper, Eye.LEFT, mask, "red", cell_rect)
        assert fb_some.data[..., 0].sum() > 0

    def test_highlight_mask_shape_checked(self, renderer, tile, mapper, simple_traj, cell_rect):
        fb = Framebuffer(tile.px_width, tile.px_height)
        with pytest.raises(ValueError):
            renderer.draw_highlights(
                fb, simple_traj, mapper, Eye.LEFT, np.zeros(3, dtype=bool), "red", cell_rect
            )


class TestBrushFootprint:
    def test_footprint_composites(self, renderer, tile, mapper, cell_rect):
        fb = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        centers = np.array([[0.0, 0.0]])
        radii = np.array([0.1])
        cov = renderer.draw_brush_footprint(fb, mapper, centers, radii, "red", cell_rect)
        assert cov is not None
        assert cov.max() == pytest.approx(1.0)
        center_px = tile.wall_to_pixel(mapper.arena_to_wall(np.zeros((1, 2))))[0]
        assert fb.data[int(center_px[1]), int(center_px[0]), 0] > 0.1

    def test_precomputed_reuse_matches(self, renderer, tile, mapper, cell_rect):
        centers = np.array([[0.1, -0.1]])
        radii = np.array([0.08])
        fb1 = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        cov = renderer.draw_brush_footprint(fb1, mapper, centers, radii, "red", cell_rect)
        fb2 = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        renderer.draw_brush_footprint(
            fb2, mapper, centers, radii, "red", cell_rect, precomputed=cov
        )
        np.testing.assert_allclose(fb1.data, fb2.data)

    def test_cache_hit_draws_same_bytes(self, renderer, tile, mapper, cell_rect):
        centers = np.array([[0.1, -0.1]])
        radii = np.array([0.08])
        cache = {}
        fb1 = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        cov = renderer.draw_brush_footprint(
            fb1, mapper, centers, radii, "red", cell_rect, cache=cache
        )
        fb2 = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        again = renderer.draw_brush_footprint(
            fb2, mapper, centers, radii, "red", cell_rect, cache=cache
        )
        assert len(cache) == 1 and again is cov
        np.testing.assert_array_equal(fb1.data, fb2.data)

    def test_cache_misses_same_size_cell_at_other_subpixel_offset(
        self, renderer, tile, arena
    ):
        # two cells of the same pixel size whose arena mappings differ
        # by a fraction of a pixel: their footprints differ, so the
        # second must not be served the first one's coverage
        centers = np.array([[0.1, -0.1]])
        radii = np.array([0.08])
        px_w = 1.0 / tile.pixels_per_meter[0]
        rect_a = (0.0, 0.0, 0.2, 0.15)
        rect_b = (0.4 * px_w, 0.0, 0.2 - 0.1 * px_w, 0.15)
        sizes = set()
        for rect in (rect_a, rect_b):
            x0, y0, x1, y1 = renderer._cell_px_rect(rect)
            sizes.add((x1 - x0, y1 - y0))
        assert len(sizes) == 1
        cache = {}
        for rect in (rect_a, rect_b):
            fb = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
            cached = renderer.draw_brush_footprint(
                fb, CoordinateMapper(arena, rect), centers, radii, "red", rect,
                cache=cache,
            )
            fresh, _ = renderer.brush_footprint_coverage(
                CoordinateMapper(arena, rect), rect, centers, radii
            )
            np.testing.assert_array_equal(cached, fresh)
        assert len(cache) == 2

    def test_empty_centers_none(self, renderer, tile, mapper, cell_rect):
        fb = Framebuffer(tile.px_width, tile.px_height)
        out = renderer.draw_brush_footprint(
            fb, mapper, np.empty((0, 2)), np.empty(0), "red", cell_rect
        )
        assert out is None

    def test_coverage_localized_to_brush(self, renderer, mapper, cell_rect):
        centers = np.array([[-0.4, 0.0]])  # west edge
        radii = np.array([0.05])
        cov, (x0, y0, x1, y1) = renderer.brush_footprint_coverage(
            mapper, cell_rect, centers, radii
        )
        h, w = cov.shape
        assert cov[:, : w // 2].sum() > 0       # west half covered
        assert cov[:, 3 * w // 4 :].sum() == 0  # east quarter untouched
