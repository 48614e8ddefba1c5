"""Property tests pinning the render kernels to their scalar oracles.

The splat (one ``bincount`` per accumulator over a (taps, corners,
points) array), the composite (blend only where coverage is non-zero)
and the brush footprint (distance field only inside the stamps' box)
must reproduce the per-tap ``np.add.at`` loop, the full-map blend and
the everywhere-evaluated field of :mod:`tests.render.oracles` bit for
bit: every comparison is ``np.array_equal``.  Hypothesis draws segment sets that
spill off the canvas on every side (negative coordinates included),
the renderer's three line widths, and runs with and without an RGB
accumulator.
"""

from __future__ import annotations

import hypothesis.extra.numpy as hnp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.display.coords import CoordinateMapper
from repro.display.tile import Tile
from repro.render.color import time_gradient
from repro.render.framebuffer import Framebuffer, composite
from repro.render.lines import splat_points, splat_polylines
from repro.render.raster import CellRenderer
from repro.stereo.projection import SpaceTimeProjection
from repro.synth.arena import Arena
from .oracles import (
    composite_full,
    footprint_full,
    splat_points_scalar,
    splat_polylines_scalar,
)

WIDTHS = (1.0, 1.6, 2.4)


@st.composite
def canvases(draw) -> tuple[int, int]:
    return draw(st.integers(1, 40)), draw(st.integers(1, 40))


@st.composite
def segment_sets(draw, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Up to 24 segments with endpoints up to 12 px off every edge."""
    n = draw(st.integers(0, 24))
    xs = st.floats(-12.0, w + 12.0, allow_nan=False, width=64)
    ys = st.floats(-12.0, h + 12.0, allow_nan=False, width=64)
    a = np.stack(
        [draw(hnp.arrays(np.float64, n, elements=xs)),
         draw(hnp.arrays(np.float64, n, elements=ys))], axis=1,
    ).reshape(n, 2)
    b = np.stack(
        [draw(hnp.arrays(np.float64, n, elements=xs)),
         draw(hnp.arrays(np.float64, n, elements=ys))], axis=1,
    ).reshape(n, 2)
    return a, b


@settings(max_examples=150, deadline=None)
@given(data=st.data(), width=st.sampled_from(WIDTHS),
       step=st.sampled_from((0.35, 0.7, 1.3)), with_rgb=st.booleans())
def test_splat_polylines_matches_per_tap_add_at(data, width, step, with_rgb):
    h, w = data.draw(canvases())
    a, b = data.draw(segment_sets(h, w))
    values = np.linspace(0.0, 1.0, len(a))
    runs = []
    for kernel in (splat_polylines, splat_polylines_scalar):
        cov = np.zeros((h, w))
        rgb = np.zeros((h, w, 3)) if with_rgb else None
        kernel(
            cov, a, b, width=width, step=step,
            seg_values=values if with_rgb else None,
            rgb_accum=rgb,
            value_to_rgb=time_gradient if with_rgb else None,
        )
        runs.append((cov, rgb))
    (cov, rgb), (cov_ref, rgb_ref) = runs
    assert np.array_equal(cov, cov_ref)
    if with_rgb:
        assert np.array_equal(rgb, rgb_ref)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), per_point=st.booleans(), with_rgb=st.booleans())
def test_single_tap_splat_points_matches_scalar(data, per_point, with_rgb):
    h, w = data.draw(canvases())
    n = data.draw(st.integers(0, 40))
    coord = st.floats(-3.0, 43.0, allow_nan=False, width=64)
    points = data.draw(hnp.arrays(np.float64, (n, 2), elements=coord))
    weights = (
        data.draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 3.0, width=64)))
        if per_point else 0.7
    )
    colors = data.draw(
        hnp.arrays(np.float64, (n, 3), elements=st.floats(0.0, 1.0, width=64))
    )
    runs = []
    for kernel in (splat_points, splat_points_scalar):
        cov = np.zeros((h, w))
        rgb = np.zeros((h, w, 3)) if with_rgb else None
        kernel(cov, points, weights=weights, rgb_accum=rgb, colors=colors)
        runs.append((cov, rgb))
    (cov, rgb), (cov_ref, rgb_ref) = runs
    assert np.array_equal(cov, cov_ref)
    if with_rgb:
        assert np.array_equal(rgb, rgb_ref)


@st.composite
def coverage_maps(draw, h: int, w: int) -> np.ndarray:
    """Sparse maps: mostly exact zeros, with negatives and overshoot."""
    values = st.one_of(
        st.just(0.0), st.just(0.0), st.just(0.0),
        st.floats(-0.5, 0.0, width=64), st.floats(0.0, 1.5, width=64),
        st.floats(0.0, 1e-40, width=64),
    )
    return draw(hnp.arrays(np.float64, (h, w), elements=values))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), per_pixel=st.booleans())
def test_composite_matches_full_map_blend(data, per_pixel):
    h, w = data.draw(canvases())
    pixel = st.floats(0.0, 1.0, width=32)
    region = data.draw(hnp.arrays(np.float32, (h, w, 3), elements=pixel))
    coverage = data.draw(coverage_maps(h, w))
    color = (
        data.draw(hnp.arrays(np.float32, (h, w, 3), elements=pixel))
        if per_pixel
        else tuple(data.draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)))
    )
    fast = region.copy()
    ref = region.copy()
    composite(fast, coverage, color)
    composite_full(ref, coverage, color)
    assert np.array_equal(fast, ref)


def test_composite_into_strided_view_matches_full_blend():
    rng = np.random.default_rng(11)
    frame = rng.uniform(0.0, 1.0, (30, 50, 3)).astype(np.float32)
    coverage = np.where(rng.random((12, 20)) < 0.3, rng.uniform(0, 1.3, (12, 20)), 0.0)
    fast = frame.copy()
    ref = frame.copy()
    composite(fast[5:17, 9:29], coverage, (0.9, 0.2, 0.1))
    composite_full(ref[5:17, 9:29], coverage, (0.9, 0.2, 0.1))
    assert np.array_equal(fast, ref)


@settings(max_examples=60, deadline=None)
@given(
    cx=st.floats(-10.0, 50.0, width=64),
    cy=st.floats(-10.0, 40.0, width=64),
    radius=st.floats(0.5, 30.0, width=64),
    thickness=st.sampled_from((1.0, 2.0)),
)
def test_rim_matches_full_box_blend(cx, cy, radius, thickness):
    rng = np.random.default_rng(3)
    fb = Framebuffer(40, 30)
    fb.data[...] = rng.uniform(0.0, 1.0, fb.data.shape).astype(np.float32)
    ref = fb.data.copy()
    color = (0.35, 0.35, 0.40)
    fb.draw_circle_outline(cx, cy, radius, color, thickness=thickness)

    # the rim as it was blended before: every pixel of its bounding box
    pad = thickness + 1.5
    x0 = max(0, int(np.floor(cx - radius - pad)))
    x1 = min(40, int(np.ceil(cx + radius + pad)) + 1)
    y0 = max(0, int(np.floor(cy - radius - pad)))
    y1 = min(30, int(np.ceil(cy + radius + pad)) + 1)
    if x1 > x0 and y1 > y0:
        ys, xs = np.mgrid[y0:y1, x0:x1]
        d = np.abs(np.hypot(xs - cx, ys - cy) - radius)
        cov = np.clip(1.0 + thickness / 2.0 - d, 0.0, 1.0)
        composite_full(ref[y0:y1, x0:x1], cov, color)
    assert np.array_equal(fb.data, ref)


def test_cell_sized_gradient_line_matches_oracle():
    """A paper-size padded cell (243 x 144 px) with a long random walk,
    the shape the renderer splats per trajectory."""
    rng = np.random.default_rng(5)
    pts = np.cumsum(rng.normal(0.0, 3.0, (400, 2)), axis=0) + (120.0, 70.0)
    a, b = pts[:-1], pts[1:]
    values = np.linspace(0.0, 1.0, len(a))
    runs = []
    for kernel in (splat_polylines, splat_polylines_scalar):
        cov = np.zeros((144, 243))
        rgb = np.zeros((144, 243, 3))
        kernel(cov, a, b, width=1.6, step=0.7, seg_values=values,
               rgb_accum=rgb, value_to_rgb=time_gradient)
        runs.append((cov, rgb))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])
    assert runs[0][0].sum() > 0


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    x0=st.floats(0.0, 0.15, width=64),
    y0=st.floats(0.0, 0.1, width=64),
    w=st.floats(0.01, 0.25, width=64),
    h=st.floats(0.01, 0.2, width=64),
)
def test_footprint_matches_field_over_every_pixel(data, x0, y0, w, h):
    """The footprint evaluates the distance field only inside the
    stamps' box (padded by one soft width); every pixel must match the
    field evaluated everywhere.  Stamps may sit off the arena, on the
    cell edge, or have zero radius."""
    arena = Arena()
    tile = Tile(0, 0, 0.0, 0.0, 0.4, 0.3, 400, 300)
    renderer = CellRenderer(tile, SpaceTimeProjection(time_scale=0.001))
    rect = (x0, y0, x0 + w, y0 + h)
    mapper = CoordinateMapper(arena, rect)
    k = data.draw(st.integers(0, 70))
    r = arena.radius
    centers = data.draw(hnp.arrays(
        np.float64, (k, 2), elements=st.floats(-1.5 * r, 1.5 * r, width=64)
    ))
    radii = data.draw(hnp.arrays(
        np.float64, k, elements=st.floats(0.0, 0.4 * r, width=64)
    ))
    cov, (px0, py0, px1, py1) = renderer.brush_footprint_coverage(
        mapper, rect, centers, radii
    )
    xs = np.arange(px0, px1, dtype=np.float64) + 0.5
    ys = np.arange(py0, py1, dtype=np.float64) + 0.5
    gx, gy = np.meshgrid(xs, ys)
    px = np.stack([gx.ravel(), gy.ravel()], axis=1)
    arena_pts = mapper.wall_to_arena(tile.pixel_to_wall(px))
    soft = 1.0 / (mapper.scale * tile.pixels_per_meter[0])
    ref = footprint_full(arena_pts, centers, radii, soft).reshape(py1 - py0, px1 - px0)
    assert np.array_equal(cov, ref)
