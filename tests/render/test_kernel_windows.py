"""Properties of the windowed splat, sprites and the memoized stamp.

The splat bins only into the window its stamped points can reach and
returns it; sprites carry a coverage map's support and blend factors
so a cached map is blended without a rescan; the disc stamp is
memoized.  Each must reproduce the scalar oracles of
:mod:`tests.render.oracles` bit for bit (``np.array_equal``), on
canvases much larger than their content and with content partly or
wholly off the canvas.
"""

from __future__ import annotations

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.render.color import time_gradient
from repro.render.framebuffer import Framebuffer, Sprite, composite_sprite
from repro.render.lines import disc_kernel, splat_points, splat_polylines
from .oracles import composite_full, splat_points_scalar, splat_polylines_scalar
from .test_kernel_oracles import coverage_maps

WIDTHS = (1.0, 1.6, 2.4)


@st.composite
def small_content(draw, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Up to 12 short segments inside a box of at most 20 px that may
    sit anywhere from well off the canvas to fully on it."""
    n = draw(st.integers(0, 12))
    ox = draw(st.floats(-40.0, w + 20.0, width=64))
    oy = draw(st.floats(-40.0, h + 20.0, width=64))
    local = st.floats(0.0, 20.0, width=64)
    a = draw(hnp.arrays(np.float64, (n, 2), elements=local)) + (ox, oy)
    b = draw(hnp.arrays(np.float64, (n, 2), elements=local)) + (ox, oy)
    return a, b


def _outside(window, shape) -> np.ndarray:
    mask = np.ones(shape, dtype=bool)
    x0, y0, x1, y1 = window
    mask[y0:y1, x0:x1] = False
    return mask


@settings(max_examples=150, deadline=None)
@given(data=st.data(), width=st.sampled_from(WIDTHS),
       step=st.sampled_from((0.35, 0.7, 1.3)), with_rgb=st.booleans())
def test_windowed_splat_matches_oracle_on_large_canvas(data, width, step, with_rgb):
    h = data.draw(st.integers(40, 200))
    w = data.draw(st.integers(40, 200))
    a, b = data.draw(small_content(h, w))
    values = np.linspace(0.0, 1.0, len(a))
    kwargs = dict(
        width=width, step=step, seg_values=values if with_rgb else None,
        value_to_rgb=time_gradient if with_rgb else None,
    )
    cov = np.zeros((h, w))
    rgb = np.zeros((h, w, 3)) if with_rgb else None
    window = splat_polylines(cov, a, b, rgb_accum=rgb, **kwargs)
    cov_ref = np.zeros((h, w))
    rgb_ref = np.zeros((h, w, 3)) if with_rgb else None
    splat_polylines_scalar(cov_ref, a, b, rgb_accum=rgb_ref, **kwargs)
    assert np.array_equal(cov, cov_ref)
    if with_rgb:
        assert np.array_equal(rgb, rgb_ref)
    if window is None:
        assert not cov.any()
        return
    x0, y0, x1, y1 = window
    assert 0 <= x0 < x1 <= w and 0 <= y0 < y1 <= h
    assert not cov[_outside(window, (h, w))].any()
    if with_rgb:
        assert not rgb[_outside(window, (h, w))].any()


@settings(max_examples=100, deadline=None)
@given(data=st.data(), with_rgb=st.booleans())
def test_windowed_splat_never_writes_outside_its_window(data, with_rgb):
    """Accumulators that start non-zero keep every pixel outside the
    returned window, and a None return leaves them untouched."""
    h = data.draw(st.integers(1, 120))
    w = data.draw(st.integers(1, 120))
    n = data.draw(st.integers(0, 30))
    coord = st.floats(-60.0, 180.0, width=64)
    points = data.draw(hnp.arrays(np.float64, (n, 2), elements=coord))
    colors = data.draw(
        hnp.arrays(np.float64, (n, 3), elements=st.floats(0.0, 1.0, width=64))
    )
    rng = np.random.default_rng(n)
    cov0 = rng.uniform(0.0, 1.0, (h, w))
    rgb0 = rng.uniform(0.0, 1.0, (h, w, 3))
    cov, rgb = cov0.copy(), rgb0.copy()
    window = splat_points(
        cov, points, weights=0.7, rgb_accum=rgb if with_rgb else None, colors=colors
    )
    if window is None:
        assert np.array_equal(cov, cov0) and np.array_equal(rgb, rgb0)
        return
    outside = _outside(window, (h, w))
    assert np.array_equal(cov[outside], cov0[outside])
    assert np.array_equal(rgb[outside], rgb0[outside])
    # from zero, the window holds exactly the oracle's sums
    cov_z = np.zeros((h, w))
    ref = np.zeros((h, w))
    splat_points(cov_z, points, weights=0.7)
    splat_points_scalar(ref, points, weights=0.7)
    assert np.array_equal(cov_z, ref)


def test_splat_wholly_off_canvas_returns_none():
    cov = np.zeros((50, 80))
    rgb = np.zeros((50, 80, 3))
    kwargs = dict(
        width=2.4, seg_values=np.array([0.0, 1.0]), rgb_accum=rgb,
        value_to_rgb=time_gradient,
    )
    # both segments left of the canvas: no column is reachable
    a = np.array([[-30.0, 10.0], [-40.0, -20.0]])
    b = np.array([[-10.0, 40.0], [-8.0, 60.0]])
    assert splat_polylines(cov, a, b, **kwargs) is None
    # one left, one above: each axis alone reaches the canvas, so a
    # window comes back, but nothing lands in it
    a = np.array([[-30.0, 10.0], [100.0, -20.0]])
    b = np.array([[-10.0, 40.0], [140.0, -5.0]])
    assert splat_polylines(cov, a, b, **kwargs) is not None
    assert not cov.any() and not rgb.any()
    assert splat_polylines(cov, np.empty((0, 2)), np.empty((0, 2))) is None


@settings(max_examples=150, deadline=None)
@given(data=st.data(), per_pixel=st.booleans())
def test_sprite_composite_matches_full_map_blend(data, per_pixel):
    """A sprite blended into a region — whole, or cropped to the
    region's top-left corner as a tile-edge reuse draws it — equals
    the full-map blend of the (cropped) map."""
    h = data.draw(st.integers(1, 30))
    w = data.draw(st.integers(1, 30))
    pixel = st.floats(0.0, 1.0, width=32)
    coverage = data.draw(coverage_maps(h, w))
    color = (
        data.draw(hnp.arrays(np.float32, (h, w, 3), elements=pixel))
        if per_pixel
        else tuple(data.draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)))
    )
    ch = data.draw(st.integers(0, h + 3))
    cw = data.draw(st.integers(0, w + 3))
    frame = data.draw(hnp.arrays(np.float32, (h + 4, w + 4, 3), elements=pixel))
    oy, ox = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    sprite = Sprite.of(coverage, color)
    cropped = sprite.crop(ch, cw)
    fast = frame.copy()
    ref = frame.copy()
    composite_sprite(fast[oy:, ox:], cropped)
    hh, ww = min(h, ch), min(w, cw)
    region = ref[oy : oy + hh, ox : ox + ww]
    c = np.asarray(color, dtype=np.float32)
    composite_full(region, coverage[:hh, :ww], c[:hh, :ww] if per_pixel else c)
    assert cropped.shape == (hh, ww)
    assert np.array_equal(fast, ref)


def _dense_rim(data: np.ndarray, cx, cy, radius, thickness, color) -> None:
    """The rim as it was blended before sprites: every box pixel."""
    height, width = data.shape[:2]
    pad = thickness + 1.5
    x0 = max(0, int(np.floor(cx - radius - pad)))
    x1 = min(width, int(np.ceil(cx + radius + pad)) + 1)
    y0 = max(0, int(np.floor(cy - radius - pad)))
    y1 = min(height, int(np.ceil(cy + radius + pad)) + 1)
    if x1 > x0 and y1 > y0:
        ys, xs = np.mgrid[y0:y1, x0:x1]
        d = np.abs(np.hypot(xs - cx, ys - cy) - radius)
        cov = np.clip(1.0 + thickness / 2.0 - d, 0.0, 1.0)
        composite_full(data[y0:y1, x0:x1], cov, color)


@settings(max_examples=60, deadline=None)
@given(
    cx=st.floats(-10.0, 50.0, width=64),
    cy=st.floats(-10.0, 40.0, width=64),
    radius=st.floats(0.5, 30.0, width=64),
    thickness=st.sampled_from((1.0, 2.0)),
    shift=st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
)
def test_cached_rim_sprite_matches_dense_blend(cx, cy, radius, thickness, shift):
    """Rims drawn through one cache — the same ring again, and the ring
    moved by whole pixels, which hits the cache whenever its box is
    clipped the same way — each equal the dense box blend."""
    rng = np.random.default_rng(3)
    color = (0.35, 0.35, 0.40)
    cache: dict = {}
    for dx, dy in ((0, 0), (0, 0), shift):
        fb = Framebuffer(60, 45)
        fb.data[...] = rng.uniform(0.0, 1.0, fb.data.shape).astype(np.float32)
        ref = fb.data.copy()
        fb.draw_circle_outline(cx + dx, cy + dy, radius, color, thickness=thickness,
                               cache=cache)
        _dense_rim(ref, cx + dx, cy + dy, radius, thickness, color)
        assert np.array_equal(fb.data, ref)
    assert len(cache) <= 2


def test_rim_cache_hits_on_whole_pixel_moves():
    cache: dict = {}
    for k in range(3):
        fb = Framebuffer(200, 60)
        fb.draw_circle_outline(30.25 + 60 * k, 29.5, 20.0, (1, 1, 1), cache=cache)
    assert len(cache) == 1


@pytest.mark.parametrize("width", (0.5, 1.0, 1.6, 2.4, 3.7))
def test_disc_kernel_memoized_read_only_and_fresh_equal(width):
    offsets, weights = disc_kernel(width)
    again = disc_kernel(width)
    assert again[0] is offsets and again[1] is weights
    fresh_offsets, fresh_weights = disc_kernel.__wrapped__(width)
    assert np.array_equal(offsets, fresh_offsets)
    assert np.array_equal(weights, fresh_weights)
    for arr in (offsets, weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
