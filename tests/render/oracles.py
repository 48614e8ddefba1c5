"""Scalar reference kernels for the render fast paths.

These are the straightforward forms the kernels in
:mod:`repro.render.lines`, :mod:`repro.render.framebuffer` and
:mod:`repro.render.raster` replace: a splat that loops over the
disc-stamp taps and the four bilinear corners with one ``np.add.at``
scatter each, a composite that blends every pixel of the coverage map,
and a brush footprint whose distance field is evaluated at every
pixel.  The fast kernels perform the same float operations in the same
order, so the property tests compare them with ``np.array_equal`` — no
tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.render.lines import disc_kernel, resample_segments


def splat_points_scalar(
    coverage: np.ndarray,
    points: np.ndarray,
    *,
    weights: np.ndarray | float = 1.0,
    rgb_accum: np.ndarray | None = None,
    colors: np.ndarray | None = None,
) -> None:
    """One tap: four bilinear corners, one ``np.add.at`` per corner."""
    h, w = coverage.shape
    points = np.asarray(points, dtype=np.float64)
    if len(points) == 0:
        return
    wts = np.broadcast_to(np.asarray(weights, dtype=np.float64), (len(points),))

    x = points[:, 0]
    y = points[:, 1]
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    fx = x - x0
    fy = y - y0

    for dx, dy, bw in (
        (0, 0, (1 - fx) * (1 - fy)),
        (1, 0, fx * (1 - fy)),
        (0, 1, (1 - fx) * fy),
        (1, 1, fx * fy),
    ):
        xi = x0 + dx
        yi = y0 + dy
        ok = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
        if not ok.any():
            continue
        contrib = bw[ok] * wts[ok]
        np.add.at(coverage, (yi[ok], xi[ok]), contrib)
        if rgb_accum is not None and colors is not None:
            np.add.at(rgb_accum, (yi[ok], xi[ok]), contrib[:, None] * colors[ok])


def splat_polylines_scalar(
    coverage: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    *,
    width: float = 1.5,
    step: float = 0.7,
    seg_values: np.ndarray | None = None,
    rgb_accum: np.ndarray | None = None,
    value_to_rgb=None,
) -> None:
    """The per-tap loop: one :func:`splat_points_scalar` per disc tap."""
    points, vals = resample_segments(a, b, step, seg_values)
    if len(points) == 0:
        return
    offsets, kweights = disc_kernel(width)
    norm = step / max(1e-9, float(kweights.max()))
    colors = None
    if vals is not None and value_to_rgb is not None and rgb_accum is not None:
        colors = np.asarray(value_to_rgb(vals), dtype=np.float64)
    for (dx, dy), kw in zip(offsets, kweights):
        shifted = points + (dx, dy)
        splat_points_scalar(
            coverage,
            shifted,
            weights=kw * norm,
            rgb_accum=rgb_accum if colors is not None else None,
            colors=colors,
        )


def composite_full(region: np.ndarray, coverage: np.ndarray, color) -> None:
    """Blend every pixel of ``coverage``, zero alpha included."""
    a = np.clip(coverage, 0.0, 1.0).astype(np.float32)[..., None]
    region *= 1.0 - a
    region += a * np.asarray(color, dtype=np.float32)


def footprint_full(
    arena_pts: np.ndarray, centers: np.ndarray, radii: np.ndarray, soft: float
) -> np.ndarray:
    """The brush signed-distance field evaluated at every pixel."""
    signed = np.full(len(arena_pts), np.inf)
    for lo in range(0, len(centers), 64):
        c = centers[lo : lo + 64]
        r = radii[lo : lo + 64]
        d = np.sqrt(
            (arena_pts[:, None, 0] - c[None, :, 0]) ** 2
            + (arena_pts[:, None, 1] - c[None, :, 1]) ** 2
        )
        np.minimum(signed, (d - r[None, :]).min(axis=1), out=signed)
    return np.clip(0.5 - signed / soft, 0.0, 1.0)
