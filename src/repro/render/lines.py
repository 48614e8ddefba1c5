"""Vectorized polyline splatting.

Rendering hundreds of trajectory cells means rasterizing hundreds of
thousands of short segments per frame.  A per-segment scanline loop in
Python is hopeless; instead we *splat*: every polyline is resampled
along its arc length at sub-pixel spacing, and the resulting point
cloud is accumulated into a coverage map with bilinear weights.  Line
width is achieved by stamping a small disc kernel of offsets around
each sample.  Every (tap, corner, point) contribution of a polyline
goes through one ``np.bincount`` per accumulator, in the order a
per-tap, per-corner scatter loop would add them, so the sums are the
loop's sums bit for bit (the loop itself is kept as a test oracle).
The bins span only the *window* the stamped points can reach, not the
whole canvas, and the splat returns that window so callers can confine
their own per-pixel passes to it.

This trades exact analytic anti-aliasing for an approximation that is
visually equivalent at sub-pixel step sizes, and it turns the frame
into a handful of NumPy passes regardless of trajectory count.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["resample_segments", "splat_points", "splat_polylines", "disc_kernel"]

#: A pixel window ``(x0, y0, x1, y1)``: columns ``[x0, x1)``, rows ``[y0, y1)``.
Window = tuple[int, int, int, int]


def resample_segments(
    a: np.ndarray, b: np.ndarray, step: float, values: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Resample segments a[i]->b[i] at ``step`` pixel spacing.

    Returns the (P, 2) sample points and, when ``values`` gives a
    per-segment scalar (e.g. normalized time), the (P,) per-sample
    values (linearly carried, constant per segment).

    Fully vectorized: per-segment sample counts come from the segment
    lengths; samples are generated with a repeat/cumulative pattern,
    one coordinate column at a time.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if len(a) == 0:
        return np.empty((0, 2)), (np.empty(0) if values is not None else None)
    d = b - a
    lengths = np.hypot(d[:, 0], d[:, 1])
    counts = np.maximum(1, np.ceil(lengths / step).astype(np.int64)) + 1
    total = int(counts.sum())
    # within-segment sample rank: 0..counts[i]-1 via cumulative trick
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    rank = np.arange(total) - np.repeat(starts, counts)
    t = rank / np.repeat(np.maximum(counts - 1, 1), counts)
    points = np.empty((total, 2))
    for k in range(2):
        # a + t * d, per sample of its segment
        np.multiply(t, np.repeat(d[:, k], counts), out=points[:, k])
        points[:, k] += np.repeat(a[:, k], counts)
    vals = np.repeat(values, counts) if values is not None else None
    return points, vals


@lru_cache(maxsize=16)
def disc_kernel(width: float) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and weights of a disc stamp for line width ``width`` px.

    Width <= 1 collapses to a single center tap.  Weights fall off
    linearly at the rim for soft edges.  Memoized per width (a frame
    uses two): the arrays are shared between calls and read-only.
    """
    if width <= 1.0:
        offsets, weights = np.zeros((1, 2)), np.ones(1)
    else:
        r = width / 2.0
        n = int(np.ceil(r))
        ys, xs = np.mgrid[-n : n + 1, -n : n + 1]
        d = np.hypot(xs, ys)
        weights_full = np.clip(r + 0.5 - d, 0.0, 1.0)
        keep = weights_full > 0.0
        offsets = np.stack([xs[keep], ys[keep]], axis=1).astype(np.float64)
        weights = weights_full[keep]
    offsets.flags.writeable = False
    weights.flags.writeable = False
    return offsets, weights


def splat_points(
    coverage: np.ndarray,
    points: np.ndarray,
    *,
    weights: np.ndarray | float = 1.0,
    offsets: np.ndarray | None = None,
    rgb_accum: np.ndarray | None = None,
    colors: np.ndarray | None = None,
) -> Window | None:
    """Accumulate a stamped point cloud into a coverage map.

    Every point is stamped at each of the (T, 2) ``offsets`` taps (a
    single unshifted tap when omitted) and each stamped point spreads
    its weight over its four neighbouring pixels with bilinear weights.
    All T x 4 x P contributions go through one ``np.bincount`` per
    accumulator, flattened in tap -> corner -> point order.
    ``bincount`` adds its weights sequentially in input order, so each
    pixel receives the same float additions, in the same order, as a
    scatter loop over taps, then corners, then points; off-canvas
    contributions land in a discarded padding ring.  Every pixel's
    contributions are summed first and then added to ``coverage``, so
    accumulators that start at zero (as the renderer's do) receive
    exactly the loop's sums.

    The bins cover only the window the corners can reach — from the
    smallest corner origin to two past the largest, per axis, clipped
    to the canvas — so the cost follows the content, not the canvas.

    Parameters
    ----------
    coverage:
        (H, W) float array accumulated in place.
    points:
        (P, 2) pixel coordinates (x, y).
    weights:
        Per-contribution weight, broadcast against (T, P): a scalar,
        a (P,) per-point weight or a (T, 1) per-tap weight.
    offsets:
        Optional (T, 2) stamp of pixel offsets applied to every point.
    rgb_accum, colors:
        Optional (H, W, 3) color accumulator and (P, 3) per-point
        colors; enables per-pixel color averaging
        (``rgb = rgb_accum / coverage``) for gradient-colored lines.

    Returns
    -------
    The window ``(x0, y0, x1, y1)`` that holds every pixel the call
    added to, or None when no corner can reach the canvas (the
    accumulators are then untouched).  Pixels outside the window are
    never written.
    """
    h, w = coverage.shape
    points = np.asarray(points, dtype=np.float64)
    if len(points) == 0:
        return None
    # (T, P) stamped coordinates, one row per tap; fresh arrays, as the
    # fractions are computed in place
    if offsets is None:
        x = points[None, :, 0].copy()
        y = points[None, :, 1].copy()
    else:
        offsets = np.asarray(offsets, dtype=np.float64)
        x = points[None, :, 0] + offsets[:, 0, None]
        y = points[None, :, 1] + offsets[:, 1, None]
    wts = np.broadcast_to(np.asarray(weights, dtype=np.float64), x.shape)

    gx = np.floor(x)
    gy = np.floor(y)
    x0 = gx.astype(np.int64)
    y0 = gy.astype(np.int64)
    # corners reach [min origin, max origin + 1]; keep the on-canvas part
    wx0, wx1 = max(int(x0.min()), 0), min(int(x0.max()) + 2, w)
    wy0, wy1 = max(int(y0.min()), 0), min(int(y0.max()) + 2, h)
    if wx1 <= wx0 or wy1 <= wy0:
        return None
    ww, wh = wx1 - wx0, wy1 - wy0
    fx = np.subtract(x, gx, out=x)
    fy = np.subtract(y, gy, out=y)
    gx = np.subtract(1, fx, out=gx)
    gy = np.subtract(1, fy, out=gy)
    # Scatter into the window padded by two pixels per side: clamping
    # the window-relative corner origin to [-2, size] leaves every
    # in-window corner where it is and parks every other one in the
    # padding, which is cut off.
    pw = ww + 4
    x0 -= wx0
    y0 -= wy0
    base = np.clip(y0, -2, wh, out=y0)
    base += 2
    base *= pw
    base += np.clip(x0, -2, ww, out=x0)
    base += 2
    contrib = np.empty((len(x), 4, x.shape[1]))
    flat = np.empty(contrib.shape, dtype=np.int64)
    # corners in order (0,0), (1,0), (0,1), (1,1)
    for k, (wx, wy, step) in enumerate(
        ((gx, gy, 0), (fx, gy, 1), (gx, fy, pw), (fx, fy, pw + 1))
    ):
        np.multiply(wx, wy, out=contrib[:, k])
        contrib[:, k] *= wts
        np.add(base, step, out=flat[:, k])
    flat = flat.ravel()

    def scatter(values: np.ndarray) -> np.ndarray:
        grid = np.bincount(flat, values.ravel(), minlength=(wh + 4) * pw)
        return grid.reshape(wh + 4, pw)[2 : wh + 2, 2 : ww + 2]

    window = np.s_[wy0:wy1, wx0:wx1]
    coverage[window] += scatter(contrib)
    if rgb_accum is not None and colors is not None:
        colors = np.asarray(colors, dtype=np.float64)
        channel = np.empty_like(contrib)
        rgb = rgb_accum[window]
        for c in range(3):
            rgb[..., c] += scatter(np.multiply(contrib, colors[:, c], out=channel))
    return wx0, wy0, wx1, wy1


def splat_polylines(
    coverage: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    *,
    width: float = 1.5,
    step: float = 0.7,
    seg_values: np.ndarray | None = None,
    rgb_accum: np.ndarray | None = None,
    value_to_rgb=None,
) -> Window | None:
    """Splat segments a[i]->b[i] (pixel space) into ``coverage``.

    ``seg_values`` + ``value_to_rgb`` enable per-segment color ramps
    (the time gradient): values are resampled along with the geometry
    and mapped to RGB per sample point.

    The per-sample weight is normalized by the samples-per-pixel
    density (step) and kernel mass so accumulated coverage saturates
    near 1.0 on the line body independent of ``step`` and ``width``.
    The whole disc stamp goes through one :func:`splat_points` pass,
    whose window (or None) is returned.
    """
    points, vals = resample_segments(a, b, step, seg_values)
    if len(points) == 0:
        return None
    offsets, kweights = disc_kernel(width)
    # normalize: one pixel of line body receives ~ (1/step) samples,
    # each stamping kernel mass sum(kweights)
    norm = step / max(1e-9, float(kweights.max()))
    colors = None
    if vals is not None and value_to_rgb is not None and rgb_accum is not None:
        colors = np.asarray(value_to_rgb(vals), dtype=np.float64)
    return splat_points(
        coverage,
        points,
        weights=(kweights * norm)[:, None],
        offsets=offsets,
        rgb_accum=rgb_accum if colors is not None else None,
        colors=colors,
    )
