"""Framebuffers.

A :class:`Framebuffer` is an (H, W, 3) float32 RGB image with the
blending operations the renderer needs: rect fills and circle
outlines, plus :func:`composite`, the one alpha-compositing kernel
every layer (trajectory, highlight, brush footprint, arena rim) goes
through.  Buffers are preallocated once per tile per eye and reused
across frames (guide idiom: allocate outside the loop, write in place).
"""

from __future__ import annotations

import numpy as np

from repro.render.color import Color

__all__ = ["Framebuffer", "composite"]


def composite(
    region: np.ndarray, coverage: np.ndarray, color: Color | np.ndarray
) -> None:
    """Alpha-composite a coverage map onto a framebuffer view, in place.

    ``out = (1 - a) * out + a * color`` with ``a`` the coverage clipped
    to [0, 1] in float32.  ``region`` is an (H, W, 3) float32 view,
    ``coverage`` is (H, W) and ``color`` is one RGB triple or an
    (H, W, 3) per-pixel color.

    Only pixels with non-zero coverage are blended: the map is cropped
    to the bounding box of its support, and inside it only the support
    pixels are gathered, blended and scattered back.  Elsewhere
    ``a == 0`` and the blend ``out * 1 + 0 * color`` returns ``out``
    bit for bit (for finite colors and non-negative pixels), so
    skipping them leaves the same bytes as blending the whole map.
    """
    if coverage.shape != region.shape[:2]:
        raise ValueError(
            f"coverage shape {coverage.shape} != region {region.shape[:2]}"
        )
    c = np.asarray(color, dtype=np.float32)
    if c.shape not in ((3,), region.shape):
        raise ValueError(f"color shape {c.shape} fits neither (3,) nor {region.shape}")
    support = coverage > 0
    rows = np.flatnonzero(support.any(axis=1))
    if len(rows) == 0:
        return
    cols = np.flatnonzero(support.any(axis=0))
    box = np.s_[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
    region = region[box]
    ys, xs = np.nonzero(support[box])
    a = np.clip(coverage[box][ys, xs], 0.0, 1.0).astype(np.float32)[:, None]
    if c.ndim == 3:
        c = c[box][ys, xs]
    px = region[ys, xs]
    px *= 1.0 - a
    px += a * c
    region[ys, xs] = px


class Framebuffer:
    """An RGB render target.

    Parameters
    ----------
    width, height:
        Pixel dimensions.
    background:
        Initial clear color.
    """

    def __init__(self, width: int, height: int, background: Color = (0.1, 0.1, 0.12)) -> None:
        if width < 1 or height < 1:
            raise ValueError(f"framebuffer size must be positive, got {width}x{height}")
        self.width = int(width)
        self.height = int(height)
        self.data = np.empty((self.height, self.width, 3), dtype=np.float32)
        self.clear(background)

    @classmethod
    def from_array(cls, data: np.ndarray) -> "Framebuffer":
        """Adopt existing (H, W, 3) pixel storage without clearing.

        The assembly path for shared-framebuffer renders: the parent
        wraps a slot copy that workers already filled, so re-clearing
        (or re-allocating) would discard the rendered pixels.  The
        array is taken as-is when it is already contiguous float32.
        """
        data = np.asarray(data)
        if data.ndim != 3 or data.shape[2] != 3:
            raise ValueError(f"pixel array must be (H, W, 3), got {data.shape}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError(f"framebuffer size must be positive, got {data.shape}")
        fb = cls.__new__(cls)
        fb.height = int(data.shape[0])
        fb.width = int(data.shape[1])
        fb.data = np.ascontiguousarray(data, dtype=np.float32)
        return fb

    def clear(self, color: Color = (0.0, 0.0, 0.0)) -> None:
        """Fill the whole buffer with one color (in place)."""
        self.data[...] = np.asarray(color, dtype=np.float32)

    def fill_rect(self, x0: int, y0: int, x1: int, y1: int, color: Color) -> None:
        """Fill a pixel rectangle [x0, x1) x [y0, y1), clipped to the buffer."""
        x0 = max(0, int(x0))
        y0 = max(0, int(y0))
        x1 = min(self.width, int(x1))
        y1 = min(self.height, int(y1))
        if x1 > x0 and y1 > y0:
            self.data[y0:y1, x0:x1] = np.asarray(color, dtype=np.float32)

    def draw_circle_outline(
        self, cx: float, cy: float, radius: float, color: Color, thickness: float = 1.0
    ) -> None:
        """Anti-aliased circle outline (the arena rim in each cell).

        Coverage is computed over the circle's bounding box, falling
        off linearly over one pixel around the ring; only the ring
        pixels are blended.
        """
        if radius <= 0:
            return
        pad = thickness + 1.5
        x0 = max(0, int(np.floor(cx - radius - pad)))
        x1 = min(self.width, int(np.ceil(cx + radius + pad)) + 1)
        y0 = max(0, int(np.floor(cy - radius - pad)))
        y1 = min(self.height, int(np.ceil(cy + radius + pad)) + 1)
        if x1 <= x0 or y1 <= y0:
            return
        ys, xs = np.mgrid[y0:y1, x0:x1]
        d = np.abs(np.hypot(xs - cx, ys - cy) - radius)
        cov = np.clip(1.0 + thickness / 2.0 - d, 0.0, 1.0)
        composite(self.data[y0:y1, x0:x1], cov, color)

    def to_uint8(self) -> np.ndarray:
        """uint8 copy for image output."""
        return (np.clip(self.data, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)

    def copy(self) -> "Framebuffer":
        """Deep copy (independent pixel storage)."""
        fb = Framebuffer(self.width, self.height)
        fb.data[...] = self.data
        return fb
