"""Framebuffers.

A :class:`Framebuffer` is an (H, W, 3) float32 RGB image with the
blending operations the renderer needs: rect fills and circle
outlines, plus :func:`composite`, the one alpha-compositing kernel
every layer (trajectory, highlight, brush footprint, arena rim) goes
through.  A render job allocates one buffer per tile and eye, or
adopts the storage it should draw into (a pooled job's slot of the
shared output framebuffer, see :meth:`Framebuffer.from_array`).

A coverage map that is blended more than once — a brush footprint
drawn in many cells, the arena rim at one tile-local position — is
cut once into a :class:`Sprite`: its support pixels and the two
factors of their blend, computed with exactly :func:`composite`'s
expressions, so :func:`composite_sprite` blends the same bytes without
scanning the map again.
"""

from __future__ import annotations

from typing import Any, NamedTuple

import numpy as np

from repro.render.color import Color

__all__ = ["Framebuffer", "Sprite", "composite", "composite_sprite"]


#: One float32 RGB pixel as a single 12-byte element, so a gather or
#: scatter moves whole pixels.
_PIXEL = np.dtype((np.void, 12))


class Sprite(NamedTuple):
    """A coverage map cut down to the pixels it blends, ready to blend.

    ``rows`` / ``cols`` index the support (non-zero coverage) relative
    to the map's origin.  With ``a`` the coverage there clipped to
    [0, 1] in float32, ``keep`` is ``1 - a`` and ``add`` is
    ``a * color``, both (n, 3) float32 — the two factors of
    :func:`composite`'s blend, computed with its expressions.
    ``shape`` is the (H, W) of the map.
    """

    rows: np.ndarray
    cols: np.ndarray
    keep: np.ndarray
    add: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def of(cls, coverage: np.ndarray, color: Color | np.ndarray) -> "Sprite":
        """Cut the sprite of a coverage map in one RGB ``color`` or an
        (H, W, 3) per-pixel color (what :func:`composite` would blend)."""
        rows, cols = np.nonzero(coverage > 0)
        a = np.clip(coverage[rows, cols], 0.0, 1.0).astype(np.float32)[:, None]
        a = np.repeat(a, 3, axis=1)
        c = np.asarray(color, dtype=np.float32)
        if c.ndim == 3:
            c = c[rows, cols]
        return cls(rows, cols, 1.0 - a, a * c, coverage.shape)

    def crop(self, height: int, width: int) -> "Sprite":
        """The sprite of the map cropped to its top-left ``height`` x
        ``width`` pixels."""
        if self.shape[0] <= height and self.shape[1] <= width:
            return self
        keep = (self.rows < height) & (self.cols < width)
        shape = (min(self.shape[0], height), min(self.shape[1], width))
        return Sprite(
            self.rows[keep], self.cols[keep], self.keep[keep], self.add[keep], shape
        )


def composite_sprite(region: np.ndarray, sprite: Sprite) -> None:
    """Blend a sprite onto a framebuffer view, in place:
    ``out = out * keep + add`` on the sprite's pixels only.

    ``region`` is an (H, W, 3) float32 view, with contiguous pixels, at
    least as large as the sprite's map.
    """
    if len(sprite.rows) == 0:
        return
    pixels = region.view(_PIXEL)[..., 0]
    px = pixels[sprite.rows, sprite.cols]
    rgb = px.view(np.float32).reshape(-1, 3)
    rgb *= sprite.keep
    rgb += sprite.add
    pixels[sprite.rows, sprite.cols] = px


def composite(
    region: np.ndarray, coverage: np.ndarray, color: Color | np.ndarray
) -> None:
    """Alpha-composite a coverage map onto a framebuffer view, in place.

    ``out = (1 - a) * out + a * color`` with ``a`` the coverage clipped
    to [0, 1] in float32.  ``region`` is an (H, W, 3) float32 view,
    ``coverage`` is (H, W) and ``color`` is one RGB triple or an
    (H, W, 3) per-pixel color.

    Only pixels with non-zero coverage are blended: the map's
    :class:`Sprite` is gathered, blended and scattered back.  Elsewhere
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
    composite_sprite(region, Sprite.of(coverage, c))


def _fill(region: np.ndarray, color: Color) -> None:
    """Set every pixel of an (H, W, 3) view to one color.  Broadcasting
    a whole row (not one pixel) keeps the copy loop contiguous."""
    row = np.tile(np.asarray(color, dtype=np.float32), region.shape[1])
    region[...] = row.reshape(1, -1, 3)


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

        The parent wraps the slot copies of a shared-framebuffer render
        that workers already filled, so re-clearing (or re-allocating)
        would discard the rendered pixels; a pooled job adopts its
        writable slot to draw straight into it.  The array is taken
        as-is (no copy) when it is already C-contiguous float32.
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
        _fill(self.data, color)

    def fill_rect(self, x0: int, y0: int, x1: int, y1: int, color: Color) -> None:
        """Fill a pixel rectangle [x0, x1) x [y0, y1), clipped to the buffer."""
        x0 = max(0, int(x0))
        y0 = max(0, int(y0))
        x1 = min(self.width, int(x1))
        y1 = min(self.height, int(y1))
        if x1 > x0 and y1 > y0:
            _fill(self.data[y0:y1, x0:x1], color)

    def draw_circle_outline(
        self,
        cx: float,
        cy: float,
        radius: float,
        color: Color,
        thickness: float = 1.0,
        *,
        cache: dict[Any, Any] | None = None,
    ) -> tuple[int, int, int, int] | None:
        """Anti-aliased circle outline (the arena rim in each cell).

        Coverage is computed over the circle's bounding box, falling
        off linearly over one pixel around the ring; only the ring
        pixels are blended.  With ``cache`` (a frame's
        :data:`~repro.render.raster.FootprintCache`), the ring's sprite
        is keyed by the exact bytes of the box's pixel offsets from the
        centre, the radius, the thickness and the color, so a hit is
        the sprite this call would have computed.

        Returns the clipped pixel box ``(x0, y0, x1, y1)`` the ring was
        blended in, or None when nothing was drawn.
        """
        if radius <= 0:
            return None
        pad = thickness + 1.5
        x0 = max(0, int(np.floor(cx - radius - pad)))
        x1 = min(self.width, int(np.ceil(cx + radius + pad)) + 1)
        y0 = max(0, int(np.floor(cy - radius - pad)))
        y1 = min(self.height, int(np.ceil(cy + radius + pad)) + 1)
        if x1 <= x0 or y1 <= y0:
            return None
        dx = np.arange(x0, x1, dtype=np.float64) - cx
        dy = np.arange(y0, y1, dtype=np.float64) - cy
        key = (
            "rim", dx.tobytes(), dy.tobytes(), float(radius), float(thickness),
            tuple(float(v) for v in color),
        )
        sprite = None if cache is None else cache.get(key)
        if sprite is None:
            d = np.abs(np.hypot(dx[None, :], dy[:, None]) - radius)
            sprite = Sprite.of(np.clip(1.0 + thickness / 2.0 - d, 0.0, 1.0), color)
            if cache is not None:
                cache[key] = sprite
        composite_sprite(self.data[y0:y1, x0:x1], sprite)
        return x0, y0, x1, y1

    def to_uint8(self) -> np.ndarray:
        """uint8 copy for image output."""
        return (np.clip(self.data, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)

    def copy(self) -> "Framebuffer":
        """Deep copy (independent pixel storage)."""
        fb = Framebuffer(self.width, self.height)
        fb.data[...] = self.data
        return fb
