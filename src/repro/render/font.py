"""A tiny built-in bitmap font for frame annotations.

The wall application labels its group bins; the headless renderer does
the same with a self-contained 5x7 pixel font (uppercase letters,
digits, and a little punctuation — enough for group names, layout tags
and percentages).  No external font files, no image libraries: glyphs
are string bitmaps compiled to boolean arrays at import time.
"""

from __future__ import annotations

import numpy as np

from repro.render.color import Color
from repro.render.framebuffer import Framebuffer

__all__ = ["GLYPH_W", "GLYPH_H", "text_mask", "draw_text"]

GLYPH_W = 5
GLYPH_H = 7

# fmt: off
_GLYPHS: dict[str, tuple[str, ...]] = {
    "A": (" ### ", "#   #", "#   #", "#####", "#   #", "#   #", "#   #"),
    "B": ("#### ", "#   #", "#   #", "#### ", "#   #", "#   #", "#### "),
    "C": (" ####", "#    ", "#    ", "#    ", "#    ", "#    ", " ####"),
    "D": ("#### ", "#   #", "#   #", "#   #", "#   #", "#   #", "#### "),
    "E": ("#####", "#    ", "#    ", "#### ", "#    ", "#    ", "#####"),
    "F": ("#####", "#    ", "#    ", "#### ", "#    ", "#    ", "#    "),
    "G": (" ####", "#    ", "#    ", "#  ##", "#   #", "#   #", " ####"),
    "H": ("#   #", "#   #", "#   #", "#####", "#   #", "#   #", "#   #"),
    "I": ("#####", "  #  ", "  #  ", "  #  ", "  #  ", "  #  ", "#####"),
    "J": ("    #", "    #", "    #", "    #", "    #", "#   #", " ### "),
    "K": ("#   #", "#  # ", "# #  ", "##   ", "# #  ", "#  # ", "#   #"),
    "L": ("#    ", "#    ", "#    ", "#    ", "#    ", "#    ", "#####"),
    "M": ("#   #", "## ##", "# # #", "# # #", "#   #", "#   #", "#   #"),
    "N": ("#   #", "##  #", "# # #", "#  ##", "#   #", "#   #", "#   #"),
    "O": (" ### ", "#   #", "#   #", "#   #", "#   #", "#   #", " ### "),
    "P": ("#### ", "#   #", "#   #", "#### ", "#    ", "#    ", "#    "),
    "Q": (" ### ", "#   #", "#   #", "#   #", "# # #", "#  # ", " ## #"),
    "R": ("#### ", "#   #", "#   #", "#### ", "# #  ", "#  # ", "#   #"),
    "S": (" ####", "#    ", "#    ", " ### ", "    #", "    #", "#### "),
    "T": ("#####", "  #  ", "  #  ", "  #  ", "  #  ", "  #  ", "  #  "),
    "U": ("#   #", "#   #", "#   #", "#   #", "#   #", "#   #", " ### "),
    "V": ("#   #", "#   #", "#   #", "#   #", "#   #", " # # ", "  #  "),
    "W": ("#   #", "#   #", "#   #", "# # #", "# # #", "## ##", "#   #"),
    "X": ("#   #", "#   #", " # # ", "  #  ", " # # ", "#   #", "#   #"),
    "Y": ("#   #", "#   #", " # # ", "  #  ", "  #  ", "  #  ", "  #  "),
    "Z": ("#####", "    #", "   # ", "  #  ", " #   ", "#    ", "#####"),
    "0": (" ### ", "#   #", "#  ##", "# # #", "##  #", "#   #", " ### "),
    "1": ("  #  ", " ##  ", "  #  ", "  #  ", "  #  ", "  #  ", "#####"),
    "2": (" ### ", "#   #", "    #", "   # ", "  #  ", " #   ", "#####"),
    "3": (" ### ", "#   #", "    #", "  ## ", "    #", "#   #", " ### "),
    "4": ("   # ", "  ## ", " # # ", "#  # ", "#####", "   # ", "   # "),
    "5": ("#####", "#    ", "#### ", "    #", "    #", "#   #", " ### "),
    "6": (" ### ", "#    ", "#    ", "#### ", "#   #", "#   #", " ### "),
    "7": ("#####", "    #", "   # ", "  #  ", " #   ", " #   ", " #   "),
    "8": (" ### ", "#   #", "#   #", " ### ", "#   #", "#   #", " ### "),
    "9": (" ### ", "#   #", "#   #", " ####", "    #", "    #", " ### "),
    " ": ("     ", "     ", "     ", "     ", "     ", "     ", "     "),
    "-": ("     ", "     ", "     ", "#####", "     ", "     ", "     "),
    "_": ("     ", "     ", "     ", "     ", "     ", "     ", "#####"),
    ".": ("     ", "     ", "     ", "     ", "     ", " ##  ", " ##  "),
    ",": ("     ", "     ", "     ", "     ", " ##  ", " ##  ", " #   "),
    ":": ("     ", " ##  ", " ##  ", "     ", " ##  ", " ##  ", "     "),
    "%": ("##  #", "##  #", "   # ", "  #  ", " #   ", "#  ##", "#  ##"),
    "/": ("    #", "    #", "   # ", "  #  ", " #   ", "#    ", "#    "),
    "(": ("  #  ", " #   ", "#    ", "#    ", "#    ", " #   ", "  #  "),
    ")": ("  #  ", "   # ", "    #", "    #", "    #", "   # ", "  #  "),
    "#": (" # # ", " # # ", "#####", " # # ", "#####", " # # ", " # # "),
    "!": ("  #  ", "  #  ", "  #  ", "  #  ", "  #  ", "     ", "  #  "),
    "?": (" ### ", "#   #", "    #", "   # ", "  #  ", "     ", "  #  "),
    "=": ("     ", "     ", "#####", "     ", "#####", "     ", "     "),
    "+": ("     ", "  #  ", "  #  ", "#####", "  #  ", "  #  ", "     "),
    "'": ("  #  ", "  #  ", "     ", "     ", "     ", "     ", "     "),
}
# fmt: on


def _compile() -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for ch, rows in _GLYPHS.items():
        grid = np.zeros((GLYPH_H, GLYPH_W), dtype=bool)
        for y, row in enumerate(rows):
            for x, cell in enumerate(row[:GLYPH_W]):
                grid[y, x] = cell == "#"
        out[ch] = grid
    return out


_COMPILED = _compile()
_UNKNOWN = _COMPILED["?"]


def text_mask(text: str, scale: int = 1, spacing: int = 1) -> np.ndarray:
    """Boolean pixel mask of ``text`` (uppercased; unknown chars -> '?').

    ``scale`` integer-upscales the glyphs; ``spacing`` is the blank
    column count between glyphs (pre-scaling).
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if spacing < 0:
        raise ValueError("spacing must be >= 0")
    text = text.upper()
    if not text:
        return np.zeros((GLYPH_H * scale, 0), dtype=bool)
    columns: list[np.ndarray] = []
    gap = np.zeros((GLYPH_H, spacing), dtype=bool)
    for i, ch in enumerate(text):
        if i:
            columns.append(gap)
        columns.append(_COMPILED.get(ch, _UNKNOWN))
    mask = np.concatenate(columns, axis=1)
    if scale > 1:
        mask = np.repeat(np.repeat(mask, scale, axis=0), scale, axis=1)
    return mask


def draw_text(
    fb: Framebuffer,
    x: int,
    y: int,
    text: str,
    color: Color = (0.9, 0.9, 0.9),
    *,
    scale: int = 1,
    alpha: float = 1.0,
) -> tuple[int, int, int, int] | None:
    """Blit ``text`` with its top-left corner at pixel (x, y), clipped.

    ``alpha`` blends the glyph pixels over the existing content.
    Returns the clipped pixel box ``(x0, y0, x1, y1)`` blended, or None
    when the text falls outside the framebuffer.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    mask = text_mask(text, scale=scale)
    h, w = mask.shape
    x0, y0 = int(x), int(y)
    x1, y1 = x0 + w, y0 + h
    cx0, cy0 = max(0, x0), max(0, y0)
    cx1, cy1 = min(fb.width, x1), min(fb.height, y1)
    if cx1 <= cx0 or cy1 <= cy0:
        return None
    sub = mask[cy0 - y0 : cy1 - y0, cx0 - x0 : cx1 - x0]
    region = fb.data[cy0:cy1, cx0:cx1]
    c = np.asarray(color, dtype=np.float32)
    blend = sub[..., None] * alpha
    region *= 1.0 - blend
    region += blend * c
    return cx0, cy0, cx1, cy1
