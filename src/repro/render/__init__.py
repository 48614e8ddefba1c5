"""Deterministic NumPy software renderer.

Replaces the wall's OpenGL pipeline with an in-memory rasterizer that
exercises the same code paths the paper's application drove: per-eye
sheared-orthographic projection of space-time cubes, per-tile
framebuffers (so tiles render independently — the unit of parallelism
on a real cluster-driven wall and in :mod:`repro.parallel`), group
background colors, brush-highlight overlays, and stereo-pair/anaglyph
composition.

Rendering uses arc-length point splatting with bilinear coverage:
each polyline is resampled at sub-pixel spacing and its whole disc
stamp is accumulated with one ``np.bincount`` per accumulator — no
per-segment or per-tap Python loop.  Layers are alpha-composited only
where their coverage is non-zero.  Both kernels reproduce the pixels
of their straightforward forms bit for bit.
"""

from repro.render.color import Color, HIGHLIGHT_COLORS, named_color, time_gradient
from repro.render.framebuffer import Framebuffer
from repro.render.lines import splat_points, splat_polylines
from repro.render.raster import CellRenderer
from repro.render.compose import anaglyph, compose_wall, stereo_pair_side_by_side
from repro.render.pipeline import RenderJob, WallRenderer
from repro.render.image_io import read_ppm, write_npz, write_ppm

__all__ = [
    "Color",
    "HIGHLIGHT_COLORS",
    "named_color",
    "time_gradient",
    "Framebuffer",
    "splat_points",
    "splat_polylines",
    "CellRenderer",
    "compose_wall",
    "anaglyph",
    "stereo_pair_side_by_side",
    "WallRenderer",
    "RenderJob",
    "write_ppm",
    "read_ppm",
    "write_npz",
]
