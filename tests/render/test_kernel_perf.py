"""Render-kernel speed against the scalar oracles (wall-clock; ``-m perf``).

Both arms run in the same process on the same inputs, interleaved
with the within-pair order flipped each sample, and each arm is scored
by its minimum (for a CPU-bound kernel every perturbation only adds
time).  The gate is a ratio, never an absolute time: the vectorized
kernels must be at least 1.5x faster than the oracles they replace on
a paper-size padded cell (the 36x12 layout's ~227x128 px cell plus
the renderer's 8 px overdraw on each side).

Excluded from tier-1 (``addopts = -m "not perf"``); the CI
``telemetry-bench`` job runs ``pytest tests -m perf``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.render.color import time_gradient
from repro.render.framebuffer import Framebuffer, composite
from repro.render.lines import splat_polylines
from .oracles import composite_full, splat_polylines_scalar

CELL_H, CELL_W = 144, 243
SAMPLES = 15
MIN_SPEEDUP = 1.5


def _walk(seed: int, n: int = 300) -> tuple[np.ndarray, np.ndarray]:
    """A trajectory-like random walk across the cell, in pixels."""
    rng = np.random.default_rng(seed)
    pts = np.cumsum(rng.normal(0.0, 3.0, (n, 2)), axis=0) + (CELL_W / 2, CELL_H / 2)
    return pts[:-1], pts[1:]


def _min_times(fast, slow) -> tuple[float, float]:
    """Interleaved minima of (fast, slow) wall times."""
    fast(), slow()  # warm both paths
    best = {fast: float("inf"), slow: float("inf")}
    for k in range(SAMPLES):
        for fn in (fast, slow) if k % 2 else (slow, fast):
            t0 = time.perf_counter()
            fn()
            best[fn] = min(best[fn], time.perf_counter() - t0)
    return best[fast], best[slow]


def _splat_frame(kernel):
    """One cell's lines: the time-graded trajectory (width 1.6, RGB)
    and a highlighted stretch (width 2.4, coverage only)."""
    a, b = _walk(1)
    values = np.linspace(0.0, 1.0, len(a))

    def run() -> None:
        cov = np.zeros((CELL_H, CELL_W))
        rgb = np.zeros((CELL_H, CELL_W, 3))
        kernel(cov, a, b, width=1.6, step=0.7, seg_values=values,
               rgb_accum=rgb, value_to_rgb=time_gradient)
        hi = np.zeros((CELL_H, CELL_W))
        kernel(hi, a[:150], b[:150], width=2.4, step=0.7)

    return run


@pytest.mark.perf
def test_splat_at_least_1_5x_faster_than_per_tap_add_at():
    fast, slow = _min_times(
        _splat_frame(splat_polylines), _splat_frame(splat_polylines_scalar)
    )
    ratio = slow / fast
    print(f"splat: {fast * 1e3:.2f} ms vs oracle {slow * 1e3:.2f} ms ({ratio:.2f}x)")
    assert ratio >= MIN_SPEEDUP, f"splat speedup {ratio:.2f}x < {MIN_SPEEDUP}x"


def _cell_layers() -> list[tuple[tuple[slice, slice], np.ndarray, object]]:
    """The layers one brushed cell composites: trajectory (per-pixel
    color), highlight, brush footprint over a corner of the cell, and
    the arena rim ring."""
    a, b = _walk(2)
    line = np.zeros((CELL_H, CELL_W))
    rgb = np.zeros((CELL_H, CELL_W, 3))
    splat_polylines(line, a, b, width=1.6, seg_values=np.linspace(0, 1, len(a)),
                    rgb_accum=rgb, value_to_rgb=time_gradient)
    hit = line > 1e-9
    mean = np.zeros_like(rgb)
    mean[hit] = rgb[hit] / line[hit][:, None]
    highlight = np.zeros((CELL_H, CELL_W))
    splat_polylines(highlight, a[:150], b[:150], width=2.4)
    ys, xs = np.mgrid[0:CELL_H, 0:CELL_W]
    footprint = np.clip(30.0 - np.hypot(xs - 60.0, ys - 50.0), 0.0, 1.0) * 0.25
    # the rim is blended over the circle's bounding box only
    ry, rx = np.mgrid[0:125, 0:125]
    rim = np.clip(1.5 - np.abs(np.hypot(rx - 62.0, ry - 62.0) - 60.0), 0.0, 1.0)
    cell = np.s_[:, :]
    return [
        (cell, np.minimum(line, 1.0), mean.astype(np.float32)),
        (cell, np.minimum(highlight, 1.0), (0.9, 0.2, 0.2)),
        (cell, footprint, (0.2, 0.4, 0.9)),
        (np.s_[10:135, 59:184], rim, (0.35, 0.35, 0.40)),
    ]


@pytest.mark.perf
def test_composite_at_least_1_5x_faster_than_full_cell_blend():
    layers = _cell_layers()
    fb = Framebuffer(CELL_W, CELL_H)

    def blend(kernel):
        def run() -> None:
            data = fb.data.copy()
            for box, coverage, color in layers:
                kernel(data[box], coverage, color)
        return run

    fast, slow = _min_times(blend(composite), blend(composite_full))
    ratio = slow / fast
    print(f"composite: {fast * 1e3:.2f} ms vs oracle {slow * 1e3:.2f} ms ({ratio:.2f}x)")
    assert ratio >= MIN_SPEEDUP, f"composite speedup {ratio:.2f}x < {MIN_SPEEDUP}x"
