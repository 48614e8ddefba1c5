"""E11 — wall-render throughput (the substrate behind Fig. 3's frame).

Times the software rasterizer on the paper's full setup: the 36x12
layout with Fig. 3 grouping, brush footprint and query highlights, per
tile per eye — serial vs. process-parallel over the viewport's 12
panels (the unit of distribution on a real cluster-driven wall).
Reported: seconds per stereo frame, megapixels per second, and the
parallel speedup.
"""

import json

import pytest

from repro.core.brush import stroke_from_rect
from repro.core.canvas import BrushCanvas
from repro.core.engine import CoordinatedBrushingEngine
from repro.core.temporal import TimeWindow
from repro.layout.cells import assign_groups_to_cells
from repro.layout.configs import preset
from repro.layout.groups import TrajectoryGroups
from repro.parallel.pool import default_workers
from repro.parallel.tilerender import render_viewport_parallel
from repro.render.pipeline import WallRenderer
from repro.stereo.camera import Eye
from repro.synth.arena import Arena


@pytest.fixture(scope="module")
def setup(full_dataset, viewport, arena):
    grid = preset("3").build(viewport)
    groups = TrajectoryGroups.fig3_scheme(grid)
    assignment = assign_groups_to_cells(full_dataset, grid, groups)
    canvas = BrushCanvas()
    r = arena.radius
    canvas.add(stroke_from_rect((-r, -0.6 * r), (-0.7 * r, 0.6 * r), 0.12 * r, "red"))
    engine = CoordinatedBrushingEngine(full_dataset)
    results = {"red": engine.query(canvas, "red", window=TimeWindow.end(0.15))}
    renderer = WallRenderer(full_dataset, Arena(), viewport)
    return renderer, assignment, canvas, results


def test_e11_render_throughput(setup, viewport, report_sink, provenance, benchmark):
    renderer, assignment, canvas, results = setup
    workers = min(4, default_workers())

    serial = benchmark.pedantic(
        render_viewport_parallel,
        args=(renderer, assignment),
        kwargs=dict(
            eyes=(Eye.LEFT, Eye.RIGHT), canvas=canvas, results=results, max_workers=0
        ),
        rounds=1,
        iterations=1,
    )
    parallel = render_viewport_parallel(
        renderer, assignment, eyes=(Eye.LEFT, Eye.RIGHT),
        canvas=canvas, results=results, max_workers=workers,
    )
    stereo_mpx = 2 * viewport.megapixels
    speedup = serial.elapsed_s / parallel.elapsed_s

    report_sink(
        "E11",
        "wall render throughput (Fig. 3 frame substrate)",
        [
            "provenance: " + json.dumps(provenance),
            f"frame: 432 cells, stereo, brush + highlights, "
            f"{viewport.px_width}x{viewport.px_height} px per eye",
            f"serial:   {serial.elapsed_s:6.2f} s "
            f"({stereo_mpx / serial.elapsed_s:5.2f} Mpx/s, "
            f"{serial.n_jobs} tile-eye jobs)",
            f"parallel: {parallel.elapsed_s:6.2f} s with {workers} workers "
            f"({stereo_mpx / parallel.elapsed_s:5.2f} Mpx/s)",
            f"speedup:  {speedup:.2f}x",
            "(tiles are share-nothing render units, as on the real",
            " cluster-driven wall; with no store this pooled call runs a",
            " one-call render service: worker startup is in its time)",
        ],
    )

    # expected shape: parallel never slower than ~serial, and with >= 2
    # workers it should show a real speedup on this embarrassingly
    # parallel workload
    assert parallel.workers == workers
    if workers >= 2:
        assert speedup > 1.2


def test_e11_single_tile_bench(setup, benchmark):
    """pytest-benchmark timing for one tile/eye job (the unit of work)."""
    renderer, assignment, canvas, results = setup
    job = renderer.make_jobs(assignment, (Eye.LEFT,))[0]
    fb = benchmark(renderer.render_job, job, canvas=canvas, results=results)
    assert fb.data.max() > 0
