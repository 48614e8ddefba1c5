"""Randomized render-transport parity harness.

One frame, three transports — serial in-process, pooled with pickle
ship-back, pooled with the shared output framebuffer — must agree to
the byte on every (tile, eye) framebuffer.  Ship-back is the
degradation rung a frame takes when its frame block cannot be created,
so the harness reaches it by making that creation fail.  Each spec seeds its own
layout, brush set, time window and eye selection, so the suite sweeps
wall shapes (including degenerate 1-pixel tiles and chunky
bezel-clipped mullions), brushed and unbrushed frames, and worker
counts 1, 2 and 8.

Shared-framebuffer slots start zero-filled, which is *not* the
renderer's background color — byte equality with the serial frame
therefore also proves every slot pixel was actually written by a
worker (no blank or partially-written tiles).
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest

from repro.core.brush import stroke_from_rect
from repro.core.canvas import BrushCanvas
from repro.core.engine import CoordinatedBrushingEngine
from repro.core.temporal import TimeWindow
from repro.display.bezel import BezelSpec
from repro.display.viewport import Viewport
from repro.display.wall import DisplayWall
from repro.layout.cells import assign_groups_to_cells, assign_sequential
from repro.layout.grid import BezelAwareGrid
from repro.layout.groups import TrajectoryGroups
from repro.parallel import tilerender
from repro.parallel.tilerender import render_viewport_parallel
from repro.render.pipeline import WallRenderer
from repro.stereo.camera import Eye
from repro.store.shm import StoreAttachError
from repro.synth.arena import Arena

BOTH = (Eye.LEFT, Eye.RIGHT)

#: (name, seed, wall kwargs, (grid cols, grid rows), n strokes,
#:  window fraction or None, eyes, max_workers)
SPECS = [
    (
        "two-panel-brushed", 0,
        dict(cols=2, rows=1, panel_px_width=64, panel_px_height=36),
        (4, 2), 2, None, BOTH, 2,
    ),
    (
        "single-panel-windowed", 1,
        dict(cols=1, rows=1, panel_px_width=64, panel_px_height=36),
        (3, 3), 1, 0.3, (Eye.LEFT,), 2,
    ),
    (
        "wide-wall-eight-workers", 2,
        dict(cols=3, rows=1, panel_px_width=48, panel_px_height=27),
        (5, 2), 2, 0.6, BOTH, 8,
    ),
    (
        "degenerate-one-px-tiles", 3,
        dict(cols=2, rows=1, panel_px_width=1, panel_px_height=24),
        (1, 2), 1, None, BOTH, 2,
    ),
    (
        "degenerate-one-px-rows", 4,
        dict(cols=1, rows=2, panel_px_width=32, panel_px_height=1),
        (2, 1), 1, None, (Eye.RIGHT,), 2,
    ),
    (
        "bezel-clipped-mullions", 5,
        dict(
            cols=2, rows=2, panel_px_width=40, panel_px_height=30,
            bezel=BezelSpec(left=0.02, right=0.02, top=0.015, bottom=0.015),
        ),
        (3, 3), 2, 0.5, BOTH, 2,
    ),
    (
        "single-worker-degenerates-to-serial", 6,
        dict(cols=2, rows=1, panel_px_width=40, panel_px_height=24),
        (2, 2), 1, None, BOTH, 1,
    ),
    (
        "unbrushed-frame", 7,
        dict(cols=2, rows=1, panel_px_width=48, panel_px_height=30),
        (4, 2), 0, None, BOTH, 2,
    ),
]


def _make_wall(**kw) -> DisplayWall:
    kw.setdefault("panel_width", 0.3)
    kw.setdefault("panel_height", 0.16875)
    kw.setdefault("bezel", BezelSpec())
    return DisplayWall(**kw)


def _seeded_canvas(seed: int, n_strokes: int, arena: Arena) -> BrushCanvas | None:
    """A deterministic random brush set inside the arena."""
    if n_strokes == 0:
        return None
    rng = np.random.default_rng(seed)
    canvas = BrushCanvas()
    r = arena.radius
    colors = ("red", "blue", "green")
    for i in range(n_strokes):
        cx, cy = rng.uniform(-0.6 * r, 0.6 * r, size=2)
        w, h = rng.uniform(0.15 * r, 0.5 * r, size=2)
        canvas.add(
            stroke_from_rect(
                (cx - w, cy - h), (cx + w, cy + h),
                rng.uniform(0.05 * r, 0.15 * r), colors[i % len(colors)],
            )
        )
    return canvas


#: What forcing the ship-back rung leaves on a pooled report.
SHIPBACK_RUNG = {"framebuf-create-failure": 1}


def _refuse(slots):
    raise StoreAttachError("injected: frame block refused")


def _shipback(monkeypatch, renderer, assignment, **kw):
    """A render whose frame block cannot be created: pooled, it ships
    every tile's pixels back."""
    with monkeypatch.context() as m:
        m.setattr(tilerender, "create_framebuffer", _refuse)
        return render_viewport_parallel(renderer, assignment, **kw)


def _assert_frames_equal(a, b, eyes):
    for eye in eyes:
        assert set(a.frames[eye]) == set(b.frames[eye])
        for key in a.frames[eye]:
            np.testing.assert_array_equal(
                a.frames[eye][key].data, b.frames[eye][key].data
            )


@pytest.mark.parametrize(
    "name,seed,wall_kw,grid_shape,n_strokes,window_frac,eyes,workers",
    SPECS,
    ids=[s[0] for s in SPECS],
)
def test_three_transports_bit_identical(
    study_dataset, monkeypatch, name, seed, wall_kw, grid_shape, n_strokes,
    window_frac, eyes, workers,
):
    arena = Arena()
    viewport = Viewport(_make_wall(**wall_kw))
    grid = BezelAwareGrid(viewport, *grid_shape)
    renderer = WallRenderer(study_dataset, arena, viewport)
    assignment = assign_sequential(study_dataset, grid)
    canvas = _seeded_canvas(seed, n_strokes, arena)
    window = None if window_frac is None else TimeWindow.end(window_frac)

    # highlights evaluated once, shared by all three paths: any frame
    # difference is then attributable to the transport alone
    results = None
    if canvas is not None:
        engine = CoordinatedBrushingEngine(study_dataset)
        results = engine.query_all_colors(
            canvas, window=window, assignment=assignment
        )

    common = dict(eyes=eyes, canvas=canvas, results=results)
    serial = render_viewport_parallel(
        renderer, assignment, max_workers=0, **common
    )
    shipback = _shipback(
        monkeypatch, renderer, assignment, max_workers=workers, **common
    )
    sharedfb = render_viewport_parallel(
        renderer, assignment, max_workers=workers, **common
    )

    _assert_frames_equal(serial, shipback, eyes)
    _assert_frames_equal(serial, sharedfb, eyes)
    assert shipback.degradation.by_kind() == (SHIPBACK_RUNG if workers > 1 else {})
    assert not sharedfb.degraded
    if workers > 1:
        assert not shipback.shared_fb
        assert sharedfb.shared_fb
        assert sharedfb.n_batches == min(workers, sharedfb.n_jobs)
        assert set(sharedfb.stage_seconds) == {
            "dispatch", "render", "shipback", "teardown", "assemble",
        }


def test_shared_fb_is_the_pooled_default(study_dataset):
    viewport = Viewport(_make_wall(cols=2, rows=1, panel_px_width=40,
                                   panel_px_height=24))
    grid = BezelAwareGrid(viewport, 2, 2)
    renderer = WallRenderer(study_dataset, Arena(), viewport)
    assignment = assign_sequential(study_dataset, grid)
    report = render_viewport_parallel(renderer, assignment, max_workers=2)
    assert report.shared_fb
    serial = render_viewport_parallel(renderer, assignment, max_workers=0)
    _assert_frames_equal(serial, report, BOTH)


# --- pinned golden frame ---------------------------------------------------
#
# The wall-size brushed stereo frame of the Q3 render bench (4x2 panels
# at 256x144 px, an 8x4 small-multiple grid, a 6-stamp 3-color brush)
# with the Fig. 3 five-zone grouping, so group backgrounds and labels
# are drawn too.  The render kernels may only get faster, never change
# a pixel: every (tile, eye) framebuffer is pinned by the sha256 of its
# float32 bytes, recorded before the splat/composite rewrite, and all
# three transports must reproduce it exactly.


def _golden_frame_inputs(dataset):
    arena = Arena()
    viewport = Viewport(
        _make_wall(cols=4, rows=2, panel_px_width=256, panel_px_height=144)
    )
    grid = BezelAwareGrid(viewport, 8, 4)
    assignment = assign_groups_to_cells(
        dataset, grid, TrajectoryGroups.fig3_scheme(grid)
    )
    canvas = BrushCanvas()
    colors = ("red", "blue", "green")
    r = arena.radius
    for i in range(6):
        x0 = -r + 0.22 * r * i
        canvas.add(
            stroke_from_rect(
                (x0, -0.6 * r), (x0 + 0.3 * r, 0.5 * r), 0.1 * r, colors[i % 3]
            )
        )
    results = CoordinatedBrushingEngine(dataset).query_all_colors(
        canvas, assignment=assignment
    )
    renderer = WallRenderer(dataset, arena, viewport)
    return renderer, assignment, canvas, results


def _frame_digests(report) -> dict[tuple[int, int, int], str]:
    return {
        (col, row, int(eye)): hashlib.sha256(fb.data.tobytes()).hexdigest()
        for eye, tiles in report.frames.items()
        for (col, row), fb in tiles.items()
    }


#: sha256 of each (col, row, eye) framebuffer of the golden frame,
#: recorded with the per-tap ``np.add.at`` splat and full-cell
#: composite (numpy 2.4, x86-64).
GOLDEN_FRAME_SHA256 = {
    (0, 0, -1): "e9ff0c230a6ed32cb918d1681233b9e5af7c8361cd5fcda8a74f4255d1e20536",
    (0, 0, 1): "e578fb2d5986e2be4a9dd7a65e2933f9f8e24bbce8cf40aa8d68753dafd21c36",
    (0, 1, -1): "fb71b36967ce00a9a58eb930c6ddffeb01769c2677a36e90ea12b2919e9eb7a7",
    (0, 1, 1): "f25160a773d80d9a11e0d9d27fa428863ebc09551e1031b6cb3d1665e2e332ef",
    (1, 0, -1): "3e88603f160e56d0bdc1a64536cb32419c5351e7646162b016cb500bad45f6f7",
    (1, 0, 1): "b4089de75f69c101f6d2d293335fbe9b5e1016468de414bdb1b8391416f0c432",
    (1, 1, -1): "33b47d42675cc003921ef3621370858bc3294116da6b46904138ba6981cfa5dc",
    (1, 1, 1): "933480495546865ccb5f83bb9d7255f774f015a06000a7d09db864df4a80a164",
    (2, 0, -1): "9b7f1411bed07009aaa768590cfbf3de570edf63edfb95277aa57c9f38b23652",
    (2, 0, 1): "3c852a20e7e293ba2be0b0b49b3a3c938d054befd565232a93c9613647975975",
    (2, 1, -1): "00df06bdad85ebfdd49c4c745f03fa3c2aa674e5eb1e8fe22da5f32a189b6733",
    (2, 1, 1): "5ec8559078d686a374153c34d6c61d55c9399f705e3cf0da5fd1c43c2d1414ca",
    (3, 0, -1): "792b37783a9ed8d84d646f3bb1e94ed4d4820675c4b946c72bafed2cd12c146e",
    (3, 0, 1): "4f674eb6a76924954df24f9f80f6fd00661e251798341fb09a2cab9870ec1052",
    (3, 1, -1): "16e4274755e26eae68b06b979b499e37b0a6251d318bd5b20f46c1833142c9f8",
    (3, 1, 1): "a88f467ec807d1a47230ce74685619593de1bef1aefc8f250f6c8863bda9f1cf",
}


def test_golden_frame_pinned_across_transports(study_dataset, monkeypatch):
    renderer, assignment, canvas, results = _golden_frame_inputs(study_dataset)
    common = dict(canvas=canvas, results=results)
    runs = {
        "serial": render_viewport_parallel(
            renderer, assignment, max_workers=0, **common
        ),
        "shipback": _shipback(
            monkeypatch, renderer, assignment, max_workers=2, **common
        ),
        "sharedfb": render_viewport_parallel(
            renderer, assignment, max_workers=2, **common
        ),
    }
    for name, report in runs.items():
        expected = SHIPBACK_RUNG if name == "shipback" else {}
        assert report.degradation.by_kind() == expected, (
            name, report.degradation.summary()
        )
        assert _frame_digests(report) == GOLDEN_FRAME_SHA256, name


def test_golden_frame_jobs_cache_invariant(study_dataset):
    """Every job of the golden frame rendered through one shared
    footprint cache (as a serial frame or a pooled batch renders it)
    is byte-equal to the same job rendered alone with no cache — the
    invariant the benchmark's per-frame check relies on."""
    renderer, assignment, canvas, results = _golden_frame_inputs(study_dataset)
    jobs = renderer.make_jobs(assignment)
    shared: dict = {}
    for job in jobs:
        cached = renderer.render_job(
            job, canvas=canvas, results=results, footprint_cache=shared
        )
        alone = renderer.render_job(job, canvas=canvas, results=results)
        assert cached.data.tobytes() == alone.data.tobytes(), (
            job.tile.col, job.tile.row, int(job.eye)
        )
    kinds = {key[0] for key in shared}
    assert kinds == {"footprint", "rim"}


def test_render_into_adopts_the_target(study_dataset):
    """``render_job(into=...)`` draws in place into the given storage
    (the pooled slot path) and matches a fresh render byte for byte."""
    renderer, assignment, canvas, results = _golden_frame_inputs(study_dataset)
    job = renderer.make_jobs(assignment)[0]
    fresh = renderer.render_job(job, canvas=canvas, results=results)
    target = np.zeros_like(fresh.data)
    fb = renderer.render_job(job, canvas=canvas, results=results, into=target)
    assert fb.data is target
    assert target.tobytes() == fresh.data.tobytes()
    with pytest.raises(ValueError):
        renderer.render_job(job, canvas=canvas, results=results, into=target[:, :-1])
    with pytest.raises(ValueError):
        renderer.render_job(
            job, canvas=canvas, results=results, into=target.astype(np.float64)
        )


@pytest.mark.parametrize("shared_fb", [True, False], ids=["sharedfb", "shipback"])
def test_pooled_stage_seconds_account_for_elapsed(study_dataset, monkeypatch, shared_fb):
    """dispatch + render / workers + shipback + teardown + assemble is
    the pooled frame's wall time: pool bring-up lands in shipback and
    pool shutdown in teardown, so no stage hides outside the split."""
    renderer, assignment, canvas, results = _golden_frame_inputs(study_dataset)
    render = render_viewport_parallel if shared_fb else functools.partial(
        _shipback, monkeypatch
    )
    report = render(
        renderer, assignment, canvas=canvas, results=results, max_workers=2,
    )
    assert report.degradation.by_kind() == ({} if shared_fb else SHIPBACK_RUNG)
    s = report.stage_seconds
    total = (
        s["dispatch"] + s["render"] / report.workers + s["shipback"]
        + s["teardown"] + s["assemble"]
    )
    assert s["teardown"] > 0.0
    assert abs(total - report.elapsed_s) <= 0.05 * report.elapsed_s, (s, report.elapsed_s)
