"""Retained frames through one live render service are the serial frames.

A render service keeps each (tile, eye) slot's base layers between
frames and, while their inputs are unchanged, draws only the brush
layers over a restored base.  These tests hold that to the byte:

* a hypothesis frame-sequence property walks random layouts, groups,
  eyes, projections and stroke / window / erase sequences through one
  service, and every pooled frame must equal the serial frame;
* a directed case where brush layers reach into a later cell's base
  boxes must take the full-render fallback, and count it;
* every input of the base key forces a rebuild when it alone changes,
  and an unchanged key reuses the base.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
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
from repro.parallel.tilerender import base_key, render_viewport_parallel
from repro.render.pipeline import WallRenderer
from repro.render.raster import CellStyle
from repro.stereo.camera import Eye
from repro.stereo.projection import SpaceTimeProjection
from repro.store import SharedArenaStore
from repro.synth.arena import Arena

BOTH = (Eye.LEFT, Eye.RIGHT)
COLORS = ("red", "blue", "green")


def _viewport() -> Viewport:
    return Viewport(DisplayWall(
        cols=2, rows=1, panel_width=0.3, panel_height=0.16875,
        panel_px_width=64, panel_px_height=36, bezel=BezelSpec(),
    ))


@pytest.fixture()
def telemetry():
    previous = obs.get_registry()
    obs.enable()
    yield
    obs.set_registry(previous)


def _base_counts() -> dict[str, float]:
    snap = obs.telemetry_snapshot()
    return {k: snap.counter(f"render.base.{k}") for k in ("builds", "reuses", "fallbacks")}


class _Wall:
    """One analyst's view state, rendered pooled and serially."""

    def __init__(self, dataset, store) -> None:
        self.dataset = dataset
        self.store = store
        self.arena = Arena()
        self.viewport = _viewport()
        self.engine = CoordinatedBrushingEngine(dataset)
        self.grid_shape = (5, 2)
        self.groups = False
        self.eyes = BOTH
        self.projection = SpaceTimeProjection()
        self.canvas = BrushCanvas()
        self.window: TimeWindow | None = None

    def assignment(self):
        grid = BezelAwareGrid(self.viewport, *self.grid_shape)
        if self.groups:
            return assign_groups_to_cells(
                self.dataset, grid, TrajectoryGroups.fig3_scheme(grid)
            )
        return assign_sequential(self.dataset, grid)

    def frames(self, workers: int = 2):
        assignment = self.assignment()
        renderer = WallRenderer(self.dataset, self.arena, self.viewport, self.projection)
        results = None
        if not self.canvas.is_empty():
            results = self.engine.query_all_colors(
                self.canvas, window=self.window, assignment=assignment
            )
        common = dict(eyes=self.eyes, canvas=self.canvas, results=results)
        serial = render_viewport_parallel(renderer, assignment, max_workers=0, **common)
        pooled = render_viewport_parallel(
            renderer, assignment, max_workers=workers, store=self.store, **common
        )
        return serial, pooled


def _assert_same(serial, pooled) -> None:
    assert set(serial.frames) == set(pooled.frames)
    for eye, tiles in serial.frames.items():
        assert set(tiles) == set(pooled.frames[eye])
        for key, fb in tiles.items():
            assert np.array_equal(fb.data, pooled.frames[eye][key].data), (eye, key)


_STEPS = st.one_of(
    st.tuples(st.just("layout"), st.sampled_from([(5, 2), (6, 2), (5, 3), (10, 1)])),
    st.tuples(st.just("groups"), st.booleans()),
    st.tuples(st.just("eyes"), st.sampled_from([BOTH, (Eye.LEFT,), (Eye.RIGHT,)])),
    st.tuples(
        st.just("projection"),
        st.sampled_from([0.0, 0.05, 0.3]),
        st.sampled_from([0.001, 0.004]),
    ),
    st.tuples(
        st.just("stroke"),
        st.floats(-0.8, 0.8), st.floats(-0.8, 0.8),
        st.floats(0.1, 0.7), st.floats(0.1, 0.7),
        st.sampled_from(COLORS),
    ),
    st.tuples(st.just("window"), st.sampled_from([None, 0.15, 0.4, 0.8])),
    st.tuples(st.just("erase")),
)


def _apply(wall: _Wall, step: tuple) -> None:
    kind = step[0]
    if kind == "layout":
        wall.grid_shape = step[1]
    elif kind == "groups":
        wall.groups = step[1]
    elif kind == "eyes":
        wall.eyes = step[1]
    elif kind == "projection":
        wall.projection = SpaceTimeProjection(depth_offset=step[1], time_scale=step[2])
    elif kind == "stroke":
        _, cx, cy, w, h, color = step
        r = wall.arena.radius
        wall.canvas.add(stroke_from_rect(
            ((cx - w) * r, (cy - h) * r), ((cx + w) * r, (cy + h) * r), 0.1 * r, color
        ))
    elif kind == "window":
        wall.window = None if step[1] is None else TimeWindow.end(step[1])
    else:
        wall.canvas = BrushCanvas()


def test_frame_sequences_through_one_service_are_serial_frames(study_dataset, telemetry):
    with SharedArenaStore.publish(study_dataset) as store:

        @settings(max_examples=20, deadline=None)
        @given(steps=st.lists(_STEPS, min_size=2, max_size=6))
        def walk(steps):
            wall = _Wall(study_dataset, store)
            for step in [("stroke", 0.0, 0.0, 0.3, 0.3, "red"), *steps]:
                _apply(wall, step)
                serial, pooled = wall.frames()
                assert not pooled.degraded, pooled.degradation.summary()
                _assert_same(serial, pooled)

        walk()
    counts = _base_counts()
    assert counts["builds"] > 0 and counts["reuses"] > 0, counts


def test_brush_reaching_a_later_cell_falls_back_to_a_full_render(study_dataset, telemetry):
    """A brush wider than the arena covers each cell's footprint grid
    to its edge, which neighbouring cells share, so every job's brush
    pixels meet a later cell's background: each must render in full
    (on the build frame and the retained one) and stay byte-equal."""
    with SharedArenaStore.publish(study_dataset) as store:
        wall = _Wall(study_dataset, store)
        r = wall.arena.radius
        wall.canvas.add(stroke_from_rect((-2 * r, -2 * r), (2 * r, 2 * r), 0.5 * r, "red"))
        for _ in range(2):
            serial, pooled = wall.frames()
            _assert_same(serial, pooled)
        counts = _base_counts()
        assert counts["fallbacks"] == 2 * pooled.n_jobs, counts
        assert counts["reuses"] == 0, counts


def test_a_brush_inside_the_cells_takes_no_fallback(study_dataset, telemetry):
    with SharedArenaStore.publish(study_dataset) as store:
        wall = _Wall(study_dataset, store)
        r = wall.arena.radius
        wall.canvas.add(stroke_from_rect((-0.3 * r, -0.3 * r), (0.3 * r, 0.3 * r), 0.1 * r, "red"))
        serial, pooled = wall.frames()
        _assert_same(serial, pooled)
        wall.window = TimeWindow.end(0.3)
        serial, pooled = wall.frames()
        _assert_same(serial, pooled)
        assert _base_counts() == {
            "builds": pooled.n_jobs, "reuses": pooled.n_jobs, "fallbacks": 0,
        }


# --- the base key ------------------------------------------------------------


def _key_inputs(study_dataset):
    viewport = _viewport()
    renderer = WallRenderer(study_dataset, Arena(), viewport)
    grid = BezelAwareGrid(viewport, 5, 2)
    job = renderer.make_jobs(
        assign_groups_to_cells(study_dataset, grid, TrajectoryGroups.fig3_scheme(grid))
    )[0]
    return renderer, job


def _variants(renderer, job):
    """(what changed, renderer, job) with exactly one key input changed."""
    proj = renderer.projection
    other_tile = renderer.viewport.tiles()[1]

    def with_renderer(**kw):
        args = dict(
            dataset=renderer.dataset, arena=renderer.arena, viewport=renderer.viewport,
            projection=renderer.projection, style=renderer.style,
        )
        args.update(kw)
        return WallRenderer(**args)

    rects = job.cell_rects.copy()
    rects[0, 0] += 1e-4
    trajs = job.cell_traj.copy()
    trajs[0] = (trajs[0] + 1) % len(renderer.dataset)
    colors = job.cell_colors.copy()
    colors[0, 0] += 0.01
    labels = ("relabelled",) + tuple(job.cell_labels[1:])
    return [
        ("tile", renderer, dataclasses.replace(job, tile=other_tile)),
        ("eye", renderer, dataclasses.replace(
            job, eye=Eye.RIGHT if job.eye == Eye.LEFT else Eye.LEFT
        )),
        ("cell rects", renderer, dataclasses.replace(job, cell_rects=rects)),
        ("trajectory ids", renderer, dataclasses.replace(job, cell_traj=trajs)),
        ("colors", renderer, dataclasses.replace(job, cell_colors=colors)),
        ("labels", renderer, dataclasses.replace(job, cell_labels=labels)),
        ("arena", with_renderer(arena=Arena(radius=0.6)), job),
        ("depth offset", with_renderer(
            projection=dataclasses.replace(proj, depth_offset=proj.depth_offset + 0.01)
        ), job),
        ("time exaggeration", with_renderer(
            projection=dataclasses.replace(proj, time_scale=2 * proj.time_scale)
        ), job),
        ("style", with_renderer(style=CellStyle(line_width=2.0)), job),
    ]


def test_base_key_changes_with_each_input_alone(study_dataset):
    renderer, job = _key_inputs(study_dataset)
    key = base_key(renderer, job)
    # equal by value, not by identity
    same = WallRenderer(
        renderer.dataset, Arena(), renderer.viewport, SpaceTimeProjection(), CellStyle()
    )
    assert base_key(same, dataclasses.replace(job, cell_rects=job.cell_rects.copy())) == key
    for what, r2, j2 in _variants(renderer, job):
        assert base_key(r2, j2) != key, what


def test_projection_change_rebuilds_and_an_unchanged_key_reuses(study_dataset, telemetry):
    """Through one service: the same state twice reuses every base; a
    changed depth offset rebuilds every base; a stroke alone does not."""
    with SharedArenaStore.publish(study_dataset) as store:
        wall = _Wall(study_dataset, store)
        wall.groups = True
        expected = {"builds": 0, "reuses": 0, "fallbacks": 0}
        for change, outcome in [
            (None, "builds"),
            (None, "reuses"),
            (("projection", 0.05, 0.001), "builds"),
            (("stroke", 0.2, 0.1, 0.2, 0.2, "blue"), "reuses"),
            (("groups", False), "builds"),
            (("window", 0.4), "reuses"),
            (("erase",), "reuses"),
        ]:
            if change is not None:
                _apply(wall, change)
            serial, pooled = wall.frames()
            _assert_same(serial, pooled)
            expected[outcome] += pooled.n_jobs
            assert _base_counts() == expected, change
