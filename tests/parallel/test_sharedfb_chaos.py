"""Chaos: the shared-framebuffer transport under injected failures.

Every scenario asserts the same two invariants:

* the assembled frame is **byte-identical** to the serial render — a
  crashed or disavowed worker never leaves a torn, stale, or blank
  tile (slots start zero-filled, which is not the background color, so
  byte parity proves every pixel was rewritten by a surviving
  attempt);
* the frame block is always unlinked once the report holding its
  views is dropped — the service teardown plus the autouse leak
  fixture make a leaked ``/dev/shm`` segment a test failure on every
  path, including the degraded ones.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.brush import stroke_from_rect
from repro.core.canvas import BrushCanvas
from repro.display.bezel import BezelSpec
from repro.display.viewport import Viewport
from repro.display.wall import DisplayWall
from repro.layout.cells import assign_sequential
from repro.layout.grid import BezelAwareGrid
from repro.parallel import tilerender
from repro.parallel.tilerender import render_viewport_parallel
from repro.render.pipeline import WallRenderer
from repro.resilience import FaultPlan, FaultSpec, RetryPolicy
from repro.stereo.camera import Eye
from repro.store import live_blocks
from repro.store.shm import BLOCK_PREFIX, StoreAttachError
from repro.synth.arena import Arena

pytestmark = pytest.mark.chaos

FAST = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)


@pytest.fixture(scope="module")
def setup(study_dataset):
    wall = DisplayWall(
        cols=2, rows=1, panel_width=0.3, panel_height=0.16875,
        panel_px_width=64, panel_px_height=36, bezel=BezelSpec(),
    )
    viewport = Viewport(wall)
    grid = BezelAwareGrid(viewport, 4, 2)
    renderer = WallRenderer(study_dataset, Arena(), viewport)
    assignment = assign_sequential(study_dataset, grid)
    canvas = BrushCanvas()
    r = Arena().radius
    canvas.add(
        stroke_from_rect((-r, -0.6 * r), (-0.7 * r, 0.6 * r), 0.12 * r, "red")
    )
    serial = render_viewport_parallel(
        renderer, assignment, canvas=canvas, max_workers=0
    )
    return renderer, assignment, canvas, serial


def _frames_equal(a, b):
    for eye in (Eye.LEFT, Eye.RIGHT):
        assert set(a.frames[eye]) == set(b.frames[eye])
        for key in a.frames[eye]:
            np.testing.assert_array_equal(
                a.frames[eye][key].data, b.frames[eye][key].data
            )


def _no_frame_blocks_left():
    assert not any("fb_" in name for name in live_blocks())
    shm = Path("/dev/shm")
    if shm.is_dir():
        assert not list(shm.glob(f"{BLOCK_PREFIX}fb_*"))


class TestSharedFrameBufferChaos:
    def test_worker_crash_leaves_no_blank_tile(self, setup):
        """Batch 0's worker hard-exits before writing; the respawned
        worker rewrites every slot of the batch."""
        renderer, assignment, canvas, serial = setup
        plan = FaultPlan(specs=(FaultSpec("crash", job=0, times=1),))
        report = render_viewport_parallel(
            renderer, assignment, canvas=canvas, max_workers=2,
            fault_plan=plan, retry_policy=FAST,
        )
        assert report.shared_fb and report.degraded
        assert "injected-crash" in report.degradation.by_kind()
        _frames_equal(serial, report)
        del report  # its frames are views that keep the block mapped
        _no_frame_blocks_left()

    def test_disavowed_write_is_overwritten(self, setup):
        """A ``corrupt`` fault runs the batch to completion — the slots
        ARE written — then disavows the result.  The retry must
        overwrite the already-written slots (determinism makes the
        rewrite byte-identical), so the frame shows no trace of the
        disavowed attempt."""
        renderer, assignment, canvas, serial = setup
        plan = FaultPlan(specs=(FaultSpec("corrupt", job=1, times=1),))
        report = render_viewport_parallel(
            renderer, assignment, canvas=canvas, max_workers=2,
            fault_plan=plan, retry_policy=FAST,
        )
        assert report.shared_fb and report.degraded
        assert "injected-corrupt" in report.degradation.by_kind()
        _frames_equal(serial, report)
        del report  # its frames are views that keep the block mapped
        _no_frame_blocks_left()

    def test_total_failure_completes_via_shipback_fallback(self, setup):
        """Every attempt of every batch errors: the frame completes on
        the in-parent serial rung, which ships pixels through return
        values (it never writes slots) — and still tears down the
        frame block."""
        renderer, assignment, canvas, serial = setup
        plan = FaultPlan(specs=(FaultSpec("error", p=1.0),))
        report = render_viewport_parallel(
            renderer, assignment, canvas=canvas, max_workers=2,
            fault_plan=plan, retry_policy=FAST,
        )
        assert report.shared_fb
        assert report.degradation.n_fallbacks == report.n_batches == 2
        _frames_equal(serial, report)
        assert "assemble" in report.stage_seconds
        del report  # its frames are views that keep the block mapped
        _no_frame_blocks_left()

    def test_framebuf_create_failure_degrades_to_shipback(self, setup, monkeypatch):
        """If the frame block cannot be created at all, the render
        degrades to the pickle ship-back transport — never a failed
        frame, never a leaked block."""
        renderer, assignment, canvas, serial = setup

        def refuse(slots):
            raise StoreAttachError("injected: /dev/shm full")

        monkeypatch.setattr(tilerender, "create_framebuffer", refuse)
        report = render_viewport_parallel(
            renderer, assignment, canvas=canvas, max_workers=2,
            retry_policy=FAST,
        )
        assert not report.shared_fb
        assert report.degradation.by_kind() == {"framebuf-create-failure": 1}
        assert report.degradation.by_action() == {"shipback-fallback": 1}
        _frames_equal(serial, report)
        del report  # its frames are views that keep the block mapped
        _no_frame_blocks_left()

    def test_crash_with_store_transport(self, setup, study_dataset):
        """Crash recovery composes with the shared-store input
        transport: both blocks (arena + frame) survive the pool death
        and both are torn down afterwards."""
        from repro.store import SharedArenaStore

        renderer, assignment, canvas, serial = setup
        plan = FaultPlan(specs=(FaultSpec("crash", job=1, times=1),))
        with SharedArenaStore.publish(study_dataset) as store:
            report = render_viewport_parallel(
                renderer, assignment, canvas=canvas, max_workers=2,
                fault_plan=plan, retry_policy=FAST, store=store,
            )
            assert report.shared_fb and report.degraded
            _frames_equal(serial, report)
        del report  # its frames are views that keep the block mapped
        _no_frame_blocks_left()
