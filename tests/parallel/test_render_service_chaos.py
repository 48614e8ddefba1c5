"""Chaos and lifecycle of the persistent render service.

The service outlives frames, so what used to end with each frame —
workers, the frame block — now has to survive failures between frames
and still end with its store:

* workers keep their PIDs from frame to frame, and a worker killed
  while idle is respawned by the next frame;
* a worker crash on a build frame or on a retained frame, a disavowed
  worker and total failure (the serial rung) all yield serial frames,
  and never leave a base slot that a later frame restores torn: a
  build whose batch failed is rebuilt by the next frame;
* a report held across later frames keeps its bytes;
* closing the dataset service, or evicting the store, reaps every
  worker and leaves no frame or base block mapped;
* two threads rendering through one service are serialized.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import obs
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
from repro.store import DatasetService, SharedArenaStore, live_blocks
from repro.synth.arena import Arena

pytestmark = pytest.mark.chaos

FAST = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)
NO_FAULTS = FaultPlan()


@pytest.fixture()
def telemetry():
    previous = obs.get_registry()
    obs.enable()
    yield
    obs.set_registry(previous)


def _counts() -> dict[str, float]:
    snap = obs.telemetry_snapshot()
    return {k: snap.counter(f"render.base.{k}") for k in ("builds", "reuses", "fallbacks")}


class _Scene:
    """A small wall, a brush canvas that the tests repaint, and the
    serial oracle frame of the current state."""

    def __init__(self, dataset) -> None:
        viewport = Viewport(DisplayWall(
            cols=2, rows=1, panel_width=0.3, panel_height=0.16875,
            panel_px_width=64, panel_px_height=36, bezel=BezelSpec(),
        ))
        self.renderer = WallRenderer(dataset, Arena(), viewport)
        self.assignment = assign_sequential(dataset, BezelAwareGrid(viewport, 4, 2))
        self.canvas = BrushCanvas()
        self.paint(0)

    def paint(self, i: int) -> None:
        r = self.renderer.arena.radius
        x0 = -0.6 * r + 0.2 * r * i
        self.canvas = BrushCanvas()
        self.canvas.add(stroke_from_rect((x0, -0.4 * r), (x0 + 0.4 * r, 0.3 * r), 0.1 * r, "red"))

    def render(self, store, *, fault_plan=NO_FAULTS, workers=2):
        return render_viewport_parallel(
            self.renderer, self.assignment, canvas=self.canvas, max_workers=workers,
            store=store, fault_plan=fault_plan, retry_policy=FAST,
        )

    def check(self, report) -> None:
        serial = render_viewport_parallel(
            self.renderer, self.assignment, canvas=self.canvas, max_workers=0
        )
        for eye, tiles in serial.frames.items():
            for key, fb in tiles.items():
                assert np.array_equal(fb.data, report.frames[eye][key].data), (eye, key)


@pytest.fixture()
def scene(study_dataset):
    return _Scene(study_dataset)


def _service(store, workers=2):
    return tilerender._SERVICES[(store.uid, workers)]


def _failed_batch_jobs(report) -> int:
    """Jobs dealt (round-robin) to the batches with a failed attempt:
    a crash can take batches other than its target down with the pool."""
    failed = {e.job for e in report.degradation.events if e.job is not None}
    return sum(len(range(b, report.n_jobs, report.n_batches)) for b in failed)


def _assert_reaped(pids) -> None:
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def _assert_no_service_blocks() -> None:
    assert not [name for name in live_blocks() if "fb_" in name]


def test_workers_keep_their_pids_across_frames(study_dataset, scene):
    with SharedArenaStore.publish(study_dataset) as store:
        scene.render(store)
        pids = _service(store).worker_pids()
        assert len(pids) == 2
        for i in range(1, 3):
            scene.paint(i)
            report = scene.render(store)
            scene.check(report)
            assert _service(store).worker_pids() == pids
    _assert_reaped(pids)


def test_a_worker_killed_between_frames_is_respawned(study_dataset, scene):
    """The pool outlives frames, so a worker can die while it is idle;
    the next frame respawns the workers and is still the serial frame."""
    with SharedArenaStore.publish(study_dataset) as store:
        scene.render(store)
        victim = _service(store).worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:  # let the executor notice
            if tilerender._SERVICES[(store.uid, 2)]._pool._executor._broken:
                break
            time.sleep(0.05)
        scene.paint(1)
        report = scene.render(store)
        scene.check(report)
        assert report.degradation.by_action().get("respawned", 0) >= 1
        assert victim not in _service(store).worker_pids()


def test_crash_on_a_build_frame_rebuilds_the_crashed_batch(study_dataset, scene, telemetry):
    with SharedArenaStore.publish(study_dataset) as store:
        crash = FaultPlan(specs=(FaultSpec("crash", job=0, times=1),))
        report = scene.render(store, fault_plan=crash)
        assert "injected-crash" in report.degradation.by_kind()
        scene.check(report)
        rebuilt = _failed_batch_jobs(report)
        assert rebuilt > 0
        before = _counts()
        scene.paint(1)
        report = scene.render(store)
        scene.check(report)
        after = _counts()
        assert after["builds"] - before["builds"] == rebuilt
        assert after["reuses"] - before["reuses"] == report.n_jobs - rebuilt


def test_crash_on_a_retained_frame_keeps_every_base(study_dataset, scene, telemetry):
    with SharedArenaStore.publish(study_dataset) as store:
        scene.render(store)
        scene.paint(1)
        crash = FaultPlan(specs=(FaultSpec("crash", job=1, times=1),))
        report = scene.render(store, fault_plan=crash)
        assert "injected-crash" in report.degradation.by_kind()
        scene.check(report)
        before = _counts()
        scene.paint(2)
        report = scene.render(store)
        scene.check(report)
        after = _counts()
        assert after["builds"] == before["builds"]
        assert after["reuses"] - before["reuses"] == report.n_jobs


def test_disavowed_build_is_not_reused(study_dataset, scene, telemetry):
    """A ``corrupt`` fault runs the batch to completion — its base
    slots ARE written — then disavows it; the retry rewrites them, but
    a retried build is never recorded, so the next frame rebuilds."""
    with SharedArenaStore.publish(study_dataset) as store:
        corrupt = FaultPlan(specs=(FaultSpec("corrupt", job=1, times=1),))
        report = scene.render(store, fault_plan=corrupt)
        assert "injected-corrupt" in report.degradation.by_kind()
        scene.check(report)
        rebuilt = _failed_batch_jobs(report)
        assert rebuilt > 0
        before = _counts()
        report = scene.render(store)
        scene.check(report)
        assert _counts()["builds"] - before["builds"] == rebuilt


def test_total_failure_falls_back_serially_and_records_no_base(study_dataset, scene, telemetry):
    with SharedArenaStore.publish(study_dataset) as store:
        fail = FaultPlan(specs=(FaultSpec("error", p=1.0),))
        report = scene.render(store, fault_plan=fail)
        assert report.degradation.n_fallbacks == report.n_batches == 2
        scene.check(report)
        assert _counts()["builds"] == 0
        report = scene.render(store)
        scene.check(report)
        assert _counts() == {"builds": report.n_jobs, "reuses": 0, "fallbacks": 0}


def test_a_held_report_keeps_its_bytes(study_dataset, scene):
    with SharedArenaStore.publish(study_dataset) as store:
        held = scene.render(store)
        scene.check(held)
        snapshot = {
            (eye, key): fb.data.copy()
            for eye, tiles in held.frames.items() for key, fb in tiles.items()
        }
        one_tile = next(iter(held.frames.values()))[(0, 0)].data[2:5]
        for i in (1, 2):
            scene.paint(i)
            report = scene.render(store)
            scene.check(report)
        for (eye, key), data in snapshot.items():
            assert np.array_equal(held.frames[eye][key].data, data)
            assert not held.frames[eye][key].data.flags.writeable
        del held, report
        # a view of a view still pins the first frame's block
        assert one_tile.shape[0] == 3
        scene.paint(3)
        scene.check(scene.render(store))
    del one_tile
    _assert_no_service_blocks()


@pytest.mark.parametrize("end", ["service-close", "evict-store"])
def test_the_service_ends_with_its_store(study_dataset, scene, end):
    service = DatasetService(study_dataset)
    handle = service.publish_store()
    report = scene.render(handle)
    scene.check(report)
    pids = tilerender._SERVICES[(handle.uid, 2)].worker_pids()
    del report
    if end == "service-close":
        service.close()
    else:
        assert service.evict_store(handle.uid)
    _assert_reaped(pids)
    assert (handle.uid, 2) not in tilerender._SERVICES
    _assert_no_service_blocks()
    service.close()


def test_two_threads_through_one_service_are_serialized(study_dataset, scene, monkeypatch):
    inside = []
    overlap = []
    render_locked = tilerender.RenderService._render_locked

    def spy(self, *args, **kwargs):
        inside.append(1)
        overlap.append(len(inside))
        time.sleep(0.05)  # widen the window another frame could enter
        try:
            return render_locked(self, *args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(tilerender.RenderService, "_render_locked", spy)
    with SharedArenaStore.publish(study_dataset) as store:
        scene.render(store)
        reports = []
        threads = [
            threading.Thread(target=lambda: reports.append(scene.render(store)))
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        assert len(reports) == 2
        for report in reports:
            scene.check(report)
        del reports
    assert max(overlap) == 1
