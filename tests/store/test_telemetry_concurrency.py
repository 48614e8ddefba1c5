"""Telemetry under concurrent multi-session load.

Eight threads hammer one shared :class:`DatasetService` through their
own :class:`SessionView` with a live registry installed.  The
thread-sharded registry must lose nothing: every increment lands in
exactly one thread's private shard, so the merged totals are exact —
no locks taken on the emit path, no torn counts, and no leaked
resources (the module-wide ``no_leaked_blocks`` fixture plus
ResourceWarning-as-error watch that side).
"""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.core.brush import stroke_from_rect
from repro.display.presets import cyber_commons_wall, paper_viewport
from repro.store.service import DatasetService

N_THREADS = 8
QUERIES_PER_THREAD = 25


@pytest.fixture(autouse=True)
def _restore_registry():
    previous = obs.get_registry()
    yield
    obs.set_registry(previous)


@pytest.mark.filterwarnings("error::ResourceWarning")
def test_no_lost_increments_across_8_sessions(small_dataset):
    registry = obs.enable()
    service = DatasetService(small_dataset)
    viewport = paper_viewport(cyber_commons_wall())
    sessions = [service.session(viewport) for _ in range(N_THREADS)]
    barrier = threading.Barrier(N_THREADS)
    errors: list[BaseException] = []

    def work(session):
        try:
            # one painted stroke per session → real (aggregate) queries
            session.brush(
                stroke_from_rect((-1.0, -0.6), (-0.7, 0.6), radius=0.12, color="red")
            )
            barrier.wait()
            for _ in range(QUERIES_PER_THREAD):
                session.run_query("red")
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [
        threading.Thread(target=work, args=(s,), name=f"session-{s.session_id}")
        for s in sessions
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []

    snap = registry.snapshot()
    total = N_THREADS * QUERIES_PER_THREAD
    # exact conservation: nothing lost, nothing double-counted
    assert snap.counter_total("session.queries") == total
    for session in sessions:
        assert snap.counter("session.queries", session=session.session_id) == (
            QUERIES_PER_THREAD
        )
    assert snap.counter_total("query.count") == total
    assert snap.counter("service.sessions.opened") == N_THREADS
    # per-stage accounting covers every query exactly once
    hits = snap.counter_total("query.stage.cache_hits")
    misses = snap.counter_total("query.stage.cache_misses")
    stage_histogram_count = sum(
        h.count
        for (name, _), h in snap.histograms.items()
        if name == "query.stage.seconds"
    )
    assert hits + misses == stage_histogram_count
    q_hist = snap.histograms.get(("query.seconds", (("strategy", "aggregate"),)))
    assert q_hist is not None and q_hist.count == total


@pytest.mark.filterwarnings("error::ResourceWarning")
def test_concurrent_emit_while_snapshotting(small_dataset):
    """snapshot() runs concurrently with emitters without losing the
    final tally (writers never block on the merge lock)."""
    registry = obs.enable()
    service = DatasetService(small_dataset)
    viewport = paper_viewport(cyber_commons_wall())
    stop = threading.Event()
    snapshots: list[int] = []

    def reader():
        while not stop.is_set():
            snapshots.append(int(registry.snapshot().counter_total("session.queries")))

    sessions = [service.session(viewport) for _ in range(4)]

    def work(session):
        for _ in range(10):
            session.run_query("red")

    reader_thread = threading.Thread(target=reader)
    reader_thread.start()
    threads = [threading.Thread(target=work, args=(s,)) for s in sessions]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stop.set()
    reader_thread.join()

    assert registry.snapshot().counter_total("session.queries") == 40
    # interim snapshots are coherent prefixes: monotone, never above 40
    assert all(0 <= n <= 40 for n in snapshots)
    assert snapshots == sorted(snapshots)
