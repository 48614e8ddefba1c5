"""Process-parallel tile rendering.

Each (tile, eye) render job is independent, so the frame parallelizes
across a process pool.  State that every job needs — the renderer (with
its dataset), brush canvas, and query results — is shipped *once per
worker* through the pool initializer rather than once per job, which is
what makes the speedup survive Python's pickling costs (the dataset is
megabytes; a job description is kilobytes).

Three transports stack on top of that, each removing a copy:

* **pickle ship-back** — workers return each tile's pixels through the
  executor result queue (the baseline transport; kept as a fallback
  and as the parity suite's second witness);
* **store handle** (pass ``store=``) — the per-worker *input* payload
  drops from O(dataset bytes) to O(handle bytes): workers attach
  zero-copy views onto the one resident copy of the packed arrays via
  :class:`repro.store.StoreHandle`.  An unattachable handle degrades to
  the pickle-ship initializer with a ``shm-attach-failure`` event;
* **shared framebuffer** (default on the pooled path) — the *output*
  payload drops to zero: the parent creates one
  :class:`repro.store.SharedFrameBuffer` sized to the frame, workers
  write their tile slots in place, and nothing but per-job timing rides
  the result queue.  If the frame block cannot be created the render
  degrades to ship-back with a ``framebuf-create-failure`` event —
  never a failed frame.

Jobs are **batched per worker** (one submit per worker carrying its
tile list) instead of dispatched per tile: a batch amortizes dispatch
and lets the worker hoist the brush-footprint coverage cache across its
whole tile list — the dominant per-tile cost on brushed frames is
rasterizing the same (cell pixel grid, color) footprint over and over,
and a batch pays it once.  Batch size is informed by the
``render.frame.stage_seconds{stage}`` / ``render.tile.seconds``
telemetry: when per-tile history says a one-batch-per-worker deal would
outlive the supervisor's attempt timeout, batches are split further so
a healthy batch is never mistaken for a hang.

``max_workers<=1`` runs serially in-process with one footprint cache
for the whole frame, and is bit-identical to
:meth:`WallRenderer.render_viewport`.

The pooled path runs under a :class:`repro.resilience.SupervisedPool`:
a crashed, hung or misbehaving worker never costs the frame.  Failed
batches are retried on respawned workers and, as a last resort,
re-rendered serially in the parent — rendering is deterministic, so a
retried batch overwrites its framebuffer slots with identical bytes
(no torn tiles) and the frame always completes.  What failed and what
it took to recover is attached as
``ParallelRenderReport.degradation``.  Fault injection for tests and
benchmarks comes in through ``fault_plan`` or the ``REPRO_FAULTS``
environment hook; fault job indices address *batches* on this path.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import obs
from repro.core.canvas import BrushCanvas
from repro.core.engine import CoordinatedBrushingEngine
from repro.core.result import QueryResult
from repro.core.temporal import TimeWindow
from repro.display.viewport import Viewport
from repro.layout.cells import CellAssignment
from repro.parallel.pool import round_robin_batches
from repro.render.framebuffer import Framebuffer
from repro.render.pipeline import RenderJob, WallRenderer
from repro.render.raster import CellStyle, FootprintCache
from repro.resilience.faults import FaultPlan
from repro.resilience.health import DegradationReport
from repro.resilience.retry import DEFAULT_POLICY, RetryPolicy
from repro.resilience.supervisor import SupervisedPool
from repro.stereo.camera import Eye
from repro.stereo.projection import SpaceTimeProjection
from repro.store.arena import SharedArenaStore, StoreHandle, attach
from repro.store.framebuf import (
    FramebufferHandle,
    SharedFrameBuffer,
    attach_framebuffer,
    create_framebuffer,
)
from repro.store.shm import StoreAttachError
from repro.synth.arena import Arena

__all__ = ["render_viewport_parallel", "ParallelRenderReport", "TileBatch"]

# Per-worker state installed by the pool initializer.  Values are
# heterogeneous (renderer, canvas, results, pinned clients) — an
# explicit Any beats casting at every read site.
_WORKER_STATE: dict[str, Any] = {}

#: One shipped result per render job: (col, row, eye, pixels-or-None,
#: in-worker render seconds).  ``pixels`` is None when the job wrote
#: its shared framebuffer slot instead of shipping data back.
_JobResult = tuple[int, int, int, "np.ndarray | None", float]


@dataclass(frozen=True)
class TileBatch:
    """One worker's submit: the tile jobs it renders in sequence.

    Batching is what lets the worker share a brush-footprint coverage
    cache across its whole job list (see
    :meth:`~repro.render.pipeline.WallRenderer.render_job`), and what
    collapses per-tile dispatch overhead into one pickle round-trip
    per worker.
    """

    jobs: tuple[RenderJob, ...]


def _attach_framebuffer_state(fb_handle: FramebufferHandle | None) -> None:
    """Attach the shared output framebuffer (if any) for this worker's
    lifetime.  An attach failure raises, killing the worker — the
    supervised pool's retry/serial-fallback ladder still completes the
    frame (the parent created the block, so this is a race with
    teardown, not the expected path)."""
    if fb_handle is None:
        _WORKER_STATE["fb"] = None
    else:
        _WORKER_STATE["fb"] = attach_framebuffer(fb_handle)


def _init_worker(renderer: WallRenderer, canvas: BrushCanvas | None,
                 results: dict[str, QueryResult] | None,
                 fb_handle: FramebufferHandle | None = None) -> None:
    _WORKER_STATE["renderer"] = renderer
    _WORKER_STATE["canvas"] = canvas
    _WORKER_STATE["results"] = results
    _attach_framebuffer_state(fb_handle)


def _init_worker_shm(handle: StoreHandle, arena: Arena, viewport: Viewport,
                     projection: SpaceTimeProjection | None,
                     style: CellStyle | None,
                     canvas: BrushCanvas | None,
                     results: dict[str, QueryResult] | None,
                     fb_handle: FramebufferHandle | None = None) -> None:
    """Zero-copy pool initializer: attach the shared store and rebuild
    the renderer around view-backed trajectories.

    An attach failure raises, killing the worker — the supervised pool
    still completes the frame (the parent pre-validates the handle, so
    this is a race, not the expected path).
    """
    client = attach(handle)
    _WORKER_STATE["client"] = client  # pins the mapping for the worker's life
    _WORKER_STATE["renderer"] = WallRenderer(
        client.dataset, arena, viewport, projection, style
    )
    _WORKER_STATE["canvas"] = canvas
    _WORKER_STATE["results"] = results
    _attach_framebuffer_state(fb_handle)


def _render_batch(batch: TileBatch) -> list[_JobResult]:
    """Render one batch in a worker.

    With a shared framebuffer attached, each job's pixels go straight
    into its slot and only ``(col, row, eye, None, seconds)`` rides the
    result queue; otherwise the pixels ship back.  The per-job seconds
    let the parent split frame wall time into dispatch / render /
    transport (worker processes cannot emit into the parent's
    telemetry registry directly).

    The footprint cache is hoisted across the batch: coverage depends
    only on (cell pixel grid, color) within one frame, so the batch
    pays each footprint rasterization once instead of once per job.
    """
    renderer: WallRenderer = _WORKER_STATE["renderer"]
    fb_client = _WORKER_STATE.get("fb")
    footprint_cache: FootprintCache = {}
    out: list[_JobResult] = []
    for job in batch.jobs:
        t0 = time.perf_counter()
        fb = renderer.render_job(
            job,
            canvas=_WORKER_STATE["canvas"],
            results=_WORKER_STATE["results"],
            footprint_cache=footprint_cache,
        )
        payload: np.ndarray | None = fb.data
        if fb_client is not None:
            slot = fb_client.slot(
                job.tile.col, job.tile.row, int(job.eye), writable=True
            )
            slot[...] = fb.data
            del slot
            payload = None
        out.append(
            (job.tile.col, job.tile.row, int(job.eye), payload,
             time.perf_counter() - t0)
        )
    return out


def _plan_batches(
    jobs: list[RenderJob], max_workers: int, policy: RetryPolicy
) -> list[TileBatch]:
    """Deal jobs into per-worker batches, sized from tile telemetry.

    Default: one batch per worker (maximal footprint-cache reuse,
    minimal dispatch).  When ``render.tile.seconds`` history predicts a
    batch would outlive half the supervisor's attempt timeout, batches
    are split until the expected batch render fits — a healthy batch
    must never be indistinguishable from a hung worker.
    """
    if not jobs:
        return []
    n_batches = min(len(jobs), max_workers)
    timeout = policy.attempt_timeout_s
    if timeout:
        hist = obs.telemetry_snapshot().histogram("render.tile.seconds")
        if hist is not None and hist.count:
            per_tile = hist.sum / hist.count
            budget = 0.5 * float(timeout)
            largest = math.ceil(len(jobs) / n_batches)
            if per_tile > 0 and per_tile * largest > budget:
                per_batch = max(1, int(budget / per_tile))
                n_batches = min(len(jobs), math.ceil(len(jobs) / per_batch))
    return [TileBatch(jobs=b) for b in round_robin_batches(jobs, n_batches)]


@dataclass(frozen=True)
class ParallelRenderReport:
    """Frames plus timing and health of a parallel render pass.

    ``stage_seconds`` splits ``elapsed_s`` for the pooled path:
    ``dispatch`` (pool bring-up, initializer shipping, and shared-frame
    creation), ``render`` (summed in-worker render time across all
    jobs), ``shipback`` (result transport and queueing — everything in
    the map wall not accounted to rendering; near zero on the
    shared-framebuffer transport, where only timing tuples ride the
    queue) and ``assemble`` (parent-side frame assembly: one slot copy
    per tile, or adopting shipped arrays).  The serial path reports
    only ``render``.
    """

    frames: dict[Eye, dict[tuple[int, int], Framebuffer]]
    elapsed_s: float
    n_jobs: int
    workers: int
    degradation: DegradationReport = field(default_factory=DegradationReport)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    n_batches: int = 0
    shared_fb: bool = False

    @property
    def degraded(self) -> bool:
        """True when any job needed a retry or fallback."""
        return self.degradation.degraded


def render_viewport_parallel(
    renderer: WallRenderer,
    assignment: CellAssignment,
    *,
    eyes: tuple[Eye, ...] = (Eye.LEFT, Eye.RIGHT),
    canvas: BrushCanvas | None = None,
    results: dict[str, QueryResult] | None = None,
    engine: CoordinatedBrushingEngine | None = None,
    window: TimeWindow | None = None,
    max_workers: int = 0,
    fault_plan: FaultPlan | None = None,
    retry_policy: RetryPolicy | None = None,
    store: "SharedArenaStore | StoreHandle | None" = None,
    shared_fb: bool | None = None,
) -> ParallelRenderReport:
    """Render all viewport tiles, optionally over a supervised pool.

    Returns the same ``{eye: {(col, row): Framebuffer}}`` structure as
    the serial path, wrapped with timing for benchmark E11 and a
    :class:`DegradationReport` accounting for any worker failures the
    render absorbed.

    Parameters
    ----------
    engine:
        Optional query engine.  When given (and ``results`` is not),
        the highlight masks for every canvas color are evaluated
        *once* in the parent — through the engine's stage cache, so an
        unchanged brush/window costs only cache lookups — and the
        finished :class:`QueryResult` objects are shipped to the
        workers, instead of every tile job re-deriving highlights.
    window:
        Temporal filter for the ``engine`` evaluation.
    fault_plan:
        Deterministic fault injection for the pool workers (tests,
        benchmark R1).  Defaults to the ``REPRO_FAULTS`` environment
        hook; pass an empty plan to override the environment.  Fault
        job indices address batches (one per worker submit).
    retry_policy:
        Per-batch retry/backoff/timeout policy for the supervisor.
    store:
        A published :class:`~repro.store.SharedArenaStore` (or its
        :class:`~repro.store.StoreHandle`) for the renderer's dataset.
        Pool workers then attach zero-copy views instead of receiving
        a pickled dataset; an unattachable handle degrades to the
        pickle-ship initializer with a ``shm-attach-failure`` event on
        the report.
    shared_fb:
        Output transport for the pooled path.  ``None`` (default) and
        ``True`` render into a shared framebuffer (workers write tile
        slots in place; nothing ships back); ``False`` forces the
        classic pickle ship-back (the parity suite's second witness).
        A frame-block creation failure degrades to ship-back with a
        ``framebuf-create-failure`` event.  Ignored on the serial path.
    """
    if results is None and engine is not None and canvas is not None:
        if not canvas.is_empty():
            results = engine.query_all_colors(
                canvas, window=window, assignment=assignment
            )
    jobs = renderer.make_jobs(assignment, eyes)
    if fault_plan is None:
        fault_plan = FaultPlan.from_env()
    degradation = DegradationReport()
    t0 = time.perf_counter()
    frames: dict[Eye, dict[tuple[int, int], Framebuffer]] = {eye: {} for eye in eyes}
    stage_seconds: dict[str, float] = {}
    n_batches = 0
    use_shared_fb = False
    if max_workers <= 1:
        # one footprint cache for the whole frame, as each pooled batch
        # has: serial and pooled differ only in parallelism
        frame_cache: FootprintCache = {}
        for job in jobs:
            t_tile = time.perf_counter()
            fb = renderer.render_job(
                job, canvas=canvas, results=results, footprint_cache=frame_cache
            )
            obs.observe("render.tile.seconds", time.perf_counter() - t_tile)
            frames[job.eye][(job.tile.col, job.tile.row)] = fb
        workers = 1
        stage_seconds["render"] = time.perf_counter() - t0
    else:
        policy = retry_policy or DEFAULT_POLICY
        batches = _plan_batches(jobs, max_workers, policy)
        n_batches = len(batches)

        frame_store: SharedFrameBuffer | None = None
        if shared_fb is None or shared_fb:
            try:
                frame_store = create_framebuffer(
                    (job.tile.col, job.tile.row, int(job.eye),
                     job.tile.px_height, job.tile.px_width)
                    for job in jobs
                )
            except (StoreAttachError, ValueError) as exc:
                degradation.record(
                    "framebuf-create-failure", scope="pool",
                    action="shipback-fallback", detail=repr(exc),
                )
                obs.counter_add("render.transport.fallbacks", 1)
        use_shared_fb = frame_store is not None
        fb_handle = None if frame_store is None else frame_store.handle

        def _render_batch_local(batch: TileBatch) -> list[_JobResult]:
            """Bottom-rung serial fallback, run in the parent.  Ships
            pixels through the return value even under a shared
            framebuffer — the parent must not write slots while other
            batches may still be in flight."""
            cache: FootprintCache = {}
            out: list[_JobResult] = []
            for job in batch.jobs:
                t_job = time.perf_counter()
                fb = renderer.render_job(
                    job, canvas=canvas, results=results, footprint_cache=cache
                )
                out.append(
                    (job.tile.col, job.tile.row, int(job.eye), fb.data,
                     time.perf_counter() - t_job)
                )
            return out

        # default transport: pickle the whole renderer into each worker
        initializer: Any = _init_worker
        initargs: tuple[Any, ...] = (renderer, canvas, results, fb_handle)
        if store is not None:
            handle = store.handle if isinstance(store, SharedArenaStore) else store
            try:
                attach(handle).close()  # parent-side probe: fail fast+cheap
            except StoreAttachError as exc:
                degradation.record(
                    "shm-attach-failure", scope="pool", action="pickle-fallback",
                    detail=repr(exc),
                )
                obs.counter_add("render.transport.fallbacks", 1)
            else:
                initializer = _init_worker_shm
                initargs = (
                    handle, renderer.arena, renderer.viewport,
                    renderer.projection, renderer.style, canvas, results,
                    fb_handle,
                )

        try:
            with SupervisedPool(
                max_workers,
                policy=retry_policy,
                fault_plan=fault_plan,
                initializer=initializer,
                initargs=initargs,
                report=degradation,
            ) as pool:
                dispatch_s = time.perf_counter() - t0
                t_map = time.perf_counter()
                outputs = pool.map(
                    _render_batch, batches, serial_fn=_render_batch_local
                )
                map_s = time.perf_counter() - t_map
            # assembly runs strictly after the map: every slot has been
            # fully (re)written by exactly one surviving attempt, so a
            # plain copy-out per tile cannot observe a torn write
            t_assemble = time.perf_counter()
            render_s = 0.0
            for batch_out in outputs:
                for col, row, eye_val, data, job_s in batch_out:
                    render_s += job_s
                    obs.observe("render.tile.seconds", job_s)
                    if data is None:
                        assert frame_store is not None
                        data = frame_store.slot(col, row, eye_val).copy()
                    frames[Eye(eye_val)][(col, row)] = Framebuffer.from_array(data)
            assemble_s = time.perf_counter() - t_assemble
        finally:
            if frame_store is not None:
                frame_store.unlink()
                frame_store.close()
        workers = max_workers
        # everything in the map wall not spent rendering (even spread
        # perfectly across workers) is transport: batch pickling and
        # result queues — near zero when only timing tuples ship back
        shipback_s = max(map_s - render_s / max_workers, 0.0)
        stage_seconds = {
            "dispatch": dispatch_s,
            "render": render_s,
            "shipback": shipback_s,
            "assemble": assemble_s,
        }
        obs.counter_add("render.batches", n_batches, workers=workers)
        if use_shared_fb:
            obs.counter_add("render.sharedfb.frames", 1)
    elapsed = time.perf_counter() - t0
    for stage, seconds in stage_seconds.items():
        obs.observe("render.frame.stage_seconds", seconds, stage=stage)
    obs.observe("render.frame.seconds", elapsed, workers=workers)
    obs.counter_add("render.jobs", len(jobs), workers=workers)
    return ParallelRenderReport(
        frames=frames,
        elapsed_s=elapsed,
        n_jobs=len(jobs),
        workers=workers,
        degradation=degradation,
        stage_seconds={k: round(v, 6) for k, v in stage_seconds.items()},
        n_batches=n_batches,
        shared_fb=use_shared_fb,
    )
