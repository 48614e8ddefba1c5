"""Process-parallel tile rendering through a persistent render service.

Each (tile, eye) render job is independent, so the frame parallelizes
across a process pool.  The pool, like encube's render cluster, lives
for the session rather than the frame: a :class:`RenderService` holds

* one :class:`repro.resilience.SupervisedPool` whose workers hold the
  dataset for their whole life — attached zero-copy from the published
  store (:class:`repro.store.StoreHandle`), or pickled once per worker
  when there is no store;
* one shared **frame block** (:class:`repro.store.SharedFrameBuffer`):
  each job clears and renders straight into its tile slot, nothing but
  per-job timing rides the result queue, and the frames the caller gets
  are read-only views of the slots — nothing is copied out;
* one shared **base block** with a slot per (tile, eye): the job's base
  layers (cell backgrounds, arena rims, labels, time-graded
  trajectories), keyed by a digest of the inputs they are drawn from
  (:func:`base_key`).

There is one service per published store and worker count, found from
the ``store=`` argument; it closes when the store is unlinked (evicted,
retired by a rollover, released by ``DatasetService.close``) and at
interpreter exit.  Frames through one service are serialized by its
lock.  A pooled call without a store gets a service for that call only.

A brush, window or erase frame leaves every base key unchanged, so its
jobs copy base slot -> frame slot and draw only the brush layers
(footprints, highlights) — :meth:`WallRenderer.render_brush`, with the
same kernels.  That is byte-equal to the per-cell order of
:meth:`WallRenderer.render_job` unless a cell's brush pixels land where
a later cell draws base layers; the boxes recorded when the base was
built decide that per job, and a job that fails the check renders in
full (``render.base.{builds,reuses,fallbacks}`` count the three
outcomes).  The parent records a slot's key only after the batch that
built it returned from its first attempt, so a crashed, retried or
serially-fallen-back build leaves the slot invalid and a torn base is
never reused.  Any worker can restore any slot.

A frame block is reused only when no array handed out from it is alive
(:attr:`SharedFrameBuffer.in_use`); otherwise the frame gets a fresh
block and dead ones are unlinked, so a frame the caller holds keeps its
bytes.  If a frame block cannot be created the frame degrades to
pickle ship-back with a ``framebuf-create-failure`` event — never a
failed frame; an unattachable store degrades to the pickled dataset
with a ``shm-attach-failure`` event.

Jobs are **batched per worker** (one submit per worker carrying its
tile list): a batch amortizes dispatch and lets the worker hoist the
footprint cache (brush footprints and arena rims, see
:data:`~repro.render.raster.FootprintCache`) across its tile list.
Canvas, query results and the renderer's arena, projection and style
travel with each batch.  When ``render.tile.seconds`` history says a
one-batch-per-worker deal would outlive the supervisor's attempt
timeout, batches are split further so a healthy batch is never
mistaken for a hang.

``max_workers<=1`` runs serially in-process with one footprint cache
for the whole frame, and is bit-identical to
:meth:`WallRenderer.render_viewport`: it is the pooled path's parity
oracle.

Failed batches are retried on respawned workers and, as a last resort,
re-rendered serially in the parent — rendering is deterministic, so a
retried batch overwrites its frame slots with identical bytes and the
frame always completes.  What failed and what it took to recover is
attached as ``ParallelRenderReport.degradation``.  Fault injection for
tests and benchmarks comes in through ``fault_plan`` or the
``REPRO_FAULTS`` environment hook; fault job indices address *batches*.
"""

from __future__ import annotations

import atexit
import hashlib
import math
import threading
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
from repro.store.arena import SharedArenaStore, StoreHandle, attach, on_unlink
from repro.store.framebuf import (
    FramebufferHandle,
    SharedFrameBuffer,
    attach_framebuffer,
    create_framebuffer,
)
from repro.store.shm import StoreAttachError
from repro.synth.arena import Arena
from repro.trajectory.dataset import TrajectoryDataset

__all__ = ["render_viewport_parallel", "ParallelRenderReport", "TileBatch", "base_key"]

# Per-worker state: the dataset (and the store client pinning its
# mapping) from the initializer, and the frame/base blocks attached so
# far.  Values are heterogeneous — an explicit Any beats casting at
# every read site.
_WORKER_STATE: dict[str, Any] = {}

#: One (col, row, eye) tile slot.
_Slot = tuple[int, int, int]

#: One shipped result per render job: (col, row, eye, pixels-or-None,
#: in-worker render seconds, outcome, base boxes built or None).
#: ``pixels`` is None when the job wrote its frame slot.  The outcome
#: is ``"full"`` (no base block), ``"build"`` / ``"reuse"`` (brush
#: layers over a base built or restored), ``"fallback"`` (the overlap
#: check failed, rendered in full) or ``"serial"`` (the in-parent rung).
_JobResult = tuple[int, int, int, "np.ndarray | None", float, str, "np.ndarray | None"]


@dataclass(frozen=True)
class TileBatch:
    """One worker's submit: the tile jobs it renders in sequence, with
    everything they are drawn from.

    ``plans`` has one entry per job: None renders it in full; otherwise
    the job draws over its base slot, building it when the entry is
    ``"build"`` or restoring it when the entry is the slot's recorded
    :data:`~repro.render.pipeline.BaseBoxes`.  ``frame`` / ``base``
    address the shared blocks (``frame`` None ships pixels back).
    """

    jobs: tuple[RenderJob, ...]
    plans: tuple["np.ndarray | str | None", ...]
    arena: Arena
    viewport: Viewport
    projection: SpaceTimeProjection
    style: CellStyle
    canvas: BrushCanvas | None
    results: dict[str, QueryResult] | None
    frame: FramebufferHandle | None = None
    base: FramebufferHandle | None = None


def _init_worker(source: "StoreHandle | TrajectoryDataset") -> None:
    """Pool initializer: hold the dataset for the worker's life.

    A store handle is attached zero-copy; an attach failure raises,
    killing the worker — the supervised pool still completes the frame
    (the parent probes the handle first, so this is a race, not the
    expected path).
    """
    if isinstance(source, StoreHandle):
        client = attach(source)
        _WORKER_STATE["client"] = client  # pins the mapping for the worker's life
        _WORKER_STATE["dataset"] = client.dataset
    else:
        _WORKER_STATE["dataset"] = source
    _WORKER_STATE["blocks"] = {}


def _attach_blocks(batch: TileBatch) -> dict[str, Any]:
    """This worker's mappings of the batch's frame and base blocks,
    attached once per block; mappings of blocks the parent no longer
    ships are released.  An attach failure raises, failing the batch
    attempt (the parent created the block, so this is a race with its
    retirement)."""
    blocks: dict[str, Any] = _WORKER_STATE["blocks"]
    wanted = {h.uid: h for h in (batch.frame, batch.base) if h is not None}
    for uid in [uid for uid in blocks if uid not in wanted]:
        blocks.pop(uid).close()
    for uid, handle in wanted.items():
        if uid not in blocks:
            blocks[uid] = attach_framebuffer(handle)
    return blocks


def _render_into(
    renderer: WallRenderer,
    job: RenderJob,
    plan: "np.ndarray | str | None",
    slot: np.ndarray,
    base_client: Any,
    batch: TileBatch,
    cache: FootprintCache,
) -> tuple[str, "np.ndarray | None"]:
    """Render one job into its frame slot; returns (outcome, base
    boxes built or None).  ``plan`` is None exactly when the frame has
    no base block."""
    draw: dict[str, Any] = dict(
        canvas=batch.canvas, results=batch.results, footprint_cache=cache
    )
    if plan is None:
        renderer.render_job(job, into=slot, **draw)
        return "full", None
    base_slot = base_client.slot(job.tile.col, job.tile.row, int(job.eye), writable=True)
    built = None
    if isinstance(plan, str):
        boxes = built = renderer.render_base(job, into=base_slot, footprint_cache=cache)
    else:
        boxes = plan
    np.copyto(slot, base_slot)
    del base_slot
    if renderer.render_brush(job, into=slot, base_boxes=boxes, **draw):
        return ("reuse" if built is None else "build"), built
    renderer.render_job(job, into=slot, **draw)
    return "fallback", built


def _render_batch(batch: TileBatch) -> list[_JobResult]:
    """Render one batch in a worker.

    With a frame block, each job renders straight into its writable
    slot and only timing and outcome ride the result queue; otherwise
    the pixels ship back.  The per-job seconds let the parent split
    frame wall time into dispatch / render / transport (worker
    processes cannot emit into the parent's telemetry registry).

    The footprint cache is hoisted across the batch: footprints and
    arena rims depend only on their exact pixel grids within one frame,
    so the batch pays each one once instead of once per job.
    """
    renderer = WallRenderer(
        _WORKER_STATE["dataset"], batch.arena, batch.viewport, batch.projection,
        batch.style,
    )
    blocks = _attach_blocks(batch)
    frame = None if batch.frame is None else blocks[batch.frame.uid]
    base = None if batch.base is None else blocks[batch.base.uid]
    footprint_cache: FootprintCache = {}
    out: list[_JobResult] = []
    for job, plan in zip(batch.jobs, batch.plans):
        t0 = time.perf_counter()
        col, row, eye = job.tile.col, job.tile.row, int(job.eye)
        if frame is None:
            fb = renderer.render_job(
                job, canvas=batch.canvas, results=batch.results,
                footprint_cache=footprint_cache,
            )
            payload, outcome, built = fb.data, "full", None
        else:
            slot = frame.slot(col, row, eye, writable=True)
            outcome, built = _render_into(
                renderer, job, plan, slot, base, batch, footprint_cache
            )
            payload = None
            del slot  # drop the slot view so the mapping can close
        out.append((col, row, eye, payload, time.perf_counter() - t0, outcome, built))
    return out


def _plan_batches(n_jobs: int, max_workers: int, policy: RetryPolicy) -> list[tuple[int, ...]]:
    """Deal job indices into per-worker batches, sized from tile
    telemetry.

    Default: one batch per worker (maximal footprint-cache reuse,
    minimal dispatch).  When ``render.tile.seconds`` history predicts a
    batch would outlive half the supervisor's attempt timeout, batches
    are split until the expected batch render fits — a healthy batch
    must never be indistinguishable from a hung worker.
    """
    if not n_jobs:
        return []
    n_batches = min(n_jobs, max_workers)
    timeout = policy.attempt_timeout_s
    if timeout:
        hist = obs.telemetry_snapshot().histogram("render.tile.seconds")
        if hist is not None and hist.count:
            per_tile = hist.sum / hist.count
            budget = 0.5 * float(timeout)
            largest = math.ceil(n_jobs / n_batches)
            if per_tile > 0 and per_tile * largest > budget:
                per_batch = max(1, int(budget / per_tile))
                n_batches = min(n_jobs, math.ceil(n_jobs / per_batch))
    return round_robin_batches(range(n_jobs), n_batches)


def base_key(renderer: WallRenderer, job: RenderJob) -> bytes:
    """Digest of everything a job's base layers are drawn from: its
    tile, eye, cell rects, trajectory ids, colors and labels, and the
    renderer's arena, projection and style, compared by value.  The
    dataset is not in it: a render service serves one store."""
    h = hashlib.blake2b(digest_size=20)
    h.update(repr((
        job.tile, int(job.eye), job.cell_labels,
        renderer.arena, renderer.projection, renderer.style,
    )).encode())
    for arr in (job.cell_rects, job.cell_traj, job.cell_colors):
        arr = np.ascontiguousarray(arr)
        h.update(repr((arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.digest()


@dataclass(frozen=True)
class ParallelRenderReport:
    """Frames plus timing and health of a parallel render pass.

    On the pooled path ``frames`` are read-only views of the render
    service's frame block (a frame held by the caller keeps its bytes;
    the block is rewritten only once no such view is alive).

    ``stage_seconds`` splits ``elapsed_s`` for the pooled path, so
    that ``dispatch + render / workers + shipback + teardown +
    assemble`` accounts for it:

    * ``dispatch`` — everything before the map: finding the service
      and the store attach probe, waiting for its lock, acquiring the
      frame and base blocks, base keys and batch planning.
    * ``render`` — in-worker render seconds summed over all jobs.
    * ``shipback`` — the map's wall time not spent rendering (the
      render sum spread evenly over the workers): batch pickling,
      result transport and queueing, load imbalance, and worker spawn
      and initializer on a service's first frame.
    * ``teardown`` — unlinking dead frame blocks, and for a call
      without a store, shutting its service down.
    * ``assemble`` — handing out the slot views (or adopting shipped
      arrays); no pixel is copied.

    The serial path reports only ``render``.
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


class RenderService:
    """A persistent render pool with its shared frame and base blocks.

    Built by :func:`render_viewport_parallel` — one per (store, worker
    count), or one for a single call without a store — and closed with
    its store.  ``source`` is what the workers render from: a store
    handle they attach, or a dataset pickled to each worker.
    """

    def __init__(self, source: "StoreHandle | TrajectoryDataset", workers: int) -> None:
        self.workers = int(workers)
        self.lock = threading.Lock()
        self.closed = False
        self._pool = SupervisedPool(
            self.workers, initializer=_init_worker, initargs=(source,)
        )
        self._frames: list[tuple[tuple, SharedFrameBuffer]] = []
        self._base: SharedFrameBuffer | None = None
        self._base_layout: tuple = ()
        self._base_keys: dict[_Slot, tuple[bytes, np.ndarray]] = {}

    def worker_pids(self) -> tuple[int, ...]:
        """PIDs of the live workers."""
        return self._pool.worker_pids()

    def _frame_block(self, layout: tuple, degradation: DegradationReport) -> SharedFrameBuffer | None:
        """A frame block of this layout with no live view, or a fresh
        one; None (ship-back) when none can be created."""
        for held_layout, block in self._frames:
            if held_layout == layout and not block.in_use:
                return block
        try:
            block = create_framebuffer(layout)
        except (StoreAttachError, ValueError) as exc:
            degradation.record(
                "framebuf-create-failure", scope="pool",
                action="shipback-fallback", detail=repr(exc),
            )
            obs.counter_add("render.transport.fallbacks", 1)
            return None
        self._frames.append((layout, block))
        return block

    def _base_block(self, layout: tuple, degradation: DegradationReport) -> SharedFrameBuffer | None:
        """The base block of this layout; a new layout starts a new
        one with every slot invalid.  None renders every job in full."""
        if self._base is not None and self._base_layout == layout:
            return self._base
        if self._base is not None:
            self._base.retire()
            self._base = None
        self._base_keys.clear()
        try:
            self._base = create_framebuffer(layout)
        except (StoreAttachError, ValueError) as exc:
            degradation.record(
                "framebuf-create-failure", scope="pool",
                action="full-render", detail=repr(exc),
            )
            return None
        self._base_layout = layout
        return self._base

    def render(
        self,
        renderer: WallRenderer,
        jobs: list[RenderJob],
        *,
        canvas: BrushCanvas | None,
        results: dict[str, QueryResult] | None,
        fault_plan: FaultPlan,
        retry_policy: RetryPolicy | None,
        degradation: DegradationReport,
        t0: float,
    ) -> "tuple[dict[Eye, dict[tuple[int, int], Framebuffer]], dict[str, float], int, bool] | None":
        """Render one frame; returns (frames, stage seconds, batches,
        shared frame block used), or None when the service is closed."""
        with self.lock:
            if self.closed:
                return None
            return self._render_locked(
                renderer, jobs, canvas, results, fault_plan, retry_policy,
                degradation, t0,
            )

    def _render_locked(
        self,
        renderer: WallRenderer,
        jobs: list[RenderJob],
        canvas: BrushCanvas | None,
        results: dict[str, QueryResult] | None,
        fault_plan: FaultPlan,
        retry_policy: RetryPolicy | None,
        degradation: DegradationReport,
        t0: float,
    ) -> tuple[dict[Eye, dict[tuple[int, int], Framebuffer]], dict[str, float], int, bool]:
        policy = retry_policy or DEFAULT_POLICY
        layout = tuple(
            (job.tile.col, job.tile.row, int(job.eye), job.tile.px_height, job.tile.px_width)
            for job in jobs
        )
        frame = self._frame_block(layout, degradation)
        base = None if frame is None else self._base_block(layout, degradation)
        slots = [(job.tile.col, job.tile.row, int(job.eye)) for job in jobs]
        keys: dict[_Slot, bytes] = {}
        plans: list[np.ndarray | str | None] = [None] * len(jobs)
        if base is not None:
            for i, (job, slot) in enumerate(zip(jobs, slots)):
                key = keys[slot] = base_key(renderer, job)
                held = self._base_keys.get(slot)
                if held is not None and held[0] == key:
                    plans[i] = held[1]
                else:
                    # invalid until a clean build of this frame returns
                    self._base_keys.pop(slot, None)
                    plans[i] = "build"
        scene = dict(
            arena=renderer.arena, viewport=renderer.viewport,
            projection=renderer.projection, style=renderer.style,
            canvas=canvas, results=results,
            frame=None if frame is None else frame.handle,
            base=None if base is None else base.handle,
        )
        batches = [
            TileBatch(
                jobs=tuple(jobs[i] for i in idx), plans=tuple(plans[i] for i in idx),
                **scene,
            )
            for idx in _plan_batches(len(jobs), self.workers, policy)
        ]

        def _render_batch_local(batch: TileBatch) -> list[_JobResult]:
            """Bottom-rung serial fallback, run in the parent.  Ships
            pixels through the return value: the parent must not write
            slots while other batches may still be in flight."""
            cache: FootprintCache = {}
            out: list[_JobResult] = []
            for job in batch.jobs:
                t_job = time.perf_counter()
                fb = renderer.render_job(
                    job, canvas=canvas, results=results, footprint_cache=cache
                )
                out.append(
                    (job.tile.col, job.tile.row, int(job.eye), fb.data,
                     time.perf_counter() - t_job, "serial", None)
                )
            return out

        pool = self._pool
        pool.policy, pool.fault_plan, pool.report = policy, fault_plan, degradation
        dispatch_s = time.perf_counter() - t0
        t_map = time.perf_counter()
        outputs = pool.map(_render_batch, batches, serial_fn=_render_batch_local)
        map_s = time.perf_counter() - t_map

        # every slot has been fully (re)written by exactly one surviving
        # attempt: the views handed out below cannot observe a torn write
        t_assemble = time.perf_counter()
        failed = {e.job for e in degradation.events if e.job is not None}
        frames: dict[Eye, dict[tuple[int, int], Framebuffer]] = {}
        render_s = 0.0
        counts = dict.fromkeys(("builds", "reuses", "fallbacks"), 0)
        for b, batch_out in enumerate(outputs):
            for col, row, eye_val, data, job_s, outcome, built in batch_out:
                render_s += job_s
                obs.observe("render.tile.seconds", job_s)
                if data is None:
                    assert frame is not None
                    data = frame.view(col, row, eye_val)
                frames.setdefault(Eye(eye_val), {})[(col, row)] = Framebuffer.from_array(data)
                counts["reuses"] += outcome == "reuse"
                counts["fallbacks"] += outcome == "fallback"
                if built is not None:
                    counts["builds"] += 1
                    if b not in failed:
                        slot = (col, row, eye_val)
                        self._base_keys[slot] = (keys[slot], built)
        assemble_s = time.perf_counter() - t_assemble

        t_teardown = time.perf_counter()
        for entry in list(self._frames):
            if entry[1] is not frame and not entry[1].in_use:
                entry[1].retire()
                self._frames.remove(entry)
        teardown_s = time.perf_counter() - t_teardown
        stage_seconds = {
            "dispatch": dispatch_s,
            "render": render_s,
            # everything in the map wall not spent rendering (even spread
            # perfectly across workers): batch pickling, result queues,
            # load imbalance and, on a first frame, worker spawn
            "shipback": max(map_s - render_s / self.workers, 0.0),
            "teardown": teardown_s,
            "assemble": assemble_s,
        }
        for name, n in counts.items():
            if n:
                obs.counter_add(f"render.base.{name}", n)
        return frames, stage_seconds, len(batches), frame is not None

    def close(self) -> None:
        """Shut the workers down and retire both blocks (idempotent;
        waits for a frame in flight).  Blocks whose views a caller
        still holds are unmapped when the last view dies."""
        with self.lock:
            if self.closed:
                return
            self.closed = True
            self._pool.close()
            for _, block in self._frames:
                block.retire()
            self._frames.clear()
            if self._base is not None:
                self._base.retire()
                self._base = None
            self._base_keys.clear()


# One render service per (store uid, worker count).
_SERVICES: dict[tuple[str, int], RenderService] = {}
_SERVICES_LOCK = threading.Lock()


def _store_service(
    handle: StoreHandle, workers: int, degradation: DegradationReport
) -> RenderService | None:
    """The render service of a store, started on first use; None (with
    a ``shm-attach-failure`` event) when the handle cannot attach."""
    key = (handle.uid, workers)
    with _SERVICES_LOCK:
        service = _SERVICES.get(key)
        if service is not None and not service.closed:
            return service
        try:
            attach(handle).close()  # parent-side probe: fail fast+cheap
        except StoreAttachError as exc:
            degradation.record(
                "shm-attach-failure", scope="pool", action="pickle-fallback",
                detail=repr(exc),
            )
            obs.counter_add("render.transport.fallbacks", 1)
            return None
        service = _SERVICES[key] = RenderService(handle, workers)
        return service


def _close_services(uid: str | None = None) -> None:
    """Close the render services of store ``uid`` (all with None)."""
    with _SERVICES_LOCK:
        doomed = [k for k in _SERVICES if uid is None or k[0] == uid]
        services = [_SERVICES.pop(k) for k in doomed]
    for service in services:
        service.close()


on_unlink(_close_services)
atexit.register(_close_services)


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
        The pooled path then renders through that store's persistent
        :class:`RenderService`, whose workers attach zero-copy views
        instead of receiving a pickled dataset; an unattachable handle
        degrades to a one-call service over the pickled dataset with a
        ``shm-attach-failure`` event on the report.
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
        workers = max_workers
        frame_args: dict[str, Any] = dict(
            canvas=canvas, results=results, fault_plan=fault_plan,
            retry_policy=retry_policy, degradation=degradation, t0=t0,
        )
        rendered = None
        if store is not None:
            handle = store.handle if isinstance(store, SharedArenaStore) else store
            service = _store_service(handle, max_workers, degradation)
            if service is not None:
                rendered = service.render(renderer, jobs, **frame_args)
                if rendered is None:  # its store was unlinked meanwhile
                    degradation.record(
                        "shm-attach-failure", scope="pool",
                        action="pickle-fallback", detail="store unlinked",
                    )
        if rendered is None:
            # this call's own service, shut down with the call
            service = RenderService(renderer.dataset, max_workers)
            try:
                rendered = service.render(renderer, jobs, **frame_args)
            finally:
                t_close = time.perf_counter()
                service.close()
                close_s = time.perf_counter() - t_close
            assert rendered is not None
            rendered[1]["teardown"] += close_s
        rendered_frames, stage_seconds, n_batches, use_shared_fb = rendered
        for eye, tiles in rendered_frames.items():
            frames[eye].update(tiles)
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
