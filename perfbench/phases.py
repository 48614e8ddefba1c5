"""The phases a workload is built from, each driving public entry points.

:class:`Bench` holds one run: the seeded inputs, the service, the analyst's
session and the :class:`Ledger` the phases fill.  Every call into a layer
is timed from the benchmark side and, when tracing, wrapped in a span of
that layer.  The phases are

* :meth:`Bench.setup` / :meth:`Bench.probe_setup` — generated dataset to
  first answerable query (a probe set-up is then rolled over);
* :meth:`Bench.replay` — the pilot-study script, a stereo frame at a
  fixed set of its visible state changes;
* :class:`Scrubber` — a seeded temporal-slider walk through
  :class:`~repro.interaction.IncrementalRequery`, no frames;
* :meth:`Bench.ask` — a closed loop of fresh brush queries;
* :meth:`Bench.frame_probe` — one released-slider frame.

:data:`WORKLOADS` composes them: the measured time of the main phase is
cut into rounds, and the other phases run as short probes between them.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.core.brush import BrushStroke, stroke_from_rect
from repro.core.engine import CoordinatedBrushingEngine
from repro.core.session import ExplorationSession
from repro.core.temporal import TimeWindow
from repro.display.presets import CYBER_COMMONS, paper_viewport
from repro.interaction.sliders import IncrementalRequery, RangeSlider
from repro.parallel import render_viewport_parallel
from repro.render.color import HIGHLIGHT_COLORS
from repro.render.pipeline import WallRenderer
from repro.sensemaking import AnalystSimulator
from repro.sensemaking.analyst import default_study_script
from repro.store import DatasetService, IngestBuffer, RolloverCoordinator
from repro.synth import AntStudyConfig, Arena, generate_study_dataset
from repro.trajectory.dataset import TrajectoryDataset

from spans import ACTION, Tracer

#: Worker processes for frames.
NPROC = len(os.sched_getaffinity(0))
#: Trajectories in the served dataset (the paper's study size).
N_TRAJECTORIES = 500
#: Per-query wall budget; a query past it comes back degraded (a failure).
DEADLINE_S = 2.0
#: Set-ups before the workload starts; one more runs between rounds, and
#: ``setup_s`` is the median of all of them.
SETUP_REPEATS = 3
#: The main phase is cut into rounds; between rounds run short probes
#: for the metrics the main phase does not produce, so every metric is
#: sampled across the whole run rather than in one burst.
ROUNDS = 5
#: Probe sizes per run; 200 samples leave ten beyond the reported p95.
PROBE_QUERIES = 200
PROBE_TICKS = 200
PROBE_ROLLOVERS = 2
#: Trajectories per ingest batch; one batch per probe rollover.
INGEST_BATCH = 10
INGEST_BATCHES = ROUNDS * PROBE_ROLLOVERS
#: Frames study-replay renders per second of ``--seconds``.  The count
#: follows the argument, never the program's speed, so every run
#: measures the same script steps.
FRAMES_PER_S = 1.0
#: Slider walk: the share of ticks that go back to one of the last
#: ``REVISIT_DEPTH`` windows, the random-walk step of the window's lower
#: edge and its width.  Chosen, not measured from analysts: fresh and
#: revisit ticks are sampled apart, so this mix sets neither tick metric.
REVISIT_P = 0.4
REVISIT_DEPTH = 64
WALK_STEP = 0.03
WINDOW_WIDTH = (0.15, 0.25)
#: Linear-route parity checks on served queries per run.
MASK_CHECKS = 2
SCRUB_COLORS = ("red", "green", "blue")
FRAME_WINDOW = TimeWindow.end(0.15)
#: Query stages that run in a layer other than the planner/executor.
STAGE_LAYER = {
    "agg_temporal": "core.aggregate",
    "agg_spatial": "core.aggregate",
    "agg_brush": "core.aggregate",
    "classify": "core.aggregate",
    "drilldown": "core.aggregate",
    "spatial_candidates": "core.spatial_index",
}


@dataclass
class Ledger:
    """Raw samples of one run.  Sample keys are ``<phase>.<kind>``."""

    tracer: Tracer
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    traces: dict[str, list] = field(default_factory=lambda: defaultdict(list))
    frames: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    stale: int = 0
    failures: list[str] = field(default_factory=list)

    def outcome(self, ok: bool, what: str, *, attempt: bool = True,
                stale: bool = False) -> None:
        """Count one operation (or, with ``attempt=False``, one check on
        an operation already counted), whether it went wrong, and
        whether it was served from an epoch rolled over since."""
        self.attempted += attempt
        self.stale += stale
        if not ok:
            self.failed += 1
            self.failures.append(what)


class Reservoir:
    """Seeded fixed-size sample of a stream of unknown length."""

    def __init__(self, size: int, rng: np.random.Generator) -> None:
        self.size = size
        self.rng = rng
        self.items: list = []
        self.seen = 0

    def offer(self, make) -> None:
        self.seen += 1
        if len(self.items) < self.size:
            self.items.append(make())
        else:
            j = int(self.rng.integers(self.seen))
            if j < self.size:
                self.items[j] = make()


@dataclass(frozen=True)
class MaskSample:
    """A served query, kept for the linear-route parity check."""

    dataset: TrajectoryDataset
    strokes: tuple[BrushStroke, ...]
    color: str
    window: TimeWindow
    segment_mask: np.ndarray
    traj_mask: np.ndarray
    traj_highlight_time: np.ndarray


class Bench:
    """One benchmark run over the paper wall."""

    def __init__(self, seed: int, ledger: Ledger, *, main_phase: str,
                 query_phase: str) -> None:
        self.seed = seed
        self.main_phase = main_phase
        self.query_phase = query_phase
        self.ledger = ledger
        self.tracer = ledger.tracer
        self.arena = Arena()
        self.viewport = paper_viewport(CYBER_COMMONS)
        self.phase = "setup"
        self.check_rng = np.random.default_rng([seed, 1])
        self.masks = Reservoir(MASK_CHECKS, np.random.default_rng([seed, 2]))
        self.ask_rng = np.random.default_rng([seed, 5])
        self.trajectories = list(
            generate_study_dataset(AntStudyConfig(n_trajectories=N_TRAJECTORIES, seed=seed))
        )
        stream = list(
            generate_study_dataset(
                AntStudyConfig(n_trajectories=INGEST_BATCH * INGEST_BATCHES, seed=seed + 7919)
            )
        )
        self.batches = [
            stream[i:i + INGEST_BATCH] for i in range(0, len(stream), INGEST_BATCH)
        ]
        self.verdicts: list[str] = []
        self.steps: list = []
        self.step = 0
        self.n_ingested = 0
        self.sessions: list = []
        self.service: DatasetService | None = None
        self.session = None
        self.handle = None

    # -- instrumentation ------------------------------------------------
    def sample(self, kind: str, value: float) -> None:
        self.ledger.samples[f"{self.phase}.{kind}"].append(value)

    def _instrument(self, session) -> None:
        """Time every ``run_query`` call into the query layer, including
        the ones :class:`IncrementalRequery` makes, and give each a
        deadline so a stalled query counts as failed."""
        inner = session.run_query
        tracer = self.tracer

        def run_query(color: str = "red", *, deadline_s: float | None = DEADLINE_S):
            with tracer.span("SessionView.run_query", "core.plan") as sp:
                t0 = time.perf_counter()
                result = inner(color, deadline_s=deadline_s)
                dt = time.perf_counter() - t0
            self._record_query(session, color, result, dt, sp)
            return result

        session.run_query = run_query

    def _record_query(self, session, color, result, dt, sp) -> None:
        ledger = self.ledger
        self.sample("query_s", dt)
        trace = result.trace
        ledger.traces[self.phase].append(trace)
        kinds = {e.kind for e in result.degradation.events} if result.degradation else set()
        ledger.outcome(not (kinds - {"stale-epoch"}),
                       f"{self.phase}: degraded query ({sorted(kinds)})",
                       stale="stale-epoch" in kinds)
        if sp.id is not None and trace is not None:
            t = sp.start + trace.plan_s
            for rec in trace.stages:
                layer = STAGE_LAYER.get(rec.stage)
                if layer is not None:
                    self.tracer.add(sp, rec.stage, layer, t, t + rec.elapsed_s)
                t += rec.elapsed_s
        if self.phase == self.query_phase:
            self.masks.offer(lambda: MaskSample(
                session.dataset, tuple(session.canvas.strokes(color)), color,
                session.window, result.segment_mask, result.traj_mask,
                result.traj_highlight_time,
            ))

    # -- setup ----------------------------------------------------------
    def warm_up(self) -> None:
        """Run every path once on a small dataset so lazy imports and
        first-call numpy paths are paid before anything is timed."""
        import concurrent.futures.process  # noqa: F401  (frame pool)
        import multiprocessing.synchronize  # noqa: F401

        ds = TrajectoryDataset(self.trajectories[:40], name="warm-up")
        with DatasetService(ds) as service:
            service.publish_store()
            session = service.session(self.viewport, layout_key="3")
            session.enable_fig3_groups()
            session.brush(self.random_stroke(np.random.default_rng(0), "red"))
            slider = RangeSlider(0.0, 1.0, min_gap=0.01)
            IncrementalRequery(slider, session)
            slider.set(0.2, 0.6)
            result = session.run_query("red")
            renderer = WallRenderer(ds, self.arena, self.viewport)
            job = renderer.make_jobs(session.assignment)[0]
            renderer.render_job(job, canvas=session.canvas, results={"red": result})
            CoordinatedBrushingEngine(ds, use_index=False).query(
                session.canvas, "red", window=session.window
            )
            buffer = IngestBuffer()
            buffer.extend(self.trajectories[40:42])
            RolloverCoordinator(service, buffer).rollover()
            session.rebind()
            session.close()

    def _stand_up(self):
        """One timed set-up, generated dataset -> first answerable query:
        service (index and pyramid build), store publish, session open,
        layout + grouping.  Each starts from a fresh dataset object, as
        the packed view is cached per dataset."""
        self.phase = "setup"
        tracer = self.tracer
        ds = TrajectoryDataset(self.trajectories, name=f"seed-{self.seed}")
        t0 = time.perf_counter()
        with tracer.span("DatasetService", "store"):
            service = DatasetService(ds)
        t1 = time.perf_counter()
        with tracer.span("publish_store", "store"):
            handle = service.publish_store()
        t2 = time.perf_counter()
        session = self.open_session(service)
        t3 = time.perf_counter()
        with tracer.span("enable_fig3_groups", "layout"):
            session.enable_fig3_groups()
        t4 = time.perf_counter()
        self.sample("setup_s", t4 - t0)
        self.sample("service_init_s", t1 - t0)
        self.sample("publish_s", t2 - t1)
        self.sample("reassign_s", t4 - t3)
        return service, handle, session

    def setup(self) -> None:
        """``SETUP_REPEATS`` set-ups; the last one serves the workload."""
        for _ in range(SETUP_REPEATS - 1):
            service, _, session = self._stand_up()
            session.close()
            service.close()
        self.service, self.handle, self.session = self._stand_up()
        self.sessions.append(self.session)
        self.evictions0 = self.service.engine.cache_stats()["evictions"]

    def probe_setup(self) -> None:
        """A throwaway set-up between rounds, so ``setup_s`` is sampled
        across the run, then ``PROBE_ROLLOVERS`` ingest + rollovers on
        it, which leave the workload's own service (and so the main
        phase under measurement) alone."""
        service, _, session = self._stand_up()
        try:
            self.phase = "rollover"
            coordinator = RolloverCoordinator(service, IngestBuffer())
            for _ in range(PROBE_ROLLOVERS):
                self.rollover(session, coordinator)
        finally:
            session.close()
            service.close()

    def open_session(self, service: DatasetService):
        with self.tracer.span("DatasetService.session", "store"):
            t0 = time.perf_counter()
            session = service.session(self.viewport, layout_key="3")
            self.sample("session_open_s", time.perf_counter() - t0)
        self._instrument(session)
        return session

    def layer_builds(self) -> dict[str, float]:
        """Index and pyramid builds timed at their own constructors, on
        a fresh copy of the served dataset (traced runs only)."""
        from repro.core.aggregate.pyramid import SummaryPyramid
        from repro.core.spatial_index import UniformGridIndex

        ds = TrajectoryDataset(self.trajectories, name="builds")
        packed = ds.packed()
        t0 = time.perf_counter()
        UniformGridIndex(packed, 64)
        t1 = time.perf_counter()
        SummaryPyramid.build(packed, ds)
        t2 = time.perf_counter()
        return {"core.spatial_index.build_s": t1 - t0, "core.aggregate.pyramid_build_s": t2 - t1}

    # -- inputs ----------------------------------------------------------
    def random_stroke(self, rng: np.random.Generator, color: str) -> BrushStroke:
        r = self.arena.radius
        cx, cy = rng.uniform(-0.6 * r, 0.6 * r, 2)
        hx, hy = rng.uniform(0.08 * r, 0.2 * r, 2)
        return stroke_from_rect((cx - hx, cy - hy), (cx + hx, cy + hy), 0.08 * r, color)

    def random_query(self, rng: np.random.Generator):
        color = str(rng.choice(HIGHLIGHT_COLORS[:4]))
        lo = round(float(rng.uniform(0.0, 0.7)), 3)
        hi = round(lo + float(rng.uniform(0.1, 0.3)), 3)
        return self.random_stroke(rng, color), color, TimeWindow.fraction(lo, hi)

    def scrub_strokes(self, rng: np.random.Generator) -> list[BrushStroke]:
        """Three same-sized squares a third of a turn apart at a seeded
        rotation: the seed moves them, but the work they cause stays
        comparable from seed to seed."""
        r = self.arena.radius
        base = float(rng.uniform(0.0, 2.0 * np.pi))
        out = []
        for i, color in enumerate(SCRUB_COLORS):
            angle = base + 2.0 * np.pi * i / len(SCRUB_COLORS)
            cx, cy = 0.45 * r * np.cos(angle), 0.45 * r * np.sin(angle)
            h = 0.15 * r
            out.append(stroke_from_rect((cx - h, cy - h), (cx + h, cy + h), 0.08 * r, color))
        return out

    def slider_walk(self, rng: np.random.Generator):
        """Seeded thumb positions: the window slides in a random walk,
        and some ticks revisit a recent window (positions are quantized
        so a revisit is exact)."""
        lo = 0.3
        recent: list[tuple[float, float]] = []
        while True:
            if recent and rng.random() < REVISIT_P:
                yield recent[int(rng.integers(len(recent)))]
                continue
            width = float(rng.uniform(*WINDOW_WIDTH))
            lo = float(np.clip(lo + rng.normal(0.0, WALK_STEP), 0.0, 1.0 - width))
            window = (round(lo, 3), round(lo + width, 3))
            recent = (recent + [window])[-REVISIT_DEPTH:]
            yield window

    # -- frames ------------------------------------------------------------
    def frame(self, session, results):
        """One ``render_viewport_parallel`` call over the shared store."""
        renderer = WallRenderer(session.dataset, self.arena, self.viewport)
        with self.tracer.span("render_viewport_parallel", "parallel") as sp:
            t0 = time.perf_counter()
            report = render_viewport_parallel(
                renderer, session.assignment, canvas=session.canvas,
                results=results or None, max_workers=NPROC, store=self.handle,
            )
            dt = time.perf_counter() - t0
        stages = report.stage_seconds
        if sp.id is not None:
            # workers cannot record into this process: their render
            # seconds become one child span of the frame, as wall share
            begin = sp.start + stages.get("dispatch", 0.0)
            self.tracer.add(sp, "worker render", "render", begin,
                            begin + stages["render"] / max(report.workers, 1))
        self.sample("frame_s", dt)
        pixels = sum(fb.data.shape[0] * fb.data.shape[1]
                     for eye in report.frames.values() for fb in eye.values())
        self.ledger.frames.append(dict(
            elapsed_s=dt, stages=dict(stages), workers=report.workers,
            n_batches=report.n_batches, shared_fb=report.shared_fb, n_jobs=report.n_jobs,
            pixels=pixels, degraded=report.degraded,
        ))
        self.ledger.outcome(not report.degraded,
                            f"degraded frame: {report.degradation.summary()}")
        return renderer, report

    def check_frame(self, renderer, session, results, report) -> None:
        """One seeded tile-eye job re-rendered serially must be byte-equal
        to the slot the pool produced."""
        jobs = renderer.make_jobs(session.assignment)
        job = jobs[int(self.check_rng.integers(len(jobs)))]
        serial = renderer.render_job(job, canvas=session.canvas, results=results or None)
        pooled = report.frames[job.eye][(job.tile.col, job.tile.row)]
        same = (serial.data.dtype == pooled.data.dtype
                and serial.data.tobytes() == pooled.data.tobytes())
        self.ledger.outcome(same, f"pooled tile {job.tile.col},{job.tile.row} eye "
                            f"{int(job.eye)} differs from render_job", attempt=False)

    def act(self, name: str, apply, session) -> None:
        """One visible state change: apply it, refresh every painted
        color, render both eyes; then (untimed) check the frame."""
        with self.tracer.span(f"{self.phase}:{name}", ACTION):
            t0 = time.perf_counter()
            apply()
            results = {c: session.run_query(c) for c in session.canvas.colors()}
            renderer, report = self.frame(session, results)
            dt = time.perf_counter() - t0
        self.sample("interaction_s", dt)
        self.check_frame(renderer, session, results, report)

    def frame_probe(self, session) -> None:
        """The analyst lets go of the slider on the last 15% of the
        experiment (the Fig. 5 window): every painted color refreshed
        and one stereo frame."""
        self.phase = "frame"
        self.act("release slider", lambda: session.set_time_window(FRAME_WINDOW), session)

    # -- study replay --------------------------------------------------------
    def _script_steps(self):
        """The study script as (name, visible, apply) steps."""
        session = self.session

        def reassign(name, call):
            with self.tracer.span(name, "layout"):
                t0 = time.perf_counter()
                call()
                self.sample("reassign_s", time.perf_counter() - t0)

        for action in default_study_script(self.arena).actions:
            if action.kind == "layout":
                yield "layout", True, lambda k=action.arg: reassign(
                    "switch_layout", lambda: session.switch_layout(k))
            elif action.kind == "group":
                yield "group", True, lambda: reassign(
                    "enable_fig3_groups", session.enable_fig3_groups)
            elif action.kind == "test":
                hyp = action.hypothesis
                for stroke in hyp.strokes:
                    yield "brush", True, lambda s=stroke: session.brush(s)
                if not hyp.window.is_everything:
                    yield "window", True, lambda w=hyp.window: session.set_time_window(w)
                yield "verdict", False, lambda h=hyp: self.verdicts.append(
                    session.test_hypothesis(h).kind.value)
                yield "erase", True, session.erase
                # the canvas is empty again, so the reset shows nothing new
                yield "reset", False, lambda: session.set_time_window(TimeWindow.all())

    def plan_replay(self, frames: int) -> None:
        """The script as (name, framed, apply) steps: ``frames`` of its
        visible steps, evenly spaced from the first to the last, render
        a frame; every other step is only applied."""
        steps = list(self._script_steps())
        visible = [i for i, (_, shown, _) in enumerate(steps) if shown]
        n = min(frames, len(visible))
        framed = {visible[round(k * (len(visible) - 1) / max(n - 1, 1))] for k in range(n)}
        self.steps = [(name, i in framed, apply) for i, (name, _, apply) in enumerate(steps)]

    def replay(self, until: int) -> None:
        """Play the script on, in order, up to step ``until``."""
        self.phase = "replay"
        for name, framed, apply in self.steps[self.step:until]:
            if framed:
                self.act(name, apply, self.session)
            else:
                apply()
        self.step = until

    def check_verdicts(self) -> None:
        """The replay's verdict kinds against an AnalystSimulator replay
        of the same script on a private single-user session over the
        same data."""
        session = ExplorationSession(self.session.dataset, self.viewport)
        expected = [v.kind.value for v in AnalystSimulator(session, self.arena).run().verdicts]
        self.ledger.outcome(self.verdicts == expected,
                            f"verdicts {self.verdicts} != simulator {expected}", attempt=False)

    # -- queries and rollover ---------------------------------------------------
    def extra_session(self):
        """Another analyst at the same wall, with the same grouping."""
        session = self.open_session(self.service)
        session.enable_fig3_groups()
        self.sessions.append(session)
        return session

    def ask(self, view, queries: int) -> None:
        """A closed loop of ``queries`` fresh seeded brush + color +
        window queries on ``view``: cold aggregate queries."""
        self.phase = "ask"
        measured = 0.0
        for _ in range(queries):
            stroke, color, window = self.random_query(self.ask_rng)
            with self.tracer.span(f"{self.phase}:brush query", ACTION):
                t0 = time.perf_counter()
                view.erase()
                view.brush(stroke)
                view.set_time_window(window)
                view.run_query(color)
                measured += time.perf_counter() - t0
        self.sample("wall_s", measured)

    def rebind(self, view) -> None:
        with self.tracer.span("SessionView.rebind", "store"):
            t0 = time.perf_counter()
            view.rebind()
            self.sample("rebind_s", time.perf_counter() - t0)

    def rollover(self, view, coordinator: RolloverCoordinator) -> None:
        """Ingest one seeded batch, roll the service over, rebind the
        view: ingest to a queryable new epoch."""
        batch = self.batches[self.n_ingested]
        self.n_ingested += 1
        with self.tracer.span(f"{self.phase}:ingest + rollover", ACTION):
            t0 = time.perf_counter()
            with self.tracer.span("IngestBuffer.extend", "store"):
                coordinator.buffer.extend(batch)
            with self.tracer.span("RolloverCoordinator.rollover", "store"):
                t1 = time.perf_counter()
                result = coordinator.rollover()
                self.sample("store_rollover_s", time.perf_counter() - t1)
            self.rebind(view)
            dt = time.perf_counter() - t0
        self.sample("rollover_s", dt)
        ok = result is not None and result.n_ingested == len(batch) \
            and view.epoch == coordinator.service.active_epoch()
        self.ledger.outcome(ok, f"rollover did not publish the batch: {result}")

    # -- checks and teardown -------------------------------------------------
    def check_masks(self) -> None:
        """Sampled served masks against the linear route, bit for bit."""
        from repro.core.canvas import BrushCanvas

        engines: dict[int, CoordinatedBrushingEngine] = {}
        for s in self.masks.items:
            canvas = BrushCanvas()
            for stroke in s.strokes:
                canvas.add(stroke)
            if id(s.dataset) not in engines:
                engines[id(s.dataset)] = CoordinatedBrushingEngine(s.dataset, use_index=False)
            ref = engines[id(s.dataset)].query(canvas, s.color, window=s.window)
            same = (np.array_equal(ref.segment_mask, s.segment_mask)
                    and np.array_equal(ref.traj_mask, s.traj_mask)
                    and np.array_equal(ref.traj_highlight_time, s.traj_highlight_time))
            self.ledger.outcome(same, f"{s.color} mask differs from the linear route",
                                attempt=False)

    def trace_overhead(self, pairs: int) -> float:
        """Median traced over median untraced warm slider tick, measured
        in alternating pairs: the finest-grained action, where span
        bookkeeping weighs most."""
        scrub = Scrubber(self, self.session, np.random.default_rng([self.seed, 6]))
        self.phase = "calibrate"
        windows = ((0.2, 0.5), (0.3, 0.6))
        for lo, hi in windows:
            scrub.tick(lo, hi)  # both windows now answer from the cache
        timings: dict[bool, list[float]] = {False: [], True: []}
        current = 1
        for i in range(pairs):
            for enabled in ((False, True) if i % 2 == 0 else (True, False)):
                self.tracer.enabled = enabled
                current ^= 1
                timings[enabled].append(scrub.tick(*windows[current]))
        self.tracer.enabled = True
        return statistics.median(timings[True]) / statistics.median(timings[False])

    def close(self) -> None:
        for session in self.sessions:
            session.close()
        if self.service is not None:
            self.service.close()


class Scrubber:
    """One analyst's temporal slider over three painted colors, driving
    :class:`IncrementalRequery`; the walk continues across calls."""

    def __init__(self, bench: Bench, session, rng: np.random.Generator) -> None:
        self.bench = bench
        self.session = session
        session.erase()
        for stroke in bench.scrub_strokes(rng):
            session.brush(stroke)
        self.slider = RangeSlider(0.0, 1.0, min_gap=0.01)
        self.requery = IncrementalRequery(self.slider, session)
        self.walk = bench.slider_walk(rng)
        self.seen: set[tuple[float, float]] = set()
        inner = self.slider.on_change
        tracer = bench.tracer

        def moved(lo: float, hi: float) -> None:
            with tracer.span("IncrementalRequery", "interaction"):
                t0 = time.perf_counter()
                inner(lo, hi)
                bench.sample("requery_s", time.perf_counter() - t0)

        self.slider.on_change = moved

    def tick(self, lo: float, hi: float) -> float:
        """One slider move to fresh results for every painted color."""
        with self.bench.tracer.span(f"{self.bench.phase}:slider tick", ACTION):
            t0 = time.perf_counter()
            self.slider.set(lo, hi)
            return time.perf_counter() - t0

    def run(self, *, seconds: float | None = None, ticks: int | None = None) -> None:
        """Ticks of the seeded walk until ``seconds`` of fresh ticks are
        measured or ``ticks`` fresh ticks are done.  No frames.

        A tick to a window this analyst has not had before is phase
        ``scrub``; a tick back to an earlier one (mostly stage-cache
        hits) is phase ``revisit``.  Only ``scrub`` ticks feed the tick
        and query metrics, so the revisit share does not move them."""
        bench = self.bench
        fresh_s, n = 0.0, 0
        while (fresh_s < seconds) if ticks is None else (n < ticks):
            window = next(self.walk)
            if window == self.slider.interval:
                continue
            bench.phase = "revisit" if window in self.seen else "scrub"
            self.seen.add(window)
            dt = self.tick(*window)
            bench.sample("tick_s", dt)
            if bench.phase == "scrub":
                fresh_s += dt
                n += 1
                bench.sample("colors_per_tick", len(self.requery.last_results))
        bench.phase = "scrub"
        bench.sample("wall_s", fresh_s)


def study_replay(bench: Bench, seconds: float) -> None:
    """One pass of the analyst's script, a fifth per round; between its
    rounds a second analyst's queries, a third analyst's slider ticks
    and a throwaway set-up that is rolled over."""
    asker = bench.extra_session()
    scrub = Scrubber(bench, bench.extra_session(), np.random.default_rng([bench.seed, 3]))
    bench.plan_replay(max(ROUNDS, round(FRAMES_PER_S * seconds)))
    for r in range(ROUNDS):
        bench.replay(len(bench.steps) * (r + 1) // ROUNDS)
        bench.ask(asker, PROBE_QUERIES // ROUNDS)
        scrub.run(ticks=PROBE_TICKS // ROUNDS)
        bench.probe_setup()
    bench.check_verdicts()


def slider_scrub(bench: Bench, seconds: float) -> None:
    """The slider sweep; after each round the analyst lets go of the
    slider (one frame) and a throwaway set-up is rolled over."""
    scrub = Scrubber(bench, bench.session, np.random.default_rng([bench.seed, 3]))
    for _ in range(ROUNDS):
        scrub.run(seconds=seconds / ROUNDS)
        bench.frame_probe(bench.session)
        bench.probe_setup()


#: name -> (main phase, phase whose queries feed ``query_*`` and the
#: linear-route mask checks, what runs it)
WORKLOADS = {
    "study-replay": ("replay", "ask", study_replay),
    "slider-scrub": ("scrub", "scrub", slider_scrub),
}
