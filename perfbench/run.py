"""Interaction ledger: one benchmark from brush to stereo frame.

Replays analyst interactions on the paper wall (Cyber-Commons viewport,
layout 3, 36x12 cells, 8196x1536 px per eye, both eyes) through the
public entry points only, and prints every metric by name and unit, the
correctness verdict and failures against attempts.  Run from the root of
a checkout:

    python3 perfbench/run.py --workload study-replay --seed 1 --seconds 10 --trace 0

Workloads (closed loops: every client waits for its reply):

* ``study-replay`` — one analyst runs the pilot-study script on 500
  seeded trajectories with the Fig. 3 grouping; a fixed, evenly spaced
  set of its visible state changes (one per second of ``--seconds``)
  renders a stereo frame.  Render and the worker pool carry nearly all
  the work.
* ``slider-scrub`` — three painted colors, then a long seeded temporal
  slider sweep (fresh windows and revisits, timed apart) through
  ``IncrementalRequery``; no frames.  All warm-path query planning.

The main phase runs in rounds; between rounds, short fixed probes
(cold queries, slider ticks, a frame, a throwaway set-up and rollover)
produce the metrics the main phase does not, so every run reports every
metric.  ``--trace 1`` is a separate run that
records spans around every call into a layer and reports per-layer
metrics instead; spans are written to ``.perfbench_out/`` when it ends.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_report, quantile, Tracer

END_TO_END = {
    "setup_s": "s",
    "interaction_p50_s": "s",
    "frame_p50_s": "s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "queries_per_s": "1/s",
    "tick_p50_ms": "ms",
    "tick_p95_ms": "ms",
    "rollover_p50_s": "s",
    "peak_rss_mb": "MB",
}

AGG_STAGES = ("agg_temporal", "agg_spatial", "agg_brush", "classify",
              "drilldown", "aggregate", "group_support")
LAYERS = ("core.plan", "core.aggregate", "core.spatial_index", "store",
          "interaction", "layout", "render", "parallel")

PER_LAYER = {
    "core.plan.plan_ms": "ms",
    **{f"core.plan.stage_self_ms.{s}": "ms" for s in AGG_STAGES},
    "core.plan.stage_hit_ratio": "ratio",
    "core.plan.cache_evictions": "count",
    "core.aggregate.pyramid_build_s": "s",
    "core.aggregate.drilldown_segments": "count",
    "core.aggregate.drilldown_useful_ratio": "ratio",
    "core.spatial_index.build_s": "s",
    "store.service_init_s": "s",
    "store.publish_s": "s",
    "store.rollover_s": "s",
    "store.rebind_ms": "ms",
    "store.session_open_ms": "ms",
    "store.stale_queries": "count",
    "interaction.requery_ms": "ms",
    "interaction.colors_per_tick": "count",
    "interaction.revisit_ms": "ms",
    "layout.reassign_ms": "ms",
    "render.job_s": "s",
    "render.frame_cpu_s": "s",
    "render.mpx_per_cpu_s": "Mpx/s",
    "parallel.dispatch_s": "s",
    "parallel.shipback_s": "s",
    "parallel.assemble_s": "s",
    "parallel.batches": "count",
    "parallel.worker_busy_ratio": "ratio",
    "parallel.degraded_frames": "count",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "obs.unaccounted_share": "ratio",
    "obs.actions_traced": "count",
    "obs.trace_overhead_ratio": "ratio",
}

#: Sample kind each workload's main phase reports as one interaction.
INTERACTION_KIND = {"replay": "interaction_s", "scrub": "tick_s"}
#: Warm slider-tick pairs (untraced, traced) that measure tracing overhead.
OVERHEAD_PAIRS = 150


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _all(samples: dict, kind: str) -> list[float]:
    return [v for key, values in samples.items() if key.endswith("." + kind) for v in values]


def end_to_end(ledger, main: str, qphase: str) -> tuple[dict, dict]:
    """Metric values and their sample counts."""
    s = ledger.samples
    inter = s[f"{main}.{INTERACTION_KIND[main]}"]
    frames = s["replay.frame_s"] or s["frame.frame_s"]
    queries = s[f"{qphase}.query_s"]
    ticks = s["scrub.tick_s"]
    rolls = s["rollover.rollover_s"]
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    values = {
        "setup_s": _median(s["setup.setup_s"]),
        "interaction_p50_s": _median(inter),
        "frame_p50_s": _median(frames),
        "query_p50_ms": 1e3 * _median(queries),
        "query_p95_ms": 1e3 * quantile(queries, 0.95),
        "queries_per_s": len(queries) / sum(s[f"{qphase}.wall_s"]),
        "tick_p50_ms": 1e3 * _median(ticks),
        "tick_p95_ms": 1e3 * quantile(ticks, 0.95),
        "rollover_p50_s": _median(rolls),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    counts = {
        "setup_s": len(s["setup.setup_s"]), "interaction_p50_s": len(inter),
        "frame_p50_s": len(frames), "query_p50_ms": len(queries),
        "query_p95_ms": len(queries), "queries_per_s": len(queries),
        "tick_p50_ms": len(ticks), "tick_p95_ms": len(ticks),
        "rollover_p50_s": len(rolls), "peak_rss_mb": 1,
    }
    return values, counts


def per_layer(bench, ledger, qphase: str, builds: dict, layer_spans: dict,
              overhead: float) -> dict:
    s = ledger.samples
    traces = [t for t in ledger.traces[qphase] if t is not None]
    n = max(len(traces), 1)
    records = [r for t in traces for r in t.stages]
    drills = [r for r in records if r.stage == "drilldown" and not r.cache_hit]
    drill_in = sum(r.n_in for r in drills)
    frames = ledger.frames
    render = [f["stages"].get("render", 0.0) for f in frames]
    out = {
        "core.plan.plan_ms": 1e3 * _median(t.plan_s for t in traces),
        **{
            f"core.plan.stage_self_ms.{stage}":
                1e3 * sum(r.elapsed_s for r in records if r.stage == stage) / n
            for stage in AGG_STAGES
        },
        "core.plan.stage_hit_ratio": sum(r.cache_hit for r in records) / max(len(records), 1),
        "core.plan.cache_evictions":
            bench.service.engine.cache_stats()["evictions"] - bench.evictions0,
        "core.aggregate.drilldown_segments": drill_in / n,
        "core.aggregate.drilldown_useful_ratio":
            sum(r.n_out for r in drills) / drill_in if drill_in else 0.0,
        **builds,
        "store.service_init_s": _median(s["setup.service_init_s"]),
        "store.publish_s": _median(s["setup.publish_s"]),
        "store.rollover_s": _median(_all(s, "store_rollover_s")),
        "store.rebind_ms": 1e3 * _median(_all(s, "rebind_s")),
        "store.session_open_ms": 1e3 * _median(_all(s, "session_open_s")),
        "store.stale_queries": ledger.stale,
        "interaction.requery_ms": 1e3 * _median(s["scrub.requery_s"]),
        "interaction.colors_per_tick": statistics.fmean(s["scrub.colors_per_tick"]),
        "interaction.revisit_ms": 1e3 * _median(s["revisit.tick_s"]),
        "layout.reassign_ms": 1e3 * _median(_all(s, "reassign_s")),
        "render.job_s": sum(render) / max(sum(f["n_jobs"] for f in frames), 1),
        "render.frame_cpu_s": _median(render),
        "render.mpx_per_cpu_s": sum(f["pixels"] for f in frames) / 1e6 / max(sum(render), 1e-9),
        "parallel.dispatch_s": _median(f["stages"].get("dispatch", 0.0) for f in frames),
        "parallel.shipback_s": _median(f["stages"].get("shipback", 0.0) for f in frames),
        "parallel.assemble_s": _median(f["stages"].get("assemble", 0.0) for f in frames),
        "parallel.batches": _median(f["n_batches"] for f in frames),
        "parallel.worker_busy_ratio": _median(
            f["stages"].get("render", 0.0) / (f["workers"] * f["elapsed_s"]) for f in frames),
        "parallel.degraded_frames": sum(f["degraded"] for f in frames),
        **layer_spans,
        "obs.trace_overhead_ratio": overhead,
    }
    return {name: float(out[name]) for name in PER_LAYER}


def provenance(root: Path, seed: int, nproc: int, ledger) -> dict:
    import numpy

    sha = "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10,
        )
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == root:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "workers_used": sorted({
            (f["workers"], f["n_batches"], f["shared_fb"]) for f in ledger.frames
        }),
    }


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process multiprocessing started for the
    shared-memory blocks (every block is unlinked by then)."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("study-replay", "slider-scrub"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {root / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    import phases

    tracer = Tracer(enabled=bool(args.trace))
    ledger = phases.Ledger(tracer)
    main_phase, query_phase, drive = phases.WORKLOADS[args.workload]
    bench = phases.Bench(args.seed, ledger, main_phase=main_phase, query_phase=query_phase)
    t_run = time.perf_counter()
    try:
        bench.warm_up()
        bench.setup()
        drive(bench, args.seconds)
        bench.check_masks()
        if args.trace:
            layer_spans = layer_report(tracer.spans, LAYERS, main_phase)
            tracer.dump(root / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.json")
            overhead = bench.trace_overhead(OVERHEAD_PAIRS)
            values = per_layer(bench, ledger, query_phase, bench.layer_builds(),
                               layer_spans, overhead)
            counts = {}
        else:
            values, counts = end_to_end(ledger, main_phase, query_phase)
        record = provenance(root, args.seed, phases.NPROC, ledger)
    finally:
        bench.close()
        _stop_resource_tracker()

    units = PER_LAYER if args.trace else END_TO_END
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} wall={time.perf_counter() - t_run:.1f}s")
    print("provenance " + json.dumps(record))
    for name, unit in units.items():
        n = f"  (n={counts[name]})" if name in counts else ""
        print(f"  {name:42s} {values[name]:14.6f} {unit}{n}")
    ratio = ledger.failed / ledger.attempted if ledger.attempted else 0.0
    correct = ledger.failed == 0
    print(f"correct={correct} attempted={ledger.attempted} failed={ledger.failed} "
          f"ops_failed_ratio={ratio:.6f} stale_epoch_results={ledger.stale}")
    for failure in ledger.failures[:20]:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
