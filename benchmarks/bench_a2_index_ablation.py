"""A2 — ablation: summary pyramid on/off (aggregate vs linear route).

Quantifies what the engine's one acceleration structure, the
:class:`~repro.core.aggregate.SummaryPyramid`, buys coordinated
brushing at growing dataset sizes: cold query latency with the pyramid
(``use_index=True``, the aggregate route) and without it
(``use_index=False``, the linear route) for a localized brush (the
Fig. 5 west-edge stroke), plus the pyramid's candidate selectivity —
the share of segments in leaf cells the spatial classification cannot
rule out.  Expected shape: identical results, with the aggregate query
an order of magnitude or more faster and the gap holding as N grows.
"""

import numpy as np
import pytest

from repro.core.aggregate import OUT, SummaryPyramid, classify_spatial
from repro.core.brush import stroke_from_rect
from repro.core.canvas import BrushCanvas
from repro.core.engine import CoordinatedBrushingEngine
from repro.synth import generate_scaled_dataset

SERIES = (500, 2_000, 8_000)


def west_canvas(arena):
    r = arena.radius
    c = BrushCanvas()
    c.add(stroke_from_rect((-r, -0.6 * r), (-0.7 * r, 0.6 * r), 0.12 * r, "red"))
    return c


def cold_median_s(engine, canvas, reps: int = 3) -> float:
    """Median wall of fresh-cache queries."""
    walls = []
    for _ in range(reps):
        engine.invalidate_cache()
        walls.append(engine.query(canvas, "red").elapsed_s)
    return float(np.median(walls))


@pytest.fixture(scope="module")
def datasets():
    return {n: generate_scaled_dataset(n, seed=29, max_duration_s=40.0) for n in SERIES}


def test_a2_index_ablation(datasets, arena, report_sink, benchmark):
    canvas = west_canvas(arena)
    centers, radii = canvas.stamps_of("red")

    # register the headline aggregate query with pytest-benchmark
    fast_large = CoordinatedBrushingEngine(datasets[SERIES[-1]])
    benchmark(fast_large.query, canvas, "red")

    rows = []
    for n in SERIES:
        ds = datasets[n]
        fast = CoordinatedBrushingEngine(ds)
        slow = CoordinatedBrushingEngine(ds, use_index=False)
        fast_t = cold_median_s(fast, canvas)
        slow_t = cold_median_s(slow, canvas)
        r_fast = fast.query(canvas, "red")
        r_slow = slow.query(canvas, "red")
        assert r_fast.trace.strategy == "aggregate"
        np.testing.assert_array_equal(r_fast.segment_mask, r_slow.segment_mask)
        np.testing.assert_array_equal(r_fast.traj_mask, r_slow.traj_mask)
        pyramid = fast.pyramid
        maybe = np.flatnonzero(classify_spatial(pyramid, centers, radii) != OUT)
        selectivity = len(pyramid.rows_in_cells(maybe)) / ds.packed().n_segments
        rows.append(
            {
                "n": n,
                "segments": ds.packed().n_segments,
                "with_s": fast_t,
                "without_s": slow_t,
                "speedup": slow_t / max(fast_t, 1e-9),
                "selectivity": selectivity,
            }
        )

    lines = [
        f"{'N':>6} {'segments':>9} {'aggregate (s)':>14} {'linear (s)':>11} "
        f"{'speedup':>8} {'candidates':>11}",
    ]
    for r in rows:
        lines.append(
            f"{r['n']:>6} {r['segments']:>9} {r['with_s']:>14.4f} "
            f"{r['without_s']:>11.4f} {r['speedup']:>7.1f}x "
            f"{r['selectivity']:>10.1%}"
        )
    lines += [
        "(cold queries, median of 3; identical query results asserted;",
        " candidates = segments in leaf cells the pyramid cannot rule out)",
    ]
    report_sink("A2", "summary pyramid on/off (ablation)", lines)

    # expected shape: the pyramid helps, results identical
    assert rows[-1]["speedup"] > 1.5
    assert rows[-1]["selectivity"] < 0.5


def test_a2_index_build_bench(datasets, benchmark):
    ds = datasets[SERIES[-1]]
    packed = ds.packed()
    pyramid = benchmark(SummaryPyramid.build, packed, ds)
    assert pyramid.node_counts.sum() == packed.n_segments
