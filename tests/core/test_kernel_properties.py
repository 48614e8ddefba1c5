"""Property tests pinning the vectorized query kernels to scalar oracles.

The ``brush_hit`` drill-down kernel (per-row scalar test →
bbox-prefiltered vectorized capsule test) is checked against its scalar
reference in :mod:`tests.core.oracles`, and the pyramid-backed route
(``use_index=True``) against the linear route end to end.  Hypothesis
drives randomized segment sets and brush stamps through both
implementations; any byte of disagreement is a failed property.
Directed cases cover the degenerate corners the randomized sweep may
under-hit: empty brushes, full-cover brushes, and single-segment cells.
"""

from __future__ import annotations

import hypothesis.extra.numpy as hnp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregate import SummaryPyramid
from repro.core.aggregate.kernels import brush_hit_rows
from repro.core.brush import BrushStroke
from repro.core.canvas import BrushCanvas
from repro.core.engine import CoordinatedBrushingEngine
from repro.trajectory.dataset import PackedSegments, TrajectoryDataset
from repro.trajectory.model import Trajectory

from .oracles import brush_hit_rows_scalar

_coord = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False, width=64)


@st.composite
def packed_segments(draw) -> PackedSegments:
    """Random small segment sets as one-trajectory packed arrays."""
    n = draw(st.integers(1, 32))
    pts = draw(hnp.arrays(np.float64, (n, 2, 2), elements=_coord))
    return PackedSegments.from_arrays(
        a=np.ascontiguousarray(pts[:, 0]),
        b=np.ascontiguousarray(pts[:, 1]),
        t0=np.zeros(n),
        t1=np.ones(n),
        owner=np.zeros(n, dtype=np.int64),
        offsets=np.array([0, n], dtype=np.int64),
    )


@st.composite
def brushes(draw) -> tuple[np.ndarray, np.ndarray]:
    """0-3 disc stamps, spilling slightly outside the segment box."""
    k = draw(st.integers(0, 3))
    centers = draw(
        hnp.arrays(
            np.float64, (k, 2),
            elements=st.floats(-1.3, 1.3, allow_nan=False, width=64),
        )
    )
    radii = draw(
        hnp.arrays(
            np.float64, (k,),
            elements=st.floats(0.0, 0.8, allow_nan=False, width=64),
        )
    )
    return centers, radii


@given(packed_segments(), brushes())
@settings(max_examples=25, deadline=None)
def test_brush_hit_rows_matches_scalar_oracle(packed, brush):
    centers, radii = brush
    rows = np.arange(packed.n_segments, dtype=np.int64)
    for subset in (rows, rows[::2], rows[:0]):
        np.testing.assert_array_equal(
            brush_hit_rows(centers, radii, packed, subset),
            brush_hit_rows_scalar(centers, radii, packed, subset),
        )


@st.composite
def polylines(draw, max_trajectories: int = 1) -> TrajectoryDataset:
    """Random polyline trajectories (1-32 connected segments each)."""
    trajs = []
    for _ in range(draw(st.integers(1, max_trajectories))):
        n = draw(st.integers(2, 33))
        pts = draw(hnp.arrays(np.float64, (n, 2), elements=_coord))
        trajs.append(Trajectory(pts, np.arange(float(n))))
    return TrajectoryDataset(trajs)


@given(polylines(max_trajectories=70), st.integers(1, 12))
@settings(max_examples=25, deadline=None)
def test_bitset_candidates_match_csr_oracle(dataset, res):
    """The pyramid's per-cell trajectory bitsets answer "which
    trajectories touch these cells" exactly as a CSR gather of the
    cells' member rows does."""
    packed = dataset.packed()
    pyramid = SummaryPyramid.build(packed, dataset, res=res, levels=(res,))
    for cells in (np.arange(res * res), np.arange(0, res * res, 3), np.arange(0)):
        want = np.zeros(len(dataset), dtype=bool)
        want[packed.owner[pyramid.rows_in_cells(cells)]] = True
        np.testing.assert_array_equal(pyramid.trajectories_in_cells(cells), want)


def _canvas(centers: np.ndarray, radii: np.ndarray) -> BrushCanvas:
    canvas = BrushCanvas()
    for c, r in zip(centers, radii):
        canvas.add(BrushStroke(c[None, :], float(r), "red"))
    return canvas


@given(polylines(), brushes())
@settings(max_examples=25, deadline=None)
def test_indexed_mask_matches_brute_force(dataset, brush):
    """Conservativeness end to end: pruning rows through the summary
    pyramid never changes the verdict of any segment."""
    centers, radii = brush
    canvas = _canvas(centers, np.maximum(radii, 1e-3))
    indexed = CoordinatedBrushingEngine(dataset)
    assert indexed.pyramid is not None
    linear = CoordinatedBrushingEngine(dataset, use_index=False)
    np.testing.assert_array_equal(
        indexed.query(canvas, "red").segment_mask,
        linear.query(canvas, "red").segment_mask,
    )


class TestDirectedCorners:
    def _packed(self, n=5):
        x = np.linspace(-1.0, 1.0, n)
        a = np.stack([x, np.zeros(n)], axis=1)
        b = np.stack([x, np.ones(n)], axis=1)
        return PackedSegments.from_arrays(
            a=a, b=b, t0=np.zeros(n), t1=np.ones(n),
            owner=np.zeros(n, dtype=np.int64),
            offsets=np.array([0, n], dtype=np.int64),
        )

    def test_empty_brush_hits_nothing(self):
        packed = self._packed()
        empty_c = np.empty((0, 2))
        empty_r = np.empty(0)
        rows = np.arange(packed.n_segments)
        assert not brush_hit_rows(empty_c, empty_r, packed, rows).any()
        assert not brush_hit_rows_scalar(empty_c, empty_r, packed, rows).any()

    def test_full_cover_brush_hits_everything(self):
        packed = self._packed()
        centers = np.array([[0.0, 0.5]])
        radii = np.array([100.0])
        rows = np.arange(packed.n_segments)
        assert brush_hit_rows(centers, radii, packed, rows).all()
        assert brush_hit_rows_scalar(centers, radii, packed, rows).all()

    def test_single_segment_cells(self):
        """A one-segment dataset: every occupied pyramid cell holds a
        single row, and both routes agree with the oracle."""
        dataset = TrajectoryDataset(
            [Trajectory(np.array([[-1.0, 0.0], [-1.0, 1.0]]), np.array([0.0, 1.0]))]
        )
        packed = dataset.packed()
        centers = np.array([[-1.0, 0.0]])
        radii = np.array([0.05])
        want = brush_hit_rows_scalar(centers, radii, packed, np.arange(1))
        canvas = _canvas(centers, radii)
        for use_index in (True, False):
            engine = CoordinatedBrushingEngine(dataset, use_index=use_index)
            np.testing.assert_array_equal(
                engine.query(canvas, "red").segment_mask, want
            )
