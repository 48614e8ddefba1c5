"""Spatial candidate selection.

:class:`UniformGridIndex` survives only as a build the interaction
benchmark times, so its tests cover construction.  Brush queries now
select candidate segments through the summary pyramid: a leaf cell is a
candidate unless :func:`classify_spatial` proves it all-out, and the
candidate rows are the member rows of those cells.  The candidate tests
pin that selection's contract — conservative, selective, exact at the
extremes, and independent of the grid resolution.
"""

import numpy as np
import pytest

from repro.core.aggregate import OUT, SummaryPyramid, classify_spatial
from repro.core.brush import BrushStroke
from repro.core.canvas import BrushCanvas
from repro.core.engine import CoordinatedBrushingEngine
from repro.core.spatial_index import UniformGridIndex


@pytest.fixture()
def index(study_dataset):
    return UniformGridIndex(study_dataset.packed(), res=32)


@pytest.fixture(scope="module")
def pyramid(study_dataset):
    return SummaryPyramid.build(study_dataset.packed(), study_dataset)


def candidates(pyramid, centers, radii):
    """Member rows of every leaf cell not classified all-out."""
    cls = classify_spatial(pyramid, centers, radii)
    return pyramid.rows_in_cells(np.flatnonzero(cls != OUT))


class TestConstruction:
    def test_validation(self, study_dataset):
        with pytest.raises(ValueError):
            UniformGridIndex(study_dataset.packed(), res=0)

    def test_every_segment_registered(self, index, study_dataset):
        packed = study_dataset.packed()
        assert len(index._offsets) == index.res * index.res + 1
        assert index._offsets[-1] == len(index._entries)
        assert set(np.unique(index._entries)) == set(range(packed.n_segments))

    def test_duplication_factor_modest(self, index, study_dataset):
        # short ant steps vs. arena-scale cells: near 1
        factor = len(index._entries) / study_dataset.packed().n_segments
        assert 1.0 <= factor < 1.6


class TestCandidates:
    def test_conservative_never_misses(self, pyramid, study_dataset):
        """Candidates are a superset of true hits for any brush."""
        rng = np.random.default_rng(0)
        canvas = BrushCanvas()
        canvas.add(BrushStroke(rng.uniform(-0.4, 0.4, (5, 2)), 0.08, "red"))
        centers, radii = canvas.stamps_of("red")
        cand = candidates(pyramid, centers, radii)
        packed = study_dataset.packed()
        true_hits = np.flatnonzero(canvas.packed_hit_mask("red", packed))
        assert set(true_hits).issubset(set(cand))

    def test_selective_for_small_brush(self, pyramid, study_dataset):
        centers = np.array([[0.45, 0.0]])
        radii = np.array([0.02])
        cand = candidates(pyramid, centers, radii)
        assert len(cand) / study_dataset.packed().n_segments < 0.35

    def test_empty_stamps(self, pyramid):
        cand = candidates(pyramid, np.empty((0, 2)), np.empty(0))
        assert len(cand) == 0

    def test_giant_disc_returns_everything(self, pyramid, study_dataset):
        cand = candidates(pyramid, np.array([[0.0, 0.0]]), np.array([10.0]))
        assert len(cand) == study_dataset.packed().n_segments
        assert len(np.unique(cand)) == len(cand)


class TestResolutionInvariance:
    def test_hits_independent_of_resolution(self, study_dataset):
        packed = study_dataset.packed()
        canvas = BrushCanvas()
        canvas.add(BrushStroke(np.array([[-0.3, 0.2]]), 0.1, "red"))
        truth = canvas.packed_hit_mask("red", packed)
        for res in (4, 16, 64):
            pyr = SummaryPyramid.build(packed, study_dataset, res=res, levels=(res,))
            engine = CoordinatedBrushingEngine(study_dataset, pyramid=pyr)
            result = engine.query(canvas, "red")
            assert result.trace.strategy == "aggregate"
            np.testing.assert_array_equal(result.segment_mask, truth)
