"""Scalar reference kernels for the query fast paths.

:func:`brush_hit_rows_scalar` is the straightforward form of
:func:`repro.core.aggregate.kernels.brush_hit_rows`: one segment × one
stamp at a time through the same ``point_segment_distance`` kernel and
the same ``d <= radius`` comparison.  The vectorized kernel decides
every row with the identical float expression, so the tests compare
the two with ``np.array_equal`` — no tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.trajectory.dataset import PackedSegments
from repro.util.geometry import point_segment_distance


def brush_hit_rows_scalar(
    centers: np.ndarray,
    radii: np.ndarray,
    packed: PackedSegments,
    rows: np.ndarray,
) -> np.ndarray:
    """Per-row, per-stamp capsule hit-test over ``rows``."""
    rows = np.asarray(rows, dtype=np.int64)
    out = np.zeros(len(rows), dtype=bool)
    for i, r in enumerate(rows):
        for c, rad in zip(centers, radii):
            if float(point_segment_distance(c, packed.a[r], packed.b[r])) <= rad:
                out[i] = True
                break
    return out
