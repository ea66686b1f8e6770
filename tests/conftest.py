from pathlib import Path

import numpy as np
import pytest

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# The bundled six-waypoint demo route (data/demo_route.csv).
DEMO_ROUTE = [
    (121.47, 31.23, 10000.0),
    (123.00, 20.00, 50000.0),
    (135.00, 10.00, 50000.0),
    (170.00, 13.00, 50000.0),
    (180.00, -5.00, 50000.0),
    (200.00, -13.50, 50000.0),
]


# Finite keypoints whose differences overflow.
HUGE_ZIGZAG = [(1.5e308, 0, 0), (-1.5e308, 1, 0), (1.5e308, 2, 5)]


@pytest.fixture(scope="session")
def demo_pts() -> np.ndarray:
    return np.array(DEMO_ROUTE)


def chordal_arc_length(curve, s0=0.0, s1=1.0, n=10**6) -> float:
    """Independent brute-force arc-length oracle: dense chordal sum."""
    ss = np.linspace(s0, s1, n + 1)
    pts = curve.positions(ss)
    return float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())


def one_sided_tangents(curve, knot):
    """Left/right dP/ds limits at one interior knot index (1..N-2), from the
    per-segment coefficients.  The bezier is smooth, so both are its tangent."""
    n = curve.n_segments
    if curve.kind == "polyline":
        return n * curve._diffs[knot - 1], n * curve._diffs[knot]
    if curve.kind == "catmull_rom":
        return n * curve._m1[knot - 1], n * curve._m0[knot]
    t = curve.tangent(knot / n)
    return t, t
