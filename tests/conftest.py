from pathlib import Path

import numpy as np
import pytest

from searoam import stats

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


def reference_speed_kinks(curve) -> np.ndarray:
    """The bezier kink search that Bernstein subdivision replaced: each
    coordinate of dP/ds interpolated at N-1 Chebyshev points and solved by
    numpy's colleague matrix, roots with |imag| <= 1e-6 taken as real."""
    degree = len(curve.keypoints) - 2
    x = np.polynomial.chebyshev.chebpts1(degree + 1)
    tan = curve.tangents((x + 1.0) / 2.0)
    if degree < 1 or not np.all(np.isfinite(tan)):
        return np.empty(0)
    roots = np.concatenate([  # each coordinate scaled to 1, so the fit cannot overflow
        np.polynomial.Chebyshev.fit(x, coord / np.abs(coord).max(), degree,
                                    domain=[-1.0, 1.0]).roots()
        for coord in tan.T if coord.any()
    ] + [np.empty(0)])
    u = (roots.real[np.abs(roots.imag) <= 1e-6] + 1.0) / 2.0
    return u[(u > 0.0) & (u < 1.0)]


def reference_ks_rows(z, ndtr=None):
    """Row-wise K-S statistic against the normal fitted to each row, unblocked:
    the CDF (the program's own, or the given ndtr) at every rank."""
    n = z.shape[1]
    z = (z - z.mean(axis=1, keepdims=True)) / z.std(axis=1, ddof=1, keepdims=True)
    z.sort(axis=1)
    cdf = (ndtr or stats._ndtr)(z)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return np.maximum((hi - cdf).max(axis=1), (cdf - lo).max(axis=1))


def reference_lilliefors_null(n, replicates, seed):
    """The sorted Lilliefors null: one (replicates, n) draw, reduced at once."""
    d = reference_ks_rows(np.random.default_rng(seed).standard_normal((replicates, n)))
    d.sort()
    return d


def reference_exceedances(d, null):
    """#{null >= d} in a sorted null."""
    return len(null) - int(np.searchsorted(null, d, side="left"))


def reference_pvalue(d, null):
    """Add-one Monte-Carlo p-value (1 + #{null >= d}) / (B + 1) against a sorted null."""
    return (1 + reference_exceedances(d, null)) / (len(null) + 1)
