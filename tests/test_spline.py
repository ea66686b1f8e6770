import math
import sys
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from searoam import geo, spline
from searoam.geo import PathTooShortError
from searoam.spline import (
    DEFAULT_TENSION,
    KINDS,
    ArcLengthError,
    PathCurve,
)

from conftest import (DATA_DIR, GOLDEN_DIR, chordal_arc_length, one_sided_tangents,
                      reference_speed_kinks)

# Full-range arc lengths of the demo-route curves, frozen from a
# 10^6-point chordal-sum oracle (see chordal_arc_length).
DEMO_ARC_CATMULL = 46004.603481
DEMO_ARC_POLYLINE = 40093.073015
DEMO_ARC_BEZIER = 40015.971418


def rel_err(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return np.linalg.norm(actual - expected) / max(1.0, np.linalg.norm(expected))


# --- single segment -------------------------------------------------------
# The catmull-rom curve through four points P0..P3 has the segment from P1
# to P2 with end tangents t*(P2 - P0) and t*(P3 - P1) in the middle: local
# u there is global s = (1 + u) / 3, so dP/ds = 3 dP/du.

def middle_s(u):
    return (1.0 + np.asarray(u, dtype=float)) / 3.0


def test_segment_midpoint_matches_hand_oracle():
    # m0 = m1 = (1, 0.5, 0); basis at u=0.5 is (0.5, 0.125, 0.5, -0.125),
    # giving (1.5, 0.5, 0) by direct evaluation.
    curve = PathCurve.catmull_rom([(0, 0, 0), (1, 0, 0), (2, 1, 0), (3, 1, 0)], 0.5)
    assert np.allclose(curve.position(middle_s(0.5)), [1.5, 0.5, 0.0], atol=1e-12)


def test_segment_interpolates_endpoints():
    curve = PathCurve.catmull_rom([(0, 1, 2), (3, -1, 4), (5, 5, 5), (9, 0, 1)], 0.7)
    assert np.array_equal(curve.position(middle_s(0.0)), np.array([3.0, -1.0, 4.0]))
    assert np.array_equal(curve.position(middle_s(1.0)), np.array([5.0, 5.0, 5.0]))


def test_segment_boundary_conditions_random():
    rng = np.random.default_rng(42)
    ends = middle_s([0.0, 1.0])
    for _ in range(1000):
        pts = rng.uniform(-10, 10, size=(4, 3))
        tension = rng.uniform(0.0, 1.0)
        curve = PathCurve.catmull_rom(pts, tension)
        m0 = tension * (pts[2] - pts[0])
        m1 = tension * (pts[3] - pts[1])
        start, end = curve.positions(ends)
        d_start, d_end = curve.tangents(ends)
        assert rel_err(start, pts[1]) <= 1e-12
        assert rel_err(end, pts[2]) <= 1e-12
        assert rel_err(d_start, 3.0 * m0) <= 1e-12
        assert rel_err(d_end, 3.0 * m1) <= 1e-12


def dist_to_chord(p, a, b):
    ab = b - a
    w = np.clip(np.dot(p - a, ab) / np.dot(ab, ab), 0.0, 1.0)
    return np.linalg.norm(p - (a + w * ab))


def test_zero_tension_collapses_to_chord():
    rng = np.random.default_rng(7)
    ss = middle_s(np.linspace(0.0, 1.0, 33))
    for _ in range(1000):
        pts = rng.uniform(-10, 10, size=(4, 3))
        curve = PathCurve.catmull_rom(pts, 0.0)
        for p in curve.positions(ss):
            assert dist_to_chord(p, pts[1], pts[2]) <= 1e-12


def test_segment_rejects_bad_inputs():
    with pytest.raises(ValueError):
        PathCurve.catmull_rom([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)], 1.5)
    with pytest.raises(ValueError):
        PathCurve.catmull_rom([(0, 0, math.nan), (1, 0, 0), (2, 0, 0), (3, 0, 0)], 0.5)
    with pytest.raises(ValueError, match=r"expected an \(N, 3\) point array, got shape \(3, 2\)"):
        PathCurve.catmull_rom([(0, 0), (1, 0), (2, 0)], 0.5)
    curve = PathCurve.catmull_rom([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)], 0.5)
    with pytest.raises(ValueError):
        curve.positions(1.1)


# --- endpoint policy ------------------------------------------------------

def test_phantom_endpoints_minimal_path():
    # The end keypoints are their own phantom neighbors, so the end tangents
    # are n_segments * t * (P1 - P0) and n_segments * t * (P[N-1] - P[N-2]).
    pts = np.array([(0.0, 0.0, 0.0), (1.0, 2.0, 3.0)])
    curve = PathCurve.catmull_rom(pts, 0.5)
    assert curve.n_segments == 1
    assert np.array_equal(curve.positions([0.0, 1.0]), pts)
    start, end = curve.tangents([0.0, 1.0])
    assert np.array_equal(start, 1 * (0.5 * (pts[1] - pts[0])))
    assert np.array_equal(end, 1 * (0.5 * (pts[1] - pts[0])))


def test_phantom_endpoints_counting():
    pts = np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 3.0, 0.0)])
    curve = PathCurve.catmull_rom(pts, 0.3)
    assert curve.n_segments == 2
    start, end = curve.tangents([0.0, 1.0])
    assert np.array_equal(start, 2 * (0.3 * (pts[1] - pts[0])))
    assert np.array_equal(end, 2 * (0.3 * (pts[2] - pts[1])))


def test_demo_route_has_five_segments(demo_pts):
    assert PathCurve.catmull_rom(demo_pts).n_segments == 5


def test_phantom_endpoints_too_short():
    with pytest.raises(PathTooShortError):
        PathCurve.catmull_rom([(0, 0, 0)])
    with pytest.raises(PathTooShortError):
        PathCurve.polyline([(0, 0, 0)])


# --- evaluation -----------------------------------------------------------

def test_catmull_interpolates_demo_route_knots(demo_pts):
    curve = PathCurve.catmull_rom(demo_pts)
    for k in range(6):
        assert np.linalg.norm(curve.position(k / 5) - demo_pts[k]) < 1e-9


def test_bezier_interpolates_only_endpoints(demo_pts):
    curve = PathCurve.bezier(demo_pts)
    assert np.linalg.norm(curve.position(0.0) - [121.47, 31.23, 10000.0]) < 1e-9
    assert np.linalg.norm(curve.position(1.0) - [200.00, -13.50, 50000.0]) < 1e-9
    # dense sampling keeps a strictly positive distance to interior keypoints
    pts = curve.positions(np.linspace(0, 1, 20001))
    for k in range(1, 5):
        assert np.linalg.norm(pts - demo_pts[k], axis=1).min() > 1e-3


def test_polyline_midpoint():
    curve = PathCurve.polyline([(0, 0, 0), (2, 4, 6)])
    assert np.allclose(curve.position(0.5), [1, 2, 3], atol=1e-12)


def test_eval_continuous_across_knots(demo_pts):
    eps = 1e-10
    for kind in KINDS:
        curve = PathCurve(kind, demo_pts, DEFAULT_TENSION)
        for k in range(1, 5):
            s = k / 5
            gap = np.linalg.norm(curve.position(s - eps) - curve.position(s + eps))
            assert gap < 1e-4  # |dP/ds| is ~2e5 at most, so 2*eps steps stay tiny


def test_eval_domain_errors(demo_pts):
    curve = PathCurve.catmull_rom(demo_pts)
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            curve.position(bad)
        with pytest.raises(ValueError):
            curve.tangent(bad)


def test_interpolation_property_random_keypoint_sets():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = rng.integers(2, 9)
        pts = rng.uniform(-1e3, 1e3, size=(n, 3))
        knots = np.linspace(0.0, 1.0, n)
        for kind in ("polyline", "catmull_rom"):
            curve = PathCurve(kind, pts, rng.uniform(0, 1))
            err = np.abs(curve.positions(knots) - pts).max()
            assert err < 1e-9


# --- tangents -------------------------------------------------------------

def test_catmull_interior_knot_tangent_is_scaled_neighbor_difference(demo_pts):
    tension = 0.5
    curve = PathCurve.catmull_rom(demo_pts, tension)
    for k in range(1, 5):
        expected = curve.n_segments * tension * (demo_pts[k + 1] - demo_pts[k - 1])
        assert rel_err(curve.tangent(k / 5), expected) <= 1e-12


def test_collinear_keypoints_tangent_parallel_to_line():
    pts = [(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)]
    direction = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
    for kind in KINDS:
        curve = PathCurve(kind, pts, 0.5)
        for s in np.linspace(0, 1, 17):
            t = curve.tangent(s)
            norm = np.linalg.norm(t)
            if norm == 0:
                continue
            assert np.linalg.norm(np.cross(t / norm, direction)) < 1e-12


def test_polyline_corner_tangent_tie_break():
    pts = [(0, 0, 0), (1, 0, 0), (1, 1, 0)]
    curve = PathCurve.polyline(pts)
    # at the corner knot the right-segment direction wins
    assert np.allclose(curve.tangent(0.5), [0, 2, 0], atol=1e-12)
    left, right = one_sided_tangents(curve, 1)
    assert np.allclose(left, [2, 0, 0], atol=1e-12)
    assert np.allclose(right, [0, 2, 0], atol=1e-12)
    cos_angle = np.dot(left, right) / (np.linalg.norm(left) * np.linalg.norm(right))
    assert abs(cos_angle) < 1e-12  # 90 degrees


def test_catmull_one_sided_tangents_agree(demo_pts):
    curve = PathCurve.catmull_rom(demo_pts)
    for k in range(1, 5):
        left, right = one_sided_tangents(curve, k)
        assert np.array_equal(left, right)


def test_tangent_matches_finite_differences(demo_pts):
    rng = np.random.default_rng(5)
    h = 1e-6
    for kind in KINDS:
        curve = PathCurve(kind, demo_pts, DEFAULT_TENSION)
        for _ in range(100):
            seg = rng.integers(0, 5)
            u = rng.uniform(0.05, 0.95)
            s = (seg + u) / 5
            fd = (curve.position(s + h) - curve.position(s - h)) / (2 * h)
            assert rel_err(curve.tangent(s), fd) < 1e-6


# --- arc length -----------------------------------------------------------

def test_arc_length_345_triangle():
    assert PathCurve.polyline([(0, 0, 0), (3, 4, 0)]).arc_length() == pytest.approx(5.0, abs=1e-12)


def test_arc_length_empty_interval(demo_pts):
    for kind in KINDS:
        assert PathCurve(kind, demo_pts, 0.5).arc_length(0.3, 0.3) == 0.0


def test_arc_length_domain_errors(demo_pts):
    curve = PathCurve.catmull_rom(demo_pts)
    with pytest.raises(ValueError):
        curve.arc_length(0.5, 0.2)
    with pytest.raises(ValueError):
        curve.arc_length(-0.1, 0.5)
    with pytest.raises(ValueError):
        curve.arc_length(0.0, 1.2)


def test_arc_length_additive(demo_pts):
    rng = np.random.default_rng(17)
    for kind in KINDS:
        curve = PathCurve(kind, demo_pts, DEFAULT_TENSION)
        for _ in range(5):
            a, b, c = np.sort(rng.uniform(0, 1, size=3))
            whole = curve.arc_length(a, c)
            split = curve.arc_length(a, b) + curve.arc_length(b, c)
            assert abs(whole - split) <= 1e-7 * max(whole, 1.0)


def test_demo_route_arc_lengths_match_frozen_oracle_values(demo_pts):
    frozen = {
        "polyline": DEMO_ARC_POLYLINE,
        "bezier": DEMO_ARC_BEZIER,
        "catmull_rom": DEMO_ARC_CATMULL,
    }
    for kind, expected in frozen.items():
        curve = PathCurve(kind, demo_pts, DEFAULT_TENSION)
        assert curve.arc_length() == pytest.approx(expected, rel=1e-9)
        # cross-check against a (reduced-density) chordal oracle
        assert chordal_arc_length(curve, n=10**5) == pytest.approx(expected, rel=1e-6)


def test_arc_length_partial_ranges_match_chordal_oracle(demo_pts):
    curve = PathCurve.catmull_rom(demo_pts)
    for s0, s1 in ((0.0, 0.1), (0.13, 0.57), (0.9, 1.0)):
        oracle = chordal_arc_length(curve, s0, s1, n=200_000)
        assert curve.arc_length(s0, s1) == pytest.approx(oracle, rel=1e-6)


def quad_arc_length(curve, s0=0.0, s1=1.0):
    """Reference arc length: scipy's quad of |dP/ds|, as the seed shipped it.

    Split at the catmull-rom knots, and at every root of every coordinate
    of dP/ds (found by interpolating each piece's polynomial at Chebyshev
    points), because |dP/ds| has a kink wherever the curve has a cusp and
    quad cannot see a kink near the end of its interval.
    """
    pieces, degree = ((curve.n_segments, 2) if curve.kind == "catmull_rom"
                      else (1, len(curve.keypoints) - 2))
    x = np.cos(np.pi * (np.arange(degree + 1) + 0.5) / (degree + 1))
    cuts = {s0, s1}
    for k in range(pieces):
        a, b = k / pieces, (k + 1) / pieces
        if b <= s0 or a >= s1:
            continue
        cuts.add(min(max(a, s0), s1))
        ss = a + (b - a) * (x + 1.0) / 2.0
        for coord in curve.tangents(ss).T:
            if degree > 0 and coord.any():
                roots = np.polynomial.Polynomial.fit(ss, coord, degree, domain=[a, b]).roots()
                cuts.update(r for r in roots.real if s0 < r < s1)
    cuts = sorted(cuts)
    speed = lambda s: float(np.linalg.norm(curve.tangent(s)))
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for a, b in zip(cuts[:-1], cuts[1:]):
            total += quad(speed, a, b, epsabs=1e-12, epsrel=1e-10, limit=200)[0]
    return total


coord = st.floats(-1e3, 1e3)


@st.composite
def routes(draw, max_points, coords=coord, min_points=2):
    """Keypoint arrays with repeated consecutive keypoints and, half the
    time, all on the x axis, where reversals make cusps."""
    pts = np.array(draw(st.lists(st.tuples(coords, coords, coords),
                                 min_size=min_points, max_size=max_points)))
    repeats = draw(st.lists(st.integers(1, 3), min_size=len(pts), max_size=len(pts)))
    pts = np.repeat(pts, repeats, axis=0)[:max(max_points, 2)]
    if draw(st.booleans()):
        pts[:, 1:] = 0.0
    return pts


@st.composite
def ranges(draw):
    s0, s1 = sorted((draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))))
    return draw(st.sampled_from([(0.0, 1.0), (s0, s1)]))


@settings(max_examples=60, deadline=None)
@given(pts=routes(200), tension=st.sampled_from([0.0, 0.5, 1.0]), s=ranges())
@example(pts=np.array([(0, 0, 0), (1, 2, 0), (3, 1, 1)], dtype=float), tension=0.5,
         s=(0.0, 5e-324))  # a subnormal span overflows the error budget per unit width
def test_catmull_arc_length_matches_quad_reference(pts, tension, s):
    curve = PathCurve.catmull_rom(pts, tension)
    assert curve.arc_length(*s) == pytest.approx(quad_arc_length(curve, *s), rel=1e-8, abs=1e-10)


# A near-cusp at s = 0.309, where y and z cross zero 5e-5 apart and x is
# small.  It sits at the ends of the intervals cut there, where a
# Gauss-Legendre rule has no node: that rule came out 1e-8 short.
NEAR_CUSP_BEZIER = np.array([(0, 988, 808)] + [(0, 0, 0)] * 5 + [(0, 988, 809)] * 3
                            + [(254, 0, 0)], dtype=float)


@settings(max_examples=60, deadline=None)
@given(pts=routes(12), s=ranges())
@example(pts=NEAR_CUSP_BEZIER, s=(0.0, 1.0))
def test_bezier_arc_length_matches_quad_reference(pts, s):
    curve = PathCurve.bezier(pts)
    assert curve.arc_length(*s) == pytest.approx(quad_arc_length(curve, *s), rel=1e-8, abs=1e-10)


# Repeated control points.  On the speed-kink interval [0.412, 0.99996] the
# whole Lobatto estimate and the sum of its halves agree to 2e-9 relative,
# yet both are 2.2e-4 (2.5e-7 relative) short, so the bisection accepts
# them at its first level.
REPEATED_BEZIER = np.array([(-898, 0, 9)] * 2 + [(233, 0, -111)] * 2 + [(203, 0, -111)] * 3
                           + [(0, 167, 0)] * 2 + [(-598, 167, 314)] * 3, dtype=float)
# Nine control points that test_bezier_arc_length_matches_quad_reference
# drew at random: 3.9e-5 (6.5e-8 relative) short.
REPEATED_BEZIER_9 = np.array([(0, 0, 0)] * 2 + [(0, 362, 180)] * 3 + [(15, 0.25, 0)] * 2
                             + [(25, 0, 0), (0, 0, 0)], dtype=float)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the adaptive quadrature accepts two estimates that are both short")
@pytest.mark.parametrize("pts", [REPEATED_BEZIER, REPEATED_BEZIER_9], ids=["12", "9"])
def test_bezier_arc_length_with_repeated_control_points(pts):
    curve = PathCurve.bezier(pts)
    assert curve.arc_length() == pytest.approx(quad_arc_length(curve, 0.0, 1.0), rel=1e-8, abs=1e-10)


def exact_bernstein(coefs, t):
    """The polynomial with Bernstein coefficients coefs at t, in exact rationals."""
    t, b = Fraction(float(t)), [Fraction(float(x)) for x in coefs]
    for _ in range(len(b) - 1):
        b = [(1 - t) * x + t * y for x, y in zip(b, b[1:])]
    return b[0]


# A kink on a knot: x' is 30 (1 - s)^3 (5 s - 1), zero at the knot s = 0.2.
# A kink found a few ulps off it would leave a sliver interval beside it.
KNOT_KINK_BEZIER = np.array([(4, 0, 0), (-2, -4, 1)] + [(4, 2, -2)] * 3 + [(4, -2, 2)],
                            dtype=float)
REVERSING_BEZIER = np.array([(x, 0, 0) for x in (0, 3, -1, 2, 0.5, 0.5, 4)], dtype=float)
FLAT_BEZIER = np.array([(0, 0, 5), (1, 2, 5), (3, -1, 5), (4, 1, 5), (2, 2, 5)], dtype=float)
# x' has a root 1e-24 past the first midpoint, s = 0.5, so the value there
# rounds to 0 or to -4e-24 by the order of the sum.
MIDPOINT_ROOT_BEZIER = np.array([(x, 0, 0) for x in (0, 0, -1, 0, -3.12657482e-23)])


@settings(max_examples=60, deadline=None)
@given(pts=routes(100, min_points=3))
@example(pts=REPEATED_BEZIER)
@example(pts=NEAR_CUSP_BEZIER)
@example(pts=KNOT_KINK_BEZIER)
@example(pts=REVERSING_BEZIER)
@example(pts=FLAT_BEZIER)
@example(pts=MIDPOINT_ROOT_BEZIER)
def test_bezier_kinks_hold_every_sign_change(pts):
    curve = PathCurve.bezier(pts)
    with warnings.catch_warnings(), \
            mock.patch.object(spline, "_sign_changes", wraps=spline._sign_changes) as examined:
        warnings.simplefilter("error")
        kinks = np.sort(curve._speed_kinks())
    assert np.all((kinks > 0.0) & (kinks < 1.0))
    # Each halving adds two pieces to the k nonzero coordinates, of degree m.
    k, m = np.count_nonzero(np.diff(pts, axis=0).any(axis=0)), len(pts) - 2
    assert examined.call_count <= k + 2 * spline._KINK_DEPTH * (k * m // 2)
    # Every sign change of a coordinate of dP/ds on a fine grid holds a kink.
    grid = np.linspace(0.0, 1.0, 4097)
    signs = np.sign(curve.tangents(grid))
    for coord in signs.T:
        change = np.flatnonzero(coord[:-1] * coord[1:] < 0.0)
        first = np.searchsorted(kinks, grid[change] - 1e-9)
        assert np.all(first < len(kinks))
        assert np.all(kinks[first] <= grid[change + 1] + 1e-9)
    # Every simple root of the Chebyshev search, 1e-6 from any other, to 1e-12:
    # a coordinate, scaled to its largest coefficient, changes sign across it
    # with slope at least 0.1.  Where they differ by more, the Chebyshev root
    # must be the less accurate one: its exact residual is the larger.
    reference = np.sort(reference_speed_kinks(curve))
    diffs = np.diff(pts, axis=0)
    for i, root in enumerate(reference):
        if np.any(np.abs(np.delete(reference, i) - root) <= 1e-6) or not 1e-6 < root < 1.0 - 1e-6:
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            below, above = curve.tangents([root - 1e-6, root + 1e-6]) / np.abs(diffs).max(axis=0)
        for a in np.flatnonzero((below * above < 0.0) & (np.minimum(abs(below), abs(above)) >= 1e-7)):
            nearest = kinks[np.abs(kinks - root).argmin()]
            if abs(nearest - root) > 1e-12:
                assert abs(exact_bernstein(diffs[:, a], nearest)) <= abs(exact_bernstein(diffs[:, a], root))


def test_bezier_kinks_of_1100_keypoints_stay_finite():
    pts = np.cumsum(np.random.default_rng(11).uniform(-1.0, 1.0, (1100, 3)), axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning either
        kinks = PathCurve.bezier(pts)._speed_kinks()
    assert len(kinks) and np.all((kinks > 0.0) & (kinks < 1.0))
    # The recurrence's weights stay in [0, 1] at any degree, so 2000
    # coefficients give de Casteljau's value, with no overflowing term.
    c = np.random.default_rng(12).uniform(-1.0, 1.0, 2000)
    coefs = c.tolist()
    for t in (0.3, 0.5, 0.7):
        b = c.copy()
        for _ in range(1999):
            b = (1.0 - t) * b[:-1] + t * b[1:]
        assert spline._wozny_chudy(coefs, (1.0 - t) / t, coefs[0]) == pytest.approx(b[0], abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(c=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=81),
       t=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_kink_search_evaluates_like_the_curve(c, t):
    # The kink search's scalar values are the bezier's x coordinate, bit for bit.
    value = spline._wozny_chudy(c, (1.0 - t) / t, c[0])
    x = PathCurve.bezier([(x, 0.0, 0.0) for x in c]).position(t)[0] if len(c) > 1 else c[0]
    assert np.float64(value).tobytes() == np.float64(x).tobytes()


def test_kink_search_cuts_at_the_midpoint_past_its_depth():
    # x' is 3 (10 s^2 - 10 s + 2), with two roots, so x's Bernstein
    # coefficients change sign twice.  At depth 0 the search halves nothing:
    # it cuts the piece at its midpoint, and the quadrature still converges.
    curve = PathCurve.bezier([(0, 0, 0), (2, 1, 0), (-1, 2, 0), (1, 3, 0)])
    with mock.patch.object(spline, "_KINK_DEPTH", 0):
        kinks = curve._speed_kinks()
        length = curve.arc_length()
    assert np.all((kinks > 0.0) & (kinks < 1.0)) and kinks.tolist() == [0.5]
    assert length == pytest.approx(chordal_arc_length(curve), rel=1e-6)


def test_kink_on_a_knot_is_one_cut():
    curve = PathCurve.bezier(KNOT_KINK_BEZIER)
    knots = curve.grid(1)
    cuts = spline._cuts(knots, curve._speed_kinks())
    assert np.isin(knots, cuts).all()
    assert np.all(np.diff(cuts) > 4.0 * np.spacing(cuts[1:]))


def test_cuts_keep_every_knot_and_merge_kinks_within_4_ulps():
    ulp = np.spacing(0.5)
    knots = np.array([0.0, 0.5, 0.5 + ulp, 1.0])
    kinks = np.array([0.5 - 4 * ulp, 0.5 + 2 * ulp, 0.5 + 6 * ulp, 0.5 + 11 * ulp, 0.25, 0.25,
                      0.75, 0.75 + 4 * ulp, 0.75 + 8 * ulp])
    expected = [0.0, 0.25, 0.5, 0.5 + ulp, 0.5 + 11 * ulp, 0.75, 1.0]
    assert spline._cuts(knots, kinks).tolist() == expected


@settings(max_examples=100, deadline=None)
@given(pts=routes(30, st.floats(allow_nan=False, allow_infinity=False)),
       kind=st.sampled_from(KINDS), tension=st.sampled_from([0.0, 0.5, 1.0]),
       s=ranges())
def test_arc_length_is_finite_or_named_error(pts, kind, tension, s):
    with np.errstate(all="ignore"):
        curve = PathCurve(kind, pts, tension)
        try:
            length = curve.arc_length(*s)
        except ArcLengthError:
            return
    assert math.isfinite(length) and length >= 0.0


def test_arc_length_speed_overflow_is_named_error():
    pts = [(-1e308, 0, 0), (1e308, 0, 0), (-1e308, 1e308, 0), (1e308, -1e308, 1e308)]
    tracemalloc.start()
    try:
        for kind in KINDS:
            with np.errstate(all="ignore"), pytest.raises(ArcLengthError,
                                                          match="^path length overflows"):
                PathCurve(kind, pts).arc_length()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # raised on the first quadrature pass


def test_polyline_arc_length_overflow_is_named_error_and_shares_no_later_chord():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        there_and_back = PathCurve.polyline([[0, 0, 0], [1.7e308, 0, 0], [-1.7e308, 0, 0]])
        twice_out = PathCurve.polyline([[0, 0, 0], [1e308, 0, 0], [0, 0, 0], [1e308, 0, 0]])
        # The second chord's length is not finite; s1 = 0.5 is on its knot.
        assert there_and_back.arc_length(0.0, 0.5) == 1.7e308
        for curve in (there_and_back, twice_out):
            with pytest.raises(ArcLengthError, match="^path length overflows"):
                curve.arc_length()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [0, 3, 8])
def test_arc_length_of_huge_finite_curve(kind, k):
    # Squares of these coordinates overflow, the length does not.
    unit = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0.5, 2, 1)], dtype=float)
    scale = 2.0**k * 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        length = PathCurve(kind, unit * scale).arc_length()
    expected = PathCurve(kind, unit).arc_length() * scale
    assert math.isfinite(length)
    assert length == pytest.approx(expected, rel=spline.ARC_LENGTH_REL_TOL)


# Row components over the whole float range: zeros of both signs,
# subnormals, and magnitudes whose squares overflow or underflow.
norm_value = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.0**-1022, 2.0**-500, 1e154, -1e300, 1.5e308, sys.float_info.max])


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(norm_value, norm_value, norm_value), min_size=1, max_size=20))
@example(rows=[(1e300, -1e300, 5.0), (5e-324, -0.0, 0.0), (-0.0, -0.0, -0.0),
               (1.5e308, 1.5e308, 0.0)])
def test_row_norms_keep_plain_bits_and_rescale_overflow(rows):
    v = np.array(rows)
    with np.errstate(over="ignore"):
        plain = np.linalg.norm(v, axis=1)
        dot = np.sqrt(spline._rowdot(v, v))
    # Its own plain norm, or the caller's: bit for bit wherever finite.
    for given_norms, expected in ((None, plain), (dot.copy(), dot)):
        norms = spline._row_norms(v, given_norms)
        finite = np.isfinite(expected)
        assert norms[finite].tobytes() == expected[finite].tobytes()
        for row, norm in zip(rows, norms.tolist()):
            true = math.hypot(*row)
            if 2.0**-500 <= true <= sys.float_info.max:
                assert abs(norm - true) <= 4 * math.ulp(true)


# The squares of components below about 1e-154 underflow, and _row_norms
# recomputes only the rows whose plain norm overflows.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the square of a 1e-300 chord underflows to 0")
def test_arc_length_of_a_1e_300_chord():
    length = PathCurve("polyline", [[0.0, 0.0, 0.0], [1e-300, 0.0, 0.0]]).arc_length()
    assert length == pytest.approx(1e-300, rel=1e-12, abs=0.0)


def lobatto_rule(n):
    """n-point Gauss-Lobatto nodes and weights on [-1, 1], from numpy's
    Legendre polynomials: both ends and the roots of P'_{n-1}, the
    derivative of the Legendre polynomial of degree n-1; the rule is exact
    to degree 2n-3."""
    legendre = np.polynomial.legendre.Legendre.basis(n - 1)
    x = np.concatenate(([-1.0], np.sort(legendre.deriv().roots()), [1.0]))
    return x, 2.0 / (n * (n - 1) * legendre(x) ** 2)


def test_lobatto_literals_equal_the_legendre_rule():
    nodes, weights = lobatto_rule(len(spline._LOBATTO_NODES))
    assert spline._LOBATTO_NODES.tobytes() == nodes.tobytes()
    assert spline._LOBATTO_WEIGHTS.tobytes() == weights.tobytes()


def test_arc_length_subdivision_bounds(monkeypatch, demo_pts):
    curve = PathCurve.catmull_rom(demo_pts)
    monkeypatch.setattr(spline, "ARC_LENGTH_MAX_INTERVALS", 8)
    with pytest.raises(ArcLengthError, match="more than 8 quadrature intervals"):
        curve.arc_length()
    monkeypatch.undo()
    monkeypatch.setattr(spline, "ARC_LENGTH_MAX_DEPTH", 2)
    with pytest.raises(ArcLengthError, match="within 2 interval halvings"):
        curve.arc_length()


@pytest.mark.parametrize("kind, xs, tension", [
    ("catmull_rom", [3.8, -4.3, 3.3], 0.5),  # cusp at u = 0.0064 of segment 1
    ("bezier", [0.0, 1.0, 0.99699], None),  # cusp at u = 0.997
])
def test_arc_length_counts_cusps_near_interval_ends(kind, xs, tension):
    # Collinear keypoints that reverse: |dP/ds| has a kink so close to the
    # end of its span that a quadrature over the span has no node beyond it.
    curve = PathCurve(kind, [(x, 0.0, 0.0) for x in xs], tension or DEFAULT_TENSION)
    assert curve.arc_length() == pytest.approx(chordal_arc_length(curve, n=10**6), rel=1e-9)


def test_arc_length_tolerance_scales_with_the_curve():
    # A near-collinear route has near-cusps on most segments.  The error
    # budget is relative to the whole length, so scaling the keypoints by a
    # power of two scales the result exactly, with no subdivision blow-up.
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, size=(1000, 3))
    pts[:, 1:] *= 1e-6
    length = PathCurve.catmull_rom(pts).arc_length()
    assert PathCurve.catmull_rom(pts * 2.0**332).arc_length() == length * 2.0**332


def reference_de_casteljau(control, u):
    """Bezier positions and derivatives by the unblocked (len(u), n+1, 3)
    de Casteljau recursion, the bits searoam's bezier had before its
    linear-time evaluation."""
    n = len(control) - 1
    b = np.broadcast_to(control, (len(u), n + 1, 3)).copy()
    w = u[:, None, None]
    for step in range(n - 1):
        m = n - step
        b[:, :m, :] = (1.0 - w) * b[:, :m, :] + w * b[:, 1:m + 1, :]
    if n >= 1:
        deriv = n * (b[:, 1, :] - b[:, 0, :])
        pos = (1.0 - u[:, None]) * b[:, 0, :] + u[:, None] * b[:, 1, :]
    else:
        deriv = np.zeros((len(u), 3))
        pos = b[:, 0, :].copy()
    return pos, deriv


@settings(max_examples=100, deadline=None)
@given(pts=routes(40), extra=st.lists(st.floats(0.0, 1.0), max_size=30),
       rows=st.sampled_from([1, 7]), scale=st.floats(0.1, 10.0))
def test_bezier_blocks_match_single_block(pts, extra, rows, scale):
    curve = PathCurve.bezier(pts * scale)
    ss = np.concatenate((curve.grid(3), extra))
    single = curve.positions(ss), curve.tangents(ss)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spline, "EVAL_ROWS", rows)
        blocked = curve.positions(ss), curve.tangents(ss)
    assert blocked[0].tobytes() == single[0].tobytes()
    assert blocked[1].tobytes() == single[1].tobytes()


@settings(max_examples=100, deadline=None)
@given(pts=routes(40), scale=st.floats(0.1, 10.0))
def test_bezier_ends_are_exact(pts, scale):
    # The ends give the first and last keypoints, and de Casteljau's
    # tangents there, n (P_1 - P_0) and n (P_n - P_{n-1}); signed zeros
    # compare equal.
    curve = PathCurve.bezier(pts * scale)
    ends = np.array([0.0, 1.0])
    assert np.array_equal(curve.positions(ends), curve.keypoints[[0, -1]])
    assert np.array_equal(curve.tangents(ends), reference_de_casteljau(curve.keypoints, ends)[1])


# de Casteljau's points carry at most about 4 n u max|P| (u = 2^-53): four
# roundings per level, carried on through convex combinations.  The
# recurrence's carry about as much: its rounded differences, products and
# sums, and h's relative error, which each step damps by 1 - h_k.  Their
# tangents differ by about n times that, because de Casteljau's n (b_1 - b_0)
# multiplies both points' errors by n.  3000 hypothesis examples came to at
# most 3.6 and 2.8 of the units below, and 3000 seeded polygons to 4.5 and
# 4.4, at degrees 1 and 2; from degree 5 on, to at most 1.4.
@settings(max_examples=60, deadline=None)
@given(pts=routes(40), n_params=st.integers(1, 2000), seed=st.integers(0, 2**32 - 1))
def test_bezier_within_bound_of_de_casteljau(pts, n_params, seed):
    curve = PathCurve.bezier(pts)
    u = np.random.default_rng(seed).uniform(0.0, 1.0, n_params)
    u[0], u[-1] = 0.0, 1.0
    positions, tangents = reference_de_casteljau(curve.keypoints, u)
    n, unit = curve.n_segments, 2.0**-53 * np.abs(curve.keypoints).max()
    assert np.abs(curve.positions(u) - positions).max() <= 8 * n * unit
    assert np.abs(curve.tangents(u) - tangents).max() <= 8 * n * n * unit


def exact_bezier(control, ts):
    """Bezier positions and derivatives, each coordinate the correctly
    rounded value of a 40-digit Bernstein sum over the exact control points."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        points = [[mpmath.mpf(x) for x in row] for row in control.tolist()]
        n = len(points) - 1
        curves = ((points, 1), ([[b - a for a, b in zip(p, q)] for p, q in zip(points, points[1:])], n))
        out = ([], [])
        for t in map(mpmath.mpf, ts.tolist()):
            for rows, (coefs, factor) in zip(out, curves):
                m = len(coefs) - 1
                powers, co_powers = [mpmath.mpf(1)], [mpmath.mpf(1)]
                for _ in range(m):
                    powers.append(powers[-1] * t)
                    co_powers.append(co_powers[-1] * (1 - t))
                weights = [factor * math.comb(m, i) * powers[i] * co_powers[m - i] for i in range(m + 1)]
                rows.append([float(mpmath.fsum(w * row[c] for w, row in zip(weights, coefs)))
                             for c in range(3)])
    return np.array(out[0]), np.array(out[1])


def test_bezier_no_farther_from_exact_than_de_casteljau():
    # Seeded random walks of 3..40 keypoints, offset from the origin as a
    # projected route is, and the bundled routes.  Errors are in units of
    # 2^-52 max|P| for positions and 2^-52 n max|P_{i+1} - P_i| (a bound on
    # |dP/ds|) for tangents.  On these 41 routes de Casteljau's largest
    # tangent error is 351 units, from the cancellation in n (b_1 - b_0),
    # against 1.9 here.  Positions: 1.47 units on average against 1.60, and
    # the same largest error, 2.8 units; route by route either scheme can be
    # the closer, by up to 1.4 units.
    rng = np.random.default_rng(2024)
    fixed = [np.cumsum(rng.uniform(-1.0, 1.0, (n, 3)), axis=0) * 10.0 + rng.uniform(-1e3, 1e3, 3)
             for n in range(3, 41)]
    fixed += [geo.project(geo.load_keypoints(path.read_text()))
              for path in (DATA_DIR / "demo_route.csv", GOLDEN_DIR / "compare_corridor" / "route.csv",
                           GOLDEN_DIR / "sim_spread" / "route.csv")]
    errors = []  # per route, for positions and tangents: (recurrence, de Casteljau)
    for pts in fixed:
        curve = PathCurve.bezier(pts)
        ss = rng.uniform(0.0, 1.0, 40)
        units = (2.0**-52 * np.abs(pts).max(),
                 2.0**-52 * curve.n_segments * np.abs(np.diff(pts, axis=0)).max())
        ours = curve.positions(ss), curve.tangents(ss)
        errors.append([[np.abs(v - x).max() / unit for v in (new, ref)]
                       for new, ref, x, unit in zip(ours, reference_de_casteljau(pts, ss),
                                                    exact_bezier(pts, ss), units)])
    for schemes in np.array(errors).transpose(1, 2, 0):  # positions, then tangents
        assert schemes[0].max() <= schemes[1].max() and schemes[0].mean() <= schemes[1].mean()


def test_bezier_evaluation_memory_does_not_grow_with_the_keypoints():
    # de Casteljau held two (N, rows, 3) arrays: a 39.6 MB peak here.
    curve = PathCurve.bezier(np.cumsum(np.random.default_rng(7).uniform(-1.0, 1.0, (200, 3)), axis=0))
    ss = np.random.default_rng(8).uniform(0.0, 1.0, 4096)
    tracemalloc.start()
    try:
        curve.positions(ss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def reference_evaluate(curve, ss, deriv):
    """The out-of-place polyline and catmull-rom expressions the in-place
    PathCurve._evaluate replaced."""
    idx, u = curve._locate(ss)
    if curve.kind == "polyline":
        if deriv:
            return curve.n_segments * curve._diffs[idx]
        return curve._starts[idx] + u[:, None] * curve._diffs[idx]
    h00, h10, h01, h11 = (spline._hermite_weights_deriv if deriv
                          else spline._hermite_weights)(u)
    p = (h00[:, None] * curve._p0[idx] + h10[:, None] * curve._m0[idx]
         + h01[:, None] * curve._p1[idx] + h11[:, None] * curve._m1[idx])
    return curve.n_segments * p if deriv else p


@settings(max_examples=80, deadline=None)
@given(pts=routes(40), kind=st.sampled_from(["polyline", "catmull_rom"]),
       tension=st.sampled_from([0.0, 0.5, 1.0]), samples=st.integers(1, 70),
       extra=st.lists(st.floats(0.0, 1.0), max_size=30), rows=st.sampled_from([1, 7, 4096]),
       scale=st.floats(0.1, 10.0))
def test_in_place_evaluation_equals_reference(pts, kind, tension, samples, extra, rows, scale):
    # The scale makes the keypoints inexact floats, so sums round.
    curve = PathCurve(kind, pts * scale, tension)
    ss = np.concatenate((curve.grid(samples), extra))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spline, "EVAL_ROWS", rows)
        positions, tangents = curve.positions(ss), curve.tangents(ss)
    assert positions.tobytes() == reference_evaluate(curve, ss, False).tobytes()
    assert tangents.tobytes() == reference_evaluate(curve, ss, True).tobytes()


# --- whole-curve properties -----------------------------------------------

def test_affine_invariance():
    rng = np.random.default_rng(23)
    base = rng.uniform(0, 10, size=(6, 3))
    ss = rng.uniform(0, 1, size=40)
    for kind in KINDS:
        curve = PathCurve(kind, base, DEFAULT_TENSION)
        for _ in range(10):
            mat = rng.uniform(-2, 2, size=(3, 3))
            shift = rng.uniform(-5, 5, size=3)
            mapped = PathCurve(kind, base @ mat.T + shift, DEFAULT_TENSION)
            expected = curve.positions(ss) @ mat.T + shift
            assert np.abs(mapped.positions(ss) - expected).max() < 1e-9


def test_curve_constructor_validation(demo_pts):
    with pytest.raises(ValueError):
        PathCurve("spiral", demo_pts)
    with pytest.raises(ValueError):
        PathCurve.catmull_rom(demo_pts, tension=-0.2)
    with pytest.raises(ValueError):
        PathCurve.polyline([(0, 0, np.inf), (1, 1, 1)])


def test_keypoints_are_immutable(demo_pts):
    curve = PathCurve.catmull_rom(demo_pts)
    with pytest.raises(ValueError):
        curve.keypoints[0, 0] = 99.0
