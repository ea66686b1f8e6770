import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from searoam import camera
from searoam.camera import (
    VIEW_MODELS,
    DegenerateViewError,
    ViewOverflowError,
    smoothness,
    view_direction,
)
from searoam.spline import KINDS, PathCurve


def angle_between(u, v):
    """Angle in [0, pi] between two nonzero vectors, stable for tiny angles:
    the per-knot corner angle that smoothness replaced with an array pass."""
    cross = np.linalg.norm(np.cross(u, v))
    dot = float(np.dot(u, v))
    return float(np.arctan2(cross, dot))


def test_straight_two_point_path_both_modes():
    curve = PathCurve.polyline([(0, 0, 0), (3, 4, 0)])
    expected = np.array([0.6, 0.8, 0.0])
    for model in ("next_node", "tangent"):
        for s in (0.0, 0.25, 0.7):
            assert np.allclose(view_direction(curve, model, s), expected, atol=1e-12)


def test_next_node_snaps_at_corner_with_90_degree_jump():
    curve = PathCurve.polyline([(0, 0, 0), (1, 0, 0), (1, 1, 0)])
    before = view_direction(curve, "next_node", 0.5 - 1e-9)
    after = view_direction(curve, "next_node", 0.5)
    assert angle_between(before, after) == pytest.approx(math.pi / 2, abs=1e-6)


def test_next_node_is_degenerate_at_path_end():
    curve = PathCurve.polyline([(0, 0, 0), (1, 0, 0)])
    with pytest.raises(DegenerateViewError):
        view_direction(curve, "next_node", 1.0)


def test_view_direction_validation():
    curve = PathCurve.polyline([(0, 0, 0), (1, 0, 0)])
    with pytest.raises(ValueError):
        view_direction(curve, "orbit", 0.5)
    with pytest.raises(ValueError):
        view_direction(curve, "tangent", 1.5)


def test_tangent_mode_jump_vanishes_in_one_sided_limit(demo_pts):
    # Dense sampling around each knot: the angle between directions at
    # s_knot -/+ eps shrinks linearly with eps, so the one-sided jump is 0.
    curve = PathCurve.catmull_rom(demo_pts)
    for k in range(1, 5):
        s = k / 5
        gaps = []
        for eps in (1e-3, 1e-5, 1e-7):
            left = view_direction(curve, "tangent", s - eps)
            right = view_direction(curve, "tangent", s + eps)
            gaps.append(angle_between(left, right))
        assert gaps[1] <= 0.1 * gaps[0] + 1e-12
        assert gaps[2] <= 0.05 * gaps[1] + 1e-12
    assert smoothness(curve, "tangent", 32).max_angular_jump < 1e-9


def test_straight_path_report_is_all_zero():
    curve = PathCurve.polyline([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)])
    rep = smoothness(curve, "next_node", 16)
    assert rep.corner_angles == (0.0, 0.0)
    assert rep.max_angular_jump == 0.0
    assert rep.max_angular_speed == pytest.approx(0.0, abs=1e-12)


def test_unit_square_corner_angles():
    curve = PathCurve.polyline([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
    rep = smoothness(curve, "next_node", 8)
    assert len(rep.corner_angles) == 2
    for angle in rep.corner_angles:
        assert angle == pytest.approx(math.pi / 2, abs=1e-12)


def test_demo_route_polyline_jumps_but_catmull_does_not(demo_pts):
    poly = smoothness(PathCurve.polyline(demo_pts), "next_node", 64)
    cat = smoothness(PathCurve.catmull_rom(demo_pts), "tangent", 64)
    assert poly.max_angular_jump > 0.1
    assert cat.max_angular_jump < 1e-9


def test_catmull_beats_polyline_for_random_noncollinear_routes():
    rng = np.random.default_rng(31)
    for _ in range(20):
        pts = rng.uniform(-10, 10, size=(rng.integers(3, 8), 3))
        poly = smoothness(PathCurve.polyline(pts), "next_node", 8)
        cat = smoothness(PathCurve.catmull_rom(pts), "tangent", 8)
        assert cat.max_angular_jump <= poly.max_angular_jump
        if poly.max_angular_jump > 1e-9:  # non-collinear route
            assert cat.max_angular_jump < poly.max_angular_jump


def test_max_angular_jump_is_exact_independent_of_samples(demo_pts):
    curve = PathCurve.polyline(demo_pts)
    jumps = {smoothness(curve, "next_node", n).max_angular_jump for n in (2, 16, 128)}
    assert len(jumps) == 1


def test_corner_angles_in_valid_range():
    rng = np.random.default_rng(13)
    for _ in range(10):
        pts = rng.uniform(-5, 5, size=(5, 3))
        for kind in ("polyline", "bezier", "catmull_rom"):
            curve = PathCurve(kind, pts, 0.5)
            for model in ("next_node", "tangent"):
                rep = smoothness(curve, model, 8)
                assert all(0.0 <= a <= math.pi for a in rep.corner_angles)
                assert rep.mean_angular_speed >= 0.0
                assert rep.max_angular_speed >= rep.mean_angular_speed


def test_angular_speed_estimates_converge():
    # on a gentle curve the tangent turns smoothly, so the sampled max
    # angular speed stabilizes as the per-segment sampling density grows
    curve = PathCurve.catmull_rom([(0, 0, 0), (1, 0, 0), (2, 1, 0), (3, 1, 0)])
    coarse = smoothness(curve, "tangent", 64).max_angular_speed
    fine = smoothness(curve, "tangent", 512).max_angular_speed
    assert fine == pytest.approx(coarse, rel=0.05)


def test_smoothness_requires_two_samples(demo_pts):
    with pytest.raises(ValueError):
        smoothness(PathCurve.polyline(demo_pts), "tangent", 1)


def test_degenerate_view_propagates_from_zero_tension_knots():
    curve = PathCurve.catmull_rom([(0, 0, 0), (1, 0, 0), (1, 1, 0)], tension=0.0)
    with pytest.raises(DegenerateViewError):
        smoothness(curve, "tangent", 4)


# Finite keypoints whose differences overflow.
HUGE_ZIGZAG = [(1.5e308, 0, 0), (-1.5e308, 1, 0), (1.5e308, 2, 5)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("model", VIEW_MODELS)
def test_overflowing_view_lengths_raise(kind, model):
    # The view directions themselves overflow (to inf, or NaN from inf - inf).
    with np.errstate(over="ignore", invalid="ignore"):
        curve = PathCurve(kind, HUGE_ZIGZAG)
        with pytest.raises(ViewOverflowError):
            smoothness(curve, model, 8)
        with pytest.raises(ViewOverflowError):
            view_direction(curve, model, 0.25)


def test_sampled_view_lengths_overflow_without_corners():
    # Two keypoints: no corner to check, so only the sampled norms can fail.
    with np.errstate(over="ignore", invalid="ignore"):
        curve = PathCurve.polyline(HUGE_ZIGZAG[:2])
        with pytest.raises(ViewOverflowError):
            smoothness(curve, "next_node", 8)


# Keypoints whose squared distances overflow (beyond about 1e154) while the
# distances do not; a power-of-two scale maps them exactly to coordinates
# near 1.
HUGE_FINITE = np.array([(1e200, 0, 0), (-1e200, 1e200, 0), (1e200, 2e200, 5)])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("model", VIEW_MODELS)
def test_smoothness_of_huge_finite_route_is_scale_free(kind, model):
    def fields(points):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = smoothness(PathCurve(kind, points), model)
        return [*report.corner_angles, report.max_angular_jump,
                report.mean_angular_speed, report.max_angular_speed]

    # Straight segments turn by 0 up to rounding, hence the absolute floor.
    assert fields(HUGE_FINITE) == pytest.approx(fields(HUGE_FINITE * 2.0 ** -664),
                                                rel=1e-12, abs=1e-12)
    for s in (0.25, 0.5, 0.9):
        big = view_direction(PathCurve(kind, HUGE_FINITE), model, s)
        assert big == pytest.approx(
            view_direction(PathCurve(kind, HUGE_FINITE * 2.0 ** -664), model, s), rel=1e-12)


# --- reference implementation -------------------------------------------------

def reference_one_sided_directions(curve, model, knot):
    """Exact left/right unit view directions at one interior knot: the
    per-knot loop body smoothness replaced."""
    s_knot = knot / curve.n_segments
    left_tan, right_tan = curve.one_sided_tangents(knot)
    if model == "tangent":
        return camera._unit(left_tan), camera._unit(right_tan)
    if curve.kind == "bezier":
        pos = curve.position(s_knot)
        left = camera._unit(curve.keypoints[knot] - pos)
    else:
        pos = curve.keypoints[knot]
        left = camera._unit(left_tan)
    right = camera._unit(curve.keypoints[knot + 1] - pos)
    return left, right


def reference_corner_angles(curve, model):
    """The per-knot loop over the interior knots that smoothness replaced."""
    return tuple(
        angle_between(*reference_one_sided_directions(curve, model, k))
        for k in range(1, len(curve.keypoints) - 1)
    )


def reference_smoothness(curve, model, samples):
    """The per-segment loop smoothness replaced; the property below requires
    smoothness to equal it bit for bit."""
    corners = reference_corner_angles(curve, model)
    nseg = curve.n_segments
    ds = 1.0 / (samples * nseg)
    speeds = []
    for i in range(nseg):
        u = np.arange(samples) / samples
        ss = (i + u) / nseg
        if model == "tangent":
            dirs = curve.tangents(ss)
        else:
            dirs = curve.keypoints[i + 1] - curve.positions(ss)
        norms = np.linalg.norm(dirs, axis=1)
        if np.any(norms == 0.0):
            raise DegenerateViewError("view direction has zero length")
        dirs = dirs / norms[:, None]
        cross = np.linalg.norm(np.cross(dirs[:-1], dirs[1:]), axis=1)
        dot = np.sum(dirs[:-1] * dirs[1:], axis=1)
        speeds.append(np.arctan2(cross, dot) / ds)
    all_speeds = np.concatenate(speeds)
    return camera.SmoothnessReport(
        corner_angles=corners,
        max_angular_jump=max(corners, default=0.0),
        mean_angular_speed=float(all_speeds.mean()),
        max_angular_speed=float(all_speeds.max()),
    )


def outcome(fn, *args):
    """repr of fn's result, or of the error it raised: equal reprs mean
    equal float bits, including the sign of zero."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


coord = st.one_of(st.integers(-3, 3).map(float), st.floats(-10, 10, allow_nan=False))
point3 = st.tuples(coord, coord, coord)


@st.composite
def routes(draw):
    """2-10 keypoints, often with repeats (consecutive or not) from a small pool."""
    pool = draw(st.lists(point3, min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool) | point3, min_size=2, max_size=10))


@settings(max_examples=300, deadline=None)
@given(
    route=routes(),
    kind=st.sampled_from(KINDS),
    model=st.sampled_from(VIEW_MODELS),
    tension=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
    samples=st.integers(2, 70),
)
def test_smoothness_matches_per_segment_loop(route, kind, model, tension, samples):
    curve = PathCurve(kind, route, tension)
    assert (outcome(smoothness, curve, model, samples)
            == outcome(reference_smoothness, curve, model, samples))


def corner_angles(curve, model, samples):
    """smoothness's corner angles: the array kernel on the knot rows of the
    curve's sampled grid."""
    positions, tangents = curve.sample(samples)
    knots = slice(samples, -1, samples)
    return camera._corner_angles(curve, model, positions[knots], tangents[knots])


def reference_corners_quietly(curve, model):
    # The reference's scalar subtractions may overflow with a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        return reference_corner_angles(curve, model)


@st.composite
def long_routes(draw):
    """3-60 keypoints, often repeated from a small pool, scaled to ordinary
    size, to where squares overflow (the _row_norms fallback) or to where
    they underflow."""
    pool = draw(st.lists(point3, min_size=1, max_size=6))
    route = draw(st.lists(st.sampled_from(pool) | point3, min_size=3, max_size=60))
    return (np.array(route) * draw(st.sampled_from([1.0, 1.0, 1e200, 1e-170]))).tolist()


# next_node directions that fail at two places with different errors; the
# error raised is the first in knot order, the left before the right, as in
# the per-knot loop.  Polyline: knot 1's right side has zero length and
# knot 3's left overflows, then the other way round, then both sides of
# knot 1 fail.  Catmull-rom (tension 0.5): knot 1's right side and knot
# 2's left fail, which a left-sides-first order would swap.
ZERO_THEN_OVERFLOW = [(0, 0, 0), (1, 0, 0), (1, 0, 0), (1.5e308, 0, 0), (-1.5e308, 0, 0)]
OVERFLOW_THEN_ZERO = [(0, 0, 0), (1.5e308, 0, 0), (-1.5e308, 0, 0), (-1.5e308, 0, 0), (0, 0, 0)]
LEFT_ZERO_RIGHT_OVERFLOW = [(-1.5e308, 0, 0), (-1.5e308, 0, 0), (1.5e308, 0, 0)]
CATMULL_RIGHT_ZERO_NEXT_LEFT_OVERFLOW = [(0, 0, 0), (1, 0, 0), (1, 0, 0), (1.7e308, 0, 0)]
CATMULL_RIGHT_OVERFLOW_NEXT_LEFT_ZERO = [(0, 0, 0), (-1e308, 0, 0), (1e308, 0, 0), (-1e308, 0, 0)]


@settings(max_examples=200, deadline=None)
@given(
    route=long_routes(),
    kind=st.sampled_from(KINDS),
    model=st.sampled_from(VIEW_MODELS),
    tension=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
    samples=st.integers(2, 9),
)
@example(route=HUGE_FINITE.tolist(), kind="bezier", model="next_node", tension=0.5, samples=3)
@example(route=HUGE_FINITE.tolist(), kind="catmull_rom", model="tangent", tension=0.5, samples=2)
@example(route=HUGE_FINITE.tolist(), kind="polyline", model="next_node", tension=0.5, samples=2)
# Tension 0: every catmull-rom knot tangent vanishes, so the first knot's
# left direction is degenerate in tangent mode; next_node's left one is
# the same tangent.
@example(route=[(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)], kind="catmull_rom",
         model="tangent", tension=0.0, samples=4)
@example(route=[(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)], kind="catmull_rom",
         model="next_node", tension=0.0, samples=4)
@example(route=ZERO_THEN_OVERFLOW, kind="polyline", model="next_node", tension=0.5, samples=2)
@example(route=OVERFLOW_THEN_ZERO, kind="polyline", model="next_node", tension=0.5, samples=2)
@example(route=LEFT_ZERO_RIGHT_OVERFLOW, kind="polyline", model="next_node", tension=0.5,
         samples=2)
@example(route=CATMULL_RIGHT_ZERO_NEXT_LEFT_OVERFLOW, kind="catmull_rom", model="next_node",
         tension=0.5, samples=2)
@example(route=CATMULL_RIGHT_OVERFLOW_NEXT_LEFT_ZERO, kind="catmull_rom", model="next_node",
         tension=0.5, samples=2)
def test_corner_angles_equal_per_knot_reference(route, kind, model, tension, samples):
    curve = PathCurve(kind, route, tension)
    assert (outcome(corner_angles, curve, model, samples)
            == outcome(reference_corners_quietly, curve, model))
