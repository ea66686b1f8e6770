import bisect
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from searoam import geo, sim
from searoam.sim import (
    SceneSpec,
    SimTooLargeError,
    SpeedProfile,
    cast_ray,
    perturb_direction,
    run_ray_task,
    sample_trajectory,
    simulate,
    traverse,
)
from searoam import spline
from searoam.spline import ArcLengthError, PathCurve, _row_norms

from conftest import DATA_DIR, GOLDEN_DIR, HUGE_ZIGZAG, chordal_arc_length

STRAIGHT_10 = PathCurve.polyline([(0, 0, 0), (10, 0, 0)])


def two_point_profile(speed):
    return SpeedProfile(np.full(2, float(speed)))


def scene_of(obstacles=(), targets=(), **kwargs):
    """A SceneSpec from (center, radius) obstacles and (id, center, radius)
    targets."""
    return SceneSpec(obstacles=[(*c, r) for c, r in obstacles],
                     targets=[(*c, r) for _, c, r in targets],
                     target_ids=tuple(t for t, _, _ in targets), **kwargs)


# --- scene spec -------------------------------------------------------------

def test_scene_json_literal_document():
    scene = SceneSpec.from_json(json.dumps({
        "obstacles": [{"center": [1, 2, 3], "radius": 4.0}],
        "targets": [{"id": "t1", "center": [5, 6, 7], "radius": 2.0}],
        "agent_radius": 0.5,
        "energy_budget": 120.0,
    }))
    assert scene.agent_radius == 0.5
    assert scene.energy_budget == 120.0
    assert scene.target_ids == ("t1",)
    assert np.array_equal(scene.targets[0, :3], [5, 6, 7])
    assert scene.targets[0, 3] == 2.0
    assert np.array_equal(scene.obstacles[0, :3], [1, 2, 3])
    assert scene.obstacles[0, 3] == 4.0
    assert scene.obstacles.shape == (1, 4) and scene.targets.shape == (1, 4)


json_coord = (st.integers(-10**6, 10**6) | st.integers(-10**300, 10**300)
              | st.floats(-1e300, 1e300) | st.booleans()
              | st.floats(-1e3, 1e3).map(repr))


@settings(max_examples=100, deadline=None)
@given(obstacles=st.lists(st.tuples(st.lists(json_coord, min_size=3, max_size=3),
                                    st.integers(1, 10**6) | st.floats(1e-300, 1e300)),
                          max_size=8),
       targets=st.lists(st.tuples(st.lists(json_coord, min_size=3, max_size=3),
                                  st.integers(1, 10**6) | st.floats(1e-300, 1e300)),
                        max_size=8))
def test_scene_json_equals_per_entry_constructors(obstacles, targets):
    # Integers, floats, booleans and numeric strings: from_json's arrays
    # match the constructor's conversion of the same rows bit for bit.
    doc = {"obstacles": [{"center": c, "radius": r} for c, r in obstacles],
           "targets": [{"id": f"t{i}", "center": c, "radius": r}
                       for i, (c, r) in enumerate(targets)]}
    scene = SceneSpec.from_json(json.dumps(doc))
    expected = scene_of(obstacles, [(f"t{i}", c, r) for i, (c, r) in enumerate(targets)])
    for name in ("obstacles", "targets", "obstacle_centers", "obstacle_reach",
                 "target_centers", "target_radii"):
        assert getattr(scene, name).shape == getattr(expected, name).shape
        assert getattr(scene, name).tobytes() == getattr(expected, name).tobytes()
    assert scene.target_ids == expected.target_ids
    assert scene == expected and hash(scene) == hash(expected)


def test_scenes_compare_and_hash_by_value():
    doc = {"obstacles": [{"center": [1.5, -2.0, 3.0], "radius": 2.0}],
           "targets": [{"id": "t1", "center": [0.1, 0.2, 0.3], "radius": 1.0}]}
    text = json.dumps(doc)
    a, b = SceneSpec.from_json(text), SceneSpec.from_json(text)
    assert a == b and hash(a) == hash(b)
    for entry in (doc["obstacles"][0], doc["targets"][0]):
        center = entry["center"]
        center[2] = math.nextafter(center[2], math.inf)  # one ulp
        assert SceneSpec.from_json(json.dumps(doc)) != a
        center[2] = math.nextafter(center[2], -math.inf)
    assert SceneSpec.from_json(json.dumps(doc)) == a


def test_scenes_equal_across_signed_zero_and_differ_from_non_scenes():
    # Rows compare as floats: 0.0 == -0.0, in a center and in the hash.
    a = scene_of([((0.0, 1.0, 2.0), 1.0)], [("t", (3.0, 0.0, 4.0), 0.5)])
    b = scene_of([((-0.0, 1.0, 2.0), 1.0)], [("t", (3.0, -0.0, 4.0), 0.5)])
    assert a == b and hash(a) == hash(b)
    for other in (None, 0.0, "scene", SpeedProfile([1.0, 2.0])):
        assert a != other and other != a


def test_scene_json_defaults():
    scene = SceneSpec.from_json('{"obstacles": [], "targets": []}')
    assert scene.agent_radius == 1.0
    assert scene.energy_budget == 300.0


def test_scene_validation():
    with pytest.raises(ValueError, match="obstacle 0: sphere radius must be a number > 0, got 0.0"):
        SceneSpec(obstacles=[(0, 0, 0, 0.0)])
    with pytest.raises(ValueError, match="target 1: target center must be three finite numbers"):
        SceneSpec(targets=[(0, 0, 0, 1.0), (0, math.inf, 0, 1.0)], target_ids=("a", "b"))
    with pytest.raises(ValueError, match=r"obstacles must be \(k, 4\) rows"):
        SceneSpec(obstacles=[(0, 0, 0)])
    with pytest.raises(ValueError, match="one id per target"):
        SceneSpec(targets=[(0, 0, 0, 1.0)])
    with pytest.raises(ValueError):
        SceneSpec(energy_budget=0.0)
    with pytest.raises(ValueError, match="unique"):
        scene_of(targets=[("a", (0, 0, 0), 1.0), ("a", (1, 1, 1), 1.0)])
    with pytest.raises(ValueError):
        SceneSpec.from_json("not json")


def test_speed_profile_from_keypoints_needs_a_speed_column():
    assert SpeedProfile.from_keypoints([[0, 0, 0, 2.0], [1, 0, 0, 3.0]]).speeds.tolist() == [2.0, 3.0]
    for rows, shape in (([[0, 0, 0], [1, 0, 0]], r"\(2, 3\)"), ([1.0, 2.0], r"\(2,\)")):
        with pytest.raises(ValueError, match=rf"\(N, 4\) keypoint array, got shape {shape}"):
            SpeedProfile.from_keypoints(rows)


def test_speed_profiles_compare_and_hash_by_value():
    a, b = SpeedProfile([1.0, 2.0]), SpeedProfile(np.array([1.0, 2.0]))
    assert a == b and hash(a) == hash(b)
    others = [SpeedProfile([1.0, math.nextafter(2.0, math.inf)]), SpeedProfile([1.0, 2.0, 3.0])]
    assert all(a != other for other in others)
    assert len({a, b, *others}) == 3


def test_speed_profile_interpolates_linearly():
    profile = SpeedProfile(np.array([1.0, 3.0]))
    speeds = np.interp([0.0, 0.5, 1.0], profile.knots, profile.speeds)
    assert speeds.tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        SpeedProfile(np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="need a speed per keypoint"):
        SpeedProfile([1.0])


def test_speed_knots_are_the_curve_knots():
    # The stepper's speed pieces end where its table's keypoint lengths are
    # taken: np.linspace(0, 1, N) is an ulp off j/(N-1) at N = 6, 12 and most sizes.
    for n in range(2, 201):
        curve = PathCurve("polyline", np.arange(3.0 * n).reshape(n, 3))
        assert SpeedProfile(np.ones(n)).knots.tobytes() == curve.grid(1).tobytes()


def test_speed_profile_refuses_overflowing_speed_lines():
    # (1e308 - 1) / 0.5 overflows: the speed line from knot 0 to knot 1, in
    # the stepper and in np.interp alike, would be infinite.
    with pytest.raises(ValueError, match="between keypoints 0 and 1 overflows"):
        SpeedProfile([1.0, 1e308, 1.0])
    for speeds in ([1e308] * 3, [1.0, 1.7e307]):  # slopes 0 and about 1.7e307
        assert SpeedProfile(speeds).speeds.tolist() == speeds


# --- traversal --------------------------------------------------------------

def test_straight_path_time_is_distance_over_speed():
    result = traverse(STRAIGHT_10, two_point_profile(2.0), SceneSpec(), dt=0.01)
    assert result.time_used == pytest.approx(5.0, abs=0.01)
    assert result.collisions == 0
    assert result.completed


def test_single_obstacle_crossing_counts_once():
    scene = scene_of([((5, 0, 0), 1.0)], agent_radius=0.5)
    result = traverse(STRAIGHT_10, two_point_profile(2.0), scene, dt=0.01)
    assert result.collisions == 1


def test_reentry_counts_again():
    there_and_back = PathCurve.polyline([(0, 0, 0), (10, 0, 0), (0, 0, 0)])
    scene = scene_of([((5, 0, 0), 1.0)], agent_radius=0.5)
    result = traverse(there_and_back, SpeedProfile(np.full(3, 2.0)), scene, dt=0.01)
    assert result.collisions == 2


def test_starting_inside_obstacle_counts_as_entry():
    scene = scene_of([((0, 0, 0), 1.0)], agent_radius=0.5)
    result = traverse(STRAIGHT_10, two_point_profile(2.0), scene, dt=0.01)
    assert result.collisions == 1


def test_demo_route_time_matches_arc_length_oracle(demo_pts):
    curve = PathCurve.catmull_rom(demo_pts)
    oracle = chordal_arc_length(curve, n=200_000)
    scene = SceneSpec(energy_budget=1e9)
    dt = 5.0
    result = traverse(curve, SpeedProfile(np.full(6, 1.0)), scene, dt=dt)
    assert abs(result.time_used - oracle) < dt
    assert result.completed


def test_energy_budget_exhaustion():
    scene = SceneSpec(energy_budget=2.0)
    result = traverse(STRAIGHT_10, two_point_profile(2.0), scene, dt=0.01)
    assert not result.completed
    assert result.time_used == pytest.approx(2.0, abs=1e-12)
    assert result.time_used <= scene.energy_budget


def test_profile_length_mismatch():
    with pytest.raises(ValueError):
        traverse(STRAIGHT_10, SpeedProfile(np.full(3, 1.0)), SceneSpec(), dt=0.1)
    with pytest.raises(ValueError):
        traverse(STRAIGHT_10, two_point_profile(1.0), SceneSpec(), dt=0.0)
    with pytest.raises(SimTooLargeError):  # 10 units at speed 1 is 10^7 steps
        traverse(STRAIGHT_10, two_point_profile(1.0), SceneSpec(), dt=1e-6)


@pytest.mark.parametrize("kind", ["polyline", "bezier", "catmull_rom"])
def test_overflowing_path_length_raises(kind):
    # Finite keypoints whose differences, hence chord lengths, overflow: the
    # budget must not run out on an infinite path.
    curve = PathCurve(kind, HUGE_ZIGZAG)
    profile = SpeedProfile(np.full(3, 1.0))
    with pytest.raises(ArcLengthError):
        traverse(curve, profile, SceneSpec(), dt=0.1)
    with pytest.raises(ArcLengthError):
        simulate(curve, profile, DEMO_SCENE, dt=0.1)


def test_dt_refinement_keeps_collisions_and_time_stable(demo_pts):
    # the obstacle chords (~8 units) exceed speed*dt for both step sizes
    curve = PathCurve.catmull_rom(demo_pts)
    profile = SpeedProfile(np.full(6, 800.0))
    scene = scene_of(
        obstacles=[((162.469, 13.422, 50000.0), 3.0)],
        agent_radius=1.0,
        energy_budget=1e6,
    )
    coarse = traverse(curve, profile, scene, dt=0.004)
    fine = traverse(curve, profile, scene, dt=0.002)
    assert coarse.collisions == fine.collisions == 1
    assert abs(coarse.time_used - fine.time_used) < 0.004


def test_sample_trajectory_shapes_and_monotonicity():
    traj = sample_trajectory(STRAIGHT_10, two_point_profile(2.0), dt=0.5)
    assert traj.times[0] == 0.0
    assert np.all(np.diff(traj.times) > 0)
    assert np.all(np.diff(traj.s_values) >= 0)
    assert traj.positions.shape == (len(traj.times), 3)


# --- rays -------------------------------------------------------------------

def ray_scene(*targets):
    return scene_of(targets=targets)


def test_cast_ray_center_shot():
    scene = ray_scene(("ball", (10, 0, 0), 1.0))
    assert cast_ray((0, 0, 0), (1, 0, 0), scene) == "ball"


def test_cast_ray_miss():
    scene = ray_scene(("ball", (10, 0, 0), 1.0))
    assert cast_ray((0, 0, 0), (-1, 0, 0), scene) is None
    assert cast_ray((0, 0, 0), (0, 1, 0), scene) is None
    assert cast_ray((0, 0, 0), (0, 1, 0), SceneSpec()) is None  # no targets


def test_cast_ray_tangent_boundary_is_inclusive():
    # ray along +x from (-5, 0, 0); sphere center (0, 3, 0) radius 3:
    # closest approach distance equals the radius exactly
    scene = ray_scene(("rim", (0, 3, 0), 3.0))
    assert cast_ray((-5, 0, 0), (1, 0, 0), scene) == "rim"


def test_cast_ray_nearest_hit_wins():
    scene = ray_scene(("far", (20, 0, 0), 1.0), ("near", (10, 0, 0), 1.0))
    assert cast_ray((0, 0, 0), (1, 0, 0), scene) == "near"


def test_cast_ray_from_inside_hits():
    scene = ray_scene(("around", (0, 0, 0), 5.0))
    assert cast_ray((0, 0, 0), (0, 0, 1), scene) == "around"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r", [1e160, 1e200, 1e300])
def test_cast_ray_hits_huge_target_from_inside(r):
    # Beyond about 1e154 the discriminant's squares overflow; the test is
    # then redone on the offsets and the radius scaled down.
    scene = ray_scene(("big", (10, 0, 0), r))
    assert cast_ray((0, 0, 0), (1, 0, 0), scene) == "big"
    assert cast_ray((0, 0, 0), (0, 0, -1), scene) == "big"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r", [1e160, 1e200, 1e300])
def test_cast_ray_hits_huge_target_from_outside(r):
    # Seen from the origin the sphere at 2r spans half-angle asin(1/2).
    scene = ray_scene(("big", (2 * r, 0, 0), r))
    assert cast_ray((0, 0, 0), (1, 0, 0), scene) == "big"
    assert cast_ray((0, 0, 0), (1, 0.5, 0), scene) == "big"
    assert cast_ray((0, 0, 0), (1, 0.6, 0), scene) is None
    assert cast_ray((0, 0, 0), (-1, 0, 0), scene) is None


def test_cast_ray_zero_direction():
    with pytest.raises(ValueError):
        cast_ray((0, 0, 0), (0, 0, 0), ray_scene(("t", (1, 0, 0), 1.0)))


def test_perturb_direction_sigma_zero_is_identity():
    rng = np.random.default_rng(0)
    d = perturb_direction(rng, (2, 0, 0), 0.0)
    assert np.array_equal(d, [1, 0, 0])


def test_perturb_direction_small_sigma_angles():
    rng = np.random.default_rng(1)
    angles = []
    for _ in range(4000):
        d = perturb_direction(rng, (0, 0, 1), 0.05)
        angles.append(math.acos(min(1.0, d[2])))
    angles = np.array(angles)
    # polar angle is Rayleigh(sigma): mean sigma*sqrt(pi/2)
    assert angles.mean() == pytest.approx(0.05 * math.sqrt(math.pi / 2), rel=0.05)


def test_perturb_direction_large_sigma_is_uniform_solid_angle():
    # vs a Monte-Carlo oracle of uniform directions and the analytic
    # solid-angle fraction of the target cone
    radius, dist = 0.5, 5.0
    alpha = math.asin(radius / dist)
    analytic = 0.5 * (1.0 - math.cos(alpha))
    cos_alpha = math.cos(alpha)

    oracle_rng = np.random.default_rng(123)
    oracle_dirs = oracle_rng.standard_normal((10**6, 3))
    oracle_dirs /= np.linalg.norm(oracle_dirs, axis=1, keepdims=True)
    oracle_frac = float(np.mean(oracle_dirs[:, 0] >= cos_alpha))
    assert oracle_frac == pytest.approx(analytic, abs=4e-4)

    # One batched draw of the n directions that n perturb_direction calls
    # on this generator would give, one at a time
    # (test_batched_aim_equals_sequential_reference pins the two equal).
    n = 300_000
    axis = np.tile([1.0, 0.0, 0.0], (n, 1))
    dirs = sim._perturb_rows(np.random.default_rng(7), axis, 1000.0)
    frac = int(np.count_nonzero(dirs[:, 0] >= cos_alpha)) / n
    # 5-sigma binomial margin around the oracle fraction
    margin = 5 * math.sqrt(analytic * (1 - analytic) / n)
    assert abs(frac - oracle_frac) < margin + 4e-4


def test_run_ray_task_perfect_aim():
    scene = ray_scene(("t", (5, 5, 0), 1.0))
    points = [(0, 0, 0), (5, 3, 0), (5, 10, 0), (5, 3.5, 0)]
    attempts, hits = run_ray_task(points, sigma=0.0, seed=3, scene=scene)
    assert attempts == 2  # two separate entries into the trigger zone
    assert hits == 2


def test_run_ray_task_determinism():
    scene = ray_scene(("t", (5, 5, 0), 1.0))
    points = [(0, 0, 0), (5, 3, 0), (5, 10, 0), (5, 3.5, 0)]
    a = run_ray_task(points, sigma=0.4, seed=99, scene=scene)
    b = run_ray_task(points, sigma=0.4, seed=99, scene=scene)
    assert a == b


def test_run_ray_task_needs_targets():
    with pytest.raises(ValueError):
        run_ray_task([(0, 0, 0)], sigma=0.0, seed=0, scene=SceneSpec())


def test_run_ray_task_needs_n_by_3_points():
    scene = ray_scene(("t", (5, 5, 0), 1.0))
    with pytest.raises(ValueError, match=r"expected \(N, 3\) trajectory points, got shape \(2, 2\)"):
        run_ray_task([(0, 0), (5, 3)], sigma=0.0, seed=0, scene=scene)


def test_run_ray_task_custom_trigger_distance():
    scene = ray_scene(("t", (5, 5, 0), 1.0))
    points = [(0, 0, 0), (5, 3, 0)]
    attempts, _ = run_ray_task(points, 0.0, 0, scene, trigger_distance=0.5)
    assert attempts == 0


def test_accuracy_decreases_with_sigma_in_expectation():
    target = ("t", (2, 0, 0), 0.4)
    scene = ray_scene(target)
    points = []
    for _ in range(10):
        points += [(1.0, 0.0, 0.0), (2.0, 8.0, 0.0)]  # enter trigger zone, leave
    rates = {}
    for sigma in (0.3, 1.0):
        total_attempts = total_hits = 0
        for seed in range(1000):
            attempts, hits = run_ray_task(points, sigma, seed, scene)
            total_attempts += attempts
            total_hits += hits
        rates[sigma] = total_hits / total_attempts
    # binomial 5-sigma margin on each side
    margin = 5 * math.sqrt(0.25 / 10000)
    assert rates[0.3] > rates[1.0] + 2 * margin


def test_accuracy_bounds_random_runs():
    rng = np.random.default_rng(55)
    scene = ray_scene(("t", (3, 1, 0), 0.5))
    for seed in range(20):
        points = rng.uniform(-5, 5, size=(30, 3))
        attempts, hits = run_ray_task(points, sigma=0.5, seed=seed, scene=scene)
        assert 0 <= hits <= attempts


# --- full simulation --------------------------------------------------------

DEMO_SCENE = scene_of(
    obstacles=(
        ((130.137, 11.557, 50937.5), 3.0),
        ((162.469, 13.422, 50000.0), 3.0),
        ((180.0, -5.0, 50000.0), 3.0),
    ),
    targets=(
        ("ray_gate_a", (142.719, 14.328, 50000.0), 2.0),
        ("ray_gate_b", (177.383, -4.676, 50000.0), 2.0),
    ),
    agent_radius=1.0,
    energy_budget=300.0,
)

# Entry counts pinned by a dense geometric oracle (200k curve samples,
# inclusive sphere-overlap test), then frozen as regression values.
DEMO_SCENE_COLLISIONS = {"polyline": 2, "bezier": 0, "catmull_rom": 3}


def test_demo_scene_collisions_match_dense_oracle(demo_pts):
    profile = SpeedProfile(np.full(6, 800.0))
    for kind, expected in DEMO_SCENE_COLLISIONS.items():
        curve = PathCurve(kind, demo_pts, 0.5)

        ss = np.linspace(0.0, 1.0, 200_001)
        sampled = curve.positions(ss)
        oracle = 0
        for obstacle in DEMO_SCENE.obstacles:
            dist = np.linalg.norm(sampled - obstacle[:3], axis=1)
            inside = dist <= obstacle[3] + DEMO_SCENE.agent_radius
            oracle += int(inside[0]) + int(np.sum(inside[1:] & ~inside[:-1]))
        assert oracle == expected

        result = simulate(curve, profile, DEMO_SCENE, dt=0.005, seed=11, sigma=0.0)
        assert result.collisions == expected
        assert result.completed


def test_simulate_is_deterministic(demo_pts):
    curve = PathCurve.catmull_rom(demo_pts)
    profile = SpeedProfile(np.full(6, 800.0))
    a = simulate(curve, profile, DEMO_SCENE, dt=0.005, seed=42, sigma=0.2)
    b = simulate(curve, profile, DEMO_SCENE, dt=0.005, seed=42, sigma=0.2)
    assert a == b


def test_simulate_accuracy_consistency(demo_pts):
    curve = PathCurve.catmull_rom(demo_pts)
    profile = SpeedProfile(np.full(6, 800.0))
    result = simulate(curve, profile, DEMO_SCENE, dt=0.005, seed=42, sigma=0.2)
    assert 0 <= result.ray_hits <= result.ray_attempts
    assert result.accuracy == result.ray_hits / result.ray_attempts


def test_simresult_json_dict_fields():
    result = traverse(STRAIGHT_10, two_point_profile(2.0), SceneSpec(), dt=0.1)
    doc = json.loads(json.dumps(result.to_dict()))
    assert set(doc) == {
        "time_used", "collisions", "ray_attempts", "ray_hits", "accuracy", "completed",
    }


# --- reference implementations ------------------------------------------------
# The loops the kernels in searoam.sim replaced.  Each property below
# requires the kernel to equal its reference bit for bit.

def table_lookup(curve):
    """The stepper's table for curve, read by a plain scalar interval search
    plus the inverse cubic of sim._s_at: (total length, s at a length)."""
    lengths, rows = spline._arc_table(curve)
    bounds, rows = lengths.tolist(), rows.T.tolist()

    def s_at(ell):
        k = min(max(bisect.bisect_right(bounds, ell) - 1, 0), len(rows) - 1)
        l0, h, s0, c1, c2, c3 = rows[k]
        x = (ell - l0) / h
        return s0 + x * (c1 + x * (c2 + x * c3))

    return bounds[-1], s_at


def chord_table(curve, samples):
    """The chord table the sim stepped on before its Hermite table, at
    samples chords per segment: the cumulative sum of the _row_norms chords
    of curve.grid(samples) after a leading 0.0.  The sum runs in extended
    precision, so that its rounding over 2^16 chords per segment stays below
    the differences it judges."""
    grid = curve.grid(samples)
    lengths = np.zeros(len(grid))
    lengths[1:] = np.cumsum(_row_norms(np.diff(curve.positions(grid), axis=0)), dtype=np.longdouble)
    return grid, lengths


def chord_lookup(curve, samples):
    """(total length, s at a length) by np.interp over chord_table."""
    grid, lengths = chord_table(curve, samples)
    return float(lengths[-1]), lambda ell: float(np.interp(ell, lengths, grid))


def reference_step_states(curve, profile, dt, budget, lookup=None):
    """The step loop of sim._step_states, one step at a time, reading s off
    lookup (default: table_lookup)."""
    total, s_at = lookup or table_lookup(curve)
    knots = np.arange(len(profile.speeds)) / (len(profile.speeds) - 1)
    times, s_values = [0.0], [0.0]
    t, s, ell = 0.0, 0.0, 0.0
    completed = total == 0.0
    while not completed and t < budget:
        step = min(dt, budget - t)
        d_ell = float(np.interp(s, knots, profile.speeds)) * step
        if ell + d_ell >= total:
            step *= (total - ell) / d_ell
            ell = total
            s = 1.0
            completed = True
        else:
            ell += d_ell
            s = s_at(ell)
        t += step
        times.append(t)
        s_values.append(s)
    return times, s_values, completed


def reference_count_collisions(positions, scene):
    collisions = 0
    for obstacle in scene.obstacles:
        dist = np.linalg.norm(positions - obstacle[:3], axis=1)
        inside = dist <= obstacle[3] + scene.agent_radius
        collisions += int(inside[0]) + int(np.sum(inside[1:] & ~inside[:-1]))
    return collisions


def safe_norm(v, axis=None):
    """np.linalg.norm(v, axis=axis), where that comes out inf recomputed on
    v scaled by its largest |component|: squares overflow beyond about
    1e154, lengths only beyond about 1e308."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(v, axis=axis)
        scale = np.abs(v).max(axis=axis, keepdims=True)
        scaled = np.squeeze(scale, axis) * np.linalg.norm(v / scale, axis=axis)
    return np.where(np.isinf(norm), scaled, norm)


def reference_cast_ray(origin, direction, scene):
    origin = np.asarray(origin, dtype=float)
    direction = np.asarray(direction, dtype=float)
    norm = safe_norm(direction)
    if norm == 0.0:
        raise ValueError("ray direction must be nonzero")
    d = direction / norm
    best_t = math.inf
    best_id = None
    for target_id, target in zip(scene.target_ids, scene.targets):
        oc = origin - target[:3]
        b = float(np.dot(d, oc))
        r = float(target[3])
        with np.errstate(over="ignore"):  # a square may overflow: rescaled below
            disc = b * b - float(np.dot(oc, oc)) + r * r
        k = 1.0
        if not math.isfinite(disc):  # a square overflowed: the same test scaled by 1/k
            k = max(r, float(np.abs(oc).max()))
            oc_k, b_k, r_k = oc / k, b / k, r / k
            disc = b_k * b_k - float(np.dot(oc_k, oc_k)) + r_k * r_k
        if disc < 0.0:
            continue
        root = k * math.sqrt(disc)
        t_hit = -b - root
        if t_hit < 0.0:
            t_hit = -b + root
        if 0.0 <= t_hit < best_t:
            best_t = t_hit
            best_id = target_id
    return best_id


def reference_perturb_direction(rng, direction, sigma):
    d = np.asarray(direction, dtype=float)
    norm = safe_norm(d)
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    d = d / norm
    if sigma * sigma == 0.0:
        return d
    kappa = 1.0 / (sigma * sigma)
    u = rng.random()
    w = 1.0 + math.log(u + (1.0 - u) * math.exp(-2.0 * kappa)) / kappa
    w = max(-1.0, min(1.0, w))
    phi = 2.0 * math.pi * rng.random()
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(d)))] = 1.0
    e1 = np.cross(d, axis)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(d, e1)
    sin_theta = math.sqrt(max(0.0, 1.0 - w * w))
    return sin_theta * (math.cos(phi) * e1 + math.sin(phi) * e2) + w * d


def reference_run_ray_task(points, sigma, seed, scene, trigger_distance=None):
    points = np.asarray(points, dtype=float)
    centers = scene.targets[:, :3]
    triggers = np.array([
        trigger_distance if trigger_distance is not None else sim.TRIGGER_RADIUS_FACTOR * r
        for r in scene.targets[:, 3].tolist()
    ])
    dist = safe_norm(points[:, None, :] - centers[None, :, :], axis=2)
    within = dist <= triggers[None, :]
    entries = np.vstack([within[:1], within[1:] & ~within[:-1]])
    rng = np.random.default_rng(seed)
    attempts = hits = 0
    for k in range(len(points)):
        for _ in np.nonzero(entries[k])[0]:
            intended = int(np.argmin(dist[k]))
            aim = centers[intended] - points[k]
            if np.linalg.norm(aim) == 0.0:  # on the center: every direction meets it at t = r
                aim = np.array([1.0, 0.0, 0.0])
            direction = reference_perturb_direction(rng, aim, sigma)
            attempts += 1
            if reference_cast_ray(points[k], direction, scene) == scene.target_ids[intended]:
                hits += 1
    return attempts, hits


def same_float(a, b):
    """Bitwise-equal floats up to NaN payload (signed zeros must match)."""
    if a != a or b != b:
        return a != a and b != b
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return "ValueError"


# Small integer grids make exact tangents, coincident centers and zero
# direction components common; the float branch covers general positions.
grid = st.integers(-4, 4).map(float)
coord = st.one_of(grid, st.floats(-10, 10, allow_nan=False))
point3 = st.tuples(coord, coord, coord)
nonzero3 = point3.filter(lambda v: any(v))
radius = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.floats(0.01, 6.0))


@st.composite
def target_scenes(draw, max_targets=6):
    """Targets whose centers come from a small pool, so duplicates occur."""
    pool = draw(st.lists(point3, min_size=1, max_size=3))
    n = draw(st.integers(1, max_targets))
    targets = [(f"t{i}", draw(st.sampled_from(pool)), draw(radius)) for i in range(n)]
    return scene_of(targets=targets)


@st.composite
def grazing_rays(draw):
    """(origin, direction, scene) with a target the ray grazes up to rounding.

    Here the two ways of rounding the discriminant often disagree in sign,
    so cast_ray must round it as the reference does.  (The slack of the ray
    boxes in run_ray_task is pinned by TIES_TO_EVEN and occluder_scenes.)
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    origin = rng.uniform(-100, 100, 3)
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    n = np.cross(d, rng.normal(size=3))
    n /= np.linalg.norm(n)
    r = 10 ** rng.uniform(-2, 2)
    center = origin + rng.uniform(-50, 50) * d + r * n
    return origin, d, scene_of(targets=[("g", center, r)])


# --- kernels against their references -----------------------------------------

@settings(max_examples=60, deadline=None)
@given(pts=st.lists(point3, min_size=1, max_size=20).flatmap(
           lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=40)),
       kind=st.sampled_from(["polyline", "bezier", "catmull_rom"]),
       tension=st.sampled_from([0.0, 0.5, 1.0]))
def test_arc_table_ends_at_arc_length(pts, kind, tension):
    # Keypoints from a small pool, so duplicates, reversals and cusps occur.
    curve = PathCurve(kind, pts[:12] if kind == "bezier" else pts, tension)
    lengths, rows = spline._arc_table(curve)
    starts = rows[2]
    assert starts[0] == 0.0 and np.all(np.diff(starts) > 0.0) and np.all(np.diff(lengths) >= 0.0)
    assert np.isin(curve.grid(1)[:-1], starts).all()  # every keypoint knot is an entry
    if kind == "polyline":  # chord-exact
        chords = np.linalg.norm(np.diff(curve.keypoints, axis=0), axis=1)
        assert lengths.tobytes() == np.concatenate([[0.0], np.cumsum(chords)]).tobytes()
    else:
        length = curve.arc_length()
        tol = max(spline.ARC_LENGTH_ABS_TOL, spline.ARC_LENGTH_REL_TOL * length)
        assert abs(lengths[-1] - length) <= tol


# time_used on the sim goldens from the 2048-chord arc table that the
# Hermite table replaced.
PARENT_TIME_USED = {
    ("sim_readme", "polyline"): 50.1163412690965,
    ("sim_readme", "bezier"): 50.01996427157362,
    ("sim_readme", "catmull_rom"): 57.50575284552592,
    ("sim_spread", "polyline"): 113.17786479817083,
    ("sim_spread", "bezier"): 49.68235652929624,
    ("sim_spread", "catmull_rom"): 116.44495996365258,
}
# Per golden: its route, scene, --dt, and the directories of its outputs.
SIM_GOLDENS = {
    "sim_readme": (DATA_DIR / "demo_route_speeds.csv", DATA_DIR / "demo_scene.json", 0.005,
                   [GOLDEN_DIR / "sim_readme"]),
    "sim_spread": (GOLDEN_DIR / "sim_spread" / "route.csv", GOLDEN_DIR / "sim_spread" / "scene.json",
                   0.02, [GOLDEN_DIR / "sim_spread" / "sigma_0", GOLDEN_DIR / "sim_spread" / "sigma_0.05"]),
}


@pytest.mark.parametrize("golden, kind", sorted(PARENT_TIME_USED))
def test_golden_time_used_at_least_as_close_to_fine_chords(golden, kind):
    # The reference steps over a chord table of 2^16 samples per segment.
    route, scene, dt, outputs = SIM_GOLDENS[golden]
    keypoints = geo.load_keypoints(route.read_text())
    curve = PathCurve(kind, keypoints[:, :3])
    budget = SceneSpec.from_json(scene.read_text()).energy_budget
    times, _, _ = reference_step_states(curve, SpeedProfile.from_keypoints(keypoints), dt, budget,
                                        chord_lookup(curve, 1 << 16))
    parent_miss = abs(PARENT_TIME_USED[golden, kind] - times[-1])
    for out in outputs:
        time_used = json.loads((out / f"sim_{kind}.json").read_text())["time_used"]
        assert abs(time_used - times[-1]) <= parent_miss


def random_walk(n, seed=7):
    return np.cumsum(np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 3)), axis=0)


# Intervals per segment: a tension-0 route has zero tangents at its knots,
# where the Hermite slopes fall back to linear, so its tables refine more.
# The tension-0 bound is the most seen on 60 random walks of up to 1000
# keypoints; this walk needs 64.7 at tension 0, 26.6 at 0.5 and 24.0 at 1
# (23.7-24.5 over six more seeds).
@pytest.mark.parametrize("kind, n, tension, per_segment", [
    pytest.param("catmull_rom", 1000, 0.5, 50, id="catmull_rom-1000"),
    pytest.param("catmull_rom", 1000, 0.0, 81, id="catmull_rom-1000-tension_0"),
    pytest.param("catmull_rom", 1000, 1.0, 30, id="catmull_rom-1000-tension_1"),
    pytest.param("bezier", 100, 0.5, 50, id="bezier-100")])
def test_table_work_grows_linearly_in_the_keypoints(kind, n, tension, per_segment):
    # The 2048-chord table evaluated 2048 (N - 1) parameters, each bezier one
    # at O(N^2); the quadrature evaluates about 100 (N - 1) on these routes,
    # and the Hermite refinement none.
    evaluated, evaluate = [], PathCurve._evaluate

    def counted(curve, ss, deriv):
        evaluated.append(np.size(ss))
        return evaluate(curve, ss, deriv)

    curve = PathCurve(kind, random_walk(n), tension)
    with mock.patch.object(PathCurve, "_evaluate", counted):
        sim._step_states(curve, SpeedProfile(np.ones(n)), 1.0, 300.0)
    assert sum(evaluated) <= 200 * (n - 1)
    lengths, _ = spline._arc_table(curve)
    assert len(lengths) <= per_segment * (n - 1)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["polyline", "bezier", "catmull_rom"]),
    # keypoints drawn from a pool of three, so consecutive duplicates
    # (zero-length chords, repeated arc-table lengths) are common
    picks=st.lists(st.integers(0, 2), min_size=2, max_size=5),
    pool=st.lists(st.tuples(grid, grid, grid), min_size=3, max_size=3),
    speeds=(st.lists(st.sampled_from([0.5, 1.0, 2.5, 7.0]), min_size=5, max_size=5)
            | st.sampled_from([0.5, 1.0, 2.5, 7.0]).map(lambda v: [v] * 5)),
    # half of the runs take small steps, which cross every arc-table
    # interval many times over
    dt=st.sampled_from([0.005, 0.001]) | st.sampled_from([0.05, 0.1, 0.37]),
    # arbitrary budgets run out with s inside a table interval
    budget=st.sampled_from([3.0, 300.0]) | st.floats(0.01, 10.0),
)
# The first step ends about 3e-14 below the knot at s = 2/3, a speed knot,
# and the next step reads its speed off the line of the piece that ends
# there.  It makes no np.interp call: the stepper's np.interp fallback, for
# an s behind its piece's start, has its own test on a hand-made table
# (test_step_states_speed_of_an_s_behind_its_piece).
@example(kind="polyline", picks=[1, 2, 0, 1],
         pool=[(-3.0, 4.0, 2.0), (1.0, 0.0, -2.0), (0.0, 2.0, -2.0)],
         speeds=[1.0, 2.5, 0.5, 7.0, 1.0], dt=7.621232784633843, budget=300.0)
# Equal-speed stretches, taken in array passes: the budget cuts one short
# in the middle; one ends exactly on the path end (7 = 14 steps of 0.5);
# the speed changes at an interior knot; a zero-length chord lies inside
# one; and no budget, sample_trajectory's default.
@example(kind="polyline", picks=[0, 1, 2],
         pool=[(0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (4.0, 3.0, 0.0)],
         speeds=[1.0] * 5, dt=0.05, budget=2.33)
@example(kind="polyline", picks=[0, 1, 2],
         pool=[(0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (4.0, 3.0, 0.0)],
         speeds=[1.0] * 5, dt=0.5, budget=300.0)
@example(kind="polyline", picks=[0, 1, 2, 1, 0],
         pool=[(0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (4.0, 3.0, 0.0)],
         speeds=[1.0, 1.0, 2.5, 2.5, 2.5], dt=0.05, budget=300.0)
@example(kind="catmull_rom", picks=[0, 1, 1, 2],
         pool=[(0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (4.0, 3.0, 0.0)],
         speeds=[1.0] * 5, dt=0.05, budget=300.0)
@example(kind="catmull_rom", picks=[0, 1, 2, 0],
         pool=[(0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (4.0, 3.0, 0.0)],
         speeds=[2.5] * 5, dt=0.005, budget=math.inf)
# Hand-offs between speed pieces: the budget runs out in an equal-speed
# piece that follows a varying one, so a loop step is taken in a piece of
# slope 0; steps leave varying pieces past their last table entry; a
# varying piece is entered straight from an array pass.
@example(kind="polyline", picks=[0, 1, 2],
         pool=[(0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (4.0, 3.0, 0.0)],
         speeds=[1.0, 2.5, 2.5, 2.5, 2.5], dt=0.05, budget=3.0)
@example(kind="polyline", picks=[0, 1, 2, 0],
         pool=[(0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (4.0, 3.0, 0.0)],
         speeds=[1.0, 7.0, 0.5, 2.5, 1.0], dt=0.37, budget=300.0)
@example(kind="polyline", picks=[0, 1, 2],
         pool=[(0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (4.0, 3.0, 0.0)],
         speeds=[1.0, 1.0, 2.5, 2.5, 2.5], dt=0.05, budget=300.0)
# The new table's cases: a zero-length catmull_rom segment (three equal
# keypoints at the start), a bezier cusp on an interval end (the route
# reverses along x at the knot s = 1/2), and a varying-speed piece entered
# straight from an array pass on a curve.
@example(kind="catmull_rom", picks=[0, 0, 0, 1, 2],
         pool=[(0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (4.0, 3.0, 0.0)],
         speeds=[1.0, 2.5, 0.5, 7.0, 1.0], dt=0.05, budget=300.0)
@example(kind="bezier", picks=[0, 1, 0],
         pool=[(0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (4.0, 3.0, 0.0)],
         speeds=[1.0, 2.5, 0.5, 7.0, 1.0], dt=0.005, budget=300.0)
@example(kind="catmull_rom", picks=[0, 1, 2],
         pool=[(0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (4.0, 3.0, 0.0)],
         speeds=[1.0, 1.0, 2.5, 2.5, 2.5], dt=0.05, budget=300.0)
# Window edges (_WINDOW is also patched to 1 and 2 below): the second step
# lands exactly on the first entry past s = 0, the last bound of a 1-interval
# window (dt 1: speeds 1, then 32 * 0.0625 + 1 = 3); the same landing at
# the end of a zero-length interval (a repeated keypoint), the last of a
# 2-interval window; and a first step that lands exactly on an entry as the
# first window is loaded.
@example(kind="polyline", picks=[0, 1, 2, 1, 0],
         pool=[(0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (4.0, 3.0, 0.0)],
         speeds=[1.0, 9.0, 2.5, 0.5, 7.0], dt=1.0, budget=300.0)
@example(kind="polyline", picks=[0, 1, 1, 2, 0],
         pool=[(0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (4.0, 3.0, 0.0)],
         speeds=[1.0, 9.0, 2.5, 0.5, 7.0], dt=1.0, budget=300.0)
@example(kind="polyline", picks=[0, 1, 2, 1, 0],
         pool=[(0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (4.0, 3.0, 0.0)],
         speeds=[1.0, 9.0, 2.5, 0.5, 7.0], dt=4.0, budget=300.0)
def test_step_states_equal_reference(kind, picks, pool, speeds, dt, budget):
    curve = PathCurve(kind, [pool[i] for i in picks])
    profile = SpeedProfile(np.array(speeds[:len(picks)]))
    ref_times, ref_s, ref_completed = reference_step_states(curve, profile, dt, budget)
    for window in (sim._WINDOW, 1, 2):
        with mock.patch.object(sim, "_WINDOW", window):
            times, s_values, completed = sim._step_states(curve, profile, dt, budget)
        assert times.tobytes() == np.array(ref_times).tobytes()
        assert s_values.tobytes() == np.array(ref_s).tobytes()
        assert completed == ref_completed


def test_step_states_speed_of_an_s_behind_its_piece():
    # A hand-made one-interval table whose inverse cubic, s = 4x - 9x^2 + 6x^3
    # at x = ell / 2, rises to 5/9 and falls to 4/9 before it reaches 1: the
    # first step ends at s = 0.53125, past the speed knot s = 1/2, and the
    # next, in the same interval, at s = 0.46 behind it, whose speed only
    # np.interp gives.
    curve = PathCurve("polyline", [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0)])
    profile = SpeedProfile([1.0, 2.0, 1.0])
    table = np.array([0.0, 2.0]), np.array([[0.0], [2.0], [0.0], [4.0], [-9.0], [6.0]])
    with mock.patch.object(spline, "_arc_table", return_value=table):
        ref_times, ref_s, ref_completed = reference_step_states(curve, profile, 0.5, 300.0)
    assert ref_s[1] > 0.5 > ref_s[2]
    for window in (sim._WINDOW, 1, 2):
        with mock.patch.object(sim, "_WINDOW", window), \
             mock.patch.object(sim, "_arc_table", return_value=table), \
             mock.patch.object(sim.np, "interp", side_effect=np.interp) as interp:
            times, s_values, completed = sim._step_states(curve, profile, 0.5, 300.0)
        assert interp.call_count >= 1
        assert times.tobytes() == np.array(ref_times).tobytes()
        assert s_values.tobytes() == np.array(ref_s).tobytes()
        assert completed == ref_completed


@pytest.mark.parametrize("kind", ["polyline", "bezier", "catmull_rom"])
def test_step_states_search_only_off_the_cursors(kind):
    # The demo route at a different speed per keypoint, so no array pass
    # applies: the pieces' speed lines and the table window resolve its ~10k
    # steps, and the searches (the speeds' np.interp, the table's
    # np.searchsorted) see only the few lookups they leave, such as a step
    # past the window.
    keypoints = geo.load_keypoints((DATA_DIR / "demo_route_speeds.csv").read_text())
    curve = PathCurve(kind, keypoints[:, :3])
    profile = SpeedProfile(np.array([800.0, 600.0, 900.0, 700.0, 1000.0, 650.0]))
    with mock.patch.object(sim.np, "interp", side_effect=np.interp) as interp, \
         mock.patch.object(sim.np, "searchsorted", side_effect=np.searchsorted) as search:
        times, _, _ = sim._step_states(curve, profile, 0.005, 300.0)
    assert len(times) > 10_000
    assert interp.call_count + search.call_count <= 30


def test_step_states_search_once_per_window_on_a_large_table():
    # A 1000-keypoint catmull-rom at a speed per keypoint, about 26k table
    # intervals, all walked by single steps.  A step searches the table
    # only to reload the window, and np.interp only for the speed of an s
    # behind its piece's start, about once per keypoint.
    n = 1000
    curve = PathCurve("catmull_rom", random_walk(n))
    profile = SpeedProfile(np.random.default_rng(3).uniform(20.0, 40.0, n))
    intervals = spline._arc_table(curve)[1].shape[1]
    with mock.patch.object(sim.np, "interp", side_effect=np.interp) as interp, \
         mock.patch.object(sim.np, "searchsorted", side_effect=np.searchsorted) as search:
        times, _, completed = sim._step_states(curve, profile, 0.0005, 300.0)
    assert completed and len(times) > intervals
    assert interp.call_count + search.call_count <= intervals / sim._WINDOW + n + 30


def step_states_passes(curve, profile, dt, budget):
    """_step_states' result, the number of lengths each _s_at call was
    asked for, and the steps the array passes took."""
    queried, passed = [], []

    def stretch_steps(*args):
        times, s_values, ell = take_stretch(*args)
        passed.append(len(times))
        return times, s_values, ell

    def s_at(table, ells):
        queried.append(np.size(ells))
        return table_s_at(table, ells)

    take_stretch, table_s_at = sim._stretch_steps, sim._s_at
    with mock.patch.object(sim, "_s_at", side_effect=s_at), \
         mock.patch.object(sim, "_stretch_steps", side_effect=stretch_steps):
        result = sim._step_states(curve, profile, dt, budget)
    return result, queried, sum(passed)


def test_stretch_passes_query_about_one_length_per_step():
    # 100 stretches of two knots, speeds 1 and 2 in turn, between intervals
    # where the speed varies.  Each pass is sized to its stretch, so the
    # lengths queried stay linear in the steps; a pass sized to the rest of
    # the path would query about 50 times as many.
    points = np.cumsum(np.random.default_rng(5).uniform(-1.0, 1.0, (200, 3)), axis=0)
    speeds = np.repeat(np.tile([1.0, 2.0], 50), 2)
    (times, _, completed), queried, passed = step_states_passes(
        PathCurve("polyline", points), SpeedProfile(speeds), 0.01, 300.0)
    assert completed
    assert passed > 0.3 * len(times)
    assert sum(queried) <= 2 * len(times) + 8 * 100


@pytest.mark.parametrize("kind", ["polyline", "bezier", "catmull_rom"])
def test_equal_speed_route_steps_in_array_passes(kind):
    # One speed at every demo keypoint: all but a few steps are array
    # passes, and the route is one piece, so a pass does not stop at each
    # of its five knot intervals.
    keypoints = geo.load_keypoints((DATA_DIR / "demo_route_speeds.csv").read_text())
    curve = PathCurve(kind, keypoints[:, :3])
    (times, _, _), queried, passed = step_states_passes(
        curve, SpeedProfile.from_keypoints(keypoints), 0.005, 300.0)
    assert len(times) > 10_000
    assert len(times) - 1 - passed <= 30
    assert len(queried) <= 2


@settings(max_examples=150, deadline=None)
@given(
    positions=st.lists(point3, min_size=1, max_size=40),
    pool=st.lists(point3, min_size=1, max_size=3),
    radii=st.lists(radius, min_size=0, max_size=6),
    agent=st.sampled_from([0.0, 0.5, 1.0]),
    block=st.integers(1, 64),
)
# Row 32 opens the second chunk and, at one chunk per batch, its batch: the
# first obstacle is entered there, while the second holds rows 31 and 32
# and is entered once, at row 31.
@example(positions=[((k - 32) * 0.25, 0.0, 0.0) for k in range(40)],
         pool=[(0.0, 0.0, 0.0), (-0.125, 0.0, 0.0)], radii=[0.125, 0.25], agent=0.0, block=1)
def test_count_collisions_equals_reference(positions, pool, radii, agent, block):
    obstacles = [(pool[i % len(pool)], r) for i, r in enumerate(radii)]
    scene = scene_of(obstacles, agent_radius=agent)
    positions = np.array(positions)
    with mock.patch.object(sim, "DISTANCE_BLOCK", block):  # many small blocks
        count = sim._count_collisions(positions, scene)
    assert count == reference_count_collisions(positions, scene)


@settings(max_examples=500, deadline=None)
@given(ray=st.tuples(point3, nonzero3, target_scenes()) | grazing_rays())
@example(ray=((-5.0, 0.0, 0.0), (1.0, 0.0, 0.0),  # tangent ray
              ray_scene(("rim", (0, 3, 0), 3.0))))
@example(ray=((0.0, 0.0, 0.0), (1.0, 0.0, 0.0),  # tie: the first target wins
              ray_scene(("a", (5, 0, 0), 1.0), ("b", (5, 0, 0), 1.0))))
def test_cast_ray_equals_reference(ray):
    origin, direction, scene = ray
    new = outcome(cast_ray, origin, direction, scene)
    assert new == outcome(reference_cast_ray, origin, direction, scene)


@settings(max_examples=300, deadline=None)
@given(
    direction=nonzero3,
    sigma=st.sampled_from([0.0, 1e-3, 0.05, 0.5, 2.0, 1000.0]) | st.floats(0, 50),
    seed=st.integers(0, 2**32),
)
def test_perturb_direction_equals_reference(direction, sigma, seed):
    new = outcome(perturb_direction, np.random.default_rng(seed), direction, sigma)
    ref = outcome(reference_perturb_direction, np.random.default_rng(seed), direction, sigma)
    if isinstance(ref, str):  # the norm of a tiny direction underflows to 0
        assert new == ref
    else:
        assert new.tobytes() == ref.tobytes()  # signed zeros included


# Rows whose dots stay finite: magnitudes from 1e-160 to 1e151, subnormals
# and zeros of both signs.
row_value = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e-160, -1e150]),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10, 10), st.integers(-160, 150)),
)
value_rows = st.lists(st.tuples(row_value, row_value, row_value), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(a=value_rows, b=value_rows)
def test_rowdot_equals_numpy_dot_and_norm(a, b):
    # Every dot and norm of the batched ray kernels comes from _rowdot; on
    # a platform where matmul stops sharing np.dot's kernel this fails.
    n = min(len(a), len(b))
    a, b = np.array(a[:n]), np.array(b[:n])
    dots, norms = sim._rowdot(a, b), np.sqrt(sim._rowdot(a, a))
    for i in range(n):
        assert dots[i].tobytes() == np.dot(a[i], b[i]).tobytes()
        assert norms[i].tobytes() == np.linalg.norm(a[i]).tobytes()


@settings(max_examples=150, deadline=None)
@given(directions=st.lists(nonzero3, min_size=1, max_size=50),
       # 0 draws nothing; at 1e-3 exp(-2 kappa) underflows to 0
       sigma=st.sampled_from([0.0, 1e-3, 0.05, 1000.0]),
       seed=st.integers(0, 2**32))
def test_batched_aim_equals_sequential_reference(directions, sigma, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    new = outcome(lambda: sim._perturb_rows(
        rng, sim._unit_rows(np.array(directions), "direction must be nonzero"), sigma))
    ref = outcome(lambda: np.array(
        [reference_perturb_direction(ref_rng, d, sigma) for d in directions]))
    if isinstance(ref, str):  # the norm of a tiny direction underflows to 0
        assert new == ref
    else:
        assert new.tobytes() == ref.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("center, expected", [
    ((2.0**665, 0.0, 0.0), (2, 0)),   # the origin is on its surface: hit first, at t = 0
    ((-2.0**666, 0.0, 0.0), (2, 2)),  # wholly behind the origin
])
def test_run_ray_task_rescales_overflowing_discriminant(center, expected):
    # A target of radius 2^665 (about 1.3e200) on the ray's line is a
    # candidate whose discriminant overflows; the hit test is then redone on
    # oc, b and r scaled by 1/k.  Skipping it instead would give (2, 2) twice.
    scene = ray_scene(("near", (10, 0, 0), 1.0), ("huge", center, 2.0**665))
    points = np.array([(0.0, 0.0, 0.0), (0.0, 20.0, 0.0), (0.0, 0.0, 0.0)])
    assert run_ray_task(points, 0.0, 0, scene, 12.0) == expected
    for sigma, seed in [(0.0, 0), (0.05, 1), (0.5, 2)]:
        assert (run_ray_task(points, sigma, seed, scene, 12.0)
                == reference_run_ray_task(points, sigma, seed, scene, 12.0))


@settings(max_examples=100, deadline=None)
@given(
    scene=target_scenes(max_targets=4),
    steps=st.lists(point3, min_size=0, max_size=30),
    start_inside=st.booleans(),
    sigma=st.sampled_from([0.0, 0.1, 1.0]),
    seed=st.integers(0, 1000),
    trigger=st.one_of(st.none(), st.sampled_from([0.5, 2.0, 6.0])),
    block=st.integers(1, 16),
)
# The second point enters only the big target's zone, but the small target
# is nearer, outside its own smaller zone: the attempt aims at it and hits.
@example(scene=scene_of(targets=[("big", (2.6, 0.0, 0.0), 1.0), ("small", (2.0, 0.0, 0.0), 0.5)]),
         steps=[(0.0, 0.0, 0.0)], start_inside=False, sigma=0.0, seed=0, trigger=None, block=64)
def test_run_ray_task_equals_reference(scene, steps, start_inside, sigma, seed, trigger,
                                       block):
    first = scene.targets[0, :3] + (0.25, 0.0, 0.0) if start_inside else (9.0, 9.0, 9.0)
    points = np.array([tuple(first)] + steps)
    with mock.patch.object(sim, "DISTANCE_BLOCK", block):
        new = outcome(run_ray_task, points, sigma, seed, scene, trigger)
    assert new == outcome(reference_run_ray_task, points, sigma, seed, scene, trigger)


@st.composite
def occluder_scenes(draw):
    """(points, scene, huge): a second target, the occluder, on the ray from
    the first point to the aimed target.

    The aimed target lies along an axis from the point, its near surface t_a
    away.  The occluder is concentric with it (a duplicate when the radii
    match), or centered farther along that axis with its near surface at
    t_a, then moved one ulp nearer or farther; huge makes its radius 2^665.
    Either target may have the lower index.  The point is left and entered
    again, so each trigger zone it leaves fires twice.
    """
    origin = np.array(draw(point3))
    axis, sign = draw(st.integers(0, 2)), draw(st.sampled_from([-1.0, 1.0]))
    r_a = draw(radius)
    center_a = origin.copy()
    center_a[axis] += sign * r_a * draw(st.sampled_from([1.5, 2.0, 3.0]) | st.floats(0.05, 3.0))
    huge = draw(st.booleans())
    r_o = 2.0**665 if huge else draw(st.just(r_a) | radius)
    if draw(st.booleans()):
        center_o = center_a
    else:
        t_a = abs(center_a[axis] - origin[axis]) - r_a
        center_o = origin.copy()
        center_o[axis] += sign * (t_a + r_o)
        nudge = draw(st.sampled_from([-1, 0, 1]))  # one ulp nearer, touching, or farther
        if nudge:
            center_o[axis] = np.nextafter(center_o[axis], sign * nudge * np.inf)
    targets = [("aimed", center_a, r_a), ("occluder", center_o, r_o)]
    if draw(st.booleans()):
        targets.reverse()
    away = origin + np.roll([0.0, 40.0, 0.0], axis)  # off the axis, out of every small zone
    return np.array([origin, away, origin]), scene_of(targets=targets), huge


@pytest.mark.parametrize("order, expected", [(1, (4, 4)), (-1, (4, 0))])
def test_run_ray_task_tie_goes_to_lower_index(order, expected):
    # Both zones fire at the origin and both rays aim at the nearer center,
    # (2, 0, 0); the occluder's near surface is at t = 1 too.  The attempt
    # hits only when the aimed target has the lower index.
    targets = [("aimed", (2, 0, 0), 1.0), ("occluder", (3, 0, 0), 2.0)][::order]
    points = np.array([(0.0, 0.0, 0.0), (0.0, 40.0, 0.0), (0.0, 0.0, 0.0)])
    assert run_ray_task(points, 0.0, 0, scene_of(targets=targets)) == expected


# Duplicates whose t_a = (1.5 + 2^-52) - (0.5 + 2^-53) ties and rounds to
# even, 1.0, and t_a + r rounds to even again, 1.5: each center lies an ulp
# beyond t_a + r, so a box without slack would drop the aimed target.
TIES_TO_EVEN = (np.array([(0.0, 0.0, 0.0), (0.0, 40.0, 0.0), (0.0, 0.0, 0.0)]),
                scene_of(targets=[(f"t{i}", (1.5 + 2.0**-52, 0.0, 0.0), 0.5 + 2.0**-53)
                                  for i in range(2)]), False)


@settings(max_examples=300, deadline=None)
@given(case=occluder_scenes(), sigma=st.sampled_from([0.0, 1e-9, 0.05]),
       seed=st.integers(0, 1000))
@example(case=TIES_TO_EVEN, sigma=0.0, seed=0)
def test_run_ray_task_on_occluder_scenes_equals_reference(case, sigma, seed):
    # An attempt hits when nothing lies on its ray before the aimed target
    # (nor at the same t with a lower index), so these occluders decide it.
    points, scene, huge = case
    new = outcome(run_ray_task, points, sigma, seed, scene)
    assert new == outcome(reference_run_ray_task, points, sigma, seed, scene)


# --- pruned scene tests --------------------------------------------------------
# _entry_pairs tests each chunk of positions only against the spheres in
# its bounding box grown by the largest reach.  These scenes make that box
# drop most spheres and let spheres leave and re-enter the candidate sets.

AGENT = 0.5
SPREAD_RADII = [0.25, 0.5, 1.0, 2.5, 6.0]  # dyadic: every reach below is exact


@st.composite
def spread_scenes(draw, targets=False):
    """(positions, centers, radii, trigger) over a walk spanning +-100 units.

    The positions are a random walk of small steps on a 1/16 grid, scaled
    to span +-100 units on its widest axis.  Half the spheres lie anywhere
    in that range, half near the walk, and some exactly one reach (radius
    + AGENT, or the trigger distance for targets) from a position along an
    axis, touching, or one ulp farther or nearer.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_points = draw(st.integers(2, 400))
    walk = np.cumsum(rng.normal(0.0, 1.0, (n_points, 3)), axis=0)
    walk -= walk.mean(axis=0)
    positions = np.round(walk * (1600.0 / max(np.abs(walk).max(), 1e-9))) / 16.0
    n = draw(st.integers(20, 300))
    radii = rng.choice(SPREAD_RADII, n)
    trigger = draw(st.sampled_from([None, 2.0, 7.5])) if targets else None
    if not targets:
        reach = radii + AGENT
    else:
        reach = sim.TRIGGER_RADIUS_FACTOR * radii if trigger is None else np.full(n, trigger)
    centers = rng.uniform(positions.min(axis=0), positions.max(axis=0), (n, 3))
    near = rng.random(n) < 0.5
    centers[near] = (positions[rng.integers(0, n_points, near.sum())]
                     + rng.normal(0.0, 3.0, (near.sum(), 3)))
    touch = np.flatnonzero(rng.random(n) < 0.3)
    axis = rng.integers(0, 3, len(touch))
    sign = rng.choice([-1.0, 1.0], len(touch))
    centers[touch] = positions[rng.integers(0, n_points, len(touch))]
    centers[touch, axis] += sign * reach[touch]
    nudge = rng.integers(-1, 2, len(touch))  # one ulp nearer, touching, or farther
    for j, a, s, k in zip(touch, axis, sign, nudge):
        if k:
            centers[j, a] = np.nextafter(centers[j, a], s * k * np.inf)
    return positions, centers, radii, trigger


# Rounds into reach: |2^-53 - (1 + 2^-52)| rounds to exactly 1.0, outside a
# box bound 2^-53 + 1.0 that rounds to 1.0 as well.
ROUNDING_TOUCH = (np.array([[0.0, 0.0, 0.0], [2.0**-53, 0.0, 0.0]]),
                  np.array([[1.0 + 2.0**-52, 0.0, 0.0]]), np.array([0.5]))


@settings(max_examples=60, deadline=None)
@given(scene=spread_scenes(), rows=st.sampled_from([1, 2, 5]) | st.integers(1, 60))
@example(scene=ROUNDING_TOUCH + (None,), rows=2)
def test_count_collisions_on_spread_scene_equals_reference(scene, rows):
    positions, centers, radii, _ = scene
    spec = SceneSpec(obstacles=np.column_stack([centers, radii]), agent_radius=AGENT)
    with mock.patch.object(sim, "DISTANCE_BLOCK", rows * len(centers)):
        count = sim._count_collisions(positions, spec)
    assert count == reference_count_collisions(positions, spec)


@settings(max_examples=40, deadline=None)
@given(scene=spread_scenes(targets=True), rows=st.sampled_from([1, 2, 5]) | st.integers(1, 60),
       sigma=st.sampled_from([0.0, 0.05, 0.5]), seed=st.integers(0, 1000))
@example(scene=(ROUNDING_TOUCH[0], ROUNDING_TOUCH[1], np.array([0.25]), 1.0),
         rows=2, sigma=0.0, seed=0)
def test_run_ray_task_on_spread_scene_equals_reference(scene, rows, sigma, seed):
    positions, centers, radii, trigger = scene
    spec = SceneSpec(targets=np.column_stack([centers, radii]),
                     target_ids=tuple(f"t{i}" for i in range(len(radii))))
    with mock.patch.object(sim, "DISTANCE_BLOCK", rows * len(centers)):
        new = outcome(run_ray_task, positions, sigma, seed, spec, trigger)
    assert new == outcome(reference_run_ray_task, positions, sigma, seed, spec, trigger)


def test_entry_pairs_skip_far_spheres():
    # On the spread golden's route most obstacles are outside every
    # chunk's box and are never measured.
    golden = GOLDEN_DIR / "sim_spread"
    keypoints = geo.load_keypoints((golden / "route.csv").read_text())
    route = PathCurve.catmull_rom(keypoints[:, :3])
    scene = SceneSpec.from_json((golden / "scene.json").read_text())
    positions = sample_trajectory(route, SpeedProfile.from_keypoints(keypoints), 0.02).positions
    measured = sum(len(dist) for _, _, dist, _ in sim._entry_pairs(
        positions, scene.obstacle_centers, scene.obstacle_reach, scene._obstacle_sort))
    assert 0 < measured < 0.1 * len(positions) * len(scene.obstacles)


def test_ray_task_resolves_few_pairs_per_attempt():
    # On the spread golden's route (150 targets) each attempt resolves its
    # aimed target and the few targets in the box around its origin, not
    # every target in the scene.
    golden = GOLDEN_DIR / "sim_spread"
    keypoints = geo.load_keypoints((golden / "route.csv").read_text())
    route = PathCurve.polyline(keypoints[:, :3])
    scene = SceneSpec.from_json((golden / "scene.json").read_text())
    positions = sample_trajectory(route, SpeedProfile.from_keypoints(keypoints), 0.02).positions
    resolved = []
    ray_times, first_hits = sim._ray_times, sim._first_hits

    def counted_times(oc, directions, radii):
        resolved.append(len(oc))
        return ray_times(oc, directions, radii)

    def counted_first_hits(*args):
        with mock.patch.object(sim, "_ray_times", counted_times):
            return first_hits(*args)

    with mock.patch.object(sim, "_first_hits", counted_first_hits):
        attempts, hits = run_ray_task(positions, 0.05, 5, scene)
    assert attempts >= 30 and hits > 0
    assert 0 < sum(resolved) <= 4 * attempts
