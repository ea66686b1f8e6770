"""Deterministic roaming simulator over a path curve.

An agent (a sphere) follows a PathCurve at per-keypoint speeds through a
scene of sphere obstacles and selectable targets.  The simulator produces
the roaming-task metrics: traversal time, collision count (one event per
obstacle entry; re-entry counts again) and UI-ray selection accuracy.  Ray
aim error is modeled as seeded directional noise so accuracy is
reproducible without human subjects.  Traversal stops at the end of the
path or when the energy budget (default 300 s) runs out.
"""

from __future__ import annotations

import json
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, field, replace

import numpy as np

from .spline import ArcLengthError, PathCurve

DEFAULT_ENERGY_BUDGET = 300.0
DEFAULT_AGENT_RADIUS = 1.0

# Default ray-attempt trigger distance, as a multiple of each target's radius.
TRIGGER_RADIUS_FACTOR = 3.0

# Limit on the estimated time steps of one traversal.  The README demo takes
# about 10.5k steps per curve kind; beyond this limit a tiny dt would grow
# the step lists (and the positions array) until memory runs out.
MAX_STEPS = 2_000_000

# Distances per block in the scene tests (512 KB per float64 array):
# positions are tested against all sphere centers a block of rows at a time,
# so memory does not grow with positions x spheres.
DISTANCE_BLOCK = 1 << 16


class SimTooLargeError(ValueError):
    """The traversal would take more than MAX_STEPS time steps."""


def _as_center(value, what: str) -> np.ndarray:
    try:
        center = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        center = None
    if center is None or center.shape != (3,) or not np.all(np.isfinite(center)):
        raise ValueError(f"{what} center must be three finite numbers")
    return center


def _check_radius(radius, what: str) -> None:
    if (isinstance(radius, bool) or not isinstance(radius, numbers.Real)
            or not (math.isfinite(radius) and radius > 0)):
        raise ValueError(f"{what} radius must be a number > 0, got {radius!r}")


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_center(self.center, "sphere"))
        _check_radius(self.radius, "sphere")


@dataclass(frozen=True)
class Target:
    id: str
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_center(self.center, "target"))
        _check_radius(self.radius, "target")


def _scene_entries(doc: dict, key: str, build) -> tuple:
    """Build each entry of the scene list doc[key], naming it in any error."""
    items = doc.get(key, [])
    if not isinstance(items, list):
        raise ValueError(f"scene {key!r} must be a list, got {type(items).__name__}")
    what = key[:-1]
    built = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ValueError(f"{what} {i}: expected an object, got {type(item).__name__}")
        try:
            built.append(build(item))
        except KeyError as exc:
            raise ValueError(f"{what} {i}: missing {exc.args[0]!r}") from None
        except ValueError as exc:
            raise ValueError(f"{what} {i}: {exc}") from None
    return tuple(built)


def _scene_number(doc: dict, key: str, default: float) -> float:
    value = doc.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"scene {key!r} must be a number, got {value!r}") from None


@dataclass(frozen=True)
class SceneSpec:
    """Obstacle and target spheres plus agent radius and energy budget."""

    obstacles: tuple[Sphere, ...] = ()
    targets: tuple[Target, ...] = ()
    agent_radius: float = DEFAULT_AGENT_RADIUS
    energy_budget: float = DEFAULT_ENERGY_BUDGET
    # Sphere fields stacked once for the vectorized scene tests: (T, 3)
    # target centers and (T,) radii, (O, 3) obstacle centers and (O,) reach
    # (obstacle radius + agent radius, the inclusive collision distance).
    target_centers: np.ndarray = field(init=False, repr=False, compare=False)
    target_radii: np.ndarray = field(init=False, repr=False, compare=False)
    obstacle_centers: np.ndarray = field(init=False, repr=False, compare=False)
    obstacle_reach: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        object.__setattr__(self, "targets", tuple(self.targets))
        if not (math.isfinite(self.agent_radius) and self.agent_radius >= 0):
            raise ValueError(f"agent_radius must be >= 0, got {self.agent_radius!r}")
        if not (math.isfinite(self.energy_budget) and self.energy_budget > 0):
            raise ValueError(f"energy_budget must be > 0, got {self.energy_budget!r}")
        ids = [t.id for t in self.targets]
        if len(set(ids)) != len(ids):
            raise ValueError("target ids must be unique")
        targets, obstacles = self.targets, self.obstacles
        object.__setattr__(self, "target_centers",
                           np.array([t.center for t in targets]).reshape(-1, 3))
        object.__setattr__(self, "target_radii",
                           np.array([t.radius for t in targets], dtype=float))
        object.__setattr__(self, "obstacle_centers",
                           np.array([o.center for o in obstacles]).reshape(-1, 3))
        object.__setattr__(self, "obstacle_reach", np.array(
            [o.radius + self.agent_radius for o in obstacles], dtype=float))

    @classmethod
    def from_json(cls, text: str) -> "SceneSpec":
        """Parse the scene JSON document.

        Schema: {"obstacles": [{"center": [x,y,z], "radius": r}, ...],
        "targets": [{"id": "...", "center": [...], "radius": r}, ...],
        "agent_radius": r, "energy_budget": s}.  agent_radius defaults to
        1.0 and energy_budget to 300 when absent.  A malformed entry raises
        ValueError naming it, e.g. "obstacle 0: missing 'radius'".
        """
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"scene is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ValueError("scene JSON must be an object")
        obstacles = _scene_entries(
            doc, "obstacles", lambda o: Sphere(center=o["center"], radius=o["radius"]))
        targets = _scene_entries(
            doc, "targets",
            lambda t: Target(id=str(t["id"]), center=t["center"], radius=t["radius"]))
        return cls(
            obstacles=obstacles,
            targets=targets,
            agent_radius=_scene_number(doc, "agent_radius", DEFAULT_AGENT_RADIUS),
            energy_budget=_scene_number(doc, "energy_budget", DEFAULT_ENERGY_BUDGET),
        )

    def to_json(self) -> str:
        doc = {
            "obstacles": [
                {"center": list(o.center), "radius": o.radius} for o in self.obstacles
            ],
            "targets": [
                {"id": t.id, "center": list(t.center), "radius": t.radius}
                for t in self.targets
            ],
            "agent_radius": self.agent_radius,
            "energy_budget": self.energy_budget,
        }
        return json.dumps(doc, indent=2) + "\n"


@dataclass(frozen=True)
class SpeedProfile:
    """Per-keypoint speeds, interpolated linearly in global s between knots."""

    speeds: np.ndarray
    # Global s of each keypoint, the knots speeds are interpolated between.
    knots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        speeds = np.asarray(self.speeds, dtype=float)
        if speeds.ndim != 1 or len(speeds) < 2:
            raise ValueError("need a speed per keypoint (at least 2)")
        if not np.all(np.isfinite(speeds)) or np.any(speeds <= 0):
            raise ValueError("speeds must be finite and > 0")
        object.__setattr__(self, "speeds", speeds)
        object.__setattr__(self, "knots", np.linspace(0.0, 1.0, len(speeds)))

    @classmethod
    def from_keypoints(cls, keypoints) -> "SpeedProfile":
        return cls(np.array([kp.speed for kp in keypoints], dtype=float))

    @classmethod
    def constant(cls, speed: float, n_keypoints: int) -> "SpeedProfile":
        return cls(np.full(n_keypoints, float(speed)))

    def speed_at(self, s: float) -> float:
        return float(np.interp(s, self.knots, self.speeds))


@dataclass(frozen=True)
class SimResult:
    """Metrics of one roaming run."""

    time_used: float
    collisions: int
    ray_attempts: int
    ray_hits: int
    accuracy: float
    completed: bool

    def to_dict(self) -> dict:
        return {
            "time_used": self.time_used,
            "collisions": self.collisions,
            "ray_attempts": self.ray_attempts,
            "ray_hits": self.ray_hits,
            "accuracy": self.accuracy,
            "completed": self.completed,
        }


@dataclass(frozen=True)
class Trajectory:
    """Time-sampled states along a curve under a speed profile."""

    times: np.ndarray
    s_values: np.ndarray
    positions: np.ndarray


# Arc-length table resolution used by the traversal stepper.
ARC_TABLE_SAMPLES = 2048


def _arc_length_table(curve: PathCurve) -> tuple[np.ndarray, np.ndarray]:
    """Dense (s, cumulative length) table for arc-length parameterization."""
    grid = curve.grid(ARC_TABLE_SAMPLES)
    points = curve.positions(grid)
    chords = np.linalg.norm(np.diff(points, axis=0), axis=1)
    return grid, np.concatenate([[0.0], np.cumsum(chords)])


def _interp(x: float, xp: list, fp: list) -> float:
    """np.interp(x, xp, fp) for one float over lists, with numpy's arithmetic.

    Follows numpy's scalar loop case by case: NaN is returned as is, x
    outside [xp[0], xp[-1]] (or equal to xp[-1]) takes the end value, an
    exact knot takes its fp, and otherwise the interval is the last one
    whose left knot is <= x (so repeated knots resolve to the later copy).
    The line is evaluated from the left knot, and from the right knot when
    that gives NaN.  xp must be non-decreasing.
    """
    if x != x:
        return x
    j = bisect_right(xp, x) - 1
    if j < 0:
        return fp[0]
    if j >= len(xp) - 1:
        return fp[-1]
    if xp[j] == x:
        return fp[j]
    slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
    y = slope * (x - xp[j]) + fp[j]
    if y != y:
        y = slope * (x - xp[j + 1]) + fp[j + 1]
        if y != y and fp[j] == fp[j + 1]:
            y = fp[j]
    return y


def _step_states(curve: PathCurve, profile: SpeedProfile, dt: float, budget: float):
    """Advance along the curve in fixed time steps of dt.

    Each step moves speed*dt units of arc length, resolved through a dense
    precomputed arc-length table (speed is read at the step's start); the
    final step is shortened to land exactly on the path end or on the
    budget.  Returns (times, s_values, completed), starting at t=0.  Raises
    ArcLengthError when the path length overflows and SimTooLargeError when
    the estimated step count exceeds MAX_STEPS.
    """
    if len(profile.speeds) != len(curve.keypoints):
        raise ValueError(
            f"speed profile has {len(profile.speeds)} entries for "
            f"{len(curve.keypoints)} keypoints"
        )
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be > 0, got {dt!r}")

    s_grid, lengths = _arc_length_table(curve)
    total = float(lengths[-1])
    if not math.isfinite(total):
        raise ArcLengthError("path length overflows (keypoint coordinates too large)")
    # No step is slower than the slowest keypoint speed, so this bounds the
    # step count; ceil(x) > MAX_STEPS exactly when x > MAX_STEPS.
    estimate = min(budget, total / float(profile.speeds.min())) / dt
    if estimate > MAX_STEPS:
        raise SimTooLargeError(
            f"about {estimate:.3g} time steps at dt={dt!r} exceed the limit of "
            f"{MAX_STEPS}; use a larger dt"
        )

    # Python floats: one step is a few scalar operations, which numpy calls
    # would dominate.  _interp reproduces np.interp bit for bit.
    s_grid, lengths = s_grid.tolist(), lengths.tolist()
    knots, speeds = profile.knots.tolist(), profile.speeds.tolist()
    times = [0.0]
    s_values = [0.0]
    t, s, ell = 0.0, 0.0, 0.0
    completed = total == 0.0
    while not completed and t < budget:
        step = min(dt, budget - t)
        d_ell = _interp(s, knots, speeds) * step
        if ell + d_ell >= total:
            step *= (total - ell) / d_ell
            ell = total
            s = 1.0
            completed = True
        else:
            ell += d_ell
            s = _interp(ell, lengths, s_grid)
        t += step
        times.append(t)
        s_values.append(s)
    return times, s_values, completed


def sample_trajectory(
    curve: PathCurve,
    profile: SpeedProfile,
    dt: float,
    energy_budget: float = math.inf,
) -> Trajectory:
    """Time-sample positions along a curve."""
    times, s_values, _ = _step_states(curve, profile, dt, energy_budget)
    ss = np.array(s_values)
    return Trajectory(np.array(times), ss, curve.positions(ss))


def _entry_blocks(points: np.ndarray, centers: np.ndarray, reach):
    """Yield (first_row, dist, entries) over blocks of consecutive points.

    dist[i, j] is the distance from points[first_row + i] to centers[j],
    summed as sqrt((dx*dx + dy*dy) + dz*dz): the order np.linalg.norm uses
    over a last axis of length 3, so the values equal it bit for bit.
    entries[i, j] is True where that point is within reach[j] (inclusive)
    of center j and the point before it was not; a first point within reach
    counts as an entry.  A block holds at most DISTANCE_BLOCK distances, or
    a single row when there are more centers than that.
    """
    rows = max(1, DISTANCE_BLOCK // max(1, len(centers)))
    before = np.zeros(len(centers), dtype=bool)
    for start in range(0, len(points), rows):
        block = points[start:start + rows]
        # In place, to keep to two block-sized float arrays.
        dist = block[:, 0, None] - centers[:, 0]
        dist *= dist
        part = block[:, 1, None] - centers[:, 1]
        part *= part
        dist += part
        np.subtract(block[:, 2, None], centers[:, 2], out=part)
        part *= part
        dist += part
        np.sqrt(dist, out=dist)
        within = dist <= reach
        entries = within.copy()
        entries[0] &= ~before
        entries[1:] &= ~within[:-1]
        before = within[-1]
        yield start, dist, entries


def _count_collisions(positions: np.ndarray, scene: SceneSpec) -> int:
    """Count obstacle entry events along sampled positions.

    Overlap is inclusive (touching counts); starting inside an obstacle
    counts as an entry.
    """
    return sum(
        int(np.count_nonzero(entries))
        for _, _, entries in _entry_blocks(positions, scene.obstacle_centers,
                                           scene.obstacle_reach)
    )


def _traverse(curve: PathCurve, profile: SpeedProfile, scene: SceneSpec, dt: float):
    """traverse's result plus the sampled positions it counted collisions over."""
    times, s_values, completed = _step_states(curve, profile, dt, scene.energy_budget)
    positions = curve.positions(np.array(s_values))
    result = SimResult(time_used=times[-1], collisions=_count_collisions(positions, scene),
                       ray_attempts=0, ray_hits=0, accuracy=0.0, completed=completed)
    return result, positions


def traverse(curve: PathCurve, profile: SpeedProfile, scene: SceneSpec, dt: float) -> SimResult:
    """Run one traversal and report time, collisions and completion.

    Ray metrics are zero here; combine with run_ray_task (or use simulate)
    for the full task metrics.
    """
    return _traverse(curve, profile, scene, dt)[0]


# Prefilter slack in cast_ray, relative to |oc|^2 + r^2 (see there).
_DISC_SLACK = 2.0 ** -40
# Absolute slack on top, for discriminants whose terms underflow.
_DISC_FLOOR = 2.0 ** -1000


def cast_ray(origin, direction, scene: SceneSpec) -> str | None:
    """Intersect a ray with the scene's targets; nearest hit wins.

    Boundary contact is inclusive: a ray exactly tangent to a sphere hits
    it.  Returns the hit target's id, or None on a miss.  Obstacles do not
    block rays.
    """
    origin = np.asarray(origin, dtype=float)
    direction = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        raise ValueError("ray direction must be nonzero")
    d = direction / norm

    # Vectorized prefilter: keep every target whose discriminant might be
    # >= 0.  The scalar test below and this estimate compute the same
    # b*b - |oc|^2 + r^2 from the same oc and d, rounded in different orders
    # (np.dot may use FMA).  As |d| = 1, b*b <= |oc|^2, so each result is
    # within about 13 * 2^-53 * (|oc|^2 + r^2) of the exact discriminant
    # and the two differ by under 2^-48 * (|oc|^2 + r^2).  The slack is
    # 2^-40 of that scale plus a floor for underflow, so no target the
    # scalar test accepts is dropped; NaN estimates are kept too.  The
    # scalar test then decides, in target order, exactly as a loop over all
    # targets would.
    oc = origin - scene.target_centers
    b = oc @ d
    oc2 = np.einsum("ij,ij->i", oc, oc)
    r2 = scene.target_radii * scene.target_radii
    disc = b * b - oc2 + r2
    candidates = np.flatnonzero(~(disc < -(_DISC_SLACK * (oc2 + r2) + _DISC_FLOOR)))

    best_t = math.inf
    best_id = None
    for i in candidates.tolist():
        target = scene.targets[i]
        oc = origin - target.center
        b = float(np.dot(d, oc))
        disc = b * b - float(np.dot(oc, oc)) + target.radius * target.radius
        if disc < 0.0:
            continue
        root = math.sqrt(disc)
        t_hit = -b - root
        if t_hit < 0.0:
            t_hit = -b + root
        if 0.0 <= t_hit < best_t:
            best_t = t_hit
            best_id = target.id
    return best_id


def _check_sigma(sigma: float) -> None:
    # perturb_direction divides by kappa = 1/sigma^2, which is 0 once sigma^2
    # overflows.
    if not (sigma >= 0 and math.isfinite(sigma * sigma)):
        raise ValueError(f"sigma must be finite (below 1e154) and >= 0, got {sigma!r}")


def _check_ray_args(sigma: float, trigger_distance: float | None) -> None:
    _check_sigma(sigma)
    if trigger_distance is not None and not (
        math.isfinite(trigger_distance) and trigger_distance > 0
    ):
        raise ValueError(f"trigger_distance must be finite and > 0, got {trigger_distance!r}")


def perturb_direction(rng: np.random.Generator, direction, sigma: float) -> np.ndarray:
    """Apply seeded directional aim noise to a unit direction.

    The perturbed direction follows a von Mises-Fisher distribution around
    the ideal one with concentration 1/sigma^2, so sigma is the small-angle
    standard deviation per axis; sigma=0 returns the direction unchanged
    and large sigma approaches a uniform direction on the sphere.
    """
    _check_sigma(sigma)
    d = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(d)
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    d = d / norm
    if sigma * sigma == 0.0:  # includes subnormal sigma whose square underflows
        return d

    kappa = 1.0 / (sigma * sigma)
    u = rng.random()
    # Inverse-CDF sampling of the polar cosine w for the 3-D vMF distribution.
    w = 1.0 + math.log(u + (1.0 - u) * math.exp(-2.0 * kappa)) / kappa
    w = max(-1.0, min(1.0, w))
    phi = 2.0 * math.pi * rng.random()

    # Orthonormal frame (e1, e2) around d, in Python floats: e1 = d x axis
    # with axis the unit vector of d's smallest |component| (first on ties),
    # e2 = d x e1, each cross product in np.cross's own formula and order.
    d0, d1, d2 = d.tolist()
    mags = (abs(d0), abs(d1), abs(d2))
    smallest = mags.index(min(mags))
    a0, a1, a2 = (float(i == smallest) for i in range(3))
    e1 = (d1 * a2 - d2 * a1, d2 * a0 - d0 * a2, d0 * a1 - d1 * a0)
    n1 = float(np.linalg.norm(e1))
    f0, f1, f2 = e1[0] / n1, e1[1] / n1, e1[2] / n1
    g0, g1, g2 = d1 * f2 - d2 * f1, d2 * f0 - d0 * f2, d0 * f1 - d1 * f0
    sin_theta = math.sqrt(max(0.0, 1.0 - w * w))
    c, s = math.cos(phi), math.sin(phi)
    return np.array([
        sin_theta * (c * f0 + s * g0) + w * d0,
        sin_theta * (c * f1 + s * g1) + w * d1,
        sin_theta * (c * f2 + s * g2) + w * d2,
    ])


def run_ray_task(
    points,
    sigma: float,
    seed: int,
    scene: SceneSpec,
    trigger_distance: float | None = None,
) -> tuple[int, int]:
    """Emit selection rays along a trajectory and count attempts and hits.

    One attempt fires each time the agent enters the trigger zone of a
    target (distance below trigger_distance, default 3x that target's
    radius; being inside at the first point counts as an entry).  The
    attempt aims at the nearest target's center, perturbed by the seeded
    noise model, and hits when the cast ray strikes that intended target.
    Attempts are processed in time order, breaking ties by target order, so
    results are reproducible per seed.
    """
    if not scene.targets:
        raise ValueError("ray task needs at least one target in the scene")
    _check_ray_args(sigma, trigger_distance)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected (N, 3) trajectory points, got shape {points.shape}")

    centers = scene.target_centers
    triggers = (TRIGGER_RADIUS_FACTOR * scene.target_radii
                if trigger_distance is None else trigger_distance)
    rng = np.random.default_rng(seed)
    attempts = 0
    hits = 0
    for start, dist, entries in _entry_blocks(points, centers, triggers):
        # One row index per (point, target) entry, in row-major order.
        rows = np.nonzero(entries)[0]
        nearest = np.argmin(dist[rows], axis=1)
        for k, i in zip((rows + start).tolist(), nearest.tolist()):
            aim = centers[i] - points[k]
            if np.linalg.norm(aim) == 0.0:
                raise ValueError("ray origin coincides with the target center")
            direction = perturb_direction(rng, aim, sigma)
            attempts += 1
            if cast_ray(points[k], direction, scene) == scene.targets[i].id:
                hits += 1
    return attempts, hits


def simulate(
    curve: PathCurve,
    profile: SpeedProfile,
    scene: SceneSpec,
    dt: float,
    seed: int = 0,
    sigma: float = 0.0,
    trigger_distance: float | None = None,
) -> SimResult:
    """Full roaming run: traversal metrics plus the UI-ray task.

    sigma must be finite and >= 0 and trigger_distance (when given) finite
    and > 0; both are checked before stepping, with or without targets.
    """
    _check_ray_args(sigma, trigger_distance)
    result, positions = _traverse(curve, profile, scene, dt)
    if not scene.targets:
        return result
    attempts, hits = run_ray_task(positions, sigma, seed, scene, trigger_distance)
    return replace(result, ray_attempts=attempts, ray_hits=hits,
                   accuracy=hits / attempts if attempts else 0.0)
