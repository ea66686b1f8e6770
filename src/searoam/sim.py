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
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond 1.8e308
        center = None
    if center is None or center.shape != (3,) or not np.all(np.isfinite(center)):
        raise ValueError(f"{what} center must be three finite numbers")
    return center


def _check_radius(radius, what: str) -> None:
    try:
        valid = (not isinstance(radius, bool) and isinstance(radius, numbers.Real)
                 and math.isfinite(radius) and radius > 0)
    except OverflowError:  # an int too large for a float
        valid = False
    if not valid:
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
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond 1.8e308
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
    with np.errstate(over="ignore", invalid="ignore"):  # _step_states rejects the total
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
    budget.  Both lookups, speed at s and s at a length, are forward
    cursors over their tables, so a step costs the same whatever the table
    size; the values equal np.interp's bit for bit.  Returns (times,
    s_values, completed), starting at t=0.  Raises ArcLengthError when the
    path length overflows and SimTooLargeError when the estimated step
    count exceeds MAX_STEPS.
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
    # would dominate.  Each lookup keeps a cursor on one interval (lo, hi) =
    # (xp[j], xp[j + 1]) of its table, with the left value y = fp[j] and the
    # slope computed once when the cursor moves there: k_* over the speed
    # knots (s -> speed), a_* over the arc-length table (ell -> s).  For
    # lo < x < hi, j is the interval np.interp picks and slope * (x - lo) + y
    # are its operations, so the bits are the same.  A cursor only moves
    # forward, to the interval holding x.  Every other case goes to _interp,
    # which reproduces np.interp bit for bit: x on a knot, x behind the
    # cursor (a line can overshoot a table knot by an ulp, so s may step
    # back), x at or past the last knot, NaN, and a NaN line.  Each cursor
    # starts on the empty interval (xp[0], xp[0]).
    s_grid, lengths = s_grid.tolist(), lengths.tolist()
    knots, speeds = profile.knots.tolist(), profile.speeds.tolist()
    last_knot = knots[-1]
    kj, k_lo, k_hi, k_y, k_slope = -1, knots[0], knots[0], speeds[0], 0.0
    aj, a_lo, a_hi, a_y, a_slope = -1, lengths[0], lengths[0], s_grid[0], 0.0
    times = [0.0]
    s_values = [0.0]
    t, s, ell = 0.0, 0.0, 0.0
    completed = total == 0.0
    while not completed and t < budget:
        rest = budget - t
        step = rest if rest < dt else dt  # min(dt, rest), the same float
        if k_lo < s < k_hi:
            speed = k_slope * (s - k_lo) + k_y
        elif k_hi <= s < last_knot:
            while k_hi <= s:
                kj += 1
                k_lo, k_hi = k_hi, knots[kj + 1]
            k_y = speeds[kj]
            k_slope = (speeds[kj + 1] - k_y) / (k_hi - k_lo)
            speed = k_slope * (s - k_lo) + k_y if k_lo < s else _interp(s, knots, speeds)
        else:
            speed = _interp(s, knots, speeds)
        if speed != speed:
            speed = _interp(s, knots, speeds)
        d_ell = speed * step
        if ell + d_ell >= total:
            step *= (total - ell) / d_ell
            ell = total
            s = 1.0
            completed = True
        else:
            ell += d_ell
            if a_lo < ell < a_hi:
                s = a_slope * (ell - a_lo) + a_y
            elif a_hi <= ell < total:
                while a_hi <= ell:
                    aj += 1
                    a_lo, a_hi = a_hi, lengths[aj + 1]
                a_y = s_grid[aj]
                a_slope = (s_grid[aj + 1] - a_y) / (a_hi - a_lo)
                s = a_slope * (ell - a_lo) + a_y if a_lo < ell else _interp(ell, lengths, s_grid)
            else:
                s = _interp(ell, lengths, s_grid)
            if s != s:
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


# Slack of the bounding-box filter in _entry_blocks, relative to the box's
# coordinate scale plus the largest reach (see there).
_BOX_SLACK = 2.0 ** -40
# Absolute slack on top, for offsets whose squares are subnormal.
_BOX_FLOOR = 2.0 ** -499


def _entry_blocks(points: np.ndarray, centers: np.ndarray, reach):
    """Yield (first_row, cols, dist, entries) over blocks of consecutive points.

    cols are the indices, ascending, of the centers inside the block's
    bounding box grown by the largest reach; no other center is within
    reach of any point of the block.  dist[i, j] is the distance from
    points[first_row + i] to centers[cols[j]], summed as
    sqrt((dx*dx + dy*dy) + dz*dz): the order np.linalg.norm uses over a
    last axis of length 3, so the values equal it bit for bit.
    entries[i, j] is True where that point is within reach[cols[j]]
    (inclusive) of the center and the point before it was not; a first
    point within reach counts as an entry.  A block spans at most
    DISTANCE_BLOCK point-center pairs of the whole scene, or a single row
    when there are more centers than that; blocks without a candidate
    center are skipped.
    """
    if not len(centers):
        return
    reach = np.broadcast_to(np.asarray(reach, dtype=float), (len(centers),))
    grow = float(reach.max())
    axes = [np.ascontiguousarray(centers[:, a]) for a in range(3)]
    rows = max(1, DISTANCE_BLOCK // len(centers))
    before = np.zeros(len(centers), dtype=bool)
    for start in range(0, len(points), rows):
        block = points[start:start + rows]
        # The box keeps every center whose computed distance is <= reach:
        # with u = 2^-53, rounding (monotone, relatively within u) makes
        # that distance at least (1 - 4u) |p_a - c_a| on each axis a when
        # |p_a - c_a| >= 2^-500, so the center lies within (1 + 5u) reach,
        # or 2^-500 (1 + 2u), of the block on every axis.  The margin
        # exceeds the largest reach by 2^-40 (|bound| + reach) + 2^-499,
        # more than that plus the rounding of the margin and the bounds.
        # Overflowing bounds only widen the box; a NaN bound (a NaN point)
        # leaves its axis unfiltered.  Column reductions, because
        # block.min(axis=0) is about 10x slower.
        keep = np.ones(len(centers), dtype=bool)
        for a in range(3):
            column = block[:, a]
            lo, hi = float(column.min()), float(column.max())
            margin = grow + _BOX_SLACK * (max(abs(lo), abs(hi)) + grow) + _BOX_FLOOR
            lo, hi = lo - margin, hi + margin
            if lo <= hi:
                keep &= (axes[a] >= lo) & (axes[a] <= hi)
        cols = np.flatnonzero(keep)
        carried = before[cols]
        # Centers left out of this block are out of reach at its last row.
        before = np.zeros(len(centers), dtype=bool)
        if not len(cols):
            continue
        near = centers[cols]
        # In place, to keep to two block-sized float arrays.
        dist = block[:, 0, None] - near[:, 0]
        dist *= dist
        part = block[:, 1, None] - near[:, 1]
        part *= part
        dist += part
        np.subtract(block[:, 2, None], near[:, 2], out=part)
        part *= part
        dist += part
        np.sqrt(dist, out=dist)
        within = dist <= reach[cols]
        entries = within.copy()
        entries[0] &= ~carried
        entries[1:] &= ~within[:-1]
        before[cols] = within[-1]
        yield start, cols, dist, entries


def _count_collisions(positions: np.ndarray, scene: SceneSpec) -> int:
    """Count obstacle entry events along sampled positions.

    Overlap is inclusive (touching counts); starting inside an obstacle
    counts as an entry.
    """
    return sum(
        int(np.count_nonzero(entries))
        for _, _, _, entries in _entry_blocks(positions, scene.obstacle_centers,
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


# Prefilter slack in _ray_candidates, relative to |oc|^2 + r^2 (see there).
_DISC_SLACK = 2.0 ** -40
# Absolute slack on top, for discriminants whose terms underflow.
_DISC_FLOOR = 2.0 ** -1000


def _ray_unit(direction) -> np.ndarray:
    direction = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        raise ValueError("ray direction must be nonzero")
    return direction / norm


def _ray_candidates(origins: np.ndarray, directions: np.ndarray, scene: SceneSpec):
    """Yield, per ray (origins[k], unit directions[k]), the indices of the
    targets it may hit, ascending.

    Keeps every target whose discriminant might be >= 0.  _nearest_hit and
    this estimate compute the same b*b - |oc|^2 + r^2 from the same oc and d,
    rounded in different orders (np.dot may use FMA).  As |d| = 1,
    b*b <= |oc|^2, so each result is within about 13 * 2^-53 * (|oc|^2 + r^2)
    of the exact discriminant and the two differ by under
    2^-48 * (|oc|^2 + r^2).  The slack is 2^-40 of that scale plus a floor
    for underflow, so no target the scalar test accepts is dropped; NaN
    estimates are kept too.  Rays are tested a block of at most
    DISTANCE_BLOCK ray-target pairs at a time.
    """
    centers = scene.target_centers
    with np.errstate(over="ignore"):  # an infinite discriminant is kept
        r2 = scene.target_radii * scene.target_radii
    rows = max(1, DISTANCE_BLOCK // max(1, len(centers)))
    for start in range(0, len(origins), rows):
        o, d = origins[start:start + rows], directions[start:start + rows]
        ox = o[:, 0, None] - centers[:, 0]
        oy = o[:, 1, None] - centers[:, 1]
        oz = o[:, 2, None] - centers[:, 2]
        b = ox * d[:, 0, None] + oy * d[:, 1, None] + oz * d[:, 2, None]
        oc2 = ox * ox + oy * oy + oz * oz
        disc = b * b - oc2 + r2
        keep = ~(disc < -(_DISC_SLACK * (oc2 + r2) + _DISC_FLOOR))
        yield from (np.flatnonzero(row) for row in keep)


def _nearest_hit(origin: np.ndarray, d: np.ndarray, scene: SceneSpec, candidates):
    """The id of the nearest candidate target the ray hits, or None.

    Decides in target order, exactly as a loop over all targets would.
    Reads the stacked float centers and radii: a radius given as a huge
    int would otherwise be squared as an int.
    """
    best_t = math.inf
    best_id = None
    for i in candidates.tolist():
        oc = origin - scene.target_centers[i]
        b = float(np.dot(d, oc))
        r = float(scene.target_radii[i])
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
            best_id = scene.targets[i].id
    return best_id


def cast_ray(origin, direction, scene: SceneSpec) -> str | None:
    """Intersect a ray with the scene's targets; nearest hit wins.

    Boundary contact is inclusive: a ray exactly tangent to a sphere hits
    it.  Returns the hit target's id, or None on a miss.  Obstacles do not
    block rays.
    """
    origin = np.asarray(origin, dtype=float)
    d = _ray_unit(direction)
    candidates = next(_ray_candidates(origin.reshape(1, 3), d.reshape(1, 3), scene))
    return _nearest_hit(origin, d, scene, candidates)


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
    # The attempts, in order: the point each fires from and the nearest
    # target it aims at.  That target is never farther than the entered
    # one, so it is among the block's candidate columns.
    origin_rows, aimed = [], []
    for start, cols, dist, entries in _entry_blocks(points, centers, triggers):
        # One row index per (point, target) entry, in row-major order.
        rows = np.nonzero(entries)[0]
        origin_rows += (rows + start).tolist()
        aimed += cols[np.argmin(dist[rows], axis=1)].tolist()

    # Hits never feed back into the rng, so every direction is drawn first.
    rng = np.random.default_rng(seed)
    origins = points[origin_rows]
    directions = np.empty((len(aimed), 3))
    for n, (origin, i) in enumerate(zip(origins, aimed)):
        aim = centers[i] - origin
        if np.linalg.norm(aim) == 0.0:
            raise ValueError("ray origin coincides with the target center")
        directions[n] = _ray_unit(perturb_direction(rng, aim, sigma))

    hits = sum(
        _nearest_hit(origin, d, scene, candidates) == scene.targets[i].id
        for origin, d, i, candidates in zip(
            origins, directions, aimed, _ray_candidates(origins, directions, scene))
    )
    return len(aimed), hits


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
