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
# Points per block at most, so that a scene of a few spheres does not test
# the whole path in one block whose arrays are as large as the positions.
_ENTRY_BLOCK_ROWS = DISTANCE_BLOCK // 16


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


class _ByValue:
    """Equality and hash over _key(), the fields' values.  The generated
    dataclass methods would compare ndarray centers with ==, whose truth
    value is ambiguous, and could not hash them."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class Sphere(_ByValue):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_center(self.center, "sphere"))
        _check_radius(self.radius, "sphere")

    def _key(self) -> tuple:
        return tuple(self.center.tolist()), self.radius


@dataclass(frozen=True, eq=False)
class Target(_ByValue):
    id: str
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_center(self.center, "target"))
        _check_radius(self.radius, "target")

    def _key(self) -> tuple:
        return self.id, tuple(self.center.tolist()), self.radius


_JSON_NUMBERS = (float, int)


def _plain_center(value) -> bool:
    """Whether value is a list of three finite JSON numbers, the common case
    that needs no numpy call to check."""
    if type(value) is not list or len(value) != 3:
        return False
    x, y, z = value
    try:
        return (type(x) in _JSON_NUMBERS and type(y) in _JSON_NUMBERS
                and type(z) in _JSON_NUMBERS
                and math.isfinite(x) and math.isfinite(y) and math.isfinite(z))
    except OverflowError:  # an int beyond 1.8e308
        return False


def _prechecked(cls, **fields):
    """An instance of the frozen dataclass cls from fields already checked,
    built without running __post_init__ again."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _scene_entries(doc: dict, key: str, cls) -> tuple:
    """Check each entry of the scene list doc[key], naming it in any error,
    and build the Sphere or Target objects from one stacked center array.

    Checks run in the order the constructors run them: id, center and
    radius present, then the center, then the radius.  Centers that are
    not three plain finite numbers go through _as_center, which gives the
    error or the same floats as before.
    """
    items = doc.get(key, [])
    if not isinstance(items, list):
        raise ValueError(f"scene {key!r} must be a list, got {type(items).__name__}")
    what = key[:-1]
    kind = "target" if cls is Target else "sphere"
    ids, centers, radii = [], [], []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ValueError(f"{what} {i}: expected an object, got {type(item).__name__}")
        try:
            if cls is Target:
                ids.append(str(item["id"]))
            center, radius = item["center"], item["radius"]
            centers.append(center if _plain_center(center) else _as_center(center, kind))
            if not (type(radius) is float and 0.0 < radius < math.inf):
                _check_radius(radius, kind)
        except KeyError as exc:
            raise ValueError(f"{what} {i}: missing {exc.args[0]!r}") from None
        except ValueError as exc:
            raise ValueError(f"{what} {i}: {exc}") from None
        radii.append(radius)
    rows = list(np.array(centers, dtype=float).reshape(-1, 3))
    if cls is Target:
        return tuple(_prechecked(Target, id=t, center=c, radius=r)
                     for t, c, r in zip(ids, rows, radii))
    return tuple(_prechecked(Sphere, center=c, radius=r) for c, r in zip(rows, radii))


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
        return cls(
            obstacles=_scene_entries(doc, "obstacles", Sphere),
            targets=_scene_entries(doc, "targets", Target),
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
    """Dense (s, cumulative length) table for arc-length parameterization.

    Each chord is summed in place as sqrt((dx*dx + dy*dy) + dz*dz), the
    order np.linalg.norm uses over a last axis of length 3, and the table
    is accumulated in place after its leading 0.0 (0.0 + c == c), so the
    values equal the cumulative sum of np.linalg.norm's chords bit for bit.
    """
    grid = curve.grid(ARC_TABLE_SAMPLES)
    points = curve.positions(grid)
    lengths = np.empty(len(grid))
    lengths[0] = 0.0
    chords, part = lengths[1:], np.empty(len(grid) - 1)
    with np.errstate(over="ignore", invalid="ignore"):  # _step_states rejects the total
        np.subtract(points[1:, 0], points[:-1, 0], out=chords)
        chords *= chords
        for a in (1, 2):
            np.subtract(points[1:, a], points[:-1, a], out=part)
            part *= part
            chords += part
        np.sqrt(chords, out=chords)
        np.cumsum(lengths, out=lengths)
    return grid, lengths


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
    when there are more centers than that, and at most _ENTRY_BLOCK_ROWS
    points; blocks without a candidate center are skipped.
    """
    if not len(centers):
        return
    reach = np.broadcast_to(np.asarray(reach, dtype=float), (len(centers),))
    grow = float(reach.max())
    axes = [np.ascontiguousarray(centers[:, a]) for a in range(3)]
    rows = max(1, min(_ENTRY_BLOCK_ROWS, DISTANCE_BLOCK // len(centers)))
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


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.dot(a[i], b[i]) for each row i of two (k, 3) arrays, bit for bit.

    matmul's vector-vector loop is the kernel np.dot uses (a BLAS ddot,
    which may fuse multiply-adds), so np.sqrt(_rowdot(v, v)) equals
    np.linalg.norm(v[i]) too.  einsum and plain sums can round differently.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _unit_rows(v: np.ndarray, error: str) -> np.ndarray:
    """Each row of the (k, 3) array v divided by its norm; a zero norm
    raises ValueError(error)."""
    norm = np.sqrt(_rowdot(v, v))
    if not norm.all():
        raise ValueError(error)
    return v / norm[:, None]


# np.cross's column order: (a x b)[j] = a[_NEXT[j]] * b[_PREV[j]] - a[_PREV[j]] * b[_NEXT[j]].
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of each row pair of two (k, 3) arrays: its products and
    differences in its order, without its per-call overhead."""
    return a[:, _NEXT] * b[:, _PREV] - a[:, _PREV] * b[:, _NEXT]


def _ray_candidates(origins: np.ndarray, directions: np.ndarray, scene: SceneSpec):
    """Yield (ray, target) index arrays of the targets each ray (origins[k],
    unit directions[k]) may hit, in row-major order and in batches of whole
    rays.  A batch ends at the first block that brings it to
    DISTANCE_BLOCK // 8 pairs, so the caller's arrays stay bounded.

    Keeps every target whose discriminant might be >= 0.  _nearest_targets
    and this estimate compute the same b*b - |oc|^2 + r^2 from the same oc
    and d, rounded in different orders (np.dot may use FMA).  As |d| = 1,
    b*b <= |oc|^2, so each result is within about 13 * 2^-53 * (|oc|^2 + r^2)
    of the exact discriminant and the two differ by under
    2^-48 * (|oc|^2 + r^2).  The slack is 2^-40 of that scale plus a floor
    for underflow, so no target the exact test accepts is dropped; NaN
    estimates are kept too.  Rays are tested a block of at most
    DISTANCE_BLOCK // 8 ray-target pairs (64 KB per float64 array) at a
    time, in four block buffers allocated once.
    """
    centers = scene.target_centers
    with np.errstate(over="ignore"):  # an infinite discriminant is kept
        r2 = scene.target_radii * scene.target_radii
    rows = max(1, DISTANCE_BLOCK // 8 // max(1, len(centers)))
    shape = (min(rows, len(origins)), len(centers))
    buffers = [np.empty(shape) for _ in range(4)]
    rays, targets, pending = [], [], 0
    for start in range(0, len(origins), rows):
        o, d = origins[start:start + rows], directions[start:start + rows]
        off, b, oc2, part = (buf[:len(o)] for buf in buffers)
        # In place, as b = ox*dx + oy*dy + oz*dz and oc2 = ox*ox + oy*oy + oz*oz.
        for a in range(3):
            np.subtract(o[:, a, None], centers[:, a], out=off)
            if a == 0:
                np.multiply(off, d[:, 0, None], out=b)
                np.multiply(off, off, out=oc2)
            else:
                np.multiply(off, d[:, a, None], out=part)
                b += part
                np.multiply(off, off, out=part)
                oc2 += part
        # disc = b*b - oc2 + r2 and bound = -(_DISC_SLACK * (oc2 + r2) + _DISC_FLOOR)
        disc = np.multiply(b, b, out=part)
        disc -= oc2
        disc += r2
        bound = np.add(oc2, r2, out=off)
        bound *= _DISC_SLACK
        bound += _DISC_FLOOR
        np.negative(bound, out=bound)
        ray, target = np.nonzero(~(disc < bound))
        rays.append(ray + start)
        targets.append(target)
        pending += len(ray)
        if pending >= DISTANCE_BLOCK // 8:
            yield np.concatenate(rays), np.concatenate(targets)
            rays, targets, pending = [], [], 0
    if pending:
        yield np.concatenate(rays), np.concatenate(targets)


def _nearest_targets(origins: np.ndarray, directions: np.ndarray, scene: SceneSpec):
    """Per ray (origins[k], unit directions[k]), the index of the nearest
    target it hits, or -1.

    Boundary contact is inclusive.  Equally near targets resolve to the
    lowest index, as a loop over the targets in order that keeps only a
    strictly nearer hit would.  Reads the stacked float centers and radii:
    a radius given as a huge int would otherwise be squared as an int.
    """
    nearest = np.full(len(origins), -1)
    for rays, cand in _ray_candidates(origins, directions, scene):
        oc = origins[rays] - scene.target_centers[cand]
        r = scene.target_radii[cand]
        with np.errstate(over="ignore", invalid="ignore"):
            b = _rowdot(directions[rays], oc)
            disc = b * b - _rowdot(oc, oc) + r * r
            big = np.flatnonzero(~np.isfinite(disc))
            root = np.sqrt(disc)  # NaN where disc < 0: a miss, like a NaN disc
            if len(big):  # a square overflowed: the same test scaled by 1/k
                oc_k, r_k = oc[big], r[big]
                k = np.abs(oc_k).max(axis=1)
                k = np.where(k > r_k, k, r_k)  # max(r, max|oc|): r unless max|oc| > r
                oc_k /= k[:, None]
                b_k = b[big] / k
                r_k /= k
                root[big] = k * np.sqrt(b_k * b_k - _rowdot(oc_k, oc_k) + r_k * r_k)
            t = -b - root
            behind = t < 0.0
            t[behind] = -b[behind] + root[behind]
        hit = (0.0 <= t) & (t < math.inf)
        rays, cand, t = rays[hit], cand[hit], t[hit]
        # Sorted by ray, then by t; the sort is stable, so equal t keep their
        # target order and the first pair of each ray wins.
        order = np.lexsort((t, rays))
        rays, cand = rays[order], cand[order]
        first = np.ones(len(rays), dtype=bool)
        first[1:] = rays[1:] != rays[:-1]
        nearest[rays[first]] = cand[first]
    return nearest


def cast_ray(origin, direction, scene: SceneSpec) -> str | None:
    """Intersect a ray with the scene's targets; nearest hit wins.

    Boundary contact is inclusive: a ray exactly tangent to a sphere hits
    it.  Returns the hit target's id, or None on a miss.  Obstacles do not
    block rays.
    """
    origin = np.asarray(origin, dtype=float).reshape(1, 3)
    d = _unit_rows(np.asarray(direction, dtype=float).reshape(1, 3),
                   "ray direction must be nonzero")
    i = _nearest_targets(origin, d, scene)[0]
    return scene.targets[i].id if i >= 0 else None


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


def _perturb_rows(rng: np.random.Generator, d: np.ndarray, sigma: float) -> np.ndarray:
    """perturb_direction of each unit row of the (k, 3) array d, drawn in
    row order from rng.

    One rng.random(2k) call draws the stream k pairs of rng.random() calls
    (u, then phi) would.  The transcendentals stay Python's math functions,
    one call per row; everything else is IEEE-exact elementwise numpy in
    the order of the one-row formulas.
    """
    if sigma * sigma == 0.0:  # includes subnormal sigma whose square underflows
        return d
    kappa = 1.0 / (sigma * sigma)
    floor = math.exp(-2.0 * kappa)
    draws = rng.random(2 * len(d)).tolist()
    # Inverse-CDF sampling of the polar cosine w for the 3-D vMF distribution.
    w = np.array([max(-1.0, min(1.0, 1.0 + math.log(u + (1.0 - u) * floor) / kappa))
                  for u in draws[0::2]])
    phi = [2.0 * math.pi * v for v in draws[1::2]]
    c = np.array([math.cos(p) for p in phi])[:, None]
    s = np.array([math.sin(p) for p in phi])[:, None]

    # Orthonormal frame (f, g) around d: f = d x axis normalized, with axis
    # the unit vector of d's smallest |component| (first on ties), and
    # g = d x f.  A zero f means d is zero: a direction whose norm overflowed.
    axis = (np.argmin(np.abs(d), axis=1)[:, None] == np.arange(3)).astype(float)
    f = _unit_rows(_cross_rows(d, axis), "direction is too large to normalize")
    g = _cross_rows(d, f)
    sin_theta = np.sqrt(np.maximum(0.0, 1.0 - w * w))[:, None]
    return sin_theta * (c * f + s * g) + w[:, None] * d


def perturb_direction(rng: np.random.Generator, direction, sigma: float) -> np.ndarray:
    """Apply seeded directional aim noise to a unit direction.

    The perturbed direction follows a von Mises-Fisher distribution around
    the ideal one with concentration 1/sigma^2, so sigma is the small-angle
    standard deviation per axis; sigma=0 returns the direction unchanged
    and large sigma approaches a uniform direction on the sphere.
    """
    _check_sigma(sigma)
    d = _unit_rows(np.asarray(direction, dtype=float).reshape(1, 3), "direction must be nonzero")
    return _perturb_rows(rng, d, sigma)[0]


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

    if not aimed:
        return 0, 0
    # Hits never feed back into the rng, so every direction is drawn first.
    origins, aimed = points[origin_rows], np.array(aimed)
    aims = _unit_rows(centers[aimed] - origins, "ray origin coincides with the target center")
    directions = _unit_rows(_perturb_rows(np.random.default_rng(seed), aims, sigma),
                            "ray direction must be nonzero")
    hits = int(np.count_nonzero(_nearest_targets(origins, directions, scene) == aimed))
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
