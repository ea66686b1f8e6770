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

import bisect
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .spline import PathCurve, _arc_table, _cross_rows, _row_norms, _rowdot

DEFAULT_ENERGY_BUDGET = 300.0
DEFAULT_AGENT_RADIUS = 1.0

# Default ray-attempt trigger distance, as a multiple of each target's radius.
TRIGGER_RADIUS_FACTOR = 3.0

# Limit on the estimated time steps of one traversal.  The README demo takes
# about 10.5k steps per curve kind; beyond this limit a tiny dt would grow
# the step arrays (and the positions array) until memory runs out.
MAX_STEPS = 2_000_000

# The scene tests measure (position, sphere) and (ray, target) pairs in
# batches of at most DISTANCE_BLOCK // 8 pairs (64 KB per float64 array),
# so memory does not grow with positions x spheres.
DISTANCE_BLOCK = 1 << 16
# Consecutive positions per chunk in the sphere tests, each chunk tested
# only against the spheres in its bounding box: small, so the boxes stay tight.
_CHUNK_ROWS = 32
# Table intervals that the stepper's scalar steps search as Python floats
# before they reload them with one numpy search (see _step_states).
_WINDOW = 64


class SimTooLargeError(ValueError):
    """The traversal would take more than MAX_STEPS time steps."""


_JSON_NUMBERS = (float, int)


def _finite_numbers(*values) -> bool:
    """Whether every value is a finite JSON number (an int or a float, not
    a bool), checked without a numpy call."""
    try:
        for v in values:
            if type(v) not in _JSON_NUMBERS or not math.isfinite(v):
                return False
    except OverflowError:  # an int beyond 1.8e308
        return False
    return True


def _scene_entries(doc: dict, key: str) -> tuple[list, list]:
    """Check each entry of the scene list doc[key], naming it in any error,
    and return its [x, y, z, radius] rows and, for targets, its ids.

    Each entry is checked in turn: id, center and radius present, then the
    center, then the radius.  A center that is not three plain finite
    numbers (a numeric string, say) is converted by numpy.
    """
    items = doc.get(key, [])
    if not isinstance(items, list):
        raise ValueError(f"scene {key!r} must be a list, got {type(items).__name__}")
    what = key[:-1]
    kind = "target" if what == "target" else "sphere"
    rows, ids = [], []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ValueError(f"{what} {i}: expected an object, got {type(item).__name__}")
        try:
            if what == "target":
                ids.append(str(item["id"]))
            center, radius = item["center"], item["radius"]
        except KeyError as exc:
            raise ValueError(f"{what} {i}: missing {exc.args[0]!r}") from None
        if not (type(center) is list and len(center) == 3 and _finite_numbers(*center)):
            try:
                center = np.asarray(center, dtype=float)
            except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond 1.8e308
                center = np.empty(0)
            if center.shape != (3,) or not np.isfinite(center).all():
                raise ValueError(f"{what} {i}: {kind} center must be three finite numbers")
        if not (_finite_numbers(radius) and radius > 0):
            raise ValueError(f"{what} {i}: {kind} radius must be a number > 0, got {radius!r}")
        rows.append([*center, radius])
    return rows, ids


def _sphere_rows(value, what: str) -> np.ndarray:
    """value as a read-only (k, 4) float array of (x, y, z, radius) rows,
    with finite centers and finite radii > 0; errors name the first bad row
    as from_json names a bad entry."""
    rows = np.array(value, dtype=float)
    if rows.size == 0:
        rows = rows.reshape(0, 4)
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise ValueError(f"scene {what}s must be (k, 4) rows of x, y, z, radius")
    kind = "target" if what == "target" else "sphere"
    finite = np.isfinite(rows[:, :3]).all(axis=1)
    bad = np.flatnonzero(~(finite & (rows[:, 3] > 0.0) & (rows[:, 3] < math.inf)))
    if len(bad):
        i = int(bad[0])
        problem = ("center must be three finite numbers" if not finite[i]
                   else f"radius must be a number > 0, got {float(rows[i, 3])!r}")
        raise ValueError(f"{what} {i}: {kind} {problem}")
    rows.setflags(write=False)
    return rows


def _scene_number(doc: dict, key: str, default: float) -> float:
    value = doc.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond 1.8e308
        raise ValueError(f"scene {key!r} must be a number, got {value!r}") from None


def _reach_classes(centers: np.ndarray, reach: np.ndarray) -> tuple:
    """The spheres grouped by the frexp exponent of their reach (within 2x of each other),
    each class as (axis, order, keys): its centers' widest axis, order and sorted values on it."""
    exponents = np.frexp(np.minimum(reach, np.finfo(float).max))[1]  # inf: the top class
    with np.errstate(over="ignore"):
        members = [np.flatnonzero(exponents == e) for e in sorted(set(exponents.tolist()))]
        axes = [int(np.ptp(centers[m], axis=0).argmax()) for m in members]
    orders = [m[np.argsort(centers[m, axis])] for m, axis in zip(members, axes)]
    return tuple((axis, order, centers[order, axis]) for axis, order in zip(axes, orders))


def _part(classes, first: int, stop: int) -> list:
    """The classes restricted to the spheres first <= index < stop, emptied ones dropped."""
    keeps = [(sort, (first <= sort[1]) & (sort[1] < stop)) for sort in classes]
    return [(axis, order[keep], keys[keep]) for (axis, order, keys), keep in keeps if keep.any()]


@dataclass(frozen=True)
class SceneSpec:
    """Obstacle and target spheres plus agent radius and energy budget.

    obstacles and targets are (k, 4) arrays of (x, y, z, radius) rows, and
    target_ids names each target row.  Scenes compare and hash by value.
    The sphere tests search one index over both, obstacles first (sphere
    i < O) then targets, grouped into reach classes (_reach_classes).
    """

    obstacles: np.ndarray = field(default=(), compare=False)
    targets: np.ndarray = field(default=(), compare=False)
    target_ids: tuple[str, ...] = ()
    agent_radius: float = DEFAULT_AGENT_RADIUS
    energy_budget: float = DEFAULT_ENERGY_BUDGET
    # Contiguous columns for the vectorized scene tests: (T, 3) target
    # centers and (T,) radii, (O, 3) obstacle centers and (O,) reach
    # (obstacle radius + agent radius, the inclusive collision distance).
    target_centers: np.ndarray = field(init=False, repr=False, compare=False)
    target_radii: np.ndarray = field(init=False, repr=False, compare=False)
    obstacle_centers: np.ndarray = field(init=False, repr=False, compare=False)
    obstacle_reach: np.ndarray = field(init=False, repr=False, compare=False)
    # The index: the (O + T, 3) centers, viewed by obstacle_centers and target_centers, and
    # their reach classes for the obstacle reach and the default trigger distance.
    _centers: np.ndarray = field(init=False, repr=False, compare=False)
    _classes: tuple = field(init=False, repr=False, compare=False)
    # The rows' bytes, -0.0 made 0.0: scenes compare and hash by value, as profiles do.
    _row_bytes: tuple = field(init=False, repr=False)

    def __post_init__(self):
        obstacles = _sphere_rows(self.obstacles, "obstacle")
        targets = _sphere_rows(self.targets, "target")
        ids = tuple(self.target_ids)
        if not (math.isfinite(self.agent_radius) and self.agent_radius >= 0):
            raise ValueError(f"agent_radius must be >= 0, got {self.agent_radius!r}")
        if not (math.isfinite(self.energy_budget) and self.energy_budget > 0):
            raise ValueError(f"energy_budget must be > 0, got {self.energy_budget!r}")
        if len(ids) != len(targets):
            raise ValueError(f"need one id per target: {len(ids)} ids for {len(targets)} targets")
        if len(set(ids)) != len(ids):
            raise ValueError("target ids must be unique")
        centers = np.concatenate([obstacles[:, :3], targets[:, :3]])
        with np.errstate(over="ignore"):  # an infinite reach meets every position
            reach = obstacles[:, 3] + self.agent_radius
        for name, value in [
            ("obstacles", obstacles), ("targets", targets), ("target_ids", ids),
            ("target_centers", centers[len(obstacles):]),
            ("target_radii", np.ascontiguousarray(targets[:, 3])),
            ("obstacle_centers", centers[:len(obstacles)]), ("obstacle_reach", reach),
            ("_centers", centers),
            ("_row_bytes", ((obstacles + 0.0).tobytes(), (targets + 0.0).tobytes())),
        ]:
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_classes", _reach_classes(centers, _reach(self, None)))

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
        except RecursionError:
            raise ValueError("scene JSON is nested too deeply to parse") from None
        if not isinstance(doc, dict):
            raise ValueError("scene JSON must be an object")
        obstacles, _ = _scene_entries(doc, "obstacles")
        targets, ids = _scene_entries(doc, "targets")
        return cls(
            obstacles=obstacles,
            targets=targets,
            target_ids=tuple(ids),
            agent_radius=_scene_number(doc, "agent_radius", DEFAULT_AGENT_RADIUS),
            energy_budget=_scene_number(doc, "energy_budget", DEFAULT_ENERGY_BUDGET),
        )


@dataclass(frozen=True)
class SpeedProfile:
    """Per-keypoint speeds, interpolated linearly in global s between knots."""

    speeds: np.ndarray = field(compare=False)
    # Global s of each keypoint, the knots speeds are interpolated between:
    # j/(N-1), the bits of PathCurve.grid(1).
    knots: np.ndarray = field(init=False, repr=False, compare=False)
    # The speeds' bytes: profiles compare and hash by value, as scenes do.
    _speed_bytes: bytes = field(init=False, repr=False)

    def __post_init__(self):
        speeds = np.asarray(self.speeds, dtype=float)
        if speeds.ndim != 1 or len(speeds) < 2:
            raise ValueError("need a speed per keypoint (at least 2)")
        if not np.all(np.isfinite(speeds)) or np.any(speeds <= 0):
            raise ValueError("speeds must be finite and > 0")
        knots = np.arange(len(speeds)) / (len(speeds) - 1)
        with np.errstate(over="ignore"):  # the slopes of the stepper's and np.interp's lines
            steep = np.flatnonzero(~np.isfinite(np.diff(speeds) / np.diff(knots)))
        if len(steep):
            i = int(steep[0])
            raise ValueError(f"the speed line between keypoints {i} and {i + 1} overflows "
                             f"(speeds {speeds[i]:g} and {speeds[i + 1]:g})")
        object.__setattr__(self, "speeds", speeds)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "_speed_bytes", speeds.tobytes())

    @classmethod
    def from_keypoints(cls, keypoints) -> "SpeedProfile":
        """The speed column of an (N, 4) keypoint array (geo.load_keypoints)."""
        keypoints = np.array(keypoints, dtype=float)
        if keypoints.ndim != 2 or keypoints.shape[1] != 4:
            raise ValueError(f"expected an (N, 4) keypoint array, got shape {keypoints.shape}")
        return cls(keypoints[:, 3])


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
        return asdict(self)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-sampled states along a curve under a speed profile."""

    times: np.ndarray
    s_values: np.ndarray
    positions: np.ndarray


def _s_at(table: tuple, ells: np.ndarray) -> np.ndarray:
    """s at the rising arc lengths ells by the inverse cubic Hermite of the
    table interval k where lengths[k] <= ell < lengths[k + 1] (the last one
    past the end): with x = (ell - l0) / h on its row,
    s = s0 + x * (c1 + x * (c2 + x * c3)), the power form of
    s0 + w * (x + x * (1 - x) * (b0 * (1 - x) - b1 * x)), which runs from
    s0 to s0 + w with the end slopes (1 + b) w / h; exactly s0 + x * w when
    b0 = b1 = 0.  The step loop of _step_states does the same operations on
    Python floats.
    """
    lengths, rows = table
    # As ells rise, interval k takes the run of ells from the first at or
    # past lengths[k]: one search per entry, not per ell.
    runs = np.diff(np.searchsorted(ells, lengths), append=len(ells))
    runs[-2] += runs[-1]
    l0, h, s, c1, c2, c3 = np.repeat(rows, runs[:-1], axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # past the end
        x = np.subtract(ells, l0, out=l0)
        x /= h
        c3 *= x
        c3 += c2
        c3 *= x
        c3 += c1
        c3 *= x
        s += c3
    return s


def _stretch_steps(t: float, ell: float, stretch: tuple, dt: float, budget: float,
                   table: tuple):
    """Take the full steps of one equal-speed stretch from (t, ell) at once.

    stretch is (lo, hi, v, hi_length): speed v for s in [lo, hi), arc
    length hi_length at hi; the caller has checked that the first step is
    a full one in it.  Times and lengths are np.add.accumulate's sequential
    sums, the adds of the step loop, and s is _s_at over the table.
    Returns the times and s after each step before the first that would
    reach the path end, be cut short by the budget or start outside
    [lo, hi), and the length reached.
    """
    lo, hi, v, hi_length = stretch
    # Enough steps to reach hi or the budget, so that the lengths queried
    # stay linear in steps.  _step_states' estimate bounds it by MAX_STEPS + 2.
    count = int(min((hi_length - ell) / v, budget - t) / dt) + 2
    times = np.full(count + 1, dt)
    times[0] = t
    np.add.accumulate(times, out=times)
    ells = np.full(count + 1, v * dt)
    ells[0] = ell
    np.add.accumulate(ells, out=ells)
    s = _s_at(table, ells[1:])
    # stop[k]: step k (from state k to k + 1) is not a full step in the stretch.
    stop = budget - times[:-1] < dt
    stop |= ells[1:] >= table[0][-1]
    stop[1:] |= (s[:-1] < lo) | (s[:-1] >= hi)
    n = int(stop.argmax()) or count  # stop[0] is False, so 0 means no stop
    return times[1:n + 1], s[:n], float(ells[n])


def _step_states(curve: PathCurve, profile: SpeedProfile, dt: float, budget: float):
    """Advance along the curve in fixed time steps of dt.

    Each step moves speed*dt units of arc length (speed is read at the
    step's start) and reads s there off the arc-length table (_s_at); the
    final step is shortened to land exactly on the path end or on the
    budget.  The route's speed pieces are walked in order: runs of knots
    that share a speed, whose full steps are taken in array passes
    (_stretch_steps), and single knot intervals where the speed varies,
    whose steps read the speed off the piece's line.  A step outside the
    passes reads s off the table interval it finds by bisecting a window of
    _WINDOW intervals held as Python floats, so it costs the same whatever
    the table size.  Either way the values equal a step loop over a search
    of the table bit for bit.  Returns arrays (times, s_values) starting at
    t=0, and completed.  Raises ArcLengthError where spline._arc_table does,
    then SimTooLargeError when the step count estimated from the table's
    total length exceeds MAX_STEPS.
    """
    if len(profile.speeds) != len(curve.keypoints):
        raise ValueError(
            f"speed profile has {len(profile.speeds)} entries for "
            f"{len(curve.keypoints)} keypoints"
        )
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")

    lengths, rows = table = _arc_table(curve)
    total = float(lengths[-1])
    # No step is slower than the slowest keypoint speed, so this bounds the
    # step count; ceil(x) > MAX_STEPS exactly when x > MAX_STEPS.
    estimate = min(budget, total / float(profile.speeds.min())) / dt
    if estimate > MAX_STEPS:
        raise SimTooLargeError(
            f"about {estimate:.3g} time steps at dt={dt!r} exceed the limit of "
            f"{MAX_STEPS}; use a larger dt"
        )

    # Python floats: one step is a few scalar operations, which numpy calls
    # would dominate.  A piece (lo, hi, y, slope, hi_length) runs from knot
    # i to knot j, at table length hi_length: a run of knots sharing the
    # speed y (slope 0), or one knot interval where the speed varies.  For
    # lo <= s, slope * (s - lo) + y is np.interp's value on the interval; s
    # can step back behind lo (a line can overshoot a knot by an ulp), where
    # np.interp gives the speed.  A step reads s off the table interval
    # [l0, l1) it read last while ell stays in it, else off the one that
    # bisect_right finds in the window (bounds: entries k .. k + _WINDOW,
    # with their rows); a step past the window first reloads it from ell's
    # interval k by one search.  Each way it is the interval _s_at's search
    # finds: the last entry at or below ell starts it.
    knots, speeds = profile.knots.tolist(), profile.speeds.tolist()
    knot_lengths = lengths[np.searchsorted(rows[2], profile.knots)].tolist()
    # Piece ends: the first and last knots, and each knot where the speed
    # changes on either side.  An endless piece closes the list.
    ends = [j for j in range(len(knots))
            if not (0 < j < len(knots) - 1 and speeds[j - 1] == speeds[j] == speeds[j + 1])]
    pieces = [(knots[i], knots[j], speeds[i], (speeds[j] - speeds[i]) / (knots[j] - knots[i]),
               knot_lengths[j]) for i, j in zip(ends, ends[1:])]
    upcoming = iter(pieces + [(math.inf, math.inf, 0.0, 0.0, math.inf)])
    hi = -math.inf
    bounds, window = [math.inf], []  # no window and no interval loaded yet
    l0 = l1 = math.inf
    times, s_values = [0.0], [0.0]  # steps since the last pass, filled in place
    t_parts, s_parts = [times], [s_values]  # in order with the passes' arrays
    t, s, ell = 0.0, 0.0, 0.0
    completed = total == 0.0
    while not completed and t < budget:
        rest = budget - t
        while s >= hi:  # one comparison per step inside a piece
            lo, hi, y, slope, hi_length = next(upcoming)
        if not slope and lo <= s and not rest < dt and ell + y * dt < total:
            new_t, new_s, ell = _stretch_steps(t, ell, (lo, hi, y, hi_length), dt, budget, table)
            times, s_values = [], []
            t_parts += (new_t, times)
            s_parts += (new_s, s_values)
            t, s = float(new_t[-1]), float(new_s[-1])
            continue
        step = rest if rest < dt else dt  # min(dt, rest), the same float
        if lo <= s:
            speed = slope * (s - lo) + y
        else:
            speed = float(np.interp(s, profile.knots, profile.speeds))
        d_ell = speed * step
        if ell + d_ell >= total:
            step *= (total - ell) / d_ell
            ell = total
            s = 1.0
            completed = True
        else:
            ell += d_ell
            if not l0 <= ell < l1:
                if not bounds[0] <= ell < bounds[-1]:
                    k = int(np.searchsorted(lengths, ell, "right")) - 1
                    bounds = lengths[k:k + _WINDOW + 1].tolist()
                    window = rows[:, k:k + _WINDOW].T.tolist()
                j = bisect.bisect_right(bounds, ell) - 1
                l0, h, s0, c1, c2, c3 = window[j]
                l1 = bounds[j + 1]
            x = (ell - l0) / h
            s = s0 + x * (c1 + x * (c2 + x * c3))
        t += step
        times.append(t)
        s_values.append(s)
    return np.concatenate(t_parts), np.concatenate(s_parts), completed


def sample_trajectory(
    curve: PathCurve,
    profile: SpeedProfile,
    dt: float,
    energy_budget: float = math.inf,
) -> Trajectory:
    """Time-sample positions along a curve."""
    times, s_values, _ = _step_states(curve, profile, dt, energy_budget)
    return Trajectory(times, s_values, curve.positions(s_values))


# Slack of the boxes of _grown, relative to the box's coordinate scale plus
# the reach (see there).
_BOX_SLACK = 2.0 ** -40
# Absolute slack on top, for offsets whose squares are subnormal.
_BOX_FLOOR = 2.0 ** -499


def _runs(starts: np.ndarray, counts: np.ndarray, limit):
    """Yield (owner, index) over batches of whole owners i, in order: each index
    in range(starts[i], starts[i] + counts[i]) with its i, at most limit, or one owner's."""
    ends = np.cumsum(counts)
    shift = starts - ends + counts  # index minus position, per owner
    first = 0
    while first < len(counts):
        done = int(ends[first - 1]) if first else 0
        last = max(first + 1, int(np.searchsorted(ends, done + limit, "right")))
        owner = np.repeat(np.arange(first, last), counts[first:last])
        yield owner, np.arange(done, done + len(owner)) + shift[owner]
        first = last


def _grown(lo: np.ndarray, hi: np.ndarray, reach) -> tuple:
    """The boxes [lo[q], hi[q]] ((q, 3) bounds) grown to hold every center whose
    _distances from a point inside is at most reach (a number, or one per box in a column)."""
    # With u = 2^-53, rounding (monotone, relatively within u) makes that
    # distance at least (1 - 4u) |p_a - c_a| on each axis a when
    # |p_a - c_a| >= 2^-500, so the center lies within (1 + 5u) reach, or
    # 2^-500 (1 + 2u), of the box on every axis.  The margin exceeds the
    # reach by 2^-40 (|bound| + reach) + 2^-499, more than that plus the
    # rounding of the margin and the bounds.  Overflowing bounds only widen
    # the box; a NaN bound (a NaN point) leaves its axis unfiltered.
    with np.errstate(over="ignore", invalid="ignore"):
        margin = reach + _BOX_SLACK * (np.maximum(np.abs(lo), np.abs(hi)) + reach) + _BOX_FLOOR
        lo, hi = lo - margin, hi + margin
    loose = ~(lo <= hi)
    lo[loose], hi[loose] = -math.inf, math.inf
    return lo, hi


def _box_pairs(sort: tuple, centers: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Yield (query, center) in query order: each center of the reach class
    sort (see _reach_classes) inside the box [lo[q], hi[q]] ((q, 3) bounds,
    inclusive) with its query q.  Sweep and prune: a binary search on the
    class's axis finds each box's slab, in batches of at most
    DISTANCE_BLOCK // 8 slab pairs or one query's, then all three axes are tested."""
    axis, order, keys = sort
    first = np.searchsorted(keys, lo[:, axis], "left")
    counts = np.searchsorted(keys, hi[:, axis], "right") - first
    for queries, at in _runs(first, counts, DISTANCE_BLOCK // 8):
        cols = order[at]
        box = centers.take(cols, axis=0)
        keep = ((box >= lo[queries]) & (box <= hi[queries])).all(axis=1)
        yield queries[keep], cols[keep]


def _distances(points: np.ndarray, rows: np.ndarray, centers: np.ndarray, cols: np.ndarray):
    """Per pair p, |points[:, rows[p]] - centers[cols[p]]| (_row_norms) for
    (3, N) points, one row per coordinate."""
    offsets = points.take(rows, axis=1)  # (3, pairs): _row_norms reads contiguous columns
    with np.errstate(over="ignore", invalid="ignore"):
        for axis, column in enumerate(offsets):  # a column at a time: one (pairs,) temporary
            column -= centers[:, axis].take(cols)
    return _row_norms(offsets.T)


def _entries(points: np.ndarray, rows: np.ndarray, centers: np.ndarray, cols, reach) -> tuple:
    """(rows, cols, dist) of the pairs whose point is within reach[cols] (inclusive) while
    the point before it, if any, is not, with their _distances dist."""
    dist = _distances(points, rows, centers, cols)
    entries = dist <= reach[cols]
    # Each pair within reach checks its previous row: nothing carries over.
    inside = np.flatnonzero(entries & (rows > 0))
    was = _distances(points, rows[inside] - 1, centers, cols[inside]) <= reach[cols[inside]]
    entries[inside[was]] = False
    return rows[entries], cols[entries], dist[entries]


def _entry_pairs(points: np.ndarray, centers: np.ndarray, reach: np.ndarray, classes) -> tuple:
    """The (rows, cols, dist) _entries of every (point, center) pair, for (3, N) points.

    Each chunk of _CHUNK_ROWS consecutive points is paired, class by class
    (see _reach_classes), with the centers of the class inside its bounding
    box grown by the class's own largest reach (_grown, _box_pairs): no
    other center of the class is within reach of its points.  A batch
    measures the rows of whole (chunk, center) pairs, at most
    DISTANCE_BLOCK // 8 or one pair's, and keeps only its entries.
    """
    found = [(np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),)]
    starts = np.arange(0, points.shape[1], _CHUNK_ROWS)
    sizes = np.minimum(points.shape[1] - starts, _CHUNK_ROWS)
    # reduceat over contiguous coordinate rows, because a (3, chunks, rows)
    # view reduced on its last axis is several times slower.
    lo = np.minimum.reduceat(points, starts, axis=1).T
    hi = np.maximum.reduceat(points, starts, axis=1).T
    for sort in classes:
        box = _grown(lo, hi, float(reach[sort[1]].max()))
        for chunks, cols in _box_pairs(sort, centers, *box):
            for pair, rows in _runs(starts[chunks], sizes[chunks], DISTANCE_BLOCK // 8):
                found.append(_entries(points, rows, centers, cols[pair], reach))
    return tuple(np.concatenate(part) for part in zip(*found))


def _count_collisions(positions: np.ndarray, scene: SceneSpec) -> int:
    """Count obstacle entry events along sampled positions.

    Overlap is inclusive (touching counts); starting inside an obstacle
    counts as an entry.
    """
    return len(_entry_pairs(np.ascontiguousarray(positions.T), scene._centers, scene.obstacle_reach,
                            _part(scene._classes, 0, len(scene.obstacles)))[0])


def traverse(curve: PathCurve, profile: SpeedProfile, scene: SceneSpec, dt: float) -> SimResult:
    """Run one traversal and report time, collisions and completion.

    Ray metrics are zero here; combine with run_ray_task (or use simulate)
    for the full task metrics.
    """
    times, s_values, completed = _step_states(curve, profile, dt, scene.energy_budget)
    return SimResult(time_used=float(times[-1]),
                     collisions=_count_collisions(curve.positions(s_values), scene),
                     ray_attempts=0, ray_hits=0, accuracy=0.0, completed=completed)


def _unit_rows(v: np.ndarray, error: str) -> np.ndarray:
    """Each row of the (k, 3) array v divided by its norm; a zero norm
    raises ValueError(error)."""
    with np.errstate(over="ignore"):
        norm = _row_norms(v, np.sqrt(_rowdot(v, v)))
    if not norm.all():
        raise ValueError(error)
    return v / norm[:, None]


def _ray_times(oc: np.ndarray, directions: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Per row k, the distance t along unit directions[k] from a ray's
    origin to where it meets a sphere of radius radii[k], given oc[k] =
    origin - center: the nearer crossing, or the farther one when the nearer
    lies behind the origin.  The ray hits where 0 <= t < inf (boundary
    contact included); NaN, a negative t or inf is a miss.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        b = _rowdot(directions, oc)
        disc = b * b - _rowdot(oc, oc) + radii * radii
        big = np.flatnonzero(~np.isfinite(disc))
        root = np.sqrt(disc)  # NaN where disc < 0: a miss, like a NaN disc
        if len(big):  # a square overflowed: the same test scaled by 1/k
            oc_k, r_k = oc[big], radii[big]
            k = np.abs(oc_k).max(axis=1)
            k = np.where(k > r_k, k, r_k)  # max(r, max|oc|): r unless max|oc| > r
            oc_k /= k[:, None]
            b_k = b[big] / k
            r_k /= k
            root[big] = k * np.sqrt(b_k * b_k - _rowdot(oc_k, oc_k) + r_k * r_k)
        t = -b - root
        return np.where(t < 0.0, -b + root, t)


# Slack of the ray boxes in _first_hits, relative to t + the class's largest radius (see there).
_RAY_SLACK = 2.0 ** -20


def _first_hits(origins: np.ndarray, directions: np.ndarray, t: np.ndarray, aimed: np.ndarray,
                scene: SceneSpec, classes) -> np.ndarray:
    """Per ray (origins[k], unit directions[k]) that meets its aimed target
    aimed[k] at t[k], whether that target is met first: no target is met
    below t[k], nor at t[k] with a lower index.  Of each class of targets,
    only those in a box of half-width about t[k] plus the class's largest
    radius around the origin (_box_pairs) can be met by t[k], so only they
    are resolved."""
    radii, first = scene.target_radii, np.ones(len(origins), dtype=bool)
    skip = len(scene.obstacles)  # target k is sphere skip + k
    # The boxes keep every target whose computed t_c can be <= t.  Exactly,
    # a ray from o that meets the sphere (c, r) at t_c has |o - c| <= t_c + r.
    # In floats (u = 2^-53, |d| = 1 + O(u)), the discriminant is within
    # 8u (|oc|^2 + r^2) of b*b - |oc|^2 + r^2 on the computed b and oc; with
    # b*b up to 15u |oc|^2 above |oc|^2, that acts as r grown by under
    # 2^-24 (|oc| + r) inside the root.  oc, b, the root and t_c add a few u
    # of |oc| + r, and the 1/k rescale is the same arithmetic in units of k.
    # So any computed t_c, either root, puts c within (t_c + r)(1 + 2^-22) of
    # o on every axis, plus 2^-530 where products underflow.  In each class,
    # the half-width (t + the class's largest r)(1 + 2^-20) + _BOX_FLOOR,
    # with its roundings, is larger, and rounding is monotone, so no box
    # bound crosses it the wrong way.  Overflowing widths only widen the boxes.
    for sort in classes:
        with np.errstate(over="ignore", invalid="ignore"):
            width = t + radii[sort[1] - skip].max()
            width += _RAY_SLACK * width + _BOX_FLOOR
            lo, hi = origins - width[:, None], origins + width[:, None]
        for rays, cand in _box_pairs(sort, scene._centers, lo, hi):
            cand -= skip
            # take: a row gather several times faster than fancy indexing.
            with np.errstate(over="ignore", invalid="ignore"):
                oc = origins.take(rays, axis=0) - scene.target_centers.take(cand, axis=0)
            t_c, t_r = _ray_times(oc, directions.take(rays, axis=0), radii[cand]), t[rays]
            met = (0.0 <= t_c) & ((t_c < t_r) | ((t_c == t_r) & (cand < aimed[rays])))
            first[rays[met]] = False
    return first


def cast_ray(origin, direction, scene: SceneSpec) -> str | None:
    """Intersect a ray with every target of the scene; the nearest hit
    wins, equally near targets going to the lowest index.

    Boundary contact is inclusive: a ray exactly tangent to a sphere hits
    it.  Returns the hit target's id, or None on a miss.  Obstacles do not
    block rays.
    """
    origin = np.asarray(origin, dtype=float).reshape(1, 3)
    d = _unit_rows(np.asarray(direction, dtype=float).reshape(1, 3),
                   "ray direction must be nonzero")
    with np.errstate(over="ignore", invalid="ignore"):
        oc = origin - scene.target_centers
    t = _ray_times(oc, d.repeat(len(oc), axis=0), scene.target_radii)
    hits = np.flatnonzero((0.0 <= t) & (t < math.inf))
    return scene.target_ids[hits[t[hits].argmin()]] if len(hits) else None


def _check_ray_args(sigma: float, trigger_distance: float | None = None) -> None:
    # perturb_direction divides by kappa = 1/sigma^2, which is 0 once sigma^2
    # overflows.
    if not (sigma >= 0 and math.isfinite(sigma * sigma)):
        raise ValueError(f"sigma must be finite (below 1e154) and >= 0, got {sigma!r}")
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
    _check_ray_args(sigma)
    d = _unit_rows(np.asarray(direction, dtype=float).reshape(1, 3), "direction must be nonzero")
    return _perturb_rows(rng, d, sigma)[0]


def _nearest(points: np.ndarray, rows: np.ndarray, reach, centers, classes) -> np.ndarray:
    """Per query q, the index of the center of classes nearest to
    points[:, rows[q]] by _distances, the lowest on ties.  Only the centers
    within reach[q] are searched (_grown, _box_pairs), so one must be."""
    at = points.T[rows]
    lo, hi = _grown(at, at, reach[:, None])
    closest, nearest = np.full(len(rows), math.inf), np.full(len(rows), len(centers))
    for sort in classes:
        for queries, cols in _box_pairs(sort, centers, lo, hi):
            dist = _distances(points, rows[queries], centers, cols)
            before = closest[queries]
            np.minimum.at(closest, queries, dist)
            # A query's earlier ties lose to a nearer center of this batch.
            nearest[queries[closest[queries] < before]] = len(centers)
            tie = dist == closest[queries]
            np.minimum.at(nearest, queries[tie], cols[tie])
    return nearest


def _fire(points: np.ndarray, rows: np.ndarray, dist: np.ndarray, sigma, seed, scene: SceneSpec):
    """(attempts, hits) of the ray task along the (3, N) points, given each
    trigger entry's row and its distance to the entered target (see run_ray_task)."""
    if not len(rows):
        return 0, 0
    # In row order; a row's nearest target lies within the distance of any target it enters.
    order = np.argsort(rows, kind="stable")
    rows, reach, skip = rows[order], dist[order], len(scene.obstacles)
    classes = _part(scene._classes, skip, skip + len(scene.targets))
    aimed = _nearest(points, rows, reach, scene._centers, classes) - skip
    centers = scene.target_centers
    # Hits never feed back into the rng, so every direction is drawn first.
    origins = points.T[rows]
    offsets = centers[aimed] - origins
    # An origin on its aimed target's center (up to underflow) aims along
    # +x: every direction meets that sphere at t = r, so occluders decide.
    with np.errstate(over="ignore"):
        offsets[_rowdot(offsets, offsets) == 0.0] = (1.0, 0.0, 0.0)
    aims = _unit_rows(offsets, "ray aim must be nonzero")
    directions = _unit_rows(_perturb_rows(np.random.default_rng(seed), aims, sigma),
                            "ray direction must be nonzero")
    t = _ray_times(origins - centers[aimed], directions, scene.target_radii[aimed])
    met = np.flatnonzero((0.0 <= t) & (t < math.inf))
    hits = _first_hits(origins[met], directions[met], t[met], aimed[met], scene, classes)
    return len(aimed), int(np.count_nonzero(hits))


def _reach(scene: SceneSpec, trigger_distance: float | None) -> np.ndarray:
    """Each sphere's reach by index: obstacle radius + agent radius, then trigger distances."""
    with np.errstate(over="ignore"):  # an infinite trigger zone holds every point
        triggers = (TRIGGER_RADIUS_FACTOR * scene.target_radii if trigger_distance is None
                    else np.full(len(scene.targets), float(trigger_distance)))
    return np.concatenate([scene.obstacle_reach, triggers])


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
    noise model, and hits when the cast ray strikes that intended target
    first (an equally near target of lower index wins).  Attempts are
    processed in time order, breaking ties by target order, so results are
    reproducible per seed.  The nearest target lies within the entered
    target's distance (_nearest).  Each ray is resolved against its aimed
    target first: missing it is a miss, and hitting it at t leaves only the
    targets in a box of half-width t plus their class's largest radius
    around the origin to check for one met first (_first_hits).
    """
    if not len(scene.targets):
        raise ValueError("ray task needs at least one target in the scene")
    _check_ray_args(sigma, trigger_distance)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected (N, 3) trajectory points, got shape {points.shape}")
    points, skip = np.ascontiguousarray(points.T), len(scene.obstacles)
    rows, _, dist = _entry_pairs(points, scene._centers, _reach(scene, trigger_distance),
                                 _part(scene._classes, skip, skip + len(scene.targets)))
    return _fire(points, rows, dist, sigma, seed, scene)


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
    One pass over the positions (_entry_pairs over every reach class) finds
    the obstacle entries traverse counts and the trigger entries run_ray_task fires.
    """
    _check_ray_args(sigma, trigger_distance)
    times, s_values, completed = _step_states(curve, profile, dt, scene.energy_budget)
    points, skip = np.ascontiguousarray(curve.positions(s_values).T), len(scene.obstacles)
    rows, cols, dist = _entry_pairs(points, scene._centers, _reach(scene, trigger_distance),
                                    scene._classes)
    target = cols >= skip
    attempts, hits = _fire(points, rows[target], dist[target], sigma, seed, scene)
    return SimResult(time_used=float(times[-1]), collisions=int(np.count_nonzero(~target)),
                     ray_attempts=attempts, ray_hits=hits,
                     accuracy=hits / attempts if attempts else 0.0, completed=completed)
