"""View-direction models and view-smoothness metrics for path curves.

Two camera behaviors are compared: ``next_node`` aims at the upcoming
keypoint and snaps to the next one whenever the global parameter crosses a
knot, while ``tangent`` follows the normalized curve tangent.  The
smoothness report quantifies how unevenly the view turns: exact one-sided
corner angles at the knots plus sampled angular speeds along the segments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spline import PathCurve, _row_norms

VIEW_MODELS = ("next_node", "tangent")


class DegenerateViewError(ValueError):
    """Raised when a view direction has zero length (position equals target)."""


class ViewOverflowError(ValueError):
    """Raised when a view direction's length overflows (coordinates too large)."""


def _check_norms(norms) -> None:
    """Reject view directions whose lengths overflowed or are zero."""
    if not np.all(np.isfinite(norms)):
        raise ViewOverflowError("view direction length overflows (coordinates too large)")
    if np.any(norms == 0.0):
        raise DegenerateViewError("view direction has zero length")


def _unit(v: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if not np.isfinite(norm):
        # Squares overflow beyond about 1e154; only then rescale, since the
        # row norm may round differently.  A norm still infinite is an error.
        norm = _row_norms(v[None])[0]
    _check_norms(norm)
    return v / norm


def angle_between(u: np.ndarray, v: np.ndarray) -> float:
    """Angle in [0, pi] between two nonzero vectors, stable for tiny angles."""
    cross = np.linalg.norm(np.cross(u, v))
    dot = float(np.dot(u, v))
    return float(np.arctan2(cross, dot))


def _check_model(model: str) -> str:
    if model not in VIEW_MODELS:
        raise ValueError(f"unknown view model {model!r}; expected one of {VIEW_MODELS}")
    return model


def view_direction(curve: PathCurve, model: str, s: float) -> np.ndarray:
    """Unit view direction at global parameter s.

    ``tangent`` normalizes dP/ds.  ``next_node`` points from the current
    position to the next un-reached keypoint; a keypoint counts as reached
    once s crosses its knot parameter, so the aim target within segment i
    is keypoint i+1.  At s=1 there is no next node left and the view is
    degenerate.
    """
    _check_model(model)
    s = float(s)
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"curve parameter s must lie in [0, 1], got {s!r}")
    if model == "tangent":
        return _unit(curve.tangent(s))
    target = int(np.floor(s * curve.n_segments)) + 1
    if target > curve.n_segments:
        raise DegenerateViewError("no next node at the end of the path (s = 1)")
    return _unit(curve.keypoints[target] - curve.position(s))


def _one_sided_directions(curve: PathCurve, model: str, knot: int):
    """Exact left/right unit view directions at interior knot index.

    In next_node mode the left limit is the direction of motion into the
    knot (the old target coincides with the knot position for interpolating
    kinds; for bezier it is the chord to the old target), and the right
    value is the direction to the freshly selected target.
    """
    s_knot = knot / curve.n_segments
    left_tan, right_tan = curve.one_sided_tangents(knot)
    if model == "tangent":
        return _unit(left_tan), _unit(right_tan)
    if curve.kind == "bezier":
        pos = curve.position(s_knot)
        left = _unit(curve.keypoints[knot] - pos)
    else:
        pos = curve.keypoints[knot]
        left = _unit(left_tan)
    right = _unit(curve.keypoints[knot + 1] - pos)
    return left, right


@dataclass(frozen=True)
class SmoothnessReport:
    """View smoothness of one (curve, view model) combination.

    corner_angles holds the exact one-sided direction change at each
    interior knot; max_angular_jump is their maximum (0 with no interior
    knots).  Angular speeds are measured between consecutive view samples
    within segments, in radians per unit of global parameter s.
    """

    corner_angles: tuple[float, ...]
    max_angular_jump: float
    mean_angular_speed: float
    max_angular_speed: float


def smoothness(curve: PathCurve, model: str, samples: int = 64) -> SmoothnessReport:
    """Measure view smoothness with ``samples`` view samples per segment.

    Each segment is sampled at u = j/samples for j = 0..samples-1 (the next
    segment's u=0 covers the shared knot's right side; s=1 is excluded
    because next_node has no target there).  Knot discontinuities are not
    folded into the angular speeds; they are reported exactly as
    corner_angles.
    """
    _check_model(model)
    samples = int(samples)
    if samples < 2:
        raise ValueError(f"need at least 2 samples per segment, got {samples}")

    n_interior = len(curve.keypoints) - 2
    corners = tuple(
        angle_between(*_one_sided_directions(curve, model, k))
        for k in range(1, n_interior + 1)
    )

    nseg = curve.n_segments
    ds = 1.0 / (samples * nseg)
    ss = curve.grid(samples)[:-1]
    if model == "tangent":
        dirs = curve.tangents(ss)
    else:
        dirs = np.repeat(curve.keypoints[1:], samples, axis=0) - curve.positions(ss)
    norms = _row_norms(dirs)
    _check_norms(norms)
    dirs = (dirs / norms[:, None]).reshape(nseg, samples, 3)
    cross = np.linalg.norm(np.cross(dirs[:, :-1], dirs[:, 1:]), axis=2)
    dot = np.sum(dirs[:, :-1] * dirs[:, 1:], axis=2)
    all_speeds = np.arctan2(cross, dot) / ds

    return SmoothnessReport(
        corner_angles=corners,
        max_angular_jump=max(corners, default=0.0),
        mean_angular_speed=float(all_speeds.mean()),
        max_angular_speed=float(all_speeds.max()),
    )
