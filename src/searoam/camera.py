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

from .spline import PathCurve, _cross_rows, _row_norms, _rowdot

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
    row = v[None]
    with np.errstate(over="ignore"):  # np.linalg.norm(v)'s bits, rescaled if it overflows
        norm = _row_norms(row, np.sqrt(_rowdot(row, row)))[0]
    _check_norms(norm)
    return v / norm


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


def _corner_angles(curve: PathCurve, model: str, knot_positions, knot_tangents):
    """Angle between the exact left and right view directions at every
    interior knot, in one array pass.

    In tangent mode these are the one-sided limits of dP/ds.  In next_node
    mode the left one is the direction of motion into the knot (for bezier
    the chord to the old target, which the curve does not pass), and the
    right one points to the freshly selected target.  The bezier's knot
    rows are given.  Norms, cross products and dots have the bits of
    np.linalg.norm, np.cross and np.dot on each row.  The first zero or
    overflowing direction, in knot order and left before right, raises.
    """
    n, kp = curve.n_segments, curve.keypoints
    with np.errstate(over="ignore", invalid="ignore"):
        if curve.kind == "polyline":
            left, right = n * curve._diffs[:-1], n * curve._diffs[1:]
        elif curve.kind == "catmull_rom":
            left, right = n * curve._m1[:-1], n * curve._m0[1:]
        else:
            left = right = knot_tangents
        if model == "next_node" and curve.kind == "bezier":
            left, right = kp[1:-1] - knot_positions, kp[2:] - knot_positions
        elif model == "next_node":
            right = kp[2:] - kp[1:-1]
        dirs = np.stack((left, right))  # (2, knots, 3)
        rows = dirs.reshape(-1, 3)
        norms = _row_norms(rows, np.sqrt(_rowdot(rows, rows)))
    by_knot = norms.reshape(2, -1).T.ravel()  # knot order, the left before the right
    bad = np.flatnonzero(~np.isfinite(by_knot) | (by_knot == 0.0))
    if len(bad):
        _check_norms(by_knot[bad[0]])
    left, right = dirs / norms.reshape(2, -1, 1)
    cross = _cross_rows(left, right)
    return tuple(np.arctan2(np.sqrt(_rowdot(cross, cross)), _rowdot(left, right)).tolist())


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


def smoothness(curve: PathCurve, model: str, samples: int = 64,
               sampled=None) -> SmoothnessReport:
    """Measure view smoothness with ``samples`` view samples per segment.

    Each segment is sampled at u = j/samples for j = 0..samples-1 (the next
    segment's u=0 covers the shared knot's right side; s=1 is excluded
    because next_node has no target there).  Knot discontinuities are not
    folded into the angular speeds; they are reported exactly as
    corner_angles.  ``sampled`` is curve.sample(samples) when the caller
    has already evaluated it; knots are rows of that grid.
    """
    _check_model(model)
    samples = int(samples)
    if samples < 2:
        raise ValueError(f"need at least 2 samples per segment, got {samples}")

    positions, tangents = curve.sample(samples) if sampled is None else sampled
    knots = slice(samples, -1, samples)
    corners = _corner_angles(curve, model, positions[knots], tangents[knots])

    nseg = curve.n_segments
    ds = 1.0 / (samples * nseg)
    if model == "tangent":
        dirs = tangents[:-1]
    else:
        dirs = np.repeat(curve.keypoints[1:], samples, axis=0) - positions[:-1]
    norms = _row_norms(dirs)
    _check_norms(norms)
    dirs = (dirs / norms[:, None]).reshape(nseg, samples, 3)
    cross = _row_norms(np.cross(dirs[:, :-1], dirs[:, 1:]).reshape(-1, 3)).reshape(nseg, -1)
    dot = np.sum(dirs[:, :-1] * dirs[:, 1:], axis=2)
    all_speeds = np.arctan2(cross, dot) / ds

    return SmoothnessReport(
        corner_angles=corners,
        max_angular_jump=max(corners, default=0.0),
        mean_angular_speed=float(all_speeds.mean()),
        max_angular_speed=float(all_speeds.max()),
    )
