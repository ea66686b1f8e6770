"""Keypoint rows and their mapping into the 3-D working space.

A roaming path is entered as an ordered list of keypoints, each carrying a
longitude, latitude, height and traversal speed.  All curve math downstream
operates on plain Cartesian working-space coordinates; the projection here is
a componentwise map (identity or per-axis scaling), not real geodesy.
Longitudes outside [-180, 180] are accepted verbatim and never wrapped.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np


class PathTooShortError(ValueError):
    """Raised when a keypoint path has fewer than two points."""


class KeypointParseError(ValueError):
    """Raised when keypoint file content does not match the expected schema.

    ``row`` is the 1-based data row index (header excluded), or 0 for
    header-level problems.
    """

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class Projection:
    """Componentwise map from keypoint coordinates into working space.

    Multiplies (longitude, latitude, height) by strictly positive scale
    factors.  ``raw`` is the scale (1, 1, 1), the identity: x * 1.0 == x
    for every finite float.
    """

    scale: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        scale = tuple(float(v) for v in self.scale)
        if len(scale) != 3:
            raise ValueError("scale must have exactly three factors")
        for v in scale:
            if not math.isfinite(v) or v <= 0:
                raise ValueError(f"scale factors must be finite and > 0, got {v!r}")
        object.__setattr__(self, "scale", scale)

    @classmethod
    def raw(cls) -> "Projection":
        return cls()


def project(kp, proj: Projection = Projection.raw()) -> np.ndarray:
    """Map keypoints into working space: (longitude, latitude, height)
    times the projection's scale factors, componentwise.

    kp is one keypoint row or an (N, 3) or (N, 4) array of them (a speed
    column is ignored); the result is a (3,) or (N, 3) float array.  Raises
    ValueError naming the first coordinate, in row order, whose product
    overflows.
    """
    with np.errstate(over="ignore"):
        xyz = np.asarray(kp, dtype=float)[..., :3] * proj.scale
    bad = np.argwhere(~np.isfinite(xyz))
    if len(bad):
        value = float(xyz[tuple(bad[0])])
        raise ValueError(f"{'xyz'[bad[0][-1]]} must be finite, got {value!r}")
    return xyz


_HEADER_BASE = ["longitude", "latitude", "height"]
_HEADER_FULL = _HEADER_BASE + ["speed"]


def load_keypoints(source: str) -> np.ndarray:
    """Parse keypoint CSV content into an (N, 4) float array of rows
    (longitude, latitude, height, speed).

    Schema: header ``longitude,latitude,height[,speed]``, one keypoint per
    row, path order = row order.  When the speed column is absent every
    keypoint gets the default speed 1.0.  Every value must be finite,
    heights >= 0 and speeds > 0; longitude and latitude take any finite
    value (no range clamp).  Data rows are numbered from 1 in error
    messages.

    Raises PathTooShortError for fewer than two data rows and
    KeypointParseError for malformed headers or rows.
    """
    try:
        rows = [r for r in csv.reader(io.StringIO(source)) if r]
    except csv.Error as exc:  # a cell longer than csv.field_size_limit(), say
        raise KeypointParseError(f"keypoint file is not valid CSV: {exc}") from None
    if not rows:
        raise PathTooShortError("keypoint file is empty; a path needs at least 2 keypoints")

    header = [c.strip().lower() for c in rows[0]]
    if header == _HEADER_BASE:
        has_speed = False
    elif header == _HEADER_FULL:
        has_speed = True
    else:
        raise KeypointParseError(
            "expected header 'longitude,latitude,height[,speed]', got "
            + ",".join(header)
        )

    points = []
    expected = 4 if has_speed else 3
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != expected:
            raise KeypointParseError(
                f"row {i}: expected {expected} columns, got {len(row)}", row=i
            )
        values = []
        for name, cell in zip(_HEADER_FULL, row):
            try:
                values.append(float(cell))
            except ValueError:
                raise KeypointParseError(
                    f"row {i}: column '{name}' is not a number: {cell!r}", row=i
                ) from None
        if not has_speed:
            values.append(1.0)
        for name, v in zip(_HEADER_FULL, values):
            if not math.isfinite(v):
                raise KeypointParseError(f"row {i}: {name} must be finite, got {v!r}", row=i)
        if values[2] < 0:
            raise KeypointParseError(f"row {i}: height must be >= 0, got {values[2]}", row=i)
        if values[3] <= 0:
            raise KeypointParseError(f"row {i}: speed must be > 0, got {values[3]}", row=i)
        points.append(values)

    if len(points) < 2:
        raise PathTooShortError(
            f"a path needs at least 2 keypoints, got {len(points)}"
        )
    return np.array(points)
