"""Keypoint records and their mapping into the 3-D working space.

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


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class KeyPoint:
    """One path waypoint: position in longitude/latitude/height plus speed.

    Height must be nonnegative and speed strictly positive; longitude and
    latitude are any finite reals (no range clamp).
    """

    longitude: float
    latitude: float
    height: float
    speed: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "longitude", _require_finite("longitude", self.longitude))
        object.__setattr__(self, "latitude", _require_finite("latitude", self.latitude))
        object.__setattr__(self, "height", _require_finite("height", self.height))
        object.__setattr__(self, "speed", _require_finite("speed", self.speed))
        if self.height < 0:
            raise ValueError(f"height must be >= 0, got {self.height}")
        if self.speed <= 0:
            raise ValueError(f"speed must be > 0, got {self.speed}")


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


def project(kp: KeyPoint, proj: Projection = Projection.raw()) -> tuple[float, float, float]:
    """Map a keypoint into working space: (longitude, latitude, height)
    times the projection's scale factors, componentwise.

    Raises ValueError when a product overflows.
    """
    return tuple(_require_finite(name, v * s) for name, v, s in zip(
        "xyz", (kp.longitude, kp.latitude, kp.height), proj.scale))


_HEADER_BASE = ["longitude", "latitude", "height"]
_HEADER_FULL = _HEADER_BASE + ["speed"]


def load_keypoints(source: str) -> list[KeyPoint]:
    """Parse keypoint CSV content into an ordered list of KeyPoint.

    Schema: header ``longitude,latitude,height[,speed]``, one keypoint per
    row, path order = row order.  When the speed column is absent every
    keypoint gets the default speed 1.0.  Data rows are numbered from 1 in
    error messages.

    Raises PathTooShortError for fewer than two data rows and
    KeypointParseError for malformed headers or rows.
    """
    rows = [r for r in csv.reader(io.StringIO(source)) if r]
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

    points: list[KeyPoint] = []
    for i, row in enumerate(rows[1:], start=1):
        expected = 4 if has_speed else 3
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
        try:
            if has_speed:
                points.append(KeyPoint(values[0], values[1], values[2], values[3]))
            else:
                points.append(KeyPoint(values[0], values[1], values[2]))
        except ValueError as exc:
            raise KeypointParseError(f"row {i}: {exc}", row=i) from None

    if len(points) < 2:
        raise PathTooShortError(
            f"a path needs at least 2 keypoints, got {len(points)}"
        )
    return points
