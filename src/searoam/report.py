"""Deterministic SVG figures and CSV tables for path comparison and study plots.

All output is plain SVG 1.1 / CSV text assembled with fixed 6-significant-
digit float formatting, so identical inputs produce byte-identical files.
Data series elements carry class="series" (one per declared series).
"""

from __future__ import annotations

import io
import csv

import numpy as np

from .camera import SmoothnessReport
from .stats import RegressionFit

PANEL_LABELS = {"polyline": "(a) polyline", "bezier": "(b) bezier", "catmull_rom": "(c) catmull-rom"}
CURVE_COLORS = {"polyline": "#333333", "bezier": "#1f77b4", "catmull_rom": "#d62728"}


def escape(text: str) -> str:
    """Escape &, < and > for SVG text, as xml.sax.saxutils.escape does."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# Figure sizes in pixels: (width, height, margin around the drawing area).
_COMPARE_SIZE = (960, 340, 34)
_SCATTER_SIZE = (460, 360, 46)
# Fewest curve samples per segment that path compare draws.
MIN_SAMPLES = 16


def _fmt(v: float) -> str:
    return format(float(v), ".6g")


def _points_attr(xs, ys) -> str:
    """The points attribute "x,y x,y ...", each number as _fmt writes it."""
    flat = np.column_stack((xs, ys)).ravel().tolist()
    return " ".join(["%.6g,%.6g"] * len(xs)) % tuple(flat)


def _bounds(values: np.ndarray, pad: float = 0.05) -> tuple[float, float]:
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    span = hi - lo
    return lo - pad * span, hi + pad * span


class _Mapper:
    """Affine data-to-pixel map for one drawing area (y flipped)."""

    def __init__(self, x_range, y_range, left, top, width, height):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        self.left, self.top = left, top
        self.width, self.height = width, height

    def x(self, v):
        return self.left + (np.asarray(v) - self.x0) / (self.x1 - self.x0) * self.width

    def y(self, v):
        return self.top + (self.y1 - np.asarray(v)) / (self.y1 - self.y0) * self.height


def _svg_open(width: int, height: int) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]


def _frame(m: _Mapper) -> str:
    return (
        f'<rect class="frame" x="{_fmt(m.left)}" y="{_fmt(m.top)}" '
        f'width="{_fmt(m.width)}" height="{_fmt(m.height)}" '
        'fill="none" stroke="#888888" stroke-width="1"/>'
    )


def render_path_compare(curves, samples: int = 64, positions=None) -> str:
    """Three-panel comparison figure of the polyline, bezier and catmull-rom
    curves over one set of keypoints, given in that (spline.KINDS) order.

    All panels share identical axes (longitude on x, latitude on y; height
    is ignored) and mark the keypoints.  ``samples`` is the per-segment
    sampling density (at least MIN_SAMPLES).  ``positions`` holds each
    curve's positions at its grid(samples) when the caller has already
    evaluated them.
    """
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples per segment, got {samples}")
    pts = curves[0].keypoints
    if positions is None:
        positions = [c.positions(c.grid(samples)) for c in curves]
    sampled = {c.kind: p for c, p in zip(curves, positions)}

    all_xy = np.vstack([p[:, :2] for p in sampled.values()] + [pts[:, :2]])
    x_range = _bounds(all_xy[:, 0])
    y_range = _bounds(all_xy[:, 1])

    width, height, margin = _COMPARE_SIZE
    gap = 18
    panel_w = (width - 2 * margin - 2 * gap) / 3
    panel_h = height - 2 * margin

    parts = _svg_open(width, height)
    for i, kind in enumerate(sampled):
        left = margin + i * (panel_w + gap)
        m = _Mapper(x_range, y_range, left, margin, panel_w, panel_h)
        parts.append(f'<g class="panel" id="panel-{kind}">')
        parts.append(_frame(m))
        xs = m.x(sampled[kind][:, 0])
        ys = m.y(sampled[kind][:, 1])
        parts.append(
            f'<polyline class="series" id="curve-{kind}" fill="none" '
            f'stroke="{CURVE_COLORS[kind]}" stroke-width="1.5" '
            f'points="{_points_attr(xs, ys)}"/>'
        )
        parts.append('<g class="markers">')
        for px, py in zip(m.x(pts[:, 0]), m.y(pts[:, 1])):
            parts.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" '
                'fill="none" stroke="#000000" stroke-width="1"/>'
            )
        parts.append("</g>")
        parts.append(
            f'<text class="label" x="{_fmt(left + 4)}" y="{_fmt(margin - 8)}" '
            f'font-family="sans-serif" font-size="12">{escape(PANEL_LABELS[kind])}</text>'
        )
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_scatter_band(x, y, fit: RegressionFit, x_label: str = "x", y_label: str = "y") -> str:
    """Scatter plot with the fitted line and its confidence band boundaries.

    Emits four series: the points, the fitted line, and the lower and upper
    band polylines (the two gray lines).
    """
    width, height, margin = _SCATTER_SIZE
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValueError("scatter series must be non-empty")
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length 1-D series")
    if fit.n != len(x):
        raise ValueError(f"fit was computed from {fit.n} points but got {len(x)}")

    grid = np.linspace(x.min(), x.max(), 100)
    lower, upper = fit.band(grid)
    line = fit.predict(grid)

    x_range = _bounds(x)
    y_range = _bounds(np.concatenate([y, lower, upper]))
    m = _Mapper(x_range, y_range, margin, margin, width - 2 * margin, height - 2 * margin)

    parts = _svg_open(width, height)
    parts.append(_frame(m))
    for name, values, color in (("band-lower", lower, "#999999"), ("band-upper", upper, "#999999")):
        parts.append(
            f'<polyline class="series" id="{name}" fill="none" stroke="{color}" '
            f'stroke-width="1" points="{_points_attr(m.x(grid), m.y(values))}"/>'
        )
    parts.append(
        f'<polyline class="series" id="fit-line" fill="none" stroke="#d62728" '
        f'stroke-width="1.5" points="{_points_attr(m.x(grid), m.y(line))}"/>'
    )
    parts.append('<g class="series" id="points">')
    for px, py in zip(m.x(x), m.y(y)):
        parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="2.5" fill="#1f77b4"/>')
    parts.append("</g>")
    parts.append(
        f'<text class="label" x="{_fmt(width / 2)}" y="{_fmt(height - 10)}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">{escape(x_label)}</text>'
    )
    parts.append(
        f'<text class="label" x="14" y="{_fmt(height / 2)}" '
        f'transform="rotate(-90 14 {_fmt(height / 2)})" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{escape(y_label)}</text>'
    )
    for vx in x_range:
        parts.append(
            f'<text class="tick" x="{_fmt(m.x(vx))}" y="{_fmt(height - margin + 14)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="10">{_fmt(vx)}</text>'
        )
    for vy in y_range:
        parts.append(
            f'<text class="tick" x="{_fmt(margin - 6)}" y="{_fmt(m.y(vy) + 3)}" '
            f'text-anchor="end" font-family="sans-serif" font-size="10">{_fmt(vy)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def smoothness_csv(entries: list[tuple[str, str, SmoothnessReport]]) -> str:
    """Per-kind smoothness table: jump, angular speeds, corner angles."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([
        "kind", "view_model", "max_angular_jump",
        "mean_angular_speed", "max_angular_speed", "corner_angles",
    ])
    for kind, model, rep in entries:
        writer.writerow([
            kind, model, _fmt(rep.max_angular_jump),
            _fmt(rep.mean_angular_speed), _fmt(rep.max_angular_speed),
            ";".join(_fmt(a) for a in rep.corner_angles),
        ])
    return out.getvalue()
