"""Span tracer that wraps searoam's public functions from outside the program.

For a traced pass the tracer replaces module and class attributes (the
ones the CLI reaches, such as ``sim.run_ray_task`` or
``PathCurve.positions``) with timing wrappers and restores the originals
afterwards, so the program's code is never edited.  Each span records its
name, start, end and parent plus the operation and pass it belongs to, and
may carry counts taken from the call's arguments and result.  Spans stay in
memory until the benchmark writes them out at the end.

Hot inner functions (``cast_ray``, ``perturb_direction``,
``SpeedProfile.speed_at``) are deliberately not wrapped: they run hundreds
of thousands of times per pass and a wrapper would swamp the work it times.
Their cost is counted from the arguments of the function that calls them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

F8 = 8  # bytes per float64


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _curve_evals(result, args, kwargs):
    curve, ss = args[0], _arg(args, kwargs, 1, "ss")
    n = int(np.atleast_1d(ss).size)
    counts = {"evals": n}
    if curve.kind == "bezier":
        # de Casteljau copies the control polygon once per parameter value.
        counts["bezier_bytes"] = n * len(curve.keypoints) * 3 * F8
    return counts


def _smoothness_samples(result, args, kwargs):
    curve = _arg(args, kwargs, 0, "curve")
    samples = int(_arg(args, kwargs, 2, "samples", 64))
    return {"view_samples": samples * curve.n_segments}


def _ray_task(result, args, kwargs):
    points = np.asarray(_arg(args, kwargs, 0, "points"))
    scene = _arg(args, kwargs, 3, "scene")
    attempts, hits = result
    targets = len(scene.targets)
    return {
        "attempts": attempts,
        "hits": hits,
        "target_tests": attempts * targets,
        # The (points, targets, 3) difference array behind the trigger test.
        "dist_bytes": len(points) * targets * 3 * F8,
    }


def _null_draws(result, args, kwargs):
    from searoam import stats

    x = _arg(args, kwargs, 0, "x")
    replicates = int(_arg(args, kwargs, 1, "replicates", stats.DEFAULT_KS_REPLICATES))
    return {"null_draws": replicates * len(x)}


def _svg_bytes(result, args, kwargs):
    return {"svg_bytes": len(result.encode("utf-8"))}


def targets():
    """(owner, attribute, span name, count function or None) for each wrapper.

    searoam is imported here, not at module level, so that the benchmark
    can put the checkout's src/ on sys.path first.
    """
    from searoam import camera, geo, report, sim, spline, stats

    return (
        (geo, "load_keypoints", "geo.load_keypoints", None),
        (spline.PathCurve, "positions", "spline.positions", _curve_evals),
        (spline.PathCurve, "tangents", "spline.tangents", _curve_evals),
        (spline.PathCurve, "arc_length", "spline.arc_length", None),
        (camera, "smoothness", "camera.smoothness", _smoothness_samples),
        (sim, "simulate", "sim.simulate", None),
        (sim, "run_ray_task", "sim.run_ray_task", _ray_task),
        (stats, "load_study", "stats.load_study", None),
        (stats, "analyze_study", "stats.analyze_study", None),
        (stats, "ks_normality", "stats.ks_normality", _null_draws),
        (stats, "linear_fit_with_band", "stats.fit", None),
        (report, "render_path_compare", "report.render_path_compare", _svg_bytes),
        (report, "render_scatter_band", "report.render_scatter_band", _svg_bytes),
        (report, "smoothness_csv", "report.smoothness_csv", None),
    )


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: str
    pass_no: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; install() swaps the wrappers in and out."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = ""
        self._pass_no = 0

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self._op, self._pass_no, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op: str, pass_no: int, name: str):
        """Root span of one operation; every span opened inside is its child."""
        self._op, self._pass_no = op, pass_no
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                span.counts = count(result, args, kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def install(self):
        saved = []
        try:
            for owner, attr, name, count in targets():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        with path.open("w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent, "op": s.op,
                    "pass": s.pass_no, "start": s.start, "end": s.end, "counts": s.counts,
                }) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part its direct children cover, by span id.

    Spans of one thread never overlap their siblings, so the children's
    coverage is the sum of their durations.
    """
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.duration
    return own


def totals(spans: list[Span]) -> tuple[dict[str, float], dict[str, float], dict[str, dict]]:
    """Per span name: summed duration, summed self time, and the counts.

    Counts are summed; keys ending in ``bytes`` also keep their maximum as
    ``<key>_max``.
    """
    own = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    counts: dict[str, dict] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_total[s.name] = self_total.get(s.name, 0.0) + own[s.id]
        c = counts.setdefault(s.name, {})
        for key, value in s.counts.items():
            c[key] = c.get(key, 0) + value
            if key.endswith("bytes"):
                c[key + "_max"] = max(c.get(key + "_max", 0), value)
    return total, self_total, counts
