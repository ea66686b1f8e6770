"""Output checks behind the benchmark's failure count.

An operation fails when it exits non-zero, raises, or its outputs fail one
of these checks.  The runner also requires every pass of an operation to
write byte-identical files; the checks here cover what one pass must get
right on its own.  They read the keypoint CSVs with the csv module, not
with searoam, so a fault in the program's parser cannot hide itself.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import Workload

# Polyline time_used must equal polyline length / speed to this relative
# tolerance on constant-speed routes.  The stepper sums some thousands of dt
# increments, each rounding by at most one ulp, so 1e-9 leaves ample room.
TIME_REL_TOL = 1e-9
# PathCurve.arc_length of a polyline must match the chord sum computed here.
LENGTH_REL_TOL = 1e-12

KINDS = ("polyline", "bezier", "catmull_rom")
SCATTER_VARS = ("enjoyment", "time_s", "collisions", "accuracy")
EXPECTED_FILES = {
    "compare": {"compare.svg", "smoothness.csv"},
    "sim": {f"sim_{k}.json" for k in KINDS},
    "analyze": {"stats_report.json"} | {f"scatter_engagement_vs_{v}.svg" for v in SCATTER_VARS},
    "arc_length": {"arc_length.json"},
}
# The README's result on the bundled study: signs of the four correlations.
DEMO_SIGNS = {"enjoyment": 1, "time_s": -1, "collisions": -1, "accuracy": 1}


def read_route(path: Path) -> tuple[np.ndarray, np.ndarray | None]:
    """(N, 3) raw-projected points and the speed column (None when absent)."""
    with path.open(newline="", encoding="utf-8") as f:
        rows = [r for r in csv.reader(f) if r]
    values = np.array([[float(c) for c in r] for r in rows[1:]])
    return values[:, :3], (values[:, 3] if values.shape[1] == 4 else None)


def polyline_length(points: np.ndarray) -> float:
    return float(np.linalg.norm(np.diff(points, axis=0), axis=1).sum())


@dataclass(frozen=True)
class Expectations:
    route_length: float         # polyline length of the compare/arc_length route
    route_span: float           # straight distance between its endpoints
    sim_length: float           # polyline length of the sim route
    sim_speed: float | None     # its constant speed, or None when speeds vary
    golden_compare: bytes | None
    demo_study: bool


def expectations(workload: Workload, root: Path) -> Expectations:
    pts, _ = read_route(workload.route)
    sim_pts, speeds = read_route(workload.sim_route)
    constant = speeds is not None and np.all(speeds == speeds[0])
    demo = workload.name == "demo"
    return Expectations(
        route_length=polyline_length(pts),
        route_span=float(np.linalg.norm(pts[-1] - pts[0])),
        sim_length=polyline_length(sim_pts),
        sim_speed=float(speeds[0]) if constant else None,
        golden_compare=(root / "tests" / "golden" / "compare_demo_route.svg").read_bytes()
        if demo else None,
        demo_study=demo,
    )


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


def _check_compare(files, exp: Expectations) -> list[str]:
    if exp.golden_compare is not None and files["compare.svg"] != exp.golden_compare:
        return ["compare.svg differs from tests/golden/compare_demo_route.svg"]
    return []


def _check_sim(files, exp: Expectations) -> list[str]:
    errors = []
    for kind in KINDS:
        doc = json.loads(files[f"sim_{kind}.json"])
        attempts, hits = doc["ray_attempts"], doc["ray_hits"]
        if doc["kind"] != kind:
            errors.append(f"sim_{kind}.json: kind is {doc['kind']!r}")
        if not 0 <= hits <= attempts:
            errors.append(f"{kind}: ray_hits {hits} not within [0, ray_attempts {attempts}]")
        if doc["accuracy"] != (hits / attempts if attempts else 0.0):
            errors.append(f"{kind}: accuracy {doc['accuracy']} != hits/attempts")
        if doc["completed"] is not True:
            errors.append(f"{kind}: run did not complete")
        if kind == "polyline" and exp.sim_speed is not None:
            expected = exp.sim_length / exp.sim_speed
            if not _close(doc["time_used"], expected, TIME_REL_TOL):
                errors.append(f"polyline time_used {doc['time_used']!r} != length/speed "
                              f"{expected!r} (rel tol {TIME_REL_TOL})")
    return errors


def _check_analyze(files, exp: Expectations) -> list[str]:
    doc = json.loads(files["stats_report.json"])
    corr = doc["correlations"]
    if len(corr) != 4:
        return [f"expected 4 correlations, got {len(corr)}"]
    if not exp.demo_study:
        return []
    errors = []
    for var, sign in DEMO_SIGNS.items():
        r = corr[f"engagement_vs_{var}"]["r"]
        if not r * sign > 0:
            errors.append(f"engagement_vs_{var}: r = {r} has the wrong sign")
    if corr["engagement_vs_collisions"]["method"] != "spearman":
        errors.append("engagement_vs_collisions is not tested with Spearman")
    return errors


def _check_arc_length(files, exp: Expectations) -> list[str]:
    lengths = json.loads(files["arc_length.json"])
    errors = [f"{k}: arc length {v!r} is not finite and > 0"
              for k, v in lengths.items() if not (math.isfinite(v) and v > 0)]
    if errors:
        return errors
    if not _close(lengths["polyline"], exp.route_length, LENGTH_REL_TOL):
        errors.append(f"polyline arc length {lengths['polyline']!r} != chord sum "
                      f"{exp.route_length!r}")
    # A Bezier curve is never longer than its control polygon, and no curve
    # is shorter than the straight line between its ends.
    if lengths["bezier"] > exp.route_length * (1 + 1e-9):
        errors.append("bezier arc length exceeds its control polygon")
    for kind, v in lengths.items():
        if v < exp.route_span * (1 - 1e-9):
            errors.append(f"{kind} arc length is shorter than the endpoint distance")
    return errors


_CHECKS = {
    "compare": _check_compare,
    "sim": _check_sim,
    "analyze": _check_analyze,
    "arc_length": _check_arc_length,
}


def check(op: str, files: dict[str, bytes], exp: Expectations) -> list[str]:
    """Failures of one operation's outputs; an empty list means it passed."""
    missing = EXPECTED_FILES[op] - files.keys()
    extra = files.keys() - EXPECTED_FILES[op]
    if missing or extra:
        return [f"{op}: missing {sorted(missing)}, unexpected {sorted(extra)}"]
    try:
        return _CHECKS[op](files, exp)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{op}: malformed output: {exc!r}"]
