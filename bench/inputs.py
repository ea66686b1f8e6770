"""Seeded input generator for the synthetic benchmark workload.

The generator depends only on numpy, never on searoam, so a change to the
program cannot change the inputs it is measured on.  Every file is written
with fixed float formatting: one seed always gives byte-identical files.

Files written into the work directory:

* ``route.csv``  keypoint CSV with a constant speed column,
* ``scene.json`` scene JSON (obstacles, targets, agent radius),
* ``study.csv``  a 50-participant study table for ``study analyze``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

SPEED = 1.0
TENSION = 0.5
STUDY_SIZE = 50

# Start of every synthetic route (longitude, latitude, height).
_ORIGIN = np.array([120.0, 20.0, 40.0])


def _route(rng: np.random.Generator, n: int, step: float) -> np.ndarray:
    """n keypoints exactly ``step`` apart along a seeded heading.

    A jitter of about 0.03 units sideways and 0.01 units up keeps the route
    nearly straight, so the three curve kinds stay within a few hundredths
    of each other.  The seed turns the whole route and moves the jitter;
    the length, and with it the number of steps, stays the same.
    """
    heading0 = rng.uniform(0.0, 2.0 * np.pi)
    pts = [_ORIGIN.copy()]
    for _ in range(n - 1):
        heading = heading0 + rng.normal(0.0, 0.027 / step)
        dz = rng.normal(0.0, 0.01)
        flat = np.sqrt(step * step - dz * dz)
        pts.append(pts[-1] + [flat * np.cos(heading), flat * np.sin(heading), dz])
    return np.array(pts)


def catmull_rom_samples(pts: np.ndarray, per_segment: int) -> np.ndarray:
    """Points on the tension-0.5 Catmull-Rom curve through ``pts``.

    Uses the README's definition (end tangents t*(P1 - P_prev) and
    t*(P_next - P0), phantom duplicated endpoints), so scene objects can be
    placed next to the interpolating path the simulator follows.
    """
    padded = np.vstack([pts[:1], pts, pts[-1:]])
    u = (np.arange(per_segment) / per_segment)[:, None]
    h00, h10 = 2 * u**3 - 3 * u**2 + 1, u**3 - 2 * u**2 + u
    h01, h11 = -2 * u**3 + 3 * u**2, u**3 - u**2
    out = []
    for i in range(len(pts) - 1):
        pm1, p0, p1, p2 = padded[i:i + 4]
        m0, m1 = TENSION * (p1 - pm1), TENSION * (p2 - p0)
        out.append(h00 * p0 + h10 * m0 + h01 * p1 + h11 * m1)
    out.append(pts[-1:])
    return np.vstack(out)


def _ball_offsets(rng: np.random.Generator, count: int, radius: float) -> np.ndarray:
    """Uniform random offsets inside a ball of the given radius."""
    d = rng.standard_normal((count, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return d * radius * rng.uniform(0.0, 1.0, (count, 1)) ** (1.0 / 3.0)


def _spheres_near(rng, path: np.ndarray, count: int, within: float) -> np.ndarray:
    """Centers within ``within`` of randomly chosen points along ``path``."""
    anchors = path[rng.integers(0, len(path), count)]
    return anchors + _ball_offsets(rng, count, within)


def _spheres_beside(rng, path: np.ndarray, count: int, lo: float, hi: float) -> np.ndarray:
    """Centers between ``lo`` and ``hi`` from ``path``, offset across it."""
    idx = rng.integers(1, len(path) - 1, count)
    tangent = path[idx + 1] - path[idx - 1]
    tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
    d = rng.standard_normal((count, 3))
    d -= np.sum(d * tangent, axis=1, keepdims=True) * tangent
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return path[idx] + d * rng.uniform(lo, hi, (count, 1))


def _fmt(v: float) -> float:
    return float(format(float(v), ".6f"))


def route_csv(pts: np.ndarray) -> str:
    rows = ["longitude,latitude,height,speed"]
    rows += [f"{x:.6f},{y:.6f},{z:.6f},{SPEED:g}" for x, y, z in pts]
    return "\n".join(rows) + "\n"


def scene_json(obstacles, obstacle_r, targets, target_r, agent_radius) -> str:
    doc = {
        "obstacles": [{"center": [_fmt(c) for c in o], "radius": obstacle_r} for o in obstacles],
        "targets": [
            {"id": f"t{i:04d}", "center": [_fmt(c) for c in t], "radius": target_r}
            for i, t in enumerate(targets)
        ],
        "agent_radius": agent_radius,
        "energy_budget": 300.0,
    }
    return json.dumps(doc, indent=1) + "\n"


def study_csv(rng: np.random.Generator, n: int = STUDY_SIZE) -> str:
    """A study table whose engagement drives the other columns.

    Collisions are Poisson counts, so at least one pair is tested with
    Spearman; scores stay integer sums in [5, 25] and accuracy in [0, 1].
    """
    skill = rng.standard_normal(n)
    engagement = np.clip(np.rint(17 + 3 * skill + rng.normal(0, 1.5, n)), 5, 25)
    enjoyment = np.clip(np.rint(19 + 2.5 * skill + rng.normal(0, 1.5, n)), 5, 25)
    time_s = np.maximum(230 - 6 * (engagement - 17) + rng.normal(0, 15, n), 30)
    collisions = rng.poisson(np.exp(0.8 - 0.2 * (engagement - 17)))
    accuracy = np.clip(0.7 + 0.03 * (engagement - 17) + rng.normal(0, 0.08, n), 0, 1)
    rows = ["participant,enjoyment,engagement,time_s,collisions,accuracy"]
    for i in range(n):
        rows.append(f"P{i + 1:03d},{int(enjoyment[i])},{int(engagement[i])},"
                    f"{time_s[i]:.3f},{int(collisions[i])},{accuracy[i]:.4f}")
    return "\n".join(rows) + "\n"


def dense_scene(seed: int) -> dict[str, str]:
    """A straight 12-keypoint, 130-unit corridor through 1000 obstacles and 500 targets.

    300 targets lie within 0.3 of the path, so every curve kind, all three
    staying within a few hundredths of each other, fires about 300 rays.
    The other 200 lie 1.5 to 3 units to the side, outside every trigger
    zone: they fire nothing but every ray is still tested against them.
    """
    rng = np.random.default_rng([seed, 2])
    pts = _route(rng, n=12, step=11.8)
    path = catmull_rom_samples(pts, 64)
    obstacles = _spheres_near(rng, path, 1000, within=2.0)
    targets = np.vstack([_spheres_near(rng, path, 300, within=0.3),
                         _spheres_beside(rng, path, 200, 1.5, 3.0)])
    return {
        "route.csv": route_csv(pts),
        "scene.json": scene_json(obstacles, 0.3, targets, 0.2, 0.3),
        "study.csv": study_csv(rng),
    }


GENERATORS = {"dense_scene": dense_scene}


def write_inputs(workload: str, seed: int, work_dir: Path) -> dict[str, Path]:
    """Generate the workload's inputs into work_dir; return name -> path."""
    work_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in GENERATORS[workload](seed).items():
        path = work_dir / name
        path.write_text(text, encoding="utf-8")
        paths[name] = path
    return paths


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
