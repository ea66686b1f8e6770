"""Write the seeded inputs of the sim_spread golden: route.csv and scene.json.

A 20-keypoint random walk spanning 200 units along its widest axis
(heights 0 to 200), with 300 obstacles and 150 targets of varied radii:
half of each lie near the route, so the agent collides and fires rays, and
half are spread over the route's whole bounding box, far from most of its
points.  Run from the repository root:

    python tests/golden/sim_spread/generate.py

then, with the expected outputs written by the simulator,

    PYTHONPATH=src python -m searoam sim run tests/golden/sim_spread/route.csv \
        tests/golden/sim_spread/scene.json --dt 0.02 --seed 5 --sigma 0 \
        --out tests/golden/sim_spread/sigma_0
    (and the same with --sigma 0.05 --out .../sigma_0.05)
"""

import json
from pathlib import Path

import numpy as np

HERE = Path(__file__).parent


def main() -> None:
    rng = np.random.default_rng(20261018)
    steps = rng.normal(0.0, 1.0, (19, 3))
    steps *= rng.uniform(6.0, 14.0, (19, 1)) / np.linalg.norm(steps, axis=1, keepdims=True)
    route = np.vstack([np.zeros(3), np.cumsum(steps, axis=0)])
    route -= (route.min(axis=0) + route.max(axis=0)) / 2
    route *= 100.0 / np.abs(route).max()
    route[:, 2] += 100.0  # heights must be >= 0
    lo, hi = route.min(axis=0), route.max(axis=0)

    # Points along the polyline between keypoints, to anchor near-path spheres.
    u = rng.uniform(0.0, 1.0, (225, 1))
    seg = rng.integers(0, len(route) - 1, 225)
    anchors = route[seg] + u * (route[seg + 1] - route[seg])

    def near(anchor, spread):
        return anchor + rng.normal(0.0, spread, anchor.shape)

    obstacles = np.vstack([near(anchors[:150], 2.0), rng.uniform(lo, hi, (150, 3))])
    obstacle_r = rng.uniform(0.3, 2.5, 300)
    targets = np.vstack([near(anchors[150:], 1.5), rng.uniform(lo, hi, (75, 3))])
    target_r = rng.uniform(0.2, 1.2, 150)

    rows = ["longitude,latitude,height,speed"]
    rows += [f"{x:.6f},{y:.6f},{z:.6f},{s:.3f}"
             for (x, y, z), s in zip(route, rng.uniform(4.0, 8.0, len(route)))]
    (HERE / "route.csv").write_text("\n".join(rows) + "\n")

    def fmt(c):
        return [round(float(v), 4) for v in c]

    doc = {
        "obstacles": [{"center": fmt(c), "radius": round(float(r), 3)}
                      for c, r in zip(obstacles, obstacle_r)],
        "targets": [{"id": f"t{i:03d}", "center": fmt(c), "radius": round(float(r), 3)}
                    for i, (c, r) in enumerate(zip(targets, target_r))],
        "agent_radius": 0.5,
        "energy_budget": 300.0,
    }
    (HERE / "scene.json").write_text(json.dumps(doc, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
