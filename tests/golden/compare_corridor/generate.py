"""Write the seeded input of the compare_corridor golden: route.csv.

A 12-keypoint random walk, each step 6 to 14 units in a random direction,
heights shifted to stay >= 0: 10 interior knots, so the corner angles of
every kind and the bezier's knot rows are exercised beyond the demo
route's four.  Run from the repository root:

    python tests/golden/compare_corridor/generate.py

then, with the expected outputs written by the program,

    PYTHONPATH=src python -m searoam path compare \
        tests/golden/compare_corridor/route.csv --tension 0.35 \
        --out tests/golden/compare_corridor
"""

from pathlib import Path

import numpy as np

HERE = Path(__file__).parent


def main() -> None:
    rng = np.random.default_rng(20261019)
    steps = rng.normal(0.0, 1.0, (11, 3))
    steps *= rng.uniform(6.0, 14.0, (11, 1)) / np.linalg.norm(steps, axis=1, keepdims=True)
    route = np.vstack([np.zeros(3), np.cumsum(steps, axis=0)])
    route[:, 2] -= route[:, 2].min()
    rows = ["longitude,latitude,height"]
    rows += [f"{x:.6f},{y:.6f},{z:.6f}" for x, y, z in route]
    (HERE / "route.csv").write_text("\n".join(rows) + "\n")


if __name__ == "__main__":
    main()
