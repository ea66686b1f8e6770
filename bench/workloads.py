"""The benchmark's workloads: their inputs and the operations run on them.

Every workload runs the same four operations, so each reports every
end-to-end metric, but each is sized so that a different layer does the
work:

* ``demo``        the README's three commands on the bundled files.  The
                  sim stepper (about 10k steps per kind) and the Lilliefors
                  null dominate; curves have 6 keypoints and the scene 3
                  obstacles and 2 targets, so changes to the curve kernels,
                  collisions or rays should show no change here.
* ``dense_scene`` a seeded 12-keypoint, 130-unit corridor through 1000
                  obstacles and 500 targets at --dt 0.05 (about 2.6k steps
                  per kind and 900 ray attempts in all).  The per-attempt
                  ray loop and per-obstacle collision counting dominate:
                  few steps, large scene, the opposite of ``demo``.

The ``demo`` inputs are the bundled files, so it ignores the seed;
``dense_scene`` generates its inputs from it (see inputs.py).  The seed
rotates the route and moves every sphere, but keeps the amount of work
(steps, ray attempts) the same, so runs with different seeds can be
compared.

A third workload, a 40-keypoint route that loads the bezier arc table, was
tried and left out: its memory-bound sim op did not follow the machine's
speed swings the way the calibration loop does (see speed.py), so neither
scaled nor raw medians were steady enough across runs on a shared machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import inputs

OPS = ("compare", "sim", "analyze", "arc_length")


@dataclass(frozen=True)
class Workload:
    name: str
    route: Path        # keypoint CSV for path compare and arc_length
    sim_route: Path    # keypoint CSV (with speeds) for sim run
    scene: Path
    study: Path
    sim_args: tuple[str, ...]

    @property
    def input_files(self) -> dict[str, Path]:
        return {"route": self.route, "sim_route": self.sim_route,
                "scene": self.scene, "study": self.study}

    @property
    def dt(self) -> float:
        return float(self.sim_args[self.sim_args.index("--dt") + 1])

    def cli_argv(self, op: str, out_dir: Path) -> list[str]:
        """Arguments of ``searoam`` for one CLI operation."""
        if op == "compare":
            argv = ["path", "compare", str(self.route)]
        elif op == "sim":
            argv = ["sim", "run", str(self.sim_route), str(self.scene), *self.sim_args]
        elif op == "analyze":
            argv = ["study", "analyze", str(self.study)]
        else:
            raise ValueError(f"{op!r} is not a CLI operation")
        return argv + ["--out", str(out_dir)]


NAMES = ("demo", "dense_scene")


def build(name: str, seed: int, root: Path, work_dir: Path) -> Workload:
    """Prepare a workload's inputs (generating them when seeded)."""
    if name == "demo":
        data = root / "data"
        return Workload(
            name, data / "demo_route.csv", data / "demo_route_speeds.csv",
            data / "demo_scene.json", data / "synthetic_study.csv",
            ("--dt", "0.005", "--seed", "11", "--sigma", "0.1"),
        )
    if name != "dense_scene":
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    sim_args = ("--dt", "0.05", "--seed", str(seed), "--sigma", "0.05")
    files = inputs.write_inputs(name, seed, work_dir / "inputs")
    return Workload(name, files["route.csv"], files["route.csv"],
                    files["scene.json"], files["study.csv"], sim_args)
