"""Scaling of wall times to a reference machine speed.

The benchmark was built on a shared 2-CPU machine whose speed swings by up
to a factor of two within minutes, as other tenants come and go.  A fixed
loop's 10-second medians there varied with a 30% interquartile spread, and
so did every searoam timing, all in step.  No number of samples inside one
run removes that, because a run sits inside one such swing.

So every timed sample is scaled by the machine's speed at that moment: a
fixed calibration loop runs right before and right after the sample, and
the sample's wall time is multiplied by CAL_NOMINAL_S over the mean of the
two calibration times.  The loop does the kind of work searoam's hot paths
do (interpreted Python around small numpy calls, and a sort), but calls no
searoam code, so no change to the program can move it.  In a two-minute
trial this cut the spread of 10-second medians of the demo ``sim run`` from
0.32 to 0.03, and of ``arc_length`` from 0.31 to 0.04.

Scaled times are in seconds at the speed where the loop takes
CAL_NOMINAL_S, about the machine's typical speed (it took 12 to 20 ms
there).  A loop of that length keeps the factor's own jitter small next to
the swings it corrects.  The raw wall-time medians and the speed factors
are kept in the results file beside the scaled ones.

Scaling tracks interpreter-bound work (arc_length, the stepper, the ray
loop) best.  Memory-bound work, such as the bezier arc table of a
40-keypoint route, swings less with the machine; scaling made its spread
worse (0.13 raw, 0.26 scaled over ten runs), which is why no workload
leans on that table.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CAL_NOMINAL_S = 0.02
CAL_CALLS = 16000
_CAL_ROWS = np.random.default_rng(0).standard_normal((200, 50))
_CAL_VEC = np.arange(3.0)


def calibration() -> float:
    """Wall time of the fixed calibration loop."""
    t0 = time.perf_counter()
    s = 0.0
    for _ in range(CAL_CALLS):
        s += float(np.dot(_CAL_VEC, _CAL_VEC))
    np.sort(_CAL_ROWS, axis=1)
    return time.perf_counter() - t0


class SpeedGauge:
    """Records each timed sample as (wall time, speed-scaled time)."""

    def __init__(self):
        self.samples: dict[str, list[tuple[float, float]]] = {}
        self._last = calibration()

    def record(self, name: str, wall: float) -> None:
        """Scale a sample that ended just now; call right after it ends."""
        after = calibration()
        factor = CAL_NOMINAL_S / (0.5 * (self._last + after))
        self._last = after
        self.samples.setdefault(name, []).append((wall, wall * factor))

    def scaled(self, name: str) -> list[float]:
        return [s for _, s in self.samples[name]]

    def wall_median(self, name: str) -> float:
        return statistics.median(w for w, _ in self.samples[name])

    def factor_median(self) -> float:
        return statistics.median(s / w for pairs in self.samples.values() for w, s in pairs)
