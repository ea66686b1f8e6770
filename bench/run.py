"""Benchmark for searoam: run one workload, check its outputs, print its metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload demo --seed 1 --seconds 40 --trace 0

Workloads are described in workloads.py.  Each run is one process with one
closed-loop client: the next operation starts when the previous returns.
The four operations are ``searoam path compare``, ``sim run`` and ``study
analyze`` called in process through ``searoam.cli.main``, and
``PathCurve.arc_length`` over the three curve kinds.

``--trace 0`` measures the end-to-end metrics: every operation's median
time over the timed passes (after one discarded warm-up pass), set-up time
as the median wall time of fresh interpreters running ``import searoam``
(one per pass), and the process's peak RSS.  Times are wall times scaled
to a reference machine speed measured around each sample (see speed.py);
the unscaled medians are in the results file.  ``--trace 1`` instead alternates untraced and
traced passes: the traced ones wrap the program's public functions (see
tracing.py) and give the per-layer metrics, and the difference between the
two kinds of pass is reported as the tracing overhead.  Outputs of traced
passes must be byte-identical to untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything else
(samples, tail percentiles, input hashes, per-operation breakdowns, machine
facts) goes to ``bench/_results/<workload>-seed<seed>-trace<t>.json``; with
``--trace 1`` the spans go to a ``.spans.jsonl`` file beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import inputs
import machine
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = HERE / "_results"

KINDS = checks.KINDS
IMPORTTIME_RUNS = 5     # fresh interpreters under -X importtime (--trace 1)
OP_FLOOR_S = 0.4        # --trace 0: repeat a short op within a pass until it ran this long
MAX_REPEATS = 200
MAX_FAILURES_KEPT = 20

END_TO_END = {
    "setup_s": "s",
    "compare_s": "s",
    "sim_s": "s",
    "analyze_s": "s",
    "arc_length_s": "s",
    "peak_rss_mb": "MB",
}
OP_METRIC = {"compare": "compare_s", "sim": "sim_s", "analyze": "analyze_s",
             "arc_length": "arc_length_s"}

PER_LAYER = {
    "setup.scipy_integrate_s": "s",
    "setup.scipy_special_s": "s",
    "setup.numpy_s": "s",
    "setup.searoam_self_s": "s",
    "geo.load_keypoints_s": "s",
    "spline.positions_s": "s",
    "spline.positions_evals": "count",
    "spline.tangents_s": "s",
    "spline.bezier_bytes_computed_sum": "B",
    "spline.bezier_bytes_computed_max": "B",
    "spline.arc_length_s": "s",
    "camera.smoothness_s": "s",
    "camera.view_samples": "count",
    "sim.step_s": "s",
    "sim.steps": "count",
    "sim.step_us": "us",
    "sim.collisions_s": "s",
    "sim.obstacle_tests": "count",
    "sim.ray_task_s": "s",
    "sim.ray_attempts": "count",
    "sim.ray_hits": "count",
    "sim.ray_hit_ratio": "ratio",
    "sim.ray_target_tests": "count",
    "sim.ray_dist_bytes_computed_max": "B",
    "stats.ks_normality_s": "s",
    "stats.null_draws": "count",
    "stats.fit_s": "s",
    "report.render_path_compare_s": "s",
    "report.svg_bytes": "B",
    "report.render_scatter_band_s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "B",
    "src.lines": "count",
    "trace.overhead_share": "ratio",
}


class SetupError(RuntimeError):
    """The program cannot be measured at all (missing, or fails to import)."""


# --- set-up time -----------------------------------------------------------

def _fresh_import(extra: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *extra, "-c", "import searoam"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"import searoam failed in a fresh interpreter:\n{proc.stderr}")
    return proc


def setup_time() -> float:
    """Wall time of one fresh interpreter running ``import searoam``."""
    t0 = time.perf_counter()
    _fresh_import([])
    return time.perf_counter() - t0


def parse_importtime(stderr: str) -> dict[str, tuple[float, float]]:
    """Module -> (self s, cumulative s) from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        out[name.strip()] = (int(own) * 1e-6, int(cumulative) * 1e-6)
    return out


def setup_layers(runs: int) -> dict[str, float]:
    """Import cost of the heavy dependencies and of searoam's own modules.

    Cumulative times nest (scipy.special is imported inside scipy.integrate
    on the seed code), and a module that is no longer imported reads 0.
    """
    _fresh_import([])
    samples = []
    for _ in range(runs):
        mods = parse_importtime(_fresh_import(["-X", "importtime"]).stderr)
        samples.append({
            "setup.scipy_integrate_s": mods.get("scipy.integrate", (0.0, 0.0))[1],
            "setup.scipy_special_s": mods.get("scipy.special", (0.0, 0.0))[1],
            "setup.numpy_s": mods.get("numpy", (0.0, 0.0))[1],
            "setup.searoam_self_s": sum(own for name, (own, _) in mods.items()
                                        if name == "searoam" or name.startswith("searoam.")),
        })
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


# --- operations ------------------------------------------------------------

class Runner:
    """Runs operations one at a time, checks their outputs, counts failures."""

    def __init__(self, workload: workloads.Workload, work_dir: Path):
        from searoam import cli, spline

        self.cli = cli
        self.workload = workload
        self.work_dir = work_dir
        self.expect = checks.expectations(workload, ROOT)
        pts, _ = checks.read_route(workload.route)
        self.arc_curves = [spline.PathCurve.polyline(pts), spline.PathCurve.bezier(pts),
                           spline.PathCurve.catmull_rom(pts)]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference: dict[str, dict[str, bytes]] = {}
        self.out_bytes: dict[str, int] = {}
        self.traced_mismatches = 0

    def _call(self, op: str, out_dir: Path) -> dict[str, bytes] | None:
        """The timed part of one operation.

        arc_length returns its lengths as a file's bytes; the CLI operations
        write theirs to out_dir and return None.
        """
        if op == "arc_length":
            lengths = [c.arc_length() for c in self.arc_curves]
            return {"arc_length.json": json.dumps(dict(zip(KINDS, lengths))).encode()}
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.cli.main(self.workload.cli_argv(op, out_dir))
        if code != 0:
            raise RuntimeError(f"exit status {code}: {sink.getvalue().strip()[-400:]}")
        return None

    def run(self, op: str, pass_no: int, tracer=None, gauge=None) -> float:
        """Run one operation and return its wall time (failed ones included).

        With a gauge, the time is also recorded there, scaled to the
        reference machine speed.
        """
        self.attempted += 1
        out_dir = self.work_dir / "out" / op
        shutil.rmtree(out_dir, ignore_errors=True)
        span = (tracer.op(op, pass_no, "cli.main" if op != "arc_length" else "op.arc_length")
                if tracer else contextlib.nullcontext())
        t0 = time.perf_counter()
        try:
            with span:
                files = self._call(op, out_dir)
            elapsed = time.perf_counter() - t0
            if files is None:
                files = ({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
                         if out_dir.is_dir() else {})
            errors = checks.check(op, files, self.expect)
        except Exception:  # noqa: BLE001 - any fault of the program is a failed operation
            elapsed = time.perf_counter() - t0
            errors = [traceback.format_exc(limit=3).strip()]
            files = None
        if files is not None:
            reference = self.reference.setdefault(op, files)
            if files != reference:
                changed = sorted(k for k in files.keys() | reference.keys()
                                 if files.get(k) != reference.get(k))
                errors.append(f"outputs differ from the first pass: {changed}")
                self.traced_mismatches += tracer is not None
            if op != "arc_length":
                self.out_bytes[op] = sum(len(b) for b in files.values())
        if errors:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_KEPT:
                self.failures.append(f"{op} (pass {pass_no}{', traced' if tracer else ''}): "
                                     + "; ".join(errors))
        if gauge is not None:
            gauge.record(OP_METRIC[op], elapsed)
        return elapsed

    def run_pass(self, pass_no: int, floor: float = 0.0, tracer=None,
                 gauge=None) -> dict[str, list[float]]:
        """Each operation once, or repeatedly until it has run ``floor`` seconds."""
        times = {}
        for op in workloads.OPS:
            times[op] = []
            while True:
                times[op].append(self.run(op, pass_no, tracer, gauge))
                if sum(times[op]) >= floor or len(times[op]) >= MAX_REPEATS:
                    break
        return times


# --- measurement -------------------------------------------------------------

def summarize(samples: list[float]) -> dict:
    """Median, quartiles, sample count and the tail percentile of a timing.

    The tail is the highest percentile with at least ten samples above it;
    with fewer than eleven samples there is none.
    """
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "samples": n, "tail": None, "quartiles": None}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out["quartiles"] = [q1, q3]
    if n >= 11:
        out["tail"] = {"percentile": round(100.0 * (n - 10) / n, 2), "value": ordered[n - 11]}
    return out


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Timed passes for ``seconds`` after a warm-up pass.

    Each pass also times one fresh ``import searoam``, so set-up is sampled
    across the whole run, like the operations, rather than in one burst.
    Every sample is scaled to the reference machine speed (see speed.py).
    """
    _fresh_import([])  # compiles the bytecode, which users pay only once
    runner.run_pass(0)  # warm-up, discarded
    gauge = speed.SpeedGauge()
    deadline = time.perf_counter() + seconds
    pass_no = 0
    while pass_no == 0 or time.perf_counter() < deadline:
        pass_no += 1
        gauge.record("setup_s", setup_time())
        runner.run_pass(pass_no, OP_FLOOR_S, gauge=gauge)
    names = ["setup_s", *OP_METRIC.values()]
    timings = {name: summarize(gauge.scaled(name)) for name in names}
    metrics = {name: t["median"] for name, t in timings.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    details = {"passes": pass_no, "speed_factor_median": gauge.factor_median(),
               "calibration_nominal_s": speed.CAL_NOMINAL_S, "timings": {}}
    for name, t in timings.items():
        details["timings"].update({f"{name}.{k}": v for k, v in t.items()})
        details["timings"][f"{name}.wall_median"] = gauge.wall_median(name)
    return metrics, details


class Probes:
    """Library calls that isolate the sim stages without a public entry point.

    ``sample_trajectory`` runs the stepper alone; ``traverse`` adds collision
    counting.  Both get the inputs the CLI builds for ``sim run``.
    """

    def __init__(self, workload: workloads.Workload):
        from searoam import geo, sim, spline

        self.sim = sim
        kps = geo.load_keypoints(workload.sim_route.read_text(encoding="utf-8"))
        pts = [tuple(geo.project(kp, geo.Projection.raw())) for kp in kps]
        self.curves = [spline.PathCurve(kind, pts) for kind in KINDS]
        self.profile = sim.SpeedProfile.from_keypoints(kps)
        self.scene = sim.SceneSpec.from_json(workload.scene.read_text(encoding="utf-8"))
        self.dt = workload.dt

    def run(self, tracer, pass_no: int) -> None:
        for curve in self.curves:
            with tracer.op("probe", pass_no, "probe.sample_trajectory") as span:
                traj = self.sim.sample_trajectory(curve, self.profile, self.dt,
                                                  self.scene.energy_budget)
            span.counts = {"steps": len(traj.times) - 1}
            with tracer.op("probe", pass_no, "probe.traverse"):
                self.sim.traverse(curve, self.profile, self.scene, self.dt)


def layer_metrics(spans, out_bytes: int, obstacles: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (each operation run once)."""
    total, own, counts = tracing.totals([s for s in spans if s.op != "probe"])
    _, p_own, p_counts = tracing.totals([s for s in spans if s.op == "probe"])

    def t(name):
        return total.get(name, 0.0)

    def c(name, key):
        return counts.get(name, {}).get(key, 0)

    steps = p_counts["probe.sample_trajectory"]["steps"]
    step_s = p_own["probe.sample_trajectory"]
    attempts, hits = c("sim.run_ray_task", "attempts"), c("sim.run_ray_task", "hits")
    return {
        "geo.load_keypoints_s": t("geo.load_keypoints"),
        "spline.positions_s": t("spline.positions"),
        "spline.positions_evals": c("spline.positions", "evals"),
        "spline.tangents_s": t("spline.tangents"),
        "spline.bezier_bytes_computed_sum": (c("spline.positions", "bezier_bytes")
                                             + c("spline.tangents", "bezier_bytes")),
        "spline.bezier_bytes_computed_max": max(c("spline.positions", "bezier_bytes_max"),
                                                c("spline.tangents", "bezier_bytes_max")),
        "spline.arc_length_s": t("spline.arc_length"),
        "camera.smoothness_s": t("camera.smoothness"),
        "camera.view_samples": c("camera.smoothness", "view_samples"),
        "sim.step_s": step_s,
        "sim.steps": steps,
        "sim.step_us": step_s / steps * 1e6,
        # Self times leave out the curve evaluations both probes share, which
        # can be far larger than collision counting (the bezier arc table).
        "sim.collisions_s": p_own["probe.traverse"] - step_s,
        # Collision counting tests every sampled position (steps + 1 per kind).
        "sim.obstacle_tests": (steps + len(KINDS)) * obstacles,
        "sim.ray_task_s": t("sim.run_ray_task"),
        "sim.ray_attempts": attempts,
        "sim.ray_hits": hits,
        "sim.ray_hit_ratio": hits / attempts if attempts else 0.0,
        "sim.ray_target_tests": c("sim.run_ray_task", "target_tests"),
        "sim.ray_dist_bytes_computed_max": c("sim.run_ray_task", "dist_bytes_max"),
        "stats.ks_normality_s": t("stats.ks_normality"),
        "stats.null_draws": c("stats.ks_normality", "null_draws"),
        "stats.fit_s": t("stats.fit"),
        "report.render_path_compare_s": t("report.render_path_compare"),
        "report.svg_bytes": (c("report.render_path_compare", "svg_bytes")
                             + c("report.render_scatter_band", "svg_bytes")),
        "report.render_scatter_band_s": t("report.render_scatter_band"),
        "cli.self_s": own.get("cli.main", 0.0),
        "cli.out_bytes": out_bytes,
    }


def op_breakdown(spans) -> dict[str, dict[str, float]]:
    """Self time by span name within each operation of one pass.

    The values of an operation sum to its root span's duration, so they
    account for its whole end-to-end time.
    """
    out = {}
    for op in workloads.OPS:
        _, own, _ = tracing.totals([s for s in spans if s.op == op])
        out[op] = own
    return out


def _median_dicts(dicts: list[dict]) -> dict:
    keys = sorted({k for d in dicts for k in d})
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in keys}


def measure_layers(runner: Runner, seconds: float, tracer: tracing.Tracer) -> tuple[dict, dict]:
    setup = setup_layers(IMPORTTIME_RUNS)
    probes = Probes(runner.workload)
    obstacles = len(probes.scene.obstacles)
    runner.run_pass(0)  # warm-up, discarded
    plain, traced, layers, breakdowns = [], [], [], []
    deadline = time.perf_counter() + seconds
    pass_no = 0
    while pass_no == 0 or time.perf_counter() < deadline:
        pass_no += 1
        plain.append(runner.run_pass(pass_no))
        first = len(tracer.spans)
        with tracer.install():
            traced.append(runner.run_pass(pass_no, tracer=tracer))
            probes.run(tracer, pass_no)
        spans = tracer.spans[first:]
        layers.append(layer_metrics(spans, sum(runner.out_bytes.values()), obstacles))
        breakdowns.append(op_breakdown(spans))

    def op_medians(passes):
        return {op: statistics.median(p[op][0] for p in passes) for op in workloads.OPS}

    plain_ops, traced_ops = op_medians(plain), op_medians(traced)
    metrics = {**setup, **_median_dicts(layers)}
    metrics["src.lines"] = machine.src_lines(SRC)
    metrics["trace.overhead_share"] = sum(traced_ops.values()) / sum(plain_ops.values()) - 1.0
    per_op = {op: {"untraced_median_s": plain_ops[op], "traced_median_s": traced_ops[op],
                   "self_s_by_span": _median_dicts([b[op] for b in breakdowns])}
              for op in workloads.OPS}
    sim_op = per_op["sim"]["self_s_by_span"]
    details = {
        "passes": pass_no,
        "per_op": per_op,
        # Where sim_s goes: the stepper and collision stages come from the
        # probes, the rest from spans inside the sim operation itself.
        "sim_split": {
            "sim_op_traced_s": per_op["sim"]["traced_median_s"],
            "step_s": metrics["sim.step_s"],
            "collisions_s": metrics["sim.collisions_s"],
            "curve_positions_s": sim_op.get("spline.positions", 0.0),
            "ray_task_s": sim_op.get("sim.run_ray_task", 0.0),
            "simulate_self_s": sim_op.get("sim.simulate", 0.0),
            "cli_self_s": sim_op.get("cli.main", 0.0),
        },
    }
    return metrics, details


# --- entry point -------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program() -> None:
    """Put the checkout's src/ first on sys.path and import searoam from it."""
    if not (SRC / "searoam" / "__init__.py").is_file():
        raise SetupError(f"no searoam package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import searoam  # noqa: F401
    except ImportError as exc:
        raise SetupError(f"import searoam failed: {exc}") from exc


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
        work_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(work_dir, ignore_errors=True)
        workload = workloads.build(args.workload, args.seed, ROOT, work_dir)
        runner = Runner(workload, work_dir)
        tracer = tracing.Tracer()
        if args.trace:
            values, details = measure_layers(runner, args.seconds, tracer)
            units = PER_LAYER
        else:
            values, details = measure_end_to_end(runner, args.seconds)
            units = END_TO_END
    except (SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    correct = runner.failed == 0
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "args": vars(args),
        "workload": workload.name,
        "inputs_sha256": {k: inputs.sha256(p) for k, p in workload.input_files.items()},
        "sim_args": list(workload.sim_args),
        "result": result,
        "error_rate": runner.failed / runner.attempted,
        "failures": runner.failures,
        "checks": {"time_rel_tol": checks.TIME_REL_TOL, "length_rel_tol": checks.LENGTH_REL_TOL,
                   "traced_outputs_identical": (runner.traced_mismatches == 0
                                                if args.trace else None)},
        "out_bytes_by_op": runner.out_bytes,
        "machine": machine.provenance(ROOT),
        **details,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")
    shutil.rmtree(work_dir, ignore_errors=True)
    print(f"details: {RESULTS / stem}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
