"""Command-line entry point.

Subcommands:
  path compare    build the three curve kinds from a keypoint CSV and write
                  compare.svg plus smoothness.csv
  sim run         simulate roaming runs over a scene and write per-kind
                  result JSON
  study analyze   run the statistics pipeline on a study CSV and write the
                  report JSON plus four scatter figures
  study synth     generate a seeded synthetic study CSV

All outputs are rendered in memory first and written afterwards, so a
failing command never leaves partial files.  Errors exit with status 1 and
a message on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import camera, geo, report, sim, spline, stats

# Limits checked before any allocation: samples per curve in path compare
# (--samples times the segments; the demo route peaks at about 390 MB at the
# limit), and participants of study synth --n (about 80 MB at the limit).
MAX_CURVE_SAMPLES = 1_000_000
MAX_STUDY_SIZE = 100_000


@functools.cache  # once per process: parse_args fills a new namespace per call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="searoam",
        description="Waypoint trajectory engine: path comparison, roaming simulation, study statistics.",
    )
    top = parser.add_subparsers(dest="command", required=True)
    # The route options that path compare and sim run share, declared once.
    route = argparse.ArgumentParser(add_help=False)
    route.add_argument("keypoints", type=Path, help="keypoint CSV file")
    route.add_argument("--tension", type=float, default=spline.DEFAULT_TENSION)
    route.add_argument("--projection", choices=["raw", "scaled"], default="raw")
    route.add_argument("--scale", type=float, nargs=3, default=(1.0, 1.0, 1.0),
                       metavar=("SX", "SY", "SZ"))
    route.add_argument("--out", type=Path, required=True, help="output directory")

    p_path = top.add_parser("path", help="path curve tools")
    path_sub = p_path.add_subparsers(dest="subcommand", required=True)
    p_compare = path_sub.add_parser("compare", parents=[route],
                                    help="compare polyline, bezier and catmull-rom paths")
    p_compare.add_argument("--samples", type=int, default=64, help="curve samples per segment")

    p_sim = top.add_parser("sim", help="roaming simulation")
    sim_sub = p_sim.add_subparsers(dest="subcommand", required=True)
    p_run = sim_sub.add_parser("run", parents=[route], help="simulate roaming along the path")
    p_run.add_argument("scene", type=Path, help="scene JSON file")
    p_run.add_argument("--kind", choices=list(spline.KINDS),
                       help="simulate only this curve kind (default: all three)")
    p_run.add_argument("--dt", type=float, default=0.1, help="time step in seconds")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--sigma", type=float, default=0.0, help="aim noise (radians)")
    p_run.add_argument("--trigger-distance", type=float, default=None,
                       help="ray trigger distance (default: 3x target radius)")

    p_study = top.add_parser("study", help="study data tools")
    study_sub = p_study.add_subparsers(dest="subcommand", required=True)
    p_analyze = study_sub.add_parser("analyze", help="normality screen and correlations")
    p_analyze.add_argument("study", type=Path, help="study CSV file")
    p_analyze.add_argument("--alpha", type=float, default=0.05)
    p_analyze.add_argument("--seed", type=int, default=0)
    p_analyze.add_argument("--replicates", type=int, default=stats.DEFAULT_KS_REPLICATES)
    p_analyze.add_argument("--out", type=Path, required=True, help="output directory")
    p_synth = study_sub.add_parser("synth", help="generate a synthetic study CSV")
    p_synth.add_argument("--n", type=int, default=stats.DEFAULT_STUDY_SIZE)
    p_synth.add_argument("--seed", type=int, default=stats.DEFAULT_STUDY_SEED)
    p_synth.add_argument("--out", type=Path, required=True, help="output CSV file")

    return parser


def _read_text(path: Path) -> str:
    if not path.is_file():
        raise ValueError(f"file not found: {path}")
    return path.read_text(encoding="utf-8-sig")  # a byte-order mark is not content


def _projected_points(args) -> tuple[np.ndarray, np.ndarray]:
    """The (N, 3) working-space points and the (N, 4) keypoint rows."""
    keypoints = geo.load_keypoints(_read_text(args.keypoints))
    proj = geo.Projection(args.scale) if args.projection == "scaled" else geo.Projection.raw()
    return geo.project(keypoints, proj), keypoints


def _write_all(out_dir: Path, files: dict[str, str]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        path = out_dir / name
        path.write_text(content, encoding="utf-8")
        print(f"wrote {path}")


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cmd_path_compare(args) -> int:
    if not 0.0 < args.tension <= 1.0:
        raise ValueError(
            f"--tension must be in (0, 1] for path compare, got {args.tension!r}: "
            "at tension 0 the catmull-rom tangent vanishes at every knot")
    pts, _ = _projected_points(args)
    if args.samples * (len(pts) - 1) > MAX_CURVE_SAMPLES:
        raise ValueError(f"--samples {args.samples} over {len(pts) - 1} segments exceeds the "
                         f"limit of {MAX_CURVE_SAMPLES} samples per curve")
    curves = [spline.PathCurve(kind, pts, args.tension) for kind in spline.KINDS]
    # Each curve is evaluated once; the figure and the smoothness share it.
    sampled = [curve.sample(args.samples) for curve in curves]
    svg = report.render_path_compare(curves, args.samples, [pos for pos, _ in sampled])
    entries = [(curve.kind, model, camera.smoothness(curve, model, args.samples, both))
               for curve, model, both in zip(curves, ("next_node", "tangent", "tangent"), sampled)]
    _write_all(args.out, {
        "compare.svg": svg,
        "smoothness.csv": report.smoothness_csv(entries),
    })
    return 0


def _cmd_sim_run(args) -> int:
    tension = spline.check_tension(args.tension)
    pts, keypoints = _projected_points(args)
    scene = sim.SceneSpec.from_json(_read_text(args.scene))
    profile = sim.SpeedProfile.from_keypoints(keypoints)
    kinds = [args.kind] if args.kind else list(spline.KINDS)

    files = {}
    for kind in kinds:
        result = sim.simulate(
            spline.PathCurve(kind, pts, tension), profile, scene, dt=args.dt, seed=args.seed,
            sigma=args.sigma, trigger_distance=args.trigger_distance,
        )
        doc = {"kind": kind, "dt": args.dt, "seed": args.seed, "sigma": args.sigma}
        doc.update(result.to_dict())
        files[f"sim_{kind}.json"] = _json_text(doc)
    _write_all(args.out, files)
    return 0


_SCATTER_AXES = {
    "enjoyment": "enjoyment score",
    "time_s": "time used in roaming (s)",
    "collisions": "number of collisions",
    "accuracy": "accuracy with the UI rays",
}


def _cmd_study_analyze(args) -> int:
    study = stats.load_study(_read_text(args.study))
    rep = stats.analyze_study(study, alpha=args.alpha, seed=args.seed,
                              replicates=args.replicates)
    engagement = np.array(study["engagement"], dtype=float)
    files = {"stats_report.json": _json_text(rep.to_dict())}
    for var, label in _SCATTER_AXES.items():
        values = np.array(study[var], dtype=float)
        fit = stats.linear_fit_with_band(engagement, values)
        files[f"scatter_engagement_vs_{var}.svg"] = report.render_scatter_band(
            engagement, values, fit, x_label="engagement score", y_label=label,
        )
    _write_all(args.out, files)
    return 0


def _cmd_study_synth(args) -> int:
    if args.n > MAX_STUDY_SIZE:
        raise ValueError(f"--n {args.n} exceeds the limit of {MAX_STUDY_SIZE} participants")
    content = stats.serialize_study(stats.synthesize_study(n=args.n, seed=args.seed))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(content, encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        ("path", "compare"): _cmd_path_compare,
        ("sim", "run"): _cmd_sim_run,
        ("study", "analyze"): _cmd_study_analyze,
        ("study", "synth"): _cmd_study_synth,
    }
    handler = handlers[(args.command, args.subcommand)]
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
