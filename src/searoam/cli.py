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
import json
import sys
from pathlib import Path

import numpy as np

from . import camera, geo, report, sim, spline, stats


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="searoam",
        description="Waypoint trajectory engine: path comparison, roaming simulation, study statistics.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    p_path = top.add_parser("path", help="path curve tools")
    path_sub = p_path.add_subparsers(dest="subcommand", required=True)
    p_compare = path_sub.add_parser("compare", help="compare polyline, bezier and catmull-rom paths")
    p_compare.add_argument("keypoints", type=Path, help="keypoint CSV file")
    p_compare.add_argument("--tension", type=float, default=spline.DEFAULT_TENSION)
    p_compare.add_argument("--samples", type=int, default=64, help="curve samples per segment")
    p_compare.add_argument("--projection", choices=["raw", "scaled"], default="raw")
    p_compare.add_argument("--scale", type=float, nargs=3, default=[1.0, 1.0, 1.0],
                           metavar=("SX", "SY", "SZ"))
    p_compare.add_argument("--out", type=Path, required=True, help="output directory")

    p_sim = top.add_parser("sim", help="roaming simulation")
    sim_sub = p_sim.add_subparsers(dest="subcommand", required=True)
    p_run = sim_sub.add_parser("run", help="simulate roaming along the path")
    p_run.add_argument("keypoints", type=Path, help="keypoint CSV file")
    p_run.add_argument("scene", type=Path, help="scene JSON file")
    p_run.add_argument("--kind", choices=list(spline.KINDS),
                       help="simulate only this curve kind (default: all three)")
    p_run.add_argument("--tension", type=float, default=spline.DEFAULT_TENSION)
    p_run.add_argument("--dt", type=float, default=0.1, help="time step in seconds")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--sigma", type=float, default=0.0, help="aim noise (radians)")
    p_run.add_argument("--trigger-distance", type=float, default=None,
                       help="ray trigger distance (default: 3x target radius)")
    p_run.add_argument("--projection", choices=["raw", "scaled"], default="raw")
    p_run.add_argument("--scale", type=float, nargs=3, default=[1.0, 1.0, 1.0],
                       metavar=("SX", "SY", "SZ"))
    p_run.add_argument("--out", type=Path, required=True, help="output directory")

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
    return path.read_text(encoding="utf-8")


def _projected_points(args) -> tuple[np.ndarray, list[geo.KeyPoint]]:
    keypoints = geo.load_keypoints(_read_text(args.keypoints))
    proj = geo.Projection(args.scale) if args.projection == "scaled" else geo.Projection.raw()
    return np.array([geo.project(kp, proj) for kp in keypoints]), keypoints


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
    curves = [spline.PathCurve(kind, pts, args.tension) for kind in spline.KINDS]
    svg = report.render_path_compare(curves, args.samples)
    entries = [(curve.kind, model, camera.smoothness(curve, model, args.samples))
               for curve, model in zip(curves, ("next_node", "tangent", "tangent"))]
    _write_all(args.out, {
        "compare.svg": svg,
        "smoothness.csv": report.smoothness_csv(entries),
    })
    return 0


def _cmd_sim_run(args) -> int:
    pts, keypoints = _projected_points(args)
    scene = sim.SceneSpec.from_json(_read_text(args.scene))
    profile = sim.SpeedProfile.from_keypoints(keypoints)
    kinds = [args.kind] if args.kind else list(spline.KINDS)

    files = {}
    for kind in kinds:
        result = sim.simulate(
            spline.PathCurve(kind, pts, args.tension), profile, scene, dt=args.dt, seed=args.seed,
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
    records = stats.load_study(_read_text(args.study))
    rep = stats.analyze_study(records, alpha=args.alpha, seed=args.seed,
                              replicates=args.replicates)
    engagement = np.array([r.engagement for r in records], dtype=float)
    files = {"stats_report.json": _json_text(rep.to_dict())}
    for var, label in _SCATTER_AXES.items():
        values = np.array([getattr(r, var) for r in records], dtype=float)
        fit = stats.linear_fit_with_band(engagement, values)
        files[f"scatter_engagement_vs_{var}.svg"] = report.render_scatter_band(
            engagement, values, fit, x_label="engagement score", y_label=label,
        )
    _write_all(args.out, files)
    return 0


def _cmd_study_synth(args) -> int:
    records = stats.synthesize_study(n=args.n, seed=args.seed)
    content = stats.serialize_study(records)
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
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
