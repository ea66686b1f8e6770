import csv
import json
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from searoam import spline
from searoam.cli import MAX_CURVE_SAMPLES, MAX_STUDY_SIZE, build_parser, main
from searoam.spline import PathCurve

from conftest import DATA_DIR, GOLDEN_DIR

ROUTE = DATA_DIR / "demo_route.csv"
ROUTE_SPEEDS = DATA_DIR / "demo_route_speeds.csv"
SCENE = DATA_DIR / "demo_scene.json"
STUDY = DATA_DIR / "synthetic_study.csv"


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


# path compare and sim run share their route options through one parent parser.
ROUTE_DEFAULTS = {"keypoints": Path("r.csv"), "tension": spline.DEFAULT_TENSION,
                  "projection": "raw", "scale": (1.0, 1.0, 1.0), "out": Path("o")}
ROUTE_GIVEN = {"keypoints": Path("r.csv"), "tension": 0.25, "projection": "scaled",
               "scale": [1.0, 2.0, 3.0], "out": Path("o")}
ROUTE_ARGS = ["--tension", "0.25", "--projection", "scaled", "--scale", "1", "2", "3"]
SIM_DEFAULTS = {"command": "sim", "subcommand": "run", "scene": Path("s.json"), "kind": None,
                "dt": 0.1, "seed": 0, "sigma": 0.0, "trigger_distance": None}


@pytest.mark.parametrize("argv, expected", [
    (["path", "compare", "r.csv", "--out", "o"],
     {"command": "path", "subcommand": "compare", "samples": 64, **ROUTE_DEFAULTS}),
    (["path", "compare", "r.csv", *ROUTE_ARGS, "--out", "o"],
     {"command": "path", "subcommand": "compare", "samples": 64, **ROUTE_GIVEN}),
    (["sim", "run", "r.csv", "s.json", "--out", "o"], {**SIM_DEFAULTS, **ROUTE_DEFAULTS}),
    (["sim", "run", "r.csv", "s.json", *ROUTE_ARGS, "--out", "o"], {**SIM_DEFAULTS, **ROUTE_GIVEN}),
], ids=["compare_defaults", "compare_route_options", "sim_defaults", "sim_route_options"])
def test_route_options_parse_alike(argv, expected):
    assert vars(build_parser().parse_args(argv)) == expected


@pytest.mark.parametrize("argv, plain", [
    (["path", "compare", str(ROUTE)], ROUTE),
    (["sim", "run", str(ROUTE_SPEEDS), str(SCENE), "--dt", "0.05"], SCENE),
    (["study", "analyze", str(STUDY), "--replicates", "200"], STUDY),
], ids=["route", "scene", "study"])
def test_byte_order_mark_is_not_content(tmp_path, argv, plain):
    # Spreadsheet programs that save "CSV UTF-8" start the file with U+FEFF.
    marked = tmp_path / plain.name
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
    argv = [str(marked) if arg == str(plain) else arg for arg in argv]
    assert main(argv + ["--out", str(tmp_path / "marked")]) == 0
    assert read_outputs(tmp_path / "marked") == read_outputs(tmp_path / "plain")


# --- path compare -----------------------------------------------------------

def test_path_compare_writes_svg_and_smoothness(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["path", "compare", str(ROUTE), "--out", str(out)]) == 0
    files = read_outputs(out)
    assert set(files) == {"compare.svg", "smoothness.csv"}
    rows = list(csv.DictReader(files["smoothness.csv"].decode().splitlines()))
    by_kind = {row["kind"]: row for row in rows}
    assert float(by_kind["catmull_rom"]["max_angular_jump"]) < 1e-9
    assert float(by_kind["polyline"]["max_angular_jump"]) > 0.1


def test_path_compare_readme_command_matches_golden(tmp_path):
    out = tmp_path / "compare"
    assert main(["path", "compare", str(ROUTE), "--tension", "0.5", "--out", str(out)]) == 0
    files = read_outputs(out)
    assert files["smoothness.csv"] == (GOLDEN_DIR / "compare_demo" / "smoothness.csv").read_bytes()
    assert files["compare.svg"] == (GOLDEN_DIR / "compare_demo_route.svg").read_bytes()


# Finite keypoints whose squared distances overflow.
HUGE_ROWS = ["1e300,0,0", "-1e300,1,0", "1e300,2,5"]
# Finite keypoints whose differences overflow.
ZIGZAG_ROWS = ["1.5e308,0,0", "-1.5e308,1,0", "1.5e308,2,5"]


def main_without_warnings(argv) -> int:
    """main(argv), failing on any warning it emits (numpy overflow included)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    return code


@pytest.mark.parametrize("rows", [
    ["1e200,0,0", "-1e200,1e200,0", "1e200,2e200,5"],
    HUGE_ROWS,
])
def test_path_compare_huge_finite_keypoints(tmp_path, capsys, rows):
    route = tmp_path / "huge.csv"
    route.write_text("longitude,latitude,height\n" + "\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert main_without_warnings(["path", "compare", str(route), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in out.iterdir()) == ["compare.svg", "smoothness.csv"]


def test_path_compare_overflowing_keypoints(tmp_path, capsys):
    # Keypoint differences overflow, so the view directions do too.
    route = tmp_path / "huge.csv"
    route.write_text("longitude,latitude,height\n" + "\n".join(ZIGZAG_ROWS) + "\n")
    out = tmp_path / "out"
    assert main_without_warnings(["path", "compare", str(route), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: view direction length overflows (coordinates too large)\n")
    assert not out.exists()


def test_path_compare_missing_file(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["path", "compare", str(tmp_path / "nope.csv"), "--out", str(out)]) == 1
    assert "file not found" in capsys.readouterr().err
    assert not out.exists()  # no partial outputs


def test_path_compare_rejects_bad_tension(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["path", "compare", str(ROUTE), "--tension", "1.5", "--out", str(out)])
    assert code == 1
    assert "tension" in capsys.readouterr().err
    assert not out.exists()


def test_path_compare_rejects_zero_tension(tmp_path, capsys):
    # At tension 0 every catmull-rom knot tangent vanishes, so the tangent
    # view is undefined there; sim run still accepts it.
    out = tmp_path / "out"
    assert main_without_warnings(
        ["path", "compare", str(ROUTE), "--tension", "0", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "--tension" in err[0] and "tangent vanishes" in err[0]
    assert not out.exists()
    assert main(["sim", "run", str(ROUTE_SPEEDS), str(SCENE), "--kind", "catmull_rom",
                 "--tension", "0", "--out", str(out)]) == 0


def test_path_compare_malformed_row_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("longitude,latitude,height\n1,2,3\n4,5,6\nabc,8,9\n")
    assert main(["path", "compare", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "row 3" in capsys.readouterr().err
    bad.write_text("longitude,latitude,height\n1,2,3\n4,5\n")
    assert main(["path", "compare", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: row 2: expected 3 columns, got 2\n"
    assert not (tmp_path / "o").exists()


# One cell longer than the csv module's field limit of 131072 characters.
LONG_CELL = "1" * 200_000


def test_path_compare_cell_over_csv_field_limit(tmp_path, capsys):
    route = tmp_path / "long.csv"
    route.write_text(f"longitude,latitude,height\n1,2,3\n{LONG_CELL},5,6\n")
    out = tmp_path / "out"
    assert main_without_warnings(["path", "compare", str(route), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: keypoint file is not valid CSV: ")
    assert "field limit" in err[0]
    assert not out.exists()


def test_path_compare_scaled_projection(tmp_path):
    out = tmp_path / "out"
    code = main([
        "path", "compare", str(ROUTE), "--projection", "scaled",
        "--scale", "1", "1", "0.001", "--out", str(out),
    ])
    assert code == 0
    assert read_outputs(out) == read_outputs(GOLDEN_DIR / "compare_scaled")


CORRIDOR = GOLDEN_DIR / "compare_corridor"


def test_path_compare_corridor_matches_golden(tmp_path):
    # 12 keypoints: ten interior knots per kind (see generate.py there).
    out = tmp_path / "out"
    assert main(["path", "compare", str(CORRIDOR / "route.csv"), "--tension", "0.35",
                 "--out", str(out)]) == 0
    assert read_outputs(out) == {name: (CORRIDOR / name).read_bytes()
                                 for name in ("compare.svg", "smoothness.csv")}


def test_path_compare_evaluates_each_curve_once(tmp_path, monkeypatch):
    # One evaluation of the whole grid per curve feeds the figure, the
    # angular speeds and the knot corners: one positions and one tangents
    # pass for each kind, none per knot.
    calls = []

    def counting(original, name):
        def wrapper(curve, *args):
            calls.append((curve.kind, name))
            return original(curve, *args)
        return wrapper

    for name in ("positions", "tangents", "_evaluate"):
        monkeypatch.setattr(PathCurve, name, counting(getattr(PathCurve, name), name))
    assert main(["path", "compare", str(CORRIDOR / "route.csv"), "--out", str(tmp_path)]) == 0
    assert sorted(calls) == sorted((kind, name) for kind in spline.KINDS
                                   for name in ("positions", "tangents", "_evaluate", "_evaluate"))


@pytest.mark.parametrize("argv", [
    ["path", "compare", str(ROUTE)],
    ["sim", "run", str(ROUTE_SPEEDS), str(SCENE), "--dt", "0.01", "--seed", "3", "--sigma", "0.1"],
], ids=["path_compare", "sim_run"])
def test_unit_scale_and_ignored_scale_match_default(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path / "default")]) == 0
    expected = read_outputs(tmp_path / "default")
    unit = ["--projection", "scaled", "--scale", "1", "1", "1"]
    assert main(argv + unit + ["--out", str(tmp_path / "unit")]) == 0
    assert read_outputs(tmp_path / "unit") == expected
    # --scale alone leaves the raw projection, even with a factor it would refuse
    assert main(argv + ["--scale", "0", "5", "5", "--out", str(tmp_path / "raw")]) == 0
    assert read_outputs(tmp_path / "raw") == expected



def test_path_compare_route_on_one_latitude(tmp_path):
    # The latitudes span nothing, so the y range is widened by 1 each way
    # and every curve lies on the panels' middle line, y = 170 of 340.
    route = tmp_path / "flat.csv"
    route.write_text("longitude,latitude,height\n0,5,0\n1,5,0\n3,5,1\n4,5,0\n")
    out = tmp_path / "out"
    assert main_without_warnings(["path", "compare", str(route), "--out", str(out)]) == 0
    svg = (out / "compare.svg").read_text()
    assert "nan" not in svg and "inf" not in svg
    for kind in spline.KINDS:
        points = svg.split(f'id="curve-{kind}"')[1].split('points="')[1].split('"')[0]
        assert {pair.split(",")[1] for pair in points.split()} == {"170"}


# The view directions of these routes are tiny, not zero, but their squares
# underflow in spline._row_norms, as in test_sim_run_route_of_1e_300_takes_length_over_speed.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the squares of tiny view directions underflow to 0")
@pytest.mark.parametrize("args", [
    ["--tension", "1e-300"],
    ["--projection", "scaled", "--scale", "1e-300", "1e-300", "1e-300"],
], ids=["tension", "scale"])
def test_path_compare_tiny_route(tmp_path, args):
    assert main(["path", "compare", str(ROUTE), *args, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("samples", [MAX_CURVE_SAMPLES // 5 + 1, 10**12])
def test_path_compare_samples_beyond_limit(tmp_path, capsys, samples):
    # The demo route has 5 segments; the limit is checked before any curve
    # is evaluated, so neither value allocates.
    out = tmp_path / "out"
    start = time.perf_counter()
    code = main(["path", "compare", str(ROUTE), "--samples", str(samples), "--out", str(out)])
    assert code == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: --samples {samples} over 5 segments exceeds the limit of "
                   f"{MAX_CURVE_SAMPLES} samples per curve"]
    assert not out.exists()


@pytest.mark.parametrize("samples", [15, 0])
@pytest.mark.parametrize("route", [ROUTE, DATA_DIR / "missing.csv"], ids=["demo", "missing"])
def test_path_compare_samples_below_minimum(tmp_path, capsys, samples, route):
    # Checked with --tension, before the keypoints are read.
    out = tmp_path / "out"
    code = main(["path", "compare", str(route), "--samples", str(samples), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: --samples must be at least 16, got {samples}"]
    assert not out.exists()

# --- sim run -----------------------------------------------------------------

def test_sim_run_all_kinds(tmp_path):
    out = tmp_path / "sim"
    code = main([
        "sim", "run", str(ROUTE_SPEEDS), str(SCENE),
        "--dt", "0.005", "--seed", "11", "--out", str(out),
    ])
    assert code == 0
    files = read_outputs(out)
    assert set(files) == {"sim_polyline.json", "sim_bezier.json", "sim_catmull_rom.json"}
    results = {name: json.loads(body) for name, body in files.items()}
    assert results["sim_catmull_rom.json"]["collisions"] == 3
    assert results["sim_polyline.json"]["collisions"] == 2
    assert results["sim_bezier.json"]["collisions"] == 0
    for doc in results.values():
        assert doc["completed"] is True
        assert 0.0 <= doc["accuracy"] <= 1.0


def test_sim_run_single_kind_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = [
        "sim", "run", str(ROUTE_SPEEDS), str(SCENE), "--kind", "catmull_rom",
        "--dt", "0.005", "--seed", "7", "--sigma", "0.2",
    ]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert read_outputs(out_a) == read_outputs(out_b)


def test_sim_run_after_sim_run_with_kind_matches_fresh_runs(tmp_path):
    # The parser is built once per process: a run with --kind followed by
    # one without it writes what the two would write in fresh processes.
    args = ["sim", "run", str(ROUTE_SPEEDS), str(SCENE), "--dt", "0.05", "--sigma", "0.2"]
    runs = {}
    for fresh in (False, True):
        for name, extra in (("bezier", ["--kind", "bezier"]), ("all", [])):
            if fresh:
                build_parser.cache_clear()
            out = tmp_path / f"{name}-{fresh}"
            assert main(args + extra + ["--out", str(out)]) == 0
            runs[name, fresh] = read_outputs(out)
    assert len(runs["all", False]) == 3
    assert runs["bezier", False] == runs["bezier", True]
    assert runs["all", False] == runs["all", True]


def test_sim_run_origin_on_a_target_center(tmp_path):
    # The demo route starts on this target's center; the attempt fired
    # there aims along +x, and only other targets could block it.
    scene = tmp_path / "scene.json"
    scene.write_text('{"targets": [{"id": "s", "center": [121.47, 31.23, 10000], "radius": 5}]}')
    out = tmp_path / "out"
    assert main(["sim", "run", str(ROUTE_SPEEDS), str(scene), "--kind", "polyline",
                 "--sigma", "0.1", "--out", str(out)]) == 0
    assert json.loads((out / "sim_polyline.json").read_text())["ray_attempts"] >= 1


def test_sim_run_empty_scene(tmp_path):
    scene = tmp_path / "empty.json"
    scene.write_text('{"obstacles": [], "targets": []}')
    route = tmp_path / "route.csv"
    route.write_text("longitude,latitude,height,speed\n0,0,0,2\n10,0,0,2\n")
    out = tmp_path / "out"
    code = main(["sim", "run", str(route), str(scene), "--kind", "polyline",
                 "--dt", "0.01", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "sim_polyline.json").read_text())
    assert doc["collisions"] == 0
    assert doc["ray_attempts"] == 0
    assert doc["time_used"] == pytest.approx(5.0, abs=0.01)


@pytest.mark.parametrize("text, message", [
    ("{broken", "JSON"),
    ('{"obstacles": [{"center": [0, 0, 0]}]}', "obstacle 0: missing 'radius'"),
    ('{"obstacles": [{"center": [0, 0, 0], "radius": "3"}]}',
     "obstacle 0: sphere radius must be a number"),
    ('{"obstacles": {"center": [0, 0, 0], "radius": 3}}', "'obstacles' must be a list"),
    ('{"obstacles": [{"radius": 3}]}', "obstacle 0: missing 'center'"),
    ('{"targets": [{"center": [0, 0, 0], "radius": 3}]}', "target 0: missing 'id'"),
    ('{"obstacles": [{"center": [0, 0], "radius": 3}]}',
     "obstacle 0: sphere center must be three finite numbers"),
    ('{"targets": [{"id": "a", "center": [0, 0, NaN], "radius": 3}]}',
     "target 0: target center must be three finite numbers"),
    ('{"obstacles": [{"center": [0, 0, 0], "radius": -3.0}]}',
     "obstacle 0: sphere radius must be a number > 0"),
    ('{"obstacles": [{"center": [0, 0, 0], "radius": true}]}',
     "obstacle 0: sphere radius must be a number > 0"),
    # Deeper than the JSON decoder's recursion limit.
    ('{"obstacles": ' + "[" * 100_000 + "]" * 100_000 + "}", "scene JSON is nested too deeply"),
    ("[]", "scene JSON must be an object"),
    ('{"obstacles": [3]}', "obstacle 0: expected an object, got int"),
    ('{"agent_radius": -1}', "agent_radius must be >= 0, got -1.0"),
], ids=["not_json", "missing_radius", "string_radius", "obstacles_object", "missing_center",
        "missing_id", "short_center", "nan_center", "negative_radius", "bool_radius", "too_deep",
        "not_object", "entry_not_object", "negative_agent_radius"])
def test_sim_run_bad_scene_json(tmp_path, capsys, text, message):
    scene = tmp_path / "scene.json"
    scene.write_text(text)
    out = tmp_path / "out"
    code = main_without_warnings(["sim", "run", str(ROUTE_SPEEDS), str(scene), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not out.exists()


@pytest.mark.parametrize("arg, name", [
    ("--sigma=-1", "sigma"),
    ("--sigma=nan", "sigma"),
    ("--sigma=inf", "sigma"),
    ("--trigger-distance=-1", "trigger_distance"),
    ("--trigger-distance=0", "trigger_distance"),
    ("--trigger-distance=nan", "trigger_distance"),
])
def test_sim_run_rejects_bad_ray_args(tmp_path, capsys, arg, name):
    # a scene without targets: the rules hold whether or not rays are cast
    scene = tmp_path / "empty.json"
    scene.write_text('{"obstacles": [], "targets": []}')
    out = tmp_path / "out"
    code = main(["sim", "run", str(ROUTE_SPEEDS), str(scene), arg, "--out", str(out)])
    assert code == 1
    assert f"error: {name} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind_args, tension", [
    (["--kind", "polyline"], "5"),
    (["--kind", "bezier"], "nan"),
    (["--kind", "catmull_rom"], "-0.5"),
    ([], "5"),
])
def test_sim_run_rejects_bad_tension_for_every_kind(tmp_path, capsys, kind_args, tension):
    # The tension is checked once, whether or not a catmull-rom curve runs.
    out = tmp_path / "out"
    code = main(["sim", "run", str(ROUTE_SPEEDS), str(SCENE), *kind_args, "--tension", tension,
                 "--dt", "0.1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: tension must be in [0, 1], got {float(tension)!r}\n"
    assert not out.exists()


def test_sim_run_tiny_dt_hits_step_limit(tmp_path, capsys):
    out = tmp_path / "out"
    start = time.perf_counter()
    code = main(["sim", "run", str(ROUTE_SPEEDS), str(SCENE), "--dt", "1e-7",
                 "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 1
    assert "time steps" in capsys.readouterr().err
    assert elapsed < 1.0
    assert not out.exists()


def test_sim_run_table_interval_limit(tmp_path, capsys):
    # A 2000-keypoint random walk at tension 0, whose arc-length table needs
    # more new intervals at once than the limit allows.  The table is built
    # before the step estimate, so this limit, which no --dt lifts, is what a
    # --dt far too small for MAX_STEPS reports.
    walk = np.cumsum(np.random.default_rng(7).uniform(-1.0, 1.0, (2000, 3)), axis=0)
    walk[:, 2] -= walk[:, 2].min()  # heights >= 0
    route = tmp_path / "walk.csv"
    route.write_text("longitude,latitude,height,speed\n"
                     + "".join(f"{x!r},{y!r},{z!r},1\n" for x, y, z in walk.tolist()))
    scene = tmp_path / "empty.json"
    scene.write_text("{}")
    out = tmp_path / "out"
    start = time.perf_counter()
    code = main_without_warnings(["sim", "run", str(route), str(scene), "--kind", "catmull_rom",
                                  "--tension", "0", "--dt", "1e-6", "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the arc-length table needs more than "
                                               f"{spline.ARC_LENGTH_MAX_INTERVALS} new intervals")
    assert "fewer keypoints" in err[0] and "higher tension" in err[0]
    assert elapsed < 1.0
    assert not out.exists()


def test_sim_run_overflowing_keypoints(tmp_path, capsys):
    # Squared distances of HUGE_ROWS overflow, but its length does not.
    for rows, code in ((HUGE_ROWS, 0), (ZIGZAG_ROWS, 1)):
        route = tmp_path / "huge.csv"
        route.write_text("longitude,latitude,height,speed\n"
                         + "".join(row + ",1\n" for row in rows))
        out = tmp_path / f"out{code}"
        argv = ["sim", "run", str(route), str(SCENE), "--out", str(out)]
        assert main_without_warnings(argv) == code
        err = capsys.readouterr().err
        if code:
            assert err == "error: path length overflows (keypoint coordinates too large)\n"
            assert not out.exists()
        else:
            assert err == ""
            assert sorted(p.name for p in out.iterdir()) == [
                "sim_bezier.json", "sim_catmull_rom.json", "sim_polyline.json"]


def test_sim_run_refuses_overflowing_speed_line(tmp_path, capsys):
    # 12 collinear keypoints 10 apart (1 and 2 equal) at speed 1, except
    # 1.7e307 at keypoint 2: over a knot gap of 1/11 the speed line from
    # keypoint 1 overflows, which stalled the agent at the start until the
    # budget ran out.
    xs = [0, 10, 10, *range(20, 101, 10)]
    route = tmp_path / "steep.csv"
    route.write_text("longitude,latitude,height,speed\n" + "".join(
        f"{x},0,0,{1.7e307 if i == 2 else 1.0}\n" for i, x in enumerate(xs)))
    scene = tmp_path / "empty.json"
    scene.write_text('{"obstacles": [], "targets": []}')
    out = tmp_path / "out"
    argv = ["sim", "run", str(route), str(scene), "--kind", "polyline", "--out", str(out)]
    assert main_without_warnings(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: the speed line between keypoints 1 and 2 overflows (speeds 1 and 1.7e+307)"]
    assert not out.exists()


def scene_with(tmp_path, edit) -> Path:
    """The demo scene with edit(doc) applied, written to tmp_path."""
    doc = json.loads(SCENE.read_text())
    edit(doc)
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    return scene


# 401 digits: beyond the largest float, so float() raises OverflowError.
BEYOND_FLOAT = 10 ** 400


@pytest.mark.parametrize("edit", [
    lambda doc: doc["obstacles"][0].update(radius=BEYOND_FLOAT),
    lambda doc: doc["targets"][0].update(radius=BEYOND_FLOAT),
    lambda doc: doc["obstacles"][0].update(center=[BEYOND_FLOAT, 0, 0]),
    lambda doc: doc["targets"][0].update(center=[0, 0, -BEYOND_FLOAT]),
    lambda doc: doc.update(agent_radius=BEYOND_FLOAT),
    lambda doc: doc.update(energy_budget=BEYOND_FLOAT),
], ids=["obstacle_radius", "target_radius", "obstacle_center", "target_center",
        "agent_radius", "energy_budget"])
def test_sim_run_scene_integer_beyond_float(tmp_path, capsys, edit):
    out = tmp_path / "out"
    code = main_without_warnings(["sim", "run", str(ROUTE_SPEEDS), str(scene_with(tmp_path, edit)),
                                  "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_sim_run_integer_target_radius_equals_its_float(tmp_path):
    # 10**200 fits a float, but its square as an int does not, nor as a float.
    outputs = []
    for radius in (10 ** 200, 1e200):
        scene = scene_with(tmp_path, lambda doc: doc["targets"][1].update(radius=radius))
        out = tmp_path / f"out{len(outputs)}"
        assert main_without_warnings(
            ["sim", "run", str(ROUTE_SPEEDS), str(scene), "--out", str(out)]) == 0
        outputs.append(read_outputs(out))
    assert outputs[0] == outputs[1]


def test_sim_run_readme_command_matches_golden(tmp_path):
    out = tmp_path / "sim"
    code = main(["sim", "run", str(ROUTE_SPEEDS), str(SCENE), "--dt", "0.005",
                 "--seed", "11", "--sigma", "0.1", "--out", str(out)])
    assert code == 0
    assert read_outputs(out) == read_outputs(GOLDEN_DIR / "sim_readme")


@pytest.mark.parametrize("sigma", ["0", "0.05"])
def test_sim_run_spread_scene_matches_golden(tmp_path, sigma):
    # Spheres spread over the route's whole bounding box: the scene tests
    # skip most of them for most blocks of positions.
    golden = GOLDEN_DIR / "sim_spread"
    out = tmp_path / "sim"
    code = main(["sim", "run", str(golden / "route.csv"), str(golden / "scene.json"),
                 "--dt", "0.02", "--seed", "5", "--sigma", sigma, "--out", str(out)])
    assert code == 0
    assert read_outputs(out) == read_outputs(golden / f"sigma_{sigma}")



@pytest.mark.parametrize("argv", [
    ["sim", "run", str(ROUTE_SPEEDS), str(SCENE), "--dt", "0.05"],
    ["study", "analyze", str(STUDY)],
    ["study", "synth"],
], ids=["sim_run", "study_analyze", "study_synth"])
def test_negative_seed_is_rejected(tmp_path, capsys, argv):
    # sim run on the demo route fires no ray at the default sigma, so a
    # negative seed used to pass there unnoticed.
    out = tmp_path / "out"
    assert main(argv + ["--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not out.exists()


# Routes and targets between about 1e154 and 1e308, whose squares overflow.

def test_sim_run_route_of_1e200_completes(tmp_path):
    # The route of test_path_compare_huge_finite_keypoints, at speed 1e200.
    rows = ["1e200,0,0", "-1e200,1e200,0", "1e200,2e200,5"]
    route = tmp_path / "route.csv"
    route.write_text("longitude,latitude,height,speed\n"
                     + "".join(f"{row},1e200\n" for row in rows))
    scene = tmp_path / "scene.json"
    scene.write_text('{"obstacles": [], "targets": []}')
    out = tmp_path / "out"
    assert main_without_warnings(["sim", "run", str(route), str(scene), "--out", str(out)]) == 0
    points = [[float(v) for v in row.split(",")] for row in rows]
    for kind in ("polyline", "bezier", "catmull_rom"):
        doc = json.loads((out / f"sim_{kind}.json").read_text())
        expected = PathCurve(kind, points).arc_length() / 1e200
        assert doc["completed"] and doc["time_used"] == pytest.approx(expected, rel=1e-3)


# The squares of chords below about 1e-154 underflow, and _row_norms
# recomputes only the rows whose plain norm overflows.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a route of 1e-300 has arc length 0, so it completes at once")
def test_sim_run_route_of_1e_300_takes_length_over_speed(tmp_path):
    rows = ["1e-300,0,0", "-1e-300,1e-300,0", "1e-300,2e-300,5e-300"]
    route = tmp_path / "route.csv"
    route.write_text("longitude,latitude,height,speed\n"
                     + "".join(f"{row},1e-300\n" for row in rows))
    scene = tmp_path / "scene.json"
    scene.write_text('{"obstacles": [], "targets": []}')
    out = tmp_path / "out"
    assert main_without_warnings(["sim", "run", str(route), str(scene), "--out", str(out)]) == 0
    # The curves scale with their keypoints: length/speed is the arc length
    # of the same route at scale 1.
    points = [[float(v) * 1e300 for v in row.split(",")] for row in rows]
    for kind in ("polyline", "bezier", "catmull_rom"):
        doc = json.loads((out / f"sim_{kind}.json").read_text())
        expected = PathCurve(kind, points).arc_length()
        assert doc["completed"] and doc["time_used"] == pytest.approx(expected, rel=1e-3)


def test_sim_run_far_huge_target_gets_an_attempt(tmp_path):
    # The demo route starts well inside this target's 3e300 trigger zone.
    scene = tmp_path / "scene.json"
    scene.write_text('{"targets": [{"id": "far", "center": [1e300, 0, 0], "radius": 1e300}]}')
    out = tmp_path / "out"
    assert main_without_warnings(["sim", "run", str(ROUTE_SPEEDS), str(scene), "--kind",
                                  "polyline", "--sigma", "0.1", "--out", str(out)]) == 0
    assert json.loads((out / "sim_polyline.json").read_text())["ray_attempts"] == 1


@pytest.mark.parametrize("doc, counts", [
    # Reach 1.7e308 + 1.7e308 overflows to inf: every position is inside.
    ({"obstacles": [{"center": [0, 0, 0], "radius": 1.7e308}], "agent_radius": 1.7e308},
     {"collisions": 1, "ray_attempts": 0}),
    # Trigger zone 3 * 1e308 overflows to inf: the first position enters it.
    ({"targets": [{"id": "huge", "center": [0, 0, 0], "radius": 1e308}]},
     {"collisions": 0, "ray_attempts": 1, "ray_hits": 1}),
], ids=["obstacle_reach", "target_trigger"])
def test_sim_run_infinite_zone_has_no_warning(tmp_path, capsys, doc, counts):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main_without_warnings(["sim", "run", str(ROUTE_SPEEDS), str(scene), "--sigma", "0.1",
                                  "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    for kind in spline.KINDS:
        result = json.loads((out / f"sim_{kind}.json").read_text())
        assert {key: result[key] for key in counts} == counts

# --- study analyze -----------------------------------------------------------

def test_study_analyze_outputs(tmp_path):
    out = tmp_path / "study"
    code = main(["study", "analyze", str(STUDY), "--replicates", "2000",
                 "--out", str(out)])
    assert code == 0
    files = read_outputs(out)
    assert set(files) == {
        "stats_report.json",
        "scatter_engagement_vs_enjoyment.svg",
        "scatter_engagement_vs_time_s.svg",
        "scatter_engagement_vs_collisions.svg",
        "scatter_engagement_vs_accuracy.svg",
    }
    report = json.loads(files["stats_report.json"])
    corr = report["correlations"]
    assert corr["engagement_vs_enjoyment"]["r"] > 0.5
    assert corr["engagement_vs_time_s"]["r"] < -0.5
    assert corr["engagement_vs_collisions"]["r"] < -0.5
    assert corr["engagement_vs_accuracy"]["r"] > 0.5
    assert corr["engagement_vs_collisions"]["method"] == "spearman"


def test_study_analyze_default_command_matches_golden(tmp_path):
    out = tmp_path / "study"
    assert main(["study", "analyze", str(STUDY), "--out", str(out)]) == 0
    assert read_outputs(out) == read_outputs(GOLDEN_DIR / "study_demo")


def test_study_analyze_insufficient_sample(tmp_path, capsys):
    small = tmp_path / "small.csv"
    small.write_text(
        "participant,enjoyment,engagement,time_s,collisions,accuracy\n"
        "P1,20,18,200,2,0.8\n"
        "P2,21,19,210,1,0.9\n"
    )
    out = tmp_path / "out"
    assert main(["study", "analyze", str(small), "--out", str(out)]) == 1
    assert "insufficient sample" in capsys.readouterr().err
    assert not out.exists()


def test_study_analyze_constant_column_diagnostic(tmp_path, capsys):
    rows = ["participant,enjoyment,engagement,time_s,collisions,accuracy"]
    for i in range(8):
        rows.append(f"P{i},{15 + i % 5},18,{200 + i},{i % 3},0.{5 + i}")
    path = tmp_path / "const.csv"
    path.write_text("\n".join(rows) + "\n")
    assert main(["study", "analyze", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "engagement" in err and "zero variance" in err


def test_study_analyze_refuses_overflowing_column(tmp_path, capsys):
    # time_s near 1e200 passes the schema, but its squared deviations
    # overflow, so its normality D, its fit and its figure would be NaN.
    rows = ["participant,enjoyment,engagement,time_s,collisions,accuracy"]
    for i in range(12):
        rows.append(f"P{i},{15 + i % 5},{12 + i},{10 + i}e199,{i % 3},0.{5 + i % 4}")
    path = tmp_path / "huge.csv"
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert main_without_warnings(["study", "analyze", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: column 'time_s' ") and "overflows" in err[0]
    assert not out.exists()


def test_study_analyze_cell_over_csv_field_limit(tmp_path, capsys):
    study = tmp_path / "long.csv"
    study.write_text(STUDY.read_text() + f"{LONG_CELL},20,18,200,2,0.8\n")
    out = tmp_path / "out"
    assert main_without_warnings(["study", "analyze", str(study), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: study file is not valid CSV: ")
    assert "field limit" in err[0]
    assert not out.exists()


def test_study_analyze_worker_exception_reaches_main(tmp_path, capsys):
    # accuracy's squared deviations underflow, so its null's worker thread
    # raises DegenerateSampleError; main reports it and no thread outlives it.
    rows = ["participant,enjoyment,engagement,time_s,collisions,accuracy"]
    for i in range(12):
        rows.append(f"P{i},{15 + i % 5},{12 + i},{200 + 3 * i},{i % 3},{('0', '5e-324')[i % 2]}")
    path = tmp_path / "tiny.csv"
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    threads = threading.active_count()
    assert main(["study", "analyze", str(path), "--replicates", "200", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: normality test undefined for zero-variance sample\n"
    assert not out.exists()
    assert threading.active_count() == threads


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "2", "-1", "0", "1"])
def test_study_analyze_rejects_alpha_outside_unit_interval(tmp_path, capsys, alpha):
    out = tmp_path / "out"
    assert main(["study", "analyze", str(STUDY), f"--alpha={alpha}", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: alpha must be in (0, 1)")
    assert not out.exists()


def test_study_analyze_replicates_beyond_limit(tmp_path, capsys):
    out = tmp_path / "out"
    start = time.perf_counter()
    code = main(["study", "analyze", str(STUDY), "--replicates", "3000000000",
                 "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "replicates" in err[0]
    assert elapsed < 1.0
    assert not out.exists()


@pytest.mark.parametrize("replicates", ["0", "-3"])
def test_study_analyze_replicates_below_one(tmp_path, capsys, replicates):
    out = tmp_path / "out"
    assert main(["study", "analyze", str(STUDY), f"--replicates={replicates}",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: need at least 1 replicate, got {replicates}"]
    assert not out.exists()


# --- study synth ---------------------------------------------------------------

def test_study_synth_reproduces_bundled_dataset(tmp_path, capsys):
    out = tmp_path / "synth.csv"
    assert main(["study", "synth", "--out", str(out)]) == 0
    assert out.read_bytes() == STUDY.read_bytes()
    assert capsys.readouterr().out == f"wrote {out}\n"


def test_study_synth_custom_params(tmp_path):
    out = tmp_path / "synth.csv"
    assert main(["study", "synth", "--n", "10", "--seed", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 11


def test_synth_then_analyze_round_trip(tmp_path):
    synth = tmp_path / "s.csv"
    out = tmp_path / "report"
    assert main(["study", "synth", "--n", "40", "--seed", "8", "--out", str(synth)]) == 0
    assert main(["study", "analyze", str(synth), "--replicates", "1000",
                 "--out", str(out)]) == 0
    assert (out / "stats_report.json").exists()



@pytest.mark.parametrize("n", [MAX_STUDY_SIZE + 1, 10**12])
def test_study_synth_n_beyond_limit(tmp_path, capsys, n):
    out = tmp_path / "synth.csv"
    start = time.perf_counter()
    assert main(["study", "synth", "--n", str(n), "--out", str(out)]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        f"error: --n {n} exceeds the limit of {MAX_STUDY_SIZE} participants\n")
    assert not out.exists()


def test_study_synth_n_below_four(tmp_path, capsys):
    out = tmp_path / "synth.csv"
    assert main(["study", "synth", "--n", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: need at least 4 participants, got 3\n"
    assert not out.exists()
