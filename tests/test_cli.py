import csv
import json
import time
from pathlib import Path

import pytest

from searoam.cli import main

from conftest import DATA_DIR, GOLDEN_DIR

ROUTE = DATA_DIR / "demo_route.csv"
ROUTE_SPEEDS = DATA_DIR / "demo_route_speeds.csv"
SCENE = DATA_DIR / "demo_scene.json"
STUDY = DATA_DIR / "synthetic_study.csv"


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


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


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_path_compare_overflowing_keypoints(tmp_path, capsys):
    route = tmp_path / "huge.csv"
    route.write_text("longitude,latitude,height\n" + "\n".join(HUGE_ROWS) + "\n")
    out = tmp_path / "out"
    assert main(["path", "compare", str(route), "--out", str(out)]) == 1
    assert "error: view direction length overflows" in capsys.readouterr().err
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


def test_path_compare_malformed_row_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("longitude,latitude,height\n1,2,3\n4,5,6\nabc,8,9\n")
    assert main(["path", "compare", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "row 3" in capsys.readouterr().err


def test_path_compare_scaled_projection(tmp_path):
    out = tmp_path / "out"
    code = main([
        "path", "compare", str(ROUTE), "--projection", "scaled",
        "--scale", "1", "1", "0.001", "--out", str(out),
    ])
    assert code == 0
    assert (out / "compare.svg").exists()


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
], ids=["not_json", "missing_radius", "string_radius", "obstacles_object"])
def test_sim_run_bad_scene_json(tmp_path, capsys, text, message):
    scene = tmp_path / "scene.json"
    scene.write_text(text)
    out = tmp_path / "out"
    code = main(["sim", "run", str(ROUTE_SPEEDS), str(scene), "--out", str(out)])
    assert code == 1
    assert message in capsys.readouterr().err
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


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_sim_run_overflowing_keypoints(tmp_path, capsys):
    route = tmp_path / "huge.csv"
    route.write_text("longitude,latitude,height,speed\n"
                     + "".join(row + ",1\n" for row in HUGE_ROWS))
    out = tmp_path / "out"
    assert main(["sim", "run", str(route), str(SCENE), "--out", str(out)]) == 1
    assert "error: path length overflows" in capsys.readouterr().err
    assert not out.exists()


def test_sim_run_readme_command_matches_golden(tmp_path):
    out = tmp_path / "sim"
    code = main(["sim", "run", str(ROUTE_SPEEDS), str(SCENE), "--dt", "0.005",
                 "--seed", "11", "--sigma", "0.1", "--out", str(out)])
    assert code == 0
    assert read_outputs(out) == read_outputs(GOLDEN_DIR / "sim_readme")


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


# --- study synth ---------------------------------------------------------------

def test_study_synth_reproduces_bundled_dataset(tmp_path):
    out = tmp_path / "synth.csv"
    assert main(["study", "synth", "--out", str(out)]) == 0
    assert out.read_bytes() == STUDY.read_bytes()


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
