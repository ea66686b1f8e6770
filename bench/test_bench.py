"""Tests of the benchmark itself, not of searoam.  From the repository root:

    python3 -m pytest bench -q

They stay out of the tier-1 suite, which collects only tests/.  The
subprocess tests run every workload briefly and take a few minutes.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    first = inputs.write_inputs(workload, 7, tmp_path / "a")
    again = inputs.write_inputs(workload, 7, tmp_path / "b")
    other = inputs.write_inputs(workload, 8, tmp_path / "c")
    for name in first:
        assert inputs.sha256(first[name]) == inputs.sha256(again[name])
    assert any(inputs.sha256(first[n]) != inputs.sha256(other[n]) for n in first)


def test_dense_scene_inputs_have_the_stated_sizes():
    files = inputs.dense_scene(3)
    scene = json.loads(files["scene.json"])
    assert len(files["route.csv"].splitlines()) == 12 + 1
    assert (len(scene["obstacles"]), len(scene["targets"])) == (1000, 500)


def test_metric_names_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_spec_lists_what_run_py_reports():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.NAMES


def _corrupt_svg(monkeypatch):
    from searoam import report

    original = report.render_path_compare
    monkeypatch.setattr(report, "render_path_compare", lambda *a, **k: original(*a, **k) + " ")


def _overcount_hits(monkeypatch):
    from searoam import sim

    original = sim.SimResult.to_dict

    def to_dict(self):
        doc = original(self)
        doc["ray_hits"] = doc["ray_attempts"] + 1
        return doc

    monkeypatch.setattr(sim.SimResult, "to_dict", to_dict)


@pytest.mark.parametrize("op, corrupt, message", [
    ("compare", _corrupt_svg, "golden"),
    ("sim", _overcount_hits, "ray_hits"),
])
def test_corrupted_output_counts_as_a_failure(op, corrupt, message, monkeypatch, tmp_path):
    run.load_program()
    runner = run.Runner(workloads.build("demo", 0, ROOT, tmp_path), tmp_path)
    runner.run(op, 1)
    assert (runner.attempted, runner.failed) == (1, 0)
    corrupt(monkeypatch)
    runner.run(op, 2)
    assert (runner.attempted, runner.failed) == (2, 1)
    assert message in runner.failures[0]
    assert "differ from the first pass" in runner.failures[0]


def _bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_each_workload_reports_exactly_its_metrics(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "demo", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
