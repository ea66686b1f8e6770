"""SHA-256 fingerprints of CLI runs beyond the golden directories.

The golden directories pin the bundled files at one setting each.  This
matrix pins `study analyze` at other seeds and replicate counts and on the
seeded study tables of the benchmark's dense_scene workload, `path compare`
on the demo route plain and scaled, and `sim run` per curve kind with the
benchmark's arguments on the demo files and on dense_scene 2101.  Each run
is pinned by its exit code and the SHA-256 of stdout, stderr and every
output file.  The hashes depend on numpy's generator and sort, and on the
platform's math library (math.erf, math.erfc), so the versions that made
them are recorded and named in any failure.

After a change that moves a hash on purpose, regenerate the file from the
repository root with

    PYTHONPATH=src python tests/test_fingerprints.py

and list every moved hash, old -> new, with its reason.
"""

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from searoam.cli import main

from conftest import DATA_DIR, GOLDEN_DIR

FINGERPRINTS = GOLDEN_DIR / "fingerprints.json"
BENCH_INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"

# The input files of a source: "bundled" is data/, "dense_scene <seed>" the
# files that bench/inputs.py's dense_scene(seed) writes.
BUNDLED = {"route": "demo_route.csv", "sim_route": "demo_route_speeds.csv",
           "scene": "demo_scene.json", "study": "synthetic_study.csv"}
DENSE = {"route": "route.csv", "sim_route": "route.csv",
         "scene": "scene.json", "study": "study.csv"}
# The benchmark's sim run arguments (bench/workloads.py).
DEMO_SIM = ["--dt", "0.005", "--seed", "11", "--sigma", "0.1"]
DENSE_SIM = ["--dt", "0.05", "--seed", "2101", "--sigma", "0.05"]
KINDS = ("polyline", "bezier", "catmull_rom")
COMPARE = ["path", "compare", "{route}"]
SIM = ["sim", "run", "{sim_route}", "{scene}"]
ANALYZE = ["study", "analyze", "{study}"]

# name -> (source, arguments before --out, with input files in braces).
STUDY_RUNS = {
    "bundled seed 0": ("bundled", [*ANALYZE, "--seed", "0"]),
    "bundled seed 1": ("bundled", [*ANALYZE, "--seed", "1"]),
    "bundled seed 7": ("bundled", [*ANALYZE, "--seed", "7"]),
    "bundled replicates 1": ("bundled", [*ANALYZE, "--replicates", "1"]),
    "bundled replicates 200": ("bundled", [*ANALYZE, "--replicates", "200"]),
    **{f"dense_scene {seed}": (f"dense_scene {seed}", ANALYZE) for seed in range(2101, 2107)},
    "bundled replicates 0 (exit 1)": ("bundled", [*ANALYZE, "--replicates", "0"]),
}
ROUTE_RUNS = {
    "compare bundled": ("bundled", COMPARE),
    "compare bundled scaled": ("bundled", [*COMPARE, "--projection", "scaled", "--scale",
                                           "1", "1", "0.001", "--tension", "0.7"]),
    **{f"sim bundled {kind}": ("bundled", [*SIM, "--kind", kind, *DEMO_SIM]) for kind in KINDS},
    **{f"sim dense_scene 2101 {kind}": ("dense_scene 2101", [*SIM, "--kind", kind, *DENSE_SIM])
       for kind in KINDS},
    "compare bundled samples 15 (exit 1)": ("bundled", [*COMPARE, "--samples", "15"]),
    "sim bundled sigma -1 (exit 1)": ("bundled", [*SIM, "--sigma", "-1"]),
}
RUNS = {**STUDY_RUNS, **ROUTE_RUNS}


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@functools.cache
def dense_scene(seed: int) -> dict[str, str]:
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.dense_scene(seed)


def input_paths(source: str, work: Path) -> dict[str, str]:
    if source == "bundled":
        return {key: str(DATA_DIR / name) for key, name in BUNDLED.items()}
    for name, text in dense_scene(int(source.split()[1])).items():
        (work / name).write_text(text, encoding="utf-8")
    return {key: str(work / name) for key, name in DENSE.items()}


def fingerprint(name: str, work: Path) -> dict:
    """Run one matrix entry in process; work is an empty scratch directory."""
    source, args = RUNS[name]
    paths = input_paths(source, work)
    out = work / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([arg.format(**paths) for arg in args] + ["--out", str(out)])
    files = sorted(out.iterdir()) if out.exists() else []
    return {
        "exit": code,
        # Output paths are the scratch directory's, so they are written relative to it.
        "stdout": sha256(stdout.getvalue().replace(str(work), "WORK").encode()),
        "stderr": sha256(stderr.getvalue().replace(str(work), "WORK").encode()),
        "files": {p.name: sha256(p.read_bytes()) for p in files},
    }


def check(name: str, work: Path) -> None:
    recorded = json.loads(FINGERPRINTS.read_text())
    assert fingerprint(name, work) == recorded["runs"][name], (
        f"recorded with {recorded['versions']}, running with {versions()}")


def test_matrix_is_recorded():
    assert set(json.loads(FINGERPRINTS.read_text())["runs"]) == set(RUNS)


@pytest.mark.parametrize("name", STUDY_RUNS)
def test_study_analyze_fingerprint(name, tmp_path):
    check(name, tmp_path)


@pytest.mark.parametrize("name", ROUTE_RUNS)
def test_path_compare_and_sim_run_fingerprint(name, tmp_path):
    check(name, tmp_path)


if __name__ == "__main__":
    runs = {}
    for name in RUNS:
        with tempfile.TemporaryDirectory() as work:
            runs[name] = fingerprint(name, Path(work))
    doc = {"versions": versions(), "runs": runs}
    FINGERPRINTS.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {FINGERPRINTS}")
