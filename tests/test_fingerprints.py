"""SHA-256 fingerprints of `study analyze` runs beyond the study_demo golden.

The golden directories pin the bundled study at seed 0.  This matrix pins
the same command at other seeds and replicate counts, and on the seeded
study tables of the benchmark's dense_scene workload, by the exit code and
the SHA-256 of stdout, stderr and every output file.  The hashes depend on
numpy's generator and sort, and on scipy's special functions, so the
versions that made them are recorded and named in any failure.

After a change that moves a hash on purpose, regenerate the file from the
repository root with

    PYTHONPATH=src python tests/test_fingerprints.py

and list every moved hash, old -> new, with its reason.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from searoam.cli import main

from conftest import DATA_DIR, GOLDEN_DIR

FINGERPRINTS = GOLDEN_DIR / "fingerprints.json"
BENCH_INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"

# name -> (study table, arguments after it).  "dense_scene <seed>" is the
# study.csv that bench/inputs.py's dense_scene(seed) writes.
RUNS = {
    "bundled seed 0": ("bundled", ["--seed", "0"]),
    "bundled seed 1": ("bundled", ["--seed", "1"]),
    "bundled seed 7": ("bundled", ["--seed", "7"]),
    "bundled replicates 1": ("bundled", ["--replicates", "1"]),
    "bundled replicates 200": ("bundled", ["--replicates", "200"]),
    **{f"dense_scene {seed}": (f"dense_scene {seed}", []) for seed in range(2101, 2107)},
    "bundled replicates 0 (exit 1)": ("bundled", ["--replicates", "0"]),
}


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def study_table(source: str, work: Path) -> Path:
    if source == "bundled":
        return DATA_DIR / "synthetic_study.csv"
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    path = work / "study.csv"
    path.write_text(inputs.dense_scene(int(source.split()[1]))["study.csv"], encoding="utf-8")
    return path


def fingerprint(name: str, work: Path) -> dict:
    """Run one matrix entry in process; work is an empty scratch directory."""
    source, args = RUNS[name]
    out = work / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["study", "analyze", str(study_table(source, work)), *args,
                     "--out", str(out)])
    files = sorted(out.iterdir()) if out.exists() else []
    return {
        "exit": code,
        # Output paths are the scratch directory's, so they are written relative to it.
        "stdout": sha256(stdout.getvalue().replace(str(work), "WORK").encode()),
        "stderr": sha256(stderr.getvalue().replace(str(work), "WORK").encode()),
        "files": {p.name: sha256(p.read_bytes()) for p in files},
    }


def test_matrix_is_recorded():
    assert set(json.loads(FINGERPRINTS.read_text())["runs"]) == set(RUNS)


@pytest.mark.parametrize("name", RUNS)
def test_study_analyze_fingerprint(name, tmp_path):
    recorded = json.loads(FINGERPRINTS.read_text())
    assert fingerprint(name, tmp_path) == recorded["runs"][name], (
        f"recorded with {recorded['versions']}, running with {versions()}")


if __name__ == "__main__":
    runs = {}
    for name in RUNS:
        with tempfile.TemporaryDirectory() as work:
            runs[name] = fingerprint(name, Path(work))
    doc = {"versions": versions(), "runs": runs}
    FINGERPRINTS.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {FINGERPRINTS}")
