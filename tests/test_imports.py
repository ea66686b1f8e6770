"""Which heavy modules `import searoam` and the CLI commands load.

Each check runs in a fresh interpreter, because this test process has
long since imported scipy.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import searoam

from conftest import DATA_DIR

SRC = Path(searoam.__file__).resolve().parent.parent

CHILD = """
import contextlib, io, json, sys

def loaded(prefixes, modules):
    return sorted(m for m in modules if m.startswith(prefixes))

heavy = ("scipy", "xml.sax", "urllib")
before = set(sys.modules)
import searoam
from searoam.cli import main
report = {"import": loaded(heavy, set(sys.modules) - before)}
data, out = sys.argv[1], sys.argv[2]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["path", "compare", data + "/demo_route.csv", "--out", out + "/compare"]),
        main(["sim", "run", data + "/demo_route_speeds.csv", data + "/demo_scene.json",
              "--out", out + "/sim"]),
    ]
    report["path_sim"] = loaded(("scipy",), sys.modules)
    codes.append(main(["study", "analyze", data + "/synthetic_study.csv",
                       "--replicates", "200", "--out", out + "/study"]))
report["study"] = loaded(("scipy",), sys.modules)
report["codes"] = codes
print(json.dumps(report))
"""


def test_scipy_is_loaded_only_by_study_analyze(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(DATA_DIR), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0, 0, 0]
    assert report["import"] == []  # no scipy*, xml.sax* or urllib* module
    assert report["path_sim"] == []
    assert "scipy.special" in report["study"]  # the lazy import does run


def test_all_names_resolve():
    missing = [name for name in searoam.__all__ if not hasattr(searoam, name)]
    assert missing == []


def test_readme_library_table_names_exist():
    """Every backticked name in the README's library table is in its module."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(searoam\.\w+)` *\|(.*)\|$", readme, flags=re.MULTILINE)
    assert len(rows) == 7
    missing = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for name in re.findall(r"`([^`]+)`", contents):
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if obj is None:
                missing.append(f"{module_name}: {name}")
    assert missing == []
