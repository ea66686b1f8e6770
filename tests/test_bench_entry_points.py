"""The benchmark in bench/ still reaches the program through the names it uses.

bench/ wraps public functions by name (tracing.targets) and calls library
functions directly (run.Probes); a renamed function or a moved argument
would otherwise first show up as a failed benchmark run.
"""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    """Import a module of bench/ by name."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module


def test_traced_functions_resolve(bench):
    tracing = bench("tracing")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.targets()
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_probes_run_on_demo_workload(bench, tmp_path):
    workload = bench("workloads").build("demo", 1, BENCH.parent, tmp_path)
    tracer = bench("tracing").Tracer()
    bench("run").Probes(workload).run(tracer, 1)
    names = [span.name for span in tracer.spans]
    assert names == ["probe.sample_trajectory", "probe.traverse"] * 3
    assert all(span.counts["steps"] > 0 for span in tracer.spans
               if span.name == "probe.sample_trajectory")
