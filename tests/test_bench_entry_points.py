"""The benchmark in bench/ still reaches the program through the names it uses.

bench/ wraps public functions by name (tracing.targets) and calls library
functions directly (run.Probes); a renamed function or a moved argument
would otherwise first show up as a failed benchmark run.
"""

import importlib
import json
import math
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


def test_traced_pass_gives_every_layer_metric(bench, tmp_path):
    # One traced pass as `bench/run.py --trace 1` makes it: the count
    # functions read call arguments (the scene of run_ray_task, the samples
    # of smoothness), which Probes alone does not reach.
    run, tracing = bench("run"), bench("tracing")
    workload = bench("workloads").build("demo", 1, BENCH.parent, tmp_path)
    runner = run.Runner(workload, tmp_path)
    probes = run.Probes(workload)
    tracer = tracing.Tracer()
    with tracer.install():
        runner.run_pass(1, tracer=tracer)
        probes.run(tracer, 1)
    assert runner.failed == 0, runner.failures
    metrics = run.layer_metrics(tracer.spans, sum(runner.out_bytes.values()),
                                len(probes.scene.obstacles))
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    # Set-up, line count and overhead come from outside the traced pass.
    names = [m["name"] for m in declared if not m["name"].startswith("setup.")
             and m["name"] not in ("src.lines", "trace.overhead_share")]
    assert [n for n in names if not math.isfinite(metrics.get(n, math.nan))] == []
