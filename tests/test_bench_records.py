"""Every BENCH_*.json at the repository root is a complete benchmark record.

A performance change records its alternating parent/change runs of
bench/run.py in one such file.  This test keeps the format: the command
run, the src/ line count before and after, and for each workload its seeds
and failed operations and, for every end-to-end metric in BENCHMARK.json,
each side's runs with their median and quartiles and the pairs the change
won.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
MIN_PAIRS = 10


def test_a_record_exists():
    assert RECORDS


def quartiles(runs):
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return q1, statistics.median(runs), q3


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_fields(path):
    record = json.loads(path.read_text())
    assert isinstance(record["command"], str) and "bench/run.py" in record["command"]
    assert all(isinstance(record["src_lines"][side], int) for side in ("before", "after"))
    assert record["workloads"]
    for name, workload in record["workloads"].items():
        assert len(workload["seeds"]) >= MIN_PAIRS, name
        assert all(isinstance(workload["failed"][side], int) for side in ("parent", "change"))
        for metric in END_TO_END:
            entry = workload["metrics"][metric]
            assert entry["better"] in ("lower", "higher")
            pairs = entry["pairs"]
            assert pairs >= MIN_PAIRS and 0 <= entry["wins"] <= pairs, (name, metric)
            for side in ("parent", "change"):
                stats = entry[side]
                assert len(stats["runs"]) == pairs, (name, metric, side)
                assert [stats["q1"], stats["median"], stats["q3"]] == pytest.approx(
                    quartiles(stats["runs"])), (name, metric, side)
            better = (lambda c, p: c < p) if entry["better"] == "lower" else (lambda c, p: c > p)
            wins = sum(better(c, p) for c, p in zip(entry["change"]["runs"], entry["parent"]["runs"]))
            assert entry["wins"] == wins, (name, metric)


def by_number(records):
    return sorted(records, key=lambda p: int(p.stem.split("_")[1]))


def test_latest_record_counts_the_current_source():
    # The highest-numbered record is the last change's: its size is today's.
    latest = by_number(RECORDS)[-1]
    lines = sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "searoam").glob("*.py"))
    assert json.loads(latest.read_text())["src_lines"]["after"] == lines, latest.name


def test_latest_record_starts_where_the_previous_one_ended():
    previous, latest = (json.loads(p.read_text())["src_lines"] for p in by_number(RECORDS)[-2:])
    assert latest["before"] == previous["after"]
