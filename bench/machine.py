"""Machine and provenance facts recorded with every benchmark result."""

from __future__ import annotations

import os
import platform
from pathlib import Path

# What the benchmark does not control; later comparisons must allow for it.
LIMITS = {
    "cache_dropping": "none; the OS page cache is left as it is",
    "cpu_pinning": "none; the scheduler places the process",
    "machine": "shared with other tenants, whose load shows in wall times",
    "clients": "one process, one closed-loop client, no threads or worker processes",
}


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def cpu_facts() -> dict:
    model = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level in ("2", "3") and kind == "Unified":
            caches[f"l{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_cache": caches.get("l2"),
        "l3_cache": caches.get("l3"),
        "platform": platform.platform(),
    }


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    head = _read(git / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(git / ref)
    if commit is not None:
        return commit
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def src_lines(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py"))


def provenance(root: Path) -> dict:
    import numpy
    import scipy

    import searoam

    return {
        **cpu_facts(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "searoam": searoam.__version__,
        "git_commit": git_commit(root),
        "src_lines": src_lines(root / "src"),
        "limits": LIMITS,
    }
