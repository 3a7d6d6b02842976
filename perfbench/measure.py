"""Small measuring helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(len(ordered) * q)))
    return ordered[rank - 1]


def mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children(pid: int) -> List[int]:
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(child) for child in fh.read().split())
        except OSError:
            continue
    return out


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak RSS (``VmHWM``) of ``pid`` and its descendants."""
    total_kb = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
        pending.extend(_children(current))
    return total_kb / 1024.0


def source_digest(root: Path) -> str:
    """sha1 over ``src/**/*.py`` -- names the code when git cannot."""
    digest = hashlib.sha1()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def host(root: Path) -> Dict:
    return {
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpus_online": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "commit": commit(root),
        "source_sha1": source_digest(root),
    }


def counter_delta(before: Dict[str, int], after: Dict[str, int],
                  prefixes: Iterable[str]) -> Dict[str, int]:
    """Counters under ``prefixes`` that moved between two snapshots."""
    prefixes = tuple(prefixes)
    out = {}
    for name in sorted(set(before) | set(after)):
        if name.startswith(prefixes):
            moved = after.get(name, 0) - before.get(name, 0)
            if moved:
                out[name] = moved
    return out
