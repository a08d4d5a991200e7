"""Shared pieces of the benchmark: failure accounting, percentiles,
memory high-water marks and provenance."""

from __future__ import annotations

import importlib.util
import os
import platform
import resource
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Outcome:
    """Operations attempted and failed; each failure keeps a reason."""

    attempted: int = 0
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.problems)

    def fail(self, reason: str) -> None:
        self.problems.append(reason)


def percentile(sorted_values: list) -> tuple[float, str]:
    """The highest of p99, p95, p90, p75 and p50 that has at least ten
    samples beyond it (nearest rank), with its label."""
    n = len(sorted_values)
    for q in (0.99, 0.95, 0.90, 0.75, 0.50):
        if n - int(q * n) - 1 >= 10:
            return sorted_values[int(q * n)], f"p{round(q * 100)}"
    return sorted_values[n // 2], "p50"


def peak_rss_mb(children: bool = False) -> float:
    """ru_maxrss of this process, or of its largest finished child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _git_sha() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree
    of its own."""
    try:
        res = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def provenance(load_1min: float) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "loadavg_1min_at_start": load_1min,
        "machine": platform.machine(),
    }
