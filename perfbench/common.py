"""Helpers shared by ``run.py`` and the processes it starts."""

from __future__ import annotations

import math
import os
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

#: The checkout root: this file lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a valid result (exit non-zero)."""


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_environment() -> Dict[str, str]:
    """Environment for child processes: checkout source first on the path."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in environment.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return environment


def seeds_from(text: str) -> List[int]:
    """``"1-10"`` or ``"1,4,7"`` as a list of seeds."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def tail_percentile(samples: Sequence[float]) -> tuple:
    """``(label, value)``: the highest percentile with >= 10 samples beyond it.

    That is the ``1 - 10/N`` quantile (nearest rank) of ``N`` samples, so
    a run with 1000 samples reports p99.  Needs at least 20 samples.
    """
    count = len(samples)
    if count < 20:
        raise BenchmarkError(f"{count} samples are too few for a tail percentile")
    fraction = 1.0 - 10.0 / count
    return f"p{100.0 * fraction:.4g}", percentile(samples, fraction)


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples``."""
    ordered = sorted(samples)
    return ordered[max(0, min(len(ordered) - 1, math.ceil(len(ordered) * fraction) - 1))]


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for pid {pid}")


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
