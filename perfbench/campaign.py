"""The two campaign workloads: cold ``campaign run`` of a figure grid.

``system-size-serial``: Figures 2-6 at the ``default`` preset (sides
256..16384, ``n = sqrt(l)``) with 2000 steps and 3 iterations, serial
in one process.  Mobile frames at n up to 128 dominate: the batched MST,
the union-find sweep and mobility.  ``fig4``-``fig6`` are cache hits on
the ``fig2``/``fig3`` sweeps.

``parameter-study-pooled``: Figures 7-9 at the ``default`` preset with
4 parameter points (12 rows at side 4096, n = 64) under
``--total-workers 2``.  Single-frame stationary MST calls dominate, every
row recomputes the same ``rstationary``, and equal tasks go through the
scheduler, supervision, the pool transport and worker store writes.

Each repetition is a fresh process on an empty store, so every run is
cold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import checks
from common import BENCH, BenchmarkError, child_environment

WORKLOADS: Dict[str, dict] = {
    "system-size-serial": {
        "experiments": ["fig2", "fig3", "fig4", "fig5", "fig6"],
        "overrides": {"steps": 2000, "iterations": 3},
        "total_workers": None,
        "rows": 8,
    },
    "parameter-study-pooled": {
        "experiments": ["fig7", "fig8", "fig9"],
        "overrides": {"parameter_points": 4},
        "total_workers": 2,
        "rows": 12,
    },
}
SETUP_LAUNCHES = 7
CHILD_TIMEOUT = 170.0


def spec_document(workload: str, seed: int) -> dict:
    definition = WORKLOADS[workload]
    return {
        "name": workload,
        "experiments": definition["experiments"],
        "scale": "default",
        "overrides": {**definition["overrides"], "seed": seed},
    }


def frames_reduced(workload: str, seed: int) -> int:
    """Mobile frames plus stationary placements one cold run reduces."""
    from repro.campaigns import CampaignSpec

    scale = CampaignSpec.from_dict(spec_document(workload, seed)).base_scale()
    per_row = scale.iterations * scale.steps + scale.stationary_iterations
    return WORKLOADS[workload]["rows"] * per_row


class Child:
    """Outcome of one :mod:`campaign_child` process."""

    def __init__(self, work: Path, spec_path: Path, store: Path, workload: str,
                 setup_only: bool = False, trace_dir: Optional[Path] = None) -> None:
        result = work / "child.json"
        result.unlink(missing_ok=True)
        command = [
            sys.executable, str(BENCH / "campaign_child.py"),
            "--spec", str(spec_path), "--store", str(store), "--result", str(result),
        ]
        total_workers = WORKLOADS[workload]["total_workers"]
        if total_workers is not None:
            command += ["--total-workers", str(total_workers)]
        if setup_only:
            command.append("--setup-only")
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        launched = time.monotonic()
        with open(work / "child.log", "ab") as log:
            process = subprocess.run(
                command, env=child_environment(), stdout=log,
                stderr=subprocess.STDOUT, cwd=str(work), timeout=CHILD_TIMEOUT,
            )
        self.elapsed = time.monotonic() - launched
        if process.returncode != 0 or not result.is_file():
            raise BenchmarkError(
                f"campaign child exited {process.returncode}; see {work / 'child.log'}"
            )
        self.record = json.loads(result.read_text(encoding="utf-8"))
        self.setup_s = self.record["entered"] - launched


def row_times_ms(store: Path) -> Tuple[List[float], List[float]]:
    """``(ready, compute)`` per row, from the program's own trace.

    ``ready`` is the time from the start of the ``campaign`` span until
    the row's ``task`` span ended (the row was stored); ``compute`` is
    the ``task`` span's own wall time.
    """
    began, tasks = None, []
    for trace in store.glob("telemetry/*/trace.jsonl"):
        with open(trace, encoding="utf-8") as source:
            for line in source:
                if '"name":"task"' in line or '"name":"campaign"' in line:
                    record = json.loads(line)
                    if record.get("type") != "span":
                        continue
                    if record["name"] == "campaign":
                        began = record["start"]
                    elif record["name"] == "task":
                        tasks.append((record["start"], record["wall"]))
    if began is None or not tasks:
        raise BenchmarkError(f"no campaign/task spans in the trace under {store}")
    ready = [(start + wall - began) * 1000.0 for start, wall in tasks]
    return ready, [wall * 1000.0 for _, wall in tasks]


def run_report_metrics(store: Path) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for report in store.glob("telemetry/*/run_report.json"):
        metrics = json.loads(report.read_text(encoding="utf-8")).get("metrics", {})
        for name, entry in metrics.items():
            totals[name] = totals.get(name, 0.0) + float(
                entry.get("value", entry.get("total", 0.0))
            )
    return totals


class Repetition:
    """One cold campaign run plus its output checks."""

    def __init__(self, work: Path, spec_path: Path, workload: str, seed: int,
                 number: int, trace_dir: Optional[Path] = None) -> None:
        store = work / f"store-{number}"
        self.child = Child(work, spec_path, store, workload, trace_dir=trace_dir)
        record = self.child.record
        self.attempted, failed, self.problems = checks.check_store(
            store, WORKLOADS[workload]["rows"], checks.load_shipped(workload, seed)
        )
        failed += record["quarantined"] + record["incomplete"]
        if record["quarantined"] or record["incomplete"]:
            self.problems.append(
                f"{record['quarantined']} quarantined task(s), "
                f"{record['incomplete']} incomplete scenario(s)"
            )
        self.failed = min(failed, self.attempted)
        self.wall_s = record["wall_s"]
        self.peak_rss_mb = record["peak_rss_mb"]
        self.row_ready_ms, self.row_compute_ms = row_times_ms(store)
        self.digests = checks.entry_digests(store)
        self.report_metrics = run_report_metrics(store)
        shutil.rmtree(store, ignore_errors=True)
