"""Repeat the benchmark over several seeds and summarise its spread.

For each workload, runs ``run.py`` once per seed (untraced) and reports,
per end-to-end metric, the median, the quartiles and the spread — the
inter-quartile distance as a share of the median, as
``statistics.quantiles(values, n=4)`` gives it — next to the metric's
bound from ``BENCHMARK.json``.  With ``--trace-seed`` it also makes one
traced run per workload.  With ``--history`` it appends the summary, the
traced layer tables and the host facts as one entry of the results
history::

    python3 perfbench/prove.py --seeds 1-10 --trace-seed 1 \
        --history perfbench/history.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict

from common import BENCH, ROOT, seeds_from, spread


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    began = time.monotonic()
    process = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True,
    )
    lines = process.stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {process.returncode}:\n"
            f"{process.stdout[-2000:]}\n{process.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.monotonic() - began
    return result


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--history", default=None)
    arguments = parser.parse_args()

    bounds = {metric["name"]: metric["bound"] for metric in config["end_to_end"]}
    seeds = seeds_from(arguments.seeds)
    entry: Dict[str, object] = {
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": __import__("numpy").__version__,
            "machine": platform.machine(),
        },
        "seeds": seeds,
        "run_seconds": arguments.seconds,
        "end_to_end": {},
        "per_layer": {},
    }
    for workload in arguments.workloads.split(","):
        results = [run_once(workload, seed, arguments.seconds, 0) for seed in seeds]
        summary = {}
        print(f"{workload}: {len(results)} runs, "
              f"{statistics.fmean(r['elapsed_s'] for r in results):.1f} s each")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            share = spread(values)
            summary[name] = {"median": q2, "q1": q1, "q3": q3, "spread": share,
                             "unit": results[0]["metrics"][name]["unit"],
                             "values": values}
            verdict = "ok" if share < bound / 3 else ("WITHIN BOUND" if share <= bound else "TOO WIDE")
            print(f"  {name:14s} median {q2:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {share:7.4f}  bound {bound:5.2f}  {verdict}")
        entry["end_to_end"][workload] = summary
        if arguments.trace_seed is not None:
            traced = run_once(workload, arguments.trace_seed, arguments.seconds, 1)
            entry["per_layer"][workload] = {
                name: metric["value"] for name, metric in traced["metrics"].items()
            }
    if arguments.history:
        path = Path(arguments.history)
        history = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else []
        history.append(entry)
        path.write_text(json.dumps(history, indent=1) + "\n", encoding="utf-8")
        print(f"appended entry {len(history)} to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
