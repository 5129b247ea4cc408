"""End-to-end benchmark of the DSN'02 connectivity reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload system-size-serial --seed 1 \
        --seconds 30 --trace 0

Workloads (see README.md for why each exists and what it predicts):

* ``system-size-serial``     cold serial ``campaign run`` of Figures 2-6
* ``parameter-study-pooled`` cold ``campaign run --total-workers 2`` of Figures 7-9
* ``ask-zipf``               ``query serve`` under a Zipf ``/ask`` stream

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` makes a separate traced run that wraps each layer's public
functions and reports the per-layer metrics.  Either way the outputs are
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every check passed, 1 when an output check failed, and 2
when the benchmark could not run (no program source, a crashed child,
or a load generator that fell behind).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

from statistics import median

from common import (
    ROOT,
    BenchmarkError,
    percentile,
    tail_percentile,
    use_checkout_source,
)

#: (name, unit) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rate_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
]
WORKLOADS = ("system-size-serial", "parameter-study-pooled", "ask-zipf")


class Outcome:
    """What one run reports: metrics, counts, and human-readable lines."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.lines: List[str] = []
        self.problems: List[str] = []

    def say(self, name: str, value: float, unit: str, detail: str = "") -> None:
        self.lines.append(f"  {name:34s} {value:14.6g} {unit:6s} {detail}")


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1={q1:.6g} q3={q3:.6g} n={len(values)}"


# ---------------------------------------------------------------------- #
# Campaign workloads
# ---------------------------------------------------------------------- #
def campaign_run(workload: str, seed: int, seconds: float, trace: bool,
                 work: Path) -> Outcome:
    import campaign

    outcome = Outcome()
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(campaign.spec_document(workload, seed)))
    frames = campaign.frames_reduced(workload, seed)

    if trace:
        import layers
        from tracer import load_spans

        baseline = campaign.Repetition(work, spec_path, workload, seed, 0)
        traced = campaign.Repetition(
            work, spec_path, workload, seed, 1, trace_dir=work / "trace"
        )
        reps = [baseline, traced]
        report = traced.report_metrics
        extra = {
            "supervision.retries": report.get("supervision.retries", 0.0),
            "trace.overhead_frac": traced.wall_s / baseline.wall_s - 1.0,
        }
        outcome.metrics = layers.layer_metrics(load_spans(work / "trace"), extra)
        outcome.metrics["transport.bytes"] += report.get("shm.bytes_parked", 0.0)
        traced_frames = outcome.metrics["connectivity.mst_batch.frames"]
        outcome.lines.append(
            f"  traced MST frames {traced_frames:.0f} vs frames fixed by the spec "
            f"{frames}"
        )
    else:
        setups = [
            campaign.Child(work, spec_path, work / "setup-store", workload,
                           setup_only=True).setup_s
            for _ in range(campaign.SETUP_LAUNCHES)
        ]
        reps = [campaign.Repetition(work, spec_path, workload, seed, 0)]
        # As many cold runs as fit in --seconds, decided once from the first.
        for number in range(1, max(1, round(seconds / reps[0].child.elapsed))):
            reps.append(campaign.Repetition(work, spec_path, workload, seed, number))
        setups += [rep.child.setup_s for rep in reps]
        walls = [rep.wall_s for rep in reps]
        rss = [rep.peak_rss_mb for rep in reps]
        # Half of the rows are stored by ``ready``; the tail is each run's
        # slowest row (its critical path; rows are too few for a
        # percentile).  Both are medians over the repetitions.
        ready = median([median(rep.row_ready_ms) for rep in reps])
        tail = median([max(rep.row_compute_ms) for rep in reps])
        outcome.metrics = {
            "setup_s": median(setups),
            "wall_s": median(walls),
            "rate_per_s": frames / median(walls),
            "peak_rss_mb": median(rss),
            "p50_ms": ready,
            "tail_ms": tail,
        }
        outcome.say("setup_s", median(setups), "s", quartiles(setups))
        outcome.say("campaign_wall_s", median(walls), "s", quartiles(walls))
        outcome.say("frames_per_s", frames / median(walls), "1/s", f"frames={frames}")
        outcome.say("peak_rss_mb", median(rss), "MB", quartiles(rss))
        outcome.say("row_ready_p50_ms", ready, "ms", "from run start, median over runs")
        outcome.say("row_compute_max_ms", tail, "ms", "slowest row, median over runs")

    for rep in reps:
        outcome.attempted += rep.attempted
        outcome.failed += rep.failed
        outcome.problems += rep.problems
        # Same seed, same bytes: every repetition must store what the first did.
        if rep.digests != reps[0].digests:
            mismatched = {
                key for key in set(rep.digests) | set(reps[0].digests)
                if rep.digests.get(key) != reps[0].digests.get(key)
            }
            outcome.failed += len(mismatched)
            outcome.problems.append(
                f"{len(mismatched)} entries differ between repetitions"
            )
    outcome.failed = min(outcome.failed, outcome.attempted)
    outcome.say("failed_frac", outcome.failed / outcome.attempted, "ratio",
                f"{outcome.failed}/{outcome.attempted} stored entries checked")
    return outcome


# ---------------------------------------------------------------------- #
# ask-zipf
# ---------------------------------------------------------------------- #
def ask_run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    import askzipf
    import checks
    import loadgen

    outcome = Outcome()
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(askzipf.spec_document(seed)))
    store = work / "store"
    began = time.monotonic()
    rows = askzipf.fill_store(store, spec_path, seed)
    fill_s = time.monotonic() - began

    setups: List[float] = []
    server = None
    try:
        for number in range(askzipf.SETUP_LAUNCHES):
            if server is not None:
                server.stop()
            server = askzipf.Server(work, spec_path, store, None, number)
            setups.append(server.setup_s)
        stream = askzipf.query_stream(seed, rows)
        arrivals = random.Random(f"ask-zipf arrivals {seed}")
        baseline = None
        if trace:
            target = loadgen.Target(server.url, checks.answer_problem)
            asyncio.run(loadgen.closed_loop(target, askzipf.take(stream, askzipf.WARMUP)))
            baseline = asyncio.run(askzipf.closed_batches(target, stream, 0.2 * seconds))
            server.stop()
            server = askzipf.Server(
                work, spec_path, store, work / "trace", askzipf.SETUP_LAUNCHES
            )
        target = loadgen.Target(server.url, checks.answer_problem)

        async def phases():
            warm = await loadgen.closed_loop(
                target, askzipf.take(stream, askzipf.WARMUP), askzipf.CONNECTIONS
            )
            light = await loadgen.open_loop(
                target,
                askzipf.take(stream, round(askzipf.LIGHT_RPS * askzipf.LIGHT_SHARE * seconds)),
                askzipf.LIGHT_RPS, arrivals, askzipf.CONNECTIONS,
            )
            loaded = await loadgen.open_loop(
                target,
                askzipf.take(stream, round(askzipf.LOADED_RPS * askzipf.LOADED_SHARE * seconds)),
                askzipf.LOADED_RPS, arrivals, askzipf.CONNECTIONS,
            )
            batches = await askzipf.closed_batches(
                target, stream, askzipf.CLOSED_SHARE * seconds
            )
            return warm, light, loaded, batches

        warm, light, loaded, batches = asyncio.run(phases())
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    phases_run = [warm, light, loaded] + batches
    for phase in phases_run + (baseline or []):
        outcome.attempted += phase.attempted
        outcome.failed += phase.failed
        outcome.problems += phase.problems
    late = light.late_ms + loaded.late_ms
    late_p99 = percentile(late, 0.99)
    if late_p99 > askzipf.LATE_LIMIT_MS:
        raise BenchmarkError(
            f"invalid run: the load generator ran {late_p99:.1f} ms late at p99 "
            f"(limit {askzipf.LATE_LIMIT_MS} ms); no latency result"
        )
    walls = [batch.wall_s for batch in batches]
    capacity = askzipf.BATCH / median(walls)

    if trace:
        import layers
        from tracer import load_spans

        counters = askzipf.server_counters(store)
        hot = counters.get("query.hot_hits", 0.0)
        cold = counters.get("query.cold_misses", 0.0)
        service = [value for phase in phases_run for value in phase.service_ms]
        extra = {
            "query.hot_hit_ratio": hot / (hot + cold) if hot + cold else 0.0,
            "query.evictions": counters.get("query.cache_evictions", 0.0),
            "loadgen.late_p99_ms": late_p99,
            "loadgen.sent": float(sum(phase.attempted for phase in phases_run)),
            "trace.overhead_frac": median(walls) / median(
                [batch.wall_s for batch in baseline]
            ) - 1.0,
            "client_service_ms": statistics.fmean(service),
            "refine_answers": float(sum(phase.refine_answers for phase in phases_run)),
        }
        outcome.metrics = layers.layer_metrics(load_spans(work / "trace"), extra)
    else:
        tail_label, tail = tail_percentile(light.latencies_ms)
        loaded_label, loaded_tail = tail_percentile(loaded.latencies_ms)
        outcome.metrics = {
            "setup_s": median(setups),
            "wall_s": median(walls),
            "rate_per_s": capacity,
            "peak_rss_mb": rss,
            "p50_ms": median(light.latencies_ms),
            "tail_ms": tail,
        }
        outcome.say("setup_s", median(setups), "s", quartiles(setups))
        outcome.say("ask_p50_ms", median(light.latencies_ms), "ms",
                    f"open loop {askzipf.LIGHT_RPS:g}/s, n={len(light.latencies_ms)}")
        outcome.say(f"ask_{tail_label}_ms", tail, "ms",
                    f"open loop {askzipf.LIGHT_RPS:g}/s")
        outcome.say(f"ask_loaded_{loaded_label}_ms", loaded_tail, "ms",
                    f"open loop {askzipf.LOADED_RPS:g}/s, n={len(loaded.latencies_ms)}, "
                    f"p50={median(loaded.latencies_ms):.4g}")
        outcome.say("ask_capacity_rps", capacity, "1/s",
                    f"closed loop, {askzipf.CONNECTIONS} connections, batches of "
                    f"{askzipf.BATCH}: {quartiles(walls)}")
        outcome.say("peak_rss_mb", rss, "MB", "query server process")
        outcome.say("loadgen.late_p99_ms", late_p99, "ms",
                    f"limit {askzipf.LATE_LIMIT_MS:g}")
        outcome.say("store_fill_s", fill_s, "s", "information only, not timed")
    outcome.say("failed_frac", outcome.failed / outcome.attempted, "ratio",
                f"{outcome.failed}/{outcome.attempted} requests")
    return outcome


# ---------------------------------------------------------------------- #
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args()

    work = ROOT / ".perfbench-work" / f"{arguments.workload}-{os.getpid()}"
    try:
        use_checkout_source()
        work.mkdir(parents=True)
        try:
            if arguments.workload == "ask-zipf":
                outcome = ask_run(arguments.seed, arguments.seconds,
                                  bool(arguments.trace), work)
            else:
                outcome = campaign_run(arguments.workload, arguments.seed,
                                       arguments.seconds, bool(arguments.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchmarkError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2

    print(f"{arguments.workload} seed={arguments.seed} trace={arguments.trace}")
    print("\n".join(outcome.lines))
    for problem in outcome.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    if arguments.trace:
        import layers

        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        for name, unit in units.items():
            print(f"  {name:40s} {outcome.metrics[name]:14.6g} {unit}")
    else:
        units = dict(END_TO_END)
    correct = outcome.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
