"""The ``ask-zipf`` workload: ``/ask`` under a Zipf query stream.

The benchmark fills a store with physically shaped rows for the
``fig2`` + ``fig3`` grid at 512 sides each (1024 cells, four times the
server's default 256-cell hot cache), written through the grid's own
sweep checkpoint, then starts ``query serve`` as its own process and
drives it from this process with at most two connections.

Queries pick a cell by Zipf(1.1) rank over a seeded shuffle of all
cells and ask in either direction (probability -> range or range ->
probability, half each): 62% at the exact grid side, 36% between two
grid sides, 2% at a few sides outside the grid (answered
``refine=true``, which enqueues a refinement no worker drains).
"""

from __future__ import annotations

import asyncio
import json
import random
import signal
import subprocess
import sys
import time
from itertools import accumulate
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import checks
import loadgen
from common import BENCH, BenchmarkError, child_environment, peak_rss_mb_of

#: Grid sides per model: 1024, 1056, ..., 17376.
SIDES: Tuple[float, ...] = tuple(1024.0 + 32.0 * k for k in range(512))
#: Off-grid sides (below and above the grid); few, so refinements dedupe.
OFF_SIDES: Tuple[float, ...] = (256.0, 576.0, 900.0, 17600.0, 19000.0, 24000.0)
ZIPF_EXPONENT = 1.1
#: Query kinds are dealt from shuffled decks holding them in fixed
#: proportion (62% exact, 36% between, 2% off-grid), so every phase gets
#: the same mix; kinds differ several-fold in cost, and an independent
#: draw per query would move the median with the sample's mix.
KIND_DECK = ("exact",) * 31 + ("between",) * 18 + ("off",)

#: Open-loop rates, about 1/5 and 1/2 of the ~110/s closed-loop capacity
#: this grid allows on a 2-core host: every store key hashes the spec's
#: 512-side payload, so each answer costs milliseconds, not microseconds.
#: The light rate stays low enough that a host running twice as slow
#: still queues little, so light-rate latency follows service time.
LIGHT_RPS = 20.0
LOADED_RPS = 50.0
#: Shares of ``--seconds`` given to the light, loaded and closed phases.
LIGHT_SHARE, LOADED_SHARE, CLOSED_SHARE = 0.6, 0.1, 0.3
CONNECTIONS = 2
#: Answers per closed-loop batch; ``wall_s`` is a batch's median wall time.
BATCH = 100
WARMUP = 300
SETUP_LAUNCHES = 7
#: Generator lateness (p99, ms) beyond which a run is not a latency result.
LATE_LIMIT_MS = 20.0
SERVER_START_TIMEOUT = 60.0


def spec_document(seed: int) -> dict:
    return {
        "name": "ask-zipf",
        "experiments": ["fig2", "fig3"],
        "scale": "default",
        "overrides": {"sides": list(SIDES), "seed": seed},
    }


def make_rows(seed: int, models: List[str]) -> Dict[str, List[dict]]:
    """Seeded threshold rows shaped like the paper's: growing with side."""
    rng = random.Random(f"ask-zipf rows {seed}")
    rows: Dict[str, List[dict]] = {}
    for model in models:
        rows[model] = []
        for side in SIDES:
            base = side ** 0.5 / 10.0 * rng.uniform(0.95, 1.05)
            r0 = base * rng.uniform(0.9, 1.0)
            r10 = r0 * rng.uniform(1.1, 1.3)
            r90 = r10 * rng.uniform(1.6, 2.0)
            r100 = r90 * rng.uniform(1.1, 1.3)
            rows[model].append(
                {
                    "n": float(round(side ** 0.5)),
                    "rstationary": r90 * rng.uniform(0.8, 1.0),
                    "r0": r0, "r10": r10, "r90": r90, "r100": r100,
                }
            )
    return rows


def _fill_model(store_root: str, spec_path: str, model: str, rows: List[dict]) -> None:
    from repro.campaigns import CampaignSpec
    from repro.query import GridIndex
    from repro.store import ResultStore

    grid = GridIndex(CampaignSpec.load(spec_path))
    checkpoint = grid.checkpoint_for(
        grid.scenario_for(model), store=ResultStore(store_root)
    )
    for side, row in zip(SIDES, rows):
        checkpoint.save(side, row)


def fill_store(store_root: Path, spec_path: Path, seed: int) -> Dict[str, List[dict]]:
    """Write every grid row through the cell's sweep checkpoint."""
    from repro.campaigns import CampaignSpec
    from repro.query import GridIndex

    models = GridIndex(CampaignSpec.load(spec_path)).models
    rows = make_rows(seed, models)
    # One process per model: the fill is the benchmark's own set-up, and
    # each key hashes the whole 512-side grid, so it is CPU-bound.  Fork
    # is safe here (no threads yet) and, unlike spawn, leaves no
    # semaphore-tracker process running after the pool is gone.
    import multiprocessing

    context = multiprocessing.get_context("fork")
    with context.Pool(len(models)) as pool:
        pool.starmap(
            _fill_model,
            [(str(store_root), str(spec_path), model, rows[model]) for model in models],
        )
    return rows


def query_stream(seed: int, rows: Dict[str, List[dict]]) -> Iterator[dict]:
    """Endless seeded stream of queries with what their answers must satisfy."""
    rng = random.Random(f"ask-zipf queries {seed}")
    cells = [(model, index) for model in sorted(rows) for index in range(len(SIDES))]
    rng.shuffle(cells)
    weights = list(
        accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(cells)))
    )
    kinds: List[str] = []
    directions: List[bool] = []
    while True:
        if not kinds:
            kinds = rng.sample(KIND_DECK, len(KIND_DECK))
            directions = rng.sample([True, False] * (len(KIND_DECK) // 2), len(KIND_DECK))
        kind, inverse = kinds.pop(), directions.pop()
        model, index = rng.choices(cells, cum_weights=weights)[0]
        if kind == "exact":
            side, bracket = SIDES[index], [rows[model][index]]
        elif kind == "between":
            index = min(index, len(SIDES) - 2)
            side = SIDES[index] + 32.0 * rng.uniform(0.05, 0.95)
            bracket = [rows[model][index], rows[model][index + 1]]
        else:
            side, bracket = rng.choice(OFF_SIDES), [rows[model][index]]
        document = {"model": model, "side": side}
        query = {"kind": kind, "rows": bracket, "document": document}
        if inverse:
            if kind == "exact" and rng.random() < 0.5:
                column, probability = rng.choice(checks.KNOTS)
                query["knot"] = column
                document["probability"] = probability
            else:
                document["probability"] = rng.uniform(0.01, 0.99)
        else:
            low = min(row["r0"] for row in bracket)
            high = max(row["r100"] for row in bracket)
            document["range"] = rng.uniform(0.9 * low, 1.1 * high)
        yield query


def take(stream: Iterator[dict], count: int) -> List[dict]:
    return [next(stream) for _ in range(count)]


class Server:
    """One ``query serve`` process started through :mod:`serve_child`."""

    def __init__(self, work: Path, spec_path: Path, store: Path,
                 trace_dir: Optional[Path], number: int) -> None:
        url_file = work / f"url-{number}"
        self.log = open(work / f"server-{number}.log", "wb")
        command = [
            sys.executable, str(BENCH / "serve_child.py"),
            "--spec", str(spec_path), "--store", str(store),
            "--url-file", str(url_file),
        ]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        launched = time.monotonic()
        self.process = subprocess.Popen(
            command, env=child_environment(), stdout=self.log,
            stderr=subprocess.STDOUT, cwd=str(work),
        )
        deadline = launched + SERVER_START_TIMEOUT
        while not (url_file.is_file() and url_file.read_text().strip()):
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchmarkError(f"query server {number} did not start")
            time.sleep(0.002)
        self.url = url_file.read_text().strip()
        if not asyncio.run(loadgen.wait_healthy(self.url, deadline)):
            self.stop()
            raise BenchmarkError(f"query server {number} never became healthy")
        self.setup_s = time.monotonic() - launched

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_of(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


def server_counters(store: Path) -> Dict[str, float]:
    """The newest query-serve run report's metric counters."""
    reports = sorted(store.glob("telemetry/*/run_report.json"))
    if not reports:
        return {}
    metrics = json.loads(reports[-1].read_text(encoding="utf-8")).get("metrics", {})
    return {
        name: float(entry.get("value", entry.get("count", 0)))
        for name, entry in metrics.items()
    }


async def closed_batches(target: loadgen.Target, stream: Iterator[dict],
                         seconds: float) -> List[loadgen.PhaseStats]:
    """Closed-loop batches of ``BATCH`` answers for ``seconds`` (at least 3)."""
    batches: List[loadgen.PhaseStats] = []
    began = time.perf_counter()
    while len(batches) < 3 or time.perf_counter() - began < seconds:
        batches.append(
            await loadgen.closed_loop(target, take(stream, BATCH), CONNECTIONS)
        )
    return batches
