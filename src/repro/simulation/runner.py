"""Multi-iteration simulation runners.

The paper averages every reported quantity over 50 independent simulations
of 10 000 mobility steps each.  The runners here execute those iterations
with independent, reproducible random streams derived from a single root
seed (see :class:`repro.stats.rng.RandomSource`).

Execution backend
-----------------
``SimulationConfig.workers`` selects how the iterations run:

* ``workers == 1`` (default) — a serial in-process loop;
* ``workers > 1`` — the iterations fan out over a
  :class:`concurrent.futures.ProcessPoolExecutor`.

Iteration ``i`` always consumes the stream ``RandomSource(seed).child(i)``
regardless of which process executes it, and the root entropy is resolved
*once* in the parent (so even ``seed=None`` runs hand every worker the same
root).  Parallel results are therefore bit-identical to serial results —
only the wall-clock time changes.

Results cross the process boundary in the columnar containers of
:mod:`repro.simulation.results` (:class:`~repro.simulation.results.
StepColumns` per fixed-range iteration, :class:`~repro.simulation.results.
FrameStatisticsColumns` per trace-statistics iteration), so a 10 000-step
iteration pickles as a handful of NumPy arrays instead of 10 000 per-step
dataclasses.  ``SimulationConfig.transport`` upgrades that hand-off to
zero-copy: workers park the arrays in :mod:`multiprocessing.shared_memory`
segments and the parent adopts views instead of unpickling copies (see
:mod:`repro.simulation.shm`; ``"auto"``, the default, does this only for
payloads large enough to win).

Intra-iteration sharding
------------------------
A single long iteration can itself be split across workers:
``shard_steps`` (argument or ``SimulationConfig.shard_steps``) cuts each
trajectory into contiguous chunks executed by different processes, each
resumed from a :class:`~repro.mobility.base.MobilityCheckpoint` captured
by the parent, and stitched back bit-identically (see
:mod:`repro.simulation.sharding`).  When ``config.workers`` exceeds the
number of pending iterations — one 10 000-step iteration on an 8-core
box, or the tail of a campaign under PR 4's adaptive allotment — sharding
engages automatically, so single-iteration runs scale with the worker
budget too.

Per-iteration checkpointing
---------------------------
Both runners accept a *checkpoint* implementing the
:class:`IterationCheckpoint` protocol.  Iterations whose results
``load(index)`` returns are not simulated again, and every freshly
simulated iteration is handed to ``save(index, result)`` the moment it
exists — in completion order for parallel runs — so a killed paper-scale
run (50 iterations of 10 000 steps) resumes at the first unfinished
*iteration* instead of redoing the whole configuration.  Because
iteration ``i`` always consumes child stream ``i``, a resumed run is
bit-identical to an uninterrupted one.  The store-backed implementation
is :class:`repro.store.checkpoints.StoreIterationCheckpoint`; this module
only defines the protocol so the simulation layer stays storage-free.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Callable, Dict, List, Optional, TypeVar

import numpy as np

from repro import faults, telemetry
from repro.exceptions import ConfigurationError
from repro.simulation.config import MobilitySpec, NetworkConfig, SimulationConfig
from repro.supervision import run_supervised
from repro.simulation.engine import (
    FrameStatisticsColumns,
    reduce_frames_statistics,
    simulate_frame_statistics,
    simulate_iteration,
    start_model,
)
from repro.simulation.metrics import range_for_connectivity_fraction
from repro.simulation.results import (
    IterationResult,
    MobileRunResult,
    StepColumns,
)
from repro.simulation.sharding import (
    capture_iteration_frames,
    resolve_shard_plan,
    run_shard,
)
from repro.simulation.shm import (
    adopt_result,
    discard_shared,
    ensure_shared_memory_tracker,
    share_columns,
)
from repro.stats.rng import RandomSource

ResultT = TypeVar("ResultT")


class IterationCheckpoint:
    """Protocol of a per-iteration checkpoint (duck-typed).

    ``load`` returns the previously simulated result of iteration
    ``index`` — a :class:`~repro.simulation.results.StepColumns` for
    fixed-range runs, a :class:`FrameStatisticsColumns` for
    trace-statistics runs — or ``None`` when the iteration must be
    (re)simulated; ``save`` persists one freshly simulated iteration.
    Both are called in the process driving the iterations (the parent of
    the iteration pool), in index order for ``load`` and in completion
    order for ``save``.
    """

    def load(self, index: int) -> Optional[object]:  # pragma: no cover
        raise NotImplementedError

    def save(self, index: int, result: object) -> None:  # pragma: no cover
        raise NotImplementedError


class _FixedRangeCheckpoint:
    """Adapter persisting only each iteration's :class:`StepColumns`.

    The surrounding :class:`~repro.simulation.results.IterationResult` is
    pure configuration (index, node count, range) and is rebuilt from the
    config on load, so the store only ever holds the columnar containers
    the codecs already understand.
    """

    def __init__(self, checkpoint: IterationCheckpoint, config: SimulationConfig) -> None:
        self._checkpoint = checkpoint
        self._config = config

    def load(self, index: int) -> Optional[IterationResult]:
        records = self._checkpoint.load(index)
        if records is None:
            return None
        return IterationResult(
            iteration=index,
            node_count=self._config.network.node_count,
            transmitting_range=self._config.transmitting_range,
            records=records,
        )

    def save(self, index: int, result: IterationResult) -> None:
        self._checkpoint.save(index, result.records)


def _fixed_range_iteration(
    index: int, config: SimulationConfig, entropy: int, transport: str = "pickle"
) -> IterationResult:
    """Run fixed-range iteration ``index`` on its own child stream."""
    faults.fire("iteration", context=f"iteration={index}")
    with telemetry.span("iteration", index=index, mode="fixed"):
        rng = RandomSource.from_entropy(entropy).child(index)
        result = simulate_iteration(
            network=config.network,
            mobility=config.mobility,
            steps=config.steps,
            transmitting_range=config.transmitting_range,
            rng=rng,
            iteration=index,
            backend=config.backend,
        )
        records = share_columns(result.records, transport)
        if records is result.records:
            return result
        return replace(result, records=records)


def _frame_statistics_iteration(
    index: int, config: SimulationConfig, entropy: int, transport: str = "pickle"
) -> FrameStatisticsColumns:
    """Run trace-statistics iteration ``index`` on its own child stream."""
    faults.fire("iteration", context=f"iteration={index}")
    with telemetry.span("iteration", index=index, mode="stats"):
        rng = RandomSource.from_entropy(entropy).child(index)
        return share_columns(
            simulate_frame_statistics(
                network=config.network,
                mobility=config.mobility,
                steps=config.steps,
                rng=rng,
                backend=config.backend,
            ),
            transport,
        )


def _adopt_iteration(result):
    """Parent-side transport adoption of one iteration result.

    Shared-memory handles become containers backed by zero-copy views;
    plain (pickle-transported) results pass through untouched.
    """
    if isinstance(result, IterationResult):
        records = adopt_result(result.records)
        if records is result.records:
            return result
        return replace(result, records=records)
    return adopt_result(result)


def _staging_sweeper(checkpoint) -> Optional[Callable[[], None]]:
    """An ``on_respawn`` hook sweeping dead writers' staging directories.

    After a pool death every killed worker may have left a half-written
    staging directory in the checkpoint's store; sweeping them before the
    replacement pool spawns keeps retried campaigns from accumulating
    orphans.  Duck-typed through the checkpoint (and the fixed-range
    adapter) to its ``store.sweep_dead_staging`` — storage-free runs get
    no hook.
    """
    target = getattr(checkpoint, "_checkpoint", checkpoint)
    store = getattr(target, "store", None)
    sweep = getattr(store, "sweep_dead_staging", None)
    if sweep is None:
        return None

    def respawn() -> None:
        try:
            sweep()
        except Exception:
            pass  # best-effort hygiene; never mask the recovery

    return respawn


def _map_iterations(
    task: Callable[..., ResultT],
    mode: str,
    config: SimulationConfig,
    checkpoint: Optional[IterationCheckpoint] = None,
    shard_steps: Optional[int] = None,
) -> List[ResultT]:
    """Run every iteration index, serially, in a process pool, or sharded.

    ``task`` must be a module-level callable (it is pickled to worker
    processes); ``mode`` (``"fixed"`` / ``"stats"``) names the same
    computation for the shard path.  Results are returned in iteration
    order and are bit-identical for every ``config.workers``,
    ``shard_steps`` and ``config.transport`` value.

    With a ``checkpoint``, previously saved iterations are loaded instead
    of simulated and fresh ones are saved as soon as they complete, so a
    killed run loses at most the iterations still in flight.
    """
    entropy = RandomSource(config.seed).entropy
    results: Dict[int, ResultT] = {}
    if checkpoint is None:
        pending = list(range(config.iterations))
    else:
        pending = []
        for index in range(config.iterations):
            loaded = checkpoint.load(index)
            if loaded is None:
                pending.append(index)
            else:
                results[index] = loaded
    chunks = resolve_shard_plan(config, len(pending), shard_steps)
    if chunks is not None:
        _run_sharded(mode, config, entropy, pending, results, checkpoint, chunks)
        return [results[index] for index in range(config.iterations)]

    worker_count = min(config.workers, len(pending))
    transport = config.transport if worker_count > 1 else "pickle"
    bound = partial(task, config=config, entropy=entropy, transport=transport)
    if worker_count <= 1:
        for index in pending:
            result = bound(index)
            if checkpoint is not None:
                checkpoint.save(index, result)
            results[index] = result
    else:
        # The parallel path gathers in completion order through the
        # supervised loop: checkpointed runs save each iteration the
        # moment it finishes, a fatal gather adopts and unlinks the
        # shared-memory segments workers had already parked (no
        # ``/dev/shm`` leak), and — when ``config.max_retries`` /
        # ``task_timeout`` opt in — worker crashes, task exceptions and
        # hangs are retried on a respawned pool with backoff instead of
        # aborting the run.  The default policy reproduces the legacy
        # fail-fast gather exactly.
        ensure_shared_memory_tracker()

        def submit_one(pool, index, available, ready):
            # The ambient span (the task, inside a pool worker) rides
            # along into the nested iteration pool; identity when
            # telemetry is inactive.
            return pool.submit(telemetry.propagate(bound), index), 1

        def consume(index, result, cost):
            adopted = _adopt_iteration(result)
            if checkpoint is not None:
                checkpoint.save(index, adopted)
            results[index] = adopted

        run_supervised(
            pending,
            budget=worker_count,
            submit=submit_one,
            on_result=consume,
            policy=config.retry_policy,
            on_respawn=_staging_sweeper(checkpoint),
            release=_adopt_iteration,
        )
    return [results[index] for index in range(config.iterations)]


def _stitch_shards(mode: str, config: SimulationConfig, index: int, parts):
    """Reassemble one iteration from its chunk containers (bit-identical)."""
    if mode == "fixed":
        return IterationResult(
            iteration=index,
            node_count=config.network.node_count,
            transmitting_range=config.transmitting_range,
            records=StepColumns.concatenate(parts),
        )
    return FrameStatisticsColumns.concatenate(parts)


def _run_sharded(
    mode: str,
    config: SimulationConfig,
    entropy: int,
    pending: List[int],
    results: Dict[int, ResultT],
    checkpoint: Optional[IterationCheckpoint],
    chunks: List[int],
) -> None:
    """Execute the pending iterations as (iteration, chunk) shard tasks.

    The parent generates each iteration's mobility frames exactly once
    (cheap, vectorised) and parks each chunk in shared memory; the shard
    pool runs the expensive frame reductions concurrently against those
    borrowed segments, and every iteration is stitched — and
    checkpointed — the moment its last shard lands.  The parent owns the
    frame segments: a chunk's segment is discarded once its reduction
    result arrived (a retried worker re-adopts the same handle until
    then), and any survivors are swept when the pool winds down.
    """
    tasks = [
        (index, shard)
        for index in pending
        for shard in range(len(chunks))
    ]
    worker_count = min(config.workers, len(tasks))
    transport = config.transport if worker_count > 1 else "pickle"
    frames = capture_iteration_frames(
        config, entropy, pending, chunks, transport=transport
    )
    parts: Dict[int, List] = {
        index: [None] * len(chunks) for index in pending
    }

    def finish(index: int) -> None:
        stitched = _stitch_shards(mode, config, index, parts.pop(index))
        if checkpoint is not None:
            checkpoint.save(index, stitched)
        results[index] = stitched

    def discard_frames(index: int, shard: int) -> None:
        discard_shared(frames[index][shard])
        frames[index][shard] = None

    try:
        if worker_count <= 1:
            for index, shard in tasks:
                parts[index][shard] = adopt_result(
                    run_shard(
                        mode,
                        None,
                        None,
                        chunks[shard],
                        shard == 0,
                        transmitting_range=config.transmitting_range,
                        transport=transport,
                        backend=config.backend,
                        frames=frames[index][shard],
                    )
                )
                discard_frames(index, shard)
            for index in pending:
                finish(index)
            return
        missing = {index: len(chunks) for index in pending}
        ensure_shared_memory_tracker()

        def submit_shard(pool, item, available, ready):
            index, shard = item
            return (
                pool.submit(
                    telemetry.propagate(run_shard),
                    mode,
                    None,
                    None,
                    chunks[shard],
                    shard == 0,
                    transmitting_range=config.transmitting_range,
                    transport=transport,
                    backend=config.backend,
                    frames=frames[index][shard],
                ),
                1,
            )

        def consume(item, result, cost):
            index, shard = item
            parts[index][shard] = adopt_result(result)
            discard_frames(index, shard)
            missing[index] -= 1
            if missing[index] == 0:
                finish(index)

        run_supervised(
            tasks,
            budget=worker_count,
            submit=submit_shard,
            on_result=consume,
            policy=config.retry_policy,
            on_respawn=_staging_sweeper(checkpoint),
            release=adopt_result,
        )
    finally:
        for handles in frames.values():
            for handle in handles:
                discard_shared(handle)


def run_fixed_range(
    config: SimulationConfig,
    checkpoint: Optional[IterationCheckpoint] = None,
    shard_steps: Optional[int] = None,
) -> MobileRunResult:
    """Run the paper's simulator: fixed range, all iterations.

    Honours ``config.workers``, ``config.transport`` and intra-iteration
    sharding (``shard_steps`` argument, ``config.shard_steps``, or
    automatic when workers outnumber pending iterations) — every
    execution shape is bit-identical to the serial run (see the module
    docstring).  With a ``checkpoint``, each iteration's
    :class:`~repro.simulation.results.StepColumns` is persisted as it
    completes and loaded instead of resimulated on the next run.

    Raises:
        ConfigurationError: if ``config.transmitting_range`` is not set.
    """
    if config.transmitting_range is None:
        raise ConfigurationError(
            "run_fixed_range requires config.transmitting_range to be set; "
            "use collect_frame_statistics / estimate_thresholds to derive ranges"
        )
    adapter = (
        _FixedRangeCheckpoint(checkpoint, config)
        if checkpoint is not None
        else None
    )
    iterations = _map_iterations(
        _fixed_range_iteration,
        "fixed",
        config,
        checkpoint=adapter,
        shard_steps=shard_steps,
    )
    return MobileRunResult(
        transmitting_range=config.transmitting_range,
        node_count=config.network.node_count,
        iterations=tuple(iterations),
    )


def collect_frame_statistics(
    config: SimulationConfig,
    checkpoint: Optional[IterationCheckpoint] = None,
    shard_steps: Optional[int] = None,
) -> List[FrameStatisticsColumns]:
    """Run all iterations in trace-statistics mode.

    Returns one columnar sequence of :class:`FrameStatistics` per
    iteration.  The random
    streams are the same as :func:`run_fixed_range` uses for the same seed,
    so thresholds derived from these statistics are consistent with
    fixed-range runs on the same configuration.  Honours ``config.workers``,
    ``config.transport`` and intra-iteration sharding (``shard_steps``
    argument, ``config.shard_steps``, or automatic when workers outnumber
    pending iterations) — all bit-identical to serial — plus an optional
    per-iteration ``checkpoint`` (each iteration's
    :class:`FrameStatisticsColumns` is persisted as it completes; saved
    iterations resume without resimulation).
    """
    return _map_iterations(
        _frame_statistics_iteration,
        "stats",
        config,
        checkpoint=checkpoint,
        shard_steps=shard_steps,
    )


def stationary_critical_range(
    node_count: int,
    side: float,
    dimension: int = 2,
    iterations: int = 100,
    seed: Optional[int] = None,
    confidence: float = 0.99,
    placement: str = "uniform",
    backend: str = "numpy",
) -> float:
    """Estimate ``rstationary``: the range connecting random static placements.

    The paper takes its ``rstationary`` values from the stationary
    simulations of [1, 11], where the critical range is the value at which
    the great majority of random placements are connected.  Here we draw
    ``iterations`` independent placements, compute the exact critical range
    of each (longest MST edge), and return the ``confidence``-quantile of
    those values — i.e. the range at which a fraction ``confidence`` of
    random placements is connected.

    Placement ``i`` is drawn on child stream ``i``, as one-step stationary
    iteration ``i`` of :func:`collect_frame_statistics` would draw it, and
    all placements are reduced as one ``(iterations, n, d)`` frame batch.

    Args:
        node_count: number of nodes ``n``.
        side: region side ``l``.
        dimension: region dimension (2 in the paper's mobile study).
        iterations: number of independent placements to draw.
        seed: root seed for reproducibility.
        confidence: the quantile of per-placement critical ranges returned;
            1.0 returns the maximum observed.
        placement: placement strategy name (default ``uniform``).
        backend: array backend for the connectivity kernels
            (:mod:`repro.backend`).
    """
    if not 0.0 < confidence <= 1.0:
        raise ConfigurationError(f"confidence must be in (0, 1], got {confidence}")
    if iterations < 1:
        raise ConfigurationError(f"iterations must be at least 1, got {iterations}")
    network = NetworkConfig(
        node_count=node_count, side=side, dimension=dimension, placement=placement
    )
    mobility = MobilitySpec.stationary()
    source = RandomSource(seed)
    with telemetry.span("stationary", placements=iterations):
        frames = []
        for index in range(iterations):
            rng = source.child(index)
            model = start_model(network, mobility, rng)
            frames.append(model.trajectory(1, rng)[0])
        statistics = reduce_frames_statistics(np.stack(frames), backend=backend)
    return range_for_connectivity_fraction(statistics, confidence)
