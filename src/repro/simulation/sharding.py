"""Intra-iteration trajectory sharding.

PRs 1–4 parallelised *across* iterations, sweep values and campaign
scenarios; a single long-trajectory iteration still ran on one core.  The
machinery here splits one iteration of ``steps`` frames into contiguous
chunks executed by different worker processes:

1. the parent draws the placement, binds the mobility model and
   generates each chunk's frame arrays *once*
   (:func:`capture_shard_frames` — vectorised mobility generation only,
   cheap next to the per-frame MST reduction that dominates an
   iteration), parking large chunks in shared memory
   (:func:`~repro.simulation.shm.share_columns` over
   :class:`~repro.simulation.results.TrajectoryFrames`);
2. each worker adopts (borrows) its chunk's frames zero-copy and runs
   the expensive frame reduction for just that chunk;
3. the parent stitches the chunk containers back together
   (:meth:`~repro.simulation.results.StepColumns.concatenate` /
   :meth:`~repro.simulation.results.FrameStatisticsColumns.concatenate`)
   and disposes of the frame segments it created.

Because the parent walks one model through the whole trajectory with the
same draws a serial run makes (``trajectory(count)`` consumes
``count - 1`` step draws starting at the current frame), the stitched
result is bit-identical to the serial run — same arrays, same store
keys, and the parent's generator is left at the same stream position.
Mobility dynamics are generated exactly once and the frame reduction
runs exactly once per frame; earlier revisions regenerated each chunk's
mobility from a :class:`~repro.mobility.base.MobilityCheckpoint` inside
the worker (generating the dynamics twice).  That checkpoint path
(:func:`capture_shard_checkpoints` / :func:`capture_iteration_plans` and
the ``checkpoint`` argument of :func:`run_shard`) remains available for
callers that would rather re-derive frames than ship them; the runners
hand frames.

Sharding engages explicitly (``shard_steps=`` /
``SimulationConfig.shard_steps`` / CLI ``--shard-steps``) or
automatically when a runner holds more workers than pending iterations
and the trajectory is long enough to split usefully
(:func:`resolve_shard_plan`) — so spare workers granted by
``adaptive_worker_allotment`` fold into intra-iteration shards instead of
idling.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro import telemetry
from repro.exceptions import ConfigurationError
from repro.mobility.base import MobilityCheckpoint, MobilityModel
from repro.simulation.engine import (
    reduce_fixed_range,
    reduce_frame_statistics,
    reduce_frames_fixed_range,
    reduce_frames_statistics,
    start_model,
)
from repro.simulation.results import TrajectoryFrames
from repro.simulation.shm import adopt_result, share_columns
from repro.stats.rng import RandomSource

__all__ = [
    "MIN_SHARD_STEPS",
    "capture_iteration_frames",
    "capture_iteration_plans",
    "capture_shard_checkpoints",
    "capture_shard_frames",
    "max_useful_shards",
    "resolve_shard_plan",
    "run_shard",
    "shard_plan",
]

#: Smallest chunk worth a worker round trip: below this the checkpoint
#: capture, process hand-off and double mobility generation outweigh the
#: parallelised reduction.  Auto-sharding never cuts chunks smaller.
MIN_SHARD_STEPS = 64

def max_useful_shards(steps: int) -> int:
    """How many chunks a ``steps``-frame trajectory can usefully split into."""
    return max(1, steps // MIN_SHARD_STEPS)


def shard_plan(steps: int, shard_steps: int) -> List[int]:
    """Contiguous chunk lengths: ``shard_steps`` frames each, last short."""
    if shard_steps < 1:
        raise ConfigurationError(
            f"shard_steps must be at least 1, got {shard_steps}"
        )
    if steps < 1:
        raise ConfigurationError(f"steps must be at least 1, got {steps}")
    chunks: List[int] = []
    remaining = steps
    while remaining > 0:
        take = min(shard_steps, remaining)
        chunks.append(take)
        remaining -= take
    return chunks


def resolve_shard_plan(
    config, pending_iterations: int, shard_steps: Optional[int] = None
) -> Optional[List[int]]:
    """The chunk plan a runner should use, or ``None`` to run unsharded.

    An explicit ``shard_steps`` (argument, falling back to
    ``config.shard_steps``) always wins.  Otherwise sharding engages
    automatically when the worker budget exceeds the pending iteration
    count — the situation PR 4's adaptive allotment creates as a campaign
    drains — and the trajectory is long enough that every chunk keeps at
    least :data:`MIN_SHARD_STEPS` frames.  A one-chunk plan is reported as
    ``None``: running it through the shard path would only add overhead.
    """
    explicit = shard_steps if shard_steps is not None else config.shard_steps
    if explicit is not None:
        chunks = shard_plan(config.steps, explicit)
        return chunks if len(chunks) > 1 else None
    if pending_iterations < 1 or config.workers <= pending_iterations:
        return None
    wanted = -(-config.workers // pending_iterations)  # ceil division
    shards = min(wanted, max_useful_shards(config.steps))
    if shards <= 1:
        return None
    # A balanced split (chunks differ by at most one frame): with
    # ``shards <= steps // MIN_SHARD_STEPS`` every chunk then holds at
    # least MIN_SHARD_STEPS frames — a ragged equal-size-plus-remainder
    # plan could leave a final chunk below the floor.
    base, extra = divmod(config.steps, shards)
    return [base + 1] * extra + [base] * (shards - extra)


def _advance_frames(
    model: MobilityModel, count: int, rng: np.random.Generator
) -> None:
    """Advance a live model by ``count`` frames, discarding the positions.

    Delegates to :meth:`~repro.mobility.base.MobilityModel.advance`, which
    the built-in models override to skip materialising trajectory frame
    arrays entirely — fast-forwarding a 10 000-step walk costs state
    bookkeeping and RNG draws only.
    """
    model.advance(count, rng)


def capture_shard_checkpoints(
    network,
    mobility,
    chunks: List[int],
    rng: np.random.Generator,
    advance_tail: bool = True,
) -> List[MobilityCheckpoint]:
    """Placement, model binding and one checkpoint per chunk boundary.

    Consumes exactly the draws a serial iteration would: the placement,
    the model initialisation and every trajectory frame — so after this
    returns, ``rng`` sits precisely where a serial run would have left
    it.  Checkpoint ``k`` captures the state from which chunk ``k``'s
    worker resumes (for ``k > 0`` that is "the last frame of chunk
    ``k - 1`` is current").

    ``advance_tail=False`` skips fast-forwarding through the *last*
    chunk: no checkpoint lies beyond it, so the only thing that advance
    buys is the stream-position invariant above.  Callers that discard
    ``rng`` afterwards (each iteration of :func:`capture_iteration_plans`
    owns a private child stream) save 1/``len(chunks)`` of the parent's
    mobility cost by opting out.
    """
    with telemetry.span(
        "shard.fast_forward", chunks=len(chunks), steps=sum(chunks)
    ):
        model = start_model(network, mobility, rng)
        checkpoints = [model.checkpoint_state(rng)]
        for index in range(1, len(chunks)):
            # Chunk 0 includes the current (initial) frame, so it consumes
            # one draw-frame fewer than its length; later chunks consume
            # exactly their length.
            count = chunks[index - 1] - 1 if index == 1 else chunks[index - 1]
            _advance_frames(model, count, rng)
            checkpoints.append(model.checkpoint_state(rng))
        if advance_tail:
            final = chunks[-1] if len(chunks) > 1 else chunks[-1] - 1
            _advance_frames(model, final, rng)
        return checkpoints


def capture_shard_frames(
    network,
    mobility,
    chunks: List[int],
    rng: np.random.Generator,
    transport: str = "pickle",
):
    """Placement, model binding and the chunk frame arrays themselves.

    The frame-handing capture: instead of fast-forwarding past each chunk
    and checkpointing its boundary, the parent *materialises* every
    chunk's frames (vectorised ``trajectory()`` — the same generation a
    worker would otherwise repeat) and parks each chunk through the
    shared-memory transport.  Returns one
    :class:`~repro.simulation.results.TrajectoryFrames`-or-handle per
    chunk, ready to pass to :func:`run_shard` as ``frames=``.

    Consumes exactly the draws a serial iteration would: chunk 0's
    ``trajectory(c0)`` starts at the current frame and consumes ``c0 - 1``
    step draws; every later chunk's ``trajectory(ck + 1)[1:]`` consumes
    ``ck`` — so after this returns, ``rng`` sits precisely where a serial
    run (or the checkpoint capture with ``advance_tail=True``) would have
    left it, and the frames are bit-identical to the serial trajectory.

    Shared segments created here are *borrowed* by their workers; the
    caller owns them and must dispose of every handle with
    :func:`~repro.simulation.shm.discard_shared` once its chunk result
    landed (retried tasks may re-adopt the same handle in between).
    """
    with telemetry.span(
        "shard.capture_frames", chunks=len(chunks), steps=sum(chunks)
    ):
        model = start_model(network, mobility, rng)
        shards = []
        for index, length in enumerate(chunks):
            if index == 0:
                frames = model.trajectory(length, rng)
            else:
                # Frame 0 of a trajectory is the current position array —
                # the previous chunk's last frame — so request one extra
                # frame and drop it (same idiom as the engine's batching).
                frames = model.trajectory(length + 1, rng)[1:]
            shards.append(
                share_columns(
                    TrajectoryFrames(frames=np.ascontiguousarray(frames)),
                    transport,
                )
            )
        return shards


def capture_iteration_frames(
    config, entropy: int, pending: List[int], chunks: List[int],
    transport: str = "pickle",
) -> Dict[int, List]:
    """Chunk frames for every pending iteration of a config.

    Frame-handing counterpart of :func:`capture_iteration_plans`:
    iteration ``i`` is generated on its own child stream
    ``RandomSource(entropy).child(i)`` — the same stream a serial or
    iteration-parallel run would use — so sharded, parallel and serial
    execution all consume identical draws and observe identical frames.
    """
    plans: Dict[int, List] = {}
    for index in pending:
        rng = RandomSource.from_entropy(entropy).child(index)
        plans[index] = capture_shard_frames(
            config.network, config.mobility, chunks, rng, transport=transport
        )
    return plans


def _reduce_chunk_frames(
    mode: str,
    frames: np.ndarray,
    transmitting_range: Optional[float],
    backend: Optional[str],
):
    if mode == "fixed":
        if transmitting_range is None:
            raise ConfigurationError(
                "fixed-range shards need a transmitting_range"
            )
        return reduce_frames_fixed_range(
            frames, transmitting_range, backend=backend
        )
    if mode == "stats":
        return reduce_frames_statistics(frames, backend=backend)
    raise ConfigurationError(f"unknown shard mode {mode!r}")


def run_shard(
    mode: str,
    mobility,
    checkpoint: Optional[MobilityCheckpoint],
    chunk_steps: int,
    include_current: bool,
    transmitting_range: Optional[float] = None,
    transport: str = "pickle",
    backend: Optional[str] = None,
    frames=None,
):
    """Worker-process body of one trajectory chunk.

    With ``frames`` (a :class:`~repro.simulation.results.TrajectoryFrames`
    or its shared-memory handle from :func:`capture_shard_frames`) the
    worker adopts the parent-generated positions zero-copy — borrowing
    the segment, never unlinking it — and runs only the per-frame
    reduction; ``mobility``, ``checkpoint`` and ``include_current`` are
    unused and may be ``None`` (nothing is regenerated).

    Without ``frames``, the legacy checkpoint path: restore the chunk's
    mobility checkpoint (fresh model instance from the picklable spec,
    RNG at the captured position), regenerate the chunk's frames and
    reduce them.

    Either way ``mode`` selects
    :func:`~repro.simulation.engine.reduce_frame_statistics` (``"stats"``)
    or :func:`~repro.simulation.engine.reduce_fixed_range` (``"fixed"``)
    semantics, ``backend`` names the array backend the reduction kernels
    run under (resolved inside the worker process — backend handles are
    not picklable), and the resulting container leaves through the
    configured transport (shared memory or pickle).  Both paths are
    bit-identical to the serial reduction of the same chunk.
    """
    with telemetry.span("shard", steps=chunk_steps, mode=mode):
        if frames is not None:
            chunk = adopt_result(frames, owned=False)
            columns = _reduce_chunk_frames(
                mode, chunk.frames, transmitting_range, backend
            )
            return share_columns(columns, transport)
        model = mobility.create()
        rng = model.from_state(checkpoint)
        if mode == "fixed":
            if transmitting_range is None:
                raise ConfigurationError(
                    "fixed-range shards need a transmitting_range"
                )
            columns = reduce_fixed_range(
                model,
                chunk_steps,
                transmitting_range,
                rng,
                include_current=include_current,
                backend=backend,
            )
        elif mode == "stats":
            columns = reduce_frame_statistics(
                model,
                chunk_steps,
                rng,
                include_current=include_current,
                backend=backend,
            )
        else:
            raise ConfigurationError(f"unknown shard mode {mode!r}")
        return share_columns(columns, transport)


def capture_iteration_plans(
    config, entropy: int, pending: List[int], chunks: List[int]
) -> Dict[int, List[MobilityCheckpoint]]:
    """Chunk checkpoints for every pending iteration of a config.

    Iteration ``i`` is fast-forwarded on its own child stream
    ``RandomSource(entropy).child(i)`` — the same stream a serial or
    iteration-parallel run would use — so sharded, parallel and serial
    execution all consume identical draws.
    """
    plans: Dict[int, List[MobilityCheckpoint]] = {}
    for index in pending:
        rng = RandomSource.from_entropy(entropy).child(index)
        # The child stream dies with this loop iteration, so the final
        # chunk's fast-forward (which only positions the stream) is
        # skipped.
        plans[index] = capture_shard_checkpoints(
            config.network, config.mobility, chunks, rng, advance_tail=False
        )
    return plans
