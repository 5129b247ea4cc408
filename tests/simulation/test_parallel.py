"""Tests for the parallel execution backend and the vectorized engine.

The contract under test: ``SimulationConfig.workers`` changes only the
wall-clock execution strategy — results are bit-identical to the serial
run for the same seed — and the vectorized per-frame reduction matches the
pre-vectorization reference implementation.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.simulation.config import MobilitySpec, NetworkConfig, SimulationConfig
from repro.simulation.engine import (
    component_growth_curve,
    component_growth_curve_reference,
    frame_statistics,
    frame_statistics_batch,
)
from repro.simulation.runner import (
    collect_frame_statistics,
    run_fixed_range,
)
from repro.stats.rng import RandomSource


def parallel_config(workers=1, mobility_name="drunkard", seed=99):
    mobility = (
        MobilitySpec.paper_drunkard(200.0)
        if mobility_name == "drunkard"
        else MobilitySpec.paper_waypoint(200.0)
    )
    return SimulationConfig(
        network=NetworkConfig(node_count=12, side=200.0, dimension=2),
        mobility=mobility,
        steps=6,
        iterations=5,
        seed=seed,
        transmitting_range=60.0,
        workers=workers,
    )


class TestWorkersField:
    def test_default_is_serial(self):
        assert parallel_config().workers == 1

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            parallel_config(workers=0)
        with pytest.raises(ConfigurationError):
            parallel_config(workers=-2)

    def test_with_workers_preserves_everything_else(self):
        config = parallel_config()
        copy = config.with_workers(4)
        assert copy.workers == 4
        assert copy.with_workers(1) == config

    def test_with_range_preserves_workers(self):
        config = parallel_config(workers=3)
        assert config.with_range(10.0).workers == 3


class TestBitIdenticalParallelism:
    @pytest.mark.parametrize("mobility_name", ["drunkard", "waypoint"])
    def test_run_fixed_range(self, mobility_name):
        serial = run_fixed_range(parallel_config(1, mobility_name))
        parallel = run_fixed_range(parallel_config(3, mobility_name))
        assert serial == parallel

    def test_collect_frame_statistics(self):
        serial = collect_frame_statistics(parallel_config(1))
        parallel = collect_frame_statistics(parallel_config(3))
        assert serial == parallel

    def test_more_workers_than_iterations(self):
        config = parallel_config(workers=32)
        assert run_fixed_range(config) == run_fixed_range(config.with_workers(1))

    def test_entropy_seeded_parallel_run_completes(self):
        # seed=None cannot be compared against a separate serial run (each
        # run resolves fresh OS entropy), but it must execute and produce
        # the right shape.
        config = SimulationConfig(
            network=NetworkConfig(node_count=8, side=100.0),
            mobility=MobilitySpec.paper_drunkard(100.0),
            steps=3,
            iterations=4,
            seed=None,
            transmitting_range=40.0,
            workers=2,
        )
        result = run_fixed_range(config)
        assert result.iteration_count == 4


class TestRandomSourceEntropy:
    def test_entropy_of_int_seed_is_the_seed(self):
        assert RandomSource(123).entropy == 123

    def test_from_entropy_reproduces_children(self):
        source = RandomSource(None)
        clone = RandomSource.from_entropy(source.entropy)
        for index in (0, 1, 7):
            expected = source.child(index).random(5)
            assert np.array_equal(clone.child(index).random(5), expected)


class TestVectorizedEngineMatchesReference:
    def test_component_growth_curve_property(self, rng):
        """Property: the MST-sweep curve equals the dense-sweep reference on
        random placements (1-D, 2-D and 3-D, varied sizes)."""
        for dimension in (1, 2, 3):
            for n in (2, 3, 10, 40):
                for _ in range(5):
                    points = rng.uniform(0, 100, size=(n, dimension))
                    assert component_growth_curve(
                        points
                    ) == component_growth_curve_reference(points)

    def test_duplicate_points(self):
        points = np.array([[1.0, 1.0], [1.0, 1.0], [4.0, 1.0], [4.0, 1.0]])
        curve = component_growth_curve(points)
        assert curve[-1][1] == 4
        assert curve[-1][0] == pytest.approx(3.0)

    def test_batch_matches_single_frames(self, rng):
        frames = rng.uniform(0, 100, size=(20, 15, 2))
        batched = frame_statistics_batch(frames)
        assert batched == [frame_statistics(frame) for frame in frames]

    def test_batch_trivial_node_counts(self):
        assert frame_statistics_batch(np.empty((3, 1, 2)))[0].critical_range == 0.0
        assert len(frame_statistics_batch(np.empty((4, 0, 2)))) == 4


# --------------------------------------------------------------------------- #
# Iteration-granular checkpointing (PR 4)
# --------------------------------------------------------------------------- #
class RecordingIterationCheckpoint:
    """In-memory IterationCheckpoint counting loads, saves and misses."""

    def __init__(self, entries=None, fail_after=None):
        self.entries = dict(entries or {})
        self.fail_after = fail_after
        self.loads = 0
        self.saves = 0

    def load(self, index):
        result = self.entries.get(index)
        if result is not None:
            self.loads += 1
        return result

    def save(self, index, result):
        self.entries[index] = result
        self.saves += 1
        if self.fail_after is not None and self.saves >= self.fail_after:
            raise RuntimeError(f"simulated kill after {self.saves} iterations")


class TestIterationCheckpoint:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_checkpointed_run_is_bit_identical(self, workers):
        config = parallel_config(workers)
        reference = collect_frame_statistics(parallel_config(1))
        checkpoint = RecordingIterationCheckpoint()
        result = collect_frame_statistics(config, checkpoint=checkpoint)
        assert result == reference
        assert checkpoint.saves == config.iterations
        assert checkpoint.loads == 0

    @pytest.mark.parametrize("workers", [1, 3])
    def test_kill_and_resume_simulates_each_iteration_once(self, workers):
        """Interrupt after 2 of 5 iterations; the resumed run loads the
        finished iterations, simulates only the missing ones and matches
        the uninterrupted run bit for bit."""
        reference = collect_frame_statistics(parallel_config(1))

        killed = RecordingIterationCheckpoint(fail_after=2)
        with pytest.raises(RuntimeError, match="simulated kill"):
            collect_frame_statistics(parallel_config(1), checkpoint=killed)
        assert len(killed.entries) == 2

        resumed = RecordingIterationCheckpoint(entries=killed.entries)
        config = parallel_config(workers)
        result = collect_frame_statistics(config, checkpoint=resumed)
        assert result == reference
        assert resumed.loads == 2
        assert resumed.saves == config.iterations - 2  # zero re-simulation

    def test_fully_checkpointed_run_simulates_nothing(self):
        config = parallel_config(1)
        checkpoint = RecordingIterationCheckpoint()
        collect_frame_statistics(config, checkpoint=checkpoint)
        warm = RecordingIterationCheckpoint(entries=checkpoint.entries)
        result = collect_frame_statistics(config, checkpoint=warm)
        assert warm.saves == 0
        assert warm.loads == config.iterations
        assert result == collect_frame_statistics(config)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_run_fixed_range_checkpoints_step_columns(self, workers):
        """The fixed-range runner persists bare StepColumns and rebuilds
        the IterationResult wrappers from the config on load."""
        from repro.simulation.results import StepColumns

        reference = run_fixed_range(parallel_config(1))
        checkpoint = RecordingIterationCheckpoint()
        result = run_fixed_range(parallel_config(workers), checkpoint=checkpoint)
        assert result == reference
        assert checkpoint.saves == parallel_config(1).iterations
        assert all(
            isinstance(entry, StepColumns) for entry in checkpoint.entries.values()
        )

        warm = RecordingIterationCheckpoint(entries=checkpoint.entries)
        resumed = run_fixed_range(parallel_config(1), checkpoint=warm)
        assert warm.saves == 0
        assert resumed == reference


class TestAdaptiveWorkerAllotment:
    def test_breadth_with_full_queue(self):
        from repro.simulation.sweep import adaptive_worker_allotment

        # Many ready tasks: everyone gets one worker.
        assert adaptive_worker_allotment(4, 8, task_width=16) == 1
        assert adaptive_worker_allotment(4, 4, task_width=16) == 1

    def test_depth_as_queue_drains(self):
        from repro.simulation.sweep import adaptive_worker_allotment

        # Freed workers concentrate on the remaining tasks.
        assert adaptive_worker_allotment(4, 2, task_width=16) == 2
        assert adaptive_worker_allotment(4, 1, task_width=16) == 4

    def test_capped_by_task_width_and_budget(self):
        from repro.simulation.sweep import adaptive_worker_allotment

        assert adaptive_worker_allotment(8, 1, task_width=3) == 3
        assert adaptive_worker_allotment(2, 1, task_width=16) == 2
        assert adaptive_worker_allotment(1, 1, task_width=16) == 1

    def test_rejects_bad_arguments(self):
        from repro.simulation.sweep import adaptive_worker_allotment

        with pytest.raises(ConfigurationError):
            adaptive_worker_allotment(0, 1)
        with pytest.raises(ConfigurationError):
            adaptive_worker_allotment(1, 0)
