"""Shared-memory result transport: equality, fallback and lifecycle.

Covered here:

* shm-backed containers are bit-exactly equal to pickle-transported ones
  (in-process and across a real worker pool), and round-trip through the
  store codecs identically regardless of backing;
* the ``auto`` transport falls back to pickle below the size threshold
  and for unsupported values; invalid transport names are rejected;
* lifecycle: adopted segments are unlinked when the last view dies, and
  a parent or worker killed mid-transfer (SIGKILL — no atexit, no
  finalizers) leaves no ``/dev/shm`` segment behind once the process
  tree is gone (the resource-tracker safety net).
"""

import gc
import os
import signal
import subprocess
import sys
import textwrap
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.simulation.results import FrameStatisticsColumns, StepColumns
from repro.simulation.shm import (
    SHM_MIN_BYTES,
    SharedColumnsHandle,
    adopt_result,
    payload_nbytes,
    share_columns,
    shm_available,
    validate_transport,
)
from repro.store.codecs import decode_payload, encode_payload

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="no usable POSIX shared memory on this host"
)

SHM_DIR = Path("/dev/shm")


def frame_columns(frames=800, node_count=24, seed=0) -> FrameStatisticsColumns:
    rng = np.random.default_rng(seed)
    per_frame = rng.integers(1, node_count, size=frames)
    offsets = np.concatenate([[0], np.cumsum(per_frame)])
    total = int(offsets[-1])
    return FrameStatisticsColumns(
        node_count=node_count,
        critical_ranges=rng.random(frames),
        curve_offsets=offsets,
        curve_ranges=rng.random(total),
        curve_sizes=rng.integers(1, node_count + 1, size=total),
    )


def step_columns(steps=5000, seed=1) -> StepColumns:
    rng = np.random.default_rng(seed)
    return StepColumns(
        connected=rng.random(steps) < 0.5,
        largest_component=rng.integers(1, 64, size=steps),
    )


def segments() -> set:
    if not SHM_DIR.is_dir():
        return set()
    return {name for name in os.listdir(SHM_DIR) if name.startswith("psm_")}


def produce_shared(seed: int):
    """Worker body: a frame container through the forced shm transport."""
    return share_columns(frame_columns(seed=seed), "shm")


def produce_shared_and_die(path: str):
    """Worker body killed mid-transfer: the segment exists and is
    registered, but the handle never reaches the parent."""
    handle = share_columns(frame_columns(seed=5), "shm")
    Path(path).write_text(handle.segment_name)
    os.kill(os.getpid(), signal.SIGKILL)


def produce_shared_and_die_creating(path: str):
    """Worker body killed inside segment creation: the ``/dev/shm`` file
    exists, but ``SharedMemory.__init__`` never got to register it (what
    a supervisor's SIGKILL of a broken pool's survivor can hit)."""
    import secrets
    from multiprocessing import shared_memory

    import _posixshmem

    class DiesWhileCreating:
        def __init__(self, name=None, create=False, size=0):
            name = name or f"psm_{secrets.token_hex(4)}"
            descriptor = _posixshmem.shm_open(
                f"/{name}", os.O_CREAT | os.O_EXCL | os.O_RDWR, mode=0o600
            )
            os.ftruncate(descriptor, size)
            Path(path).write_text(name)
            os.kill(os.getpid(), signal.SIGKILL)

    shared_memory.SharedMemory = DiesWhileCreating
    share_columns(frame_columns(seed=5), "shm")


class TestTransportSelection:
    def test_validate_rejects_unknown_names(self):
        with pytest.raises(ConfigurationError):
            validate_transport("arrow")
        for name in ("auto", "pickle", "shm"):
            assert validate_transport(name) == name

    def test_pickle_is_a_pass_through(self):
        columns = frame_columns()
        assert share_columns(columns, "pickle") is columns

    def test_auto_falls_back_below_threshold(self):
        small = step_columns(steps=16)
        assert payload_nbytes(small) < SHM_MIN_BYTES
        assert share_columns(small, "auto") is small

    def test_auto_promotes_large_payloads(self):
        large = frame_columns(frames=8000, node_count=48)
        assert payload_nbytes(large) >= SHM_MIN_BYTES
        handle = share_columns(large, "auto")
        assert isinstance(handle, SharedColumnsHandle)
        assert adopt_result(handle) == large

    def test_unsupported_values_pass_through(self):
        assert share_columns([1, 2, 3], "auto") == [1, 2, 3]
        assert adopt_result("plain") == "plain"


class TestBitExactEquality:
    @pytest.mark.parametrize("build", [frame_columns, step_columns])
    def test_in_process_round_trip(self, build):
        columns = build()
        adopted = adopt_result(share_columns(columns, "shm"))
        assert adopted == columns
        for field in ("critical_ranges", "curve_ranges") if isinstance(
            columns, FrameStatisticsColumns
        ) else ("connected", "largest_component"):
            assert np.array_equal(
                getattr(adopted, field), getattr(columns, field)
            )

    def test_cross_process_shm_equals_pickle(self):
        reference = frame_columns(seed=9)
        with ProcessPoolExecutor(max_workers=1) as pool:
            shm_result = adopt_result(pool.submit(produce_shared, 9).result())
            pickled = pool.submit(frame_columns, 800, 24, 9).result()
        assert shm_result == pickled == reference
        assert np.array_equal(shm_result.curve_ranges, pickled.curve_ranges)
        assert shm_result.curve_ranges.dtype == pickled.curve_ranges.dtype

    def test_codecs_round_trip_identically_regardless_of_backing(self):
        """Store payloads must not depend on where the arrays live."""
        columns = frame_columns(seed=4)
        adopted = adopt_result(share_columns(columns, "shm"))
        kind_a, name_a, payload_a = encode_payload(columns)
        kind_b, name_b, payload_b = encode_payload(adopted)
        assert (kind_a, name_a, payload_a) == (kind_b, name_b, payload_b)
        assert decode_payload(kind_b, payload_b) == columns

    def test_adopted_container_survives_pickling(self):
        """Re-pickling an adopted container falls back to the compact
        transport (views copy into the pickle) and stays equal."""
        import pickle

        columns = step_columns()
        adopted = adopt_result(share_columns(columns, "shm"))
        assert pickle.loads(pickle.dumps(adopted)) == columns


class TestLifecycle:
    def test_segment_unlinked_when_views_die(self):
        before = segments()
        handle = share_columns(frame_columns(), "shm")
        name = handle.segment_name
        assert name in segments()
        adopted = adopt_result(handle)
        assert name in segments()  # alive while views exist
        del adopted
        gc.collect()
        assert name not in segments()
        assert segments() <= before

    def test_extracted_array_keeps_segment_alive(self):
        handle = share_columns(frame_columns(), "shm")
        name = handle.segment_name
        adopted = adopt_result(handle)
        ranges = adopted.curve_ranges
        reference = ranges.copy()
        del adopted
        gc.collect()
        # The surviving view pins the segment; the data stays valid.
        assert name in segments()
        assert np.array_equal(ranges, reference)
        del ranges
        gc.collect()
        assert name not in segments()

    def test_double_adoption_is_rejected(self):
        handle = share_columns(frame_columns(), "shm")
        adopted = adopt_result(handle)
        with pytest.raises(ConfigurationError):
            handle.adopt()
        del adopted
        gc.collect()

    def test_pool_runs_leave_no_segments(self):
        before = segments()
        with ProcessPoolExecutor(max_workers=2) as pool:
            results = [
                adopt_result(future.result())
                for future in [
                    pool.submit(produce_shared, seed) for seed in range(6)
                ]
            ]
        assert len(results) == 6
        del results
        gc.collect()
        assert segments() <= before


def _run_script(body: str, expect_sigkill: bool, timeout: float = 60.0) -> None:
    """Run a detached python script, without capturing its pipes.

    Output is discarded (capturing would block on orphaned pool workers
    that inherit the pipe ends and outlive a SIGKILLed parent).
    """
    script = textwrap.dedent(body)
    process = subprocess.run(
        [sys.executable, "-c", script],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=str(Path(__file__).resolve().parents[2]),
    )
    if expect_sigkill:
        assert process.returncode == -signal.SIGKILL, process.returncode
    else:
        assert process.returncode == 0, process.returncode


def _wait_gone(names, timeout=30.0):
    """The resource tracker reaps asynchronously after the tree dies."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not (segments() & names):
            return True
        time.sleep(0.2)
    return not (segments() & names)


class TestKillSafety:
    def test_parent_killed_mid_transfer_leaves_no_segments(self, tmp_path):
        """SIGKILL the parent after adoption: no atexit, no finalizers —
        the resource tracker must still unlink everything once the
        process tree is gone."""
        info = tmp_path / "info"
        _run_script(
            f"""
            import json, os, signal
            from concurrent.futures import ProcessPoolExecutor
            from tests.simulation.test_shm_transport import produce_shared
            from repro.simulation.shm import adopt_result, ensure_shared_memory_tracker

            ensure_shared_memory_tracker()
            with ProcessPoolExecutor(max_workers=1) as pool:
                handle = pool.submit(produce_shared, 3).result()
                adopted = adopt_result(handle)
                workers = [process.pid for process in pool._processes.values()]
                with open({str(info)!r}, "w") as sink:
                    json.dump({{"segment": handle.segment_name, "workers": workers}}, sink)
                os.kill(os.getpid(), signal.SIGKILL)
            """,
            expect_sigkill=True,
        )
        import json

        payload = json.loads(info.read_text())
        name = payload["segment"]
        assert name in segments()  # the kill really was mid-flight
        # A SIGKILLed parent orphans its pool workers; the tracker reaps
        # once they are gone too (normally: their queues EOF and they
        # exit; here we finish them off so the test is prompt).
        for pid in payload["workers"]:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        assert _wait_gone({name}), f"leaked segment {name}"

    def test_worker_killed_mid_transfer_leaves_no_segments(self, tmp_path):
        """SIGKILL the worker after it created and registered its segment
        but before the handle reached the parent: the orphan segment must
        be reaped when the tree winds down."""
        info = tmp_path / "info"
        _run_script(
            f"""
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool
            from tests.simulation.test_shm_transport import produce_shared_and_die
            from repro.simulation.shm import ensure_shared_memory_tracker

            ensure_shared_memory_tracker()
            with ProcessPoolExecutor(max_workers=1) as pool:
                try:
                    pool.submit(produce_shared_and_die, {str(info)!r}).result()
                    raise SystemExit("worker survived")
                except BrokenProcessPool:
                    pass
            """,
            expect_sigkill=False,
        )
        name = info.read_text().strip()
        assert name
        assert _wait_gone({name}), f"leaked segment {name}"

    def test_worker_killed_inside_segment_creation_leaves_no_segments(
        self, tmp_path
    ):
        """SIGKILL the worker after the segment file exists but before
        CPython would register it: the name was registered up front, so
        the tracker still reaps the file."""
        info = tmp_path / "info"
        _run_script(
            f"""
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool
            from tests.simulation.test_shm_transport import (
                produce_shared_and_die_creating,
            )
            from repro.simulation.shm import ensure_shared_memory_tracker

            ensure_shared_memory_tracker()
            with ProcessPoolExecutor(max_workers=1) as pool:
                try:
                    pool.submit(produce_shared_and_die_creating, {str(info)!r}).result()
                    raise SystemExit("worker survived")
                except BrokenProcessPool:
                    pass
            """,
            expect_sigkill=False,
        )
        name = info.read_text().strip()
        assert name
        assert _wait_gone({name}), f"leaked segment {name}"


class TestFailedGatherRelease:
    class ExplodeOnSave:
        """Iteration checkpoint whose first save aborts the gather."""

        def load(self, index):
            return None

        def save(self, index, result):
            raise RuntimeError("simulated checkpoint failure")

    def test_failed_parallel_gather_releases_unadopted_segments(self):
        """When a parallel run dies mid-gather, segments parked by
        already-finished workers must not stay mapped until exit."""
        from repro.simulation.config import (
            MobilitySpec,
            NetworkConfig,
            SimulationConfig,
        )
        from repro.simulation.runner import collect_frame_statistics

        before = segments()
        config = SimulationConfig(
            network=NetworkConfig(node_count=10, side=80.0, dimension=2),
            mobility=MobilitySpec.paper_drunkard(80.0),
            steps=12,
            iterations=4,
            seed=3,
            workers=2,
            transport="shm",  # forced: payloads stay small at this size
        )
        with pytest.raises(RuntimeError, match="simulated checkpoint"):
            collect_frame_statistics(config, checkpoint=self.ExplodeOnSave())
        gc.collect()
        assert segments() <= before, "failed gather leaked segments"


def test_adopted_views_are_aligned():
    """Odd-length leading columns must not misalign later views
    (unaligned int64/float64 views tax every downstream vectorized op)."""
    odd = step_columns(steps=10001)
    adopted = adopt_result(share_columns(odd, "shm"))
    assert adopted == odd
    assert adopted.largest_component.flags["ALIGNED"]
    frames = frame_columns(frames=801, node_count=24)
    adopted_frames = adopt_result(share_columns(frames, "shm"))
    assert adopted_frames == frames
    for field in ("critical_ranges", "curve_offsets", "curve_ranges", "curve_sizes"):
        assert getattr(adopted_frames, field).flags["ALIGNED"], field


class TestSupervisedKillRecovery:
    """PR 7 fault tolerance x shm transport: a worker SIGKILLed mid-run
    under supervision is retried on a respawned pool, the recovered
    results are bit-identical to a fault-free run, and the segments
    parked by the broken pool's finished-but-unadopted tasks are
    released — nothing is left mapped in ``/dev/shm``."""

    def test_real_worker_kill_recovers_bit_identically_without_leaks(
        self, tmp_path
    ):
        before = segments()
        ok = tmp_path / "ok"
        state = tmp_path / "faultstate"
        _run_script(
            f"""
            from pathlib import Path

            import numpy as np

            from repro import faults
            from repro.faults import FaultSpec
            from repro.simulation.config import (
                MobilitySpec,
                NetworkConfig,
                SimulationConfig,
            )
            from repro.simulation.runner import collect_frame_statistics
            from repro.simulation.shm import ensure_shared_memory_tracker

            ensure_shared_memory_tracker()
            config = SimulationConfig(
                network=NetworkConfig(node_count=10, side=80.0, dimension=2),
                mobility=MobilitySpec.paper_drunkard(80.0),
                steps=12,
                iterations=4,
                seed=3,
                workers=2,
                transport="shm",  # forced: payloads stay small at this size
            )
            reference = collect_frame_statistics(config)
            supervised = config.with_supervision(2, retry_backoff=0.05)
            with faults.active(
                [FaultSpec(site="iteration", action="kill", at=2)],
                {str(state)!r},
            ):
                recovered = collect_frame_statistics(supervised)
            assert len(recovered) == len(reference)
            for ours, theirs in zip(recovered, reference):
                assert ours.node_count == theirs.node_count
                for field in (
                    "critical_ranges",
                    "curve_offsets",
                    "curve_ranges",
                    "curve_sizes",
                ):
                    assert np.array_equal(
                        getattr(ours, field), getattr(theirs, field)
                    ), field
            Path({str(ok)!r}).write_text("ok")
            """,
            expect_sigkill=False,
        )
        assert ok.read_text() == "ok"
        # The injected kill really happened (ordinal counter advanced
        # past the firing hit) ...
        assert int((state / "hits-0").read_text()) >= 2
        # ... and the recovery left nothing behind in /dev/shm.
        assert _wait_gone(segments() - before), "supervised recovery leaked"
