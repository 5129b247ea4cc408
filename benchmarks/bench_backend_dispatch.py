"""Overhead of the array-backend seam on the default NumPy path.

The backend refactor (:mod:`repro.backend`) routes every hot-path kernel
through an :class:`~repro.backend.ArrayBackend` handle — a namespace
attribute plus a handful of idiom-helper method calls per Prim iteration
— instead of hard-coded ``numpy`` calls.  That seam is only acceptable if
the default path pays (close to) nothing for it: this benchmark times the
seam kernels against hand-inlined NumPy equivalents on the
per-frame hot path (batched MST construction over a trajectory-sized
batch of frames) and enforces an overhead bar of < 2%.

GPU backends (``cupy`` / ``torch``) are additionally timed when the host
can resolve them; on a CPU-only host those bars are skipped, never
enforced.  Timings land in ``BENCH_backend_dispatch.json``.
"""

import math
import time

import numpy as np

from repro.backend import NUMPY_BACKEND, available_backends, resolve_backend
from repro.connectivity.critical_range import minimum_spanning_edges_batch

from _helpers import bench_scale_name, write_bench_summary

#: (batch, node_count) per scale — sized so one pass is a few hundred
#: milliseconds of pure NumPy work: long enough for a relative 2% bar to
#: be resolvable above timer noise, short enough for the interleaved
#: trial schedule to stay under a minute at smoke scale.
_SIZES = {
    "smoke": (512, 96),
    "default": (1024, 96),
    "paper": (1024, 128),
}

#: Interleaved trials per variant.  The bar compares the *minimum* over
#: trials, the standard noise-robust statistic for micro-timings: cache
#: warm-up, scheduler preemption and page faults only ever inflate a
#: trial, so the minimum is each variant's reproducible best case.
_TRIALS = 7

#: The enforced dispatch-overhead bar, as a fraction.
_OVERHEAD_BAR = 0.02


def _inline_mst_batch(frames: np.ndarray):
    """Matrix-free `minimum_spanning_edges_batch` with no seam dispatch.

    The same algorithm as the seam kernel — each Prim step builds the
    chosen nodes' ``(B, n)`` squared-distance rows from the coordinate
    planes, ascending ``k`` — but with direct fancy indexing and in-place
    masked stores where the seam version calls ``backend.take_pairs`` /
    ``backend.put_pairs``: the dispatch-free baseline.
    """
    points = np.asarray(frames, dtype=np.float64)
    batch, n, dimension = points.shape
    columns = [points[:, :, axis].copy() for axis in range(dimension)]
    batch_index = np.arange(batch)

    def squared_row(candidate):
        deltas = [
            column[batch_index, candidate][:, None] - column for column in columns
        ]
        squared = deltas[0]
        squared *= squared
        for delta in deltas[1:]:
            delta *= delta
            squared += delta
        return squared

    outside = np.ones((batch, n), dtype=bool)
    outside[:, 0] = False
    best = squared_row(np.zeros(batch, dtype=np.int64))
    best[:, 0] = math.inf
    parent = np.zeros((batch, n), dtype=np.int64)
    us = np.empty((batch, n - 1), dtype=np.int64)
    vs = np.empty((batch, n - 1), dtype=np.int64)
    lengths = np.empty((batch, n - 1), dtype=np.float64)
    for index in range(n - 1):
        candidate = np.argmin(best, axis=1)
        us[:, index] = parent[batch_index, candidate]
        vs[:, index] = candidate
        lengths[:, index] = best[batch_index, candidate]
        outside[batch_index, candidate] = False
        best[batch_index, candidate] = math.inf
        row = squared_row(candidate)
        closer = row < best
        closer &= outside
        parent = np.where(closer, candidate[:, None], parent)
        best = np.where(closer, row, best)
    order = np.argsort(lengths, axis=1, kind="stable")
    return (
        np.take_along_axis(us, order, axis=1),
        np.take_along_axis(vs, order, axis=1),
        np.take_along_axis(lengths, order, axis=1),
    )


def _frames() -> np.ndarray:
    batch, n = _SIZES.get(bench_scale_name(), _SIZES["smoke"])
    rng = np.random.default_rng(20020623)
    return rng.random((batch, n, 2)) * 16384.0


def _time_variants(frames: np.ndarray) -> dict:
    """Best-of-``_TRIALS`` seconds per variant, trials interleaved.

    Interleaving (inline, seam, inline, seam, …) instead of timing each
    variant in its own block cancels slow drift — thermal throttling or a
    noisy neighbour hits both variants equally.
    """
    variants = {
        "inline": lambda: _inline_mst_batch(frames),
        "seam": lambda: minimum_spanning_edges_batch(frames),
    }
    for run in variants.values():  # warm-up: caches, allocator, imports
        run()
    seconds = {name: math.inf for name in variants}
    for _ in range(_TRIALS):
        for name, run in variants.items():
            started = time.perf_counter()
            run()
            seconds[name] = min(seconds[name], time.perf_counter() - started)
    return seconds


def test_numpy_seam_overhead_under_two_percent():
    frames = _frames()

    seam_edges = minimum_spanning_edges_batch(frames)
    inline_edges = _inline_mst_batch(frames)
    for seam_column, inline_column in zip(seam_edges, inline_edges):
        assert np.array_equal(seam_column, inline_column)

    seconds = _time_variants(frames)
    overhead = seconds["seam"] / seconds["inline"] - 1.0

    device_seconds = {}
    for name in available_backends():
        backend = resolve_backend(name)
        if backend.is_host:
            continue
        device_frames = backend.from_host(frames)
        minimum_spanning_edges_batch(device_frames, backend=backend)  # warm-up
        backend.synchronize()
        started = time.perf_counter()
        minimum_spanning_edges_batch(device_frames, backend=backend)
        backend.synchronize()
        device_seconds[name] = time.perf_counter() - started

    batch, n = frames.shape[0], frames.shape[1]
    print(f"\nbackend dispatch overhead (B={batch}, n={n}):")
    print(f"  inline numpy : {seconds['inline'] * 1e3:8.2f} ms")
    print(f"  seam (numpy) : {seconds['seam'] * 1e3:8.2f} ms  ({overhead:+.2%})")
    for name, elapsed in sorted(device_seconds.items()):
        print(f"  {name:<13}: {elapsed * 1e3:8.2f} ms")

    write_bench_summary(
        "backend_dispatch",
        {
            "batch": batch,
            "node_count": n,
            "inline_seconds": seconds["inline"],
            "seam_seconds": seconds["seam"],
            "overhead_fraction": overhead,
            "overhead_bar": _OVERHEAD_BAR,
            "device_backends_timed": sorted(device_seconds),
            **{
                f"{name}_seconds": elapsed
                for name, elapsed in sorted(device_seconds.items())
            },
        },
    )
    assert overhead < _OVERHEAD_BAR, (
        f"backend seam costs {overhead:.2%} over inlined numpy "
        f"({seconds['seam']:.4f}s vs {seconds['inline']:.4f}s)"
    )
