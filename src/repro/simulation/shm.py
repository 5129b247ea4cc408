"""Zero-copy shared-memory transport for the columnar result containers.

The PR 2 pickle transport made worker→parent hand-offs *compact* (packed
bits, minimal integer widths), but the float64 breakpoint columns — the
bulk of a paper-scale :class:`~repro.simulation.results.
FrameStatisticsColumns` — still transit the executor pipe byte by byte
and are copied twice more by pickling.  The transport here removes that
tax entirely:

* the worker writes every array of a container once into one
  :mod:`multiprocessing.shared_memory` segment and returns a tiny
  picklable :class:`SharedColumnsHandle` (segment name + array layout);
* the parent *adopts* the handle: the container it gets back holds NumPy
  views straight into the mapped segment — no unpickling, no copy, and
  bit-identical to what the pickle transport would have delivered.

Lifecycle
---------
Segments are refcounted per adopted view: every adopted array registers a
finalizer against the segment, and the last one to die closes the mapping
and unlinks the file.  An :mod:`atexit` sweep unlinks anything still
adopted at interpreter shutdown.  Kill-safety comes from
:mod:`multiprocessing.resource_tracker`: creating workers leave their
segments registered with the process tree's shared tracker, the parent
only unregisters a name once it has actually been unlinked — so a worker
(or the parent itself) killed mid-transfer leaves nothing behind in
``/dev/shm`` once the tree is gone.

Fallback
--------
:func:`share_columns` degrades gracefully: payloads below
:data:`SHM_MIN_BYTES` (where pickling is cheaper than a segment round
trip), hosts without usable shared memory, and the explicit ``"pickle"``
transport all return the container itself, which then travels over the
PR 2 pickle transport unchanged.  Results are bit-identical either way;
only the hand-off cost differs.
"""

from __future__ import annotations

import atexit
import secrets
import threading
import weakref
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.exceptions import ConfigurationError
from repro.simulation.results import (
    FrameStatisticsColumns,
    StepColumns,
    TrajectoryFrames,
)

__all__ = [
    "SHM_MIN_BYTES",
    "TRANSPORTS",
    "SharedColumnsHandle",
    "adopt_result",
    "discard_shared",
    "ensure_shared_memory_tracker",
    "share_columns",
    "shm_available",
    "validate_transport",
]


def ensure_shared_memory_tracker() -> None:
    """Start the resource tracker in this process before forking workers.

    The tracker is spawned lazily on first use; if the *first* use happens
    inside a forked pool worker, every worker spins up a private tracker
    that outlives its segments' unlinks and prints spurious leak warnings
    at pool shutdown.  Calling this in the pool-owning process makes all
    descendants inherit one shared tracker — the one that also provides
    the kill-safety net for in-flight segments.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:
        pass

#: Below this payload size the pickle transport wins (segment creation and
#: mapping cost a couple of syscalls per hand-off); ``"auto"`` only
#: promotes containers at least this large to shared memory.
SHM_MIN_BYTES = 1 << 18

#: The recognised transport names: ``auto`` (shared memory for large
#: payloads, pickle otherwise), ``pickle`` (always the PR 2 compact pickle
#: transport) and ``shm`` (shared memory whenever it is available at all).
TRANSPORTS = ("auto", "pickle", "shm")

_shared_memory_module = None
_shm_probe: Optional[bool] = None


def _shared_memory():
    global _shared_memory_module
    if _shared_memory_module is None:
        from multiprocessing import shared_memory

        _shared_memory_module = shared_memory
    return _shared_memory_module


def _create_segment(size: int) -> Any:
    """``SharedMemory(create=True)`` that no kill can orphan.

    CPython registers a segment with the resource tracker only after its
    ``/dev/shm`` file exists; a worker SIGKILLed in between (a broken
    pool's survivors are) would leak it.  So the name is registered first.
    """
    from multiprocessing import resource_tracker

    while True:
        name = f"psm_{secrets.token_hex(4)}"  # CPython's own naming scheme
        resource_tracker.register(f"/{name}", "shared_memory")
        try:
            return _shared_memory().SharedMemory(name=name, create=True, size=size)
        except FileExistsError:
            resource_tracker.unregister(f"/{name}", "shared_memory")


def shm_available() -> bool:
    """``True`` when POSIX shared memory actually works on this host.

    Probes once by creating (and immediately unlinking) a tiny segment —
    import success alone does not guarantee a usable ``/dev/shm``.
    """
    global _shm_probe
    if _shm_probe is None:
        try:
            segment = _create_segment(16)
            segment.close()
            segment.unlink()  # also unregisters from the resource tracker
            _shm_probe = True
        except Exception:
            _shm_probe = False
    return _shm_probe


def validate_transport(transport: str) -> str:
    """Validate and return a transport name (see :data:`TRANSPORTS`)."""
    if transport not in TRANSPORTS:
        raise ConfigurationError(
            f"transport must be one of {TRANSPORTS}, got {transport!r}"
        )
    return transport


# --------------------------------------------------------------------------- #
# Parent-side segment registry (refcounted adoption)
# --------------------------------------------------------------------------- #
class _AdoptedSegment:
    """One mapped segment plus the number of live arrays viewing it.

    ``owned`` records who disposes of the backing file: an *owning*
    adoption (the worker→parent result hand-off) unlinks the segment when
    the last view dies; a *borrowed* adoption (the parent→worker frame
    hand-off) only closes its mapping — the creating process keeps the
    file alive for possible re-adoption (a retried task) and unlinks it
    itself via :func:`discard_shared`.
    """

    __slots__ = ("segment", "references", "owned")

    def __init__(self, segment: Any, owned: bool = True) -> None:
        self.segment = segment
        self.references = 0
        self.owned = owned


_registry_lock = threading.Lock()
_adopted: Dict[str, _AdoptedSegment] = {}
#: Segments already unlinked whose mapping could not be closed yet (an
#: array finalizer fires *while* its buffer export is still alive, so the
#: close is retried on later transport activity and at exit).
_zombies: List[Any] = []


def _release_view(name: str) -> None:
    """Finalizer of one adopted array: last view out releases the segment.

    Owning adoptions unlink the backing file; borrowed adoptions close
    their mapping only (the creator owns the file's lifetime).
    """
    with _registry_lock:
        entry = _adopted.get(name)
        if entry is None:
            return
        entry.references -= 1
        if entry.references > 0:
            return
        del _adopted[name]
    if entry.owned:
        _destroy_segment(entry.segment)
    elif not _try_close(entry.segment):
        with _registry_lock:
            _zombies.append(entry.segment)
    _sweep_zombies()


def _try_close(segment: Any) -> bool:
    try:
        segment.close()
        return True
    except BufferError:
        return False
    except Exception:
        return True


def _destroy_segment(segment: Any) -> None:
    """Unlink a segment and release its mapping (possibly deferred).

    ``unlink`` removes the ``/dev/shm`` file and drops the name from the
    resource tracker (the tracker registration is the kill-safety net, so
    it must outlive the file, never the other way round).  Closing the
    mapping can fail transiently with :class:`BufferError` when this runs
    inside a NumPy array finalizer — the segment is then parked and the
    close retried later.
    """
    try:
        segment.unlink()  # also unregisters from the resource tracker
    except FileNotFoundError:
        pass
    except Exception:
        pass
    if not _try_close(segment):
        with _registry_lock:
            _zombies.append(segment)


def _sweep_zombies() -> None:
    with _registry_lock:
        pending = list(_zombies)
        _zombies.clear()
    survivors = [segment for segment in pending if not _try_close(segment)]
    if survivors:
        with _registry_lock:
            _zombies.extend(survivors)


@atexit.register
def _sweep_adopted() -> None:
    """Unlink whatever is still adopted when the interpreter exits.

    Finalizers of arrays alive at shutdown may never run; the mappings die
    with the process, but the ``/dev/shm`` files would not.  (A process
    killed too hard for atexit is covered by the resource tracker
    instead.)  Mappings that still cannot close have their ``close``
    no-opped so interpreter teardown does not print spurious
    ``BufferError`` noise from ``SharedMemory.__del__``.
    """
    with _registry_lock:
        entries = list(_adopted.values())
        _adopted.clear()
    for entry in entries:
        if entry.owned:
            _destroy_segment(entry.segment)
        else:
            _try_close(entry.segment)  # the creator owns the file
    _sweep_zombies()
    with _registry_lock:
        remaining = list(_zombies)
    for segment in remaining:
        segment.close = lambda: None  # type: ignore[method-assign]


def _adopt_array(
    name: str, segment: Any, dtype: str, shape: Tuple[int, ...], offset: int
) -> np.ndarray:
    """A view of one array inside an adopted segment, finalizer attached."""
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    base = np.frombuffer(
        segment.buf, dtype=np.dtype(dtype), count=count, offset=offset
    )
    with _registry_lock:
        entry = _adopted.get(name)
        if entry is not None:
            entry.references += 1
    weakref.finalize(base, _release_view, name)
    return base.reshape(shape)


# --------------------------------------------------------------------------- #
# The handle
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SharedColumnsHandle:
    """Picklable descriptor of a columnar container parked in shared memory.

    Attributes:
        kind: ``"step"`` or ``"frame"`` — which container to rebuild.
        segment_name: the shared-memory segment holding every array.
        arrays: per-array layout ``(field, dtype, shape, byte offset)``.
        scalars: the container's non-array fields (e.g. ``node_count``).
        nbytes: total payload bytes parked in the segment (for reporting).

    Created worker-side by :func:`share_columns`; turned back into a live
    container parent-side by :meth:`adopt` (or :func:`adopt_result`).
    """

    kind: str
    segment_name: str
    arrays: Tuple[Tuple[str, str, Tuple[int, ...], int], ...]
    scalars: Dict[str, Any]
    nbytes: int

    def adopt(self, owned: bool = True) -> Any:
        """Map the segment and rebuild the container over zero-copy views.

        May be called once per handle per process.  With ``owned`` (the
        default, the worker→parent result hand-off) the adopting process
        takes over the segment's lifetime: the views keep it alive and
        the last one to die unlinks it.  With ``owned=False`` (the
        parent→worker frame hand-off) the adoption *borrows* the
        segment: the last dying view only closes this process's mapping,
        leaving the file for the creator — which can re-ship the same
        handle to a retried task and eventually disposes of it with
        :func:`discard_shared`.
        """
        _sweep_zombies()
        segment = _shared_memory().SharedMemory(name=self.segment_name)
        telemetry.metrics.counter("shm.bytes_adopted").add(self.nbytes)
        with _registry_lock:
            if self.segment_name in _adopted:
                raise ConfigurationError(
                    f"shared segment {self.segment_name} was already adopted"
                )
            _adopted[self.segment_name] = _AdoptedSegment(segment, owned=owned)
        fields = {
            field: _adopt_array(self.segment_name, segment, dtype, shape, offset)
            for field, dtype, shape, offset in self.arrays
        }
        if self.kind == "step":
            return StepColumns(
                connected=fields["connected"],
                largest_component=fields["largest_component"],
            )
        if self.kind == "frame":
            return FrameStatisticsColumns(
                node_count=int(self.scalars["node_count"]),
                critical_ranges=fields["critical_ranges"],
                curve_offsets=fields["curve_offsets"],
                curve_ranges=fields["curve_ranges"],
                curve_sizes=fields["curve_sizes"],
            )
        if self.kind == "trajectory":
            return TrajectoryFrames(frames=fields["frames"])
        raise ConfigurationError(f"unknown shared-columns kind {self.kind!r}")


def _container_arrays(columns: Any) -> Tuple[str, Dict[str, np.ndarray], Dict[str, Any]]:
    """Decompose a supported container into (kind, arrays, scalars)."""
    if isinstance(columns, StepColumns):
        return (
            "step",
            {
                "connected": columns.connected,
                "largest_component": columns.largest_component,
            },
            {},
        )
    if isinstance(columns, FrameStatisticsColumns):
        return (
            "frame",
            {
                "critical_ranges": columns.critical_ranges,
                "curve_offsets": columns.curve_offsets,
                "curve_ranges": columns.curve_ranges,
                "curve_sizes": columns.curve_sizes,
            },
            {"node_count": columns.node_count},
        )
    if isinstance(columns, TrajectoryFrames):
        return ("trajectory", {"frames": columns.frames}, {})
    raise ConfigurationError(
        f"cannot share values of type {type(columns).__name__!r}"
    )


def _align(offset: int, boundary: int = 8) -> int:
    """Round ``offset`` up to the widest dtype alignment we ship."""
    return (offset + boundary - 1) // boundary * boundary


def payload_nbytes(columns: Any) -> int:
    """Raw bytes of a container's arrays (the shared-memory footprint)."""
    _, arrays, _ = _container_arrays(columns)
    return int(sum(np.asarray(array).nbytes for array in arrays.values()))


def share_columns(columns: Any, transport: str = "auto") -> Any:
    """Park ``columns`` in a shared-memory segment, or pass it through.

    Returns a :class:`SharedColumnsHandle` when the transport decides for
    shared memory, otherwise the container itself (the pickle fallback).
    Meant to be the *last* statement of a worker-process task body; the
    parent symmetrically calls :func:`adopt_result` on what arrives.
    """
    validate_transport(transport)
    if transport == "pickle" or not isinstance(
        columns, (StepColumns, FrameStatisticsColumns, TrajectoryFrames)
    ):
        return columns
    _sweep_zombies()
    kind, arrays, scalars = _container_arrays(columns)
    # Each array starts on an 8-byte boundary: back-to-back packing would
    # hand the parent *unaligned* views (e.g. an int64 column after a
    # bool column of odd length), taxing every vectorized op downstream.
    total = 0
    for array in arrays.values():
        total = _align(total) + array.nbytes
    if transport == "auto" and total < SHM_MIN_BYTES:
        return columns
    if total == 0 or not shm_available():
        return columns
    try:
        segment = _create_segment(total)
    except Exception:
        return columns  # graceful fallback: the pickle transport always works
    layout: List[Tuple[str, str, Tuple[int, ...], int]] = []
    offset = 0
    view = None
    try:
        for field, array in arrays.items():
            contiguous = np.ascontiguousarray(array)
            offset = _align(offset)
            view = np.frombuffer(
                segment.buf, dtype=contiguous.dtype, count=contiguous.size,
                offset=offset,
            )
            view[:] = contiguous.reshape(-1)
            layout.append(
                (field, contiguous.dtype.str, tuple(contiguous.shape), offset)
            )
            offset += contiguous.nbytes
        handle = SharedColumnsHandle(
            kind=kind,
            segment_name=segment.name,
            arrays=tuple(layout),
            scalars=scalars,
            nbytes=total,
        )
        telemetry.metrics.counter("shm.bytes_parked").add(total)
    except Exception:
        view = None
        _destroy_segment(segment)
        raise
    finally:
        view = None  # release the exported buffer before closing the mapping
        segment.close()
    return handle


def adopt_result(result: Any, owned: bool = True) -> Any:
    """Receiving-side counterpart of :func:`share_columns` (pass-through safe).

    ``owned`` is forwarded to :meth:`SharedColumnsHandle.adopt`: pass
    ``False`` when the sender keeps responsibility for the segment (the
    parent→worker frame hand-off).
    """
    if isinstance(result, SharedColumnsHandle):
        return result.adopt(owned=owned)
    return result


def discard_shared(result: Any) -> None:
    """Creator-side disposal of a handle whose adoptions were borrowed.

    Unlinks the segment behind ``result`` if it is a
    :class:`SharedColumnsHandle` (pass-through values need no cleanup).
    Safe to call when the segment is already gone, and safe while a
    borrowed adopter still maps it — POSIX keeps the mapping alive until
    the adopter's views die; only the name disappears.
    """
    if not isinstance(result, SharedColumnsHandle):
        return
    try:
        segment = _shared_memory().SharedMemory(name=result.segment_name)
    except FileNotFoundError:
        return  # already unlinked (e.g. an owning adopter took it)
    except Exception:
        return
    _destroy_segment(segment)
