"""In-memory span recorder for the traced benchmark run.

The benchmark instruments nothing inside ``src/``.  Instead, a traced
run replaces the public functions of each layer *at the binding their
callers look up* (a module global or a class attribute) with a wrapper
that records one span per call:

    (name, start, end, span id, parent id, pid, request id, attrs)

Spans stay in memory.  The process that installed the wrappers writes
its spans when the run ends (:meth:`Tracer.dump`); a forked pool worker
inherits the wrappers, starts with an empty buffer, and appends its
spans each time its outermost span closes (the end of one task), since
pool workers may be terminated without running exit handlers.

Self time is a span's duration minus the part of its interval that its
child spans (same process) cover; :func:`aggregate` computes it.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: (span id, request id) of the innermost open span in this context.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)

Attrs = Optional[Callable[[tuple, dict, Any], Dict[str, Any]]]


class Tracer:
    """Span buffer of one process tree; see the module docstring."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.origin = os.getpid()
        self.pid = self.origin
        self.records: List[list] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.records = []
        _CURRENT.set(None)

    # ------------------------------------------------------------------ #
    def _open(self, request_root: bool) -> Tuple[str, Optional[str], Optional[int], Any]:
        outer = _CURRENT.get()
        span_id = f"{self.pid}:{next(self._ids)}"
        parent, request = (None, None) if outer is None else outer
        if request_root:
            request = next(self._requests)
        token = _CURRENT.set((span_id, request))
        return span_id, parent, request, token

    def _close(self, name, start, span_id, parent, request, token, attrs) -> None:
        end = time.perf_counter()
        _CURRENT.reset(token)
        self.records.append(
            [name, start, end, span_id, parent, self.pid, request, attrs]
        )
        if parent is None and self.pid != self.origin:
            self.dump()

    def wrap(
        self,
        name: str,
        function: Callable,
        attrs: Attrs = None,
        request_root: bool = False,
    ) -> Callable:
        """A recording wrapper around ``function`` (sync or async)."""
        tracer = self

        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def async_wrapper(*args, **kwargs):
                span_id, parent, request, token = tracer._open(request_root)
                start = time.perf_counter()
                values = None
                try:
                    result = await function(*args, **kwargs)
                    values = attrs(args, kwargs, result) if attrs else None
                    return result
                finally:
                    tracer._close(
                        name, start, span_id, parent, request, token, values
                    )

            return async_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span_id, parent, request, token = tracer._open(request_root)
            start = time.perf_counter()
            values = None
            try:
                result = function(*args, **kwargs)
                values = attrs(args, kwargs, result) if attrs else None
                return result
            finally:
                tracer._close(name, start, span_id, parent, request, token, values)

        return wrapper

    def dump(self) -> None:
        """Append this process's buffered spans to its own file."""
        if not self.records:
            return
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as sink:
            for record in self.records:
                sink.write(json.dumps(record) + "\n")
        self.records = []


# ---------------------------------------------------------------------- #
# Reading and reducing spans
# ---------------------------------------------------------------------- #
def load_spans(out_dir: Path) -> List[list]:
    spans: List[list] = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as source:
            spans.extend(json.loads(line) for line in source if line.strip())
    return spans


def covered(interval: Tuple[float, float], children: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    low, high = interval
    total = 0.0
    reach = low
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def aggregate(spans: List[list]) -> Dict[str, Dict[str, Any]]:
    """Per span name: calls, total duration, self time, and the spans.

    Returns ``{name: {"calls", "s", "self_s", "items"}}`` where ``items``
    are per-span dicts with ``dur``, ``self``, ``attrs``, ``parent_name``
    and ``pid``.
    """
    by_id: Dict[str, list] = {}
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        by_id[span[3]] = span
    for span in spans:
        parent = span[4]
        if parent is not None and parent in by_id:
            children[parent].append((span[1], span[2]))
    table: Dict[str, Dict[str, Any]] = {}
    for name, start, end, span_id, parent, pid, _request, attrs in spans:
        duration = end - start
        own = duration - covered((start, end), children.get(span_id, ()))
        entry = table.setdefault(
            name, {"calls": 0, "s": 0.0, "self_s": 0.0, "items": []}
        )
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += own
        entry["items"].append(
            {
                "dur": duration,
                "self": own,
                "attrs": attrs or {},
                "parent_name": by_id[parent][0] if parent in by_id else None,
                "pid": pid,
            }
        )
    return table
