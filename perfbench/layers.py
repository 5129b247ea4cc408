"""Which public functions the traced run wraps, and the per-layer table.

Each layer of ``repro`` is entered through a few public functions.  A
traced run patches every binding a caller looks up (see
:mod:`tracer`): one wrapper object per function, set on every module
or class that holds it, so pickling a wrapped function by name (the
pool submits ``measure_row`` that way) still finds the same object.

:func:`layer_metrics` reduces the recorded spans to the ``per_layer``
metrics of ``BENCHMARK.json``.  Every workload reports every metric; a
layer a workload never enters reports 0.
"""

from __future__ import annotations

import json
import pickle
import statistics
from typing import Any, Dict, List

from tracer import Tracer, aggregate


def _bind(tracer: Tracer, name: str, owners: List[Any], attribute: str,
          attrs=None, request_root: bool = False) -> None:
    first = owners[0]
    original = (
        first.__dict__[attribute] if isinstance(first, type)
        else getattr(first, attribute)
    )
    wrapper = tracer.wrap(name, original, attrs=attrs, request_root=request_root)
    for owner in owners:
        setattr(owner, attribute, wrapper)


def _mst_attrs(args, kwargs, result) -> Dict[str, Any]:
    batch, n = args[0].shape[0], args[0].shape[1]
    # The kernel materialises a (B, n, n) float64 squared-distance stack.
    return {"frames": int(batch), "bytes": int(batch) * int(n) * int(n) * 8}


def _stationary_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {
        "key": json.dumps([list(args), sorted(kwargs.items())], default=str),
        "placements": int(kwargs.get("iterations", args[4] if len(args) > 4 else 100)),
    }


def install_store(tracer: Tracer) -> None:
    from repro.campaigns import completeness
    from repro.campaigns import runner as campaign_runner
    from repro.store import checkpoints, result_store
    from repro.store.result_store import ResultStore

    _bind(tracer, "store.put", [ResultStore], "put")
    _bind(tracer, "store.get", [ResultStore], "get")
    _bind(tracer, "store.contains", [ResultStore], "contains")
    _bind(tracer, "store.encode", [result_store], "encode_payload",
          attrs=lambda a, k, r: {"bytes": len(r[2])})
    _bind(tracer, "store.decode", [result_store], "decode_payload",
          attrs=lambda a, k, r: {"bytes": len(a[1])})
    _bind(tracer, "store.cache_key",
          [checkpoints, campaign_runner, completeness], "cache_key")


def install_telemetry(tracer: Tracer) -> None:
    import repro.telemetry
    from repro.telemetry import tracing

    _bind(tracer, "telemetry.flush", [tracing, repro.telemetry], "flush")


def install_campaign(tracer: Tracer) -> None:
    """Wrap every layer a ``campaign run`` passes through."""
    from repro import supervision
    from repro.campaigns import scheduler
    from repro.campaigns.runner import CampaignRunner
    from repro.experiments import figures
    from repro.mobility.base import MobilityModel
    from repro.simulation import engine, runner, sharding, sweep

    _bind(tracer, "connectivity.mst_batch", [engine],
          "minimum_spanning_edges_batch", attrs=_mst_attrs)
    pending = [MobilityModel]
    while pending:
        model = pending.pop()
        pending.extend(model.__subclasses__())
        if "trajectory" in model.__dict__:
            _bind(tracer, "mobility.trajectory", [model], "trajectory",
                  attrs=lambda a, k, r: {"frames": int(r.shape[0])})
    _bind(tracer, "simulation.frame_columns", [engine], "frame_statistics_columns")
    for function in ("reduce_frame_statistics", "reduce_frames_statistics"):
        _bind(tracer, "simulation.reduce", [engine, sharding], function)
    _bind(tracer, "simulation.stationary", [figures], "stationary_critical_range",
          attrs=_stationary_attrs)
    _bind(tracer, "simulation.collect", [runner, figures],
          "collect_frame_statistics",
          attrs=lambda a, k, r: {"iterations": int(a[0].iterations)})
    for function in (
        "estimate_thresholds_from_statistics",
        "estimate_component_thresholds_from_statistics",
        "average_component_fraction_at_range",
    ):
        _bind(tracer, "simulation.thresholds", [figures], function)
    _bind(tracer, "simulation.measure_row", [sweep, scheduler], "measure_row",
          attrs=lambda a, k, r: {"bytes": len(pickle.dumps(r))})
    _bind(tracer, "campaigns.probe", [CampaignRunner], "probe_sweep",
          attrs=lambda a, k, r: {"hit": r is not None})
    _bind(tracer, "campaigns.run", [CampaignRunner], "run")
    _bind(tracer, "supervision.wait", [supervision], "wait")
    install_store(tracer)
    install_telemetry(tracer)


def install_query(tracer: Tracer) -> None:
    """Wrap every layer an ``/ask`` passes through in ``query serve``."""
    from repro.distributed.queue import WorkQueue
    from repro.query import service
    from repro.query.http import QueryHTTPServer
    from repro.query.service import QueryService

    _bind(tracer, "query.http", [QueryHTTPServer], "_handle", request_root=True)
    _bind(tracer, "query.ask", [QueryService], "ask")
    _bind(tracer, "query.resolve", [service], "resolve")
    _bind(tracer, "query.fit_row", [service], "fit_row")
    _bind(tracer, "query.blend_rows", [service], "blend_rows")
    _bind(tracer, "query.completeness", [service], "cell_completeness")
    _bind(tracer, "distributed.queue.add", [WorkQueue], "add")
    install_store(tracer)
    install_telemetry(tracer)


# ---------------------------------------------------------------------- #
# The per-layer table
# ---------------------------------------------------------------------- #
#: (metric name, unit, better) — the ``per_layer`` list of BENCHMARK.json.
PER_LAYER = [
    ("connectivity.mst_batch.calls", "count", "lower"),
    ("connectivity.mst_batch.frames", "count", "higher"),
    ("connectivity.mst_batch.frames_per_call", "ratio", "higher"),
    ("connectivity.mst_batch.self_s", "s", "lower"),
    ("connectivity.mst_batch.bytes_computed", "bytes", "lower"),
    ("mobility.trajectory.calls", "count", "lower"),
    ("mobility.trajectory.frames", "count", "higher"),
    ("mobility.trajectory.self_s", "s", "lower"),
    ("simulation.frame_columns.self_s", "s", "lower"),
    ("simulation.reduce.self_s", "s", "lower"),
    ("simulation.stationary.calls", "count", "lower"),
    ("simulation.stationary.placements", "count", "lower"),
    ("simulation.stationary.s", "s", "lower"),
    ("simulation.stationary.repeat_ratio", "ratio", "lower"),
    ("simulation.collect.calls", "count", "lower"),
    ("simulation.collect.iterations", "count", "lower"),
    ("simulation.collect.s", "s", "lower"),
    ("simulation.thresholds.self_s", "s", "lower"),
    ("simulation.measure_row.calls", "count", "lower"),
    ("simulation.measure_row.s", "s", "lower"),
    ("store.put.calls", "count", "lower"),
    ("store.put.bytes", "bytes", "lower"),
    ("store.put.self_s", "s", "lower"),
    ("store.get.calls", "count", "lower"),
    ("store.get.bytes", "bytes", "lower"),
    ("store.get.self_s", "s", "lower"),
    ("store.contains.calls", "count", "lower"),
    ("store.encode.calls", "count", "lower"),
    ("store.encode.bytes", "bytes", "lower"),
    ("store.encode.self_s", "s", "lower"),
    ("store.decode.calls", "count", "lower"),
    ("store.decode.bytes", "bytes", "lower"),
    ("store.decode.self_s", "s", "lower"),
    ("store.cache_key.calls", "count", "lower"),
    ("store.cache_key.self_s", "s", "lower"),
    ("campaigns.probe.hits", "count", "higher"),
    ("campaigns.probe.misses", "count", "lower"),
    ("campaigns.run.self_s", "s", "lower"),
    ("supervision.wait_s", "s", "lower"),
    ("supervision.retries", "count", "lower"),
    ("transport.bytes", "bytes", "lower"),
    ("telemetry.flush.calls", "count", "lower"),
    ("telemetry.flush.self_s", "s", "lower"),
    ("query.ask.calls", "count", "higher"),
    ("query.ask.self_s", "s", "lower"),
    ("query.resolve.calls", "count", "lower"),
    ("query.resolve.self_s", "s", "lower"),
    ("query.fit_row.calls", "count", "lower"),
    ("query.fit_row.self_s", "s", "lower"),
    ("query.blend_rows.calls", "count", "lower"),
    ("query.blend_rows.self_s", "s", "lower"),
    ("query.completeness.calls", "count", "lower"),
    ("query.completeness.self_s", "s", "lower"),
    ("query.hot_hit_ratio", "ratio", "higher"),
    ("query.cold_loads", "count", "lower"),
    ("query.evictions", "count", "lower"),
    ("query.http_overhead_ms", "ms", "lower"),
    ("distributed.queue.add.calls", "count", "lower"),
    ("distributed.queue.add.self_s", "s", "lower"),
    ("query.refine_dedup_ratio", "ratio", "higher"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("loadgen.sent", "count", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: List[list], extra: Dict[str, float]) -> Dict[str, float]:
    """The ``per_layer`` values from spans plus run-level ``extra`` values.

    ``extra`` supplies what spans cannot: the program's own counters
    (``supervision.retries``, ``query.*`` cache counters), the load
    generator's numbers and ``trace.overhead_frac``.
    """
    table = aggregate(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "items": []}

    def layer(name: str) -> Dict[str, Any]:
        return table.get(name, empty)

    def attr_sum(name: str, key: str, where=lambda item: True) -> float:
        return float(
            sum(item["attrs"].get(key, 0) for item in layer(name)["items"] if where(item))
        )

    values: Dict[str, float] = {}
    for name in (
        "connectivity.mst_batch", "mobility.trajectory", "simulation.frame_columns",
        "simulation.reduce", "simulation.thresholds", "store.put", "store.get",
        "store.encode", "store.decode", "store.cache_key", "campaigns.run",
        "telemetry.flush", "query.ask", "query.resolve", "query.fit_row",
        "query.blend_rows", "query.completeness", "distributed.queue.add",
    ):
        values[f"{name}.calls"] = float(layer(name)["calls"])
        values[f"{name}.self_s"] = layer(name)["self_s"]
    mst = layer("connectivity.mst_batch")
    values["connectivity.mst_batch.frames"] = attr_sum("connectivity.mst_batch", "frames")
    values["connectivity.mst_batch.frames_per_call"] = _ratio(
        values["connectivity.mst_batch.frames"], mst["calls"]
    )
    values["connectivity.mst_batch.bytes_computed"] = attr_sum(
        "connectivity.mst_batch", "bytes"
    )
    # Nested trajectory calls (a model delegating to another) count once.
    values["mobility.trajectory.frames"] = attr_sum(
        "mobility.trajectory", "frames",
        where=lambda item: item["parent_name"] != "mobility.trajectory",
    )
    stationary = layer("simulation.stationary")
    values["simulation.stationary.calls"] = float(stationary["calls"])
    values["simulation.stationary.placements"] = attr_sum(
        "simulation.stationary", "placements"
    )
    values["simulation.stationary.s"] = stationary["s"]
    distinct = {item["attrs"].get("key") for item in stationary["items"]}
    values["simulation.stationary.repeat_ratio"] = _ratio(
        stationary["calls"], len(distinct)
    )
    collect = layer("simulation.collect")
    values["simulation.collect.calls"] = float(collect["calls"])
    values["simulation.collect.iterations"] = attr_sum("simulation.collect", "iterations")
    values["simulation.collect.s"] = collect["s"]
    rows = layer("simulation.measure_row")
    values["simulation.measure_row.calls"] = float(rows["calls"])
    values["simulation.measure_row.s"] = rows["s"]
    values["store.put.bytes"] = attr_sum("store.encode", "bytes")
    values["store.get.bytes"] = attr_sum("store.decode", "bytes")
    values["store.encode.bytes"] = values["store.put.bytes"]
    values["store.decode.bytes"] = values["store.get.bytes"]
    values["store.contains.calls"] = float(layer("store.contains")["calls"])
    probes = layer("campaigns.probe")["items"]
    values["campaigns.probe.hits"] = float(sum(1 for item in probes if item["attrs"].get("hit")))
    values["campaigns.probe.misses"] = float(len(probes) - values["campaigns.probe.hits"])
    values["supervision.wait_s"] = layer("supervision.wait")["s"]
    # Rows returned by pool workers cross the transport pickled.
    run_pids = {item["pid"] for item in layer("campaigns.run")["items"]}
    values["transport.bytes"] = attr_sum(
        "simulation.measure_row", "bytes",
        where=lambda item: item["pid"] not in run_pids,
    )
    asks = [item["dur"] for item in layer("query.ask")["items"]]
    client_ms = extra.pop("client_service_ms", None)
    values["query.http_overhead_ms"] = (
        client_ms - statistics.fmean(asks) * 1000.0 if asks and client_ms else 0.0
    )
    values["query.refine_dedup_ratio"] = _ratio(
        extra.pop("refine_answers", 0.0), values["distributed.queue.add.calls"]
    )
    values["query.cold_loads"] = (
        values["store.get.calls"] if layer("query.ask")["calls"] else 0.0
    )
    for name, _, _ in PER_LAYER:
        values.setdefault(name, float(extra.get(name, 0.0)))
    return {name: values[name] for name, _, _ in PER_LAYER}
