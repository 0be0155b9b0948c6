"""Per-layer tracing from the benchmark's own files.

A traced process calls :func:`install` with its role; every public
function of each layer is then wrapped in a span that records the
layer's *self time* (the span's duration minus the time its child spans
on the same thread cover), its inclusive time and its call count.  Spans
are kept in per-thread tables and read out once, at the end of the run.
The program itself is not modified: wrapping rebinds module attributes
and class attributes of the already-imported :mod:`repro` modules.

Counts the program already keeps come from its own :mod:`repro.obs`
counters (``tracing(MemorySink())``) and are merged in by the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable


class LayerTracer:
    """Self time, inclusive time and calls per layer, per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []

    def _table(self) -> dict:
        table = getattr(self._local, "table", None)
        if table is None:
            table = {
                "thread": threading.current_thread().name,
                "stack": [],
                "self": defaultdict(float),
                "total": defaultdict(float),
                "calls": defaultdict(int),
                "values": defaultdict(float),
            }
            self._local.table = table
            with self._lock:
                self._tables.append(table)
        return table

    def wrap(self, layer: str, fn: Callable, observe: Callable | None = None) -> Callable:
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                table = tracer._table()
                stack = table["stack"]
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    out = await fn(*args, **kwargs)
                finally:
                    tracer._close(table, stack, layer, perf_counter() - t0)
                if observe is not None:
                    observe(table["values"], args, out)
                return out

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table = tracer._table()
            stack = table["stack"]
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(table, stack, layer, perf_counter() - t0)
            if observe is not None:
                observe(table["values"], args, out)
            return out

        return wrapper

    @staticmethod
    def _close(table: dict, stack: list, layer: str, dt: float) -> None:
        child = stack.pop()
        table["self"][layer] += dt - child
        table["total"][layer] += dt
        table["calls"][layer] += 1
        if stack:
            stack[-1] += dt

    def snapshot(self) -> dict:
        """Totals over every thread, plus the per-thread self time."""
        out = {
            "self": defaultdict(float),
            "total": defaultdict(float),
            "calls": defaultdict(int),
            "values": defaultdict(float),
            "threads": [],
        }
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key in ("self", "total", "calls", "values"):
                for name, value in list(table[key].items()):
                    out[key][name] += value
            out["threads"].append(
                {"thread": table["thread"], "self": dict(table["self"])}
            )
        return {k: (dict(v) if isinstance(v, defaultdict) else v) for k, v in out.items()}


# ----------------------------------------------------------------------
# Layer maps: (object path, attribute, layer, observer)
# ----------------------------------------------------------------------


def _count_bytes(values, args, out) -> None:
    """Wire payload bytes per decoded element (ingest requests)."""
    payload = args[0]
    values["proto.payload_bytes"] += len(payload)
    decoded = out[-1] if isinstance(out, tuple) else out
    values["proto.payload_elements"] += int(decoded.size)


def _count_split(values, args, out) -> None:
    sizes = [int(part.size) for part in out]
    total = sum(sizes)
    if total:
        values["router.skew_sum"] += max(sizes) / total * len(sizes)
        values["router.splits"] += 1


def _count_compacted(values, args, out) -> None:
    if out[1]:
        values["registry.compactions"] += 1


_CORE = [
    ("repro.core.summary.OPAQSummary", "__init__", "core.summary_init", None),
    ("repro.core.quantile_phase", "bounds_arrays", "core.bounds", None),
    ("repro.core.quantile_phase", "bounds_for", "core.bounds", None),
    ("repro.core.quantile_phase", "quantile_bounds", "core.bounds", None),
    ("repro.core.estimator.OPAQ", "summarize", "core.summarize", None),
    ("repro.selection.kernels", "multiselect_numpy", "selection.multiselect", None),
    ("repro.selection.multiselect", "multiselect", "selection.multiselect", None),
    ("repro.selection.strategies.NumpyPartitionStrategy", "multiselect",
     "selection.multiselect", None),
    ("repro.selection.kway_merge", "kway_merge", "selection.kway_merge", None),
    ("repro.selection.kway_merge", "merge_two_with_payload", "selection.merge_two", None),
    ("repro.storage.datafile.DiskDataset", "read_range", "storage.read", None),
]

_SERVER = _CORE + [
    ("repro.service.aio.AsyncServiceServer", "_dispatch", "aio.dispatch", None),
    ("repro.service.aio.AsyncServiceServer", "_blocking", "aio.offload_wait", None),
    ("repro.service.proto", "parse_header", "proto.decode", None),
    ("repro.service.proto", "decode_ingest_request", "proto.decode", _count_bytes),
    ("repro.service.proto", "decode_ingest_keyed_request", "proto.decode", _count_bytes),
    ("repro.service.proto", "decode_quantiles_request", "proto.decode", None),
    ("repro.service.proto", "decode_quantiles_keyed_request", "proto.decode", None),
    ("repro.service.proto", "encode_frame", "proto.encode", None),
    ("repro.service.proto", "encode_ingest_reply", "proto.encode", None),
    ("repro.service.proto", "encode_ingest_keyed_reply", "proto.encode", None),
    ("repro.service.proto", "encode_quantiles_reply", "proto.encode", None),
    ("repro.service.proto", "encode_quantiles_keyed_reply", "proto.encode", None),
    ("repro.service.proto", "encode_snapshot_reply", "proto.encode", None),
    ("repro.service.engine.QuantileService", "ingest", "engine", None),
    ("repro.service.engine.QuantileService", "ingest_keyed", "engine", None),
    ("repro.service.engine.QuantileService", "quantiles_keyed", "engine", None),
    ("repro.service.engine.QuantileService", "query_arrays", "engine", None),
    ("repro.service.engine.QuantileService", "snapshot", "engine", None),
    ("repro.service.router.ShardRouter", "split", "router.split", _count_split),
    ("repro.service.shard.ShardWorker", "submit", "shard.submit_wait", None),
    ("repro.service.shard.ShardWorker", "finish_flush", "shard.flush_wait", None),
    ("repro.service.shard.ShardWorker", "_fold", "shard.fold", None),
    ("repro.service.snapshot.Snapshotter", "run_epoch", "snapshot.merge", None),
    ("repro.service.snapshot.Snapshotter", "restore", "snapshot.restore", None),
    ("repro.service.snapshot.SnapshotStore", "save", "snapshot.persist", None),
    ("repro.service.tenancy.registry.SummaryRegistry", "ingest_frame",
     "registry.ingest_frame", None),
    ("repro.service.tenancy.registry.SummaryRegistry", "quantiles", "registry.query", None),
    ("repro.service.tenancy.registry.SummaryRegistry", "_fold_entry_locked",
     "registry.fold", None),
    ("repro.service.tenancy.store.SpillStore", "spill", "store.spill", None),
    ("repro.service.tenancy.store.SpillStore", "restore", "store.restore", None),
    ("repro.service.tenancy.store.SpillStore", "__init__", "store.replay", None),
    ("repro.service.tenancy.tree.AggregationTree", "absorb", "tree.absorb", None),
    ("repro.service.tenancy.tree.AggregationTree", "absorb_metric", "tree.absorb", None),
    ("repro.service.tenancy.tree.AggregationTree", "global_summary", "tree.rollup", None),
    ("repro.service.tenancy.tree.AggregationTree", "metric_summary", "tree.rollup", None),
    ("repro.portfolio.opaq", "exact_delta", "portfolio.opaq.exact_delta", None),
    ("repro.portfolio.opaq", "compact_within_budget", "portfolio.opaq.compact",
     _count_compacted),
    ("repro.portfolio.opaq.OpaqKeyState", "absorb", "portfolio.opaq.absorb", None),
    ("repro.portfolio.gk.GKSummary", "absorb", "portfolio.gk.absorb", None),
    ("repro.portfolio.kll.KLLSummary", "absorb", "portfolio.kll.absorb", None),
]

_CLIENT = [
    ("repro.service.client.ServiceClient", "ingest", "client.call", None),
    ("repro.service.client.ServiceClient", "ingest_keyed", "client.call", None),
    ("repro.service.client.ServiceClient", "quantiles", "client.call", None),
    ("repro.service.client.ServiceClient", "quantiles_keyed", "client.call", None),
    ("repro.service.client.ServiceClient", "snapshot", "client.call", None),
    ("repro.service.client", "_as_keyed_frame", "client.encode", None),
    ("repro.service.proto", "encode_frame", "client.encode", None),
    ("repro.service.proto", "encode_ingest_request", "client.encode", None),
    ("repro.service.proto", "encode_ingest_keyed_request", "client.encode", None),
    ("repro.service.proto", "encode_quantiles_request", "client.encode", None),
    ("repro.service.proto", "encode_quantiles_keyed_request", "client.encode", None),
    ("repro.service.client._BinaryTransport", "_send_frames", "client.wait", None),
    ("repro.service.client._BinaryTransport", "_recv_exactly", "client.wait", None),
    ("repro.service.proto", "parse_header", "client.decode", None),
    ("repro.service.proto", "decode_ingest_reply", "client.decode", None),
    ("repro.service.proto", "decode_ingest_keyed_reply", "client.decode", None),
    ("repro.service.proto", "decode_quantiles_reply", "client.decode", None),
    ("repro.service.proto", "decode_quantiles_keyed_reply", "client.decode", None),
    ("repro.service.proto", "decode_snapshot_reply", "client.decode", None),
]

ROLES = {"onepass": _CORE, "server": _SERVER, "client": _CLIENT}


def _resolve(path: str) -> object:
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(path)


def install(tracer: LayerTracer, role: str) -> Callable[[], None]:
    """Wrap every layer function of ``role``; returns the undo callable.

    A module-level function is rebound wherever a :mod:`repro` module
    holds it (``from x import f`` copies the reference), so the wrapper
    sees every call, not only those through its home module.
    """
    undo: list[tuple[object, str, object]] = []
    for path, attr, layer, observe in ROLES[role]:
        owner = _resolve(path)
        if inspect.isclass(owner):
            original = owner.__dict__[attr]
            undo.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(layer, original, observe))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(layer, original, observe)
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapped)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def import_program() -> None:
    """Import every module a role wraps (the CLI imports the service
    lazily; wrapping needs the modules loaded first)."""
    for module in (
        "repro",
        "repro.cli",
        "repro.service",
        "repro.service.aio",
        "repro.service.client",
        "repro.service.tenancy",
        "repro.portfolio",
    ):
        importlib.import_module(module)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

#: name -> unit, in report order.  Every workload prints every metric;
#: a layer a workload bypasses reads 0 there (and must: see BYPASSES).
PER_LAYER_UNITS = {
    "storage.read_s": "s",
    "storage.bytes_per_element": "B/element",
    "selection.multiselect_s": "s",
    "selection.comparisons": "count",
    "selection.kway_merge_s": "s",
    "selection.merge_two_s": "s",
    "selection.merge_two_calls": "count",
    "core.summarize_s": "s",
    "core.summary_init_s": "s",
    "core.summary_inits": "count",
    "core.bounds_s": "s",
    "portfolio.opaq.exact_delta_s": "s",
    "portfolio.opaq.absorb_s": "s",
    "portfolio.opaq.compact_s": "s",
    "portfolio.gk.absorb_s": "s",
    "portfolio.kll.absorb_s": "s",
    "client.encode_s": "s",
    "client.wait_s": "s",
    "client.decode_s": "s",
    "proto.decode_s": "s",
    "proto.encode_s": "s",
    "proto.bytes_per_element": "B/element",
    "aio.offload_wait_s": "s",
    "aio.dispatch_s": "s",
    "engine_s": "s",
    "router.split_s": "s",
    "router.skew": "ratio",
    "shard.submit_wait_s": "s",
    "shard.flush_wait_s": "s",
    "shard.fold_s": "s",
    "shard.folds": "count",
    "snapshot.merge_s": "s",
    "snapshot.persist_s": "s",
    "snapshot.restore_s": "s",
    "registry.ingest_frame_s": "s",
    "registry.query_s": "s",
    "registry.fold_s": "s",
    "registry.folds": "count",
    "registry.compactions": "count",
    "registry.evictions": "count",
    "registry.resident_hit_ratio": "fraction",
    "store.spill_s": "s",
    "store.restore_s": "s",
    "store.replay_s": "s",
    "store.bytes_per_element": "B/element",
    "tree.absorb_s": "s",
    "tree.rollup_s": "s",
    "trace.coverage": "fraction",
    "trace.overhead_ratio": "ratio",
}

#: Layers (by wrapped-call count) each workload must reach ...
EXERCISES = {
    "disk_onepass": [
        "storage.read", "selection.multiselect", "selection.kway_merge",
        "core.summarize", "core.summary_init", "core.bounds",
    ],
    "wire_stream": [
        "client.encode", "client.wait", "client.decode", "proto.decode",
        "proto.encode", "aio.dispatch", "aio.offload_wait", "router.split",
        "shard.submit_wait", "shard.fold", "selection.multiselect",
        "selection.merge_two", "snapshot.merge", "snapshot.persist",
        "snapshot.restore", "core.bounds",
    ],
    "wire_keyed": [
        "client.encode", "client.wait", "client.decode", "proto.decode",
        "proto.encode", "aio.dispatch", "aio.offload_wait",
        "registry.ingest_frame", "registry.query", "registry.fold",
        "store.spill", "store.restore", "store.replay", "tree.absorb",
        "tree.rollup", "portfolio.opaq.exact_delta", "portfolio.opaq.absorb",
        "portfolio.gk.absorb", "portfolio.kll.absorb", "selection.merge_two",
        "core.summary_init", "core.bounds",
    ],
}

#: ... and the layers it must not reach.
BYPASSES = {
    "disk_onepass": [
        "client.call", "client.encode", "client.wait", "client.decode",
        "proto.decode", "proto.encode", "aio.dispatch", "aio.offload_wait",
        "engine", "router.split", "shard.submit_wait", "shard.fold",
        "snapshot.merge", "snapshot.persist", "snapshot.restore",
        "registry.ingest_frame", "registry.query", "registry.fold",
        "store.spill", "store.restore", "store.replay", "tree.absorb",
        "tree.rollup", "portfolio.opaq.exact_delta", "portfolio.opaq.absorb",
        "portfolio.gk.absorb", "portfolio.kll.absorb",
    ],
    "wire_stream": [
        "storage.read", "registry.ingest_frame", "registry.query",
        "registry.fold", "store.spill", "store.restore", "store.replay",
        "tree.absorb", "tree.rollup", "portfolio.opaq.exact_delta",
        "portfolio.opaq.absorb", "portfolio.gk.absorb", "portfolio.kll.absorb",
    ],
    # Start-up calls Snapshotter.restore once even without a snapshot
    # directory, so only the epoch path is listed here.
    "wire_keyed": [
        "storage.read", "router.split", "shard.submit_wait", "shard.fold",
        "snapshot.merge", "snapshot.persist", "core.summarize",
    ],
}


def check_reach(workload: str, calls: dict[str, int]) -> list[str]:
    """Exercise and bypass violations for one traced run."""
    problems = [
        f"{workload} must exercise {layer} but made 0 calls"
        for layer in EXERCISES[workload]
        if calls.get(layer, 0) == 0
    ]
    problems += [
        f"{workload} must bypass {layer} but made {calls[layer]} calls"
        for layer in BYPASSES[workload]
        if calls.get(layer, 0) > 0
    ]
    return problems


def merge_dumps(*dumps: dict) -> dict:
    """Sum several processes' tracer snapshots."""
    out = {"self": defaultdict(float), "total": defaultdict(float),
           "calls": defaultdict(int), "values": defaultdict(float)}
    for dump in dumps:
        for key in out:
            for name, value in dump.get(key, {}).items():
                out[key][name] += value
    return {k: dict(v) for k, v in out.items()}


def per_layer_metrics(
    dump: dict,
    counters: dict[str, float],
    extra: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric from a merged dump, the program's own
    :mod:`repro.obs` counter totals and workload-computed values."""
    self_s = dump["self"]
    total_s = dump["total"]
    calls = dump["calls"]
    values = dump["values"]

    def s(layer: str) -> float:
        return float(self_s.get(layer, 0.0))

    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    for name in PER_LAYER_UNITS:
        if name.endswith("_s"):
            metrics[name] = s(name[:-2])
    # Background busy time: a fold's inclusive duration, not its self time.
    metrics["shard.fold_s"] = float(total_s.get("shard.fold", 0.0))
    metrics["selection.comparisons"] = float(counters.get("selection.comparisons", 0))
    metrics["selection.merge_two_calls"] = float(calls.get("selection.merge_two", 0))
    metrics["core.summary_inits"] = float(calls.get("core.summary_init", 0))
    metrics["shard.folds"] = float(calls.get("shard.fold", 0))
    metrics["registry.folds"] = float(
        sum(v for k, v in counters.items() if k.startswith("service.tenancy.fold."))
    )
    metrics["registry.compactions"] = float(values.get("registry.compactions", 0))
    metrics["registry.evictions"] = float(counters.get("service.tenancy.evict", 0))
    if values.get("proto.payload_elements"):
        metrics["proto.bytes_per_element"] = (
            values["proto.payload_bytes"] / values["proto.payload_elements"]
        )
    if values.get("router.splits"):
        metrics["router.skew"] = values["router.skew_sum"] / values["router.splits"]
    metrics.update(extra)
    return metrics


def coverage(dump_threads: list[dict], thread_name: str, wall: float) -> float:
    """Summed self time of one thread's spans over the loop's wall time."""
    covered = sum(
        sum(t["self"].values()) for t in dump_threads if t["thread"] == thread_name
    )
    return covered / wall
