"""Span recorder for the traced run: wraps public functions from outside.

Nothing here edits the program.  :func:`install` replaces a fixed list of
public functions and methods (class attributes and module globals) with
timing wrappers, and :meth:`Recorder.uninstall` puts the originals back.
Every wrapper opens a frame on one stack; when a frame closes, its
duration minus the time its child frames covered is its self time, which
is charged to the frame's layer.  That is how per-layer self time is
computed: from the spans, as they close.

Spans of the coarse layer boundaries (a replication, a kernel run, a
message, an fsync, ...) are kept in memory with name, start, end, parent
and, for service spans, the request id, and are written out as JSON lines
by :meth:`Recorder.dump`.  The per-event leaves (policy callbacks and
capacity queries, millions of calls in a Table-I sweep) are folded into
their parent's child time and into per-layer totals instead of being kept
one by one, so the recorder's memory stays bounded.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import pickle
from collections import defaultdict
from pathlib import Path
from time import perf_counter

__all__ = ["Recorder", "install", "load_dump", "layer_metrics", "PER_LAYER", "EXACT"]

LAYERS = (
    "workload",
    "capacity",
    "core",
    "kernel",
    "sim",
    "experiments",
    "service",
    "store",
)

#: Every per-layer metric a traced run reports, with its unit.  A layer
#: that does not run on a workload reports 0.
PER_LAYER = {
    "workload.generate_s": "s",
    "workload.jobs": "count",
    "workload.self_s": "s",
    "capacity.query_s": "s",
    "capacity.queries": "count",
    "capacity.self_s": "s",
    "core.policy_s": "s",
    "core.policy_calls": "count",
    "core.self_s": "s",
    "kernel.self_s": "s",
    "kernel.dispatches": "count",
    "kernel.dispatch_us": "us",
    "kernel.admit_s": "s",
    "kernel.snapshot_s": "s",
    "kernel.snapshots": "count",
    "kernel.snapshot_bytes": "bytes",
    "kernel.table_rows": "count",
    "kernel.event_queue_size": "count",
    "sim.journal_append_s": "s",
    "sim.journal_records": "count",
    "sim.self_s": "s",
    "experiments.replication_s": "s",
    "experiments.runner_overhead_s": "s",
    "experiments.self_s": "s",
    "service.parse_s": "s",
    "service.ingress_s": "s",
    "service.handle_s": "s",
    "service.admission_s": "s",
    "service.persist_s": "s",
    "service.transport_ms": "ms",
    "service.self_s": "s",
    "store.append_s": "s",
    "store.appends": "count",
    "store.fsyncs": "count",
    "store.fsync_s": "s",
    "store.fsyncs_per_msg": "count",
    "store.snapshot_write_s": "s",
    "store.snapshot_bytes": "bytes",
    "store.load_s": "s",
    "store.ops_replayed": "count",
    "store.disk_bytes": "bytes",
    "store.self_s": "s",
    "trace.throughput_per_s": "1/s",
    "trace.spans": "count",
}

#: The counters that must repeat exactly across runs at one seed.
EXACT = (
    "kernel.dispatches",
    "kernel.snapshots",
    "kernel.table_rows",
    "store.fsyncs",
    "store.appends",
    "store.snapshot_bytes",
    "sim.journal_records",
)


class Recorder:
    """One process's span stack, totals and kept spans."""

    def __init__(self) -> None:
        self.stack: list = []
        self.spans: list = []
        self.calls: dict = defaultdict(int)  # span name -> calls
        self.time: dict = defaultdict(float)  # span name -> inclusive s
        self.layer_time: dict = defaultdict(float)  # outermost frames only
        self.layer_entries: dict = defaultdict(int)
        self.layer_self: dict = defaultdict(float)
        self.counters: dict = defaultdict(int)
        self._patches: list = []

    # -- frames -----------------------------------------------------------
    def _open(self, layer: str, name: str) -> list:
        frame = [layer, name, 0.0, 0.0]  # layer, name, start, child time
        self.stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def _close(self, frame: list, keep: bool, rid=None) -> float:
        end = perf_counter()
        layer, name, start, child = frame
        stack = self.stack
        if stack and stack[-1] is frame:
            stack.pop()
        else:  # interleaved coroutine frames: drop without nesting
            stack.remove(frame)
        dur = end - start
        self.calls[name] += 1
        self.time[name] += dur
        self.layer_self[layer] += dur - child
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += dur
        if parent is None or parent[0] != layer:
            self.layer_time[layer] += dur
            self.layer_entries[layer] += 1
        if keep:
            self.spans.append(
                (name, start, end, parent[1] if parent else None, rid)
            )
        return dur

    def untimed(self, fn, *args):
        """Run a measurement without charging its time to any layer: the
        open frames' starts move forward by its duration, so kept spans
        read as if the measurement had not run."""
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            dur = perf_counter() - start
            for frame in self.stack:
                frame[2] += dur

    # -- patching ---------------------------------------------------------
    def wrap(self, owner, attr, layer, name, *, keep=True, enter=None,
             leave=None, rid=None):
        """Replace ``owner.attr`` with a timing wrapper.

        ``enter(args)`` runs before the call and its result is handed to
        ``leave(token, args, result)`` after it; both run outside the
        span.  ``rid(args, result)`` names the request a service span
        belongs to."""
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        rec = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                token = enter(args) if enter else None
                frame = rec._open(layer, name)
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    rec._close(frame, keep, rid(args, result) if rid else None)
                    if leave:
                        leave(token, args, result)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                token = enter(args) if enter else None
                frame = rec._open(layer, name)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    rec._close(frame, keep, rid(args, result) if rid else None)
                    if leave:
                        leave(token, args, result)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- output -----------------------------------------------------------
    def document(self) -> dict:
        return {
            "calls": dict(self.calls),
            "time": dict(self.time),
            "layer_time": dict(self.layer_time),
            "layer_entries": dict(self.layer_entries),
            "layer_self": dict(self.layer_self),
            "counters": dict(self.counters),
            "spans": len(self.spans),
        }

    def dump(self, path: Path) -> None:
        """Write the kept spans (one JSON line each) and, last, the
        totals; atomically, so a reader never sees half a file."""
        tmp = Path(str(path) + ".tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "rid": rid}) + "\n")
            fh.write(json.dumps({"totals": self.document()}) + "\n")
        os.replace(tmp, path)


def load_dump(path: Path) -> tuple:
    """``(spans, totals)`` from a file written by :meth:`Recorder.dump`."""
    spans = []
    totals = None
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            if "totals" in doc:
                totals = doc["totals"]
            else:
                spans.append(doc)
    if totals is None:
        raise ValueError(f"{path}: span file has no totals line")
    return spans, totals


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _defining_classes(base, names) -> list:
    """``(cls, name)`` for every class in the hierarchy under ``base``
    (and their mixins) that defines one of ``names`` itself."""
    seen, out = set(), []
    for sub in _subclasses(base):
        for cls in sub.__mro__:
            if cls is object or cls in seen:
                continue
            seen.add(cls)
            for name in names:
                if name in cls.__dict__:
                    out.append((cls, name))
    return out


def install(rec: Recorder) -> Recorder:
    """Wrap the public functions of every layer (see README.md)."""
    import repro.capacity  # noqa: F401 - registers the capacity classes
    import repro.core  # noqa: F401 - registers the policies
    import repro.workload  # noqa: F401 - registers the generators
    from repro.capacity.base import CapacityFunction
    from repro.experiments import runner
    from repro.kernel.core import SchedulingKernel
    from repro.service import ingress
    from repro.service.admission import AdmissionController
    from repro.service.shard import TenantShard
    from repro.sim.journal import EventJournal
    from repro.sim.scheduler import Scheduler
    from repro.store.snapshots import SnapshotStore
    from repro.store.tenant import TenantStore
    from repro.workload.base import WorkloadGenerator

    c = rec.counters

    # workload
    def count_jobs(_t, _a, result):
        if result is not None:
            c["workload.jobs"] += len(result)

    for cls, name in _defining_classes(WorkloadGenerator, ("generate",)):
        rec.wrap(cls, name, "workload", "workload.generate", leave=count_jobs)

    # capacity and core: per-event leaves, folded into totals
    for cls, name in _defining_classes(
        CapacityFunction, ("cumulative", "advance", "advance_from", "integrate")
    ):
        rec.wrap(cls, name, "capacity", "capacity." + name, keep=False)
    for cls, name in _defining_classes(
        Scheduler, ("on_release", "on_job_end", "on_alarm", "on_timer")
    ):
        rec.wrap(cls, name, "core", "core." + name, keep=False)

    # kernel
    def before_run(args):
        return args[0].dispatch_count

    def after_run(token, args, _result):
        kernel = args[0]
        c["kernel.dispatches"] += kernel.dispatch_count - token
        c["kernel.event_queue_size"] = max(
            c["kernel.event_queue_size"], kernel.event_queue_size
        )

    for name in ("run_loop", "run_until"):
        rec.wrap(SchedulingKernel, name, "kernel", "kernel." + name,
                 enter=before_run, leave=after_run)
    rec.wrap(SchedulingKernel, "admit_job", "kernel", "kernel.admit_job")

    def after_snapshot(_t, args, snap):
        c["kernel.table_rows"] += len(args[0].table)
        c["kernel.snapshot_bytes"] += rec.untimed(
            lambda: len(pickle.dumps(snap, protocol=pickle.HIGHEST_PROTOCOL))
        )

    rec.wrap(SchedulingKernel, "snapshot", "kernel", "kernel.snapshot",
             leave=after_snapshot)

    # sim
    rec.wrap(EventJournal, "append", "sim", "sim.journal_append", keep=False)
    rec.wrap(EventJournal, "flush", "sim", "sim.journal_flush")

    # experiments
    rec.wrap(runner, "_run_one_safe", "experiments", "experiments.replication")
    rec.wrap(runner.MonteCarloRunner, "run_report", "experiments",
             "experiments.run_report")

    # service
    rec.wrap(ingress, "parse_message", "service", "service.parse")
    rec.wrap(ingress.ServiceIngress, "handle_line", "service",
             "service.handle_line",
             rid=lambda _a, ack: ack.get("request_id") if ack else None)
    rec.wrap(TenantShard, "handle", "service", "service.handle",
             rid=lambda a, _r: getattr(a[1], "rid", None))
    rec.wrap(AdmissionController, "plan", "service", "service.admission")
    rec.wrap(TenantShard, "maybe_persist", "service", "service.persist")
    rec.wrap(TenantShard, "persist_now", "service", "service.persist")

    # store
    def count_appends(_t, args, _result):
        c["store.appends"] += len(args[1])

    def count_snapshot_bytes(_t, args, _result):
        c["store.snapshot_bytes"] += len(args[1])

    def count_ops(_t, _a, result):
        c["store.ops_replayed"] += len(result or ())

    rec.wrap(TenantStore, "append_ops", "store", "store.append_ops",
             leave=count_appends)
    rec.wrap(os, "fsync", "store", "store.fsync")
    rec.wrap(SnapshotStore, "write", "store", "store.snapshot_write",
             leave=count_snapshot_bytes)
    rec.wrap(TenantStore, "load_snapshot", "store", "store.load")
    rec.wrap(TenantStore, "ops", "store", "store.load", leave=count_ops)
    return rec


def _sum(docs, key, name) -> float:
    return sum(d[key].get(name, 0) for d in docs)


def layer_metrics(docs: list, *, messages: int = 0,
                  transport_ms: float = 0.0, disk_bytes: int = 0,
                  throughput: float = 0.0) -> dict:
    """Every :data:`PER_LAYER` metric from one or more span totals
    (documents from :meth:`Recorder.document`, one per process or
    incarnation).  ``messages`` is the number of wire lines the service
    handled (the base of ``store.fsyncs_per_msg``); the client-side
    figures are measured by the workload and passed in."""
    t = lambda n: _sum(docs, "time", n)  # noqa: E731
    n = lambda n: _sum(docs, "calls", n)  # noqa: E731
    cnt = lambda n: _sum(docs, "counters", n)  # noqa: E731
    lt = lambda n: _sum(docs, "layer_time", n)  # noqa: E731
    le = lambda n: _sum(docs, "layer_entries", n)  # noqa: E731
    ls = lambda n: _sum(docs, "layer_self", n)  # noqa: E731

    dispatches = cnt("kernel.dispatches")
    run_s = t("kernel.run_loop") + t("kernel.run_until")
    fsyncs = n("store.fsync")
    out = {
        "workload.generate_s": t("workload.generate"),
        "workload.jobs": cnt("workload.jobs"),
        "capacity.query_s": lt("capacity"),
        "capacity.queries": le("capacity"),
        "core.policy_s": lt("core"),
        "core.policy_calls": le("core"),
        "kernel.dispatches": dispatches,
        "kernel.dispatch_us": 1e6 * run_s / dispatches if dispatches else 0.0,
        "kernel.admit_s": t("kernel.admit_job"),
        "kernel.snapshot_s": t("kernel.snapshot"),
        "kernel.snapshots": n("kernel.snapshot"),
        "kernel.snapshot_bytes": cnt("kernel.snapshot_bytes"),
        "kernel.table_rows": cnt("kernel.table_rows"),
        "kernel.event_queue_size": max(
            (d["counters"].get("kernel.event_queue_size", 0) for d in docs),
            default=0,
        ),
        "sim.journal_append_s": t("sim.journal_append") + t("sim.journal_flush"),
        "sim.journal_records": n("sim.journal_append"),
        "experiments.replication_s": t("experiments.replication"),
        "experiments.runner_overhead_s": max(
            0.0, t("experiments.run_report") - t("experiments.replication")
        ),
        "service.parse_s": t("service.parse"),
        "service.ingress_s": t("service.handle_line"),
        "service.handle_s": t("service.handle"),
        "service.admission_s": t("service.admission"),
        "service.persist_s": t("service.persist"),
        "service.transport_ms": transport_ms,
        "store.append_s": t("store.append_ops"),
        "store.appends": cnt("store.appends"),
        "store.fsyncs": fsyncs,
        "store.fsync_s": t("store.fsync"),
        "store.fsyncs_per_msg": fsyncs / messages if messages else 0.0,
        "store.snapshot_write_s": t("store.snapshot_write"),
        "store.snapshot_bytes": cnt("store.snapshot_bytes"),
        "store.load_s": t("store.load"),
        "store.ops_replayed": cnt("store.ops_replayed"),
        "store.disk_bytes": disk_bytes,
        "trace.throughput_per_s": throughput,
        "trace.spans": sum(d["spans"] for d in docs),
    }
    for layer in LAYERS:
        out[layer + ".self_s"] = ls(layer)
    return out
