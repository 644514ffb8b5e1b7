"""Tenant shards: one live, restartable scheduling kernel per tenant.

A :class:`TenantShard` is the synchronous, deterministic heart of the
service — the asyncio layers (:mod:`repro.service.supervisor`,
:mod:`repro.service.ingress`) only route messages to it.  Each shard
wraps a :class:`~repro.sim.engine.SimulationEngine` driven
*incrementally* through the kernel's service-mode API
(``start``/``admit_job``/``run_until``) instead of a closed-horizon
``run()``:

* **submissions** buffer into contention groups (one release instant per
  group); when a group flushes, the kernel first dispatches everything
  strictly before the release, then the
  :class:`~repro.service.admission.AdmissionController` decides the
  group against the live backlog, and survivors are admitted in
  submission order;
* **fault injections** push recorded ``kill``/``evict`` events (exact
  payloads kept for the replay), and ``crash`` raises a genuine
  :class:`~repro.errors.SimulatedCrash` carrying the last periodic
  snapshot — the supervisor's restart ladder takes it from there;
* **recovery** rebuilds a fresh engine with exactly the jobs the
  snapshot knows, restores it (which re-verifies the journal tail), and
  re-applies the shard's op log — admissions and fault pushes recorded
  with the dispatch count at which they were applied; ops at or past the
  snapshot's dispatch count are exactly the ones the snapshot cannot
  know about.

Replay equivalence is the design invariant: the accepted jobs (in
admission order), the spec-built world, and the recorded fault pushes,
re-run through the closed-horizon engine, must reproduce the service
journal and result bit-identically (:mod:`repro.service.replay`).

With a :class:`~repro.store.tenant.TenantStore` attached the shard is
also *durable*: every admission/shed/push decision is fsynced into the
store's op log **before** the kernel sees it (write-ahead), periodic
kernel snapshots are committed as manifest-anchored state images, and
``TenantShard(spec, store=..., resume=True)`` rebuilds the exact live
state from disk after a ``SIGKILL`` — the cold-start half of
:meth:`repro.service.supervisor.ScheduleService.cold_start`.  The op
log is the one record of decided history: a snapshot payload holds the
kernel image and the counters no op record carries, never a copy of
the decisions, and the cold start rebuilds the books by folding the
whole log.  Client ``request_id`` strings ride along into the op log,
so a traffic log replayed against a cold-started shard acks duplicates
instead of double-admitting.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs as _obs
from repro.obs.telemetry import SloTracker, WindowRing
from repro.capacity.base import CapacityFunction
from repro.capacity.markov import TwoStateMarkovCapacity
from repro.capacity.piecewise import PiecewiseConstantCapacity
from repro.errors import (
    MessageError,
    RecoveryError,
    ServiceError,
    SimulatedCrash,
)
from repro.faults.execution import (
    ExecutionFault,
    ExecutionFaultSpec,
    apply_fault_transforms,
)
from repro.faults.spec import FaultSpec
from repro.service.admission import AdmissionController, ShedRecord
from repro.service.messages import (
    Advance,
    Close,
    InjectFault,
    Message,
    Stat,
    Submit,
)
from repro.sim.engine import SimulationEngine
from repro.sim.job import Job, JobStatus
from repro.sim.journal import EngineSnapshot, EventJournal
from repro.sim.metrics import SimulationResult
from repro.store.tenant import TenantStore

__all__ = [
    "CapacitySpec",
    "TenantSpec",
    "TenantReport",
    "TenantShard",
    "make_scheduler",
    "tenant_spec_to_dict",
    "tenant_spec_from_dict",
    "SCHEDULER_FACTORIES",
]

_EPS = 1e-9

#: A client request id (``None`` for rid-less messages).
Rid = Optional[str]

#: The fields of a version-1 snapshot payload that are not its books.
_V1_HEAD = ("version", "engine", "recoveries", "slo")


def _scheduler_factories() -> Dict[str, Any]:
    from repro.core import (
        AdmissionEDFScheduler,
        DoverScheduler,
        EDFScheduler,
        FCFSScheduler,
        GreedyDensityScheduler,
        LLFScheduler,
        VDoverScheduler,
    )

    return {
        "vdover": VDoverScheduler,
        "dover": DoverScheduler,
        "edf": EDFScheduler,
        "edf-ac": AdmissionEDFScheduler,
        "llf": LLFScheduler,
        "greedy": GreedyDensityScheduler,
        "fcfs": FCFSScheduler,
    }


#: Name → scheduler class (the CLI's policy names).
SCHEDULER_FACTORIES = _scheduler_factories


def make_scheduler(name: str, **kwargs: Any):
    """Build a fresh scheduler by CLI name (used twice per tenant: live
    shard and closed-horizon replay — both sides must construct
    identically)."""
    factories = _scheduler_factories()
    if name not in factories:
        raise ServiceError(
            f"unknown scheduler {name!r}; expected one of "
            f"{tuple(sorted(factories))}"
        )
    if name in ("vdover", "dover"):
        kwargs.setdefault("k", 7.0)  # the CLI's importance-ratio default
    if name == "dover":
        kwargs.setdefault("c_hat", 1.0)
    return factories[name](**kwargs)


@dataclass(frozen=True)
class CapacitySpec:
    """A rebuildable recipe for a tenant's capacity trajectory.

    The service must be able to construct the *same* stochastic world
    twice — once for the live shard and once for the closed-horizon
    replay — so tenants declare capacity as data, not as an object:

    * ``markov2`` — :class:`~repro.capacity.markov.TwoStateMarkovCapacity`
      with params ``low``, ``high``, ``mean_sojourn`` and the spec's seed;
    * ``constant`` — a flat :class:`PiecewiseConstantCapacity` at
      ``rate`` (optional declared ``lower``/``upper`` band);
    * ``piecewise`` — explicit ``breakpoints``/``rates`` lists.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("markov2", "constant", "piecewise"):
            raise ServiceError(
                f"unknown capacity kind {self.kind!r}; expected "
                "markov2 | constant | piecewise"
            )

    def build(self) -> CapacityFunction:
        p = dict(self.params)
        if self.kind == "markov2":
            return TwoStateMarkovCapacity(
                low=float(p.get("low", 1.0)),
                high=float(p.get("high", 35.0)),
                mean_sojourn=float(p.get("mean_sojourn", 1.0)),
                rng=np.random.default_rng(self.seed),
            )
        if self.kind == "constant":
            rate = float(p.get("rate", 1.0))
            return PiecewiseConstantCapacity(
                [0.0],
                [rate],
                lower=p.get("lower"),
                upper=p.get("upper"),
            )
        return PiecewiseConstantCapacity(
            list(p["breakpoints"]),
            list(p["rates"]),
            lower=p.get("lower"),
            upper=p.get("upper"),
        )


@dataclass(frozen=True)
class TenantSpec:
    """Everything needed to build one tenant's world — twice, identically.

    ``sensor_faults`` wrap what the tenant's scheduler observes
    (:class:`~repro.faults.spec.FaultSpec`, seeded ``fault_seed + i``);
    ``start_faults`` are execution faults armed at start
    (:class:`~repro.faults.execution.ExecutionFaultSpec` — kills and
    revocations; ``crash`` plans are refused here, forced crashes arrive
    through the ingress instead).
    """

    tenant: str
    horizon: float
    scheduler: str = "vdover"
    scheduler_kwargs: Mapping[str, Any] = field(default_factory=dict)
    capacity: CapacitySpec = field(
        default_factory=lambda: CapacitySpec("constant", {"rate": 1.0})
    )
    sensor_faults: Tuple[FaultSpec, ...] = ()
    start_faults: Tuple[ExecutionFaultSpec, ...] = ()
    fault_seed: int = 0
    queue_budget: int = 256
    snapshot_every: int = 32

    def __post_init__(self) -> None:
        if not self.horizon > 0.0:
            raise ServiceError(f"horizon must be > 0, got {self.horizon!r}")
        for spec in self.start_faults:
            if spec.kind == "crash":
                raise ServiceError(
                    "crash plans cannot be start faults; inject forced "
                    "crashes through the ingress (fault op 'crash')"
                )

    # -- world construction (shared by live shard and replay) ----------
    def build_scheduler(self):
        return make_scheduler(self.scheduler, **dict(self.scheduler_kwargs))

    def build_capacity(self) -> CapacityFunction:
        """Fresh raw physics (execution-fault transforms apply to this;
        sensor wrappers go on top afterwards — see :meth:`wrap_sensors`)."""
        return self.capacity.build()

    def wrap_sensors(self, capacity: CapacityFunction) -> CapacityFunction:
        """Corrupt the sensing channel, deterministic per-fault seeds.

        Applied *after* execution-fault transforms: revocations change
        the physics, the sensors observe the changed physics."""
        for i, fault in enumerate(self.sensor_faults):
            capacity = fault.apply(capacity, seed=self.fault_seed + i)
        return capacity

    def build_start_faults(self) -> List[ExecutionFault]:
        faults: List[ExecutionFault] = []
        for i, spec in enumerate(self.start_faults):
            fault = spec.build(seed=self.fault_seed + 101 * (i + 1))
            if fault is not None:
                faults.append(fault)
        return faults


def _job_to_dict(job: Job) -> Dict[str, Any]:
    return {
        "jid": job.jid,
        "release": job.release,
        "workload": job.workload,
        "deadline": job.deadline,
        "value": job.value,
    }


def tenant_spec_to_dict(spec: TenantSpec) -> Dict[str, Any]:
    """JSON-safe image of a :class:`TenantSpec`.

    Floats survive a JSON round trip exactly (shortest-repr encoding),
    so a spec rebuilt from this document constructs a bit-identical
    world — the property :meth:`TenantStore.ensure_spec` relies on when
    it compares the stored spec against the running one."""
    return {
        "tenant": spec.tenant,
        "horizon": spec.horizon,
        "scheduler": spec.scheduler,
        "scheduler_kwargs": dict(spec.scheduler_kwargs),
        "capacity": {
            "kind": spec.capacity.kind,
            "params": dict(spec.capacity.params),
            "seed": spec.capacity.seed,
        },
        "sensor_faults": [
            {"kind": f.kind, "severity": f.severity, "options": dict(f.options)}
            for f in spec.sensor_faults
        ],
        "start_faults": [
            {"kind": f.kind, "severity": f.severity, "options": dict(f.options)}
            for f in spec.start_faults
        ],
        "fault_seed": spec.fault_seed,
        "queue_budget": spec.queue_budget,
        "snapshot_every": spec.snapshot_every,
    }


#: Values of the retired ``"protocol"`` spec field that older stores may
#: carry.  Every one of them ran bit-identical schedules, so a stored spec
#: holding any of them resumes with the field dropped.
_LEGACY_PROTOCOLS = ("scalar", "batch", "auto")


def tenant_spec_from_dict(doc: Mapping[str, Any]) -> TenantSpec:
    """Inverse of :func:`tenant_spec_to_dict` (cold-start path).

    Older stores may also carry ``flush_every`` and ``fsync``, the knobs
    of the retired JSONL journal file; they never touched the schedule
    and are ignored whatever they hold."""
    try:
        cap = doc["capacity"]
        if doc.get("protocol", "scalar") not in _LEGACY_PROTOCOLS:
            raise ValueError(f"unknown protocol {doc['protocol']!r}")
        return TenantSpec(
            tenant=str(doc["tenant"]),
            horizon=float(doc["horizon"]),
            scheduler=str(doc.get("scheduler", "vdover")),
            scheduler_kwargs=dict(doc.get("scheduler_kwargs", {})),
            capacity=CapacitySpec(
                kind=str(cap["kind"]),
                params=dict(cap.get("params", {})),
                seed=int(cap.get("seed", 0)),
            ),
            sensor_faults=tuple(
                FaultSpec(
                    kind=str(f["kind"]),
                    severity=float(f.get("severity", 0.0)),
                    options=dict(f.get("options", {})),
                )
                for f in doc.get("sensor_faults", ())
            ),
            start_faults=tuple(
                ExecutionFaultSpec(
                    kind=str(f["kind"]),
                    severity=float(f.get("severity", 0.0)),
                    options=dict(f.get("options", {})),
                )
                for f in doc.get("start_faults", ())
            ),
            fault_seed=int(doc.get("fault_seed", 0)),
            queue_budget=int(doc.get("queue_budget", 256)),
            snapshot_every=int(doc.get("snapshot_every", 32)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"invalid tenant spec document: {exc}") from exc


@dataclass
class TenantReport:
    """What one closed tenant hands back (input to the replay check)."""

    tenant: str
    spec: TenantSpec
    result: Optional[SimulationResult]
    accepted: Tuple[Job, ...]
    shed: Tuple[ShedRecord, ...]
    injected: Tuple[Tuple[float, tuple], ...]
    submitted: int
    recoveries: int
    forced_crashes: int
    journal: Optional[EventJournal]
    restarts: int = 0
    backoffs: Tuple[float, ...] = ()

    @property
    def lost_jids(self) -> Tuple[int, ...]:
        """Accepted jobs with no recorded outcome — must be empty for a
        healthy close (the zero-accepted-then-lost criterion)."""
        if self.result is None:
            return tuple(job.jid for job in self.accepted)
        outcomes = self.result.trace.outcomes
        return tuple(
            job.jid for job in self.accepted if job.jid not in outcomes
        )


class TenantShard:
    """One tenant's live kernel plus its admission and op-log state."""

    def __init__(
        self,
        spec: TenantSpec,
        *,
        store: Optional[TenantStore] = None,
        resume: bool = False,
        telemetry: bool = False,
    ) -> None:
        self.spec = spec
        self._store = store
        # Telemetry plane (docs/OBSERVABILITY.md §live-service telemetry):
        # decision-plane SLO counters, off by default so the disabled
        # path stays inside the PR 5 overhead budget.
        self._slo: Optional[SloTracker] = (
            SloTracker(spec.tenant, spec.horizon) if telemetry else None
        )
        self._journal = EventJournal()
        if store is not None:
            # Round-tripping the stored doc fills in spec fields added
            # after the store was written (at their defaults), so old
            # tenant directories keep resuming across upgrades.
            store.ensure_spec(
                tenant_spec_to_dict(spec),
                normalize=lambda doc: tenant_spec_to_dict(
                    tenant_spec_from_dict(doc)
                ),
            )
            # The surviving journal: a fresh kernel or a restored one
            # verifies its dispatches against these records, then
            # extends them.
            self._journal = EventJournal.open(store.journal_log)

        self._built_faults = spec.build_start_faults()
        capacity = spec.build_capacity()
        self._admission = AdmissionController(
            spec.tenant,
            queue_budget=spec.queue_budget,
            c_lower=capacity.lower,
        )

        self._accepted: List[Job] = []
        self._accepted_jids: set = set()
        self._shed: List[ShedRecord] = []
        self._injected: List[Tuple[float, tuple]] = []
        # Re-apply list: (dispatch_count at application, kind, data) of
        # the admits and pushes at or past the kernel's last periodic
        # snapshot, the image recovery restores (_trim_ops).
        self._ops: List[Tuple[int, str, Any]] = []
        self._pending: List[Job] = []
        self._submitted = 0
        self._recoveries = 0
        self._forced_crashes = 0
        self._result: Optional[SimulationResult] = None
        self._closed = False
        # Idempotency: decided request ids -> outcome ("accepted" |
        # "shed" | "injected" | "crash"); in-flight ids sit in
        # _pending_rids until the contention group is decided.
        self._dedup: Dict[str, str] = {}
        self._pending_rids: Dict[str, int] = {}
        self._rid_queue: Dict[int, List[str]] = {}
        # Dispatch count of the newest durably persisted snapshot.
        self._persist_anchor = -1
        # The frozen books of a version-1 payload this store resumed from
        # (None for stores born with a whole op log) and the op sequence
        # they reach; both ride every payload unchanged.
        self._base: Optional[Dict[str, Any]] = None
        self._base_seq = 0

        if resume and store is not None and store.has_state():
            self._resume_from_store()
        else:
            self._engine = self._build_engine([], capacity)
            self._engine.start()

    # ------------------------------------------------------------------
    def _build_engine(
        self,
        jobs: Sequence[Job],
        capacity: Optional[CapacityFunction] = None,
    ) -> SimulationEngine:
        if capacity is None:
            # Recovery path: restore() replaces the capacity object from
            # the snapshot pickle, so a fresh spec-built one is only a
            # structurally-correct placeholder.
            capacity = self.spec.build_capacity()
        caps = apply_fault_transforms(
            [capacity], self._built_faults, self.spec.horizon
        )
        return SimulationEngine(
            jobs,
            self.spec.wrap_sensors(caps[0]),
            self.spec.build_scheduler(),
            horizon=self.spec.horizon,
            faults=self._built_faults,
            journal=self._journal,
            snapshot_every=self.spec.snapshot_every,
        )

    # -- accessors ------------------------------------------------------
    @property
    def kernel(self) -> SimulationEngine:
        return self._engine

    @property
    def tenant(self) -> str:
        return self.spec.tenant

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def depth(self) -> int:
        """Live backlog: accepted jobs without a recorded outcome."""
        return len(self._accepted) - len(self.kernel.trace.outcomes)

    @property
    def shed_count(self) -> int:
        return len(self._shed)

    # -- durability points ----------------------------------------------
    def _durable(self, write, *args) -> None:
        """Run one durability point, timing it into the SLO fsync
        histogram when telemetry is on (wall clock — never in the replay
        or parity domain)."""
        if self._slo is None:
            write(*args)
            return
        t0 = perf_counter()
        write(*args)
        self._slo.registry.histogram("fsync").observe(perf_counter() - t0)

    def _append_ops(self, docs: Sequence[Mapping[str, Any]]) -> None:
        self._durable(self._store.append_ops, docs)

    def _sync_journal(self) -> None:
        """Make the journal durable (fsynced stores only) — done before
        every snapshot write, so the journal on disk always reaches the
        newest durable snapshot."""
        if self._store.fsync:
            self._durable(self._journal.flush)

    # ------------------------------------------------------------------
    # The decision fold: each decided op kind updates the books (accepted
    # and shed lists, injected pushes, the re-apply op list, forced
    # crashes, dedup map, SLO tracker) in exactly one method.  The live
    # handler calls it once the op is durable and the kernel has it; the
    # cold start calls it for every op-log record — so both paths keep
    # the same books.
    # ------------------------------------------------------------------
    def _fold_admit(self, dc: int, job: Job, rid: Rid) -> None:
        self._ops.append((dc, "admit", job))
        self._accepted.append(job)
        self._accepted_jids.add(job.jid)
        self._fold_decision(rid, "accepted", job.release, "admitted")

    def _fold_shed(self, rec: ShedRecord, rid: Rid) -> None:
        self._shed.append(rec)
        self._fold_decision(rid, "shed", rec.time, "shed", "shed." + rec.reason)

    def _fold_push(
        self, dc: int, time: float, payload: tuple, rid: Rid
    ) -> None:
        self._injected.append((time, payload))
        self._ops.append((dc, "push", (time, payload)))
        self._fold_decision(rid, "injected", time, "injected." + payload[0])

    def _fold_crash_mark(self, time: Optional[float], rid: Rid) -> None:
        self._forced_crashes += 1
        self._fold_decision(rid, "crash", time, "crashes")

    def _fold_decision(
        self, rid: Rid, outcome: str, time: Optional[float], *counters: str
    ) -> None:
        """The books every decision kind keeps: the rid's dedup outcome
        and the SLO decision counters."""
        if rid is not None:
            self._dedup[rid] = outcome
        if self._slo is not None:
            for name in counters:
                self._slo.observe(time, name)

    def _fold_op(self, doc: Mapping[str, Any]) -> None:
        """Fold one op-log record into the books (cold start)."""
        op, rid = doc.get("op"), doc.get("rid")
        if op == "admit":
            self._fold_admit(int(doc["dc"]), Job(**doc["job"]), rid)
        elif op == "push":
            time, payload = float(doc["time"]), tuple(doc["payload"])
            self._fold_push(int(doc["dc"]), time, payload, rid)
        elif op == "shed":
            self._fold_shed(ShedRecord(**doc["rec"]), rid)
        elif op == "crash_mark":
            when = doc.get("time")  # absent from older crash marks
            self._fold_crash_mark(None if when is None else float(when), rid)
        else:
            raise RecoveryError(
                f"tenant {self.tenant!r}: unknown op record {op!r} "
                "in the op log"
            )

    def _fold_recovery(self, *, cold: bool) -> None:
        self._recoveries += 1
        if self._slo is not None:
            self._slo.registry.counter("recoveries").inc()
            if cold:
                self._slo.registry.counter("cold_starts").inc()

    # -- lifecycle trace events (live decisions only) --------------------
    def _emit_request(
        self, rid: Rid, jid: Optional[int], outcome: str, time: float
    ) -> None:
        octx = _obs.current()
        if rid is None or octx is None:
            return
        data: Dict[str, Any] = {
            "rid": rid, "tenant": self.tenant, "outcome": outcome
        }
        if jid is not None:
            data["jid"] = int(jid)
        octx.emit("service.request", float(time), data, replay=False)

    # ------------------------------------------------------------------
    # Message handling (synchronous, deterministic; may raise
    # SimulatedCrash — the supervisor owns recovery and retry)
    # ------------------------------------------------------------------
    def handle(self, message: Message) -> Optional[Dict[str, Any]]:
        """Dispatch one message; returns extra ack fields (or None).

        ``stat`` works even on a closed shard — it is how the kill -9
        soak audits counters across restart boundaries."""
        if isinstance(message, Stat):
            return self.stats()
        if self._closed:
            raise ServiceError(
                f"tenant {self.tenant!r} is closed; no further messages"
            )
        result: Optional[Dict[str, Any]] = None
        if isinstance(message, Submit):
            result = self.submit(message.job, rid=message.rid)
        elif isinstance(message, InjectFault):
            result = self.inject(
                message.op,
                message.time,
                retain=message.retain,
                rid=message.rid,
            )
        elif isinstance(message, Advance):
            self.advance(message.time)
        elif isinstance(message, Close):
            self.close()
        else:  # pragma: no cover - defensive
            raise MessageError(f"unhandled message {message!r}")
        self.maybe_persist()
        return result

    # -- idempotency ----------------------------------------------------
    def dedup_outcome(self, rid: Rid) -> Optional[str]:
        """The recorded outcome for a request id, if already decided
        (``"pending"`` while its contention group is still buffered)."""
        if rid is None:
            return None
        if rid in self._dedup:
            return self._dedup[rid]
        if rid in self._pending_rids:
            return "pending"
        return None

    def _duplicate_ack(self, rid: Rid) -> Optional[Dict[str, Any]]:
        outcome = self.dedup_outcome(rid)
        if outcome is None:
            return None
        if self._slo is not None:
            self._slo.registry.counter("duplicates").inc()
        return {"duplicate": True, "outcome": outcome}

    def _take_rid(self, jid: int) -> Optional[str]:
        """Consume the oldest pending request id for a jid (decision
        time: the group member is about to be admitted or shed)."""
        queue = self._rid_queue.get(jid)
        if not queue:
            return None
        rid = queue.pop(0)
        if not queue:
            self._rid_queue.pop(jid, None)
        self._pending_rids.pop(rid, None)
        return rid

    def submit(
        self, job: Job, rid: Rid = None
    ) -> Optional[Dict[str, Any]]:
        """Buffer one submission into the current contention group.

        Groups are keyed by release instant: a submission at a new
        release flushes the previous group first, so shedding decisions
        always see the whole group that competes for the same slots.
        A redelivered ``rid`` (client retry, or a traffic log replayed
        after a restart) acks its recorded outcome without re-buffering."""
        dup = self._duplicate_ack(rid)
        if dup is not None:
            return dup
        self._submitted += 1
        if self._pending and self._pending[0].release != job.release:
            self._flush_pending()
        self._pending.append(job)
        if rid is not None:
            self._pending_rids[rid] = job.jid
            self._rid_queue.setdefault(job.jid, []).append(rid)
        return None

    def advance(self, time: float) -> None:
        """Flush the open group, then dispatch strictly before ``time``."""
        self._flush_pending()
        self.kernel.run_until(float(time))

    def inject(
        self,
        op: str,
        time: float,
        *,
        retain: float = 0.0,
        rid: Rid = None,
    ) -> Optional[Dict[str, Any]]:
        """Inject one execution fault at virtual ``time``.

        ``kill``/``evict`` push a FAULT event with the service's sentinel
        fault index (−1: the kernel's kill/evict handlers never consult
        the fault list) and record the exact payload for the replay.
        ``crash`` advances to ``time`` and dies for real — a
        :class:`~repro.errors.SimulatedCrash` carrying the last periodic
        snapshot propagates to the supervisor.  With a store attached,
        the push record is fsynced before the kernel mutates (and a
        crash leaves a durable mark, so a redelivered crash request is
        acked, not re-crashed)."""
        dup = self._duplicate_ack(rid)
        if dup is not None:
            return dup
        self._flush_pending()
        time = float(time)
        kernel = self.kernel
        if op == "crash":
            kernel.run_until(time)
            if self._store is not None:
                self._append_ops(
                    [{"op": "crash_mark", "time": time, "rid": rid}]
                )
            self._fold_crash_mark(time, rid)
            self._emit_request(rid, None, "crash", time)
            raise SimulatedCrash(
                time=kernel.now,
                at_event=None,
                fault_index=-1,
                snapshot=kernel.last_snapshot,
            )
        if time < kernel.now - _EPS:
            raise MessageError(
                f"fault time {time:g} is behind the dispatch frontier "
                f"({kernel.now:g})"
            )
        if not 0.0 <= time <= self.spec.horizon:
            raise MessageError(
                f"fault time {time:g} outside [0, {self.spec.horizon:g}]"
            )
        if op == "kill":
            payload: tuple = ("kill", -1, float(retain))
        elif op == "evict":
            payload = ("evict", -1)
        else:  # pragma: no cover - parse_message guards
            raise MessageError(f"unknown fault op {op!r}")
        dc = kernel.dispatch_count
        if self._store is not None:
            self._append_ops(
                [
                    {
                        "op": "push",
                        "dc": dc,
                        "time": time,
                        "payload": list(payload),
                        "rid": rid,
                    }
                ]
            )
        kernel.push_fault_event(time, payload)
        self._fold_push(dc, time, payload, rid)
        self._emit_request(rid, None, "injected", time)
        return None

    def close(self) -> TenantReport:
        """Finish the tenant: run to the horizon and build the report."""
        self._flush_pending()
        self._result = self._engine.run()
        self._closed = True
        return self.report()

    def report(self) -> TenantReport:
        return TenantReport(
            tenant=self.tenant,
            spec=self.spec,
            result=self._result,
            accepted=tuple(self._accepted),
            shed=tuple(self._shed),
            injected=tuple(self._injected),
            submitted=self._submitted,
            recoveries=self._recoveries,
            forced_crashes=self._forced_crashes,
            journal=self._journal,
        )

    # ------------------------------------------------------------------
    def _flush_pending(self) -> None:
        """Decide and admit the open contention group.

        With a store attached, the whole group's decisions (admits and
        sheds alike) are fsynced into the op log *before* the kernel
        mutates — SIGKILL between the fsync and the admit loop replays
        the same decisions from disk on cold start."""
        if not self._pending:
            return
        release = self._pending[0].release
        kernel = self.kernel
        # Resolve everything strictly before the group's release so the
        # backlog the admission decision sees is current.  A crash in
        # here leaves the group buffered — the supervisor's retry
        # re-runs the flush idempotently after recovery.
        kernel.run_until(release)
        batch = self._pending
        admit, shed = self._admission.plan(
            batch,
            depth=self.depth,
            frontier=kernel.now,
            horizon=self.spec.horizon,
            known_jids=self._accepted_jids,
        )
        self._pending = []
        admit_rids = [self._take_rid(job.jid) for job in admit]
        shed_rids = [self._take_rid(rec.jid) for rec in shed]
        dc = kernel.dispatch_count
        self._shed_decided(
            shed,
            shed_rids,
            (
                {"op": "admit", "dc": dc, "job": _job_to_dict(job), "rid": rid}
                for job, rid in zip(admit, admit_rids)
            ),
        )
        for job, rid in zip(admit, admit_rids):
            kernel.admit_job(job)
            self._fold_admit(dc, job, rid)
            self._emit_request(rid, job.jid, "accepted", release)
        if self._slo is not None:
            self._slo.registry.gauge("depth").set(self.depth)

    def _shed_decided(
        self,
        records: Sequence[ShedRecord],
        rids: Sequence[Rid],
        admit_docs: Iterable[Dict[str, Any]] = (),
    ) -> None:
        """Make shed decisions durable — after the group's ``admit_docs``
        (built only with a store attached), in one op-log append — then
        fold and trace them."""
        if self._store is not None:
            docs = [*admit_docs] + [
                {"op": "shed", "rec": rec.to_dict(), "rid": rid}
                for rec, rid in zip(records, rids)
            ]
            if docs:
                self._append_ops(docs)
        for rec, rid in zip(records, rids):
            self._fold_shed(rec, rid)
        octx = _obs.current()
        if octx is None:
            return
        for rec in records:
            octx.emit("service.shed", rec.time, rec.to_dict(), replay=False)
        for rec, rid in zip(records, rids):
            self._emit_request(rid, rec.jid, "shed", rec.time)

    def shed_all_pending(self, reason: str) -> None:
        """Shed the open group without admitting (degraded shard)."""
        if self._pending:
            batch, self._pending = self._pending, []
            records = self._admission.shed_all(batch, reason, self.kernel.now)
            self._shed_decided(
                records, [self._take_rid(rec.jid) for rec in records]
            )

    def shed_one(
        self, job: Job, reason: str, rid: Rid = None
    ) -> Optional[Dict[str, Any]]:
        """Record one out-of-band shed decision (circuit-open path)."""
        dup = self._duplicate_ack(rid)
        if dup is not None:
            return dup
        self._submitted += 1
        records = self._admission.shed_all([job], reason, self.kernel.now)
        self._shed_decided(records, [rid])
        return None

    def stats(self) -> Dict[str, Any]:
        """Read-only counters (the ``stat`` message; no persist, no
        mutation).  ``accepted_crc`` fingerprints the accepted jid
        sequence so restart-boundary audits compare one integer."""
        blob = ",".join(str(job.jid) for job in self._accepted)
        out = {
            "tenant": self.tenant,
            "submitted": self._submitted,
            "accepted": len(self._accepted),
            "shed": len(self._shed),
            "pending": len(self._pending),
            "accepted_crc": zlib.crc32(blob.encode()) & 0xFFFFFFFF,
            "recoveries": self._recoveries,
            "forced_crashes": self._forced_crashes,
            "frontier": self.kernel.now,
            "closed": self._closed,
        }
        if self._slo is not None:
            out["slo"] = self._slo.snapshot()
        return out

    def slo_view(self) -> Dict[str, Any]:
        """The scrape-time SLO document: the tracker snapshot plus a
        ``"live"`` block of kernel-derived facts (completions, deadline
        misses, attained value per executed work).  The live block is a
        pure function of the kernel trace — computed here on demand, so
        a snapshot restore can never double-count it.  Works with
        telemetry off too (tracker fields absent, live block present)."""
        doc = self._slo.snapshot() if self._slo is not None else {}
        trace = self.kernel.trace
        completions = 0
        misses = 0
        for status in trace.outcomes.values():
            if status is JobStatus.COMPLETED:
                completions += 1
            elif status in (JobStatus.FAILED, JobStatus.ABANDONED):
                misses += 1
        decided = completions + misses
        attained = trace.value_points[-1][1] if trace.value_points else 0.0
        executed = trace.total_work()
        doc["live"] = {
            "completions": completions,
            "deadline_misses": misses,
            "miss_rate": misses / decided if decided else 0.0,
            "attained_value": attained,
            "executed_work": executed,
            "value_per_capacity": attained / executed if executed > 0 else 0.0,
            "depth": self.depth,
            "frontier": self.kernel.now,
        }
        if self._slo is not None:
            # Windowed kernel outcomes over the same ring geometry
            # (recomputed per scrape — deterministic in virtual time).
            ring = self._slo.ring
            win = WindowRing(ring.width, ring.slots)
            for jid, t in trace.completion_times.items():
                win.observe(t, "completions")
            by_jid = {job.jid: job for job in self._accepted}
            for jid, status in trace.outcomes.items():
                if status in (JobStatus.FAILED, JobStatus.ABANDONED):
                    job = by_jid.get(jid)
                    if job is not None:
                        win.observe(job.deadline, "deadline_misses")
            doc["live"]["window"] = win.snapshot()
        return doc

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _trim_ops(self, base: int) -> None:
        """Drop the re-apply ops logged before dispatch ``base``: the
        snapshot cut there contains them."""
        ops = self._ops
        if ops and ops[0][0] < base:
            first = next(
                (i for i, (dc, _, _) in enumerate(ops) if dc >= base),
                len(ops),
            )
            del ops[:first]

    def _restore_engine(self, snapshot: Optional[EngineSnapshot]) -> None:
        """Install a fresh engine restored from ``snapshot`` (a fresh
        world when None), then re-apply, in order, the op records (all
        at or past its dispatch count): the admissions and fault pushes
        the image does not contain."""
        if snapshot is None:
            engine = self._build_engine([])
            engine.start()
        else:
            engine = self._build_engine(self._accepted[: snapshot.rows])
            engine.restore(snapshot)
        for _dc, kind, data in self._ops:
            if kind == "admit":
                engine.admit_job(data)
            else:  # "push"
                engine.push_fault_event(*data)
        self._engine = engine

    def recover(self, crash: BaseException) -> None:
        """Restore the last periodic snapshot and re-apply the op log.

        The fresh engine gets exactly the accepted jobs the snapshot
        covers — its first ``rows`` table rows, which are the accepted
        list's prefix in admission order; restoring re-verifies the journal
        tail.  Ops recorded at or past the snapshot's dispatch count are
        the ones applied after it was taken — admissions and fault
        pushes the snapshot cannot contain — and are re-applied in
        order.  Everything else (events between the snapshot and the
        crash) re-materialises lazily on the next ``run_until``,
        verified record-by-record against the journal."""
        snapshot = getattr(crash, "snapshot", None)
        if snapshot is None:
            snapshot = self.kernel.last_snapshot
        if snapshot is None:
            raise RecoveryError(
                f"tenant {self.tenant!r} crashed before the first "
                "snapshot; nothing to restore from"
            ) from crash
        base = snapshot.dispatch_count
        self._trim_ops(base)
        self._restore_engine(snapshot)
        self._fold_recovery(cold=False)
        octx = _obs.current()
        if octx is not None:
            octx.emit(
                "service.recover",
                self._engine.now,
                {
                    "tenant": self.tenant,
                    "snapshot_dispatch": base,
                    "ops_reapplied": len(self._ops),
                },
                replay=False,
            )

    # ------------------------------------------------------------------
    # Durable persistence (store-backed shards only)
    # ------------------------------------------------------------------
    def maybe_persist(self) -> None:
        """Trim the re-apply ops to the kernel's newest periodic snapshot
        and commit that snapshot to the store.

        Called after every handled message; the commit is a no-op until
        the kernel has cut a snapshot newer than the last durable anchor,
        so persist frequency tracks ``snapshot_every`` dispatches, not
        messages."""
        snap = self.kernel.last_snapshot
        if snap is None:
            return
        # A periodic image is cut at a dispatch boundary, before any op
        # logged at its dispatch count: those ops and every later one are
        # what it does not contain.
        self._trim_ops(snap.dispatch_count)
        if (
            self._store is None
            or self._closed
            or snap.dispatch_count <= self._persist_anchor
        ):
            return
        self._persist(snap, len(self._ops))

    def persist_now(self) -> None:
        """Drain path: decide the open group, cut a snapshot at the
        current dispatch boundary, and make everything durable — after
        this returns, SIGKILL loses nothing."""
        if self._store is None:
            return
        if self._closed:
            self._sync_journal()
            return
        self._flush_pending()
        # This snapshot is cut *after* every logged op took effect, so it
        # contains them all: nothing to re-apply on top of it.
        self._persist(self._engine.snapshot(), 0)

    def _persist(self, snap: EngineSnapshot, ops_tail: int) -> None:
        """Commit one version-2 payload at the op log's end: no decision,
        only the kernel image, the counters no op record carries, and
        ``ops_tail``, how many of the last re-apply (admit/push) records
        before the anchor the image does not contain."""
        payload = {
            "version": 2,
            "engine": snap,
            "recoveries": self._recoveries,
            # The SLO tracker snapshot, anchored at the same op_seq, so
            # the cold-start refold of post-anchor ops is exact.
            "slo": None if self._slo is None else self._slo.snapshot(),
            "ops_tail": ops_tail,
            "base": self._base,
            "base_seq": self._base_seq,
        }
        self._sync_journal()
        self._store.write_snapshot(payload, op_seq=self._store.op_seq)
        self._persist_anchor = snap.dispatch_count

    def _resume_from_store(self) -> None:
        """Cold start: rebuild the live shard from disk alone.

        The books are rebuilt only by folding op records through
        :meth:`_fold_op`, as the live path decided them: every record
        from the payload's ``base_seq`` on, over its frozen ``base``
        books, if any.  The restored SLO tracker already covers the
        records before the snapshot's anchor.  The engine restores from
        the kernel image and re-applies the ops it does not contain —
        the in-process :meth:`recover` dance, with the disk as the only
        witness."""
        store = self._store
        assert store is not None
        loaded = store.load_snapshot()
        payload: Dict[str, Any] = {"engine": None, "base_seq": 0, "ops_tail": 0}
        anchor_seq = 0
        if loaded is not None:
            payload, anchor_seq = loaded
            version = payload.get("version") if isinstance(payload, dict) else None
            if version == 1:
                # Written while payloads copied the books out of the op
                # log: they become the frozen base, at this anchor, and
                # their re-apply list is the tail.
                payload = dict(
                    payload,
                    base={k: v for k, v in payload.items() if k not in _V1_HEAD},
                    base_seq=anchor_seq,
                    ops_tail=len(payload["ops_tail"]),
                )
            elif version != 2:
                raise RecoveryError(
                    f"tenant {self.tenant!r}: unrecognised snapshot "
                    "payload (schema drift?)"
                )
            self._recoveries = int(payload["recoveries"])
        snap: Optional[EngineSnapshot] = payload["engine"]
        self._base = payload.get("base")
        self._base_seq = base_seq = int(payload["base_seq"])

        # The log must hold every record from the base through the
        # anchor (the journal obeys the same rule below).
        log = store.oplog
        if log.base_seq > base_seq or log.next_seq < anchor_seq:
            lo, hi = (base_seq, log.base_seq) if log.base_seq > base_seq else (
                log.next_seq, anchor_seq
            )
            raise RecoveryError(
                f"tenant {self.tenant!r}: op-log records [{lo}, {hi}) are "
                f"missing; the snapshot needs [{base_seq}, {anchor_seq})"
            )
        if self._base is not None:
            self._load_base(self._base)
        ops = store.ops()[base_seq - log.base_seq :]
        split = anchor_seq - base_seq
        slo, self._slo = self._slo, None
        for _seq, doc in ops[:split]:
            self._fold_op(doc)
        self._ops = self._ops[len(self._ops) - int(payload["ops_tail"]) :]
        slo_doc = payload.get("slo")
        self._slo = SloTracker.restore(slo_doc) if slo and slo_doc else slo
        for _seq, doc in ops[split:]:
            self._fold_op(doc)

        # Undecided buffering (pending groups) is never durable, so
        # every reconstructed submission is a decided one.
        self._submitted = len(self._accepted) + len(self._shed)

        # Without a snapshot the whole op log replays onto a fresh world;
        # the journal's surviving records describe the run about to be
        # regenerated, and the kernel verifies it against them.
        if snap is not None and len(self._journal) < snap.dispatch_count:
            raise RecoveryError(
                f"tenant {self.tenant!r}: the journal holds "
                f"{len(self._journal)} records but the snapshot was "
                f"cut at dispatch {snap.dispatch_count} — the journal "
                "tail was lost"
            )
        self._restore_engine(snap)
        # The depth gauge keeps its persisted value: it samples the live
        # backlog and is outside the restart parity domain.
        self._fold_recovery(cold=True)
        self._persist_anchor = -1 if snap is None else snap.dispatch_count
        octx = _obs.current()
        if octx is not None:
            octx.emit(
                "service.cold_start",
                self._engine.now,
                {
                    "tenant": self.tenant,
                    "accepted": len(self._accepted),
                    "shed": len(self._shed),
                    "ops_reapplied": len(self._ops),
                    "had_snapshot": snap is not None,
                },
                replay=False,
            )

    def _load_base(self, base: Mapping[str, Any]) -> None:
        """Install the frozen books of a version-1 payload."""
        self._accepted = [Job(**d) for d in base["accepted"]]
        self._accepted_jids = {job.jid for job in self._accepted}
        self._injected = [(float(t), tuple(p)) for t, p in base["injected"]]
        self._shed = [ShedRecord(**r) for r in base["shed"]]
        self._dedup = dict(base["dedup"])
        self._forced_crashes = int(base["forced_crashes"])
        by_jid = {job.jid: job for job in self._accepted}
        for dc, kind, data in base["ops_tail"]:
            if kind == "admit":
                # Re-bind to the accepted-list Job so identity is shared
                # between the admission record and the op.
                op = (int(dc), "admit", by_jid[int(data["jid"])])
            else:
                op = (int(dc), "push", (float(data[0]), tuple(data[1])))
            self._ops.append(op)
