"""The scheduling kernel: one event loop for all engines.

Everything the single-processor engine learned in PRs 1–3 — the prefix-sum
capacity fast path, execution-fault dispatch, snapshot/restore with the
write-ahead journal, the invariant watchdog, and event-heap compaction —
lives here once, parameterised over a *processor set*:

* ``m`` capacity trajectories (one per processor), each with its own
  running segment anchored at ``W(seg_start)`` when the trajectory carries
  a prefix-sum index (``supports_prefix_index``), so progress queries and
  completion re-prediction are O(log n) on every processor;
* a single global event queue ordered by ``(time, kind priority, seq)``
  with per-job version tokens for lazy deletion and automatic compaction
  (:meth:`~repro.sim.events.EventQueue.note_stale`) in one binary heap;
* one *decision protocol* flag: ``single=True`` means scheduler handlers
  return ``Optional[Job]`` (the paper's single-processor interface) and
  the kernel applies it to processor 0; ``single=False`` means handlers
  return a full :class:`~repro.multi.scheduler.Assignment` which the
  kernel diffs against the current one (free preemption and migration,
  no intra-job parallelism).

The two public engines (:class:`~repro.sim.engine.SimulationEngine` and
:class:`~repro.multi.engine.MultiprocessorEngine`) are subclasses that fix
the protocol and the scheduler-context class and add a ``run()`` that
builds their result object; faults and watchdog monitors observe the
engine itself.

Columnar hot path
-----------------
Per-job execution state lives in a struct-of-arrays
:class:`~repro.sim.jobtable.JobTable`: immutable job parameters as numpy
columns, the mutable ``remaining``/``status`` hot columns as row-indexed
lists the loop mutates in place.  Whole-population passes — bootstrap
event seeding, the wind-down failure sweep, laxity recomputation — are
vectorized over the columns; :class:`Job` objects remain thin views that
flow through scheduler handlers and event payloads unchanged.

One loop body, :meth:`SchedulingKernel._run`, serves both drives: the
closed-horizon :meth:`~SchedulingKernel.run_loop` (unbounded) and the
service's incremental :meth:`~SchedulingKernel.run_until` (exclusive
bound).  Journal write/verify, observability, the watchdog, the snapshot
cadence and event-indexed crash plans are each one ``is not None`` test
on a local hoisted before the loop, so an uninstrumented run pays a
handful of identity checks per event and nothing else.

The loop dispatches in *same-timestamp batches*: when several events
share one instant, the inner loop drains them without re-entering the
outer bookkeeping (monotonicity check, horizon check, ``now`` update) —
popping one event at a time and re-peeking, because a dispatch may push a
new event at the *same* instant with *higher* kind priority (e.g. a
COMPLETION predicted at exactly ``t``), which must precede the remaining
batch.  Each event still takes its own scheduler decision, preserving the
paper's per-interrupt semantics bit-for-bit: the scheduler contract is the
per-event handler set (``on_release``, ``on_job_end``, ``on_alarm``,
``on_timer``, ``on_eviction``), one call per live event.

Provably-dead events (stale version token, or a job event whose job is
already terminal) are filtered *before* journaling
(:meth:`SchedulingKernel._event_is_noop`) — ~20–35 % of pops on the
Figure-1 workloads are such no-ops.  The filter depends only on
deterministic run state, so journals written before a crash replay
exactly after restore.

Determinism contract: for a fixed instance and scheduler the run is
bit-for-bit reproducible — ties break by insertion sequence, nothing
consults a wall clock or an RNG — and with ``m = 1`` the kernel replays
the historical single-processor engine *exactly* (same events, same
sequence numbers, same float operations; the parity suite in
``tests/multi/test_kernel_parity.py`` pins this down).
"""

from __future__ import annotations

import math
import pickle
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.capacity.base import CapacityFunction
from repro.errors import (
    RecoveryError,
    SchedulingError,
    SimulatedCrash,
    SimulationError,
)
from repro import obs as _obs
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.job import (
    CODE_STATUS,
    STATUS_CODE,
    Job,
    JobStatus,
    validate_jobs,
)
from repro.sim.jobtable import JobTable
from repro.sim.journal import (
    EngineSnapshot,
    EventJournal,
    JournalRecord,
    describe_payload,
)
from repro.sim.trace import ScheduleTrace

__all__ = ["SchedulingKernel"]

_EPS = 1e-9

# Status codes (hot-loop int compares; CODE_STATUS order is append-only,
# so "terminal" is exactly "code >= COMPLETED").
_PENDING = STATUS_CODE[JobStatus.PENDING]
_READY = STATUS_CODE[JobStatus.READY]
_RUNNING = STATUS_CODE[JobStatus.RUNNING]
_COMPLETED = STATUS_CODE[JobStatus.COMPLETED]
_FAILED = STATUS_CODE[JobStatus.FAILED]
_TERMINAL_MIN = _COMPLETED

#: Default snapshot cadence (events) when crash plans are present but the
#: caller did not pick one.
_DEFAULT_SNAPSHOT_EVERY = 64


class SchedulingKernel:
    """The shared event loop (see module docstring).

    Parameters
    ----------
    jobs:
        The instance's job set (ids must be unique).
    capacities:
        One realized capacity trajectory per processor (``len >= 1``).
    scheduler:
        The online policy.  ``single=True`` expects the single-processor
        :class:`~repro.sim.scheduler.Scheduler` handler contract
        (``Optional[Job]`` decisions); ``single=False`` expects
        :class:`~repro.multi.scheduler.MultiScheduler` (full assignments).
    make_context:
        Builds the scheduler-facing context from this kernel; called at
        bootstrap and again at restore (fresh bind).
    horizon, faults, watchdog, journal, snapshot_every:
        As on :class:`~repro.sim.engine.SimulationEngine`.
    single:
        Selects the decision protocol (see above).  In single mode the
        kernel's combined ``outcomes`` trace *is* ``traces[0]`` (one
        object), preserving the historical single-processor trace layout.
    """

    def __init__(
        self,
        jobs: Sequence[Job],
        capacities: Sequence[CapacityFunction],
        scheduler,
        *,
        make_context: Callable[["SchedulingKernel"], object],
        horizon: float | None = None,
        faults: Sequence[object] = (),
        watchdog: "object | None" = None,
        journal: "EventJournal | None" = None,
        snapshot_every: int | None = None,
        single: bool = False,
    ) -> None:
        validate_jobs(jobs)
        if not capacities:
            raise SimulationError("at least one processor required")
        self._jobs = list(jobs)
        self._by_id: Dict[int, Job] = {j.jid: j for j in jobs}
        self._caps: List[CapacityFunction] = list(capacities)
        self._scheduler = scheduler
        self._make_context = make_context
        self._single = bool(single)
        if self._single and len(self._caps) != 1:
            raise SimulationError(
                "single-decision protocol requires exactly one processor"
            )
        if horizon is None:
            horizon = max((j.deadline for j in jobs), default=0.0) + 1.0
        if not math.isfinite(horizon) or horizon < 0.0:
            raise SimulationError(f"invalid horizon: {horizon!r}")
        self._horizon = float(horizon)

        m = len(self._caps)
        # Ground-truth run state: the columnar job table plus per-processor
        # running-segment registers.  _row/_rem/_st alias the table's
        # mapping and mutable columns (the table mutates them in place on
        # restore, so the aliases never go stale).
        self._now = 0.0
        self._table = JobTable(self._jobs)
        self._row: Dict[int, int] = self._table.row_of
        self._rem: List[float] = self._table.remaining
        self._st: List[int] = self._table.status
        self._current: List[Optional[Job]] = [None] * m
        self._seg_start: List[float] = [0.0] * m
        self._seg_remaining0: List[float] = [0.0] * m
        # Prefix-sum index fast path (repro.capacity.prefix): anchor each
        # running segment at its cumulative work W(seg_start) so progress
        # queries are one O(log n) lookup, W(now) − anchor — bit-identical
        # to integrate(seg_start, now), which indexed models define as
        # exactly that difference.
        self._indexed: List[bool] = [
            bool(getattr(c, "supports_prefix_index", False)) for c in self._caps
        ]
        self._advance_from = [
            getattr(c, "advance_from", None) for c in self._caps
        ]
        self._seg_cum0: List[float] = [0.0] * m
        # One-slot cumulative cache per processor: within one dispatch the
        # kernel asks W(t) for the same t several times (progress check,
        # segment close, next start's anchor); cumulative() is pure, so
        # the last (t, W(t)) pair short-circuits the repeats.
        self._cum_t: List[float] = [-1.0] * m
        self._cum_v: List[float] = [0.0] * m
        self._proc_of: Dict[int, int] = {}  # jid -> processor while running

        # Event bookkeeping.
        self._events = EventQueue(self._event_is_stale)
        self._completion_version: Dict[int, int] = {}
        self._alarm_version: Dict[int, int] = {}
        self._traces: List[ScheduleTrace] = [ScheduleTrace() for _ in range(m)]
        # Combined outcome/value record.  Single mode: the same object as
        # traces[0], so segments and outcomes share one trace (the
        # historical single-processor layout).
        self._outcomes: ScheduleTrace = (
            self._traces[0] if self._single else ScheduleTrace()
        )
        self._apply = self._apply_single if self._single else self._apply_multi

        # Fault / recovery / monitoring plumbing.
        self._faults = list(faults)
        self._watchdog = watchdog
        self._journal = journal
        if snapshot_every is None and any(
            getattr(f, "is_crash_plan", False) for f in self._faults
        ):
            snapshot_every = _DEFAULT_SNAPSHOT_EVERY
        if snapshot_every is not None and snapshot_every < 1:
            raise SimulationError(
                f"snapshot_every must be >= 1, got {snapshot_every!r}"
            )
        self._snapshot_every = snapshot_every
        self._event_crashes: List[Tuple[int, int]] = []  # (at_event, fault idx)
        self._dispatch_count = 0
        # Dispatches below this index are verified against records the
        # journal already holds (a reopened journal), not appended.
        self._verify_until = 0 if journal is None else len(journal)
        self._last_snapshot: Optional[EngineSnapshot] = None
        self._started = False
        self._ended = False
        # Observability: capture the active context once.  When disabled
        # (the default) this is None and every emission site in the hot
        # path reduces to a single attribute-identity check.
        self._obs = _obs.current()

    # ------------------------------------------------------------------
    # Read-only accessors (used by the watchdog, recovery and the service)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def horizon(self) -> float:
        return self._horizon

    @property
    def n_procs(self) -> int:
        return len(self._caps)

    @property
    def capacity(self) -> CapacityFunction:
        """Processor 0's trajectory (the whole world in single mode)."""
        return self._caps[0]

    @property
    def capacities(self) -> List[CapacityFunction]:
        return list(self._caps)

    @property
    def trace(self) -> ScheduleTrace:
        """The combined outcome trace (``traces[0]`` in single mode)."""
        return self._outcomes

    @property
    def traces(self) -> List[ScheduleTrace]:
        return list(self._traces)

    @property
    def outcomes(self) -> ScheduleTrace:
        return self._outcomes

    @property
    def scheduler(self):
        return self._scheduler

    @property
    def jobs(self) -> List[Job]:
        return list(self._jobs)

    @property
    def jobs_by_id(self) -> Dict[int, Job]:
        return dict(self._by_id)

    @property
    def table(self) -> JobTable:
        """The columnar ground-truth job state (read-only use only)."""
        return self._table

    @property
    def dispatch_count(self) -> int:
        """Events dispatched so far (journal index of the next dispatch)."""
        return self._dispatch_count

    @property
    def last_snapshot(self) -> Optional[EngineSnapshot]:
        return self._last_snapshot

    @property
    def event_queue_size(self) -> int:
        return len(self._events)

    @property
    def started(self) -> bool:
        return self._started

    @property
    def ended(self) -> bool:
        """True once the END event (or the horizon) has been reached."""
        return self._ended

    def running(self) -> Tuple[Optional[Job], ...]:
        return tuple(self._current)

    def job_status(self, jid: int) -> Optional[JobStatus]:
        """Diagnostic view of a job's lifecycle state."""
        return self._table.status_of(jid)

    # ------------------------------------------------------------------
    # Lazy-deletion hygiene: which queued events are provably dead
    # ------------------------------------------------------------------
    def _event_is_stale(self, event: Event) -> bool:
        """True iff dispatching ``event`` would be a guaranteed no-op.

        Conservative: alarms/completions with bumped version tokens, and
        job events for jobs in a terminal state.  Alarms of RUNNING jobs
        are *not* stale (the job may return to READY before they fire)."""
        kind = event.kind
        if kind is EventKind.ALARM:
            jid = event.payload[0].jid
            if self._alarm_version.get(jid, 0) != event.version:
                return True
            row = self._row.get(jid)
            return row is not None and self._st[row] >= _TERMINAL_MIN
        if kind is EventKind.COMPLETION:
            payload = event.payload
            jid = (payload[1] if isinstance(payload, tuple) else payload).jid
            if self._completion_version.get(jid, 0) != event.version:
                return True
            row = self._row.get(jid)
            return row is not None and self._st[row] >= _TERMINAL_MIN
        if kind is EventKind.DEADLINE:
            row = self._row.get(event.payload.jid)
            return row is not None and self._st[row] >= _TERMINAL_MIN
        return False

    def _event_is_noop(self, event: Event) -> bool:
        """Pre-dispatch filter: the one definition of a dead event,
        evaluated *before* journaling; :meth:`_dispatch` assumes a live
        event.

        Skipped events are never journaled and never counted, so a
        journal written with the watchdog/observability on replays
        bit-identically with them off — and a pre-crash journal replays
        bit-identically after restore (the filter reads only
        deterministic run state)."""
        kind = event.kind
        if kind is EventKind.COMPLETION:
            payload = event.payload
            job = payload if self._single else payload[1]
            return self._completion_version.get(job.jid, 0) != event.version
        if kind is EventKind.DEADLINE:
            return self._st[self._row[event.payload.jid]] >= _TERMINAL_MIN
        if kind is EventKind.ALARM:
            job = event.payload[0]
            if self._alarm_version.get(job.jid, 0) != event.version:
                return True
            return self._st[self._row[job.jid]] != _READY
        return False

    # ------------------------------------------------------------------
    # Execution-fault plumbing (used by repro.faults.execution at arm time)
    # ------------------------------------------------------------------
    def push_fault_event(self, time: float, payload: tuple) -> None:
        """Queue a FAULT event (payload: ``("kill", i, retain[, proc])``,
        ``("evict", i[, proc])`` or ``("crash", i)``)."""
        if 0.0 <= time <= self._horizon:
            self._events.push(Event(time, EventKind.FAULT, tuple(payload)))

    def register_event_crash(self, fault_index: int, at_event: int) -> None:
        """Arrange for crash plan ``fault_index`` to fire just before the
        ``at_event``-th event dispatch."""
        self._event_crashes.append((int(at_event), int(fault_index)))

    # ------------------------------------------------------------------
    # State queries used by the contexts
    # ------------------------------------------------------------------
    def _cum_at(self, proc: int, t: float) -> float:
        """``W(t)`` on ``proc`` through the one-slot cache (pure query:
        the prefix index is append-only, so a cached value never goes
        stale within a run; restore resets the slots)."""
        if t == self._cum_t[proc]:
            return self._cum_v[proc]
        v = self._caps[proc].cumulative(t)
        self._cum_t[proc] = t
        self._cum_v[proc] = v
        return v

    def _seg_work(self, proc: int, t: float) -> float:
        """Work performed by processor ``proc``'s running segment up to
        ``t`` — via the capacity's prefix-sum index when available, else
        the naive integral (identical values either way)."""
        octx = self._obs
        if self._indexed[proc]:
            if octx is not None:
                octx.metrics.counter("kernel.capacity_index.hits").inc()
            return self._cum_at(proc, t) - self._seg_cum0[proc]
        if octx is not None:
            octx.metrics.counter("kernel.capacity_index.misses").inc()
        return self._caps[proc].integrate(self._seg_start[proc], t)

    def remaining_of(self, job: Job) -> float:
        row = self._row.get(job.jid)
        if row is None or self._st[row] == _PENDING:
            raise SchedulingError(
                f"remaining() queried for unreleased job {job.jid}"
            )
        proc = self._proc_of.get(job.jid)
        if proc is not None and self._current[proc] is job:
            done = self._seg_work(proc, self._now)
            return max(0.0, self._seg_remaining0[proc] - done)
        return self._rem[row]

    # ------------------------------------------------------------------
    # Alarm / timer plumbing
    # ------------------------------------------------------------------
    def set_alarm(self, job: Job, time: float, tag: str) -> None:
        if job.jid not in self._row:
            raise SchedulingError(f"alarm for unknown job {job.jid}")
        when = max(time, self._now)
        version = self._alarm_version.get(job.jid, 0) + 1
        self._alarm_version[job.jid] = version
        if version > 1:
            # A previous alarm for this job may still sit in the heap.
            self._events.note_stale()
        self._events.push(Event(when, EventKind.ALARM, (job, tag), version))

    def cancel_alarm(self, job: Job) -> None:
        # Bumping the version orphans any in-flight alarm event.
        self._alarm_version[job.jid] = self._alarm_version.get(job.jid, 0) + 1
        self._events.note_stale()

    def set_timer(self, time: float, tag: str) -> None:
        self._events.push(Event(max(time, self._now), EventKind.TIMER, tag))

    # ------------------------------------------------------------------
    # Processor mechanics
    # ------------------------------------------------------------------
    def _close_segment(self, proc: int, t: float) -> None:
        """Stop the job running on ``proc`` at ``t``, folding its progress
        into the ground truth and the trace.  Leaves the processor empty."""
        job = self._current[proc]
        if job is None:
            return
        work = self._seg_work(proc, t)
        new_remaining = self._seg_remaining0[proc] - work
        if new_remaining < -1e-6 * max(1.0, job.workload):
            raise SimulationError(
                f"job {job.jid} over-executed: remaining {new_remaining}"
            )
        row = self._row[job.jid]
        self._rem[row] = max(0.0, new_remaining)
        self._st[row] = _READY
        self._traces[proc].add_segment(self._seg_start[proc], t, job.jid, work)
        # Orphan the in-flight completion event.
        self._completion_version[job.jid] = (
            self._completion_version.get(job.jid, 0) + 1
        )
        self._events.note_stale()
        self._current[proc] = None
        self._proc_of.pop(job.jid, None)
        octx = self._obs
        if octx is not None:
            octx.metrics.counter("kernel.preemptions").inc()
            octx.emit(
                "job.preempt", t, {"jid": job.jid, "proc": proc, "work": work}
            )

    def _start_job(self, proc: int, job: Job, t: float) -> None:
        row = self._row[job.jid]
        if self._st[row] != _READY:
            raise SchedulingError(
                f"scheduler tried to run job {job.jid} in state "
                f"{CODE_STATUS[self._st[row]]}"
            )
        self._current[proc] = job
        self._proc_of[job.jid] = proc
        self._st[row] = _RUNNING
        self._seg_start[proc] = t
        rem0 = self._rem[row]
        self._seg_remaining0[proc] = rem0
        if self._indexed[proc]:
            cum0 = self._cum_at(proc, t)
            self._seg_cum0[proc] = cum0
            advance_from = self._advance_from[proc]
            if advance_from is not None:
                finish = advance_from(t, cum0, rem0)
            else:  # pragma: no cover - indexed models all carry advance_from
                finish = self._caps[proc].advance(t, rem0)
        else:
            finish = self._caps[proc].advance(t, rem0)
        version = self._completion_version.get(job.jid, 0) + 1
        self._completion_version[job.jid] = version
        if finish <= self._horizon:
            payload = job if self._single else (proc, job)
            self._events.push(Event(finish, EventKind.COMPLETION, payload, version))
        octx = self._obs
        if octx is not None:
            octx.metrics.counter("kernel.starts").inc()
            octx.emit("job.start", t, {"jid": job.jid, "proc": proc})

    def _apply_single(self, desired: Optional[Job], t: float) -> None:
        """Switch processor 0 to ``desired`` (no-op if unchanged)."""
        if desired is self._current[0]:
            return
        self._close_segment(0, t)
        if desired is not None:
            self._start_job(0, desired, t)

    def _apply_multi(self, desired, t: float) -> None:
        """Diff a full assignment against the current one."""
        desired = list(desired)
        if len(desired) != len(self._caps):
            raise SchedulingError(
                f"assignment length {len(desired)} != "
                f"{len(self._caps)} processors"
            )
        seen: set[int] = set()
        for job in desired:
            if job is None:
                continue
            if job.jid in seen:
                raise SchedulingError(
                    f"job {job.jid} assigned to two processors at once"
                )
            seen.add(job.jid)
        # Close every processor whose job changes (incl. migrations away).
        for proc, job in enumerate(desired):
            if self._current[proc] is not job:
                self._close_segment(proc, t)
        # Start the new assignments (migrations now find the job READY).
        for proc, job in enumerate(desired):
            if job is not None and self._current[proc] is not job:
                self._start_job(proc, job, t)

    def _complete(self, proc: int, job: Job, t: float) -> None:
        """Fold the running job's final segment and record its success."""
        work = self._seg_work(proc, t)
        self._traces[proc].add_segment(self._seg_start[proc], t, job.jid, work)
        row = self._row[job.jid]
        self._rem[row] = 0.0
        self._st[row] = _COMPLETED
        self._current[proc] = None
        self._proc_of.pop(job.jid, None)
        self._completion_version[job.jid] = (
            self._completion_version.get(job.jid, 0) + 1
        )
        self._events.note_stale()
        self._outcomes.record_outcome(job, JobStatus.COMPLETED, t)
        octx = self._obs
        if octx is not None:
            octx.metrics.counter("kernel.completions").inc()
            octx.emit(
                "job.complete",
                t,
                {"jid": job.jid, "proc": proc, "value": job.value, "work": work},
            )
        desired = self._scheduler.on_job_end(job, completed=True)
        self._apply(desired, t)

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, event: Event) -> None:
        """Apply one live event; :meth:`_event_is_noop` has already
        filtered out the dead ones."""
        t = event.time
        kind = event.kind

        if kind is EventKind.RELEASE:
            job: Job = event.payload
            row = self._row[job.jid]
            self._st[row] = _READY
            self._rem[row] = job.workload
            octx = self._obs
            if octx is not None:
                octx.emit(
                    "job.release",
                    t,
                    {
                        "jid": job.jid,
                        "deadline": job.deadline,
                        "workload": job.workload,
                        "value": job.value,
                    },
                )
            desired = self._scheduler.on_release(job)
            self._apply(desired, t)
            return

        if kind is EventKind.COMPLETION:
            payload = event.payload
            if self._single:
                proc, job = 0, payload
            else:
                proc, job = payload
            if self._current[proc] is not job:  # pragma: no cover - defensive
                return
            self._complete(proc, job, t)
            return

        if kind is EventKind.DEADLINE:
            job = event.payload
            row = self._row[job.jid]
            proc = self._proc_of.get(job.jid)
            if proc is not None and self._current[proc] is job:
                # Jobs with zero laxity finish *exactly* at their deadline;
                # the predicted completion instant can land one ulp past it.
                # A running job whose remaining workload is within float
                # tolerance has completed, not failed.
                done = self._seg_work(proc, t)
                left = self._seg_remaining0[proc] - done
                if left <= 1e-9 * max(1.0, job.workload):
                    self._complete(proc, job, t)
                    return
                self._close_segment(proc, t)
            self._st[row] = _FAILED
            self._outcomes.record_outcome(job, JobStatus.FAILED, t)
            octx = self._obs
            if octx is not None:
                octx.metrics.counter("kernel.deadline_misses").inc()
                octx.emit(
                    "job.deadline_miss",
                    t,
                    {"jid": job.jid, "value": job.value},
                )
            desired = self._scheduler.on_job_end(job, completed=False)
            self._apply(desired, t)
            return

        if kind is EventKind.ALARM:
            job, tag = event.payload
            desired = self._scheduler.on_alarm(job, tag)
            self._apply(desired, t)
            return

        if kind is EventKind.TIMER:
            desired = self._scheduler.on_timer(event.payload)
            self._apply(desired, t)
            return

        if kind is EventKind.FAULT:
            self._dispatch_fault(event.payload, t)
            return

        raise SimulationError(f"unhandled event kind: {kind!r}")  # pragma: no cover

    def _dispatch_fault(self, payload: tuple, t: float) -> None:
        """Apply an execution fault (see :mod:`repro.faults.execution`).

        Kill/evict payloads may carry a trailing processor index (default
        0 — and the only legal value in single mode), so per-machine
        targeting works on heterogeneous fleets."""
        op = payload[0]

        if op == "crash":
            idx = int(payload[1])
            fault = self._faults[idx]
            if getattr(fault, "fired", False):
                return  # already crashed once (journal replay after resume)
            fault.fired = True
            self._raise_crash(t, at_event=None, fault_index=idx)

        elif op in ("kill", "evict"):
            if op == "kill":
                retain = float(payload[2])
                proc = int(payload[3]) if len(payload) > 3 else 0
            else:
                proc = int(payload[2]) if len(payload) > 2 else 0
            if not 0 <= proc < len(self._caps):
                raise SimulationError(
                    f"fault targets processor {proc} of {len(self._caps)}"
                )
            job = self._current[proc]
            if job is None:
                return  # the fault hit an idle processor: nothing to lose
            # Fold the progress made so far, return the job to READY.
            self._close_segment(proc, t)
            lost = 0.0
            if op == "kill":
                row = self._row[job.jid]
                old_remaining = self._rem[row]
                progress = job.workload - old_remaining
                if progress > 0.0 and retain < 1.0:
                    # The kill destroys (1 − retain) of the progress; the
                    # destroyed work *was* executed, so the trace budgets
                    # for it (validator: workload + lost_work).
                    new_remaining = job.workload - retain * progress
                    lost = new_remaining - old_remaining
                    self._outcomes.record_lost_work(job.jid, lost)
                    self._rem[row] = new_remaining
            octx = self._obs
            if octx is not None:
                octx.metrics.counter("kernel.faults." + op).inc()
                data = {"jid": job.jid, "proc": proc}
                if op == "kill":
                    data["retain"] = retain
                    data["lost"] = lost
                octx.emit("fault." + op, t, data)
            desired = self._scheduler.on_eviction(job)
            self._apply(desired, t)

        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown fault payload: {payload!r}")

    def _raise_crash(self, t: float, at_event: int | None, fault_index: int) -> None:
        """Die like a crashed process: attach the *last periodic* snapshot
        (not a fresh one — resuming must genuinely replay the journal) and
        mark the plan fired in it so the resumed run does not re-crash."""
        snapshot = self._last_snapshot
        if snapshot is not None:
            fired = set(snapshot.fired_faults)
            fired.update(
                i
                for i, f in enumerate(self._faults)
                if getattr(f, "fired", False)
            )
            snapshot.fired_faults = tuple(sorted(fired))
        octx = self._obs
        if octx is not None:
            # Process history, not simulation history: lifecycle event.
            octx.metrics.counter("kernel.crashes").inc()
            octx.emit(
                "fault.crash",
                t,
                {
                    "fault": fault_index,
                    "at_event": at_event,
                    "dispatch": self._dispatch_count,
                },
                replay=False,
            )
        raise SimulatedCrash(
            time=t,
            at_event=at_event,
            fault_index=fault_index,
            snapshot=snapshot,
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _bootstrap(self) -> None:
        """First-run initialisation: bind the scheduler, seed the event
        queue, arm faults, take snapshot zero."""
        octx = self._obs
        if octx is not None and octx.sink is not None:
            octx.sink.begin_run()
        self._scheduler.bind(self._make_context(self))
        if octx is not None:
            # After bind: adapters derive their display name during reset.
            octx.emit(
                "run.start",
                0.0,
                {
                    "scheduler": getattr(self._scheduler, "name", "?"),
                    "jobs": len(self._jobs),
                    "procs": len(self._caps),
                    "horizon": self._horizon,
                },
            )

        # Seed release/deadline pairs for every job arriving inside the
        # horizon — the membership test is one vectorized pass over the
        # release column; rows come back in instance order, so sequence
        # numbers match the historical per-job loop exactly.  push_many
        # heapifies once (O(n)) instead of n× O(log n) pushes.
        jobs = self._table.jobs
        seed: List[Event] = []
        for r in self._table.rows_released_by(self._horizon).tolist():
            job = jobs[r]
            seed.append(Event(job.release, EventKind.RELEASE, job))
            seed.append(Event(job.deadline, EventKind.DEADLINE, job))
        seed.append(Event(self._horizon, EventKind.END))
        self._events.push_many(seed)

        for i, fault in enumerate(self._faults):
            fault.arm(self, i)
        if self._watchdog is not None:
            self._watchdog.start(self)
        self._started = True
        if self._snapshot_every is not None:
            self._last_snapshot = self.snapshot()

    def _maybe_crash_at_event(self) -> None:
        """Fire any event-indexed crash plan scheduled for the *next*
        dispatch (checked before the event is popped, so the snapshot keeps
        it pending)."""
        for at_event, idx in self._event_crashes:
            if at_event == self._dispatch_count:
                fault = self._faults[idx]
                if getattr(fault, "fired", False):
                    continue
                fault.fired = True
                self._raise_crash(self._now, at_event=at_event, fault_index=idx)

    # ------------------------------------------------------------------
    # Incremental (service-mode) drive
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bootstrap eagerly without dispatching anything.

        The closed-horizon entry point (:meth:`run_loop`) bootstraps
        lazily; a live service must bootstrap *before* the first
        admission so snapshot zero and the seeded END event exist ahead
        of any incremental state.  Idempotent."""
        if not self._started:
            self._bootstrap()

    def admit_job(self, job: Job) -> None:
        """Admit one job into a live (started) kernel.

        Mirrors bootstrap seeding exactly: the job joins the instance
        and, when it arrives inside the horizon, a RELEASE/DEADLINE pair
        is pushed.  Because sequence numbers only break ties *within* one
        ``(time, kind)`` class and releases/deadlines are pushed in
        admission order, a closed-horizon replay of the accepted jobs
        (in the same order) dispatches bit-identically — the service's
        replay-equivalence contract rests on this method.

        Admission in the past is refused: the dispatch frontier has
        already moved beyond the release, so the closed-horizon replay
        would dispatch a RELEASE this run never saw.
        """
        if not self._started:
            raise SimulationError("admit_job: kernel not started")
        if self._ended:
            raise SimulationError("admit_job: kernel already ended")
        if job.jid in self._by_id:
            raise SimulationError(f"admit_job: duplicate job id {job.jid}")
        if job.release < self._now - _EPS:
            raise SimulationError(
                f"admit_job: release {job.release:g} is behind the "
                f"dispatch frontier (now={self._now:g})"
            )
        self._jobs.append(job)
        self._by_id[job.jid] = job
        self._table.append_job(job)
        if job.release <= self._horizon:
            self._events.push(Event(job.release, EventKind.RELEASE, job))
            self._events.push(Event(job.deadline, EventKind.DEADLINE, job))
        octx = self._obs
        if octx is not None:
            octx.metrics.counter("kernel.jobs.admitted").inc()
            octx.emit(
                "job.admit",
                self._now,
                {"jid": job.jid, "release": job.release},
                replay=False,
            )

    def run_until(self, until: float) -> None:
        """Dispatch every event *strictly before* ``until``, then stop.

        The exclusive bound is what makes incremental admission safe:
        all same-instant submissions are admitted before the batch at
        their release time dispatches, so the ``(kind, seq)`` order at
        that instant matches the closed-horizon replay.  ``now`` is left
        at the last dispatched event (never advanced to ``until``), again
        matching replay semantics.  Same loop body as :meth:`run_loop`;
        no-op once the kernel has ended."""
        if not self._started:
            self._bootstrap()
        if not self._ended:
            self._run(float(until))

    def run_loop(self) -> None:
        """Execute (or, after :meth:`restore`, resume) to the horizon and
        wind down.  The engine's ``run()`` builds the result afterwards.

        Runs the one loop body, :meth:`_run`, with no bound; the
        journal, watchdog, snapshot cadence, crash plans and
        observability are per-event ``is not None`` tests inside it."""
        if not self._started:
            self._bootstrap()
        if not self._ended:
            self._run(math.inf)
        self._wind_down()

    def _run(self, until: float) -> None:
        """The event loop: dispatch live events strictly before ``until``
        (``math.inf`` for a closed-horizon run) until END or the horizon.

        Loop-invariant lookups are hoisted: faults are armed in
        _bootstrap/restore (both before this point), and the
        journal/watchdog/snapshot/obs wiring never changes mid-run."""
        events = self._events
        pop = events.pop
        peek = events.peek_time
        dispatch = self._dispatch
        noop = self._event_is_noop
        journal = self._journal
        watchdog = self._watchdog
        snapshot_every = self._snapshot_every
        crash_hook = self._maybe_crash_at_event if self._event_crashes else None
        bounded = until < math.inf
        horizon = self._horizon
        end_kind = EventKind.END
        octx = self._obs

        while len(events):
            # Exclusive bound (run_until): stop *before* popping the first
            # event at or past `until`.  Checked ahead of the event-indexed
            # crash hook so a crash armed for the next dispatch doesn't fire
            # for an event this call will never dispatch.  A stale head at
            # or past the bound also stops the loop — every live event
            # behind it is at or past the bound too.
            if bounded and peek() >= until:
                return
            if crash_hook is not None:
                crash_hook()
            event = pop()
            t = event.time
            if t < self._now - _EPS:
                raise SimulationError(
                    f"time went backwards: {t} < {self._now}"
                )
            if event.kind is end_kind:
                self._now = t
                self._ended = True
                return
            if t > horizon:
                self._now = horizon
                self._ended = True
                return
            self._now = t
            # Same-timestamp batch: drain every event at exactly t without
            # re-entering the outer bookkeeping.  Pop-then-re-peek, one at
            # a time: a dispatch may push a *same-instant* event of higher
            # kind priority (e.g. a COMPLETION predicted at exactly t),
            # which must come out before the rest of the batch.
            while True:
                if noop(event):
                    if octx is not None:
                        octx.metrics.counter(
                            "kernel.events.skipped_stale"
                        ).inc()
                else:
                    if journal is not None:
                        record = JournalRecord(
                            index=self._dispatch_count,
                            time=event.time,
                            kind=int(event.kind),
                            key=describe_payload(int(event.kind), event.payload),
                            version=event.version,
                        )
                        if self._dispatch_count < self._verify_until:
                            expected = journal.get(self._dispatch_count)
                            if record != expected:
                                raise RecoveryError(
                                    f"journal replay diverged at dispatch "
                                    f"#{self._dispatch_count}: live {record} != "
                                    f"journaled {expected}"
                                )
                        else:
                            journal.append(record)
                    self._dispatch_count += 1
                    if octx is None:
                        dispatch(event)
                    else:
                        self._dispatch_observed(octx, event)
                    if watchdog is not None:
                        watchdog.after_event(self, event)
                    if (
                        snapshot_every is not None
                        and self._dispatch_count % snapshot_every == 0
                    ):
                        self._last_snapshot = self.snapshot()
                if peek() != t:
                    break
                if crash_hook is not None:
                    crash_hook()
                event = pop()
                if event.kind is end_kind:
                    self._now = t
                    self._ended = True
                    return

    def _wind_down(self) -> None:
        """Close running segments and fail unresolved jobs at ``now``.

        The unresolved sweep is one vectorized pass over the status
        column; surviving rows come back in instance order, matching the
        historical per-job loop."""
        octx = self._obs
        for proc in range(len(self._caps)):
            self._close_segment(proc, self._now)
        jobs = self._table.jobs
        st = self._st
        for row in self._table.rows_unresolved().tolist():
            job = jobs[row]
            st[row] = _FAILED
            self._outcomes.record_outcome(job, JobStatus.FAILED, self._now)
            if octx is not None:
                octx.emit("job.unfinished", self._now, {"jid": job.jid})
        if octx is not None:
            octx.emit(
                "run.end", self._now, {"dispatches": self._dispatch_count}
            )

    def _dispatch_observed(self, octx, event: Event) -> None:
        """The traced twin of the ``dispatch(event)`` call in :meth:`_run`
        — taken only when an observability session is active, so none of
        this code runs on the disabled path.

        Stamps the sink with the dispatch index (events emitted during
        this dispatch group under it — the replay-truncation boundary on
        restore), maintains the event-loop metrics, and — under
        ``profile=True`` — samples the wall-clock dispatch latency per
        event kind.  Provably-dead events are filtered out upstream (and
        counted under ``kernel.events.skipped_stale``), so every event
        seen here is live."""
        kind = event.kind
        metrics = octx.metrics
        sink = octx.sink
        if sink is not None:
            sink.current_dispatch = self._dispatch_count - 1
        metrics.counter("kernel.events").inc()
        metrics.counter("kernel.events." + kind.name).inc()
        metrics.gauge("kernel.heap_size").set(float(len(self._events)))
        if kind is EventKind.ALARM:
            metrics.counter("kernel.alarm.fired").inc()
        if octx.profile:
            clock = octx.clock
            t0 = clock()
            self._dispatch(event)
            metrics.histogram(
                "kernel.dispatch_latency_s." + kind.name
            ).observe(clock() - t0)
        else:
            self._dispatch(event)

    def after_run(self, result) -> None:
        """Watchdog wind-down hook (called by ``run()`` with its result)."""
        if self._watchdog is not None:
            self._watchdog.after_run(self, result)

    # ------------------------------------------------------------------
    # Snapshot / restore (crash recovery)
    # ------------------------------------------------------------------
    def _encode_payload(self, kind: EventKind, payload) -> tuple:
        if kind is EventKind.COMPLETION and isinstance(payload, tuple):
            return ("pjob", payload[0], payload[1].jid)
        if kind in (EventKind.RELEASE, EventKind.COMPLETION, EventKind.DEADLINE):
            return ("job", payload.jid)
        if kind is EventKind.ALARM:
            return ("alarm", payload[0].jid, payload[1])
        if kind is EventKind.TIMER:
            return ("timer", payload)
        if kind is EventKind.END:
            return ("end",)
        if kind is EventKind.FAULT:
            return ("fault",) + tuple(payload)
        raise SimulationError(f"cannot snapshot event kind {kind!r}")  # pragma: no cover

    def _decode_payload(self, kind: EventKind, desc: tuple):
        tag = desc[0]
        try:
            if tag == "job":
                return self._by_id[desc[1]]
            if tag == "pjob":
                return (desc[1], self._by_id[desc[2]])
            if tag == "alarm":
                return (self._by_id[desc[1]], desc[2])
        except KeyError:
            raise RecoveryError(
                f"snapshot references unknown job {desc[-1]}"
            ) from None
        if tag == "timer":
            return desc[1]
        if tag == "end":
            return None
        if tag == "fault":
            return tuple(desc[1:])
        raise RecoveryError(f"cannot decode event payload {desc!r}")

    def snapshot(self) -> EngineSnapshot:
        """Image the complete mid-run state (picklable, schema 3).

        Container copies only — no Python-level work per job: the job
        state is the table's column pair (:meth:`JobTable.copy_state`),
        trace segments are shallow list copies (segments are frozen),
        outcomes a dict copy of enum members.  Per-entry work is bounded
        by the event queue, not by the jobs ever admitted."""
        events = [
            (time, kind, seq, self._encode_payload(ev.kind, ev.payload), ev.version)
            for time, kind, seq, ev in self._events.dump()
        ]
        remaining, status = self._table.copy_state()
        return EngineSnapshot(
            scheduler_name=self._scheduler.name,
            now=self._now,
            horizon=self._horizon,
            n_procs=len(self._caps),
            current_jids=[
                None if job is None else job.jid for job in self._current
            ],
            seg_start=list(self._seg_start),
            seg_remaining0=list(self._seg_remaining0),
            seg_cum0=list(self._seg_cum0),
            remaining=remaining,
            status=status,
            completion_version=dict(self._completion_version),
            alarm_version=dict(self._alarm_version),
            events=events,
            next_seq=self._events.next_seq,
            stale_hint=self._events.stale_hint,
            dispatch_count=self._dispatch_count,
            trace_segments=[list(trace.segments) for trace in self._traces],
            trace_outcomes=dict(self._outcomes.outcomes),
            trace_completion_times=dict(self._outcomes.completion_times),
            trace_value_points=list(self._outcomes.value_points),
            trace_lost_work=dict(self._outcomes.lost_work),
            scheduler_state=self._scheduler.get_state(),
            capacity_blob=pickle.dumps(list(self._caps)),
            fired_faults=tuple(
                i
                for i, f in enumerate(self._faults)
                if getattr(f, "fired", False)
            ),
        )

    def restore(self, snapshot: EngineSnapshot) -> None:
        """Load a snapshot into this (fresh, never-run) kernel.

        After restoring, :meth:`run_loop` resumes from the snapshot
        instant; if the kernel also holds a journal extending past the
        snapshot, the resumed dispatches are verified against it
        (deterministic replay)."""
        if self._started:
            raise RecoveryError("restore() requires a fresh engine")
        if snapshot.n_procs != len(self._caps):
            raise RecoveryError(
                f"snapshot is for {snapshot.n_procs} processor(s), "
                f"engine has {len(self._caps)}"
            )
        # Job state is keyed by row (row i is the i-th job of this
        # engine's instance).
        rows = len(self._table)
        if snapshot.rows != rows or len(snapshot.remaining) != rows:
            raise RecoveryError(
                f"snapshot covers {snapshot.rows} job(s), engine has {rows}"
            )

        # World physics first (the scheduler's bind() reads its bounds).
        caps = pickle.loads(snapshot.capacity_blob)
        self._caps = list(caps)
        self._indexed = [
            bool(getattr(c, "supports_prefix_index", False)) for c in self._caps
        ]
        self._advance_from = [
            getattr(c, "advance_from", None) for c in self._caps
        ]
        self._cum_t = [-1.0] * len(self._caps)
        self._cum_v = [0.0] * len(self._caps)
        self._horizon = snapshot.horizon
        self._now = snapshot.now

        # Ground truth: load the snapshot's columns into the table's
        # columns, in place — the kernel's aliases stay valid.
        self._table.load_state_columns(snapshot.remaining, snapshot.status)
        self._current = [
            None if jid is None else self._by_id[jid]
            for jid in snapshot.current_jids
        ]
        self._proc_of = {
            job.jid: proc
            for proc, job in enumerate(self._current)
            if job is not None
        }
        self._seg_start = list(snapshot.seg_start)
        self._seg_remaining0 = list(snapshot.seg_remaining0)
        self._seg_cum0 = list(snapshot.seg_cum0)
        self._completion_version = dict(snapshot.completion_version)
        self._alarm_version = dict(snapshot.alarm_version)

        # Event queue (sequence counter included: post-restore pushes must
        # get the same tie-breaking numbers the original run would have).
        entries = []
        for time, kind, seq, desc, version in snapshot.events:
            k = EventKind(kind)
            entries.append(
                (time, kind, seq, Event(time, k, self._decode_payload(k, desc), version))
            )
        self._events.load(entries, snapshot.next_seq, snapshot.stale_hint)
        self._dispatch_count = snapshot.dispatch_count

        # Trace accumulators.  Single mode: one trace carries both the
        # segments and the combined outcome record (same object).
        traces = []
        for per_proc in snapshot.trace_segments:
            trace = ScheduleTrace()
            trace.segments = list(per_proc)
            traces.append(trace)
        outcomes = traces[0] if self._single else ScheduleTrace()
        outcomes.outcomes = dict(snapshot.trace_outcomes)
        outcomes.completion_times = dict(snapshot.trace_completion_times)
        outcomes.value_points = [tuple(p) for p in snapshot.trace_value_points]
        outcomes.lost_work = dict(snapshot.trace_lost_work)
        self._traces = traces
        self._outcomes = outcomes

        # Scheduler: fresh bind (reset), then install the captured state.
        # The name check runs *after* bind because some schedulers derive
        # their display name during reset (e.g. the partitioned adapter).
        self._scheduler.bind(self._make_context(self))
        if snapshot.scheduler_name != self._scheduler.name:
            raise RecoveryError(
                f"snapshot is for scheduler {snapshot.scheduler_name!r}, "
                f"engine runs {self._scheduler.name!r}"
            )
        self._scheduler.set_state(snapshot.scheduler_state, self._by_id)

        # Faults: re-mark already-fired plans, re-register event-indexed
        # crash checks (queued FAULT events travelled with the heap).
        for i in snapshot.fired_faults:
            if 0 <= i < len(self._faults):
                self._faults[i].fired = True
        for i, fault in enumerate(self._faults):
            rearm = getattr(fault, "rearm", None)
            if rearm is not None:
                rearm(self, i)

        if self._watchdog is not None:
            self._watchdog.start(self)
        self._last_snapshot = snapshot
        self._started = True

        # Observability: the restored run re-dispatches (journal-verified)
        # everything at or past the snapshot, re-emitting those replay
        # events bit-identically — drop the pre-crash copies so the trace
        # carries each exactly once.  The restore itself is process
        # history: a lifecycle event, excluded from replay-only exports.
        octx = self._obs
        if octx is not None:
            truncated = 0
            sink = octx.sink
            if sink is not None:
                truncated = sink.truncate_replay(snapshot.dispatch_count)
            octx.metrics.counter("kernel.recoveries").inc()
            octx.emit(
                "recovery.restore",
                self._now,
                {
                    "dispatch": snapshot.dispatch_count,
                    "truncated": truncated,
                    "verify_until": self._verify_until,
                },
                replay=False,
            )
