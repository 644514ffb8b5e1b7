"""Write-ahead event journal and engine snapshots (crash recovery).

The recovery story (docs/ROBUSTNESS.md) has two cooperating artifacts:

* :class:`EngineSnapshot` — a complete, picklable image of a
  :class:`~repro.sim.engine.SimulationEngine` mid-run: simulation clock,
  per-job remaining workload and status, the running segment's anchors, the
  event heap (with its insertion-sequence counter, so post-restore pushes
  get the same tie-breaking sequence numbers), the trace accumulators, the
  scheduler's policy state, and the capacity object itself (pickled
  wholesale, which captures any lazily-materialised stochastic path *and*
  its RNG state).  Restoring a snapshot into a fresh engine and running to
  the horizon yields a :class:`~repro.sim.metrics.SimulationResult`
  bit-identical to the uncrashed run.

* :class:`EventJournal` — a write-ahead log of dispatched events.  The
  engine appends a :class:`JournalRecord` *before* dispatching each event,
  so after a crash the journal extends past the last snapshot; on restore
  the engine replays forward and *verifies* each re-dispatched event
  against the journaled record, raising
  :class:`~repro.errors.RecoveryError` on any divergence (which would
  indicate non-determinism or a corrupted snapshot).  A durable journal
  mirrors each record into a checksummed segmented log
  (:meth:`EventJournal.open`; a tenant store's ``journal/``), whose open
  truncates a torn tail.

Determinism is what makes this work: the engine consults no wall clock and
no RNG of its own, and capacity paths are materialised lazily in
time-increasing order, so "snapshot + replay the same events" is exact, not
approximate.
"""

from __future__ import annotations

import json
import pickle
import sys
from array import array
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import RecoveryError
from repro.sim.job import CODE_STATUS, STATUS_CODE, JobStatus
from repro.sim.trace import RunSegment

__all__ = [
    "JournalRecord",
    "EventJournal",
    "EngineSnapshot",
    "SNAPSHOT_SCHEMA",
    "describe_payload",
    "results_bit_identical",
]

def describe_payload(kind: int, payload: Any) -> str:
    """Canonical string key for an event's payload (journal comparisons).

    Job-carrying events reduce to the jid; alarms add their tag; faults
    stringify their descriptor tuple.  Two dispatches are "the same event"
    iff time, kind and this key all agree.
    """
    from repro.sim.events import EventKind

    k = EventKind(kind)
    if k is EventKind.COMPLETION and isinstance(payload, tuple):
        # Multiprocessor completion: payload is ``(proc, job)``.  The
        # single-processor engine keeps the bare-Job form so existing
        # journals (and their keys) stay bit-identical.
        proc, job = payload
        return f"jid:{job.jid}@p{proc}"
    if k in (EventKind.RELEASE, EventKind.COMPLETION, EventKind.DEADLINE):
        return f"jid:{payload.jid}"
    if k is EventKind.ALARM:
        job, tag = payload
        return f"alarm:{job.jid}:{tag}"
    if k is EventKind.TIMER:
        return f"timer:{payload}"
    if k is EventKind.END:
        return "end"
    if k is EventKind.FAULT:
        return "fault:" + ":".join(str(x) for x in payload)
    return repr(payload)  # pragma: no cover - future kinds


@dataclass(frozen=True)
class JournalRecord:
    """One dispatched event, as logged write-ahead."""

    index: int  #: dispatch index (0-based, monotone)
    time: float
    kind: int  #: ``int(EventKind)``
    key: str  #: :func:`describe_payload` of the event's payload
    version: int = 0

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "time": self.time,
            "kind": self.kind,
            "key": self.key,
            "version": self.version,
        }


class EventJournal:
    """Append-only write-ahead log of dispatched events.

    Always held in memory.  A journal opened over a durable log
    (:meth:`open` — a tenant store's ``journal/``
    :class:`~repro.store.log.SegmentedLog`) also hands every appended
    record to that log as one JSON payload.  Nothing is fsynced per
    record: :meth:`flush` forces the log to stable storage, and the
    service calls it once before committing each snapshot, so the
    journal on disk always reaches the newest durable snapshot.
    """

    def __init__(self) -> None:
        self._records: List[JournalRecord] = []
        self._log = None

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> Tuple[JournalRecord, ...]:
        return tuple(self._records)

    def append(self, record: JournalRecord) -> None:
        if record.index != len(self._records):
            raise RecoveryError(
                f"journal append out of order: got index {record.index}, "
                f"expected {len(self._records)}"
            )
        self._records.append(record)
        if self._log is not None:
            self._log.append(json.dumps(record.to_dict()).encode(), sync=False)

    def flush(self) -> None:
        """Force every appended record to stable storage (no-op when
        in-memory only)."""
        if self._log is not None:
            self._log.sync()

    def get(self, index: int) -> JournalRecord:
        return self._records[index]

    @classmethod
    def open(cls, log) -> "EventJournal":
        """Rebuild a journal from the surviving records of ``log`` (a
        :class:`~repro.store.log.SegmentedLog`, whose open already
        truncated any torn tail) and append further records to it.

        On cold start the restored kernel verifies its re-dispatched
        events against these records and extends the log past them."""
        journal = cls()
        payloads = [payload for _seq, payload in log.entries()]
        # One parse of the whole log, not one json.loads per record.
        for doc in json.loads(b"[" + b",".join(payloads) + b"]"):
            journal.append(JournalRecord(**doc))
        journal._log = log
        return journal


#: The :class:`EngineSnapshot` layout this release writes and reads.
SNAPSHOT_SCHEMA = 3

#: Signed array typecodes, narrowest first (packing jid columns).
_INT_TYPECODES = ("b", "h", "i", "q")


def _pack_ints(values: Sequence[int]) -> Tuple[str, bytes]:
    """``values`` as the narrowest signed :mod:`array` that holds them."""
    lo, hi = min(values, default=0), max(values, default=0)
    for code in _INT_TYPECODES:
        bound = 1 << (8 * array(code).itemsize - 1)
        if -bound <= lo and hi < bound:
            break
    return code, array(code, values).tobytes()


def _unpack(typecode: str, blob: bytes, byteorder: str) -> array:
    arr = array(typecode)
    arr.frombytes(blob)
    if byteorder != sys.byteorder:
        arr.byteswap()
    return arr


_SEG_FLOATS = tuple(attrgetter(name) for name in ("start", "end", "work"))
_SEG_JID = attrgetter("jid")
#: JobStatus value -> STATUS_CODE (str hashing beats Enum.__hash__).
_CODE_OF_VALUE = {status.value: code for status, code in STATUS_CODE.items()}
_STATUS_VALUE = attrgetter("_value_")


def _pack_segments(segments: List[RunSegment]) -> Tuple[str, bytes, bytes]:
    """One processor's segments as a jid column plus one float blob
    holding the start, end and work columns back to back."""
    code, jids = _pack_ints(list(map(_SEG_JID, segments)))
    floats = b"".join(
        array("d", list(map(get, segments))).tobytes() for get in _SEG_FLOATS
    )
    return code, jids, floats


def _unpack_segments(packed, byteorder: str) -> List[RunSegment]:
    code, jids, floats = packed
    jid = _unpack(code, jids, byteorder).tolist()
    flat = _unpack("d", floats, byteorder).tolist()
    n = len(jid)
    return list(map(RunSegment, flat[:n], flat[n : 2 * n], jid, flat[2 * n :]))


@dataclass
class EngineSnapshot:
    """A complete, picklable image of a mid-run simulation engine.

    Jobs are referenced by jid or by table row (the restoring engine
    re-binds them to its own :class:`~repro.sim.job.Job` objects,
    preserving ``is``-identity in scheduler queues); the capacity
    functions travel as a pickle blob so any materialised stochastic path
    and RNG state survive exactly.

    The image generalises to ``m`` processors: the running-job slot and
    segment anchors are per-processor lists, traces are a list of
    per-processor segment lists, and ``capacity_blob`` pickles the *list*
    of capacity models.  The single-processor engine is simply the
    ``n_procs == 1`` case (element 0 everywhere).

    Schema 3 (current) is columnar, so taking a snapshot does no
    Python-level work per job: ``remaining``/``status`` are row-ordered
    copies of the kernel's :class:`~repro.sim.jobtable.JobTable` hot
    columns (the row count is the jid mapping — row ``i`` is the ``i``-th
    job of the instance, in admission order), ``trace_segments`` are
    shallow copies of the trace lists (:class:`RunSegment` is frozen and
    traces only ever replace their last element), and ``trace_outcomes``
    holds :class:`~repro.sim.job.JobStatus` members.  Pickling packs the
    columns, segments and outcomes into :mod:`array` bytes
    (``__getstate__``), which keeps durable images compact.

    Unpickling an image of any other schema raises
    :class:`~repro.errors.RecoveryError`: the schema-2 images (jid-keyed
    dicts) of stores from before ``journal/`` are not read.
    """

    schema: int = SNAPSHOT_SCHEMA
    scheduler_name: str = ""
    #: simulation clock
    now: float = 0.0
    horizon: float = 0.0
    #: number of processors the image describes (1 for the single engine)
    n_procs: int = 1
    #: per-processor jid of the running job (None = idle)
    current_jids: List[Optional[int]] = field(default_factory=lambda: [None])
    seg_start: List[float] = field(default_factory=lambda: [0.0])
    seg_remaining0: List[float] = field(default_factory=lambda: [0.0])
    seg_cum0: List[float] = field(default_factory=lambda: [0.0])
    #: row -> remaining work
    remaining: List[float] = field(default_factory=list)
    #: row -> status code, ``repro.sim.job.STATUS_CODE``
    status: List[int] = field(default_factory=list)
    completion_version: Dict[int, int] = field(default_factory=dict)
    alarm_version: Dict[int, int] = field(default_factory=dict)
    #: encoded heap entries ``(time, kind, seq, payload_desc, version)``
    events: List[tuple] = field(default_factory=list)
    next_seq: int = 0
    stale_hint: int = 0
    #: events dispatched so far (aligns with the journal index)
    dispatch_count: int = 0
    #: per-processor trace accumulators (one segment list per processor)
    trace_segments: List[List[RunSegment]] = field(
        default_factory=lambda: [[]]
    )
    #: jid -> final JobStatus
    trace_outcomes: Dict[int, JobStatus] = field(default_factory=dict)
    trace_completion_times: Dict[int, float] = field(default_factory=dict)
    trace_value_points: List[Tuple[float, float]] = field(default_factory=list)
    trace_lost_work: Dict[int, float] = field(default_factory=dict)
    #: :meth:`repro.sim.scheduler.Scheduler.get_state`
    scheduler_state: Dict[str, Any] = field(default_factory=dict)
    #: ``pickle.dumps(list_of_capacities)``
    capacity_blob: bytes = b""
    #: indices (into the engine's fault list) of faults already fired
    fired_faults: Tuple[int, ...] = ()

    @property
    def rows(self) -> int:
        """Job-table rows the image covers: the first ``rows`` jobs of
        the instance, in admission order."""
        return len(self.status)

    def roundtrip(self) -> "EngineSnapshot":
        """Pickle round-trip (what crossing a process boundary does)."""
        return pickle.loads(pickle.dumps(self))

    # ------------------------------------------------------------------
    # Persisted form
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["byteorder"] = sys.byteorder
        state["trace_segments"] = [
            _pack_segments(segs) for segs in self.trace_segments
        ]
        outcomes = self.trace_outcomes
        code, jids = _pack_ints(list(outcomes))
        values = map(_STATUS_VALUE, outcomes.values())
        state["trace_outcomes"] = (
            code,
            jids,
            bytes(map(_CODE_OF_VALUE.__getitem__, values)),
        )
        state["remaining"] = array("d", self.remaining).tobytes()
        state["status"] = bytes(self.status)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        schema = state.get("schema")
        if schema != SNAPSHOT_SCHEMA:
            raise RecoveryError(
                f"kernel image schema {schema!r} is not the schema "
                f"{SNAPSHOT_SCHEMA} this release reads (schema 2 is the "
                "store layout from before journal/, with wal.jsonl); "
                "upgrade the store by cold-starting it once and calling "
                "persist_now with a release at or before commit 4d49910"
            )
        byteorder = state.pop("byteorder")
        state["trace_segments"] = [
            _unpack_segments(packed, byteorder)
            for packed in state["trace_segments"]
        ]
        code, jids, codes = state["trace_outcomes"]
        state["trace_outcomes"] = dict(
            zip(
                _unpack(code, jids, byteorder).tolist(),
                map(CODE_STATUS.__getitem__, codes),
            )
        )
        state["remaining"] = _unpack("d", state["remaining"], byteorder).tolist()
        state["status"] = list(state["status"])
        self.__dict__.update(state)


def results_bit_identical(a, b) -> bool:
    """True iff two :class:`~repro.sim.metrics.SimulationResult`\\ s are
    bit-identical: same scheduler, horizon, segments (``==`` on floats, no
    tolerance), outcomes, completion times and value points."""
    return (
        a.scheduler_name == b.scheduler_name
        and a.horizon == b.horizon
        and a.trace.segments == b.trace.segments
        and a.trace.outcomes == b.trace.outcomes
        and a.trace.completion_times == b.trace.completion_times
        and a.trace.value_points == b.trace.value_points
        and getattr(a.trace, "lost_work", {}) == getattr(b.trace, "lost_work", {})
    )
