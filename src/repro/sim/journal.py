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
  indicate non-determinism or a corrupted snapshot).  The journal can
  optionally mirror to a JSONL file whose torn final line (the crash
  signature) is tolerated on load.

Determinism is what makes this work: the engine consults no wall clock and
no RNG of its own, and capacity paths are materialised lazily in
time-increasing order, so "snapshot + replay the same events" is exact, not
approximate.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
from array import array
from dataclasses import dataclass, field
from operator import attrgetter
from time import perf_counter as _perf_counter
from pathlib import Path
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

_JOURNAL_SCHEMA = 1


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

    @classmethod
    def from_dict(cls, d: dict) -> "JournalRecord":
        return cls(
            index=int(d["index"]),
            time=float(d["time"]),
            kind=int(d["kind"]),
            key=str(d["key"]),
            version=int(d.get("version", 0)),
        )


class EventJournal:
    """Append-only write-ahead log of dispatched events.

    In-memory always; mirrored to a JSONL file when ``path`` is given
    (header line first, one record per line).

    Durability contract: ``flush_every=N`` batches the file-buffer flush —
    every N-th append flushes, so a crash loses at most the last ``N-1``
    records plus a torn final line.  The default (``flush_every=1``)
    keeps the historical flush-per-append behaviour.  The kernel calls
    :meth:`flush` on every snapshot boundary regardless of the batch
    size, so the WAL on disk always covers at least everything the last
    recovery anchor supersedes; ``fsync=True`` additionally forces the
    OS buffer to stable storage on each such explicit flush (the service
    WAL's stated durability point).
    """

    def __init__(
        self,
        path: "str | Path | None" = None,
        *,
        flush_every: int = 1,
        fsync: bool = False,
    ) -> None:
        if flush_every < 1:
            raise RecoveryError(
                f"flush_every must be >= 1, got {flush_every!r}"
            )
        self._records: List[JournalRecord] = []
        self._path = None if path is None else Path(path)
        self._fh = None
        self._flush_every = int(flush_every)
        self._fsync = bool(fsync)
        self._unflushed = 0
        #: Optional ``callable(seconds)`` timing each fsync — the service
        #: telemetry plane's journal-latency SLO hook (wall clock; never
        #: in the replay domain).
        self.sync_observer = None
        self._dir_synced = True  # nothing to sync for in-memory journals
        if self._path is not None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self._path.open("w", encoding="utf-8")
            self._fh.write(
                json.dumps({"kind": "event_journal", "schema": _JOURNAL_SCHEMA})
                + "\n"
            )
            self._fh.flush()
            # The journal *entry* (the freshly created file name) is not
            # durable until the parent directory is fsynced — without
            # this the whole journal can vanish on power loss even
            # though every record was fsynced.  Paid once, at the first
            # durability point: eagerly under fsync=True, else deferred
            # to the first flush(sync=True).
            self._dir_synced = False
            if self._fsync:
                self._sync_dir()

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> Tuple[JournalRecord, ...]:
        return tuple(self._records)

    @property
    def path(self) -> Optional[Path]:
        return self._path

    def append(self, record: JournalRecord) -> None:
        if record.index != len(self._records):
            raise RecoveryError(
                f"journal append out of order: got index {record.index}, "
                f"expected {len(self._records)}"
            )
        self._records.append(record)
        if self._fh is not None:
            self._fh.write(json.dumps(record.to_dict()) + "\n")
            self._unflushed += 1
            if self._unflushed >= self._flush_every:
                self._fh.flush()
                self._unflushed = 0

    def flush(self, *, sync: "bool | None" = None) -> None:
        """Flush buffered records to the file (no-op when in-memory only).

        ``sync`` forces (or suppresses) an ``fsync`` for this call;
        ``None`` defers to the constructor's ``fsync`` flag.  Called by
        the kernel on every snapshot boundary."""
        if self._fh is None:
            return
        self._fh.flush()
        self._unflushed = 0
        do_sync = self._fsync if sync is None else bool(sync)
        if do_sync:
            observer = self.sync_observer
            if observer is None:
                os.fsync(self._fh.fileno())
                self._sync_dir()
            else:
                t0 = _perf_counter()
                os.fsync(self._fh.fileno())
                self._sync_dir()
                observer(_perf_counter() - t0)

    def _sync_dir(self) -> None:
        """One-time fsync of the journal's parent directory, making the
        file's creation itself durable (see __init__)."""
        if self._dir_synced or self._path is None:
            return
        try:
            fd = os.open(self._path.parent, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            self._dir_synced = True
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)
        self._dir_synced = True

    def get(self, index: int) -> JournalRecord:
        return self._records[index]

    def close(self) -> None:
        if self._fh is not None:
            self.flush()
            self._fh.close()
            self._fh = None

    @classmethod
    def load(cls, path: "str | Path") -> "EventJournal":
        """Rebuild an in-memory journal from a JSONL file.

        A torn (undecodable) *final* line is the expected crash signature
        and is dropped; a bad line anywhere else raises
        :class:`~repro.errors.RecoveryError`.
        """
        path = Path(path)
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise RecoveryError(f"cannot read journal {path}: {exc}") from exc
        if not lines:
            raise RecoveryError(f"journal {path} is empty")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise RecoveryError(f"journal {path}: corrupt header") from exc
        if header.get("kind") != "event_journal":
            raise RecoveryError(f"journal {path}: not an event journal")
        if header.get("schema") != _JOURNAL_SCHEMA:
            raise RecoveryError(
                f"journal {path}: unsupported schema {header.get('schema')!r}"
            )
        journal = cls()
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                record = JournalRecord.from_dict(json.loads(line))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                if lineno == len(lines):
                    break  # torn final line: the crash signature
                raise RecoveryError(
                    f"journal {path}: corrupt record at line {lineno}"
                ) from exc
            journal.append(record)
        return journal

    @classmethod
    def resume(
        cls,
        path: "str | Path",
        *,
        flush_every: int = 1,
        fsync: bool = False,
    ) -> "EventJournal":
        """Reopen an on-disk journal for continued appends (cold start).

        Unlike :meth:`load` (read-only rebuild), ``resume`` prepares the
        *file* for further writing: any torn final line — including a
        parseable record missing its newline, which a later append would
        corrupt — is truncated back to the last complete record, and the
        file reopens in append mode.  The restored kernel then verifies
        its re-dispatched events against the loaded records and extends
        the same file seamlessly past them.
        """
        if flush_every < 1:
            raise RecoveryError(
                f"flush_every must be >= 1, got {flush_every!r}"
            )
        path = Path(path)
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise RecoveryError(f"cannot read journal {path}: {exc}") from exc
        nl = data.find(b"\n")
        if nl < 0:
            raise RecoveryError(f"journal {path}: corrupt header")
        try:
            header = json.loads(data[:nl].decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise RecoveryError(f"journal {path}: corrupt header") from exc
        if header.get("kind") != "event_journal":
            raise RecoveryError(f"journal {path}: not an event journal")
        if header.get("schema") != _JOURNAL_SCHEMA:
            raise RecoveryError(
                f"journal {path}: unsupported schema {header.get('schema')!r}"
            )

        journal = cls()
        good_end = nl + 1
        offset = nl + 1
        n = len(data)
        while offset < n:
            next_nl = data.find(b"\n", offset)
            line_end = n if next_nl < 0 else next_nl
            line = data[offset:line_end]
            if line.strip():
                complete = next_nl >= 0
                record = None
                if complete:
                    try:
                        record = JournalRecord.from_dict(
                            json.loads(line.decode("utf-8"))
                        )
                    except (
                        json.JSONDecodeError,
                        UnicodeDecodeError,
                        KeyError,
                        TypeError,
                        ValueError,
                    ):
                        record = None
                if record is None:
                    # Torn tail: tolerated only with nothing after it.
                    if data[line_end:].strip():
                        raise RecoveryError(
                            f"journal {path}: corrupt record mid-file"
                        )
                    break
                journal.append(record)
            good_end = line_end + 1 if next_nl >= 0 else good_end
            if next_nl < 0:
                break
            offset = next_nl + 1

        if good_end < n:
            with path.open("r+b") as fh:
                fh.truncate(good_end)

        journal._path = path
        journal._flush_every = int(flush_every)
        journal._fsync = bool(fsync)
        journal._fh = path.open("a", encoding="utf-8")
        journal._dir_synced = False
        if journal._fsync:
            journal._sync_dir()
        return journal


#: Current :class:`EngineSnapshot` layout (2 = jid-keyed dicts, legacy).
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

    Legacy schema-2 pickles (jid-keyed ``remaining``/``status`` dicts of
    status *names*, segment tuples, outcome names) still load: the reader
    in ``__setstate__`` upgrades segments and outcomes, and
    :meth:`~repro.kernel.core.SchedulingKernel.restore` maps the dicts
    onto table rows (:meth:`~repro.sim.jobtable.JobTable.load_state_dicts`).
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
    #: row -> remaining work (schema 2: jid -> remaining, released jobs)
    remaining: List[float] = field(default_factory=list)
    #: row -> status code, ``repro.sim.job.STATUS_CODE`` (schema 2:
    #: jid -> JobStatus name)
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
        if self.schema >= 3:
            state["remaining"] = array("d", self.remaining).tobytes()
            state["status"] = bytes(self.status)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        byteorder = state.pop("byteorder", None)
        if byteorder is None:
            # Legacy schema-2 pickle: plain field dict, names and tuples.
            state["trace_segments"] = [
                [RunSegment(*seg) for seg in segs]
                for segs in state["trace_segments"]
            ]
            state["trace_outcomes"] = {
                jid: JobStatus[name]
                for jid, name in state["trace_outcomes"].items()
            }
        else:
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
            if state["schema"] >= 3:
                state["remaining"] = _unpack(
                    "d", state["remaining"], byteorder
                ).tolist()
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
