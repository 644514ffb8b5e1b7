"""EventJournal / JournalRecord / describe_payload unit tests."""

from __future__ import annotations

import json

import pytest

from repro.errors import RecoveryError
from repro.sim import EventJournal, Job, JournalRecord
from repro.sim.events import EventKind
from repro.sim.journal import describe_payload
from repro.store.directory import MemoryDirectory, OsDirectory
from repro.store.log import SegmentedLog


def _record(i: int, **kw) -> JournalRecord:
    base = dict(index=i, time=float(i), kind=2, key=f"jid:{i}", version=0)
    base.update(kw)
    return JournalRecord(**base)


class TestDescribePayload:
    def test_job_events(self):
        job = Job(7, 0.0, 1.0, 5.0, 1.0)
        for kind in (EventKind.RELEASE, EventKind.COMPLETION, EventKind.DEADLINE):
            assert describe_payload(int(kind), job) == "jid:7"

    def test_alarm(self):
        job = Job(3, 0.0, 1.0, 5.0, 1.0)
        assert describe_payload(int(EventKind.ALARM), (job, "claxity")) == (
            "alarm:3:claxity"
        )

    def test_timer_end_fault(self):
        assert describe_payload(int(EventKind.TIMER), "tick") == "timer:tick"
        assert describe_payload(int(EventKind.END), None) == "end"
        assert describe_payload(int(EventKind.FAULT), ("kill", 0, 0.5)) == (
            "fault:kill:0:0.5"
        )


class TestJournalRecord:
    def test_dict_roundtrip(self):
        # The durable log holds ``to_dict`` as JSON; open reads it back
        # as keyword arguments.
        rec = _record(4, key="alarm:1:claxity", version=3)
        assert JournalRecord(**json.loads(json.dumps(rec.to_dict()))) == rec


class TestEventJournal:
    def test_append_and_get(self):
        journal = EventJournal()
        for i in range(5):
            journal.append(_record(i))
        assert len(journal) == 5
        assert journal.get(3) == _record(3)
        assert journal.records == tuple(_record(i) for i in range(5))

    def test_out_of_order_append_rejected(self):
        journal = EventJournal()
        journal.append(_record(0))
        with pytest.raises(RecoveryError, match="out of order"):
            journal.append(_record(2))

    def test_file_roundtrip(self, tmp_path):
        journal = EventJournal.open(SegmentedLog(OsDirectory(tmp_path)))
        for i in range(4):
            journal.append(_record(i))
        journal.flush()
        loaded = EventJournal.open(SegmentedLog(OsDirectory(tmp_path)))
        assert loaded.records == tuple(_record(i) for i in range(4))

    def test_torn_final_line_tolerated(self, tmp_path):
        journal = EventJournal.open(SegmentedLog(OsDirectory(tmp_path)))
        for i in range(4):
            journal.append(_record(i))
        # Simulate a crash mid-append: cut the last record short.
        segment = next(tmp_path.glob("log-*.seg"))
        data = segment.read_bytes()
        segment.write_bytes(data[:-10])
        loaded = EventJournal.open(SegmentedLog(OsDirectory(tmp_path)))
        assert loaded.records == tuple(_record(i) for i in range(3))


class TestFlushBatching:
    def test_flush_is_noop_in_memory(self):
        journal = EventJournal()
        journal.append(_record(0))
        journal.flush()  # must not raise without a log

    def test_every_append_reaches_the_os(self):
        # SIGKILL keeps what was handed to the OS: no flush needed.
        mem = MemoryDirectory()
        journal = EventJournal.open(SegmentedLog(mem, fsync=True))
        for i in range(5):
            journal.append(_record(i))
        mem.sync_all()
        mem.crash()
        assert EventJournal.open(SegmentedLog(mem)).records == journal.records

    def test_explicit_sync_flush(self):
        # Power loss keeps only what flush() forced to stable storage.
        mem = MemoryDirectory()
        journal = EventJournal.open(SegmentedLog(mem, fsync=True))
        for i in range(3):
            journal.append(_record(i))
        journal.flush()
        journal.append(_record(3))  # handed to the OS, never synced
        mem.crash()
        recovered = EventJournal.open(SegmentedLog(mem))
        assert recovered.records == journal.records[:3]


class TestDirFsync:
    """Regression: a journal's *file entry* is only durable once its
    directory is fsynced.  A log-backed journal's segment is born with
    that dir-fsync, once; flushing syncs the file, never the directory
    again."""

    def test_eager_dir_sync_with_fsync_true(self):
        mem = MemoryDirectory()
        EventJournal.open(SegmentedLog(mem, fsync=True))
        mem.crash()  # power loss before the first append
        assert len(mem.listdir()) == 1  # the segment entry survived
        assert len(EventJournal.open(SegmentedLog(mem))) == 0

    def test_in_memory_journal_never_needs_it(self, monkeypatch):
        import os

        monkeypatch.setattr(
            os, "fsync", lambda fd: pytest.fail("in-memory journal fsynced")
        )
        journal = EventJournal()
        journal.append(_record(0))
        journal.flush()  # no log: nothing to sync

    def test_sync_dir_is_one_time(self, monkeypatch):
        mem = MemoryDirectory()
        journal = EventJournal.open(SegmentedLog(mem, fsync=True))
        calls = []
        monkeypatch.setattr(mem, "fsync_dir", lambda: calls.append(1))
        for i in range(3):
            journal.append(_record(i))
            journal.flush()  # must not re-sync the directory
        assert calls == []


class TestResume:
    """Reopening a log-backed journal (:meth:`EventJournal.open`)."""

    def test_clean_resume_appends_in_place(self):
        mem = MemoryDirectory()
        journal = EventJournal.open(SegmentedLog(mem))
        for i in range(3):
            journal.append(_record(i))
        resumed = EventJournal.open(SegmentedLog(mem))
        assert len(resumed) == 3
        resumed.append(_record(3))
        reopened = EventJournal.open(SegmentedLog(mem))
        assert [r.index for r in reopened.records] == [0, 1, 2, 3]

    def test_torn_final_line_truncated_then_extended(self, tmp_path):
        journal = EventJournal.open(SegmentedLog(OsDirectory(tmp_path)))
        for i in range(3):
            journal.append(_record(i))
        segment = next(tmp_path.glob("log-*.seg"))
        with segment.open("ab") as fh:
            fh.write(b"\x40\x00\x00\x00{")  # torn mid-append
        reopened = EventJournal.open(SegmentedLog(OsDirectory(tmp_path)))
        assert len(reopened) == 3  # the three complete records
        reopened.append(_record(3))
        again = EventJournal.open(SegmentedLog(OsDirectory(tmp_path)))
        assert [r.index for r in again.records] == [0, 1, 2, 3]
