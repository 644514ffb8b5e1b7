"""EventJournal / JournalRecord / describe_payload unit tests."""

from __future__ import annotations

import json

import pytest

from repro.errors import RecoveryError
from repro.sim import EventJournal, Job, JournalRecord
from repro.sim.events import EventKind
from repro.sim.journal import describe_payload
from repro.store.directory import MemoryDirectory
from repro.store.log import SegmentedLog


def _record(i: int, **kw) -> JournalRecord:
    base = dict(index=i, time=float(i), kind=2, key=f"jid:{i}", version=0)
    base.update(kw)
    return JournalRecord(**base)


def _write_legacy(path, n: int):
    """A legacy JSONL journal file holding records ``0..n-1``."""
    lines = [json.dumps({"kind": "event_journal", "schema": 1})]
    lines += [json.dumps(_record(i).to_dict()) for i in range(n)]
    path.write_text("\n".join(lines) + "\n")
    return path


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
        rec = _record(4, key="alarm:1:claxity", version=3)
        assert JournalRecord.from_dict(rec.to_dict()) == rec

    def test_version_defaults(self):
        d = _record(0).to_dict()
        del d["version"]
        assert JournalRecord.from_dict(d).version == 0


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
        path = _write_legacy(tmp_path / "run.journal", 4)
        loaded = EventJournal.load(path)
        assert loaded.records == tuple(_record(i) for i in range(4))

    def test_torn_final_line_tolerated(self, tmp_path):
        path = _write_legacy(tmp_path / "run.journal", 4)
        # Simulate a crash mid-append: truncate the last line.
        text = path.read_text()
        path.write_text(text[: text.rindex('{"index": 3') + 10])
        loaded = EventJournal.load(path)
        assert len(loaded) == 3

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = _write_legacy(tmp_path / "run.journal", 4)
        lines = path.read_text().splitlines()
        lines[2] = '{"index": 1, "time": BROKEN'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecoveryError, match="corrupt record at line 3"):
            EventJournal.load(path)

    def test_load_rejects_non_journal(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "something_else"}) + "\n")
        with pytest.raises(RecoveryError, match="not an event journal"):
            EventJournal.load(path)

    def test_load_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "future.journal"
        path.write_text(
            json.dumps({"kind": "event_journal", "schema": 999}) + "\n"
        )
        with pytest.raises(RecoveryError, match="unsupported schema"):
            EventJournal.load(path)

    def test_load_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.journal"
        path.write_text("")
        with pytest.raises(RecoveryError, match="empty"):
            EventJournal.load(path)


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
    """Reopening a log-backed journal (:meth:`EventJournal.open`) and
    importing a legacy JSONL journal into it
    (:meth:`EventJournal.import_legacy`)."""

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
        path = _write_legacy(tmp_path / "wal.jsonl", 3)
        with path.open("ab") as fh:
            fh.write(b'{"index": 3, "time":')  # torn mid-append
        mem = MemoryDirectory()
        journal = EventJournal.open(SegmentedLog(mem))
        journal.import_legacy(path)
        assert len(journal) == 3  # the three complete records
        journal.append(_record(3))
        reopened = EventJournal.open(SegmentedLog(mem))
        assert [r.index for r in reopened.records] == [0, 1, 2, 3]

    def test_interrupted_import_continues(self, tmp_path):
        path = _write_legacy(tmp_path / "wal.jsonl", 5)
        mem = MemoryDirectory()
        partial = EventJournal.open(SegmentedLog(mem))
        for i in range(2):  # a crash cut the first import short
            partial.append(_record(i))
        journal = EventJournal.open(SegmentedLog(mem))
        journal.import_legacy(path)
        assert journal.records == tuple(_record(i) for i in range(5))
        journal.import_legacy(path)  # a completed import is a no-op
        assert len(EventJournal.open(SegmentedLog(mem))) == 5

    def test_import_refuses_a_diverging_journal(self, tmp_path):
        path = _write_legacy(tmp_path / "wal.jsonl", 3)
        journal = EventJournal()
        journal.append(_record(0, key="jid:99"))
        with pytest.raises(RecoveryError, match="do not extend"):
            journal.import_legacy(path)

    def test_mid_file_corruption_refuses(self, tmp_path):
        path = _write_legacy(tmp_path / "wal.jsonl", 3)
        lines = path.read_text().splitlines()
        lines[2] = '{"index": 1, BROKEN'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecoveryError, match="corrupt record"):
            EventJournal().import_legacy(path)

    def test_corrupt_header_refuses(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("{broken\n")
        with pytest.raises(RecoveryError, match="header"):
            EventJournal().import_legacy(path)

    def test_foreign_file_refuses(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text(json.dumps({"kind": "mc_checkpoint", "schema": 1}) + "\n")
        with pytest.raises(RecoveryError, match="not an event journal"):
            EventJournal().import_legacy(path)

    def test_missing_file_refuses(self, tmp_path):
        with pytest.raises(RecoveryError, match="cannot read"):
            EventJournal().import_legacy(tmp_path / "absent.jsonl")
