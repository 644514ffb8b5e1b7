"""TenantStore: spec pinning, op records, snapshot anchoring."""

from __future__ import annotations

import pytest

from repro.errors import RecoveryError, StorageError
from repro.store.directory import MemoryDirectory
from repro.store.tenant import SPEC_FILE, TenantStore


SPEC = {"tenant": "t0", "seed": 11, "workload": {"lam": 2.0}}


class TestSpec:
    def test_written_once_and_reloadable(self, tmp_path):
        store = TenantStore(tmp_path / "t0")
        assert store.load_spec() is None
        store.ensure_spec(SPEC)
        assert store.load_spec() == SPEC
        # Idempotent with the identical spec.
        store.ensure_spec(SPEC)
        reopened = TenantStore(tmp_path / "t0")
        assert reopened.load_spec() == SPEC

    def test_changed_spec_refused(self, tmp_path):
        store = TenantStore(tmp_path / "t0")
        store.ensure_spec(SPEC)
        with pytest.raises(StorageError, match="differs"):
            store.ensure_spec({**SPEC, "seed": 999})

    def test_corrupt_spec_refused(self, tmp_path):
        store = TenantStore(tmp_path / "t0")
        store.ensure_spec(SPEC)
        spec_path = tmp_path / "t0" / SPEC_FILE
        spec_path.write_text(spec_path.read_text().replace("11", "12"))
        with pytest.raises(StorageError, match="corrupt"):
            TenantStore(tmp_path / "t0").load_spec()

    def test_paths(self, tmp_path):
        store = TenantStore(tmp_path / "t0")
        assert store.path == tmp_path / "t0"
        store.ensure_spec(SPEC)
        store.append_ops([{"op": "admit", "jid": 1}])
        store.journal_log.append(b'{"index": 0}')
        store.write_snapshot({"n": 1}, op_seq=store.op_seq)
        store.close()
        # The whole durable layout: nothing lives beside these four.
        assert sorted(p.name for p in (tmp_path / "t0").iterdir()) == [
            "journal", "oplog", "snaps", SPEC_FILE,
        ]
        assert TenantStore(MemoryDirectory()).path is None

    def test_pre_journal_layout_refused_untouched(self):
        mem = MemoryDirectory()
        h = mem.create("wal.jsonl")
        h.write(b"{}\n")
        h.close()
        with pytest.raises(RecoveryError, match="wal.jsonl"):
            TenantStore(mem)
        assert mem.listdir() == ["wal.jsonl"] and not mem._children


class TestOpsAndSnapshots:
    def test_ops_roundtrip(self, tmp_path):
        store = TenantStore(tmp_path / "t0")
        assert store.op_seq == 0
        store.append_ops([{"op": "admit", "jid": 1}, {"op": "shed", "jid": 2}])
        assert store.op_seq == 2
        store.close()
        reopened = TenantStore(tmp_path / "t0")
        assert reopened.ops() == [
            (0, {"op": "admit", "jid": 1}),
            (1, {"op": "shed", "jid": 2}),
        ]

    def test_snapshot_anchors_without_compacting(self, tmp_path):
        store = TenantStore(tmp_path / "t0", segment_bytes=128)
        for i in range(20):
            store.append_ops([{"op": "admit", "jid": i}])
        anchor = store.op_seq
        store.write_snapshot({"accepted": 20}, op_seq=anchor)
        store.append_ops([{"op": "admit", "jid": 20}])
        store.close()
        assert len(list((tmp_path / "t0" / "oplog").glob("*.seg"))) > 1

        reopened = TenantStore(tmp_path / "t0", segment_bytes=128)
        state, got_anchor = reopened.load_snapshot()
        assert state == {"accepted": 20}
        assert got_anchor == anchor
        # The op log is the record: every segment, before the anchor and
        # after it, is still there.
        assert reopened.oplog.base_seq == 0
        assert [doc["jid"] for _seq, doc in reopened.ops()] == list(range(21))

    def test_has_state(self, tmp_path):
        store = TenantStore(tmp_path / "t0")
        assert not store.has_state()
        store.append_ops([{"op": "admit", "jid": 0}])
        assert store.has_state()

        snap_only = TenantStore(tmp_path / "t1")
        assert not snap_only.has_state()
        snap_only.write_snapshot({"x": 1}, op_seq=0)
        assert snap_only.has_state()

    def test_power_loss_synced_ops_survive(self):
        mem = MemoryDirectory()
        store = TenantStore(mem, fsync=True)
        store.ensure_spec(SPEC)
        for i in range(4):
            store.append_ops([{"i": i}])
        mem.crash()
        recovered = TenantStore(mem)
        assert recovered.load_spec() == SPEC
        assert [doc["i"] for _s, doc in recovered.ops()] == [0, 1, 2, 3]


class TestFsyncFollowsStoreFlag:
    """``append_ops`` obeys the store's own ``fsync`` flag: no fsync at
    all on an unsynced store, one per batch (after its last frame) on a
    synced one."""

    def _count_fsyncs(self, monkeypatch, store, batches):
        import repro.store.directory as directory_mod

        calls = []
        real = directory_mod.os.fsync
        monkeypatch.setattr(
            directory_mod.os, "fsync", lambda fd: calls.append(fd) or real(fd)
        )
        for batch in batches:
            store.append_ops(batch)
        monkeypatch.undo()
        return len(calls)

    BATCHES = [[{"op": "admit", "jid": i}, {"op": "shed", "jid": -i}]
               for i in range(6)]

    def test_unsynced_store_never_fsyncs_ops(self, tmp_path, monkeypatch):
        store = TenantStore(tmp_path / "t0", fsync=False)
        assert self._count_fsyncs(monkeypatch, store, self.BATCHES) == 0
        assert store.op_seq == 12

    def test_synced_store_fsyncs_once_per_batch(self, tmp_path, monkeypatch):
        store = TenantStore(tmp_path / "t0", fsync=True)
        assert self._count_fsyncs(monkeypatch, store, self.BATCHES) == 6
        assert store.op_seq == 12
