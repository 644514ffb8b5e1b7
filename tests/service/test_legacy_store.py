"""A tenant store written by the schema-2 snapshot writer still resumes.

``tests/fixtures/schema2_store`` was written by the last release whose
:class:`~repro.sim.journal.EngineSnapshot` pickled jid-keyed dicts
(see its README).  A cold start must read that image through the
schema-2 reader, import the JSONL kernel journal (``wal.jsonl``) into
``journal/``, re-apply the op-log tail past the image, keep deciding new
submits, and close into a report that replays bit-identically.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.service import (
    Advance,
    CapacitySpec,
    Submit,
    TenantShard,
    TenantSpec,
    replay_tenant,
)
from repro.sim.job import Job
from repro.sim.journal import SNAPSHOT_SCHEMA, EventJournal
from repro.store.directory import OsDirectory
from repro.store.log import SegmentedLog, read_log
from repro.store.tenant import TenantStore

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "schema2_store"
TENANT = "legacy"


def compact_log_head(oplog: Path, first_seq: int) -> None:
    """Leave the log in ``oplog`` holding only its records from
    ``first_seq`` on: what the compaction of an older release left of a
    log whose segments held one record each."""
    records = [payload for _seq, payload in read_log(OsDirectory(oplog))]
    shutil.rmtree(oplog)
    log = SegmentedLog(OsDirectory(oplog), segment_bytes=20)  # one per segment
    for payload in records:
        log.append(payload)
    log.close()
    for seq in range(first_seq):
        (oplog / f"log-{seq:012d}.seg").unlink()


def rot_newest_snapshot(tenant_dir: Path) -> None:
    """Flip the last payload byte of the newest snapshot file."""
    newest = sorted((tenant_dir / "snaps").glob("snap-*.bin"))[-1]
    data = bytearray(newest.read_bytes())
    data[-1] ^= 0xFF
    newest.write_bytes(bytes(data))


def _spec():
    return TenantSpec(
        tenant=TENANT,
        horizon=60.0,
        scheduler="vdover",
        capacity=CapacitySpec("constant", {"rate": 1.0}),
        queue_budget=3,
        snapshot_every=4,
    )


def _job(i):
    release = 0.75 * i
    return Job(
        jid=i,
        release=release,
        workload=0.5 + (i % 4) * 0.5,
        deadline=release + 3.0 + (i % 3),
        value=1.0 + (i % 5),
    )


@pytest.fixture
def store_dir(tmp_path):
    # Cold start truncates and appends to the store: never touch the
    # committed copy.
    shutil.copytree(FIXTURE, tmp_path / "store")
    return tmp_path / "store" / TENANT


def _cold_start(store_dir):
    return TenantShard(_spec(), store=TenantStore(store_dir), resume=True)


class TestSchema2Store:
    def test_fixture_holds_a_schema2_image(self, store_dir):
        store = TenantStore(store_dir)
        payload, anchor = store.load_snapshot()
        snap = payload["engine"]
        assert snap.schema == 2 < SNAPSHOT_SCHEMA
        assert isinstance(snap.status, dict) and snap.rows == 10
        # Admissions past the anchor: the cold start must re-apply them.
        assert any(
            doc["op"] == "admit" for seq, doc in store.ops() if seq >= anchor
        )
        store.close()

    def test_cold_start_resumes_and_replays(self, store_dir):
        shard = _cold_start(store_dir)
        assert shard.kernel.last_snapshot.schema == 2
        stats = shard.stats()
        assert (stats["submitted"], stats["accepted"], stats["shed"]) == (
            17,
            13,
            4,
        )
        # Decided requests stay decided; the undecided one is new.
        assert shard.dedup_outcome("r3") is not None
        assert shard.dedup_outcome("r17") is None
        for i in range(17, 24):
            shard.handle(Submit(TENANT, _job(i), rid=f"r{i}"))
        shard.handle(Advance(TENANT, 20.0))
        assert shard.stats()["accepted"] > stats["accepted"]
        report = shard.close()
        check = replay_tenant(report)
        assert check.ok, check.failures
        assert report.lost_jids == ()

    def test_persist_after_upgrade_writes_schema3(self, store_dir):
        store = TenantStore(store_dir)
        shard = TenantShard(_spec(), store=store, resume=True)
        shard.handle(Submit(TENANT, _job(17), rid="r17"))
        shard.persist_now()
        store.close()  # the process is gone
        again = _cold_start(store_dir)
        assert again.kernel.last_snapshot.schema == SNAPSHOT_SCHEMA
        report = again.close()
        assert replay_tenant(report).ok

    def test_legacy_wal_imported_into_journal(self, store_dir):
        wal = EventJournal.load(store_dir / "wal.jsonl").records
        # An earlier import was cut short by a crash after two records.
        store = TenantStore(store_dir)
        partial = EventJournal.open(store.journal_log)
        for record in wal[:2]:
            partial.append(record)
        store.close()

        store = TenantStore(store_dir)
        shard = TenantShard(_spec(), store=store, resume=True)
        assert not (store_dir / "wal.jsonl").exists()
        assert (store_dir / "shed.jsonl").exists()  # ignored, left as found
        assert EventJournal.open(store.journal_log).records == wal
        report = shard.close()
        assert report.journal.records[: len(wal)] == wal
        assert replay_tenant(report).ok
