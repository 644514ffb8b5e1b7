"""Stores written by older releases: the one layout back resumes, the
layout before it is refused untouched.

``tests/fixtures/v1_store`` was written by a release whose snapshot
payloads were version 1 and whose SLO documents were schema 1 (see its
README).  A cold start must read the version-1 payload as the frozen
``base`` books, restore the schema-1 SLO document, re-apply the op-log
tail past the image, keep deciding new submits, close into a report
that replays bit-identically, and persist the current formats.

A tenant directory holding ``wal.jsonl`` is a store from before
``journal/`` (schema-2 kernel images); opening it for a cold start or
for ``repro obs trace`` raises :class:`~repro.errors.RecoveryError`
naming the layout and the upgrade route, and leaves every file as it
was.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import RecoveryError
from repro.service import (
    Advance,
    CapacitySpec,
    Submit,
    TenantShard,
    TenantSpec,
    replay_tenant,
)
from repro.sim.job import Job
from repro.sim.journal import SNAPSHOT_SCHEMA
from repro.store.directory import OsDirectory
from repro.store.log import SegmentedLog, read_log
from repro.store.tenant import TenantStore

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "v1_store"
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


def tree(root: Path) -> dict:
    """Every file under ``root``: relative name -> bytes."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


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


def _cold_start(store_dir, **kw):
    return TenantShard(_spec(), store=TenantStore(store_dir), resume=True, **kw)


class TestV1Store:
    def test_fixture_holds_a_v1_payload(self, store_dir):
        store = TenantStore(store_dir)
        payload, anchor = store.load_snapshot()
        assert payload["version"] == 1
        assert payload["engine"].schema == SNAPSHOT_SCHEMA
        assert payload["slo"]["schema"] == 1
        # The whole op log, with admissions past the anchor: the cold
        # start must re-apply them.
        assert store.oplog.base_seq == 0 and anchor < store.op_seq == 18
        assert any(
            doc["op"] == "admit" for seq, doc in store.ops() if seq >= anchor
        )
        store.close()

    def test_cold_start_resumes_and_replays(self, store_dir):
        shard = _cold_start(store_dir, telemetry=True)
        stats = shard.stats()
        assert (stats["submitted"], stats["accepted"], stats["shed"]) == (
            17,
            13,
            4,
        )
        # The schema-1 SLO document, refolded past its anchor.
        slo = stats["slo"]
        assert slo["schema"] == 2
        assert slo["counters"] == {
            "admitted": 13,
            "cold_starts": 1,
            "injected.kill": 1,
            "recoveries": 1,
            "shed": 4,
            "shed.queue_budget": 4,
        }
        assert slo["histograms"]["fsync"]["count"] == 20
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

    def test_persist_after_upgrade_writes_v2(self, store_dir):
        store = TenantStore(store_dir)
        shard = TenantShard(_spec(), store=store, resume=True, telemetry=True)
        shard.handle(Submit(TENANT, _job(17), rid="r17"))
        shard.persist_now()
        store.close()  # the process is gone
        store = TenantStore(store_dir)
        payload, _anchor = store.load_snapshot()
        store.close()
        assert payload["version"] == 2 and payload["slo"]["schema"] == 2
        assert payload["engine"].schema == SNAPSHOT_SCHEMA
        again = _cold_start(store_dir)
        assert again.stats()["submitted"] == 18
        report = again.close()
        assert replay_tenant(report).ok


class TestOldLayoutRefused:
    """A store from before ``journal/`` holds ``wal.jsonl``; it is
    refused before anything in it is created, repaired or removed."""

    @pytest.fixture
    def old_store(self, store_dir):
        (store_dir / "wal.jsonl").write_text(
            '{"kind": "event_journal", "schema": 1}\n'
        )
        # What a torn append and an interrupted snapshot leave behind:
        # an open would truncate the one and remove the other.
        with next((store_dir / "oplog").glob("*.seg")).open("ab") as fh:
            fh.write(b"\x10\x00")
        (store_dir / "snaps" / "snap-000000000099.bin.tmp").write_bytes(b"RSNP")
        shutil.rmtree(store_dir / "journal")
        return store_dir

    def test_cold_start_refused_and_left_as_found(self, old_store):
        before = tree(old_store.parent)
        with pytest.raises(RecoveryError, match="wal.jsonl") as info:
            _cold_start(old_store)
        assert "before journal/" in str(info.value)
        assert "persist_now" in str(info.value)
        assert tree(old_store.parent) == before

    def test_obs_trace_refused_and_left_as_found(self, old_store):
        before = tree(old_store.parent)
        with pytest.raises(RecoveryError, match="wal.jsonl"):
            main(["obs", "trace", "r3", "--store", str(old_store.parent)])
        assert tree(old_store.parent) == before

    def test_leftover_shed_file_still_resumes(self, store_dir):
        # A pre-journal/ store that an earlier release already upgraded:
        # it imported and removed wal.jsonl but left shed.jsonl.
        (store_dir / "shed.jsonl").write_text("{}\n")
        shard = _cold_start(store_dir)
        assert shard.stats()["submitted"] == 17
        assert replay_tenant(shard.close()).ok
        assert (store_dir / "shed.jsonl").read_text() == "{}\n"
