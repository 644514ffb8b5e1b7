"""Per-tenant durable state: spec, op log, kernel journal, snapshots.

Layout under ``<store_dir>/<tenant>/``, every file written through the
tenant's :class:`~repro.store.directory.Directory`::

    spec.json        # the TenantSpec as checksummed JSON (written once)
    oplog/           # SegmentedLog of JSON op records (admits, pushes,
                     #   sheds, crash marks, each with its request id:
                     #   the tenant's whole decided history)
    journal/         # SegmentedLog of JSON kernel journal records (one
                     #   per dispatched event, the EventJournal's mirror)
    snaps/           # SnapshotStore of pickled shard state images

The shard (:mod:`repro.service.shard`) writes *op records first, state
mutation second*: an admit/push/shed is fsynced into the op log before
the kernel sees it, so the disk is always ahead of (or equal to) the
process — ``SIGKILL`` at any instant loses at most acked-but-undecided
buffering, never a decision.  Journal records are handed to the OS as
the kernel dispatches and synced once before each snapshot is written,
so the durable journal always reaches at least as far as the durable
snapshot (*journal ≥ snapshot*).  Snapshots anchor the op sequence: a
state image recorded at op sequence ``s`` was cut after every op with
``seq < s`` was logged.  The logs are the record and snapshots are
caches: nothing is ever compacted, so every kept snapshot (not only
the newest) still has the whole op log it was anchored in.  Only a
store written by an older release, which compacted the op log behind
its newest snapshot, can lack records a snapshot needs; the shard then
refuses to resume from it.

Stores written before the journal moved into ``journal/`` hold it as a
JSONL file instead; both :class:`TenantStore` and
:class:`TenantStoreReader` refuse such a directory before touching it.

This module is deliberately spec-schema agnostic: the tenant spec, the
op payloads and the journal payloads are opaque JSON documents;
(de)serialising them lives with the service and simulation layers,
keeping ``repro.store`` free of their imports.
"""

from __future__ import annotations

import json
import pickle
import zlib
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import RecoveryError, StorageError
from repro.store.directory import Directory, OsDirectory
from repro.store.log import SegmentedLog, read_log
from repro.store.snapshots import SnapshotStore, read_snapshot

__all__ = ["TenantStore", "TenantStoreReader", "read_spec"]

SPEC_FILE = "spec.json"


def read_spec(directory: "Directory | str | Path") -> Optional[Dict[str, Any]]:
    """The stored tenant spec doc (None if absent), read without opening
    the tenant's logs or snapshots."""
    if not hasattr(directory, "subdir"):
        directory = OsDirectory(directory)  # type: ignore[arg-type]
    if not directory.exists(SPEC_FILE):
        return None
    try:
        doc = json.loads(directory.read_bytes(SPEC_FILE).decode())
        spec_doc = doc["spec"]
        body = json.dumps(spec_doc, sort_keys=True)
        if (zlib.crc32(body.encode()) & 0xFFFFFFFF) != doc["crc"]:
            raise ValueError("checksum mismatch")
    except (ValueError, KeyError, TypeError) as exc:
        raise StorageError(
            "tenant spec file is corrupt; refusing to guess the "
            f"tenant's world ({exc})"
        ) from exc
    return spec_doc


def _refuse_old_layout(exists: Callable[[str], bool], where: Any) -> None:
    """Raise :class:`~repro.errors.RecoveryError` if the tenant directory
    ``where`` (whose ``exists(name)`` is given) is a store from before
    ``journal/``: it holds ``wal.jsonl``."""
    if exists("wal.jsonl"):
        raise RecoveryError(
            f"tenant directory {where} holds wal.jsonl: it is a store "
            "from before journal/, which this release does not read; "
            "upgrade it by cold-starting it once and calling persist_now "
            "with a release at or before commit 4d49910"
        )


def _op_docs(
    entries: List[Tuple[int, bytes]]
) -> List[Tuple[int, Dict[str, Any]]]:
    """Op-log entries as ``(seq, doc)``: one parse of the whole log, not
    one ``json.loads`` per record (cold start folds every decision)."""
    docs = json.loads(b"[" + b",".join(p for _seq, p in entries) + b"]")
    return [(seq, doc) for (seq, _p), doc in zip(entries, docs)]


class TenantStore:
    """One tenant's crash-safe state: spec, op log, journal, snapshots."""

    def __init__(
        self,
        directory: "Directory | str | Path",
        *,
        segment_bytes: int = 64 * 1024,
        snapshot_keep: int = 2,
        fsync: bool = True,
    ) -> None:
        if not hasattr(directory, "subdir"):
            directory = OsDirectory(directory)  # type: ignore[arg-type]
        self._dir: Directory = directory  # type: ignore[assignment]
        _refuse_old_layout(self._dir.exists, self._dir.path)
        self._fsync = bool(fsync)
        self.oplog = SegmentedLog(
            self._dir.subdir("oplog"),
            segment_bytes=segment_bytes,
            fsync=fsync,
        )
        self.journal_log = SegmentedLog(
            self._dir.subdir("journal"),
            segment_bytes=segment_bytes,
            fsync=fsync,
        )
        self.snapshots = SnapshotStore(
            self._dir.subdir("snaps"), keep=snapshot_keep, fsync=fsync
        )

    @property
    def path(self) -> Optional[Path]:
        """The tenant directory (None for in-memory directories)."""
        return self._dir.path

    @property
    def fsync(self) -> bool:
        """Whether durability points reach stable storage."""
        return self._fsync

    # -- tenant spec -----------------------------------------------------
    def ensure_spec(self, spec_doc: Dict[str, Any], normalize=None) -> None:
        """Write the spec once; on reopen, verify it has not changed —
        resuming a tenant under a different world would silently break
        replay parity.

        ``normalize`` (a doc -> doc callable) is applied to the *stored*
        doc before comparison, so a store written before a spec field
        existed still resumes when the running spec carries that field at
        its default — the caller round-trips the doc through its spec
        type, filling in defaults.  Genuinely different specs still
        refuse."""
        stored = self.load_spec()
        if stored is not None:
            if normalize is not None:
                stored = normalize(stored)
            if stored != spec_doc:
                raise StorageError(
                    "stored tenant spec differs from the running spec; "
                    "refusing to resume (delete the tenant directory to "
                    "start over)"
                )
            return
        body = json.dumps(spec_doc, sort_keys=True)
        doc = {"spec": spec_doc, "crc": zlib.crc32(body.encode()) & 0xFFFFFFFF}
        tmp = SPEC_FILE + ".tmp"
        h = self._dir.create(tmp)
        h.write((json.dumps(doc, sort_keys=True) + "\n").encode())
        if self._fsync:
            h.fsync()
        else:
            h.flush()
        h.close()
        self._dir.rename(tmp, SPEC_FILE)
        if self._fsync:
            self._dir.fsync_dir()

    def load_spec(self) -> Optional[Dict[str, Any]]:
        return read_spec(self._dir)

    # -- op log ----------------------------------------------------------
    def append_ops(self, docs: "List[Dict[str, Any]]") -> int:
        """Append op records (JSON docs); returns the next sequence
        after the batch.  On an fsynced store the whole batch is durable
        before returning (one fsync, after the last frame)."""
        for doc in docs:
            self.oplog.append(
                json.dumps(doc, sort_keys=True).encode(), sync=False
            )
        if self._fsync and docs:
            self.oplog.sync()
        return self.oplog.next_seq

    @property
    def op_seq(self) -> int:
        return self.oplog.next_seq

    def ops(self) -> List[Tuple[int, Dict[str, Any]]]:
        """All live op records as ``(seq, doc)``."""
        return _op_docs(self.oplog.entries())

    # -- snapshots -------------------------------------------------------
    def write_snapshot(self, state: Any, *, op_seq: int) -> int:
        """Commit one state image anchored at ``op_seq`` (the op log is
        left whole)."""
        return self.snapshots.write(
            pickle.dumps(state), {"op_seq": int(op_seq)}
        )

    def load_snapshot(self) -> Optional[Tuple[Any, int]]:
        """Newest complete state image as ``(state, op_seq)``."""
        loaded = self.snapshots.load()
        if loaded is None:
            return None
        _seq, meta, payload = loaded
        return pickle.loads(payload), int(meta.get("op_seq", 0))

    def has_state(self) -> bool:
        """True if anything recoverable exists (ops or a snapshot)."""
        return len(self.oplog) > 0 or self.snapshots.load() is not None

    def close(self) -> None:
        self.oplog.close()
        self.journal_log.close()


class TenantStoreReader:
    """Read-only view of one tenant directory, for tools that inspect a
    store a live daemon may be writing (``repro obs trace``): what a
    :class:`TenantStore` open would recover, through the same frame and
    manifest parsers, with none of its repairs or writes (no ``*.tmp``
    removal, truncation, quarantine or subdirectory creation)."""

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        _refuse_old_layout(lambda name: (self.path / name).exists(), path)

    def _log(self, name: str) -> List[Tuple[int, bytes]]:
        sub = self.path / name
        return read_log(OsDirectory(sub)) if sub.is_dir() else []

    def load_snapshot(self) -> Optional[Tuple[Any, int]]:
        """Newest complete state image as ``(state, op_seq)``."""
        snaps = self.path / "snaps"
        loaded = read_snapshot(OsDirectory(snaps)) if snaps.is_dir() else None
        if loaded is None:
            return None
        _seq, meta, payload = loaded
        return pickle.loads(payload), int(meta.get("op_seq", 0))

    def ops(self) -> List[Tuple[int, Dict[str, Any]]]:
        """All live op records as ``(seq, doc)``."""
        return _op_docs(self._log("oplog"))

    def journal_payloads(self) -> List[bytes]:
        """The kernel journal's record payloads (``journal/``)."""
        return [payload for _seq, payload in self._log("journal")]
