"""Deterministic work counters of a tenant shard, pinned exactly.

Two small streams at fixed seeds: an in-memory EDF tenant of the
``tenant_aging`` shape (Poisson submits at 1.5x overload, a tight queue
budget, an ``advance`` every 16 submits) and an fsynced store-backed
V-Dover tenant with a fault push, a drain and a cold start.  The counts
(events dispatched, kernel snapshots cut, snapshot writes, op records
appended, ``os.fsync`` calls) depend only on the stream and the code
path, never on the wall clock; a change that moves any of them changes
how much work the shard does per message and must say so.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.kernel.core import SchedulingKernel
from repro.service import (
    Advance,
    CapacitySpec,
    InjectFault,
    Submit,
    TenantShard,
    TenantSpec,
    replay_tenant,
)
from repro.sim.job import Job
from repro.store.snapshots import SnapshotStore
from repro.store.tenant import TenantStore


@pytest.fixture
def counts(monkeypatch):
    """Counters for kernel snapshots cut, snapshot writes and fsyncs."""
    c = {"snapshots": 0, "snapshot_writes": 0, "fsyncs": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            c[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        SchedulingKernel,
        "snapshot",
        counted("snapshots", SchedulingKernel.snapshot),
    )
    monkeypatch.setattr(
        SnapshotStore, "write", counted("snapshot_writes", SnapshotStore.write)
    )
    monkeypatch.setattr(os, "fsync", counted("fsyncs", os.fsync))
    return c


def _stream(tenant, n, seed, *, lam, slack, advance_every):
    rng = np.random.default_rng(seed)
    release = np.cumsum(rng.exponential(1.0 / lam, n))
    work = rng.exponential(1.0, n)
    slack = rng.uniform(*slack, n)
    density = rng.uniform(1.0, 7.0, n)
    messages = []
    for i in range(n):
        r, p = float(release[i]), float(work[i])
        job = Job(i, r, p, r + float(slack[i]) * p, float(density[i]) * p)
        messages.append(Submit(tenant, job, rid=f"{tenant}/s{i}"))
        if i % advance_every == advance_every - 1 or i == n - 1:
            messages.append(Advance(tenant, r))
    return messages, float(release[-1])


def test_in_memory_aging_tenant(counts):
    messages, last = _stream(
        "aging", 1200, 7, lam=1.5, slack=(1.0, 4.0), advance_every=16
    )
    shard = TenantShard(
        TenantSpec(
            tenant="aging",
            horizon=last + 100.0,
            scheduler="edf",
            capacity=CapacitySpec("constant", {"rate": 1.0}),
            queue_budget=6,
        )
    )
    for message in messages:
        shard.handle(message)
    stats = shard.stats()
    assert (stats["accepted"], stats["shed"]) == (1113, 87)
    assert shard.kernel.dispatch_count == 2219
    assert counts == {"snapshots": 70, "snapshot_writes": 0, "fsyncs": 0}


def test_fsynced_store_tenant(tmp_path, counts):
    messages, last = _stream(
        "tv", 240, 5, lam=1.0, slack=(1.5, 4.0), advance_every=24
    )
    when = messages[100].job.release + 0.1
    messages.insert(100, InjectFault("tv", "kill", time=when, rid="f0"))
    spec = TenantSpec(
        tenant="tv",
        horizon=last + 50.0,
        scheduler="vdover",
        capacity=CapacitySpec(
            "markov2", {"low": 1.0, "high": 8.0, "mean_sojourn": 4.0}, seed=11
        ),
        queue_budget=4,
    )
    store = TenantStore(tmp_path / "tv")
    shard = TenantShard(spec, store=store)
    for message in messages[:160]:
        shard.handle(message)
        shard.maybe_persist()
    shard.persist_now()
    store.close()  # the process is gone

    store = TenantStore(tmp_path / "tv")
    revived = TenantShard(spec, store=store, resume=True)
    for message in messages[160:]:
        revived.handle(message)
        revived.maybe_persist()
    revived.persist_now()
    stats = revived.stats()
    assert (stats["accepted"], stats["shed"]) == (237, 3)
    assert revived.kernel.dispatch_count == 474
    assert store.op_seq == 241
    assert counts == {"snapshots": 17, "snapshot_writes": 17, "fsyncs": 351}
    report = revived.close()
    store.close()
    assert replay_tenant(report).ok
