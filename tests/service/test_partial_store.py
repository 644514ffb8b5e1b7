"""A store that holds only some of the given tenants serves all of them.

A first ``repro serve`` start that dies between creating two tenant
directories leaves a store in which ``t0`` has its spec (and maybe state)
while ``t1`` has nothing.  Restarting with the same spec file must resume
``t0`` from disk *and* create ``t1`` from its spec; serving only the
stored tenants made every later ``t1`` message fail with "unknown tenant".
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import signal

import pytest

from repro.errors import StorageError
from repro.service import (
    Advance,
    CapacitySpec,
    Close,
    Stat,
    Submit,
    TenantShard,
    TenantSpec,
    encode_message,
)
from repro.service.daemon import serve
from repro.sim.job import Job
from repro.store.tenant import TenantStore


def _spec(tenant, **kw):
    base = dict(
        tenant=tenant,
        horizon=40.0,
        scheduler="edf",
        capacity=CapacitySpec("constant", {"rate": 1.0}),
        queue_budget=8,
        snapshot_every=4,
    )
    base.update(kw)
    return TenantSpec(**base)


def _job(jid, release):
    return Job(
        jid=jid, release=release, workload=1.0, deadline=release + 5.0, value=1.0
    )


def _partial_store(root):
    """``t0`` decided two submits and persisted; ``t1`` was never created."""
    store = TenantStore(root / "t0", fsync=True)
    shard = TenantShard(_spec("t0"), store=store)
    shard.handle(Submit("t0", _job(0, 1.0), rid="r0"))
    shard.handle(Submit("t0", _job(1, 2.0), rid="r1"))
    shard.handle(Advance("t0", 3.0))
    store.close()
    assert not (root / "t1").exists()


async def _drive(store_dir, specs):
    out = io.StringIO()
    task = asyncio.create_task(serve(store_dir, specs=specs, out=out))
    while not out.getvalue():
        await asyncio.sleep(0.01)
        assert not task.done(), task.exception()
    hello = json.loads(out.getvalue().splitlines()[0])
    reader, writer = await asyncio.open_connection("127.0.0.1", hello["port"])

    async def send(message):
        writer.write((encode_message(message) + "\n").encode())
        await writer.drain()
        return json.loads(await reader.readline())

    acks = {}
    for tenant in ("t0", "t1"):
        acks[tenant] = [
            await send(Submit(tenant, _job(10, 4.0), rid=tenant + "-a")),
            await send(Submit(tenant, _job(11, 5.0), rid=tenant + "-b")),
            await send(Advance(tenant, 6.0)),
        ]
    stats = {tenant: await send(Stat(tenant)) for tenant in ("t0", "t1")}
    closes = {tenant: await send(Close(tenant)) for tenant in ("t0", "t1")}
    writer.close()
    await writer.wait_closed()
    os.kill(os.getpid(), signal.SIGTERM)
    await task
    return hello, acks, stats, closes


def test_restart_serves_stored_and_missing_tenants(tmp_path):
    _partial_store(tmp_path)
    hello, acks, stats, closes = asyncio.run(
        asyncio.wait_for(_drive(tmp_path, [_spec("t0"), _spec("t1")]), 60.0)
    )

    assert hello["cold_start"] is True
    assert sorted(hello["tenants"]) == ["t0", "t1"]
    for tenant in ("t0", "t1"):
        assert all(ack["ok"] for ack in acks[tenant]), acks[tenant]
        assert closes[tenant]["ok"] and closes[tenant]["parity"], closes[tenant]
    # t0 resumed its two pre-restart jobs; t1 started empty.
    assert stats["t0"]["accepted"] == 4
    assert stats["t1"]["accepted"] == 2
    assert closes["t0"]["accepted"] == 4
    assert closes["t1"]["accepted"] == 2
    assert (tmp_path / "t1" / "spec.json").exists()


def test_changed_spec_for_stored_tenant_still_refused(tmp_path):
    _partial_store(tmp_path)
    changed = [_spec("t0", horizon=99.0), _spec("t1")]
    with pytest.raises(StorageError, match="differs"):
        asyncio.run(
            asyncio.wait_for(
                serve(tmp_path, specs=changed, out=io.StringIO()), 60.0
            )
        )
