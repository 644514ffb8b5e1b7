"""TenantShard tests: incremental drive parity, fault injection,
crash recovery via the op log, and the shed bookkeeping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MessageError, ServiceError, SimulatedCrash
from repro.service import (
    Advance,
    CapacitySpec,
    Close,
    InjectFault,
    Submit,
    TenantShard,
    TenantSpec,
    make_scheduler,
    replay_tenant,
)
from repro.sim.engine import simulate
from repro.sim.job import Job
from repro.sim.journal import EventJournal, results_bit_identical
from repro.store.directory import MemoryDirectory
from repro.store.tenant import TenantStore


def _spec(**kw):
    base = dict(
        tenant="t0",
        horizon=30.0,
        scheduler="vdover",
        capacity=CapacitySpec("constant", {"rate": 1.0}),
        queue_budget=64,
        snapshot_every=4,
    )
    base.update(kw)
    return TenantSpec(**base)


def _jobs(n=8, start=1.0, gap=2.0):
    return [
        Job(
            jid=i + 1,
            release=start + gap * i,
            workload=1.0,
            deadline=start + gap * i + 4.0,
            value=float(i + 1),
        )
        for i in range(n)
    ]


class TestSpecs:
    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ServiceError, match="unknown scheduler"):
            make_scheduler("magic")

    def test_unknown_capacity_kind_rejected(self):
        with pytest.raises(ServiceError, match="capacity kind"):
            CapacitySpec("quantum")

    def test_crash_start_faults_refused(self):
        from repro.faults.execution import ExecutionFaultSpec

        with pytest.raises(ServiceError, match="crash plans"):
            _spec(
                start_faults=(
                    ExecutionFaultSpec("crash", options={"at_event": 3}),
                )
            )

    def test_capacity_specs_build(self):
        assert CapacitySpec("constant", {"rate": 2.0}).build().value(1.0) == 2.0
        assert (
            CapacitySpec(
                "piecewise", {"breakpoints": [0.0, 5.0], "rates": [1.0, 3.0]}
            )
            .build()
            .value(6.0)
            == 3.0
        )
        markov = CapacitySpec(
            "markov2", {"low": 1.0, "high": 8.0, "mean_sojourn": 2.0}, seed=3
        ).build()
        assert markov.lower == 1.0


class TestIncrementalParity:
    """A shard fed submissions one by one must equal the batch run."""

    def test_matches_batch_simulate(self):
        spec = _spec()
        jobs = _jobs()
        shard = TenantShard(spec)
        for job in jobs:
            shard.handle(Submit("t0", job))
        report = shard.close()
        reference = simulate(
            jobs,
            spec.build_capacity(),
            spec.build_scheduler(),
            horizon=spec.horizon,
        )
        assert results_bit_identical(report.result, reference)
        assert report.lost_jids == ()

    def test_interleaved_advances_change_nothing(self):
        spec = _spec()
        jobs = _jobs()
        shard = TenantShard(spec)
        for i, job in enumerate(jobs):
            shard.handle(Submit("t0", job))
            if i % 2:
                shard.handle(Advance("t0", job.release))
        report = shard.close()
        reference = simulate(
            jobs,
            spec.build_capacity(),
            spec.build_scheduler(),
            horizon=spec.horizon,
        )
        assert results_bit_identical(report.result, reference)

    def test_closed_shard_refuses_messages(self):
        shard = TenantShard(_spec())
        shard.handle(Close("t0"))
        with pytest.raises(ServiceError, match="closed"):
            shard.handle(Advance("t0", 5.0))


class TestInjection:
    def test_kill_and_evict_recorded_for_replay(self):
        shard = TenantShard(_spec())
        for job in _jobs(4):
            shard.handle(Submit("t0", job))
        shard.handle(InjectFault("t0", "kill", 9.0, retain=0.5))
        shard.handle(InjectFault("t0", "evict", 12.0))
        report = shard.close()
        assert report.injected == (
            (9.0, ("kill", -1, 0.5)),
            (12.0, ("evict", -1)),
        )
        check = replay_tenant(report)
        assert check.ok, check.failures

    def test_fault_behind_frontier_rejected(self):
        shard = TenantShard(_spec())
        shard.handle(
            Submit("t0", Job(jid=1, release=5.0, workload=1.0, deadline=9.0, value=1.0))
        )
        shard.handle(Advance("t0", 10.0))  # dispatches through t=5
        with pytest.raises(MessageError, match="behind the dispatch frontier"):
            shard.handle(InjectFault("t0", "kill", 1.0))

    def test_fault_beyond_horizon_rejected(self):
        shard = TenantShard(_spec())
        with pytest.raises(MessageError, match="outside"):
            shard.handle(InjectFault("t0", "evict", 99.0))

    def test_crash_raises_with_snapshot(self):
        shard = TenantShard(_spec())
        for job in _jobs(6):
            shard.handle(Submit("t0", job))
        with pytest.raises(SimulatedCrash) as exc_info:
            shard.handle(InjectFault("t0", "crash", 11.0))
        crash = exc_info.value
        assert crash.fault_index == -1  # the service's sentinel
        assert crash.at_event is None
        assert crash.snapshot is not None
        assert shard.report().forced_crashes == 1


class TestRecovery:
    def test_recover_then_close_is_bit_identical(self):
        spec = _spec()
        jobs = _jobs(10)
        shard = TenantShard(spec)
        for job in jobs[:7]:
            shard.handle(Submit("t0", job))
        with pytest.raises(SimulatedCrash) as exc_info:
            shard.handle(InjectFault("t0", "crash", 12.0))
        shard.recover(exc_info.value)
        for job in jobs[7:]:
            shard.handle(Submit("t0", job))
        report = shard.close()
        assert report.recoveries == 1
        reference = simulate(
            jobs,
            spec.build_capacity(),
            spec.build_scheduler(),
            horizon=spec.horizon,
        )
        assert results_bit_identical(report.result, reference)
        assert replay_tenant(report).ok

    def test_double_crash_recovers_twice(self):
        spec = _spec()
        jobs = _jobs(10)
        shard = TenantShard(spec)
        for job in jobs[:5]:
            shard.handle(Submit("t0", job))
        with pytest.raises(SimulatedCrash) as first:
            shard.handle(InjectFault("t0", "crash", 9.0))
        shard.recover(first.value)
        for job in jobs[5:8]:
            shard.handle(Submit("t0", job))
        with pytest.raises(SimulatedCrash) as second:
            shard.handle(InjectFault("t0", "crash", 16.0))
        shard.recover(second.value)
        for job in jobs[8:]:
            shard.handle(Submit("t0", job))
        report = shard.close()
        assert report.recoveries == 2
        assert replay_tenant(report).ok


class TestShedBookkeeping:
    def test_budget_shed_balances_and_replays(self):
        spec = _spec(queue_budget=2)
        shard = TenantShard(spec)
        for i in range(4):  # one contention group of 4, budget 2
            shard.handle(
                Submit(
                    "t0",
                    Job(
                        jid=i + 1,
                        release=2.0,
                        workload=2.0,
                        deadline=12.0,
                        value=float(i + 1),
                    ),
                )
            )
        report = shard.close()
        assert report.submitted == 4
        assert len(report.accepted) == 2
        assert [r.reason for r in report.shed] == ["queue_budget"] * 2
        check = replay_tenant(report)
        assert check.ok, check.failures

    def test_journal_and_shed_log_written(self):
        store = TenantStore(MemoryDirectory())
        shard = TenantShard(_spec(queue_budget=1), store=store)
        for i in range(3):
            shard.handle(
                Submit(
                    "t0",
                    Job(
                        jid=i + 1,
                        release=1.0,
                        workload=1.0,
                        deadline=8.0,
                        value=1.0 + i,
                    ),
                )
            )
        report = shard.close()
        # Every journal record went into the store's journal log, every
        # shed decision into its op log.
        assert EventJournal.open(store.journal_log).records == (
            report.journal.records
        )
        assert len(report.journal) > 0
        shed_ops = [doc for _seq, doc in store.ops() if doc["op"] == "shed"]
        assert [doc["rec"]["reason"] for doc in shed_ops] == [
            rec.reason for rec in report.shed
        ]
        assert len(report.shed) == 2


class TestBoundedOps:
    """The re-apply list holds only the admits and pushes at or past the
    kernel's last periodic snapshot (the image ``recover`` restores), so
    it stays bounded however long the tenant lives."""

    def _messages(self, n=600):
        rng = np.random.default_rng(7)
        messages, release = [], 0.0
        for i in range(n):
            release += float(rng.exponential(1.0 / 1.5))
            work = float(rng.exponential(1.0))
            job = Job(i, release, work, release + 3.0 * work, 1.0 + work)
            messages.append(Submit("t0", job, rid=f"s{i}"))
            if i % 16 == 15:
                messages.append(Advance("t0", release))
            if i % 100 == 50:
                messages.append(InjectFault("t0", "kill", release + 0.1))
        return messages, release

    def test_long_stream_keeps_only_the_tail(self, monkeypatch):
        messages, last = self._messages()
        spec = _spec(horizon=last + 20.0, scheduler="edf", queue_budget=6)
        shard = TenantShard(spec)
        # The twin never trims: its list is the whole history.
        twin = TenantShard(spec)
        monkeypatch.setattr(twin, "_trim_ops", lambda base: None)
        longest = 0
        for message in messages:
            shard.handle(message)
            twin.handle(message)
            base = shard.kernel.last_snapshot.dispatch_count
            assert shard._ops == [op for op in twin._ops if op[0] >= base]
            longest = max(longest, len(shard._ops))
        assert len(twin._ops) > 500 and longest < 40

    def test_crash_after_trimming_recovers_with_parity(self):
        messages, last = self._messages()
        spec = _spec(horizon=last + 20.0, scheduler="edf", queue_budget=6)
        shard = TenantShard(spec)
        crash_at = len(messages) // 2
        for message in messages[:crash_at]:
            shard.handle(message)
        assert shard._ops[0][0] >= shard.kernel.last_snapshot.dispatch_count
        # Crash at the stream's frontier: later submits are not behind it.
        frontier = max(
            m.job.release for m in messages[:crash_at] if isinstance(m, Submit)
        )
        with pytest.raises(SimulatedCrash) as crash:
            shard.handle(InjectFault("t0", "crash", frontier))
        shard.recover(crash.value)
        for message in messages[crash_at:]:
            shard.handle(message)
        report = shard.close()
        assert report.recoveries == 1
        check = replay_tenant(report)
        assert check.ok, check.failures
        assert report.lost_jids == ()
