"""Schema-3 columnar snapshots and amortized admission: cost contracts.

Deterministic counters, no wall clock:

* ``JobTable.append_job`` grows the parameter columns by capacity
  doubling — ``n`` admissions reallocate O(log n) times — and the grown
  columns equal a table built from scratch, bit for bit;
* ``SchedulingKernel.snapshot()`` does no Python-level work per job row
  (no ``JobStatus.name`` lookups, one column copy, Job attribute reads
  bounded by the event queue);
* the packed schema-3 pickle is no larger than the schema-2 pickle of
  the same state, and unpickling a schema-2 image is refused.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.capacity import TwoStateMarkovCapacity
from repro.core import EDFScheduler, VDoverScheduler
from repro.errors import RecoveryError, SimulatedCrash
from repro.faults import EngineCrashPlan
from repro.faults.execution import JobKillFault
from repro.sim import (
    CODE_STATUS,
    STATUS_CODE,
    Job,
    JobStatus,
    JobTable,
    SimulationEngine,
    results_bit_identical,
    simulate,
)
from repro.sim.journal import SNAPSHOT_SCHEMA, EngineSnapshot
from repro.workload.poisson import PoissonWorkload

_PENDING = STATUS_CODE[JobStatus.PENDING]
_COLUMNS = ("jid", "release", "workload", "deadline", "value")


def _jobs(n: int, seed: int = 3):
    workload = PoissonWorkload(lam=6.0, horizon=n / 6.0)
    return workload.generate(np.random.default_rng(seed))


def _capacity(horizon: float, seed: int = 4):
    return TwoStateMarkovCapacity(
        1.0, 35.0, mean_sojourn=horizon / 4.0, rng=np.random.default_rng(seed)
    )


def _kills():
    return [JobKillFault(0.3, retain=0.5, seed=11)]


def _crashed_engine(jobs, make_scheduler, at_event):
    """An engine stopped mid-run (queued events, segments, outcomes and
    lost work all non-empty) and its capacity."""
    horizon = max(j.deadline for j in jobs) + 1.0
    capacity = _capacity(horizon)
    engine = SimulationEngine(
        jobs,
        capacity,
        make_scheduler(),
        faults=_kills() + [EngineCrashPlan(at_event=at_event)],
    )
    with pytest.raises(SimulatedCrash):
        engine.run()
    return engine, capacity


def _schema2_state(snapshot: EngineSnapshot, jids):
    """The schema-2 image of a schema-3 snapshot (jid-keyed dicts of
    status names, segment tuples, outcome names)."""
    state = dict(snapshot.__dict__)
    state.update(
        schema=2,
        remaining={
            jid: rem
            for jid, rem, code in zip(jids, snapshot.remaining, snapshot.status)
            if code != _PENDING
        },
        status={
            jid: CODE_STATUS[code].name
            for jid, code in zip(jids, snapshot.status)
        },
        trace_segments=[
            [(s.start, s.end, s.jid, s.work) for s in segs]
            for segs in snapshot.trace_segments
        ],
        trace_outcomes={
            jid: st.name for jid, st in snapshot.trace_outcomes.items()
        },
    )
    return state


def _schema2_pickle(snapshot, jids, monkeypatch):
    """Pickle bytes exactly as the schema-2 writer produced them: the
    dataclass ``__dict__`` (no packing ``__getstate__``) under
    EngineSnapshot."""
    legacy = EngineSnapshot.__new__(EngineSnapshot)
    legacy.__dict__.update(_schema2_state(snapshot, jids))
    with monkeypatch.context() as patch:
        patch.setattr(EngineSnapshot, "__getstate__", object.__getstate__)
        return pickle.dumps(legacy)


# ----------------------------------------------------------------------
# Amortized admission
# ----------------------------------------------------------------------
class TestAppendJob:
    @pytest.mark.parametrize("start", [0, 1000])
    def test_doubling_growth_is_logarithmic_and_exact(self, start):
        n = 20_000
        jobs = [
            Job(i, 0.5 * i, 1.0 + (i % 7) * 0.25, 0.5 * i + 9.0, 0.1 * i)
            for i in range(n)
        ]
        table = JobTable(jobs[:start])
        reallocations = 0
        base = table.release.base
        for job in jobs[start:]:
            table.append_job(job)
            if table.release.base is not base:
                reallocations += 1
                base = table.release.base
        assert reallocations <= math.ceil(math.log2(n)) + 2
        scratch = JobTable(jobs)
        for name in _COLUMNS:
            grown, built = getattr(table, name), getattr(scratch, name)
            assert grown.dtype == built.dtype and len(grown) == n
            assert grown.tobytes() == built.tobytes(), name
        assert table.jobs == scratch.jobs
        assert table.row_of == scratch.row_of
        assert table.remaining == scratch.remaining
        assert table.status == scratch.status

    def test_hot_column_aliases_survive_growth(self):
        table = JobTable([])
        jobs_alias, rem, st = table.jobs, table.remaining, table.status
        for i in range(100):
            table.append_job(Job(i, float(i), 1.0, i + 3.0, 1.0))
        assert table.jobs is jobs_alias and len(jobs_alias) == 100
        assert table.remaining is rem and table.status is st


# ----------------------------------------------------------------------
# Snapshot cost: container copies only
# ----------------------------------------------------------------------
class TestSnapshotDoesNoPerRowWork:
    def test_counted_on_ten_thousand_rows(self, monkeypatch):
        jobs = _jobs(10_000)
        engine, _ = _crashed_engine(jobs, EDFScheduler, at_event=19_500)
        rows = len(engine.table)
        assert rows >= 9_000
        assert not hasattr(JobTable, "export_status")
        assert not hasattr(JobTable, "export_remaining")

        counts = {"name": 0, "copy_state": 0, "job_attr": 0}

        def name(self):
            counts["name"] += 1
            return self._name_

        copy_state = JobTable.copy_state

        def counted_copy_state(self):
            counts["copy_state"] += 1
            return copy_state(self)

        def job_getattribute(self, attr):
            counts["job_attr"] += 1
            return object.__getattribute__(self, attr)

        # ``name`` lives on Enum (invisible on the class): shadow it.
        monkeypatch.setattr(JobStatus, "name", property(name), raising=False)
        monkeypatch.setattr(JobTable, "copy_state", counted_copy_state)
        monkeypatch.setattr(Job, "__getattribute__", job_getattribute)
        # The counters are live.
        assert JobStatus.READY.name == "READY" and jobs[0].jid == jobs[0].jid
        assert counts == {"name": 1, "copy_state": 0, "job_attr": 2}
        counts.update(name=0, job_attr=0)
        snapshot = engine.snapshot()
        monkeypatch.undo()

        assert counts["name"] == 0
        assert counts["copy_state"] == 1
        # Job reads come from encoding queued events and running slots.
        queued = len(snapshot.events)
        assert counts["job_attr"] <= 2 * queued + engine.n_procs
        assert counts["job_attr"] < rows // 10
        assert snapshot.schema == SNAPSHOT_SCHEMA
        assert snapshot.rows == rows
        assert len(snapshot.trace_outcomes) > 1000

    def test_snapshot_is_isolated_from_the_live_run(self):
        jobs = _jobs(300)
        engine, _ = _crashed_engine(jobs, EDFScheduler, at_event=200)
        snapshot = engine.snapshot()
        frozen = pickle.dumps(snapshot)
        # Mutate the live containers the snapshot copied.
        engine.table.remaining[0] = -1.0
        engine.table.status[0] = STATUS_CODE[JobStatus.ABANDONED]
        engine.trace.segments.pop()
        engine.trace.outcomes.clear()
        assert pickle.dumps(snapshot) == frozen


# ----------------------------------------------------------------------
# Persisted form
# ----------------------------------------------------------------------
class TestPickledForm:
    @pytest.mark.parametrize("n", [200, 10_000])
    def test_schema3_pickle_no_larger_than_schema2(self, n, monkeypatch):
        jobs = _jobs(n)
        engine, _ = _crashed_engine(
            jobs, lambda: VDoverScheduler(k=7.0), at_event=int(1.2 * n)
        )
        snapshot = engine.snapshot()
        jids = engine.table.jid.tolist()
        schema3 = pickle.dumps(snapshot)
        schema2 = _schema2_pickle(snapshot, jids, monkeypatch)
        assert len(schema3) <= len(schema2)
        assert pickle.loads(schema3).__dict__ == snapshot.__dict__

    @pytest.mark.parametrize(
        "make_scheduler",
        [EDFScheduler, lambda: VDoverScheduler(k=7.0)],
        ids=["edf", "vdover"],
    )
    def test_pickled_snapshot_resumes_bit_identically(self, make_scheduler):
        jobs = _jobs(600)
        engine, capacity = _crashed_engine(jobs, make_scheduler, at_event=500)
        snapshot = pickle.loads(pickle.dumps(engine.snapshot()))
        reference = simulate(jobs, capacity, make_scheduler(), faults=_kills())
        fresh = SimulationEngine(
            jobs, capacity, make_scheduler(), faults=_kills()
        )
        fresh.restore(snapshot)
        assert results_bit_identical(reference, fresh.run())

    def test_schema2_pickle_is_refused(self, monkeypatch):
        jobs = _jobs(600)
        engine, _ = _crashed_engine(jobs, EDFScheduler, at_event=500)
        jids = engine.table.jid.tolist()
        blob = _schema2_pickle(engine.snapshot(), jids, monkeypatch)
        with pytest.raises(RecoveryError, match="schema 2") as info:
            pickle.loads(blob)
        assert "before journal/" in str(info.value)
        assert "persist_now" in str(info.value)

    def test_restore_rejects_row_count_mismatch(self):
        jobs = _jobs(300)
        engine, capacity = _crashed_engine(jobs, EDFScheduler, at_event=200)
        snapshot = engine.snapshot()
        fresh = SimulationEngine(jobs[:-1], capacity, EDFScheduler())
        with pytest.raises(RecoveryError, match="covers"):
            fresh.restore(snapshot)
