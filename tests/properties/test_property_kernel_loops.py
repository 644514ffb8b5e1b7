"""The kernel's two loop bodies agree, and a crash never shows.

The kernel runs one of two loops (docs/ARCHITECTURE.md): ``_run_fast``
when nothing is instrumented, ``_run_full`` when a journal, watchdog,
snapshot cadence, crash plan or observability session is attached.  Both
must dispatch the same events in the same order, so results and full
segment lists are bit-identical.  This suite pins that on a tie-heavy
instance (integer release grid: every timestamp carries several events)
and a slack one, for all seven single-processor policies.

Also here:

* per-policy crash-resume identity — a crashed and resumed run writes the
  same journal and the same observability replay stream, byte for byte,
  as the run that never crashed;
* the scan-count regression — bootstrap seeding and the wind-down sweep
  are one vectorized pass each, and the run loop never re-derives the
  ready set, in either loop.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.capacity import TwoStateMarkovCapacity
from repro.core import (
    AdmissionEDFScheduler,
    DoverScheduler,
    EDFScheduler,
    FCFSScheduler,
    GreedyDensityScheduler,
    LLFScheduler,
    VDoverScheduler,
)
from repro.faults.execution import EngineCrashPlan
from repro.kernel import SchedulingKernel
from repro.sim import Job, simulate
from repro.sim.journal import EventJournal, results_bit_identical
from repro.sim.jobtable import JobTable

#: All seven single-processor policies, each behind a fresh-instance thunk.
POLICIES = {
    "edf": lambda: EDFScheduler(),
    "edf-ac": lambda: AdmissionEDFScheduler(),
    "llf": lambda: LLFScheduler(),
    "greedy": lambda: GreedyDensityScheduler(),
    "fcfs": lambda: FCFSScheduler(),
    "dover": lambda: DoverScheduler(k=7.0, c_hat=2.0),
    "vdover": lambda: VDoverScheduler(k=7.0),
}


def _tie_heavy_instance(seed=3, n=40):
    """Quantized release times (integer grid) force cross-job same-instant
    groups; relative deadline == p/c̲ puts every release at its zero-laxity
    instant, the paper's hardest workload shape."""
    rng = random.Random(seed)
    jobs = []
    for i in range(n):
        release = float(rng.randrange(0, 20))
        workload = rng.uniform(0.5, 3.0)
        jobs.append(
            Job(
                jid=i,
                release=release,
                workload=workload,
                deadline=release + workload,
                value=rng.uniform(1.0, 10.0) * workload,
            )
        )
    return jobs


def _slack_instance(seed=5, n=160):
    rng = random.Random(seed)
    jobs = []
    for i in range(n):
        release = float(rng.randrange(0, 20))
        workload = rng.uniform(0.5, 3.0)
        jobs.append(
            Job(
                jid=i,
                release=release,
                workload=workload,
                deadline=release + workload + rng.uniform(0.0, 6.0),
                value=rng.uniform(1.0, 10.0) * workload,
            )
        )
    return jobs


def _capacity():
    return TwoStateMarkovCapacity(1.0, 4.0, mean_sojourn=5.0, rng=11)


def _fingerprint(result):
    return (
        result.value,
        result.completed_ids,
        [(s.start, s.end, s.jid, s.work) for s in result.trace.segments],
        dict(result.trace.outcomes),
        result.trace.value_points,
    )


@pytest.fixture
def loops_taken(monkeypatch):
    """Counts calls of each kernel loop body."""
    taken = {"fast": 0, "full": 0}
    for name, key in (("_run_fast", "fast"), ("_run_full", "full")):
        original = getattr(SchedulingKernel, name)

        def spy(self, *args, _original=original, _key=key, **kwargs):
            taken[_key] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(SchedulingKernel, name, spy)
    return taken


class TestFastPathEquivalence:
    @pytest.mark.parametrize("name", sorted(POLICIES), ids=sorted(POLICIES))
    @pytest.mark.parametrize("instance", ["zero_laxity", "slack"])
    def test_fast_and_full_loops_identical(self, loops_taken, name, instance):
        jobs = (
            _tie_heavy_instance(n=160)
            if instance == "zero_laxity"
            else _slack_instance()
        )
        make = POLICIES[name]
        fast = simulate(jobs, _capacity(), make())
        assert loops_taken == {"fast": 1, "full": 0}
        full = simulate(jobs, _capacity(), make(), journal=EventJournal())
        assert loops_taken == {"fast": 1, "full": 1}
        assert _fingerprint(fast) == _fingerprint(full)


def _traced_run(make, trace_path, *, crash):
    journal = EventJournal()
    kw = dict(journal=journal)
    if crash:
        kw.update(
            faults=[EngineCrashPlan(at_event=40)],
            snapshot_every=16,
            recover=True,
        )
    with obs.session() as octx:
        result = simulate(_tie_heavy_instance(), _capacity(), make(), **kw)
        octx.sink.export_jsonl(trace_path, replay_only=True)
    return result, journal.records, trace_path.read_bytes()


class TestCrashResume:
    @pytest.mark.parametrize("name", sorted(POLICIES), ids=sorted(POLICIES))
    def test_crash_resume_identical(self, tmp_path, name):
        make = POLICIES[name]
        res, jrn, blob = _traced_run(make, tmp_path / "ref.jsonl", crash=False)
        res_c, jrn_c, blob_c = _traced_run(
            make, tmp_path / "crash.jsonl", crash=True
        )
        assert res_c.recoveries >= 1
        assert results_bit_identical(res, res_c)
        assert jrn == jrn_c and len(jrn) > 0
        # The resumed run's *replay* stream is the uncrashed run's.
        assert blob == blob_c and len(blob) > 0


class _CountingJobTable(JobTable):
    """JobTable that counts its whole-population scans."""

    def __init__(self, jobs):
        super().__init__(jobs)
        self.counts = {"released_by": 0, "unresolved": 0, "ready": 0}

    def rows_released_by(self, horizon):
        self.counts["released_by"] += 1
        return super().rows_released_by(horizon)

    def rows_unresolved(self):
        self.counts["unresolved"] += 1
        return super().rows_unresolved()

    def rows_ready(self):
        self.counts["ready"] += 1
        return super().rows_ready()


class TestScanCounts:
    """The population scans are per run, never per event."""

    @pytest.mark.parametrize("loop", ["fast", "full"])
    def test_engine_scans_once_per_run(self, monkeypatch, loops_taken, loop):
        import repro.kernel.core as kernel_core

        tables = []

        def capture(jobs):
            table = _CountingJobTable(jobs)
            tables.append(table)
            return table

        monkeypatch.setattr(kernel_core, "JobTable", capture)
        kw = {} if loop == "fast" else {"journal": EventJournal()}
        simulate(_tie_heavy_instance(), _capacity(), EDFScheduler(), **kw)
        assert loops_taken[loop] == 1
        (table,) = tables
        assert table.counts["released_by"] == 1  # bootstrap seeding
        assert table.counts["unresolved"] == 1  # wind-down sweep
        # The run loop itself never re-derives the ready set.
        assert table.counts["ready"] == 0
