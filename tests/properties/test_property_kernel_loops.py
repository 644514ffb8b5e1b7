"""The kernel's one loop gives the same run however it is instrumented or
driven, and a crash never shows.

The kernel has one loop body (docs/ARCHITECTURE.md) whose journal,
watchdog, snapshot cadence and observability hooks are per-event
``is not None`` tests.  Turning them on must not change which events
dispatch or in what order, so results and full segment lists are
bit-identical to the bare run.  This suite pins that on a tie-heavy
instance (integer release grid: every timestamp carries several events)
and a slack one, for all seven single-processor policies.

Also here:

* per-policy crash-resume identity — a crashed and resumed run writes the
  same journal and the same observability replay stream, byte for byte,
  as the run that never crashed;
* stepping identity — ``start()``, ``run_until`` over a grid whose bounds
  land on event times, then ``run()`` equals one closed-horizon run, and
  an event-indexed crash fires at the same dispatch in both drives;
* the scan-count regression — bootstrap seeding and the wind-down sweep
  are one vectorized pass each, and the run loop never re-derives the
  ready set, bare or instrumented.
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
from repro.errors import SimulatedCrash
from repro.faults.execution import EngineCrashPlan
from repro.sim import Job, SimulationEngine, simulate
from repro.sim.invariants import InvariantWatchdog
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


def _instance(kind):
    if kind == "zero_laxity":
        return _tie_heavy_instance(n=160)
    return _slack_instance()


class TestInstrumentationEquivalence:
    """The bare run and the instrumented runs dispatch identically."""

    @pytest.mark.parametrize("name", sorted(POLICIES), ids=sorted(POLICIES))
    @pytest.mark.parametrize("instance", ["zero_laxity", "slack"])
    def test_journaled_run_identical(self, name, instance):
        jobs = _instance(instance)
        make = POLICIES[name]
        bare = simulate(jobs, _capacity(), make())
        journal = EventJournal()
        journaled = simulate(jobs, _capacity(), make(), journal=journal)
        assert _fingerprint(bare) == _fingerprint(journaled)
        assert len(journal) > 0

    @pytest.mark.parametrize("name", sorted(POLICIES), ids=sorted(POLICIES))
    @pytest.mark.parametrize("instance", ["zero_laxity", "slack"])
    def test_watched_snapshotted_observed_run_identical(self, name, instance):
        jobs = _instance(instance)
        make = POLICIES[name]
        bare = simulate(jobs, _capacity(), make())
        watchdog = InvariantWatchdog(paranoid=True)
        with obs.session() as octx:
            engine = SimulationEngine(
                jobs,
                _capacity(),
                make(),
                watchdog=watchdog,
                snapshot_every=8,
            )
            watched = engine.run()
            observed = octx.metrics.counter("kernel.events").n
        assert _fingerprint(bare) == _fingerprint(watched)
        assert observed == engine.dispatch_count > 0
        assert engine.last_snapshot.dispatch_count > 0
        assert not watchdog.violations


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


#: Stepping policies: the paper's two headline schedulers.
STEPPED = ("edf", "vdover")


def _step_grid(jobs):
    """``run_until`` bounds: every integer (the tie-heavy instance's
    release grid, so many bounds land exactly on event times), the first
    jobs' deadlines (exact DEADLINE event times), midpoints, and a bound
    past the horizon."""
    grid = {float(x) for x in range(0, 26)}
    grid.update(j.deadline for j in jobs[:12])
    grid.update(x + 0.5 for x in range(0, 26, 3))
    grid.add(1e6)
    return sorted(grid)


def _drive(make, *, stepped, faults=()):
    """One run of the tie-heavy instance, closed (``run()``) or stepped
    (``start()``, ``run_until`` over the grid, then ``run()``).  Returns
    the engine, its journal, and the result or the crash it raised."""
    jobs = _tie_heavy_instance()
    journal = EventJournal()
    engine = SimulationEngine(
        jobs, _capacity(), make(), journal=journal, faults=faults
    )
    try:
        if stepped:
            engine.start()
            for bound in _step_grid(jobs):
                engine.run_until(bound)
                # Exclusive: nothing at the bound itself has dispatched.
                assert engine.now < bound or engine.dispatch_count == 0
        return engine, journal, engine.run()
    except SimulatedCrash as crash:
        return engine, journal, crash


class TestRunUntilStepping:
    """run_until and run_loop are two drives of the one loop body."""

    @pytest.mark.parametrize("name", STEPPED)
    def test_stepped_run_equals_closed_run(self, name):
        make = POLICIES[name]
        reference = simulate(_tie_heavy_instance(), _capacity(), make())
        closed, closed_journal, _ = _drive(make, stepped=False)
        stepped, stepped_journal, stepped_result = _drive(make, stepped=True)
        assert results_bit_identical(reference, stepped_result)
        assert _fingerprint(reference) == _fingerprint(stepped_result)
        assert stepped_journal.records == closed_journal.records
        assert stepped.dispatch_count == closed.dispatch_count > 0

    @pytest.mark.parametrize("name", STEPPED)
    @pytest.mark.parametrize("at_event", [0, 1, 23, 57])
    def test_crash_fires_at_same_dispatch(self, name, at_event):
        make = POLICIES[name]
        closed, closed_journal, closed_crash = _drive(
            make, stepped=False, faults=[EngineCrashPlan(at_event=at_event)]
        )
        stepped, stepped_journal, stepped_crash = _drive(
            make, stepped=True, faults=[EngineCrashPlan(at_event=at_event)]
        )
        assert isinstance(closed_crash, SimulatedCrash)
        assert isinstance(stepped_crash, SimulatedCrash)
        assert stepped_crash.at_event == closed_crash.at_event == at_event
        assert stepped_crash.time == closed_crash.time
        assert stepped.dispatch_count == closed.dispatch_count == at_event
        assert stepped_journal.records == closed_journal.records
        assert (
            stepped_crash.snapshot.dispatch_count
            == closed_crash.snapshot.dispatch_count
        )


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

    @pytest.mark.parametrize("loop", ["bare", "instrumented"])
    def test_engine_scans_once_per_run(self, monkeypatch, loop):
        import repro.kernel.core as kernel_core

        tables = []

        def capture(jobs):
            table = _CountingJobTable(jobs)
            tables.append(table)
            return table

        monkeypatch.setattr(kernel_core, "JobTable", capture)
        if loop == "bare":
            simulate(_tie_heavy_instance(), _capacity(), EDFScheduler())
        else:
            with obs.session():
                simulate(
                    _tie_heavy_instance(),
                    _capacity(),
                    EDFScheduler(),
                    journal=EventJournal(),
                    watchdog=InvariantWatchdog(),
                    snapshot_every=8,
                )
        (table,) = tables
        assert table.counts["released_by"] == 1  # bootstrap seeding
        assert table.counts["unresolved"] == 1  # wind-down sweep
        # The run loop itself never re-derives the ready set.
        assert table.counts["ready"] == 0
