"""Columnar hot-path properties.

Three contracts guard this PR's refactor:

1. **Table/object parity** — the struct-of-arrays
   :class:`~repro.sim.jobtable.JobTable` must agree with the historical
   per-object (jid-keyed dict) state representation after *any* event
   sequence: random lifecycle walks directly on the table, and full engine
   runs with faults injected.
2. **Summation-order audit (1-ulp tests)** — every vectorized expression
   that replaced scalar arithmetic must agree *to the bit*, not to a
   tolerance: element-wise laxities, the ``np.add.accumulate`` admission
   chain, and ``advance_from`` with a cached anchor vs plain ``advance``.
3. **Batched dispatch equivalence** — same-timestamp batch draining plus
   the pre-journal stale filter must leave journals and observability
   exports invariant with and without instrumentation on tie-heavy
   instances.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capacity import PiecewiseConstantCapacity, TwoStateMarkovCapacity
from repro import obs
from repro.core import AdmissionEDFScheduler, EDFScheduler, VDoverScheduler
from repro.faults.execution import JobKillFault, RevocationBurst
from repro.sim import (
    CODE_STATUS,
    STATUS_CODE,
    Job,
    JobStatus,
    JobTable,
    SimulationEngine,
    simulate,
)
from repro.sim.journal import EventJournal, results_bit_identical
from repro.workload import PoissonWorkload

_PENDING = STATUS_CODE[JobStatus.PENDING]
_READY = STATUS_CODE[JobStatus.READY]
_RUNNING = STATUS_CODE[JobStatus.RUNNING]


def _jid_remaining(table):
    """The table's remaining work as a jid-keyed dict (released jobs),
    the form the reference walk keeps."""
    return {
        job.jid: table.remaining[row]
        for row, job in enumerate(table.jobs)
        if table.status[row] != _PENDING
    }


def _jid_status(table):
    """The table's statuses as a jid-keyed dict of status names."""
    return {
        job.jid: CODE_STATUS[table.status[row]].name
        for row, job in enumerate(table.jobs)
    }


@st.composite
def instances(draw, max_jobs=10):
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    jobs = []
    for i in range(n):
        release = draw(st.floats(min_value=0.0, max_value=20.0))
        workload = draw(st.floats(min_value=0.05, max_value=6.0))
        slack = draw(st.floats(min_value=1.0, max_value=4.0))
        density = draw(st.floats(min_value=1.0, max_value=10.0))
        jobs.append(
            Job(
                jid=i,
                release=release,
                workload=workload,
                deadline=release + slack * workload,
                value=density * workload,
            )
        )
    return jobs


class TestTableObjectParity:
    """JobTable after a random lifecycle walk == the dict reference."""

    @given(instances(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_random_walk_matches_dict_reference(self, jobs, rng):
        table = JobTable(jobs)
        # The historical representation: jid-keyed dicts, statuses as enums.
        ref_rem: dict[int, float] = {}
        ref_st: dict[int, JobStatus] = {j.jid: JobStatus.PENDING for j in jobs}

        for _ in range(rng.randint(0, 6 * len(jobs))):
            job = jobs[rng.randrange(len(jobs))]
            row = table.row_of[job.jid]
            state = ref_st[job.jid]
            if state is JobStatus.PENDING:
                ref_st[job.jid] = JobStatus.READY
                ref_rem[job.jid] = job.workload
                table.status[row] = _READY
                table.remaining[row] = job.workload
            elif state is JobStatus.READY:
                step = rng.choice(["run", "fail", "abandon"])
                if step == "run":
                    ref_st[job.jid] = JobStatus.RUNNING
                    table.status[row] = _RUNNING
                else:
                    new = (
                        JobStatus.FAILED
                        if step == "fail"
                        else JobStatus.ABANDONED
                    )
                    ref_st[job.jid] = new
                    table.status[row] = STATUS_CODE[new]
            elif state is JobStatus.RUNNING:
                step = rng.choice(["preempt", "complete", "kill"])
                if step == "complete":
                    ref_st[job.jid] = JobStatus.COMPLETED
                    ref_rem[job.jid] = 0.0
                    table.status[row] = STATUS_CODE[JobStatus.COMPLETED]
                    table.remaining[row] = 0.0
                else:
                    factor = rng.uniform(0.0, 1.0 if step == "preempt" else 1.3)
                    new_rem = min(job.workload, ref_rem[job.jid] * factor)
                    ref_st[job.jid] = JobStatus.READY
                    ref_rem[job.jid] = new_rem
                    table.status[row] = _READY
                    table.remaining[row] = new_rem
            # terminal states stay terminal

        assert _jid_remaining(table) == ref_rem
        assert _jid_status(table) == {
            jid: s.name for jid, s in ref_st.items()
        }
        for job in jobs:
            assert table.status_of(job.jid) is ref_st[job.jid]
        ready_ref = sorted(
            table.row_of[j] for j, s in ref_st.items() if s is JobStatus.READY
        )
        assert table.rows_ready().tolist() == ready_ref
        unresolved_ref = sorted(
            table.row_of[j]
            for j, s in ref_st.items()
            if s in (JobStatus.READY, JobStatus.RUNNING)
        )
        assert table.rows_unresolved().tolist() == unresolved_ref

        # Column snapshot round-trips exactly, in place.
        rem_col, st_col = table.copy_state()
        rem_alias, st_alias = table.remaining, table.status
        clone = JobTable(jobs)
        clone.load_state_columns(rem_col, st_col)
        assert clone.remaining == table.remaining
        assert clone.status == table.status
        # In-place contract: loading must not rebind the column objects.
        table.load_state_columns(rem_col, st_col)
        assert table.remaining is rem_alias and table.status is st_alias

    @given(instances(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_engine_table_matches_trace_after_faulted_run(self, jobs, seed):
        faults = [
            JobKillFault(0.4, retain=0.5, seed=seed),
            RevocationBurst(0.2, seed=seed + 1),
        ]
        cap = TwoStateMarkovCapacity(1.0, 8.0, mean_sojourn=3.0, rng=seed)
        engine = SimulationEngine(
            jobs, cap, EDFScheduler(), faults=faults, validate=True
        )
        result = engine.run()
        table = engine.table
        assert table.rows_unresolved().size == 0
        outcomes = result.trace.outcomes
        for job in jobs:
            status = table.status_of(job.jid)
            assert status in (JobStatus.COMPLETED, JobStatus.FAILED)
            assert outcomes[job.jid] is status
            if status is JobStatus.COMPLETED:
                row = table.row_of[job.jid]
                assert table.remaining[row] == 0.0


class TestSummationOrderAudit:
    """Vectorized arithmetic must match scalar arithmetic exactly (0 ulp)."""

    @given(instances(), st.floats(min_value=0.0, max_value=50.0),
           st.floats(min_value=0.25, max_value=8.0))
    @settings(max_examples=60, deadline=None)
    def test_laxities_bit_identical_to_scalar(self, jobs, now, rate):
        table = JobTable(jobs)
        rng = random.Random(17)
        for row, job in enumerate(jobs):
            table.remaining[row] = rng.uniform(0.0, job.workload)
        vec = table.laxities(now, rate)
        for row, job in enumerate(jobs):
            scalar = job.laxity(now, table.remaining[row], rate)
            assert vec[row] == scalar  # exact, not approx
        zvec = table.zero_laxity_times(rate)
        for row, job in enumerate(jobs):
            assert zvec[row] == job.deadline - table.remaining[row] / rate

    @given(
        st.lists(st.floats(min_value=0.001, max_value=50.0), min_size=1,
                 max_size=40),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.25, max_value=4.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_accumulate_matches_scalar_chain(self, remainings, now, rate):
        """np.add.accumulate is strictly left-to-right: the vectorized
        admission chain reproduces the scalar ``t += w/c`` loop to the bit."""
        terms = np.empty(len(remainings) + 1, dtype=np.float64)
        terms[0] = now
        for i, w in enumerate(remainings):
            terms[i + 1] = w / rate
        completion = np.add.accumulate(terms)[1:]
        t = now
        for i, w in enumerate(remainings):
            t += w / rate
            assert completion[i] == t  # exact

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_advance_from_bit_identical_to_advance(self, rng):
        n = rng.randint(2, 12)
        bps = [0.0]
        rates = []
        for _ in range(n):
            bps.append(bps[-1] + rng.uniform(0.1, 5.0))
            rates.append(rng.uniform(0.5, 10.0))
        rates.append(rng.uniform(0.5, 10.0))
        cap = PiecewiseConstantCapacity(bps, rates)
        for _ in range(20):
            t0 = rng.uniform(0.0, bps[-1] * 1.2)
            work = rng.uniform(0.0, 30.0)
            assert cap.advance_from(t0, cap.cumulative(t0), work) == cap.advance(
                t0, work
            )

    def test_admission_scheduler_matches_scalar_reference(self):
        """End-to-end: the vectorized admission test admits exactly the jobs
        the scalar chain evaluation would."""
        h = 30.0
        jobs = PoissonWorkload(lam=5.0, horizon=h).generate(29)
        cap = TwoStateMarkovCapacity(1.0, 6.0, mean_sojourn=h / 3, rng=5)
        sched = AdmissionEDFScheduler()
        result = simulate(jobs, cap, sched, validate=True)
        assert result.value > 0.0
        # Recheck every rejection decision against the scalar rule using
        # the released-at-that-time information is infeasible post hoc, but
        # determinism pins the decision set: a second identical run must
        # reject the identical set.
        sched2 = AdmissionEDFScheduler()
        cap2 = TwoStateMarkovCapacity(1.0, 6.0, mean_sojourn=h / 3, rng=5)
        result2 = simulate(jobs, cap2, sched2, validate=True)
        assert results_bit_identical(result, result2)
        assert sched._rejected == sched2._rejected


def _tie_heavy_instance(seed=3):
    """The paper's workload shape: relative deadline == p/c̲, so every
    job's release coincides with its zero-laxity instant — plus quantized
    release times forcing cross-job same-timestamp batches."""
    rng = random.Random(seed)
    jobs = []
    for i in range(40):
        release = float(rng.randrange(0, 20))  # integer grid: heavy ties
        workload = rng.uniform(0.5, 3.0)
        jobs.append(
            Job(
                jid=i,
                release=release,
                workload=workload,
                deadline=release + workload,  # zero laxity at c̲ = 1
                value=rng.uniform(1.0, 10.0) * workload,
            )
        )
    return jobs


class TestBatchedDispatchEquivalence:
    """Same-timestamp batching + the pre-journal stale filter must leave
    results, journals and obs exports invariant under instrumentation."""

    @pytest.mark.parametrize(
        "make",
        [lambda: EDFScheduler(), lambda: VDoverScheduler(k=7.0)],
        ids=["edf", "vdover"],
    )
    def test_fast_and_journaled_loops_bit_identical(self, make):
        jobs = _tie_heavy_instance()

        def cap():
            return TwoStateMarkovCapacity(1.0, 4.0, mean_sojourn=5.0, rng=11)

        fast = simulate(jobs, cap(), make())  # no instrumentation
        journal = EventJournal()
        full = simulate(jobs, cap(), make(), journal=journal)
        assert results_bit_identical(fast, full)
        assert len(journal) > 0

    def test_journal_invariant_under_observability(self):
        """The stale filter runs before journaling on every run, so an
        obs session must not change a single journal record."""
        jobs = _tie_heavy_instance()

        def run():
            journal = EventJournal()
            cap = TwoStateMarkovCapacity(1.0, 4.0, mean_sojourn=5.0, rng=11)
            simulate(jobs, cap, VDoverScheduler(k=7.0), journal=journal)
            return journal.records

        bare = run()
        with obs.session():
            observed = run()
        assert bare == observed

    def test_obs_export_stable_on_tie_heavy_instance(self, tmp_path):
        jobs = _tie_heavy_instance()
        blobs = []
        for i in range(2):
            with obs.session() as octx:
                cap = TwoStateMarkovCapacity(1.0, 4.0, mean_sojourn=5.0, rng=11)
                simulate(jobs, cap, VDoverScheduler(k=7.0))
                path = tmp_path / f"tie{i}.jsonl"
                octx.sink.export_jsonl(path)
                blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] and len(blobs[0]) > 0
