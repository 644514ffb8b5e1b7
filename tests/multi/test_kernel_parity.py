"""Kernel parity: an m=1 multiprocessor run *is* the single-processor run.

Both engines are subclasses of the same :class:`repro.kernel.
SchedulingKernel`; this suite pins the strongest consequence — wrapping
any single-processor scheduler in :class:`~repro.multi.
SingleProcessorAdapter` and running it through a one-processor
:class:`~repro.multi.MultiprocessorEngine` reproduces the
:class:`~repro.sim.SimulationEngine` run **bit-identically**: same
values, same trace segments, same outcomes, and the same dispatched
event order (verified through the write-ahead journals, modulo the
``@p0`` processor tag multi payload keys carry).

The workloads are the paper's Figure-1 regime (λ = 6, c ∈ {1, 35},
densities in [1, k]) under EDF, Dover and V-Dover — the exact policies
the acceptance criteria name.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.capacity import TwoStateMarkovCapacity
from repro.core import DoverScheduler, EDFScheduler, VDoverScheduler
from repro.multi import (
    MultiprocessorEngine,
    SingleProcessorAdapter,
    simulate_multi,
)
from repro.sim import EventJournal, SimulationEngine, simulate
from repro.workload.poisson import PoissonWorkload

SCHEDULERS = [
    pytest.param(lambda: EDFScheduler(), id="edf"),
    pytest.param(lambda: DoverScheduler(k=7.0, c_hat=1.0), id="dover-c1"),
    pytest.param(lambda: DoverScheduler(k=7.0, c_hat=35.0), id="dover-c35"),
    pytest.param(lambda: VDoverScheduler(k=7.0), id="vdover"),
]


def _instance(seed: int, lam: float = 6.0, horizon: float = 12.0):
    workload = PoissonWorkload(
        lam=lam, horizon=horizon, density_range=(1.0, 7.0), c_lower=1.0
    )
    jobs = workload.generate(np.random.default_rng(seed))
    capacity = TwoStateMarkovCapacity(
        1.0,
        35.0,
        mean_sojourn=horizon / 4.0,
        rng=np.random.default_rng(seed + 1),
    )
    return jobs, capacity


def _strip_proc_tag(key: str) -> str:
    """Multi COMPLETION payload keys carry ``@p<proc>``; on one processor
    the tag is always ``@p0`` and is the only allowed difference."""
    return key[: -len("@p0")] if key.endswith("@p0") else key


@pytest.mark.parametrize("make_scheduler", SCHEDULERS)
@pytest.mark.parametrize("seed", [3, 21])
def test_m1_multi_bit_identical_to_single(make_scheduler, seed):
    jobs, capacity = _instance(seed)

    single_journal = EventJournal()
    ref = simulate(
        jobs, capacity, make_scheduler(), journal=single_journal
    )

    multi_journal = EventJournal()
    got = simulate_multi(
        jobs,
        [capacity],
        SingleProcessorAdapter(make_scheduler()),
        journal=multi_journal,
    )

    # Exact value/outcome identity (== on floats, no tolerance).
    assert got.value == ref.value
    assert got.n_completed == ref.n_completed
    assert got.combined.outcomes == ref.trace.outcomes
    assert got.combined.completion_times == ref.trace.completion_times
    assert got.combined.value_points == ref.trace.value_points

    # The one processor's trace is the single engine's trace, segment by
    # segment (dataclass equality — start, end, jid and work all exact).
    assert got.proc_traces[0].segments == ref.trace.segments

    # Same dispatched event order: (time, kind, key) streams match once
    # the @p0 tag is stripped from the multi payload keys.
    assert len(multi_journal) == len(single_journal)
    for mine, theirs in zip(multi_journal.records, single_journal.records):
        assert mine.time == theirs.time
        assert mine.kind == theirs.kind
        assert _strip_proc_tag(mine.key) == theirs.key


@pytest.mark.parametrize("make_scheduler", SCHEDULERS)
def test_m1_parity_survives_crash_recovery(make_scheduler):
    """Parity is preserved through the snapshot/restore machinery too:
    crash the m=1 multi engine mid-run, resume it, and it still lands on
    the single-processor reference bit-for-bit."""
    from repro.faults import EngineCrashPlan

    jobs, capacity = _instance(seed=5)
    ref = simulate(jobs, capacity, make_scheduler())

    got = simulate_multi(
        jobs,
        [capacity],
        SingleProcessorAdapter(make_scheduler()),
        faults=[EngineCrashPlan(at_event=17)],
        snapshot_every=8,
        recover=True,
    )
    assert got.recoveries == 1
    assert got.value == ref.value
    assert got.proc_traces[0].segments == ref.trace.segments
    assert got.combined.outcomes == ref.trace.outcomes


def test_engines_share_the_kernel():
    """No duplicated event loop: both engines are the kernel class and
    override none of its loop, admission or snapshot machinery."""
    from repro.kernel import SchedulingKernel

    jobs, capacity = _instance(seed=3)
    single = SimulationEngine(jobs, capacity, EDFScheduler())
    multi = MultiprocessorEngine(
        jobs, [capacity], SingleProcessorAdapter(EDFScheduler())
    )
    assert isinstance(single, SchedulingKernel)
    assert isinstance(multi, SchedulingKernel)
    for cls in (SimulationEngine, MultiprocessorEngine):
        for name in (
            "run_loop",
            "run_until",
            "_run",
            "_dispatch",
            "admit_job",
            "snapshot",
            "restore",
        ):
            assert getattr(cls, name) is getattr(SchedulingKernel, name), name


def test_adapter_rejects_more_than_one_processor():
    from repro.errors import RecoveryError

    jobs, capacity = _instance(seed=3)
    capacity2 = TwoStateMarkovCapacity(
        1.0, 35.0, mean_sojourn=3.0, rng=np.random.default_rng(99)
    )
    with pytest.raises(RecoveryError):
        simulate_multi(
            jobs,
            [capacity, capacity2],
            SingleProcessorAdapter(EDFScheduler()),
        )
