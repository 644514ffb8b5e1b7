"""Multiprocessor discrete-event engine (the kernel at m ≥ 1).

:class:`MultiprocessorEngine` subclasses
:class:`repro.kernel.SchedulingKernel` — the same loop the
single-processor :class:`~repro.sim.engine.SimulationEngine` runs — with
``m`` (possibly heterogeneous) capacity trajectories and the assignment
decision protocol: the scheduler returns a full assignment
after every interrupt; the kernel diffs it against the current one, closes
segments for displaced jobs, and re-predicts completions with each
processor's exact inverse integral (O(log n) via the per-capacity
prefix-sum index when available).

Migration semantics: preemption and migration are free; a preempted job
resumes from its exact remaining workload on any processor (workload is
capacity-units × time, so a job's progress is processor-independent — the
same modelling choice the paper makes for its dynamically-sized VMs).

Because the kernel is shared, everything the single-processor engine can do
works here too, for free:

* **execution-fault injection** (:mod:`repro.faults.execution`) — job
  kills, per-machine revocation bursts and scheduled crashes, with
  per-processor targeting (``JobKillFault(..., proc=2)``);
* **crash recovery** — :meth:`MultiprocessorEngine.snapshot` /
  :meth:`MultiprocessorEngine.restore` with the write-ahead
  :class:`~repro.sim.journal.EventJournal`, and
  ``simulate_multi(..., recover=True)`` resuming bit-identically;
* **invariant monitoring** — the watchdog's monitors read the engine's
  per-processor traces and capacities.

The validator enforces, on top of the per-processor legality checks, that
no job ever runs on two processors at once (no intra-job parallelism).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.capacity.base import CapacityFunction
from repro.kernel.core import SchedulingKernel
from repro.kernel.recovery import run_with_recovery
from repro.multi.metrics import MultiSimulationResult
from repro.multi.scheduler import MultiScheduler, MultiSchedulerContext
from repro.sim.job import Job
from repro.sim.journal import EventJournal
from repro.sim.trace import ScheduleTrace

__all__ = ["MultiprocessorEngine", "simulate_multi"]


class _MultiContext(MultiSchedulerContext):
    """The kernel-backed implementation of the online information model.

    Hot path: fires on every scheduler decision, so it reads the kernel's
    internals (``_now``, ``_current``) directly and caches the immutable
    capacity list at bind time — same discipline as the single-processor
    ``_EngineContext``.
    """

    def __init__(self, kernel: SchedulingKernel) -> None:
        self._kernel = kernel
        self._caps = list(kernel.capacities)
        self.obs = kernel._obs  # None when observability is disabled

    def now(self) -> float:
        return self._kernel._now

    @property
    def n_procs(self) -> int:
        return len(self._caps)

    def remaining(self, job: Job) -> float:
        return self._kernel.remaining_of(job)

    def running(self) -> Tuple[Optional[Job], ...]:
        return tuple(self._kernel._current)

    def capacity_now(self, proc: int) -> float:
        return self._caps[proc].value(self._kernel._now)

    def bounds(self, proc: int) -> Tuple[float, float]:
        cap = self._caps[proc]
        return (cap.lower, cap.upper)

    def set_alarm(self, job: Job, time: float, tag: str = "alarm") -> None:
        self._kernel.set_alarm(job, time, tag)

    def cancel_alarm(self, job: Job) -> None:
        self._kernel.cancel_alarm(job)

    def set_timer(self, time: float, tag: str) -> None:
        self._kernel.set_timer(time, tag)


class MultiprocessorEngine(SchedulingKernel):
    """Run one global scheduler over m processors.

    The kernel with the assignment decision protocol.  Parameters mirror
    the single-processor engine; ``capacities`` carries one trajectory per
    processor, and ``faults`` / ``watchdog`` / ``journal`` /
    ``snapshot_every`` behave exactly as on
    :class:`~repro.sim.engine.SimulationEngine`.  ``trace`` is the
    combined outcome/value record (no segments for m > 1); the
    per-processor segment traces are :attr:`proc_traces`.
    """

    def __init__(
        self,
        jobs: Sequence[Job],
        capacities: Sequence[CapacityFunction],
        scheduler: MultiScheduler,
        *,
        horizon: float | None = None,
        validate: bool = False,
        faults: Sequence[object] = (),
        watchdog: "object | None" = None,
        journal: "EventJournal | None" = None,
        snapshot_every: int | None = None,
    ) -> None:
        super().__init__(
            jobs,
            list(capacities),
            scheduler,
            make_context=_MultiContext,
            horizon=horizon,
            faults=faults,
            watchdog=watchdog,
            journal=journal,
            snapshot_every=snapshot_every,
            single=False,
        )
        self._validate = bool(validate)

    @property
    def proc_traces(self) -> List[ScheduleTrace]:
        return self.traces

    def run(self) -> MultiSimulationResult:
        """Execute (or, after :meth:`restore`, resume) the simulation."""
        self.run_loop()
        result = MultiSimulationResult(
            scheduler_name=self.scheduler.name,
            jobs=self.jobs,
            horizon=self.horizon,
            proc_traces=self.traces,
            combined=self.outcomes,
        )
        if self._validate:
            result.validate(self.capacities)
        self.after_run(result)
        return result


def simulate_multi(
    jobs: Sequence[Job],
    capacities: Sequence[CapacityFunction],
    scheduler: MultiScheduler,
    *,
    horizon: float | None = None,
    validate: bool = False,
    faults: Sequence[object] = (),
    watchdog: "object | None" = None,
    journal: "EventJournal | None" = None,
    snapshot_every: int | None = None,
    recover: bool = False,
    max_recoveries: int = 8,
) -> MultiSimulationResult:
    """Convenience wrapper mirroring :func:`repro.sim.simulate`.

    With ``recover=True`` a :class:`~repro.errors.SimulatedCrash` raised by
    an armed :class:`~repro.faults.EngineCrashPlan` is survived: a fresh
    engine restores the crash's snapshot, replays the journal (when one is
    attached) and continues to the horizon.  The returned result's
    ``recoveries`` attribute counts the crashes survived.
    """

    def _build() -> MultiprocessorEngine:
        return MultiprocessorEngine(
            jobs,
            capacities,
            scheduler,
            horizon=horizon,
            validate=validate,
            faults=faults,
            watchdog=watchdog,
            journal=journal,
            snapshot_every=snapshot_every,
        )

    result, recoveries = run_with_recovery(
        _build, recover=recover, max_recoveries=max_recoveries
    )
    result.recoveries = recoveries
    return result
