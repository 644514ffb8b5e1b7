"""Discrete-event simulation substrate.

Built from scratch (no simpy dependency): the paper's interrupt semantics —
zero-conservative-laxity alarms, exact completion prediction under
piecewise-constant capacity, firm-deadline policing — need a custom kernel.
"""

from repro.sim.engine import SimulationEngine, simulate
from repro.sim.gantt import render_gantt
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.invariants import (
    InvariantMonitor,
    InvariantViolation,
    InvariantWatchdog,
    default_monitors,
)
from repro.sim.journal import (
    EngineSnapshot,
    EventJournal,
    JournalRecord,
    results_bit_identical,
)
from repro.sim.job import (
    CODE_STATUS,
    STATUS_CODE,
    TERMINAL_CODES,
    Job,
    JobStatus,
    importance_ratio,
    make_jobs,
    total_value,
    validate_jobs,
)
from repro.sim.jobtable import JobTable
from repro.sim.metrics import SimulationResult
from repro.sim.queues import EdfEntry, JobQueue, edf_key, latest_deadline_key
from repro.sim.scheduler import Scheduler, SchedulerContext
from repro.sim.trace import RunSegment, ScheduleTrace

__all__ = [
    "SimulationEngine",
    "simulate",
    "render_gantt",
    "Event",
    "EventKind",
    "EventQueue",
    "Job",
    "JobStatus",
    "JobTable",
    "STATUS_CODE",
    "CODE_STATUS",
    "TERMINAL_CODES",
    "importance_ratio",
    "make_jobs",
    "total_value",
    "validate_jobs",
    "SimulationResult",
    "EdfEntry",
    "JobQueue",
    "edf_key",
    "latest_deadline_key",
    "Scheduler",
    "SchedulerContext",
    "RunSegment",
    "ScheduleTrace",
    "InvariantMonitor",
    "InvariantViolation",
    "InvariantWatchdog",
    "default_monitors",
    "EngineSnapshot",
    "EventJournal",
    "JournalRecord",
    "results_bit_identical",
]
