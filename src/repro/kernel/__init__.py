"""The shared scheduling kernel.

One event loop for every engine in the repository: the single-processor
:class:`~repro.sim.engine.SimulationEngine` and the multiprocessor
:class:`~repro.multi.engine.MultiprocessorEngine` are both subclasses of
:class:`SchedulingKernel`, which owns the clock, the event heap and
its lazy-deletion hygiene, per-processor segment accounting (with the
prefix-sum capacity fast path), completion re-prediction, alarm and timer
plumbing, execution-fault dispatch, snapshot/restore with the write-ahead
event journal, and the invariant-watchdog hooks.

See ``docs/ARCHITECTURE.md`` for the layering diagram and migration notes.
"""

from repro.kernel.core import SchedulingKernel
from repro.kernel.recovery import CrashLoopDetector, run_with_recovery

__all__ = ["SchedulingKernel", "CrashLoopDetector", "run_with_recovery"]
