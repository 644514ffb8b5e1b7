"""Columnar (struct-of-arrays) job state: the kernel's ground truth.

Historically the kernel kept per-job execution state in ``Dict[int, float]``
/ ``Dict[int, JobStatus]`` maps.  :class:`JobTable` replaces those with a
column layout:

* **immutable parameter columns** — ``release``, ``workload``, ``deadline``,
  ``value`` and ``jid`` as numpy ``float64``/``int64`` arrays, built once
  from the instance and grown only by admission.  Whole-population passes
  (bootstrap event seeding, laxity recomputation, feasibility chains,
  wind-down sweeps) become single vectorized expressions instead of
  per-job Python loops.
* **mutable hot columns** — ``remaining`` (float) and ``status`` (int code,
  see :data:`repro.sim.job.CODE_STATUS`) as plain Python lists indexed by
  row.  The event loop reads and writes these one scalar at a time, and
  CPython list indexing both beats numpy scalar indexing (which boxes every
  element into ``np.float64``) and guarantees native ``float``/``int``
  values at the serialization boundaries (``json`` in the journal mirror,
  pickle in snapshots).  Vector views are materialized on demand by
  :meth:`remaining_array` / :meth:`status_array`.

Existing :class:`~repro.sim.job.Job` objects stay the API surface —
schedulers, event payloads and traces keep passing them around; the table
maps ``jid → row`` once and the kernel touches columns by row.

State snapshots are column copies (:meth:`copy_state` /
:meth:`load_state_columns`): two ``list.copy()`` calls, no per-row Python
work.  They are the ``remaining``/``status`` fields of the schema-3
:class:`~repro.sim.journal.EngineSnapshot`, row-ordered, with the row
count standing in for the jid mapping.

Admission (:meth:`append_job`) is O(1) amortized: the parameter columns
live in capacity-doubling numpy buffers, exposed as length-``n`` views,
and ``jobs``/``remaining``/``status`` are lists appended in place.

Bit-identity note: every vectorized helper performs *element-wise*
arithmetic only (no reductions), in the same expression order as the
scalar code it replaces — so columnar and scalar results agree to the bit.
Order-sensitive *reductions* (e.g. V-Dover's protected-value sum over
Qedf) deliberately stay scalar; see docs/PERFORMANCE.md ("Summation-order
audit").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.sim.job import (
    CODE_STATUS,
    STATUS_CODE,
    Job,
    JobStatus,
)

__all__ = ["JobTable"]

_PENDING = STATUS_CODE[JobStatus.PENDING]
_READY = STATUS_CODE[JobStatus.READY]
_RUNNING = STATUS_CODE[JobStatus.RUNNING]
#: Codes at or above this are terminal (COMPLETED / FAILED / ABANDONED) —
#: relies on the CODE_STATUS ordering, which is append-only by contract.
_TERMINAL_MIN = STATUS_CODE[JobStatus.COMPLETED]


class JobTable:
    """Column store for one instance's per-job execution state.

    Attributes (all indexed by *row*, the position of the job in the
    instance order):

    ``jobs``
        The row-ordered :class:`Job` views (list, appended in place).
    ``row_of``
        ``jid → row`` mapping (dict).
    ``jid``, ``release``, ``workload``, ``deadline``, ``value``
        Immutable numpy parameter columns: length-``n`` views of
        capacity-doubling buffers (re-read them after an admission).
    ``remaining``, ``status``
        Mutable hot columns (Python lists); the kernel mutates them in
        place by row.  ``status`` holds int codes (``STATUS_CODE``).
    """

    __slots__ = (
        "jobs",
        "row_of",
        "_jid",
        "_release",
        "_workload",
        "_deadline",
        "_value",
        "remaining",
        "status",
    )

    def __init__(self, jobs: Sequence[Job]) -> None:
        self.jobs: List[Job] = list(jobs)
        n = len(self.jobs)
        self.row_of: Dict[int, int] = {
            job.jid: row for row, job in enumerate(self.jobs)
        }
        if len(self.row_of) != n:
            raise SimulationError("duplicate job ids in JobTable")
        self._jid = np.fromiter(
            (j.jid for j in self.jobs), dtype=np.int64, count=n
        )
        self._release = np.fromiter(
            (j.release for j in self.jobs), dtype=np.float64, count=n
        )
        self._workload = np.fromiter(
            (j.workload for j in self.jobs), dtype=np.float64, count=n
        )
        self._deadline = np.fromiter(
            (j.deadline for j in self.jobs), dtype=np.float64, count=n
        )
        self._value = np.fromiter(
            (j.value for j in self.jobs), dtype=np.float64, count=n
        )
        self.remaining: List[float] = [0.0] * n
        self.status: List[int] = [_PENDING] * n

    # Length-n views of the parameter buffers (rows past n are unused
    # capacity).
    @property
    def jid(self) -> np.ndarray:
        return self._jid[: len(self.jobs)]

    @property
    def release(self) -> np.ndarray:
        return self._release[: len(self.jobs)]

    @property
    def workload(self) -> np.ndarray:
        return self._workload[: len(self.jobs)]

    @property
    def deadline(self) -> np.ndarray:
        return self._deadline[: len(self.jobs)]

    @property
    def value(self) -> np.ndarray:
        return self._value[: len(self.jobs)]

    # ------------------------------------------------------------------
    def append_job(self, job: Job) -> None:
        """Grow the table by one job (live-service admission), O(1)
        amortized.

        A full parameter buffer is reallocated at twice its capacity, so
        ``n`` admissions cost O(log n) reallocations.  The mutable hot
        columns, ``jobs`` and the ``row_of`` map are extended *in place*:
        the kernel aliases those (``_rem``/``_st``/``_row``) and the
        aliases must survive admission, exactly as they survive
        :meth:`load_state_columns`.
        """
        if job.jid in self.row_of:
            raise SimulationError(f"duplicate job id {job.jid} in JobTable")
        row = len(self.jobs)
        if row == len(self._jid):
            self._grow(max(8, 2 * row))
        self._jid[row] = job.jid
        self._release[row] = job.release
        self._workload[row] = job.workload
        self._deadline[row] = job.deadline
        self._value[row] = job.value
        self.jobs.append(job)
        self.row_of[job.jid] = row
        self.remaining.append(0.0)
        self.status.append(_PENDING)

    def _grow(self, capacity: int) -> None:
        """Reallocate the five parameter buffers at ``capacity`` rows."""
        n = len(self.jobs)
        for name in ("_jid", "_release", "_workload", "_deadline", "_value"):
            old = getattr(self, name)
            new = np.empty(capacity, dtype=old.dtype)
            new[:n] = old[:n]
            setattr(self, name, new)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.jobs)

    def job_at(self, row: int) -> Job:
        return self.jobs[row]

    def status_of(self, jid: int) -> Optional[JobStatus]:
        """Status as the enum (``None`` for unknown jids) — the diagnostic
        view; the kernel compares int codes directly."""
        row = self.row_of.get(jid)
        return None if row is None else CODE_STATUS[self.status[row]]

    # ------------------------------------------------------------------
    # Vector views (materialized on demand)
    # ------------------------------------------------------------------
    def remaining_array(self) -> np.ndarray:
        return np.asarray(self.remaining, dtype=np.float64)

    def status_array(self) -> np.ndarray:
        return np.asarray(self.status, dtype=np.int64)

    def rows_released_by(self, horizon: float) -> np.ndarray:
        """Rows of jobs released within ``[0, horizon]`` (bootstrap
        seeding)."""
        return np.nonzero(self.release <= horizon)[0]

    def rows_unresolved(self) -> np.ndarray:
        """Rows still READY or RUNNING — the wind-down failure sweep."""
        st = self.status_array()
        return np.nonzero((st == _READY) | (st == _RUNNING))[0]

    def rows_ready(self) -> np.ndarray:
        return np.nonzero(self.status_array() == _READY)[0]

    def laxities(
        self,
        now: float,
        rate: float,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Vectorized :meth:`Job.laxity`: ``d − now − remaining/rate`` for
        every row (or the given rows), element-wise in the exact expression
        order of the scalar method — bit-identical per element."""
        if rows is None:
            deadline = self.deadline
            remaining = self.remaining_array()
        else:
            deadline = self.deadline[rows]
            remaining = self.remaining_array()[rows]
        return deadline - now - remaining / rate

    def zero_laxity_times(
        self,
        rate: float,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Instants at which laxity reaches zero under constant ``rate``:
        ``d − remaining/rate`` (the kernel's alarm arming expression)."""
        if rows is None:
            deadline = self.deadline
            remaining = self.remaining_array()
        else:
            deadline = self.deadline[rows]
            remaining = self.remaining_array()[rows]
        return deadline - remaining / rate

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def copy_state(self) -> Tuple[List[float], List[int]]:
        """Row-ordered copies of the mutable columns (``list.copy``) —
        the schema-3 snapshot image."""
        return (self.remaining.copy(), self.status.copy())

    def load_state_columns(
        self, remaining: Sequence[float], status: Sequence[int]
    ) -> None:
        """Inverse of :meth:`copy_state`."""
        if len(remaining) != len(self.jobs) or len(status) != len(self.jobs):
            raise SimulationError("column snapshot length mismatch")
        # In-place: the kernel holds direct references to these lists.
        self.remaining[:] = remaining
        self.status[:] = status

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JobTable(n={len(self.jobs)})"
