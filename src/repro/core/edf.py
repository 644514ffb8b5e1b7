"""Earliest Deadline First — optimal for underloaded systems (Theorem 2).

EDF always runs the ready job with the earliest deadline, preempting on
arrival of an earlier-deadline job.  The paper's Theorem 2 shows this
achieves competitive ratio 1 for underloaded systems *even under
time-varying capacity* (the classical constant-capacity result of Liu &
Layland / Dertouzos carries over via the time-stretch transformation).

Under overload EDF can be arbitrarily bad (Locke's observation): it
happily burns the whole horizon on a long low-value job whose deadline is
earliest, starving everything else.  The adversarial generators in
:mod:`repro.workload.instances` exhibit this; Dover/V-Dover exist to fix it.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.sim.job import Job
from repro.sim.queues import JobQueue, edf_key
from repro.sim.scheduler import Scheduler

__all__ = ["EDFScheduler"]


class EDFScheduler(Scheduler):
    """Preemptive earliest-deadline-first.

    Ties on deadline break by job id, so runs are deterministic.
    """

    name = "EDF"

    def reset(self) -> None:
        self._ready: JobQueue[Job] = JobQueue(edf_key, name="edf-ready")

    def _on_release_from(
        self, cur: Optional[Job], job: Job
    ) -> Tuple[Optional[Job], Optional[tuple]]:
        if cur is None:
            return job, (self.name, "admit.idle", job.jid, None)
        if edf_key(job) < edf_key(cur):
            self._ready.insert(cur)
            return job, (self.name, "preempt.edf", job.jid, {"preempted": cur.jid})
        self._ready.insert(job)
        return cur, (self.name, "enqueue.ready", job.jid, None)

    def on_release(self, job: Job) -> Optional[Job]:
        cur, payload = self._on_release_from(self.ctx.current_job(), job)
        self._emit_decision(payload)
        return cur

    def on_job_end(self, job: Job, completed: bool) -> Optional[Job]:
        current = self.ctx.current_job()
        if current is not None:
            # A waiting job expired; just drop it from the ready queue.
            self._ready.remove(job)
            return current
        self._ready.remove(job)  # no-op if `job` was the running one
        obs = self.ctx.obs
        if self._ready:
            chosen = self._ready.dequeue()
            if obs is not None:
                obs.decision(self.name, "resume.edf", self.ctx.now(), chosen.jid)
            return chosen
        if obs is not None:
            obs.decision(self.name, "idle", self.ctx.now())
        return None

    def on_eviction(self, job: Job) -> Optional[Job]:
        # Unlike a release, an eviction can leave the processor idle while
        # the ready queue is non-empty; re-elect over the full queue.
        self._ready.insert(job)
        chosen = self._ready.dequeue()
        obs = self.ctx.obs
        if obs is not None:
            obs.decision(
                self.name, "requeue.evicted", self.ctx.now(), chosen.jid
            )
        return chosen

    # -- snapshot / restore --------------------------------------------
    def _policy_state(self) -> dict:
        return {"ready": self._ready.live_jids()}

    def _restore_policy_state(self, state: dict, jobs_by_id) -> None:
        for jid in state["ready"]:
            self._ready.insert(jobs_by_id[jid])
