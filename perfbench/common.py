"""Helpers shared by the benchmark's runner and its workloads."""

from __future__ import annotations

import gc
import os
import resource
import signal
import subprocess
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: Scratch space for stores, checkpoints and span files.  It lives in the
#: checkout (the benchmark reads and writes nowhere else) and is
#: git-ignored; each run removes its own directory under it, while span
#: files stay under ``spans/`` (one per workload and seed).
WORK_ROOT = HERE.parent / ".perfbench_tmp"
SPANS_DIR = WORK_ROOT / "spans"


@dataclass
class Outcome:
    """What one workload measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    #: human-readable ``(name, value, unit, note)`` rows
    report: list = field(default_factory=list)
    #: further human-readable lines
    notes: list = field(default_factory=list)


@dataclass
class Context:
    """Per-run settings plus the children the run must reap."""

    workload: str
    seed: int
    seconds: int
    trace: bool
    work: Path
    recorder: object = None
    children: list = field(default_factory=list)
    speedo: "Speedometer" = field(default_factory=lambda: Speedometer())

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["TMPDIR"] = str(self.work)
        return env

    def spawn(self, cmd, **kwargs) -> subprocess.Popen:
        """Start a child that dies with this process (Linux
        ``PR_SET_PDEATHSIG``) and is reaped by :meth:`reap`."""
        proc = subprocess.Popen(
            cmd, env=self.env(), preexec_fn=die_with_parent, **kwargs
        )
        self.children.append(proc)
        return proc

    def reap(self) -> None:
        for proc in self.children:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            for stream in (proc.stdin, proc.stdout, proc.stderr):
                if stream is not None:
                    stream.close()
        self.children.clear()


def die_with_parent() -> None:
    try:
        import ctypes

        ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGKILL)
    except OSError:  # not glibc: the run's finally block still reaps
        pass


def median(values):
    values = sorted(values)
    n = len(values)
    if not n:
        raise ValueError("median of no values")
    mid = n // 2
    return values[mid] if n % 2 else 0.5 * (values[mid - 1] + values[mid])


def trimmed_mean(values, cut: float = 0.1) -> float:
    """Mean of the values left after dropping ``cut`` of them at each
    end; steadier than the median when the machine flips between a fast
    and a slow state."""
    values = sorted(values)
    k = int(len(values) * cut)
    kept = values[k:len(values) - k]
    return sum(kept) / len(kept)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    import numpy as np

    return float(np.quantile(np.asarray(values, dtype=float), q))


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _calibration_kernel() -> float:
    """Fixed pure-Python work (a heap-driven event loop over a dict):
    the same kind of interpreter work the program does, using none of
    the program's code."""
    import heapq

    total = 0.0
    for _ in range(8):
        heap = [(float(i % 97), i) for i in range(400)]
        heapq.heapify(heap)
        state = {}
        while heap:
            t, i = heapq.heappop(heap)
            v = state.get(i, 0.0) + t * 0.5
            state[i] = v
            if i % 3 == 0 and t < 120.0:
                heapq.heappush(heap, (t + 7.5, i + 1))
            total += v
    return total


class Speedometer:
    """How fast this machine runs right now, sampled through the run.

    Shared machines change speed by tens of percent within a second.  A
    run calls :meth:`poll` between its units of work, which times one
    pass of a fixed calibration kernel per :data:`INTERVAL_S` elapsed
    since the last pass (about a tenth of the run's time).
    :meth:`scale` turns a measured interval into the time it would have
    taken at the reference speed: the interval divided by the mean pass
    time of the passes within :data:`WINDOW_S` of it, over
    :data:`REFERENCE_S` (the kernel's time on a quiet 2-core x86
    container).  Calibration happens between timed intervals, never
    inside one.
    """

    INTERVAL_S = 0.04
    WINDOW_S = 1.0
    MAX_PASSES = 25
    REFERENCE_S = 0.004

    def __init__(self) -> None:
        self.times: list = []  # pass midpoints, increasing
        self.prefix: list = [0.0]  # prefix sums of pass durations
        self._next = 0.0

    def tick(self) -> float:
        """One calibration pass; returns the seconds it took.  The cyclic
        garbage collector is off during the pass: the pass frees all it
        allocates, so it neither triggers nor postpones a collection of
        the program's heap."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            _calibration_kernel()
            end = perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.times.append(0.5 * (start + end))
        self.prefix.append(self.prefix[-1] + (end - start))
        self._next = end + self.INTERVAL_S
        return end - start

    def poll(self) -> float:
        """Calibrate once per interval passed; returns seconds spent."""
        late = perf_counter() - self._next
        if late < 0.0:
            return 0.0
        due = int(late / self.INTERVAL_S) + 1
        spent = 0.0
        for _ in range(min(due, self.MAX_PASSES)):
            spent += self.tick()
        return spent

    def factor(self, start: float, end: float) -> float:
        """Mean pass time near ``[start, end]`` over the reference."""
        lo = bisect_left(self.times, start - self.WINDOW_S)
        hi = bisect_right(self.times, end + self.WINDOW_S)
        if hi <= lo:  # no pass nearby: the nearest one
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        mean = (self.prefix[hi] - self.prefix[lo]) / (hi - lo)
        return mean / self.REFERENCE_S

    def scale(self, start: float, end: float) -> float:
        return (end - start) / self.factor(start, end)

    @property
    def passes(self) -> int:
        return len(self.times)
