"""The repository's benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload paper_mc --seed 2011 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics without the span recorder;
``--trace 1`` installs it (``spans.py``) and reports the per-layer
metrics instead.  Every run checks the program's outputs and
exits non-zero when one is wrong.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See ``README.md`` for the workloads, metrics and measured spread.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from common import HERE, SPANS_DIR, SRC, WORK_ROOT, Context, die_with_parent, median

WORKLOADS = ("paper_mc", "tenant_aging", "durable_daemon")

#: Set-up is repeated this many times per run (fresh interpreters) and
#: reported as the median.
SETUP_TRIALS = 5

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "late_throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "recovery_s": "s",
    "peak_rss_mb": "MB",
}

# Figure 1 of the paper on its pinned instance (README.md, "Checks").
FIGURE1_PINS = {"EDF": 5007.37367023652, "V-Dover": 5391.145120371147}


def check_figure1() -> list:
    """The Figure-1 pins: EDF and V-Dover(k=7) on the pinned instance."""
    from repro.capacity import TwoStateMarkovCapacity
    from repro.core import EDFScheduler, VDoverScheduler
    from repro.sim import simulate
    from repro.workload import PoissonWorkload

    horizon = 2000.0 / 6.0
    jobs = PoissonWorkload(lam=6.0, horizon=horizon).generate(7)
    problems = []
    for name, make in (("EDF", EDFScheduler), ("V-Dover", lambda: VDoverScheduler(k=7.0))):
        cap = TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=horizon / 4, rng=3)
        value = simulate(jobs, cap, make()).value
        if value != FIGURE1_PINS[name]:
            problems.append(
                f"Figure-1 pin broken: {name} {value!r} != {FIGURE1_PINS[name]!r}"
            )
    return problems


def measure_setup(args, speedo) -> list:
    """Time fresh interpreters from spawn to the end of the workload's
    set-up (imports, input generation, the daemon's first spawn)."""
    intervals = []
    for _ in range(SETUP_TRIALS):
        speedo.tick()
        speedo.tick()
        cmd = [
            sys.executable, str(HERE / "run.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--setup-probe",
        ]
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, preexec_fn=die_with_parent
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, {line!r})")
        intervals.append((start, start + elapsed))
    speedo.tick()
    speedo.tick()
    return [speedo.scale(a, b) for a, b in intervals]


def remove_stale_work() -> None:
    """Delete the directories of runs that died without cleaning up
    (SIGKILL); a run's directory is named after its process id."""
    for path in WORK_ROOT.glob("run-*"):
        try:
            os.kill(int(path.name[4:]), 0)
        except ProcessLookupError:
            shutil.rmtree(path, ignore_errors=True)
        except (ValueError, PermissionError):
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=int, default=10,
                        help="run length the work is sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    module = importlib.import_module(args.workload)
    if args.seed is None:
        args.seed = module.DEFAULT_SEED

    def _stop(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _stop)
    SPANS_DIR.mkdir(parents=True, exist_ok=True)
    remove_stale_work()
    work = WORK_ROOT / f"run-{os.getpid()}"
    work.mkdir()
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        work=work,
    )
    tempfile.tempdir = str(ctx.work)
    try:
        if args.setup_probe:
            state = module.prepare(ctx)
            print("ready", flush=True)
            module.release(ctx, state)
            return 0
        setup_times = [] if ctx.trace else measure_setup(args, ctx.speedo)
        state = module.prepare(ctx)
        try:
            if ctx.trace and module.TRACED_IN_PROCESS:
                import spans

                ctx.recorder = spans.install(spans.Recorder())
            try:
                outcome = module.measure(ctx, state)
            finally:
                if ctx.recorder is not None:
                    ctx.recorder.uninstall()
                    ctx.recorder.dump(
                        SPANS_DIR / f"{ctx.workload}-seed{ctx.seed}.jsonl"
                    )
        finally:
            module.release(ctx, state)
        outcome.problems.extend(check_figure1())
    finally:
        ctx.reap()
        shutil.rmtree(ctx.work, ignore_errors=True)

    if ctx.trace:
        import spans

        units = spans.PER_LAYER
    else:
        units = END_TO_END
        outcome.metrics["setup_s"] = median(setup_times)
        outcome.report.append(
            ("setup_s", outcome.metrics["setup_s"], "s",
             f"median of {len(setup_times)} fresh set-ups")
        )
        outcome.notes.append(
            f"times are at the reference speed ({ctx.speedo.passes} "
            "calibration passes)"
        )
    missing = set(units) - set(outcome.metrics)
    if missing:
        outcome.problems.append(f"metrics not measured: {sorted(missing)}")
    share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    outcome.report.append(
        ("failed_share", share, "share",
         f"{outcome.failed} of {outcome.attempted} attempts")
    )

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for name, value, unit, note in outcome.report:
        print(f"{name:28s} {value:14.6g} {unit:6s} {note}")
    for note in outcome.notes:
        print(note)
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not outcome.problems and outcome.attempted >= 1
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
