"""Workload ``paper_mc``: the serial Table-I Monte Carlo.

Both ends of Table I's λ sweep (6 and 12), each a row of replications
through ``MonteCarloRunner.run_report(workers=1)`` — the path
``repro table1`` uses — with Dover at the four ĉ values plus V-Dover on
every instance.  The kernel, the policies, the capacity paths and the
workload generator do the work; the service and the store do none.

Row λ uses seed ``seed + Table1Config.lambdas.index(λ)``, as
``run_table1`` does, so at the default seed the replications are the
first ones of Table I's own λ = 6 and λ = 12 rows.
"""

from __future__ import annotations

import gc
import hashlib
import json
from time import perf_counter

from common import Outcome, median, own_peak_rss_mb, quantile, trimmed_mean

#: Table I's own seed (``Table1Config.seed``).
DEFAULT_SEED = 2011
#: ``--trace 1`` installs the span recorder in this process.
TRACED_IN_PROCESS = True
LAMBDAS = (6.0, 12.0)
#: Replications per λ row and second of ``--seconds``.  A replication
#: (five scheduler runs on ~2000 jobs) takes ~0.38 s at the reference
#: speed, so ``--seconds 10`` measures ~23 s: the last eighth of the
#: replications needs that many to be steady.
ROW_REPLICATIONS_PER_SECOND = 3.0
#: Checkpoint resumes timed per run (reported as their trimmed mean).
RESUME_TRIALS = 200
#: sha256 of every replication's values, pinned at (seed, seconds).
PINNED_DIGESTS = {
    (2011, 10): "d11d3e01bf6393f630446f9d44142324989bae8e9a6b5b001a8841a43e1bbdd0",
}


class CallTimer:
    """Time every call of ``owner.attr`` (a module global) from outside.

    ``before()`` runs ahead of each call, untimed, and returns the
    seconds it spent (summed in :attr:`excluded`); an ``inner`` timer's
    excluded time is taken out of this timer's intervals too."""

    def __init__(self, owner, attr: str, before=None, inner=None) -> None:
        self.owner, self.attr = owner, attr
        self.orig = getattr(owner, attr)
        self.intervals: list = []  # (start, end) per call
        self.excluded = 0.0
        orig, intervals = self.orig, self.intervals

        def timed(*args, **kwargs):
            if before is not None:
                self.excluded += before()
            skipped = inner.excluded if inner is not None else 0.0
            start = perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                end = perf_counter()
                if inner is not None:
                    end -= inner.excluded - skipped
                intervals.append((start, end))

        setattr(owner, attr, timed)

    def restore(self) -> None:
        setattr(self.owner, self.attr, self.orig)


def rows_per_lambda(seconds: int) -> int:
    return max(10, round(ROW_REPLICATIONS_PER_SECOND * seconds))


def prepare(ctx):
    from repro.experiments.runner import MonteCarloRunner, PaperInstanceFactory
    from repro.experiments.table1 import Table1Config
    from repro.workload.poisson import PoissonWorkload

    cfg = Table1Config()
    rows = []
    for lam in LAMBDAS:
        horizon = cfg.horizon(lam)
        factory = PaperInstanceFactory(
            workload=PoissonWorkload(
                lam=lam,
                horizon=horizon,
                workload_mean=cfg.workload_mean,
                density_range=(1.0, cfg.k),
                c_lower=cfg.low,
            ),
            low=cfg.low,
            high=cfg.high,
            sojourn=horizon / 4.0,
        )
        runner = MonteCarloRunner(factory, cfg.specs())
        rows.append((lam, runner, ctx.seed + list(cfg.lambdas).index(lam)))
    return {"rows": rows, "n": rows_per_lambda(ctx.seconds)}


def release(ctx, state) -> None:
    pass


def _digest(reports) -> str:
    h = hashlib.sha256()
    for lam, report in reports:
        for index in sorted(report.outcomes):
            o = report.outcomes[index]
            h.update(json.dumps(
                [lam, index, o.generated_value, o.n_jobs,
                 sorted(o.values.items()), sorted(o.completed.items())]
            ).encode())
    return h.hexdigest()


def _resume_all(ctx, state, reports) -> tuple:
    """Resume both rows from checkpoints holding every replication (the
    ``repro table1 --checkpoint`` restart path); returns the timed
    ``(start, end)`` and the problems found."""
    from repro.experiments.checkpoint import CheckpointStore, run_fingerprint

    n = state["n"]
    paths = []
    for (lam, runner, seed), (_, report) in zip(state["rows"], reports):
        path = ctx.work / f"table1_lam{lam:g}.ckpt.jsonl"
        if not path.exists():
            with CheckpointStore(
                path, seed=seed, n_runs=n,
                fingerprint=run_fingerprint(runner.factory, runner.specs, seed, n),
            ) as store:
                for index in sorted(report.outcomes):
                    store.record(index, report.outcomes[index])
        paths.append(path)
    problems = []
    ctx.speedo.tick()
    gc.collect()  # each trial starts from the same collector state
    start = perf_counter()
    for (lam, runner, seed), path, (_, report) in zip(state["rows"], paths, reports):
        resumed = runner.run_report(n, seed=seed, workers=1, checkpoint=path)
        if resumed.resumed != n or any(
            resumed.outcomes[i].values != report.outcomes[i].values
            for i in report.outcomes
        ):
            problems.append(f"λ={lam:g}: checkpoint resume lost or changed replications")
    return (start, perf_counter()), problems


def measure(ctx, state) -> Outcome:
    from repro.experiments import runner as runner_module

    out = Outcome()
    n = state["n"]
    speedo = ctx.speedo
    per_simulate = CallTimer(runner_module, "simulate", before=speedo.poll)
    per_replication = CallTimer(runner_module, "_run_one_safe", inner=per_simulate)
    reports = []
    try:
        for lam, runner, seed in state["rows"]:
            reports.append((lam, runner.run_report(n, seed=seed, workers=1)))
    finally:
        speedo.tick()
        per_simulate.restore()
        per_replication.restore()
        if ctx.recorder is not None:
            ctx.recorder.uninstall()
    rss = own_peak_rss_mb()

    total = 2 * n
    out.attempted = total
    out.failed = sum(len(r.failures) for _, r in reports)
    replications = [speedo.scale(a, b) for a, b in per_replication.intervals]
    throughput = total / sum(replications)
    late = replications[-(total // 8):]
    late_throughput = len(late) / sum(late)
    sims = [speedo.scale(a, b) for a, b in per_simulate.intervals]

    for lam, report in reports:
        for index, failure in sorted(report.failures.items()):
            out.problems.append(f"λ={lam:g} replication {index} failed: {failure}")
        for index, o in sorted(report.outcomes.items()):
            for name, value in o.values.items():
                if not 0.0 <= value <= o.generated_value * (1 + 1e-12):
                    out.problems.append(
                        f"λ={lam:g} replication {index}: {name} captured "
                        f"{value!r} outside [0, {o.generated_value!r}]"
                    )
    digest = _digest(reports)
    pinned = PINNED_DIGESTS.get((ctx.seed, ctx.seconds))
    if pinned is not None and digest != pinned:
        out.problems.append(f"replication digest {digest} != pinned {pinned}")
    out.notes.append(
        f"replication digest {digest}" + (" (matches the pin)" if pinned else "")
    )

    if ctx.trace:
        import spans

        out.metrics = spans.layer_metrics(
            [ctx.recorder.document()], throughput=throughput
        )
        return out

    resumes = []
    for _ in range(RESUME_TRIALS):
        interval, problems = _resume_all(ctx, state, reports)
        resumes.append(interval)
        out.problems.extend(problems)
    speedo.tick()
    resumes = [speedo.scale(a, b) for a, b in resumes]
    out.metrics.update(
        throughput_per_s=throughput,
        late_throughput_per_s=late_throughput,
        latency_p50_ms=1e3 * median(sims),
        latency_tail_ms=1e3 * quantile(sims, 0.90),
        recovery_s=trimmed_mean(resumes),
        peak_rss_mb=rss,
    )
    out.report += [
        ("replications_per_s", throughput, "1/s",
         f"{total} replications x 5 schedulers, lambda = 6 and 12"),
        ("late_replications_per_s", late_throughput, "1/s",
         f"last {len(late)} replications"),
        ("simulate_p50_ms", out.metrics["latency_p50_ms"], "ms",
         f"one scheduler on one instance, n={len(sims)}"),
        ("simulate_p90_ms", out.metrics["latency_tail_ms"], "ms",
         f"n={len(sims)}, {len(sims) - int(0.9 * len(sims))} beyond"),
        ("recovery_s", out.metrics["recovery_s"], "s",
         f"resume both rows from checkpoints, trimmed mean of {RESUME_TRIALS}"),
        ("peak_rss_mb", rss, "MB", "benchmark process VmHWM"),
    ]
    return out
