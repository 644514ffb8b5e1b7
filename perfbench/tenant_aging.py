"""Workload ``tenant_aging``: one long-lived in-memory EDF tenant.

A :class:`~repro.service.shard.TenantShard` with no store gets a closed
loop of request-id-tagged Poisson submits, with an ``advance`` after
every :data:`ADVANCE_EVERY` submits, fed to ``handle()`` one message after
another.  The queue budget is tight, so some submits are shed.
Admission, incremental ``admit_job``/``run_until`` and the periodic
kernel ``snapshot()`` do the work, with no disk at all.  The tenant's
state grows with every job it ever admitted, so the last eighth of the
stream shows what that growth costs.
"""

from __future__ import annotations

import gc
from time import perf_counter

from common import Outcome, median, own_peak_rss_mb, quantile, trimmed_mean

#: The Figure-1 seed.
DEFAULT_SEED = 7
#: ``--trace 1`` installs the span recorder in this process.
TRACED_IN_PROCESS = True
#: Stream length per second of ``--seconds``: at 12k jobs the parent
#: build spends ~8 s on the stream at the reference speed (the state
#: growth makes the cost superlinear in the length).
JOBS_PER_SECOND = 1200
LAM = 1.5  # arrivals per unit time against capacity 1: 1.5x overload
QUEUE_BUDGET = 6
ADVANCE_EVERY = 16
RECOVERY_TRIALS = 15
TENANT = "aging"


def prepare(ctx):
    import numpy as np

    from repro.service.messages import Advance, Submit
    from repro.service.shard import CapacitySpec, TenantShard, TenantSpec
    from repro.sim.job import Job

    n = JOBS_PER_SECOND * ctx.seconds
    rng = np.random.default_rng(ctx.seed)
    release = np.cumsum(rng.exponential(1.0 / LAM, n))
    work = rng.exponential(1.0, n)
    slack = rng.uniform(1.0, 4.0, n)
    density = rng.uniform(1.0, 7.0, n)
    messages = []
    for i in range(n):
        r, p = float(release[i]), float(work[i])
        job = Job(i, r, p, r + float(slack[i]) * p, float(density[i]) * p)
        messages.append(Submit(TENANT, job, rid=f"{TENANT}/s{i}"))
        if i % ADVANCE_EVERY == ADVANCE_EVERY - 1 or i == n - 1:
            messages.append(Advance(TENANT, r))
    spec = TenantSpec(
        tenant=TENANT,
        horizon=float(release[-1]) + 100.0,
        scheduler="edf",
        capacity=CapacitySpec("constant", {"rate": 1.0}),
        queue_budget=QUEUE_BUDGET,
    )
    return {"n": n, "messages": messages, "shard": TenantShard(spec)}


def release(ctx, state) -> None:
    pass


def measure(ctx, state) -> Outcome:
    from repro.service.messages import Submit
    from repro.service.replay import replay_tenant

    out = Outcome()
    shard, messages, n = state["shard"], state["messages"], state["n"]
    handle, poll = shard.handle, ctx.speedo.poll
    acks = []  # (start, end) of each handle() call
    submit_index = []  # index into acks of each submit
    errors = 0
    try:
        for message in messages:
            poll()
            t0 = perf_counter()
            try:
                handle(message)
            except Exception as exc:  # noqa: BLE001 - counted, then reported
                errors += 1
                if errors <= 3:
                    out.problems.append(f"handle({message!r}) raised {exc!r}")
            acks.append((t0, perf_counter()))
            if isinstance(message, Submit):
                submit_index.append(len(acks) - 1)
    finally:
        ctx.speedo.tick()
        if ctx.recorder is not None:
            ctx.recorder.uninstall()
    rss = own_peak_rss_mb()

    out.attempted = n
    out.failed = errors
    scaled = [ctx.speedo.scale(a, b) for a, b in acks]
    throughput = n / sum(scaled)
    # Late rate: the last eighth of the submits, over the messages from
    # the one after submit 7n/8 to the end.
    mark = n - n // 8
    late_throughput = (n - mark) / sum(scaled[submit_index[mark - 1] + 1:])

    stats = shard.stats()
    if stats["submitted"] != n:
        out.problems.append(f"submitted {stats['submitted']} != {n} sent")
    if stats["pending"] or stats["submitted"] != stats["accepted"] + stats["shed"]:
        out.problems.append(
            f"submitted {stats['submitted']} != accepted {stats['accepted']}"
            f" + shed {stats['shed']} (pending {stats['pending']})"
        )
    if stats["shed"] == 0:
        out.problems.append("the queue budget shed nothing")

    if ctx.trace:
        import spans

        out.metrics = spans.layer_metrics(
            [ctx.recorder.document()], throughput=throughput
        )
    else:
        # Supervisor restart of the aged tenant: restore its last periodic
        # snapshot and re-apply the op log (TenantShard.recover).
        recoveries = []
        for _ in range(RECOVERY_TRIALS):
            ctx.speedo.tick()
            gc.collect()  # each trial starts from the same collector state
            t0 = perf_counter()
            shard.recover(None)
            recoveries.append((t0, perf_counter()))
        ctx.speedo.tick()
        recoveries = [ctx.speedo.scale(a, b) for a, b in recoveries]
        out.metrics.update(
            throughput_per_s=throughput,
            late_throughput_per_s=late_throughput,
            latency_p50_ms=1e3 * median(scaled),
            latency_tail_ms=1e3 * quantile(scaled, 0.99),
            recovery_s=trimmed_mean(recoveries),
            peak_rss_mb=rss,
        )
        out.report += [
            ("submits_per_s", throughput, "1/s",
             f"{n} submits + {len(messages) - n} advances"),
            ("late_submits_per_s", late_throughput, "1/s",
             f"last {n - mark} submits"),
            ("ack_p50_ms", out.metrics["latency_p50_ms"], "ms",
             f"TenantShard.handle, n={len(acks)}"),
            ("ack_p99_ms", out.metrics["latency_tail_ms"], "ms",
             f"n={len(acks)}, {len(acks) - int(0.99 * len(acks))} beyond"),
            ("recovery_s", out.metrics["recovery_s"], "s",
             f"TenantShard.recover at job {n}, trimmed mean of {RECOVERY_TRIALS}"),
            ("peak_rss_mb", rss, "MB", "benchmark process VmHWM"),
        ]

    report = shard.close()
    check = replay_tenant(report)
    if not check.ok:
        out.problems.append(f"replay parity failed: {'; '.join(check.failures)}")
    if report.lost_jids:
        out.problems.append(f"accepted-then-lost jobs: {report.lost_jids[:5]}")
    out.notes.append(
        f"accepted {stats['accepted']} shed {stats['shed']}; "
        f"replay parity {'holds' if check.ok else 'BROKEN'}"
    )
    return out
