"""Workload ``durable_daemon``: the real ``repro serve`` under a closed loop.

Three tenants (V-Dover, EDF and Dover, each over its own ``markov2``
capacity path) in one daemon process with an fsynced store and default
telemetry.  One client on one TCP connection sends a Poisson stream of
request-id-tagged submits with a round of ``advance`` messages (one per
tenant) after every :data:`ADVANCE_EVERY` submits, awaiting each ack
before the next line, as every wire client does.

After the first part of the stream (it ends on an advance round, so every
decision is durable) the daemon gets one SIGKILL.  The benchmark
cold-starts it from the store, asks each tenant for ``stat`` (the first
ack ends ``recovery_s``), resends the first part in full — every submit
must ack ``duplicate: true`` with its original outcome — then sends the
rest and drains the daemon with SIGTERM.  An in-process replay of the
same stream through store-less shards is the reference for every
outcome and counter.
"""

from __future__ import annotations

import json
import select
import signal
import socket
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep

from common import HERE, SPANS_DIR, Outcome, median, quantile

#: Another arbitrary fixed seed, distinct from the other workloads'.
DEFAULT_SEED = 5
#: The span recorder runs in the daemon (serve_traced.py), not here.
TRACED_IN_PROCESS = False
#: Fresh submits per second of ``--seconds``: a closed-loop submit acks
#: in ~1 ms against the fsynced store on a 2-core x86 container.
SUBMITS_PER_SECOND = 1000
TENANTS = (("tv", "vdover"), ("te", "edf"), ("td", "dover"))
LAM = 3.0  # merged arrival rate over all tenants
#: Tight enough that some submits are shed, so duplicate acks carry both
#: outcomes.
QUEUE_BUDGET = 4
ADVANCE_EVERY = 24
KILL_FRACTION = (0.40, 0.45)
RESTARTS = 3
TIMEOUT_S = 60.0


def _read_line(proc, timeout: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise RuntimeError(f"daemon pid {proc.pid} printed nothing in {timeout:g}s")
    return proc.stdout.readline()


def _vm_hwm_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def _disk_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class Client:
    """One TCP connection; one JSON line out, one ack back."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S)
        self.fh = self.sock.makefile("rwb")

    def call(self, line: str) -> dict:
        self.fh.write(line.encode() + b"\n")
        self.fh.flush()
        raw = self.fh.readline()
        if not raw:
            raise ConnectionError("daemon closed the connection (no ack)")
        return json.loads(raw)

    def close(self) -> None:
        self.fh.close()
        self.sock.close()


def _spawn(ctx, state, incarnation: int):
    cmd = [sys.executable]
    if ctx.trace:
        spans_file = SPANS_DIR / f"{ctx.workload}-seed{ctx.seed}-daemon{incarnation}.jsonl"
        spans_file.unlink(missing_ok=True)
        state["span_files"].append(spans_file)
        cmd += [str(HERE / "serve_traced.py"), str(spans_file)]
    else:
        cmd += ["-m", "repro", "serve"]
    cmd += ["--store", str(state["store"]), "--specs", str(state["specs_file"])]
    with (ctx.work / "serve.stderr.log").open("ab") as err:
        proc = ctx.spawn(cmd, stdout=subprocess.PIPE, stderr=err, text=True)
    hello = json.loads(_read_line(proc, TIMEOUT_S) or "{}")
    if hello.get("event") != "serving":
        raise RuntimeError(f"daemon hello missing: {hello!r}")
    return proc, hello


def prepare(ctx):
    import numpy as np

    from repro.service.messages import Advance, Submit, encode_message
    from repro.service.shard import CapacitySpec, TenantSpec, tenant_spec_to_dict
    from repro.sim.job import Job

    n = SUBMITS_PER_SECOND * ctx.seconds
    rng = np.random.default_rng(ctx.seed)
    release = np.cumsum(rng.exponential(1.0 / LAM, n))
    owner = rng.integers(0, len(TENANTS), n)
    work = rng.exponential(1.0, n)
    slack = rng.uniform(1.5, 4.0, n)
    density = rng.uniform(1.0, 7.0, n)
    cap_seeds = rng.integers(0, 2**31, len(TENANTS))
    kill_fraction = rng.uniform(*KILL_FRACTION)

    horizon = float(release[-1]) + 50.0
    specs = [
        TenantSpec(
            tenant=name,
            horizon=horizon,
            scheduler=scheduler,
            capacity=CapacitySpec(
                "markov2", {"low": 1.0, "high": 8.0, "mean_sojourn": 4.0},
                seed=int(seed),
            ),
            queue_budget=QUEUE_BUDGET,
        )
        for (name, scheduler), seed in zip(TENANTS, cap_seeds)
    ]
    # (message, wire line, is submit) in send order
    stream = []
    rounds = []  # stream index after each advance round
    next_jid = [0] * len(TENANTS)
    for i in range(n):
        k = int(owner[i])
        name = TENANTS[k][0]
        r, p = float(release[i]), float(work[i])
        job = Job(next_jid[k], r, p, r + float(slack[i]) * p, float(density[i]) * p)
        next_jid[k] += 1
        msg = Submit(name, job, rid=f"{name}/s{job.jid}")
        stream.append((msg, encode_message(msg), True))
        if i % ADVANCE_EVERY == ADVANCE_EVERY - 1 or i == n - 1:
            for name, _ in TENANTS:
                msg = Advance(name, r)
                stream.append((msg, encode_message(msg), False))
            rounds.append(len(stream))
    kill = next(b for b in rounds if b >= kill_fraction * len(stream))

    store = ctx.work / "store"
    specs_file = ctx.work / "specs.json"
    specs_file.write_text(json.dumps(
        {"tenants": [tenant_spec_to_dict(spec) for spec in specs]}
    ))
    state = {
        "n": n, "specs": specs, "stream": stream, "kill": kill,
        "store": store, "specs_file": specs_file, "span_files": [],
    }
    state["proc"], state["hello"] = _spawn(ctx, state, 1)
    return state


def release(ctx, state) -> None:
    proc = state.get("proc")
    if proc is not None and proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=TIMEOUT_S)
        except Exception:  # noqa: BLE001 - reaped by Context.reap
            pass


def _stats(client) -> dict:
    return {
        name: client.call(json.dumps({"type": "stat", "tenant": name}))
        for name, _ in TENANTS
    }


_COUNTERS = ("submitted", "accepted", "shed", "accepted_crc")


def _oracle(state) -> tuple:
    """Replay the stream through store-less in-process shards: each
    request id's outcome, and each tenant's final counters."""
    from repro.service.shard import TenantShard

    shards = {spec.tenant: TenantShard(spec) for spec in state["specs"]}
    for msg, _line, _is_submit in state["stream"]:
        shards[msg.tenant].handle(msg)
    outcomes = {}
    for msg, _line, is_submit in state["stream"]:
        if is_submit:
            outcomes[msg.rid] = shards[msg.tenant].dedup_outcome(msg.rid)
    return outcomes, {name: shard.stats() for name, shard in shards.items()}


def _send(ctx, client, lines, out, rtts) -> None:
    """Send fresh lines, timing each round trip: ``rtts`` gets
    ``(request id, is submit, start, end)`` per line."""
    poll = ctx.speedo.poll
    for msg, line, is_submit in lines:
        poll()
        t0 = perf_counter()
        ack = client.call(line)
        rtts.append((getattr(msg, "rid", None), is_submit, t0, perf_counter()))
        if not ack.get("ok") or ack.get("duplicate"):
            out.failed += 1
            if out.failed <= 3:
                out.problems.append(f"fresh line acked {ack!r}")


def measure(ctx, state) -> Outcome:
    out = Outcome()
    stream, kill, n = state["stream"], state["kill"], state["n"]
    proc = state["proc"]
    out.attempted = len(stream)
    rtts = []
    speedo = ctx.speedo

    client = Client(state["hello"]["port"])
    _send(ctx, client, stream[:kill], out, rtts)
    before = _stats(client)
    client.close()
    hwm = _vm_hwm_mb(proc.pid)
    if ctx.trace:
        spans_file = state["span_files"][-1]
        proc.send_signal(signal.SIGUSR1)
        deadline = perf_counter() + TIMEOUT_S
        while not spans_file.exists() and perf_counter() < deadline:
            sleep(0.01)
        if not spans_file.exists():
            out.problems.append("the daemon wrote no spans on SIGUSR1")
    proc.kill()
    proc.wait()

    # Cold start: spawn to the first post-restart ack.  Untraced runs
    # time RESTARTS cold starts from the same killed store (the idle
    # restarted daemon is SIGKILLed again between them).
    recoveries = []
    for attempt in range(1 if ctx.trace else RESTARTS):
        if attempt:
            client.close()
            proc.kill()
            proc.wait()
        speedo.tick()
        t0 = perf_counter()
        proc, hello = _spawn(ctx, state, 2 + attempt)
        state["proc"] = proc
        client = Client(hello["port"])
        after = {}
        for name, _ in TENANTS:
            after[name] = client.call(json.dumps({"type": "stat", "tenant": name}))
            if len(after) == 1:
                recoveries.append((t0, perf_counter()))
        if not hello.get("cold_start"):
            out.problems.append("the restarted daemon did not cold-start")
        for name, _ in TENANTS:
            for key in _COUNTERS:
                if before[name].get(key) != after[name].get(key):
                    out.problems.append(
                        f"{name}: stat {key} changed across the kill "
                        f"({before[name].get(key)} -> {after[name].get(key)})"
                    )

    # Resend the pre-kill part: every submit is a duplicate.
    resent = {}  # request id -> the duplicate ack's outcome
    dup_rtts = []
    refused = []
    for msg, line, is_submit in stream[:kill]:
        speedo.poll()
        t1 = perf_counter()
        ack = client.call(line)
        dup_rtts.append((t1, perf_counter()))
        if not ack.get("ok") or (is_submit and not ack.get("duplicate")):
            refused.append(ack)
        elif is_submit:
            resent[msg.rid] = ack.get("outcome")
    if refused:
        out.problems.append(
            f"{len(refused)} resent lines not acked as duplicates, e.g. {refused[0]!r}"
        )

    _send(ctx, client, stream[kill:], out, rtts)
    speedo.tick()
    final = _stats(client)
    client.close()
    hwm = max(hwm, _vm_hwm_mb(proc.pid))

    proc.send_signal(signal.SIGTERM)
    drained = {}
    while True:
        line = _read_line(proc, TIMEOUT_S)
        if not line:
            break
        event = json.loads(line)
        if event.get("event") == "drained":
            drained = event.get("stats", {})
            break
    code = proc.wait(timeout=TIMEOUT_S)
    if code != 0:
        out.problems.append(f"SIGTERM drain exited {code}, expected 0")
    disk_bytes = _disk_bytes(state["store"])

    outcomes, reference = _oracle(state)
    if not any(outcome == "shed" for outcome in outcomes.values()):
        out.problems.append("the queue budget shed nothing")
    wrong = [rid for rid, got in resent.items() if got != outcomes[rid]]
    if wrong:
        out.problems.append(
            f"{len(wrong)} duplicate acks differ from the original outcome, "
            f"e.g. {wrong[0]}: {resent[wrong[0]]} != {outcomes[wrong[0]]}"
        )
    for name, _ in TENANTS:
        for key in _COUNTERS:
            want = reference[name][key]
            for label, got in (("stat", final[name]), ("drained", drained.get(name, {}))):
                if got.get(key) != want:
                    out.problems.append(
                        f"{name}: {label} {key} {got.get(key)} != reference {want}"
                    )
        if final[name].get("submitted") != (
            final[name].get("accepted", 0) + final[name].get("shed", 0)
        ):
            out.problems.append(f"{name}: submitted != accepted + shed")
    out.notes.append("accepted/shed per tenant: " + ", ".join(
        f"{name} {final[name].get('accepted')}/{final[name].get('shed')}"
        for name, _ in TENANTS
    ))

    acks = [speedo.scale(a, b) for _rid, _sub, a, b in rtts]
    throughput = n / sum(acks)
    # Late rate: the last eighth of the submits, over the lines from the
    # one after submit 7n/8 to the end.
    mark = n - n // 8
    submit_at = [i for i, (_rid, sub, _a, _b) in enumerate(rtts) if sub]
    late_throughput = (n - mark) / sum(acks[submit_at[mark - 1] + 1:])
    recovery = median([speedo.scale(a, b) for a, b in recoveries])
    dup_acks = [speedo.scale(a, b) for a, b in dup_rtts]

    if ctx.trace:
        import spans

        dumps = [spans.load_dump(path) for path in state["span_files"]]
        handled = {}  # rid -> handle_line seconds, first (fresh) handling
        for span_list, _totals in dumps:
            for span in span_list:
                if span["name"] == "service.handle_line" and span["rid"]:
                    handled.setdefault(span["rid"], span["end"] - span["start"])
        transport = [
            (b - a) - handled[rid] for rid, _sub, a, b in rtts if rid in handled
        ]
        docs = [totals for _spans, totals in dumps]
        out.metrics = spans.layer_metrics(
            docs,
            messages=sum(d["calls"].get("service.handle_line", 0) for d in docs),
            transport_ms=1e3 * median(transport) if transport else 0.0,
            disk_bytes=disk_bytes,
            throughput=throughput,
        )
        return out

    out.metrics.update(
        throughput_per_s=throughput,
        late_throughput_per_s=late_throughput,
        latency_p50_ms=1e3 * median(acks),
        latency_tail_ms=1e3 * quantile(acks, 0.99),
        recovery_s=recovery,
        peak_rss_mb=hwm,
    )
    out.report += [
        ("submits_per_s", throughput, "1/s",
         f"{n} fresh submits + {len(stream) - n} advances, 3 tenants"),
        ("late_submits_per_s", late_throughput, "1/s", f"last {n - mark} submits"),
        ("ack_p50_ms", out.metrics["latency_p50_ms"], "ms",
         f"client round trip, n={len(acks)}"),
        ("ack_p99_ms", out.metrics["latency_tail_ms"], "ms",
         f"n={len(acks)}, {len(acks) - int(0.99 * len(acks))} beyond"),
        ("recovery_s", recovery, "s",
         f"restart spawn to first ack, median of {len(recoveries)}"),
        ("peak_rss_mb", hwm, "MB", "daemon VmHWM, first and last incarnation"),
        ("duplicate_ack_p50_ms", 1e3 * median(dup_acks), "ms",
         f"resent pre-kill lines, n={len(dup_acks)}"),
        ("store_disk_bytes", disk_bytes, "bytes", "after the drain"),
    ]
    return out
