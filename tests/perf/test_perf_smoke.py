"""Tier-1 performance smoke (``perf_smoke`` marker).

A short indexed-vs-naive comparison that rides in the normal tier-1 flow
(well under 30 s): the O(log n) prefix-sum index must agree with the
naive linear piece-scan on a long realized Markov path and on the
periodic sinusoidal segment cache, must actually beat the scan on deep
queries, and an 8-replication Monte-Carlo pass (``REPRO_MC_RUNS=8``)
must stay value-conserving end to end on the indexed hot path.  It also
holds the Figure-1 pins and checks that the service telemetry plane
never changes a decision.  Timings are perfbench's job
(``perfbench/run.py``); nothing here writes a benchmark artifact.

Deselect with ``-m "not perf_smoke"`` when iterating on unrelated code.
"""

from __future__ import annotations

import time

import pytest

from repro.capacity import (
    SinusoidalCapacity,
    TwoStateMarkovCapacity,
    crosscheck_index,
    naive_advance,
    naive_integrate,
)
from repro.core import EDFScheduler, VDoverScheduler
from repro.experiments import (
    MonteCarloRunner,
    PaperInstanceFactory,
    SchedulerSpec,
    default_mc_runs,
)
from repro.workload import PoissonWorkload

pytestmark = pytest.mark.perf_smoke

@pytest.fixture(scope="module")
def long_markov_path():
    """A ~4k-segment realized path (materialized once for the module)."""
    cap = TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=0.5, rng=42)
    cap.integrate(0.0, 2000.0)  # force materialization
    assert len(cap.breakpoints_materialized) >= 2000
    return cap


class TestIndexedVsNaiveAgreement:
    def test_markov_long_path(self, long_markov_path):
        cap = long_markov_path
        cap.check_index_invariants()
        assert crosscheck_index(cap, 0.0, 1800.0, n_queries=48) == 48

    def test_sinusoidal_segment_cache(self):
        cap = SinusoidalCapacity(1.0, 5.0, period=7.3, phase=0.4)
        assert crosscheck_index(cap, 0.0, 150.0, n_queries=48) == 48


class TestIndexedBeatsNaive:
    def test_deep_advance_is_faster(self, long_markov_path):
        """Deep queries across the whole path: the bisect must clearly beat
        the linear rescan (conservative 3x bar; measured ~100-400x)."""
        cap = long_markov_path
        total = cap.integrate(0.0, 1800.0)
        works = [total * f for f in (0.3, 0.6, 0.9)] * 10

        t0 = time.perf_counter()
        fast = [cap.advance(0.0, w, horizon=2000.0) for w in works]
        t_fast = time.perf_counter() - t0

        t0 = time.perf_counter()
        slow = [naive_advance(cap, 0.0, w, horizon=2000.0) for w in works]
        t_slow = time.perf_counter() - t0

        # Same landing piece, same prefix sums; the naive reference's
        # *sequential* subtraction can differ from the index's one-shot
        # `target − W[i]` by rounding order (≤ ~1 ulp).
        for f, s in zip(fast, slow):
            assert f == pytest.approx(s, rel=1e-12)
        assert t_slow > 3.0 * t_fast, (
            f"indexed advance not faster: {t_fast:.4f}s vs naive {t_slow:.4f}s"
        )

    def test_deep_integrate_is_faster(self, long_markov_path):
        cap = long_markov_path
        spans = [(float(a), 1800.0 - float(a)) for a in range(0, 300, 10)]

        t0 = time.perf_counter()
        fast = [cap.integrate(a, b) for a, b in spans]
        t_fast = time.perf_counter() - t0

        t0 = time.perf_counter()
        slow = [naive_integrate(cap, a, b) for a, b in spans]
        t_slow = time.perf_counter() - t0

        for f, s in zip(fast, slow):
            assert f == pytest.approx(s, rel=1e-9)
        assert t_slow > 3.0 * t_fast, (
            f"indexed integrate not faster: {t_fast:.4f}s vs naive {t_slow:.4f}s"
        )


class TestMonteCarloSmoke:
    def test_eight_replications_value_conserving(self, monkeypatch):
        """REPRO_MC_RUNS=8 end-to-end pass on the indexed hot path."""
        monkeypatch.setenv("REPRO_MC_RUNS", "8")
        runs = default_mc_runs(3)
        assert runs == 8
        factory = PaperInstanceFactory(
            workload=PoissonWorkload(lam=6.0, horizon=20.0),
            sojourn=5.0,
        )
        specs = [
            SchedulerSpec("EDF", EDFScheduler),
            SchedulerSpec("V-Dover", VDoverScheduler, {"k": 7.0}),
        ]
        outcomes = MonteCarloRunner(factory, specs).run(runs, seed=1, workers=1)
        assert len(outcomes) == 8
        for out in outcomes:
            for name in ("EDF", "V-Dover"):
                # No scheduler can accrue more than the generated value.
                assert 0.0 <= out.values[name] <= out.generated_value + 1e-9
                assert 0 <= out.completed[name] <= out.n_jobs
        # Across a small ensemble someone must complete something.
        assert sum(o.completed["EDF"] for o in outcomes) > 0


class TestFigure1Pins:
    """The Figure-1 instance through EDF and V-Dover on the columnar
    kernel: the values are bit-identical to the seed pins."""

    # Seed pins (Figure-1 instance, PoissonWorkload(lam=6, horizon=2000/6)
    # seed 7 x TwoStateMarkovCapacity(1, 35, sojourn=horizon/4, rng=3)).
    EDF_VALUE = 5007.37367023652
    VDOVER_VALUE = 5391.145120371147

    def test_edf_and_vdover_values_bit_identical(self):
        from repro.sim import SimulationEngine

        horizon = 2000.0 / 6.0
        jobs = PoissonWorkload(lam=6.0, horizon=horizon).generate(7)

        def value(scheduler):
            cap = TwoStateMarkovCapacity(
                1.0, 35.0, mean_sojourn=horizon / 4, rng=3
            )
            return SimulationEngine(jobs, cap, scheduler).run().value

        assert value(EDFScheduler()) == self.EDF_VALUE
        assert value(VDoverScheduler(k=7.0)) == self.VDOVER_VALUE


class TestTelemetryObservesOnly:
    """The same deterministic rid'd wire stream (submits, advances, a few
    injected kills, queue-budget sheds) through a store-less
    ``TenantShard`` with the SLO tracker enabled and disabled: the two
    runs are bit-identical on every decision-plane fact — telemetry
    observes, it never steers.  (The zero-overhead gate for the disabled
    path is benchmarks/test_obs_overhead.py.)"""

    def _messages(self, n_submits=600, advance_every=10):
        """One deterministic tenant timeline, rebuilt per run (handle()
        takes ownership of the Job objects) — same seed, same stream."""
        import random

        from repro.service import Advance, InjectFault, Submit
        from repro.sim import Job

        rng = random.Random(2011)
        msgs = []
        t = 0.0
        for i in range(n_submits):
            t += rng.expovariate(4.0)
            workload = rng.uniform(0.2, 1.2)
            msgs.append(
                Submit(
                    "t0",
                    Job(
                        jid=i,
                        release=t,
                        workload=workload,
                        deadline=t + workload + rng.uniform(0.5, 6.0),
                        value=rng.uniform(1.0, 10.0),
                    ),
                    rid=f"bench-{i}",
                )
            )
            if i % 97 == 41:
                msgs.append(
                    InjectFault("t0", "kill", time=t + 0.1, rid=f"kill-{i}")
                )
            if i % advance_every == advance_every - 1:
                msgs.append(Advance("t0", t))
        return msgs

    def test_decisions_bit_identical_on_and_off(self):
        from repro.service import CapacitySpec, TenantShard, TenantSpec

        def stats(telemetry):
            shard = TenantShard(
                TenantSpec(
                    tenant="t0",
                    horizon=1e9,
                    scheduler="edf",
                    capacity=CapacitySpec("constant", {"rate": 2.0}),
                    queue_budget=8,
                ),
                telemetry=telemetry,
            )
            for msg in self._messages():
                shard.handle(msg)
            out = shard.stats()
            shard.close()
            return out

        on, off = stats(True), stats(False)
        for key in (
            "submitted", "accepted", "shed", "accepted_crc", "frontier",
        ):
            assert on[key] == off[key], key
        assert on["shed"] > 0, "stream never shed — sheds not exercised"
        assert "slo" in on and "slo" not in off
        assert on["slo"]["counters"]["admitted"] == on["accepted"]
