"""Unit tests for the event queue ordering semantics."""

import math
import random

import pytest

from repro.errors import SimulationError
from repro.sim import Event, EventKind, EventQueue


class TestOrdering:
    def test_time_order(self):
        q = EventQueue()
        q.push(Event(2.0, EventKind.RELEASE, "b"))
        q.push(Event(1.0, EventKind.RELEASE, "a"))
        assert q.pop().payload == "a"
        assert q.pop().payload == "b"

    def test_kind_priority_at_same_time(self):
        """COMPLETION < DEADLINE < RELEASE < ALARM < TIMER < END."""
        q = EventQueue()
        for kind in (
            EventKind.END,
            EventKind.ALARM,
            EventKind.RELEASE,
            EventKind.COMPLETION,
            EventKind.TIMER,
            EventKind.DEADLINE,
        ):
            q.push(Event(5.0, kind))
        kinds = [q.pop().kind for _ in range(6)]
        assert kinds == sorted(kinds, key=int)
        assert kinds[0] is EventKind.COMPLETION
        assert kinds[-1] is EventKind.END

    def test_fifo_within_same_time_and_kind(self):
        q = EventQueue()
        q.push(Event(1.0, EventKind.RELEASE, "first"))
        q.push(Event(1.0, EventKind.RELEASE, "second"))
        assert q.pop().payload == "first"
        assert q.pop().payload == "second"

    def test_completion_beats_deadline_tie(self):
        """A job finishing exactly at its deadline must succeed."""
        q = EventQueue()
        q.push(Event(3.0, EventKind.DEADLINE, "dl"))
        q.push(Event(3.0, EventKind.COMPLETION, "done"))
        assert q.pop().kind is EventKind.COMPLETION


class TestQueueMechanics:
    def test_len(self):
        q = EventQueue()
        assert len(q) == 0
        q.push(Event(1.0, EventKind.RELEASE))
        assert len(q) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(Event(4.0, EventKind.RELEASE))
        q.push(Event(2.0, EventKind.RELEASE))
        assert q.peek_time() == 2.0

    def test_nan_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().push(Event(math.nan, EventKind.RELEASE))


def _random_events(rng, n, span=100.0):
    kinds = list(EventKind)
    return [
        Event(
            # Quantized times force plenty of exact ties across kinds/seqs.
            round(rng.uniform(0.0, span), 1),
            rng.choice(kinds),
            payload=i,
        )
        for i in range(n)
    ]


def _sorted_payloads(events):
    """Reference pop order: by (time, kind, push index)."""
    order = sorted(
        range(len(events)),
        key=lambda i: (events[i].time, int(events[i].kind), i),
    )
    return [events[i].payload for i in order]


class TestTieHeavyOrder:
    """Randomized push/pop sequences with many exact ties."""

    @pytest.mark.parametrize("quantum", [0.3, 1.0, 7.5, 250.0])
    def test_drain_order_is_sorted_key(self, quantum):
        """Times snapped to multiples of ``quantum``: the coarser the grid,
        the larger the exact-tie groups (250 puts nearly all at t=0)."""
        rng = random.Random(11)
        kinds = list(EventKind)
        events = [
            Event(
                round(rng.uniform(0.0, 100.0) / quantum) * quantum,
                rng.choice(kinds),
                payload=i,
            )
            for i in range(400)
        ]
        q = EventQueue()
        for ev in events:
            q.push(ev)
        assert [q.pop().payload for _ in range(len(events))] == (
            _sorted_payloads(events)
        )
        assert len(q) == 0

    def test_interleaved_push_pop(self):
        """Pushes land at or after the current head (same-timestamp
        groups included); every pop is the least pending key."""
        rng = random.Random(23)
        q = EventQueue()
        pending = []  # (time, kind, seq, payload) reference model
        last = 0.0
        for step in range(600):
            if rng.random() < 0.6 or not len(q):
                t = round(last + rng.uniform(0.0, 5.0), 1)
                kind = rng.choice(list(EventKind))
                q.push(Event(t, kind, payload=step))
                pending.append((t, int(kind), step, step))
            else:
                pending.sort()
                want = pending.pop(0)
                got = q.pop()
                assert got.payload == want[3]
                last = got.time
        pending.sort()
        assert [q.pop().payload for _ in range(len(q))] == [
            p[3] for p in pending
        ]

    def test_push_many_matches_sequential(self):
        events = _random_events(random.Random(5), 100)
        bulk = EventQueue()
        seq = EventQueue()
        bulk.push_many(events)
        for ev in events:
            seq.push(ev)
        assert [bulk.pop() for _ in range(100)] == [
            seq.pop() for _ in range(100)
        ]

    def test_compact_mid_stream_keeps_pop_order(self):
        dead = set()
        rng = random.Random(31)
        events = _random_events(rng, 200)
        q = EventQueue(lambda ev: ev.payload in dead)
        for ev in events:
            q.push(ev)
        for _ in range(20):
            q.pop()
        survivors = _sorted_payloads(events)[20:]
        dead.update(rng.sample(survivors, 80))
        assert q.compact() == 80
        assert len(q) == 100
        assert [q.pop().payload for _ in range(100)] == [
            p for p in survivors if p not in dead
        ]

    def test_dump_load_round_trip(self):
        events = _random_events(random.Random(43), 60)
        q = EventQueue()
        for ev in events:
            q.push(ev)
        dumped = q.dump()
        assert dumped == sorted(dumped)
        clone = EventQueue()
        clone.load(dumped, q.next_seq, q.stale_hint)
        # Post-restore pushes must get the continuing sequence numbers.
        tie = Event(dumped[0][0], dumped[0][3].kind, payload="late")
        q.push(tie)
        clone.push(tie)
        while len(q):
            assert q.pop() == clone.pop()
        assert len(clone) == 0

    def test_push_many_rejects_nan(self):
        with pytest.raises(SimulationError):
            EventQueue().push_many([Event(math.nan, EventKind.TIMER, "x")])
