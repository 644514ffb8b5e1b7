"""Event types and the event queue for the discrete-event engine.

Events are totally ordered by ``(time, kind priority, sequence)``.  The kind
priority encodes the tie-breaking rules the paper's semantics require at a
shared timestamp:

1. ``COMPLETION`` before ``DEADLINE`` — a job finishing exactly at its
   deadline *succeeds* (deadlines are firm but inclusive);
2. ``DEADLINE`` before ``RELEASE`` — expired jobs leave the system before
   new arrivals are considered;
3. ``RELEASE`` before ``ALARM`` — the paper's workload sets relative
   deadlines to ``p/c̲`` so every job's zero-conservative-laxity instant
   coincides with its release; the release handler must run first, then the
   zero-laxity interrupt fires for the job if it was not scheduled.

Stale events are handled by versioning: each (job, kind) carries a version
token captured at scheduling time; bumping the token invalidates in-flight
events without an O(n) heap scan (lazy deletion, as recommended for heapq).
Lazy deletion alone lets dead entries accumulate — schedulers that churn
alarms (LLF crossing timers, Dover's zero-laxity interrupts) can grow the
heap without bound — so the queue also supports *compaction*: when the
caller has hinted that more than half the heap is dead
(:meth:`EventQueue.note_stale`), the heap is filtered through the caller's
staleness predicate and re-heapified.  Compaction preserves pop order
exactly because every entry's ``(time, kind, seq)`` key is unique.

The queue is a single binary heap (:class:`EventQueue`): O(log n) push and
pop, O(n) bulk seeding (:meth:`EventQueue.push_many`), and a sorted
:meth:`~EventQueue.dump` / :meth:`~EventQueue.load` pair for snapshots.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["EventKind", "Event", "EventQueue"]


class EventKind(enum.IntEnum):
    """Event categories; the integer value is the same-time priority."""

    COMPLETION = 0
    DEADLINE = 1
    RELEASE = 2
    ALARM = 3
    TIMER = 4
    END = 5
    #: Injected execution fault (job kill, VM revocation, scheduled crash).
    #: Lowest priority at a shared timestamp: the world transition the fault
    #: interrupts must have fully taken effect first.
    FAULT = 6


class Event:
    """A scheduled occurrence.

    ``version`` is compared against the engine's current token for the
    (job, kind) pair at pop time; mismatches are silently dropped.
    ``payload`` carries the job for job events or an arbitrary tag for
    timers.

    Hot-path note: this used to be a frozen dataclass; the kernel creates
    one per push (plus ~2 heap-tuple fields), so the ``__slots__`` plain
    class cuts both allocation size and construction time on the
    per-event path.  Value equality and hashing are preserved.
    """

    __slots__ = ("time", "kind", "payload", "version")

    def __init__(
        self,
        time: float,
        kind: EventKind,
        payload: Any = None,
        version: int = 0,
    ) -> None:
        self.time = time
        self.kind = kind
        self.payload = payload
        self.version = version

    def sort_key(self, seq: int) -> tuple:
        return (self.time, int(self.kind), seq)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (
            self.time == other.time
            and self.kind == other.kind
            and self.payload == other.payload
            and self.version == other.version
        )

    def __hash__(self) -> int:
        return hash((self.time, self.kind, self.version))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Event(time={self.time!r}, kind={self.kind!r}, "
            f"payload={self.payload!r}, version={self.version!r})"
        )


#: Heap entries are ``(time, int(kind), seq, event)`` — compared by the
#: unique (time, kind, seq) prefix, so the Event object itself is never
#: compared.
_Entry = Tuple[float, int, int, Event]


class EventQueue:
    """A priority queue of :class:`Event` with deterministic ordering.

    Ties beyond (time, kind) break by insertion sequence, which makes every
    simulation run bit-for-bit reproducible for a fixed input.

    ``stale`` is an optional predicate identifying entries that are
    *provably* dead (their version token was bumped, or their job reached a
    terminal state); it is only consulted during :meth:`compact`.
    """

    def __init__(self, stale: Callable[[Event], bool] | None = None) -> None:
        self._heap: List[_Entry] = []
        self._counter = itertools.count()
        self._stale = stale
        self._stale_hint = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, event: Event) -> None:
        if event.time != event.time:  # NaN guard
            raise SimulationError(f"event with NaN time: {event!r}")
        seq = next(self._counter)
        heapq.heappush(self._heap, (event.time, int(event.kind), seq, event))

    def push_many(self, events: Iterable[Event]) -> None:
        """Bulk push: append then re-heapify (O(n) instead of n pushes at
        O(log n) each).  Sequence numbers are assigned in iteration order,
        so the pop order is identical to pushing one by one."""
        heap = self._heap
        counter = self._counter
        for event in events:
            if event.time != event.time:  # NaN guard
                raise SimulationError(f"event with NaN time: {event!r}")
            heap.append((event.time, int(event.kind), next(counter), event))
        heapq.heapify(heap)

    def pop(self) -> Event:
        if not self._heap:
            raise SimulationError("pop from empty event queue")
        time, kind, seq, event = heapq.heappop(self._heap)
        if self._stale_hint:
            # The popped entry may itself have been one of the hinted-dead
            # ones; keep the hint an upper bound rather than letting it
            # exceed the heap size.
            self._stale_hint = min(self._stale_hint, len(self._heap))
        return event

    def peek_time(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    # -- compaction (lazy-deletion hygiene) ---------------------------------

    def note_stale(self, n: int = 1) -> int:
        """Record that ``n`` in-flight entries just became dead.

        Called by the engine whenever it bumps a version token (cancelling
        an alarm or a completion).  When the hinted dead count exceeds half
        the heap, :meth:`compact` runs automatically.  Returns the number of
        entries removed (0 when no compaction was triggered).
        """
        self._stale_hint += int(n)
        if self._stale is not None and self._stale_hint * 2 > len(self):
            return self.compact()
        return 0

    def compact(self) -> int:
        """Drop all entries the staleness predicate marks dead; re-heapify.

        Safe at any point: pop order is fully determined by the unique
        ``(time, kind, seq)`` keys, so removing dead entries and rebuilding
        the heap never changes which live event comes out next.
        """
        if self._stale is None:
            self._stale_hint = 0
            return 0
        before = len(self._heap)
        self._heap = [entry for entry in self._heap if not self._stale(entry[3])]
        heapq.heapify(self._heap)
        self._stale_hint = 0
        return before - len(self._heap)

    # -- snapshot support ---------------------------------------------------

    def dump(self) -> List[_Entry]:
        """All entries in sorted (pop) order, plus no internal state.

        Used by engine snapshots; pair with :meth:`load` and
        :attr:`next_seq` / :attr:`stale_hint` to rebuild an identical queue.
        """
        return sorted(self._heap)

    def load(
        self,
        entries: Iterable[_Entry],
        next_seq: int,
        stale_hint: int = 0,
    ) -> None:
        """Replace the queue contents (snapshot restore).

        ``next_seq`` must be the original queue's :attr:`next_seq` so that
        sequence numbers assigned after the restore match the original run
        exactly (bit-identical replay depends on it).
        """
        self._heap = list(entries)
        heapq.heapify(self._heap)
        self._counter = itertools.count(int(next_seq))
        self._stale_hint = int(stale_hint)

    @property
    def next_seq(self) -> int:
        """The sequence number the next :meth:`push` will consume."""
        # itertools.count has no peek; clone-by-arithmetic is not possible,
        # so burn-and-restore: take the value and rebuild the counter.
        value = next(self._counter)
        self._counter = itertools.count(value)
        return value

    @property
    def stale_hint(self) -> int:
        """Current hinted count of dead entries (snapshot bookkeeping)."""
        return self._stale_hint

