"""Event records and the time-ordered event queue.

Cancellation invariant
----------------------
Cancellation is *lazy*: a cancelled event stays in the heap until it is
reclaimed.  Reclamation happens in three places, and only these three:

* :meth:`EventQueue.pop` discards cancelled events it encounters at the head
  while searching for the next live event;
* :meth:`EventQueue.peek_time` purges cancelled events from the head so the
  reported time is that of a live event (callers treat it as a read-only
  probe, but head purging is idempotent and never reorders live events);
* when more than half of the heap is cancelled debris, the queue compacts
  itself in one O(n) pass so heap operations stop paying ``log`` of the
  inflated size.

The queue tracks a live-event counter maintained by :meth:`push`,
:meth:`pop` and :meth:`Event.cancel`, so ``len(queue)`` and ``bool(queue)``
are O(1) instead of a scan of the heap.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.common.errors import SimulationError

#: Compaction only kicks in past this heap size; below it the debris is cheap.
_COMPACT_MIN_SIZE = 64


class Event:
    """One scheduled callback.

    Events fire in ``(time, priority, seq)`` order.  ``seq`` is a
    monotonically increasing tie-break so that two events scheduled for the
    same instant fire in scheduling order, which keeps runs deterministic.
    The record itself is not orderable: the queue heaps plain
    ``(time, priority, seq, event)`` tuples, which compare in C and — ``seq``
    being unique — never reach the event.  Events compare by identity, and
    the record is slotted: one is built per scheduled callback.
    """

    __slots__ = ("time", "priority", "seq", "callback", "label", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        label: str,
        queue: "EventQueue",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False
        self._queue: Optional["EventQueue"] = queue

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when it reaches the head."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._note_cancelled()


class EventQueue:
    """Binary-heap event list with lazy cancellation and O(1) length."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0        # non-cancelled events still in the heap
        self._cancelled = 0   # cancelled events awaiting reclamation

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = 0,
        label: str = "",
        seq: Optional[int] = None,
    ) -> Event:
        """Insert a callback to fire at ``time`` and return its event handle.

        ``seq`` is normally drawn fresh; a caller that pushes a block of
        events one at a time passes a seq it took from :meth:`reserve`.
        """
        if seq is None:
            seq = next(self._counter)
        event = Event(time, priority, seq, callback, label, self)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def reserve(self, count: int) -> int:
        """Set aside ``count`` consecutive seqs and return the first.

        The seqs are exactly those ``count`` back-to-back pushes would have
        drawn, so events later pushed with them tie-break against every
        other event as those pushes' events would have.
        """
        first = next(self._counter)
        self._counter = itertools.count(first + count)
        return first

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Cancelled events encountered at the head are reclaimed on the way.
        """
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._live -= 1
            event._queue = None
            return event
        raise SimulationError("pop from an empty event queue")

    def peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event, or ``None`` when the queue is empty."""
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
            self._cancelled -= 1
        if not self._heap:
            return None
        return self._heap[0][0]

    def clear(self) -> None:
        """Drop every pending event."""
        for entry in self._heap:
            entry[3]._queue = None
        self._heap.clear()
        self._live = 0
        self._cancelled = 0

    def _note_cancelled(self) -> None:
        """Bookkeeping hook called exactly once per cancelled in-heap event."""
        self._live -= 1
        self._cancelled += 1
        if (
            len(self._heap) >= _COMPACT_MIN_SIZE
            and self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled debris in one O(n) pass."""
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0
