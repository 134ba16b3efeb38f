"""The discrete-event simulator: clock, event loop and scheduling interface."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.common.errors import SimulationError
from repro.sim.events import Event, EventQueue

#: Callback invoked by :meth:`Simulator.add_trace_hook` on every fired event.
TraceHook = Callable[[float, str], None]


class Simulator:
    """Event-list simulator with a floating-point clock.

    The simulator never advances time on its own: time jumps from event to
    event.  Components schedule work either relative to the current clock
    (:meth:`schedule`) or at an absolute instant (:meth:`schedule_at`).
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
        self._events_processed = 0
        self._trace_hooks: List[TraceHook] = []

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired since construction."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still waiting to fire (O(1))."""
        return len(self._queue)

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} time units in the past")
        return self._queue.push(self._now + delay, callback, priority=priority, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = 0,
        label: str = "",
        seq: Optional[int] = None,
    ) -> Event:
        """Schedule ``callback`` to run at absolute simulated time ``time``.

        ``seq`` is a tie-break taken from :meth:`reserve`; by default a
        fresh one is drawn.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at {time}, which is before the current time {self._now}"
            )
        return self._queue.push(time, callback, priority=priority, label=label, seq=seq)

    def reserve(self, count: int) -> int:
        """Reserve ``count`` consecutive event seqs; returns the first."""
        return self._queue.reserve(count)

    def add_trace_hook(self, hook: TraceHook) -> None:
        """Register a hook called with ``(time, label)`` for every fired event."""
        self._trace_hooks.append(hook)

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stopped = True

    def step(self) -> bool:
        """Fire the single next event.  Returns ``False`` when no events remain."""
        if not self._queue:
            return False
        self.run(max_events=1)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached or ``stop()`` is called.

        Returns the simulated time at which the run loop exited.  This loop
        is the only place events fire: one head peek (which also purges
        cancelled events) per event, then the pop.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        queue = self._queue
        hooks = self._trace_hooks
        fired = 0
        try:
            while not self._stopped:
                next_time = queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self._now = until
                    break
                if max_events is not None and fired >= max_events:
                    break
                event = queue.pop()
                self._now = next_time
                self._events_processed += 1
                for hook in hooks:
                    hook(next_time, event.label)
                event.callback()
                fired += 1
        finally:
            self._running = False
        return self._now
