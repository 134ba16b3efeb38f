"""The partitioned engine: the full simulator as per-site logical processes.

:class:`PartitionedSimulator` is the drop-in event loop behind
``SystemConfig.engine = "parallel"``.  It partitions the run's events into
one :class:`~repro.sim.events.EventQueue` per site plus a **control** queue
(the fault injector, the deadlock-scan chain and checkpointing — machinery
that is centralised in this codebase), and advances the partitions in
conservative windows of width ``lookahead`` (the minimum cross-site message
latency, :func:`~repro.sim.parallel.lookahead.derive_lookahead`).

Two invariants are enforced on every event, not assumed:

* **The lookahead promise.**  Whenever an event running on site LP ``A``
  schedules an event on a different site LP ``B``, the delivery must lie at
  least ``lookahead`` in the future.  This is the Chandy-Misra output
  guarantee; the network's latency model satisfies it by construction
  (remote latency ``>= fixed_delay``, FIFO nudges only push deliveries
  later, delay spikes multiply by ``>= 1``) and the engine raises
  :class:`~repro.common.errors.SimulationError` if any code path ever
  undercuts it.
* **Window containment.**  Events fire inside the current window
  ``[floor, floor + lookahead)`` (or exactly at the floor instant when the
  lookahead is zero and the engine runs barrier windows).

Within a window the safe events of all partitions are merged by the global
``(time, priority, seq)`` order — the per-site queues share one sequence
counter — which under the two invariants is *exactly* the serial engine's
order.  That is the determinism contract (docs/determinism.md): a parallel
run produces byte-identical summaries to a serial run, and the identity
tests pin it on every registered scenario.

The engine runs the partitions inside one process: the actors share the
execution log, the metrics collector and the value store, so distributing
them needs the live-mode transport split (ROADMAP item 3), not just this
scheduler.  What the engine delivers today is the partitioned decomposition
itself — per-site queues, enforced lookahead discipline, and per-window
concurrency accounting (``engine_stats()["mean_active_lps"]``) that
measures how much parallelism the partition exposes; the multiprocessing
backend of :mod:`repro.sim.parallel.scheduler` exploits the same windows
across real processes for partition-local workloads
(``benchmarks/bench_parallel_engine.py``).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.sim.events import Event, EventQueue
from repro.sim.parallel.lookahead import LookaheadPolicy
from repro.sim.simulator import Simulator

#: Slack for float comparisons of the lookahead promise: a remote delivery
#: lands at ``now + fixed_delay`` *exactly* when the exponential part draws
#: zero, and the FIFO nudge adds multiples of 1e-12.
_PROMISE_SLACK = 1e-9


class PartitionedSimulator(Simulator):
    """Site-partitioned event loop with conservative-window accounting."""

    #: Optional push interceptor installed by the process backend
    #: (:mod:`repro.sim.parallel.process`): inside a worker or the parent of
    #: a multi-process run, scheduling is routed through the runtime instead
    #: of the in-process partition queues.
    _router = None

    def __init__(
        self,
        num_sites: int,
        lookahead: float,
        start_time: float = 0.0,
    ) -> None:
        if num_sites < 1:
            raise SimulationError("a partitioned run needs at least one site")
        super().__init__(start_time)
        self._num_sites = num_sites
        self._policy = LookaheadPolicy.of(lookahead)
        self._lookahead = max(0.0, lookahead)
        # One queue per site LP plus the control LP, all sharing one sequence
        # counter so ties across partitions break exactly like the single
        # serial queue.
        shared_counter = itertools.count()
        self._partitions: List[EventQueue] = [
            EventQueue(counter=shared_counter) for _ in range(num_sites + 1)
        ]
        self._control = num_sites
        self._executing_lp: Optional[int] = None
        # Window accounting.
        self._window_floor: Optional[float] = None
        self._window_end: float = float("-inf")
        self._windows = 0
        self._barrier_windows = 0
        self._window_active: int = 0
        self._active_lp_sum = 0
        self._events_per_lp = [0] * (num_sites + 1)
        self._promise_checks = 0

    # ------------------------------------------------------------------ #
    # Routing and the lookahead promise
    # ------------------------------------------------------------------ #

    def _partition_of(self, site: Optional[int]) -> int:
        """Queue index of an event attributed to ``site`` (None = control)."""
        if site is None or not 0 <= site < self._num_sites:
            return self._control
        return site

    def _push(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int,
        label: str,
        site: Optional[int],
    ) -> Event:
        router = self._router
        if router is not None:
            return router.route_push(time, callback, priority, label, site)
        target = self._partition_of(site)
        source = self._executing_lp
        if (
            source is not None
            and source != self._control
            and target != self._control
            and target != source
        ):
            # A site LP is scheduling onto another site LP: this is exactly a
            # cross-site message, and it must honour the lookahead promise.
            self._promise_checks += 1
            if time + _PROMISE_SLACK < self._now + self._lookahead:
                raise SimulationError(
                    f"lookahead violation: site {source} scheduled {label!r} on "
                    f"site {target} at {time}, inside the promise window "
                    f"[{self._now}, {self._now + self._lookahead})"
                )
        return self._partitions[target].push(time, callback, priority=priority, label=label)

    # ------------------------------------------------------------------ #
    # Event selection: global (time, priority, seq) merge across partitions
    # ------------------------------------------------------------------ #

    def _peek_best(self) -> Optional[int]:
        """Index of the partition holding the globally next event."""
        best_index: Optional[int] = None
        best_key: Optional[Tuple[float, int, int]] = None
        for index, queue in enumerate(self._partitions):
            event = queue.peek()
            if event is None:
                continue
            key = (event.time, event.priority, event.seq)
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        return best_index

    def _next_time(self) -> Optional[float]:
        index = self._peek_best()
        if index is None:
            return None
        event = self._partitions[index].peek()
        assert event is not None
        return event.time

    def _pop_next(self) -> Event:
        index = self._peek_best()
        if index is None:
            raise SimulationError("pop from an empty partitioned event list")
        event = self._partitions[index].pop()
        self._account(event, index)
        self._executing_lp = index
        original = event.callback
        # Wrap the callback so the executing-LP marker clears even when the
        # handler raises; the marker is what the promise check keys on.
        def _run_and_clear() -> None:
            try:
                original()
            finally:
                self._executing_lp = None

        event.callback = _run_and_clear
        return event

    @property
    def pending_events(self) -> int:
        """Live events across every partition (O(partitions))."""
        return sum(len(queue) for queue in self._partitions)

    # ------------------------------------------------------------------ #
    # Conservative windows
    # ------------------------------------------------------------------ #

    def _account(self, event: Event, lp: int) -> None:
        """Window bookkeeping plus the containment assertion for one event."""
        time = event.time
        if self._window_floor is None or (
            time > self._window_floor if self._policy.barrier else time >= self._window_end
        ):
            # Close the previous window and open the next at this event.
            if self._window_floor is not None:
                self._active_lp_sum += bin(self._window_active).count("1")
            self._window_floor = time
            self._window_end = self._policy.horizon(time) if not self._policy.barrier else time
            self._windows += 1
            if self._policy.barrier:
                self._barrier_windows += 1
            self._window_active = 0
        if self._policy.barrier:
            contained = time == self._window_floor
        else:
            contained = self._window_floor <= time < self._window_end
        if not contained:
            raise SimulationError(
                f"window violation: event {event.label!r} at {time} escaped the "
                f"conservative window [{self._window_floor}, {self._window_end})"
            )
        self._window_active |= 1 << lp
        self._events_per_lp[lp] += 1

    def engine_stats(self) -> Dict[str, object]:
        """Partitioning and synchronisation statistics of the run so far.

        ``mean_active_lps`` is the average number of distinct logical
        processes with at least one event per window — an upper bound on the
        speedup a distributed execution of this partition could reach, which
        is why the parallel-engine bench reports it next to the measured
        scaling.  Deliberately *not* part of ``RunResult.summary()``: the
        determinism contract requires parallel and serial summaries to be
        byte-identical, and the serial engine has no windows to report.
        """
        active_sum = self._active_lp_sum
        mean_active = 0.0
        if self._windows:
            # Fold the still-open window in so the stat covers every event.
            active_sum += bin(self._window_active).count("1")
            mean_active = active_sum / self._windows
        return {
            "engine": "parallel",
            "lookahead": self._lookahead,
            "barrier_mode": self._policy.barrier,
            # Named explicitly so zero-lookahead degradation is observable:
            # True means the conservative windows collapsed to one barrier
            # per timestamp (no cross-window concurrency was available).
            "barrier_fallback": self._policy.barrier,
            "windows": self._windows,
            "barrier_windows": self._barrier_windows,
            "events_per_lp": {
                ("control" if index == self._control else f"site{index}"): count
                for index, count in enumerate(self._events_per_lp)
                if count
            },
            "control_events": self._events_per_lp[self._control],
            "mean_active_lps": mean_active,
            "promise_checks": self._promise_checks,
        }
