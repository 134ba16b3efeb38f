"""Deterministic site-failure and link-degradation injection.

The fault model extends the paper's system model (which assumes perfectly
reliable sites) with the failure behaviour a *distributed* DBMS actually
faces: sites crash and recover, and inter-site links suffer transient delay
spikes.  The whole fault timeline — scheduled crashes from the
configuration plus stochastic crashes drawn from a named RNG stream — is
precomputed at construction, so

* ``site_up(site, time)`` can be answered for *any* time (the network needs
  the answer at a message's future delivery instant), and
* faulty runs are exactly as deterministic and replayable as fault-free
  ones: the timeline depends only on :class:`~repro.common.config.FaultConfig`
  and the system seed.

Crash semantics are fail-stop with volatile-state loss: while a site is
down every message addressed to one of its crashable actors is dropped, and
at the crash instant listeners (the queue managers, via the database
assembly) wipe their lock tables and data queues.  Durable state — the
commit log and the value store — survives, which is what the two-phase
commit layer's recovery protocol relies on.

Coordinator crashes are modelled on a second, fully independent timeline:
a :class:`~repro.common.config.CoordinatorCrash` kills the transaction
manager *process* at a site (the request issuer) while the data layer —
queue managers, participant, stores — keeps running.  Messages addressed
to ``coordinator_crashable`` actors are dropped during the window, the
coordinator's volatile commit bookkeeping is wiped, and on recovery the
coordinator walks its durable decision log to re-drive in-doubt work.
Stochastic coordinator crashes draw from ``fault-coordinator-crash-{site}``
streams, distinct from the site-crash streams, so enabling them never
perturbs an existing site-failure timeline.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, List, Tuple

from repro.common.config import FaultConfig
from repro.common.errors import SimulationError
from repro.sim.rng import RandomStreams
from repro.sim.simulator import Simulator

#: Listener signature for crash/recovery notifications: ``(site, now)``.
FaultListener = Callable[[int, float], None]


def _merge_intervals(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Merge overlapping/adjacent ``(start, end)`` downtime intervals."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


class FaultInjector:
    """Schedules site crash/recovery events and answers availability queries."""

    def __init__(
        self,
        simulator: Simulator,
        config: FaultConfig,
        num_sites: int,
        rng: RandomStreams,
    ) -> None:
        self._simulator = simulator
        self._config = config
        self._num_sites = num_sites
        self._crash_listeners: List[FaultListener] = []
        self._recovery_listeners: List[FaultListener] = []
        self._coordinator_crash_listeners: List[FaultListener] = []
        self._coordinator_recovery_listeners: List[FaultListener] = []
        self._crash_count = 0
        self._coordinator_crash_count = 0
        self._started = False

        # Site ranges were validated by SystemConfig when the fault config
        # was attached; the injector trusts its input.
        intervals: Dict[int, List[Tuple[float, float]]] = {
            site: [] for site in range(num_sites)
        }
        for crash in config.crashes:
            intervals[crash.site].append((crash.at, crash.at + crash.duration))
        if config.crash_rate > 0:
            mean_gap = 1.0 / config.crash_rate
            for site in range(num_sites):
                stream = f"fault-crash-{site}"
                at = rng.exponential(stream, mean_gap)
                while at < config.horizon:
                    downtime = rng.exponential(stream, config.mean_repair_time)
                    # A zero exponential draw only happens for mean 0, which
                    # the config forbids; guard anyway so merging stays sane.
                    downtime = max(downtime, 1e-9)
                    intervals[site].append((at, at + downtime))
                    at = at + downtime + rng.exponential(stream, mean_gap)
        self._downtime: Dict[int, List[Tuple[float, float]]] = {
            site: _merge_intervals(site_intervals)
            for site, site_intervals in intervals.items()
        }
        # Parallel arrays of interval starts for bisect-based queries.
        self._down_starts: Dict[int, List[float]] = {
            site: [start for start, _ in site_intervals]
            for site, site_intervals in self._downtime.items()
        }

        # The coordinator (transaction-manager) failure timeline is built the
        # same way but kept fully separate: coordinator crashes model the TM
        # *process* dying while the site's data layer stays up, and they draw
        # from their own RNG streams so adding coordinator faults never
        # perturbs a pre-existing site-crash timeline.
        coordinator_intervals: Dict[int, List[Tuple[float, float]]] = {
            site: [] for site in range(num_sites)
        }
        for crash in config.coordinator_crashes:
            coordinator_intervals[crash.site].append(
                (crash.at, crash.at + crash.duration)
            )
        if config.coordinator_crash_rate > 0:
            mean_gap = 1.0 / config.coordinator_crash_rate
            for site in range(num_sites):
                stream = f"fault-coordinator-crash-{site}"
                at = rng.exponential(stream, mean_gap)
                while at < config.horizon:
                    downtime = rng.exponential(
                        stream, config.coordinator_mean_repair_time
                    )
                    downtime = max(downtime, 1e-9)
                    coordinator_intervals[site].append((at, at + downtime))
                    at = at + downtime + rng.exponential(stream, mean_gap)
        self._coordinator_downtime: Dict[int, List[Tuple[float, float]]] = {
            site: _merge_intervals(site_intervals)
            for site, site_intervals in coordinator_intervals.items()
        }
        self._coordinator_down_starts: Dict[int, List[float]] = {
            site: [start for start, _ in site_intervals]
            for site, site_intervals in self._coordinator_downtime.items()
        }

    # ---------------------------------------------------------------- #
    # Timeline queries
    # ---------------------------------------------------------------- #

    @property
    def config(self) -> FaultConfig:
        """The fault configuration the timeline was built from."""
        return self._config

    @property
    def crash_count(self) -> int:
        """Number of crash events that have fired so far."""
        return self._crash_count

    @property
    def total_crashes_planned(self) -> int:
        """Number of downtime windows on the precomputed timeline."""
        return sum(len(site_intervals) for site_intervals in self._downtime.values())

    @property
    def coordinator_crash_count(self) -> int:
        """Number of coordinator-crash events that have fired so far."""
        return self._coordinator_crash_count

    def downtime_of(self, site: int) -> Tuple[Tuple[float, float], ...]:
        """The merged ``(start, end)`` downtime windows of ``site``."""
        return tuple(self._downtime.get(site, ()))

    def site_up(self, site: int, time: float) -> bool:
        """Whether ``site`` is up at ``time`` (sites outside the model are always up)."""
        starts = self._down_starts.get(site)
        if not starts:
            return True
        index = bisect_right(starts, time) - 1
        if index < 0:
            return True
        return time >= self._downtime[site][index][1]

    def coordinator_up(self, site: int, time: float) -> bool:
        """Whether the coordinator process at ``site`` is up at ``time``."""
        starts = self._coordinator_down_starts.get(site)
        if not starts:
            return True
        index = bisect_right(starts, time) - 1
        if index < 0:
            return True
        return time >= self._coordinator_downtime[site][index][1]

    def coordinator_recovery_time(self, site: int, time: float) -> float:
        """End of the coordinator downtime window covering ``time``.

        Returns ``time`` itself when the coordinator is up — callers can use
        the result unconditionally as "the earliest instant the coordinator
        at ``site`` can accept work at or after ``time``".
        """
        starts = self._coordinator_down_starts.get(site)
        if not starts:
            return time
        index = bisect_right(starts, time) - 1
        if index < 0:
            return time
        end = self._coordinator_downtime[site][index][1]
        return end if time < end else time

    def delay_multiplier(self, sender_site: int, receiver_site: int, time: float) -> float:
        """Latency multiplier for a remote message sent at ``time`` (1.0 when calm).

        The largest active spike matching the link wins; spikes do not
        compound (a link is as slow as its worst congestion event).
        """
        multiplier = 1.0
        for spike in self._config.spikes:
            if not spike.at <= time < spike.at + spike.duration:
                continue
            if spike.site is not None and spike.site not in (sender_site, receiver_site):
                continue
            multiplier = max(multiplier, spike.multiplier)
        return multiplier

    # ---------------------------------------------------------------- #
    # Event scheduling and listeners
    # ---------------------------------------------------------------- #

    def add_crash_listener(self, listener: FaultListener) -> None:
        """Register a callback invoked as ``listener(site, now)`` at each crash."""
        self._crash_listeners.append(listener)

    def add_recovery_listener(self, listener: FaultListener) -> None:
        """Register a callback invoked as ``listener(site, now)`` at each recovery."""
        self._recovery_listeners.append(listener)

    def add_coordinator_crash_listener(self, listener: FaultListener) -> None:
        """Register a callback invoked as ``listener(site, now)`` at each coordinator crash."""
        self._coordinator_crash_listeners.append(listener)

    def add_coordinator_recovery_listener(self, listener: FaultListener) -> None:
        """Register a callback invoked as ``listener(site, now)`` at each coordinator recovery."""
        self._coordinator_recovery_listeners.append(listener)

    def start(self) -> None:
        """Schedule every crash and recovery notification on the simulator."""
        if self._started:
            raise SimulationError("the fault injector was already started")
        self._started = True
        for site, site_intervals in self._downtime.items():
            for start, end in site_intervals:
                self._simulator.schedule_at(
                    start,
                    lambda site=site: self._fire_crash(site),
                    label=f"site-crash-{site}",
                )
                self._simulator.schedule_at(
                    end,
                    lambda site=site: self._fire_recovery(site),
                    label=f"site-recover-{site}",
                )
        for site, site_intervals in self._coordinator_downtime.items():
            for start, end in site_intervals:
                self._simulator.schedule_at(
                    start,
                    lambda site=site: self._fire_coordinator_crash(site),
                    label=f"coordinator-crash-{site}",
                )
                self._simulator.schedule_at(
                    end,
                    lambda site=site: self._fire_coordinator_recovery(site),
                    label=f"coordinator-recover-{site}",
                )

    def _fire_crash(self, site: int) -> None:
        self._crash_count += 1
        now = self._simulator.now
        for listener in self._crash_listeners:
            listener(site, now)

    def _fire_recovery(self, site: int) -> None:
        now = self._simulator.now
        for listener in self._recovery_listeners:
            listener(site, now)

    def _fire_coordinator_crash(self, site: int) -> None:
        self._coordinator_crash_count += 1
        now = self._simulator.now
        for listener in self._coordinator_crash_listeners:
            listener(site, now)

    def _fire_coordinator_recovery(self, site: int) -> None:
        now = self._simulator.now
        for listener in self._coordinator_recovery_listeners:
            listener(site, now)
