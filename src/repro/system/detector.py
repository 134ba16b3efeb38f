"""Periodic deadlock detection over the global wait-for graph.

The paper lists "deadlock detection time and cost" among the system
parameters (Section 1): detection does not come for free, and 2PL pays for
it.  The detector actor wakes up every ``deadlock_detection_period`` time
units, collects the wait-for edges from every queue manager, charges the
configured per-site message overhead to the network counters, resolves any
cycles with :class:`~repro.core.deadlock.DeadlockDetector`, and notifies each
victim's request issuer with an ``abort_victim`` message.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import SimulationError
from repro.common.ids import SiteId, TransactionId
from repro.common.protocol_names import Protocol
from repro.core.deadlock import DeadlockDetector
from repro.core.queue_manager import QueueManager
from repro.sim.actor import Actor, Message
from repro.sim.network import Network
from repro.sim.simulator import Simulator
from repro.system.coordinator import RequestIssuerActor, request_issuer_name

DETECTOR_NAME = "deadlock-detector"


class DeadlockDetectorActor(Actor):
    """Global (periodically invoked) deadlock detector."""

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        queue_managers: Sequence[QueueManager],
        issuers: Dict[SiteId, RequestIssuerActor],
        protocol_registry: Dict[TransactionId, Protocol],
        *,
        period: float = 0.5,
        message_cost_per_site: int = 2,
        keep_running: Optional[Callable[[], bool]] = None,
        home_site: SiteId = 0,
    ) -> None:
        super().__init__(name=DETECTOR_NAME, site=home_site)
        self._simulator = simulator
        self._network = network
        self._queue_managers = list(queue_managers)
        self._issuers = dict(issuers)
        self._protocol_registry = protocol_registry
        self._period = period
        self._message_cost_per_site = message_cost_per_site
        self._keep_running = keep_running or (lambda: True)
        self._detector = DeadlockDetector(lock_count_of=self._lock_count_of)
        self._scans = 0
        self._deadlocks_found = 0
        self._victims: List[TransactionId] = []

    # ---------------------------------------------------------------- #
    # Introspection
    # ---------------------------------------------------------------- #

    @property
    def scans(self) -> int:
        """Number of wait-for-graph scans performed."""
        return self._scans

    @property
    def deadlocks_found(self) -> int:
        """Number of true deadlock cycles resolved."""
        return self._deadlocks_found

    @property
    def victims(self) -> Tuple[TransactionId, ...]:
        """Every victim aborted so far, in abort order."""
        return tuple(self._victims)

    # ---------------------------------------------------------------- #
    # Scheduling
    # ---------------------------------------------------------------- #

    def start(self) -> None:
        """Schedule the first scan."""
        self._simulator.schedule(self._period, self._scan, label="deadlock-scan")

    def handle(self, message: Message) -> None:  # pragma: no cover - no inbound messages
        """The detector receives no messages; scans are self-scheduled."""
        raise NotImplementedError("the deadlock detector receives no messages")

    def _scan(self) -> None:
        self._scans += 1
        if self._message_cost_per_site:
            self._network.charge_overhead_messages(
                "deadlock-probe", self._message_cost_per_site * len(self._issuers)
            )
        # Queue managers write their wait edges straight into one shared
        # packed-key adjacency (see QueueManager.collect_wait_edges) instead
        # of materialising per-edge tuples for the detector to re-ingest.
        adjacency: Dict[int, set] = {}
        transaction_of: Dict[int, TransactionId] = {}
        for manager in self._queue_managers:
            manager.collect_wait_edges(adjacency, transaction_of)
        blocked = any(adjacency.values())
        if blocked:
            resolution = self._detector.resolve_packed(
                adjacency, transaction_of, self._protocol_registry
            )
            if resolution.deadlock_found:
                self._deadlocks_found += len(resolution.cycles)
                for victim in resolution.victims:
                    self._victims.append(victim)
                    self._network.send(
                        self,
                        request_issuer_name(victim.site),
                        "abort_victim",
                        victim,
                    )
        if self._keep_running():
            if blocked and not self._simulator.pending_events:
                raise self._stalled(adjacency, transaction_of)
            self._simulator.schedule(self._period, self._scan, label="deadlock-scan")

    def _stalled(
        self, adjacency: Dict[int, set], transaction_of: Dict[int, TransactionId]
    ) -> SimulationError:
        """Blocked transactions, no victim, and nothing scheduled but the next scan.

        No timer, fault or delivery is pending, so no lock can ever be
        released: rescanning would spin until the event cap.
        """
        waiting = [str(transaction_of[key]) for key in sorted(adjacency) if adjacency[key]]
        roots = [str(transaction_of[key]) for key in sorted(adjacency) if not adjacency[key]]
        shown = ", ".join(waiting[:8]) + (", ..." if len(waiting) > 8 else "")
        return SimulationError(
            f"stalled at t={self._simulator.now:g}: {len(waiting)} blocked transactions "
            f"({shown}) in no resolvable deadlock cycle and no event pending; "
            f"holders that wait for nothing: {', '.join(roots) or 'none (phantom cycle)'}"
        )

    def _lock_count_of(self, tid: TransactionId) -> int:
        issuer = self._issuers.get(tid.site)
        if issuer is None:
            return 0
        return issuer.granted_lock_count(tid)
