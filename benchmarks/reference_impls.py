"""Seed implementations of the hot-path data structures, kept for A/B runs.

These are the pre-optimisation versions of :class:`DataQueue`,
:class:`EventQueue` and the serializability oracle, verbatim from the seed
tree.  ``baseline.py`` monkeypatches them into the simulator to measure
before/after performance on identical workloads and to assert that the
optimised structures change *nothing* observable: same grants, rejections,
back-offs, and the same serialization witness order.

They are reference code — do not import them from ``src``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.common.errors import ProtocolError, SimulationError
from repro.common.ids import RequestId, TransactionId
from repro.core.data_queue import QueuedRequest
from repro.core.deadlock import DeadlockDetector, DeadlockResolution, WaitForGraph
from repro.core.queue_manager import QueueManager
from repro.system.coordinator import request_issuer_name as _request_issuer_name
from repro.system.detector import DeadlockDetectorActor
from repro.core.serializability import ConflictGraph, SerializabilityReport
from repro.storage.log import CopyLog, ExecutionLog


class ReferenceDataQueue:
    """Seed data queue: full re-sort per insert, linear scans everywhere."""

    def __init__(self) -> None:
        self._entries: List[QueuedRequest] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[QueuedRequest]:
        return iter(self._entries)

    def entries(self) -> Tuple[QueuedRequest, ...]:
        return tuple(self._entries)

    def insert(self, entry: QueuedRequest) -> None:
        if self.find(entry.request_id) is not None:
            raise ProtocolError(f"request {entry.request_id} is already queued")
        self._entries.append(entry)
        self._sort()

    def find(self, request_id: RequestId) -> Optional[QueuedRequest]:
        for entry in self._entries:
            if entry.request_id == request_id:
                return entry
        return None

    def entries_of(self, transaction: TransactionId) -> Tuple[QueuedRequest, ...]:
        return tuple(entry for entry in self._entries if entry.transaction == transaction)

    def remove(self, request_id: RequestId) -> QueuedRequest:
        entry = self.find(request_id)
        if entry is None:
            raise ProtocolError(f"request {request_id} is not queued")
        self._entries.remove(entry)
        return entry

    def remove_transaction(self, transaction: TransactionId) -> Tuple[QueuedRequest, ...]:
        removed = self.entries_of(transaction)
        self._entries = [entry for entry in self._entries if entry.transaction != transaction]
        return removed

    def resort(self) -> None:
        self._sort()

    def refile(self, entries) -> None:
        self._sort()

    def head(self) -> Optional[QueuedRequest]:
        for entry in self._entries:
            if not entry.granted:
                return entry
        return None

    def ungranted(self) -> Tuple[QueuedRequest, ...]:
        return tuple(entry for entry in self._entries if not entry.granted)

    def granted(self) -> Tuple[QueuedRequest, ...]:
        return tuple(entry for entry in self._entries if entry.granted)

    def entries_before(self, entry: QueuedRequest) -> Tuple[QueuedRequest, ...]:
        result = []
        for candidate in self._entries:
            if candidate is entry:
                break
            result.append(candidate)
        return tuple(result)

    def _sort(self) -> None:
        self._entries.sort(key=lambda entry: entry.precedence.sort_key())


@dataclass(order=True)
class ReferenceEvent:
    """Seed event record: the heap orders the dataclass itself."""

    time: float
    priority: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class ReferenceEventQueue:
    """Seed event queue: O(n) ``len``/``bool``, head purge only in peek."""

    def __init__(self) -> None:
        self._heap: List[ReferenceEvent] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return sum(1 for event in self._heap if not event.cancelled)

    def __bool__(self) -> bool:
        return any(not event.cancelled for event in self._heap)

    def push(
        self,
        time: float,
        callback,
        priority: int = 0,
        label: str = "",
        seq: Optional[int] = None,
    ) -> ReferenceEvent:
        event = ReferenceEvent(
            time=time,
            priority=priority,
            seq=next(self._counter) if seq is None else seq,
            callback=callback,
            label=label,
        )
        heapq.heappush(self._heap, event)
        return event

    def reserve(self, count: int) -> int:
        first = next(self._counter)
        self._counter = itertools.count(first + count)
        return first

    def pop(self) -> ReferenceEvent:
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                return event
        raise SimulationError("pop from an empty event queue")

    def peek_time(self) -> Optional[float]:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0].time

    def clear(self) -> None:
        self._heap.clear()


class ReferenceQueueManager(QueueManager):
    """Seed wait-edge collection: per-entry rescan of the queue prefix,
    duplicate edges included."""

    def wait_edges(self):
        edges = []
        for entry in self._queue.ungranted():
            if entry.is_blocked:
                continue
            waiter = entry.transaction
            for lock in self._locks.conflicting_locks(entry.mode, excluding=waiter):
                edges.append((waiter, lock.transaction))
            for earlier in self._queue.entries_before(entry):
                if earlier.granted or earlier.transaction == waiter:
                    continue
                if earlier.is_blocked:
                    continue
                edges.append((waiter, earlier.transaction))
        return edges

    def blocked_transactions(self):
        seen = []
        for entry in self._queue.ungranted():
            if not entry.is_blocked and entry.transaction not in seen:
                seen.append(entry.transaction)
        return tuple(seen)


class ReferenceDeadlockDetector(DeadlockDetector):
    """Seed resolver: rebuild the wait-for graph and re-sort per cycle hunt."""

    def resolve(self, edges, protocol_of) -> DeadlockResolution:
        graph = WaitForGraph()
        graph.add_edges(edges)
        resolution = DeadlockResolution()
        while True:
            cycle = graph.find_cycle()
            if cycle is None:
                return resolution
            victim = self._choose_victim(cycle, protocol_of)
            if victim is None:
                # Phantom (no-2PL) cycle: abort nobody and mask its nodes,
                # mirroring DeadlockDetector.resolve_packed — the A/B legs
                # must make identical decisions, only the data structures
                # differ.
                resolution.phantom_cycles.append(cycle)
                for node in cycle:
                    graph.remove_node(node)
                continue
            resolution.cycles.append(cycle)
            resolution.victims.append(victim)
            graph.remove_node(victim)


class ReferenceDeadlockDetectorActor(DeadlockDetectorActor):
    """Seed scan: materialise every wait edge as a tuple, then re-ingest."""

    def _scan(self):
        self._scans += 1
        if self._message_cost_per_site:
            self._network.charge_overhead_messages(
                "deadlock-probe", self._message_cost_per_site * len(self._issuers)
            )
        edges = []
        for manager in self._queue_managers:
            edges.extend(manager.wait_edges())
        if edges:
            resolution = self._detector.resolve(edges, self._protocol_registry)
            if resolution.deadlock_found:
                self._deadlocks_found += len(resolution.cycles)
                for victim in resolution.victims:
                    self._victims.append(victim)
                    self._network.send(
                        self,
                        _request_issuer_name(victim.site),
                        "abort_victim",
                        victim,
                    )
        if self._keep_running():
            self._simulator.schedule(self._period, self._scan, label="deadlock-scan")


def reference_conflicting_pairs(log: CopyLog):
    """Seed all-pairs conflict scan over one copy log."""
    entries = log.entries()
    for i, earlier in enumerate(entries):
        for later in entries[i + 1:]:
            if earlier.conflicts_with(later):
                yield earlier, later


def reference_conflict_graph(execution: ExecutionLog) -> ConflictGraph:
    graph = ConflictGraph()
    for transaction in execution.transactions():
        graph.add_node(transaction)
    for copy_log in execution.logs():
        for earlier, later in reference_conflicting_pairs(copy_log):
            graph.add_edge(earlier.transaction, later.transaction)
    return graph


def reference_topological_order(graph: ConflictGraph) -> Optional[List[TransactionId]]:
    """Seed Kahn's algorithm: sorted Python list as the ready set."""
    in_degree: Dict[TransactionId, int] = {node: 0 for node in graph.nodes()}
    for node in graph.nodes():
        for successor in graph.successors(node):
            in_degree[successor] += 1
    ready = sorted(node for node, degree in in_degree.items() if degree == 0)
    order: List[TransactionId] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for successor in graph.successors(node):
            in_degree[successor] -= 1
            if in_degree[successor] == 0:
                ready.append(successor)
        ready.sort()
    if len(order) != len(graph.nodes()):
        return None
    return order


def reference_check_serializable(
    log: ExecutionLog, committed_attempts=None
) -> SerializabilityReport:
    """Seed oracle: all-pairs conflict graph + list-based Kahn.

    Accepts the optional committed-attempt filter the production oracle
    grew for the fault model, applying the shared :func:`committed_view`
    (the filter is a plain projection, not part of the algorithm under A/B
    comparison; fault-free harness runs pass a mapping that filters
    nothing).
    """
    if committed_attempts is not None:
        from repro.core.serializability import committed_view

        log = committed_view(log, committed_attempts)
    graph = reference_conflict_graph(log)
    order = reference_topological_order(graph)
    if order is not None:
        return SerializabilityReport(
            serializable=True,
            serialization_order=order,
            transactions_checked=len(graph.nodes()),
            conflict_edges=graph.edge_count(),
        )
    return SerializabilityReport(
        serializable=False,
        cycle=graph.find_cycle(),
        transactions_checked=len(graph.nodes()),
        conflict_edges=graph.edge_count(),
    )
