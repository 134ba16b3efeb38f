"""Conflict-serializability oracle.

Theorem 1 of the paper (Papadimitriou / Stearns-Lewis-Rosenkrantz): an
execution is serializable iff there is a total order on the transactions such
that every pair of conflicting operations is implemented in that order in
every per-copy log.  Theorem 2 claims every execution produced by the unified
algorithm is conflict serializable.  This module is the referee: it rebuilds
the conflict graph from the per-copy logs recorded by the queue managers,
checks it for cycles, and (when acyclic) produces a witness serialization
order.  Every integration test and every experiment run passes its execution
log through :func:`check_serializable`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.common.errors import SerializationViolationError
from repro.common.ids import TransactionId
from repro.storage.log import ExecutionLog


class ConflictGraph:
    """Directed graph with edge ``a -> b`` when some op of ``a`` conflicts with and
    is implemented before some op of ``b``.

    Built from :meth:`CopyLog.conflict_edges`, it holds the edges that
    *generate* each copy's conflict order, not every conflicting pair: its
    reachability — which is all Theorem 1 asks about — equals the all-pairs
    graph's, at a size linear in the log.
    """

    def __init__(self) -> None:
        self._successors: Dict[TransactionId, Set[TransactionId]] = {}

    @classmethod
    def from_execution_log(cls, log: ExecutionLog) -> "ConflictGraph":
        """Build the conflict graph of an execution from its per-copy logs."""
        graph = cls()
        for transaction in log.transactions():
            graph.add_node(transaction)
        for copy_log in log.logs():
            for earlier, later in copy_log.conflict_edges():
                graph.add_edge(earlier, later)
        return graph

    def add_node(self, node: TransactionId) -> None:
        """Ensure ``node`` exists in the graph."""
        self._successors.setdefault(node, set())

    def add_edge(self, source: TransactionId, target: TransactionId) -> None:
        """Record the conflict edge ``before -> after`` (self-edges are ignored)."""
        if source == target:
            return
        self._successors.setdefault(source, set()).add(target)
        self._successors.setdefault(target, set())

    def __len__(self) -> int:
        return len(self._successors)

    def nodes(self) -> Tuple[TransactionId, ...]:
        """All transactions in the graph."""
        return tuple(sorted(self._successors))

    def successors(self, node: TransactionId) -> Tuple[TransactionId, ...]:
        """The transactions ordered after ``node``, sorted."""
        return tuple(sorted(self._successors.get(node, ())))

    def edge_count(self) -> int:
        """Total number of conflict edges."""
        return sum(len(successors) for successors in self._successors.values())

    def has_edge(self, source: TransactionId, target: TransactionId) -> bool:
        """Whether the conflict edge ``before -> after`` is present."""
        return target in self._successors.get(source, ())

    def topological_order(self) -> Optional[List[TransactionId]]:
        """A topological order of the nodes, or ``None`` when the graph has a cycle.

        Kahn's algorithm with a min-heap ready set, so the smallest ready
        transaction id is always released next: the witness order is the
        lexicographically smallest topological order, exactly as the previous
        sorted-list implementation produced, at O((V + E) log V) instead of a
        re-sort per step.
        """
        in_degree: Dict[TransactionId, int] = {node: 0 for node in self._successors}
        for successors in self._successors.values():
            for successor in successors:
                in_degree[successor] += 1
        ready = [node for node, degree in in_degree.items() if degree == 0]
        heapq.heapify(ready)
        order: List[TransactionId] = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for successor in self._successors[node]:
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    heapq.heappush(ready, successor)
        if len(order) != len(self._successors):
            return None
        return order

    def find_cycle(self) -> Optional[Tuple[TransactionId, ...]]:
        """One cycle of transactions, or ``None`` when acyclic."""
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {node: WHITE for node in self._successors}
        parent: Dict[TransactionId, Optional[TransactionId]] = {}
        for start in sorted(self._successors):
            if colour[start] != WHITE:
                continue
            stack = [(start, iter(self.successors(start)))]
            colour[start] = GREY
            parent[start] = None
            while stack:
                node, successors = stack[-1]
                advanced = False
                for successor in successors:
                    if colour[successor] == WHITE:
                        colour[successor] = GREY
                        parent[successor] = node
                        stack.append((successor, iter(self.successors(successor))))
                        advanced = True
                        break
                    if colour[successor] == GREY:
                        cycle = [successor]
                        current: Optional[TransactionId] = node
                        while current is not None and current != successor:
                            cycle.append(current)
                            current = parent.get(current)
                        cycle.reverse()
                        return tuple(cycle)
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
        return None


@dataclass
class SerializabilityReport:
    """Result of auditing one execution.

    ``conflict_edges`` is the size of the graph the oracle actually checked.
    For the batch oracle that is the reduced graph of
    :meth:`CopyLog.conflict_edges` — distinct generating pairs, at most twice
    the audited entries — whose transitive closure equals that of the full
    conflict relation; it is a diagnostic, not part of any run summary.
    """

    serializable: bool
    serialization_order: List[TransactionId] = field(default_factory=list)
    cycle: Optional[Tuple[TransactionId, ...]] = None
    transactions_checked: int = 0
    conflict_edges: int = 0

    def raise_on_violation(self) -> None:
        """Raise :class:`SerializationViolationError` when the execution is not serializable."""
        if not self.serializable and self.cycle is not None:
            raise SerializationViolationError(self.cycle)


def committed_view(
    log: ExecutionLog, committed_attempts: Mapping[TransactionId, int]
) -> ExecutionLog:
    """The sub-log holding only committed attempts' entries.

    Aborted attempts withdraw their tentative reads through the queue
    managers' ``abort`` path — but under the fault model that abort message
    can be dropped at a crashed site, stranding entries of executions that
    never happened in the durable log.  Auditing a view restricted to each
    transaction's *committed* attempt keeps the oracle's verdict about the
    execution that actually took place.  For fault-free runs the view equals
    the full log (every stale entry was withdrawn), so the report is
    unchanged.
    """
    filtered = ExecutionLog()
    for copy_log in log.logs():
        for entry in copy_log:
            if committed_attempts.get(entry.transaction) == entry.attempt:
                filtered.record(
                    entry.copy,
                    entry.transaction,
                    entry.op_type,
                    entry.protocol,
                    entry.time,
                    entry.attempt,
                )
    return filtered


def check_serializable(
    log: ExecutionLog,
    committed_attempts: Optional[Mapping[TransactionId, int]] = None,
) -> SerializabilityReport:
    """Audit an execution log for conflict serializability (Theorem 2 oracle).

    ``committed_attempts`` (transaction -> attempt number that committed)
    restricts the audit to the committed execution via :func:`committed_view`;
    without it every log entry is audited, as direct queue-manager tests do.
    """
    if committed_attempts is not None:
        log = committed_view(log, committed_attempts)
    graph = ConflictGraph.from_execution_log(log)
    order = graph.topological_order()
    if order is not None:
        return SerializabilityReport(
            serializable=True,
            serialization_order=order,
            transactions_checked=len(graph),
            conflict_edges=graph.edge_count(),
        )
    return SerializabilityReport(
        serializable=False,
        cycle=graph.find_cycle(),
        transactions_checked=len(graph),
        conflict_edges=graph.edge_count(),
    )
