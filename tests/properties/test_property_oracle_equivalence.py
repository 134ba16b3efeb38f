"""Equivalence of the rewritten serializability oracle with the original.

The seed implementation compared every pair of log entries
(``O(n^2)`` per copy log) and ran Kahn's algorithm on a sorted Python list.
Both were replaced: the conflict edges now come from a single-pass
last-writer / readers-since-last-write sweep (:meth:`CopyLog.conflict_edges`)
that emits only the pairs *generating* each copy's conflict order, and the
ready set is a binary heap.  These tests keep the original all-pairs scan and
list-based Kahn as reference oracles and check, on randomized logs, that the
new code emits only real conflicting pairs, reaches exactly what the
all-pairs graph reaches, stays linear in the log, and produces the exact same
verdict and serialization witness order.
"""

from typing import Dict, Iterable, List, Optional, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.ids import CopyId, TransactionId
from repro.common.operations import OperationType
from repro.common.protocol_names import Protocol
from repro.core.serializability import ConflictGraph, check_serializable
from repro.storage.log import CopyLog, ExecutionLog

from tests.properties.test_property_serializability import random_executions


Edge = Tuple[TransactionId, TransactionId]


def allpairs_conflict_edges(log: CopyLog) -> Set[Edge]:
    """The seed's all-pairs scan, kept as the reference conflict oracle."""
    entries = log.entries()
    edges = set()
    for i, earlier in enumerate(entries):
        for later in entries[i + 1:]:
            if earlier.conflicts_with(later):
                edges.add((earlier.transaction, later.transaction))
    return edges


def transitive_closure(edges: Iterable[Edge]) -> Set[Edge]:
    """Every ``(a, b)`` with a non-empty path from ``a`` to ``b`` in ``edges``."""
    successors: Dict[TransactionId, Set[TransactionId]] = {}
    for source, target in edges:
        successors.setdefault(source, set()).add(target)
    closure: Set[Edge] = set()
    for start in successors:
        reached: Set[TransactionId] = set()
        frontier = list(successors[start])
        while frontier:
            node = frontier.pop()
            if node not in reached:
                reached.add(node)
                frontier.extend(successors.get(node, ()))
        closure.update((start, node) for node in reached)
    return closure


def graph_edges(graph: ConflictGraph) -> Set[Edge]:
    """The edge set of a conflict graph."""
    return {
        (node, successor) for node in graph.nodes() for successor in graph.successors(node)
    }


@st.composite
def random_copy_logs(draw):
    """One copy's log: up to 80 reads and writes by up to 16 transactions."""
    operations = draw(
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=16), st.booleans()),
            max_size=80,
        )
    )
    log = CopyLog(CopyId(0, 0))
    for time, (transaction, is_write) in enumerate(operations):
        log.append(
            TransactionId(0, transaction),
            OperationType.WRITE if is_write else OperationType.READ,
            Protocol.TWO_PHASE_LOCKING,
            float(time),
        )
    return log


def reference_conflict_graph(execution: ExecutionLog) -> ConflictGraph:
    graph = ConflictGraph()
    for transaction in execution.transactions():
        graph.add_node(transaction)
    for copy_log in execution.logs():
        for earlier, later in allpairs_conflict_edges(copy_log):
            graph.add_edge(earlier, later)
    return graph


def list_kahn_topological_order(graph: ConflictGraph) -> Optional[List[TransactionId]]:
    """The seed's sorted-list Kahn, kept as the reference witness oracle."""
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


class TestSweepMatchesAllPairsReference:
    @given(random_executions())
    @settings(max_examples=200, deadline=None)
    def test_edge_sets_identical_per_copy(self, execution):
        """Per copy: only real conflicts are emitted, and they generate all of them."""
        for copy_log in execution.logs():
            emitted = set(copy_log.conflict_edges())
            reference = allpairs_conflict_edges(copy_log)
            assert emitted <= reference
            assert transitive_closure(emitted) == transitive_closure(reference)

    @given(random_copy_logs())
    @settings(max_examples=200, deadline=None)
    def test_emitted_edges_are_linear_in_the_log(self, copy_log):
        emitted = list(copy_log.conflict_edges())
        assert len(emitted) <= 2 * len(copy_log)
        assert transitive_closure(emitted) == transitive_closure(
            allpairs_conflict_edges(copy_log)
        )

    @given(random_executions())
    @settings(max_examples=150, deadline=None)
    def test_conflict_graphs_identical(self, execution):
        """Whole graph: same nodes, a sub-graph of the reference, same reachability."""
        new_graph = ConflictGraph.from_execution_log(execution)
        old_graph = reference_conflict_graph(execution)
        assert new_graph.nodes() == old_graph.nodes()
        assert len(new_graph) == len(old_graph.nodes())
        new_edges, old_edges = graph_edges(new_graph), graph_edges(old_graph)
        assert new_edges <= old_edges
        assert transitive_closure(new_edges) == transitive_closure(old_edges)
        assert (new_graph.find_cycle() is None) == (old_graph.find_cycle() is None)

    @given(random_executions())
    @settings(max_examples=150, deadline=None)
    def test_witness_order_identical(self, execution):
        report = check_serializable(execution)
        reference = list_kahn_topological_order(reference_conflict_graph(execution))
        if reference is None:
            assert not report.serializable
        else:
            assert report.serializable
            assert report.serialization_order == reference
