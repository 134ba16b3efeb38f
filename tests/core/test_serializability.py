"""Conflict-graph oracle."""

from repro.common.ids import CopyId, TransactionId
from repro.common.operations import OperationType
from repro.common.protocol_names import Protocol
from repro.core.serializability import ConflictGraph, check_serializable
from repro.storage.log import ExecutionLog

from tests.properties.test_property_oracle_equivalence import reference_conflict_graph


T1, T2, T3 = (TransactionId(0, i) for i in range(1, 4))
X, Y = CopyId(0, 0), CopyId(1, 0)


def record(log, copy, tid, op, time, attempt=0):
    op_type = OperationType.READ if op == "r" else OperationType.WRITE
    log.record(copy, tid, op_type, Protocol.TWO_PHASE_LOCKING, time, attempt)


class TestConflictGraphConstruction:
    def test_conflicting_operations_create_edges(self):
        log = ExecutionLog()
        record(log, X, T1, "r", 1.0)
        record(log, X, T2, "w", 2.0)
        graph = ConflictGraph.from_execution_log(log)
        assert graph.has_edge(T1, T2)
        assert not graph.has_edge(T2, T1)

    def test_reads_do_not_conflict(self):
        log = ExecutionLog()
        record(log, X, T1, "r", 1.0)
        record(log, X, T2, "r", 2.0)
        graph = ConflictGraph.from_execution_log(log)
        assert graph.edge_count() == 0

    def test_same_transaction_operations_do_not_conflict(self):
        log = ExecutionLog()
        record(log, X, T1, "r", 1.0)
        record(log, X, T1, "w", 2.0)
        graph = ConflictGraph.from_execution_log(log)
        assert graph.edge_count() == 0

    def test_all_transactions_become_nodes_even_without_conflicts(self):
        log = ExecutionLog()
        record(log, X, T1, "r", 1.0)
        record(log, Y, T2, "r", 1.0)
        graph = ConflictGraph.from_execution_log(log)
        assert set(graph.nodes()) == {T1, T2}


class TestCycleDetection:
    def test_serializable_execution(self):
        log = ExecutionLog()
        record(log, X, T1, "w", 1.0)
        record(log, X, T2, "r", 2.0)
        record(log, Y, T1, "w", 1.5)
        record(log, Y, T2, "w", 2.5)
        report = check_serializable(log)
        assert report.serializable
        assert report.serialization_order.index(T1) < report.serialization_order.index(T2)
        assert report.cycle is None

    def test_non_serializable_execution_detected(self):
        log = ExecutionLog()
        record(log, X, T1, "w", 1.0)
        record(log, X, T2, "w", 2.0)     # T1 -> T2 at X
        record(log, Y, T2, "w", 1.0)
        record(log, Y, T1, "w", 2.0)     # T2 -> T1 at Y
        report = check_serializable(log)
        assert not report.serializable
        assert set(report.cycle) == {T1, T2}

    def test_three_way_cycle_detected(self):
        log = ExecutionLog()
        z = CopyId(2, 0)
        record(log, X, T1, "w", 1.0)
        record(log, X, T2, "w", 2.0)
        record(log, Y, T2, "w", 1.0)
        record(log, Y, T3, "w", 2.0)
        record(log, z, T3, "w", 1.0)
        record(log, z, T1, "w", 2.0)
        report = check_serializable(log)
        assert not report.serializable
        assert set(report.cycle) == {T1, T2, T3}

    def test_cycle_through_a_skipped_pair_is_made_of_real_conflicts(self):
        log = ExecutionLog()
        record(log, X, T1, "w", 1.0)
        record(log, X, T2, "r", 2.0)
        record(log, X, T2, "w", 3.0)
        record(log, X, T3, "w", 4.0)     # T1 -> T3 at X only through T2
        record(log, Y, T3, "w", 1.0)
        record(log, Y, T1, "r", 2.0)     # T3 -> T1 at Y
        reference = reference_conflict_graph(log)
        assert reference.has_edge(T1, T3)
        graph = ConflictGraph.from_execution_log(log)
        assert not graph.has_edge(T1, T3)
        assert len(graph) == 3 and graph.edge_count() == 3
        report = check_serializable(log)
        assert not report.serializable
        assert report.serialization_order == []
        assert report.transactions_checked == 3
        assert report.conflict_edges == 3 < reference.edge_count()
        # The all-pairs graph closes the cycle as T1 -> T3 -> T1; the reduced
        # graph has to walk it through T2, over pairs that really conflict.
        assert sorted(report.cycle) == [T1, T2, T3]
        for index, node in enumerate(report.cycle):
            successor = report.cycle[(index + 1) % len(report.cycle)]
            assert graph.has_edge(node, successor)
            assert reference.has_edge(node, successor)

    def test_empty_log_is_serializable(self):
        report = check_serializable(ExecutionLog())
        assert report.serializable
        assert report.serialization_order == []


class TestTopologicalOrder:
    def test_order_respects_all_edges(self):
        graph = ConflictGraph()
        graph.add_edge(T1, T2)
        graph.add_edge(T2, T3)
        graph.add_edge(T1, T3)
        order = graph.topological_order()
        assert order.index(T1) < order.index(T2) < order.index(T3)

    def test_order_none_for_cyclic_graph(self):
        graph = ConflictGraph()
        graph.add_edge(T1, T2)
        graph.add_edge(T2, T1)
        assert graph.topological_order() is None

    def test_deterministic_tie_breaking(self):
        graph = ConflictGraph()
        graph.add_node(T3)
        graph.add_node(T1)
        graph.add_node(T2)
        assert graph.topological_order() == [T1, T2, T3]

    def test_report_counts(self):
        log = ExecutionLog()
        record(log, X, T1, "w", 1.0)
        record(log, X, T2, "r", 2.0)
        report = check_serializable(log)
        assert report.transactions_checked == 2
        assert report.conflict_edges == 1


class TestCommittedView:
    """The committed-attempt filter behind fault-run audits."""

    def test_stale_attempt_entries_are_excluded(self):
        log = ExecutionLog()
        # T1's attempt-0 read was stranded by an abort dropped at a crashed
        # site; its attempt-1 re-read and T2's write are the real execution.
        record(log, X, T1, "r", 1.0, attempt=0)
        record(log, X, T2, "w", 2.0, attempt=0)
        record(log, X, T1, "r", 3.0, attempt=1)
        report = check_serializable(log, {T1: 1, T2: 0})
        assert report.serializable
        assert report.serialization_order == [T2, T1]
        assert report.conflict_edges == 1

    def test_stale_entry_would_otherwise_flip_the_verdict(self):
        log = ExecutionLog()
        record(log, X, T1, "r", 1.0, attempt=0)   # stale: aborted attempt
        record(log, X, T2, "w", 2.0, attempt=0)
        record(log, Y, T2, "w", 3.0, attempt=0)
        record(log, Y, T1, "w", 4.0, attempt=1)
        # Unfiltered, the stale read produces the cycle T1 -> T2 -> T1.
        assert not check_serializable(log).serializable
        assert check_serializable(log, {T1: 1, T2: 0}).serializable

    def test_uncommitted_transactions_are_excluded_entirely(self):
        log = ExecutionLog()
        record(log, X, T1, "w", 1.0)
        record(log, X, T3, "r", 2.0)
        report = check_serializable(log, {T1: 0})
        assert report.transactions_checked == 1

    def test_no_filter_audits_everything(self):
        log = ExecutionLog()
        record(log, X, T1, "r", 1.0, attempt=0)
        record(log, X, T2, "w", 2.0)
        assert check_serializable(log).transactions_checked == 2
