"""Per-copy execution logs."""

from repro.common.ids import CopyId, TransactionId
from repro.common.operations import OperationType
from repro.common.protocol_names import Protocol
from repro.storage.log import CopyLog, ExecutionLog

from tests.properties.test_property_oracle_equivalence import (
    allpairs_conflict_edges,
    transitive_closure,
)


COPY = CopyId(0, 0)
T1 = TransactionId(0, 1)
T2 = TransactionId(0, 2)


class TestCopyLog:
    def test_append_preserves_order(self):
        log = CopyLog(COPY)
        log.append(T1, OperationType.READ, Protocol.TWO_PHASE_LOCKING, 1.0)
        log.append(T2, OperationType.WRITE, Protocol.TIMESTAMP_ORDERING, 2.0)
        entries = log.entries()
        assert [entry.transaction for entry in entries] == [T1, T2]
        assert len(log) == 2

    def test_conflict_edges_require_a_write_and_distinct_transactions(self):
        log = CopyLog(COPY)
        log.append(T1, OperationType.READ, Protocol.TWO_PHASE_LOCKING, 1.0)
        log.append(T2, OperationType.READ, Protocol.TWO_PHASE_LOCKING, 2.0)
        log.append(T2, OperationType.WRITE, Protocol.TWO_PHASE_LOCKING, 3.0)
        log.append(T1, OperationType.WRITE, Protocol.TWO_PHASE_LOCKING, 4.0)
        pairs = list(log.conflict_edges())
        assert (T1, T2) in pairs         # T1 read before T2 write
        assert (T2, T1) in pairs         # T2 write before T1 write
        assert (T2, T2) not in pairs     # same transaction never conflicts with itself

    def test_conflict_edges_read_read_never_conflicts(self):
        log = CopyLog(COPY)
        log.append(T1, OperationType.READ, Protocol.TWO_PHASE_LOCKING, 1.0)
        log.append(T2, OperationType.READ, Protocol.TWO_PHASE_LOCKING, 2.0)
        assert list(log.conflict_edges()) == []

    def test_conflict_edges_span_non_adjacent_writers(self):
        t3 = TransactionId(0, 3)
        log = CopyLog(COPY)
        log.append(T1, OperationType.WRITE, Protocol.TWO_PHASE_LOCKING, 1.0)
        log.append(T2, OperationType.WRITE, Protocol.TWO_PHASE_LOCKING, 2.0)
        log.append(t3, OperationType.WRITE, Protocol.TWO_PHASE_LOCKING, 3.0)
        # T1 -> T3 is a conflict too, but T2 wrote in between: the sweep emits
        # the chain and leaves T1 -> T3 to the path through T2.
        emitted = set(log.conflict_edges())
        reference = allpairs_conflict_edges(log)
        assert reference == {(T1, T2), (T1, t3), (T2, t3)}
        assert emitted == {(T1, T2), (T2, t3)}
        assert transitive_closure(emitted) == transitive_closure(reference)

    def test_conflict_edges_of_a_hot_copy_stay_linear(self):
        writers = [TransactionId(0, seq) for seq in range(1, 501)]
        log = CopyLog(COPY)
        for time, writer in enumerate(writers):
            log.append(writer, OperationType.WRITE, Protocol.TWO_PHASE_LOCKING, float(time))
        # 500 distinct writers conflict pairwise (124,750 pairs); the chain of
        # consecutive writers generates all of them.
        assert list(log.conflict_edges()) == list(zip(writers, writers[1:]))

    def test_conflict_edges_between_two_writes_fan_out_and_back_in(self):
        readers = [TransactionId(1, seq) for seq in range(1, 8)]
        log = CopyLog(COPY)
        log.append(T1, OperationType.WRITE, Protocol.TWO_PHASE_LOCKING, 0.0)
        for time, reader in enumerate(readers, start=1):
            log.append(reader, OperationType.READ, Protocol.TWO_PHASE_LOCKING, float(time))
            log.append(reader, OperationType.READ, Protocol.TWO_PHASE_LOCKING, time + 0.5)
        log.append(T2, OperationType.WRITE, Protocol.TWO_PHASE_LOCKING, 99.0)
        edges = set(log.conflict_edges())
        # w, r x k, w: k edges out of the first write, k into the second, and
        # the writer-to-writer edge; repeated reads add no distinct edge.
        assert edges == (
            {(T1, reader) for reader in readers}
            | {(reader, T2) for reader in readers}
            | {(T1, T2)}
        )
        assert len(edges) == 2 * len(readers) + 1

    def test_read_then_write_by_one_transaction_has_no_self_edge(self):
        t3 = TransactionId(0, 3)
        log = CopyLog(COPY)
        log.append(T1, OperationType.WRITE, Protocol.TWO_PHASE_LOCKING, 1.0)
        log.append(T2, OperationType.READ, Protocol.TWO_PHASE_LOCKING, 2.0)
        log.append(T2, OperationType.WRITE, Protocol.TWO_PHASE_LOCKING, 3.0)
        log.append(t3, OperationType.WRITE, Protocol.TWO_PHASE_LOCKING, 4.0)
        edges = list(log.conflict_edges())
        assert (T2, T2) not in edges
        # Both neighbours stay ordered around T2's upgrade.
        assert set(edges) == {(T1, T2), (T2, t3)}
        assert transitive_closure(edges) == transitive_closure(allpairs_conflict_edges(log))

    def test_conflict_edges_after_a_middle_writer_was_withdrawn(self):
        t3 = TransactionId(0, 3)
        log = CopyLog(COPY)
        log.append(T1, OperationType.WRITE, Protocol.TWO_PHASE_LOCKING, 1.0)
        log.append(T2, OperationType.WRITE, Protocol.TWO_PHASE_LOCKING, 2.0, attempt=0)
        log.append(T2, OperationType.READ, Protocol.TWO_PHASE_LOCKING, 2.5, attempt=1)
        log.append(t3, OperationType.READ, Protocol.TWO_PHASE_LOCKING, 3.0)
        assert set(log.conflict_edges()) == {(T1, T2), (T2, t3)}
        # Withdrawing attempt 0 removes the middle write: T1 is the last
        # writer again, for T2's surviving read and for T3.
        assert log.remove_transaction(T2, 0) == 1
        assert set(log.conflict_edges()) == {(T1, T2), (T1, t3)}
        assert set(log.conflict_edges()) == allpairs_conflict_edges(log)

    def test_remove_transaction(self):
        log = CopyLog(COPY)
        log.append(T1, OperationType.READ, Protocol.TIMESTAMP_ORDERING, 1.0)
        log.append(T2, OperationType.WRITE, Protocol.TIMESTAMP_ORDERING, 2.0)
        removed = log.remove_transaction(T1)
        assert removed == 1
        assert [entry.transaction for entry in log.entries()] == [T2]

    def test_remove_absent_transaction_is_noop(self):
        log = CopyLog(COPY)
        assert log.remove_transaction(T1) == 0


class TestExecutionLog:
    def test_record_creates_logs_on_demand(self):
        log = ExecutionLog()
        log.record(COPY, T1, OperationType.WRITE, Protocol.PRECEDENCE_AGREEMENT, 1.0)
        assert [entry.copy for entry in log.all_entries()] == [COPY]
        assert log.total_operations() == 1

    def test_transactions_lists_distinct_sorted(self):
        log = ExecutionLog()
        other = CopyId(1, 1)
        log.record(COPY, T2, OperationType.WRITE, Protocol.TWO_PHASE_LOCKING, 1.0)
        log.record(other, T1, OperationType.READ, Protocol.TWO_PHASE_LOCKING, 2.0)
        log.record(other, T1, OperationType.WRITE, Protocol.TWO_PHASE_LOCKING, 3.0)
        assert log.transactions() == (T1, T2)

    def test_all_entries_spans_all_copies(self):
        log = ExecutionLog()
        log.record(COPY, T1, OperationType.READ, Protocol.TWO_PHASE_LOCKING, 1.0)
        log.record(CopyId(1, 0), T2, OperationType.WRITE, Protocol.TWO_PHASE_LOCKING, 2.0)
        assert len(log.all_entries()) == 2

    def test_remove_transaction_scoped_to_copy(self):
        log = ExecutionLog()
        other = CopyId(1, 0)
        log.record(COPY, T1, OperationType.READ, Protocol.TIMESTAMP_ORDERING, 1.0)
        log.record(other, T1, OperationType.READ, Protocol.TIMESTAMP_ORDERING, 1.0)
        assert log.remove_transaction(COPY, T1) == 1
        assert log.total_operations() == 1

    def test_remove_from_unknown_copy_is_noop(self):
        log = ExecutionLog()
        assert log.remove_transaction(COPY, T1) == 0

    def test_entry_conflict_helper(self):
        log = ExecutionLog()
        first = log.record(COPY, T1, OperationType.WRITE, Protocol.TWO_PHASE_LOCKING, 1.0)
        second = log.record(COPY, T2, OperationType.READ, Protocol.TWO_PHASE_LOCKING, 2.0)
        third = log.record(CopyId(9, 0), T2, OperationType.WRITE, Protocol.TWO_PHASE_LOCKING, 3.0)
        assert first.conflicts_with(second)
        assert not first.conflicts_with(third)
