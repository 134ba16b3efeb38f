"""Lock modes, the semi-lock conflict relation, and the lock table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ProtocolError
from repro.common.ids import CopyId, RequestId, TransactionId
from repro.common.operations import OperationType
from repro.common.protocol_names import Protocol
from repro.core.locks import LockMode, LockTable, requested_lock_mode
from repro.core.queue_manager import QueueManager

from tests.conftest import make_request

COPY = CopyId(0, 0)
OPS = ("grant", "grant", "release", "downgrade", "mark_normal", "crash")


def rid(seq=1, index=0):
    return RequestId(TransactionId(0, seq), index)


class TestLockModeConflicts:
    def test_conflict_matrix_matches_paper(self):
        # Two locks conflict iff at least one is WL or SWL.
        RL, WL, SRL, SWL = LockMode.READ, LockMode.WRITE, LockMode.SEMI_READ, LockMode.SEMI_WRITE
        expected = {
            (RL, RL): False, (RL, SRL): False, (SRL, SRL): False,
            (RL, WL): True, (RL, SWL): True,
            (SRL, WL): True, (SRL, SWL): True,
            (WL, WL): True, (WL, SWL): True, (SWL, SWL): True,
        }
        for (a, b), conflict in expected.items():
            assert a.conflicts_with(b) is conflict
            assert b.conflicts_with(a) is conflict

    def test_semi_flags(self):
        assert LockMode.SEMI_READ.is_semi and LockMode.SEMI_WRITE.is_semi
        assert not LockMode.READ.is_semi and not LockMode.WRITE.is_semi

    def test_downgrade_mapping(self):
        assert LockMode.READ.downgraded() is LockMode.SEMI_READ
        assert LockMode.WRITE.downgraded() is LockMode.SEMI_WRITE
        assert LockMode.SEMI_READ.downgraded() is LockMode.SEMI_READ
        assert LockMode.SEMI_WRITE.downgraded() is LockMode.SEMI_WRITE


class TestRequestedLockMode:
    def test_writers_always_take_write_locks(self):
        for protocol in Protocol:
            assert requested_lock_mode(protocol, OperationType.WRITE) is LockMode.WRITE

    def test_2pl_and_pa_readers_take_read_locks(self):
        assert requested_lock_mode(Protocol.TWO_PHASE_LOCKING, OperationType.READ) is LockMode.READ
        mode = requested_lock_mode(Protocol.PRECEDENCE_AGREEMENT, OperationType.READ)
        assert mode is LockMode.READ

    def test_to_readers_take_semi_read_locks(self):
        assert (
            requested_lock_mode(Protocol.TIMESTAMP_ORDERING, OperationType.READ)
            is LockMode.SEMI_READ
        )


class TestLockTable:
    def test_grant_and_release(self):
        table = LockTable(COPY)
        lock = table.grant(rid(1), TransactionId(0, 1), Protocol.TWO_PHASE_LOCKING,
                           LockMode.WRITE, time=1.0, pre_scheduled=False)
        assert rid(1) in table
        assert table.get(rid(1)) is lock
        released = table.release(rid(1))
        assert released is lock
        assert rid(1) not in table

    def test_double_grant_rejected(self):
        table = LockTable(COPY)
        table.grant(rid(1), TransactionId(0, 1), Protocol.TWO_PHASE_LOCKING,
                    LockMode.READ, time=1.0, pre_scheduled=False)
        with pytest.raises(ProtocolError):
            table.grant(rid(1), TransactionId(0, 1), Protocol.TWO_PHASE_LOCKING,
                        LockMode.READ, time=2.0, pre_scheduled=False)

    def test_release_unknown_rejected(self):
        with pytest.raises(ProtocolError):
            LockTable(COPY).release(rid(9))

    def test_locks_ordered_by_grant_sequence(self):
        table = LockTable(COPY)
        table.grant(rid(2), TransactionId(0, 2), Protocol.TWO_PHASE_LOCKING,
                    LockMode.READ, time=1.0, pre_scheduled=False)
        table.grant(rid(1), TransactionId(0, 1), Protocol.TWO_PHASE_LOCKING,
                    LockMode.READ, time=2.0, pre_scheduled=False)
        assert [lock.request_id for lock in table.locks()] == [rid(2), rid(1)]

    def test_holders_distinct_in_grant_order(self):
        table = LockTable(COPY)
        table.grant(rid(1, 0), TransactionId(0, 1), Protocol.TWO_PHASE_LOCKING,
                    LockMode.READ, time=1.0, pre_scheduled=False)
        table.grant(rid(2, 0), TransactionId(0, 2), Protocol.TWO_PHASE_LOCKING,
                    LockMode.READ, time=2.0, pre_scheduled=False)
        assert table.holders() == (TransactionId(0, 1), TransactionId(0, 2))

    def test_conflicting_locks_excludes_own_transaction(self):
        table = LockTable(COPY)
        table.grant(rid(1), TransactionId(0, 1), Protocol.TWO_PHASE_LOCKING,
                    LockMode.WRITE, time=1.0, pre_scheduled=False)
        conflicts = table.conflicting_locks(LockMode.READ, excluding=TransactionId(0, 1))
        assert conflicts == ()
        conflicts = table.conflicting_locks(LockMode.READ, excluding=TransactionId(0, 2))
        assert len(conflicts) == 1

    def test_conflicting_locks_granted_before_filter(self):
        table = LockTable(COPY)
        first = table.grant(rid(1), TransactionId(0, 1), Protocol.TIMESTAMP_ORDERING,
                            LockMode.SEMI_WRITE, time=1.0, pre_scheduled=False)
        second = table.grant(rid(2), TransactionId(0, 2), Protocol.TIMESTAMP_ORDERING,
                             LockMode.SEMI_READ, time=2.0, pre_scheduled=True)
        earlier = table.conflicting_locks(
            second.mode, excluding=TransactionId(0, 2), granted_before=second.grant_seq
        )
        assert earlier == (first,)
        later = table.conflicting_locks(
            first.mode, excluding=TransactionId(0, 1), granted_before=first.grant_seq
        )
        assert later == ()

    def test_unreleased_with_modes(self):
        table = LockTable(COPY)
        table.grant(rid(1), TransactionId(0, 1), Protocol.TWO_PHASE_LOCKING,
                    LockMode.WRITE, time=1.0, pre_scheduled=False)
        table.grant(rid(2), TransactionId(0, 2), Protocol.TIMESTAMP_ORDERING,
                    LockMode.SEMI_READ, time=2.0, pre_scheduled=True)
        writes = table.unreleased_with_modes([LockMode.WRITE])
        assert len(writes) == 1
        semi = table.unreleased_with_modes([LockMode.SEMI_READ], excluding=TransactionId(0, 2))
        assert semi == ()

    def test_downgrade_changes_mode_in_place(self):
        table = LockTable(COPY)
        lock = table.grant(rid(1), TransactionId(0, 1), Protocol.TIMESTAMP_ORDERING,
                           LockMode.WRITE, time=1.0, pre_scheduled=True)
        lock.downgrade()
        assert lock.mode is LockMode.SEMI_WRITE

    def test_locks_of_transaction(self):
        table = LockTable(COPY)
        table.grant(rid(1, 0), TransactionId(0, 1), Protocol.TWO_PHASE_LOCKING,
                    LockMode.READ, time=1.0, pre_scheduled=False)
        table.grant(rid(2, 0), TransactionId(0, 2), Protocol.TWO_PHASE_LOCKING,
                    LockMode.READ, time=1.5, pre_scheduled=False)
        mine = table.locks_of(TransactionId(0, 1))
        assert len(mine) == 1
        assert mine[0].transaction == TransactionId(0, 1)


class TestGrantOrderInvariant:
    """``LockTable`` never sorts: its dicts' insertion order is grant order.

    The queue manager relies on it for ``locks()``, the grant and promotion
    tests, and the normality waits.  A model replays interleaved grants,
    releases, downgrades, promotions to normal and crash-plus-restore
    (a crash wipes the table; recovery re-grants prepared locks normal).
    """

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 30)), max_size=60))
    def test_locks_stay_in_grant_order_and_waits_in_downgrade_order(self, script):
        table = LockTable(COPY)
        downgraded = []  # model of awaiting_normal(): request ids in downgrade order
        next_seq = 1
        for op, pick in script:
            held = table.locks()
            target = held[pick % len(held)] if held else None
            if op == "grant":
                mode = (LockMode.READ, LockMode.WRITE)[pick % 2]
                table.grant(rid(next_seq), TransactionId(0, next_seq), Protocol.TIMESTAMP_ORDERING,
                            mode, time=float(next_seq), pre_scheduled=pick % 3 == 0)
                next_seq += 1
            elif op == "crash":
                restored = [lock for lock in held if pick % 2 or lock.implemented]
                table = LockTable(COPY)
                downgraded = []
                for lock in restored:
                    table.grant(lock.request_id, lock.transaction, lock.protocol, lock.mode,
                                time=lock.grant_time, pre_scheduled=False)
            elif target is None:
                continue
            elif op == "release":
                table.release(target.request_id)
                if target.request_id in downgraded:
                    downgraded.remove(target.request_id)
            elif op == "downgrade":
                table.downgrade(target)
                if not target.normal_grant_sent and target.request_id not in downgraded:
                    downgraded.append(target.request_id)
            else:  # mark_normal
                table.mark_normal(target)
                if target.request_id in downgraded:
                    downgraded.remove(target.request_id)
            seqs = [lock.grant_seq for lock in table.locks()]
            assert seqs == sorted(set(seqs))
            assert [lock.request_id for lock in table.awaiting_normal()] == downgraded
            assert table.pre_scheduled() == tuple(
                lock for lock in table.locks() if not lock.normal_grant_sent
            )

    def test_restored_locks_follow_the_crash_in_grant_order(self):
        manager = QueueManager(COPY)
        first = make_request(tid=TransactionId(0, 1), op="r")
        second = make_request(tid=TransactionId(0, 2), op="r")
        manager.submit(first, 1.0)
        manager.submit(second, 2.0)
        manager.crash(3.0)
        manager.restore_lock(second, 4.0)
        manager.restore_lock(first, 5.0)
        assert [lock.request_id for lock in manager.granted_locks()] == [
            second.request_id,
            first.request_id,
        ]
        assert [lock.grant_seq for lock in manager.granted_locks()] == [1, 2]
