"""Normality waits in the wait-for graph (Section 4.2 rule 4).

A T/O transaction that finished while one of its locks was still pre-scheduled
downgrades its locks and may release none of them until that lock turns
normal.  The wait has no queue entry, so the queue manager reports it from the
lock table: ``holder -> every holder of an earlier conflicting lock``.
"""

import pytest

from repro.common.ids import CopyId, TransactionId
from repro.common.protocol_names import Protocol
from repro.core.deadlock import DeadlockDetector
from repro.core.queue_manager import QueueManager
from repro.storage.log import ExecutionLog

from tests.conftest import make_request

READER = TransactionId(3, 41)    # T/O, still requesting elsewhere
FINISHED = TransactionId(3, 42)  # T/O, finished, awaiting normality
LOCKER = TransactionId(1, 39)    # 2PL

PROTOCOLS = {
    READER: Protocol.TIMESTAMP_ORDERING,
    FINISHED: Protocol.TIMESTAMP_ORDERING,
    LOCKER: Protocol.TWO_PHASE_LOCKING,
}


def request(tid, op, item, timestamp=1.0):
    return make_request(
        tid=tid, protocol=PROTOCOLS[tid], op=op, item=item, timestamp=timestamp, index=item
    )


def semilock_cycle(downgraded=True):
    """The three-transaction wedge on two copies, ``(first, second)``.

    On ``first`` READER holds an SRL, FINISHED a WL pre-scheduled behind it,
    and LOCKER's read waits for that WL.  On ``second`` LOCKER holds a WL that
    READER's write waits for.  Once FINISHED downgrades, it waits for READER,
    closing ``LOCKER -> FINISHED -> READER -> LOCKER``.
    """
    log = ExecutionLog()
    first = QueueManager(CopyId(0, 0), log)
    second = QueueManager(CopyId(1, 0), log)
    first.submit(request(READER, "r", 0, timestamp=1.0), now=1.0)
    first.submit(request(FINISHED, "w", 0, timestamp=2.0), now=2.0)
    second.submit(request(LOCKER, "w", 1), now=2.0)
    second.submit(request(READER, "w", 1, timestamp=1.0), now=3.0)
    first.submit(request(LOCKER, "r", 0), now=3.0)
    if downgraded:
        first.downgrade(FINISHED, now=4.0)
    return first, second


def edges(*managers):
    return [edge for manager in managers for edge in manager.wait_edges()]


class TestNormalityWaitEdges:
    def test_downgraded_pre_scheduled_lock_waits_for_the_earlier_holder(self):
        first, second = semilock_cycle()
        assert (FINISHED, READER) in first.wait_edges()
        assert set(edges(first, second)) == {
            (LOCKER, FINISHED), (FINISHED, READER), (READER, LOCKER),
        }

    def test_the_cycle_is_resolved_by_aborting_the_2pl_member(self):
        resolution = DeadlockDetector().resolve(edges(*semilock_cycle()), PROTOCOLS)
        assert resolution.victims == [LOCKER]
        assert not resolution.phantom_cycles

    def test_pre_scheduled_lock_not_yet_downgraded_waits_for_nobody(self):
        # FINISHED is still executing: it will downgrade or release by itself.
        first, second = semilock_cycle(downgraded=False)
        assert set(edges(first, second)) == {(LOCKER, FINISHED), (READER, LOCKER)}

    def test_downgraded_normal_lock_waits_for_nobody(self):
        manager = QueueManager(CopyId(2, 0), ExecutionLog())
        manager.submit(request(FINISHED, "w", 2, timestamp=2.0), now=1.0)
        manager.submit(request(LOCKER, "r", 2), now=2.0)
        manager.downgrade(FINISHED, now=3.0)
        assert manager.wait_edges() == [(LOCKER, FINISHED)]

    @pytest.mark.parametrize(
        "action",
        [
            lambda first: first.release(READER, now=5.0),    # promotion to normal
            lambda first: first.abort(READER, now=5.0),      # promotion to normal
            lambda first: first.release(FINISHED, now=5.0),
            lambda first: first.abort(FINISHED, now=5.0),
            lambda first: first.crash(now=5.0),
        ],
        ids=["earlier-released", "earlier-aborted", "released", "aborted", "crashed"],
    )
    def test_edge_is_gone_once_the_wait_is_over(self, action):
        first, _second = semilock_cycle()
        action(first)
        assert (FINISHED, READER) not in first.wait_edges()
        assert not first._locks.awaiting_normal()

    def test_two_phase_commit_release_defers_the_lock_and_keeps_the_edge(self):
        first, _second = semilock_cycle(downgraded=False)
        first.release_prepared(FINISHED, now=4.0)
        assert (FINISHED, READER) in first.wait_edges()
        first.release(READER, now=5.0)   # turns normal: auto-released with it
        assert not first._locks.awaiting_normal()
        assert first.wait_edges() == []
