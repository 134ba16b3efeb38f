"""Unified queue manager driven by 2PL requests only."""

import pytest

from repro.common.ids import CopyId, TransactionId
from repro.common.protocol_names import Protocol
from repro.core.effects import GrantIssued
from repro.core.locks import LockMode
from repro.core.queue_manager import QueueManager

from tests.conftest import make_request, wait_edges


def twopl_request(seq, op="w", ts=1.0, index=0, site=0):
    return make_request(
        site=site, seq=seq, index=index, protocol=Protocol.TWO_PHASE_LOCKING, op=op, timestamp=ts
    )


def grants(manager):
    return [effect for effect in manager.drain_effects() if isinstance(effect, GrantIssued)]


class TestBasicGranting:
    def test_first_write_is_granted_immediately(self, queue_manager):
        queue_manager.submit(twopl_request(1, "w"), now=1.0)
        issued = grants(queue_manager)
        assert len(issued) == 1
        assert issued[0].mode is LockMode.WRITE
        assert issued[0].normal is True

    def test_conflicting_write_waits_until_release(self, queue_manager):
        queue_manager.submit(twopl_request(1, "w"), now=1.0)
        queue_manager.drain_effects()
        queue_manager.submit(twopl_request(2, "w"), now=2.0)
        assert grants(queue_manager) == []
        queue_manager.release(TransactionId(0, 1), now=3.0)
        issued = grants(queue_manager)
        assert len(issued) == 1
        assert issued[0].request.transaction == TransactionId(0, 2)

    def test_readers_share_the_data_item(self, queue_manager):
        queue_manager.submit(twopl_request(1, "r"), now=1.0)
        queue_manager.submit(twopl_request(2, "r"), now=2.0)
        issued = grants(queue_manager)
        assert len(issued) == 2
        assert all(effect.mode is LockMode.READ for effect in issued)

    def test_writer_waits_for_readers(self, queue_manager):
        queue_manager.submit(twopl_request(1, "r"), now=1.0)
        queue_manager.submit(twopl_request(2, "r"), now=2.0)
        queue_manager.drain_effects()
        queue_manager.submit(twopl_request(3, "w"), now=3.0)
        assert grants(queue_manager) == []
        queue_manager.release(TransactionId(0, 1), now=4.0)
        assert grants(queue_manager) == []
        queue_manager.release(TransactionId(0, 2), now=5.0)
        issued = grants(queue_manager)
        assert len(issued) == 1
        assert issued[0].request.transaction == TransactionId(0, 3)

    def test_reader_behind_writer_waits(self, queue_manager):
        queue_manager.submit(twopl_request(1, "w"), now=1.0)
        queue_manager.drain_effects()
        queue_manager.submit(twopl_request(2, "r"), now=2.0)
        assert grants(queue_manager) == []

    def test_fcfs_order_among_2pl_requests(self, queue_manager):
        queue_manager.submit(twopl_request(1, "w"), now=1.0)
        queue_manager.submit(twopl_request(2, "w"), now=2.0)
        queue_manager.submit(twopl_request(3, "w"), now=3.0)
        queue_manager.drain_effects()
        order = []
        for holder in (1, 2, 3):
            queue_manager.release(TransactionId(0, holder), now=10.0 + holder)
            order.extend(e.request.transaction.seq for e in grants(queue_manager))
        assert order == [2, 3]

    def test_2pl_grants_are_never_pre_scheduled(self, queue_manager):
        queue_manager.submit(twopl_request(1, "w"), now=1.0)
        queue_manager.submit(twopl_request(2, "w"), now=2.0)
        queue_manager.release(TransactionId(0, 1), now=3.0)
        for effect in grants(queue_manager):
            assert effect.normal is True


class TestReleaseAndLog:
    def test_release_records_write_implementation(self, execution_log):
        manager = QueueManager(CopyId(0, 0), execution_log)
        manager.submit(twopl_request(1, "w"), now=1.0)
        assert execution_log.total_operations() == 0
        manager.release(TransactionId(0, 1), now=2.0)
        assert execution_log.total_operations() == 1
        entry = execution_log.all_entries()[0]
        assert entry.transaction == TransactionId(0, 1)
        assert entry.time == 2.0

    def test_read_is_recorded_at_grant_time(self, execution_log):
        manager = QueueManager(CopyId(0, 0), execution_log)
        manager.submit(twopl_request(1, "r"), now=1.0)
        assert execution_log.total_operations() == 1
        assert execution_log.all_entries()[0].time == 1.0
        manager.release(TransactionId(0, 1), now=2.0)
        assert execution_log.total_operations() == 1  # not recorded twice

    def test_abort_withdraws_recorded_reads(self, execution_log):
        manager = QueueManager(CopyId(0, 0), execution_log)
        manager.submit(twopl_request(1, "r"), now=1.0)
        manager.abort(TransactionId(0, 1), now=2.0)
        assert execution_log.total_operations() == 0

    def test_abort_releases_locks_and_unblocks_waiters(self, queue_manager):
        queue_manager.submit(twopl_request(1, "w"), now=1.0)
        queue_manager.submit(twopl_request(2, "w"), now=2.0)
        queue_manager.drain_effects()
        queue_manager.abort(TransactionId(0, 1), now=3.0)
        issued = grants(queue_manager)
        assert [e.request.transaction.seq for e in issued] == [2]

    def test_release_removes_queue_entries(self, queue_manager):
        queue_manager.submit(twopl_request(1, "w"), now=1.0)
        queue_manager.release(TransactionId(0, 1), now=2.0)
        assert queue_manager.queue_length() == 0
        assert queue_manager.granted_locks() == ()


class TestWaitEdges:
    def test_waiter_edges_point_to_lock_holder(self, queue_manager):
        queue_manager.submit(twopl_request(1, "w"), now=1.0)
        queue_manager.submit(twopl_request(2, "w"), now=2.0)
        edges = wait_edges(queue_manager)
        assert (TransactionId(0, 2), TransactionId(0, 1)) in edges

    def test_no_edges_when_nothing_waits(self, queue_manager):
        queue_manager.submit(twopl_request(1, "w"), now=1.0)
        assert wait_edges(queue_manager) == []

    def test_waiter_edges_point_to_earlier_ungranted_entries(self, queue_manager):
        queue_manager.submit(twopl_request(1, "w"), now=1.0)
        queue_manager.submit(twopl_request(2, "w"), now=2.0)
        queue_manager.submit(twopl_request(3, "w"), now=3.0)
        edges = wait_edges(queue_manager)
        assert (TransactionId(0, 3), TransactionId(0, 2)) in edges
        assert (TransactionId(0, 3), TransactionId(0, 1)) in edges

    def test_only_the_blocked_transaction_waits(self, queue_manager):
        queue_manager.submit(twopl_request(1, "w"), now=1.0)
        queue_manager.submit(twopl_request(2, "w"), now=2.0)
        assert wait_edges(queue_manager) == [(TransactionId(0, 2), TransactionId(0, 1))]

    def test_compatible_readers_do_not_wait(self, queue_manager):
        queue_manager.submit(twopl_request(1, "r"), now=1.0)
        queue_manager.submit(twopl_request(2, "r"), now=2.0)
        assert wait_edges(queue_manager) == []

    def test_writer_waits_for_every_reader(self, queue_manager):
        queue_manager.submit(twopl_request(1, "r"), now=1.0)
        queue_manager.submit(twopl_request(2, "r"), now=2.0)
        queue_manager.submit(twopl_request(3, "w"), now=3.0)
        assert wait_edges(queue_manager) == [
            (TransactionId(0, 3), TransactionId(0, 1)),
            (TransactionId(0, 3), TransactionId(0, 2)),
        ]

    def test_every_holder_is_a_node_of_the_adjacency(self, queue_manager):
        # The cycle search indexes the adjacency by every successor it meets,
        # so a holder that waits for nobody still needs its (empty) bucket.
        queue_manager.submit(twopl_request(1, "w"), now=1.0)
        queue_manager.submit(twopl_request(2, "w"), now=2.0)
        adjacency, transaction_of = {}, {}
        queue_manager.collect_wait_edges(adjacency, transaction_of)
        holders = set().union(*adjacency.values())
        assert holders and holders <= set(adjacency) == set(transaction_of)
        assert all(not adjacency[holder] for holder in holders)

    def test_edges_of_several_copies_merge_per_waiter(self, execution_log):
        first = QueueManager(CopyId(0, 0), execution_log)
        second = QueueManager(CopyId(1, 0), execution_log)
        first.submit(twopl_request(1, "w"), now=1.0)
        second.submit(make_request(site=0, seq=2, item=1, op="w"), now=1.5)
        first.submit(twopl_request(3, "w"), now=2.0)
        second.submit(make_request(site=0, seq=3, item=1, index=1, op="w"), now=2.5)
        assert wait_edges(first, second) == [
            (TransactionId(0, 3), TransactionId(0, 1)),
            (TransactionId(0, 3), TransactionId(0, 2)),
        ]


class TestStatistics:
    def test_grant_counter(self, queue_manager):
        queue_manager.submit(twopl_request(1, "r"), now=1.0)
        queue_manager.submit(twopl_request(2, "r"), now=2.0)
        assert queue_manager.grants_issued == 2
        assert queue_manager.rejections == 0
        assert queue_manager.backoffs == 0

    def test_wrong_copy_rejected(self, queue_manager):
        foreign = make_request(protocol=Protocol.TWO_PHASE_LOCKING, item=5)
        with pytest.raises(Exception):
            queue_manager.submit(foreign, now=1.0)
