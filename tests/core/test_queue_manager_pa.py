"""Unified queue manager driven by PA requests (propose/confirm negotiation)."""

import pytest

from repro.common.ids import CopyId, TransactionId
from repro.common.protocol_names import Protocol
from repro.core.effects import BackoffIssued, GrantIssued, RequestRejected
from repro.core.locks import LockMode
from repro.core.queue_manager import QueueManager

from tests.conftest import make_request, wait_edges


def pa_request(seq, op="w", ts=1.0, site=0, interval=1.0):
    return make_request(
        site=site,
        seq=seq,
        protocol=Protocol.PRECEDENCE_AGREEMENT,
        op=op,
        timestamp=ts,
        backoff_interval=interval,
    )


def effects_of(manager, kind):
    return [effect for effect in manager.drain_effects() if isinstance(effect, kind)]


class TestProposals:
    def test_every_pa_request_first_receives_a_proposal(self, queue_manager):
        queue_manager.submit(pa_request(1, "w", ts=1.0), now=1.0)
        proposals = effects_of(queue_manager, BackoffIssued)
        assert len(proposals) == 1
        assert proposals[0].new_timestamp == pytest.approx(1.0)

    def test_request_is_not_granted_before_confirmation(self, queue_manager):
        queue_manager.submit(pa_request(1, "w", ts=1.0), now=1.0)
        assert [e for e in queue_manager.drain_effects() if isinstance(e, GrantIssued)] == []
        assert queue_manager.granted_locks() == ()

    def test_conflicting_proposal_is_backed_off(self, queue_manager):
        queue_manager.submit(pa_request(1, "w", ts=5.0), now=1.0)
        queue_manager.update_timestamp(TransactionId(0, 1), 5.0, now=1.5)   # confirm & grant
        queue_manager.drain_effects()
        queue_manager.submit(pa_request(2, "w", ts=3.0, interval=1.0), now=2.0)
        proposals = effects_of(queue_manager, BackoffIssued)
        assert len(proposals) == 1
        assert proposals[0].new_timestamp == pytest.approx(6.0)
        assert queue_manager.backoffs == 1

    def test_acceptable_proposal_does_not_count_as_backoff(self, queue_manager):
        queue_manager.submit(pa_request(1, "w", ts=5.0), now=1.0)
        assert queue_manager.backoffs == 0

    def test_pa_requests_are_never_rejected(self, queue_manager):
        queue_manager.submit(pa_request(1, "w", ts=5.0), now=1.0)
        queue_manager.update_timestamp(TransactionId(0, 1), 5.0, now=1.5)
        queue_manager.drain_effects()
        queue_manager.submit(pa_request(2, "w", ts=1.0), now=2.0)
        assert effects_of(queue_manager, RequestRejected) == []
        assert queue_manager.rejections == 0


class TestConfirmation:
    def test_confirmation_makes_the_request_grantable(self, queue_manager):
        queue_manager.submit(pa_request(1, "w", ts=2.0), now=1.0)
        queue_manager.drain_effects()
        queue_manager.update_timestamp(TransactionId(0, 1), 2.0, now=2.0)
        granted = effects_of(queue_manager, GrantIssued)
        assert len(granted) == 1
        assert granted[0].mode is LockMode.WRITE
        assert granted[0].normal is True

    def test_confirmation_with_larger_agreed_timestamp_reorders_queue(self, queue_manager):
        queue_manager.submit(pa_request(1, "w", ts=2.0), now=1.0)
        queue_manager.submit(pa_request(2, "w", ts=3.0), now=1.5)
        queue_manager.drain_effects()
        # Transaction 1's agreement elsewhere moved it to timestamp 9.
        queue_manager.update_timestamp(TransactionId(0, 1), 9.0, now=2.0)
        # Transaction 2 confirms at its own timestamp and is now first.
        queue_manager.update_timestamp(TransactionId(0, 2), 3.0, now=2.5)
        granted = effects_of(queue_manager, GrantIssued)
        assert [g.request.transaction.seq for g in granted] == [2]
        entries = queue_manager.queue_entries()
        assert [entry.transaction.seq for entry in entries] == [2, 1]

    def test_pending_head_blocks_later_requests(self, queue_manager):
        queue_manager.submit(pa_request(1, "w", ts=1.0), now=1.0)    # pending, head
        queue_manager.submit(pa_request(2, "w", ts=2.0), now=1.5)
        queue_manager.drain_effects()
        queue_manager.update_timestamp(TransactionId(0, 2), 2.0, now=2.0)
        # Transaction 2 is confirmed but transaction 1 (still pending) is ahead.
        assert effects_of(queue_manager, GrantIssued) == []
        queue_manager.update_timestamp(TransactionId(0, 1), 1.0, now=3.0)
        granted = effects_of(queue_manager, GrantIssued)
        assert [g.request.transaction.seq for g in granted] == [1]

    def test_pa_grant_sequence_follows_agreed_timestamps(self, queue_manager):
        queue_manager.submit(pa_request(1, "w", ts=4.0), now=1.0)
        queue_manager.submit(pa_request(2, "w", ts=2.0), now=1.2)
        queue_manager.update_timestamp(TransactionId(0, 1), 4.0, now=2.0)
        queue_manager.update_timestamp(TransactionId(0, 2), 2.0, now=2.1)
        queue_manager.drain_effects()
        order = []
        queue_manager.release(TransactionId(0, 2), now=3.0)
        order.extend(g.request.transaction.seq for g in effects_of(queue_manager, GrantIssued))
        queue_manager.release(TransactionId(0, 1), now=4.0)
        assert order == [1]

    def test_confirmation_of_unknown_transaction_is_noop(self, queue_manager):
        queue_manager.update_timestamp(TransactionId(0, 99), 5.0, now=1.0)
        assert queue_manager.drain_effects() == []


class TestGrantedTimestampBumpRepair:
    """Direct exercise of the one-round-PA repair path (granted entry re-timestamped)."""

    def test_intermediate_to_conflict_is_rejected(self, queue_manager):
        # PA transaction granted at ts 2, a T/O write slips in at ts 3, and the
        # PA agreement later moves the granted read to ts 5: the T/O write must
        # be re-handled (rejected) to preserve (E1).
        queue_manager.submit(pa_request(1, "r", ts=2.0), now=1.0)
        queue_manager.update_timestamp(TransactionId(0, 1), 2.0, now=1.5)
        queue_manager.drain_effects()
        to_write = make_request(seq=2, protocol=Protocol.TIMESTAMP_ORDERING, op="w", timestamp=3.0)
        queue_manager.submit(to_write, now=2.0)
        queue_manager.drain_effects()
        queue_manager.update_timestamp(TransactionId(0, 1), 5.0, now=3.0)
        rejected = effects_of(queue_manager, RequestRejected)
        assert len(rejected) == 1
        assert rejected[0].request.transaction == TransactionId(0, 2)

    def test_intermediate_pa_conflict_is_backed_off_past_new_timestamp(self, queue_manager):
        queue_manager.submit(pa_request(1, "r", ts=2.0), now=1.0)
        queue_manager.update_timestamp(TransactionId(0, 1), 2.0, now=1.5)
        queue_manager.drain_effects()
        queue_manager.submit(pa_request(2, "w", ts=3.0, interval=1.0), now=2.0)
        queue_manager.drain_effects()
        queue_manager.update_timestamp(TransactionId(0, 1), 5.0, now=3.0)
        proposals = effects_of(queue_manager, BackoffIssued)
        assert len(proposals) == 1
        assert proposals[0].new_timestamp > 5.0

    def test_bump_raises_read_timestamp_register(self, queue_manager):
        queue_manager.submit(pa_request(1, "r", ts=2.0), now=1.0)
        queue_manager.update_timestamp(TransactionId(0, 1), 2.0, now=1.5)
        queue_manager.update_timestamp(TransactionId(0, 1), 7.0, now=2.0)
        assert queue_manager.read_ts == pytest.approx(7.0)

    def test_non_conflicting_intermediate_requests_are_untouched(self, queue_manager):
        queue_manager.submit(pa_request(1, "r", ts=2.0), now=1.0)
        queue_manager.update_timestamp(TransactionId(0, 1), 2.0, now=1.5)
        queue_manager.drain_effects()
        other_read = make_request(
            seq=2, protocol=Protocol.TIMESTAMP_ORDERING, op="r", timestamp=3.0
        )
        queue_manager.submit(other_read, now=2.0)
        queue_manager.drain_effects()
        queue_manager.update_timestamp(TransactionId(0, 1), 5.0, now=3.0)
        assert effects_of(queue_manager, RequestRejected) == []


class TestReleaseAndLog:
    def test_release_after_execution_records_write(self, execution_log):
        manager = QueueManager(CopyId(0, 0), execution_log)
        manager.submit(pa_request(1, "w", ts=1.0), now=1.0)
        manager.update_timestamp(TransactionId(0, 1), 1.0, now=1.5)
        manager.release(TransactionId(0, 1), now=2.0)
        assert execution_log.total_operations() == 1

    def test_waiters_granted_after_pa_release(self, queue_manager):
        queue_manager.submit(pa_request(1, "w", ts=1.0), now=1.0)
        queue_manager.update_timestamp(TransactionId(0, 1), 1.0, now=1.2)
        queue_manager.submit(pa_request(2, "w", ts=2.0), now=1.5)
        queue_manager.update_timestamp(TransactionId(0, 2), 2.0, now=1.7)
        queue_manager.drain_effects()
        queue_manager.release(TransactionId(0, 1), now=2.0)
        granted = effects_of(queue_manager, GrantIssued)
        assert [g.request.transaction.seq for g in granted] == [2]

    def test_pending_entries_produce_no_wait_edges(self, queue_manager):
        queue_manager.submit(pa_request(1, "w", ts=1.0), now=1.0)     # pending
        queue_manager.submit(pa_request(2, "w", ts=2.0), now=1.5)
        queue_manager.update_timestamp(TransactionId(0, 2), 2.0, now=2.0)
        edges = wait_edges(queue_manager)
        # Transaction 2 waits behind the pending entry of transaction 1, but a
        # pending entry resolves on its own, so no wait-for edge is reported.
        assert edges == []
