"""The per-copy data queue and its HD(j) rule."""

import pytest

from repro.common.errors import ProtocolError
from repro.common.ids import TransactionId
from repro.common.protocol_names import Protocol
from repro.core.data_queue import DataQueue, EntryStatus, QueuedRequest
from repro.core.precedence import Precedence

from tests.conftest import make_request


def entry(
    ts, seq=1, site=0, protocol=Protocol.TIMESTAMP_ORDERING, status=EntryStatus.ACCEPTED, index=0
):
    request = make_request(
        site=site, seq=seq, index=index, protocol=protocol, timestamp=ts, item=0
    )
    precedence = Precedence(
        timestamp=ts,
        protocol=protocol,
        site=site,
        transaction=request.transaction,
    )
    return QueuedRequest(request=request, precedence=precedence, status=status)


class TestInsertionAndOrdering:
    def test_entries_kept_in_precedence_order(self):
        queue = DataQueue()
        queue.insert(entry(3.0, seq=1))
        queue.insert(entry(1.0, seq=2))
        queue.insert(entry(2.0, seq=3))
        assert [e.precedence.timestamp for e in queue.entries()] == [1.0, 2.0, 3.0]

    def test_duplicate_request_rejected(self):
        queue = DataQueue()
        first = entry(1.0, seq=1)
        queue.insert(first)
        with pytest.raises(ProtocolError):
            queue.insert(entry(2.0, seq=1))

    def test_len_and_iter(self):
        queue = DataQueue()
        queue.insert(entry(1.0, seq=1))
        queue.insert(entry(2.0, seq=2))
        assert len(queue) == 2
        assert len(list(queue)) == 2


class TestHeadRule:
    def test_head_is_first_ungranted(self):
        queue = DataQueue()
        first = entry(1.0, seq=1)
        second = entry(2.0, seq=2)
        queue.insert(first)
        queue.insert(second)
        assert queue.head() is first
        first.granted = True
        assert queue.head() is second

    def test_head_none_when_everything_granted(self):
        queue = DataQueue()
        only = entry(1.0, seq=1)
        only.granted = True
        queue.insert(only)
        assert queue.head() is None

    def test_head_none_on_empty_queue(self):
        assert DataQueue().head() is None

    def test_ungranted_and_granted_views(self):
        queue = DataQueue()
        a, b = entry(1.0, seq=1), entry(2.0, seq=2)
        a.granted = True
        queue.insert(a)
        queue.insert(b)
        assert [item for item in queue if item.granted] == [a]
        assert queue.ungranted() == (b,)


class TestLookupAndRemoval:
    def test_find_by_request_id(self):
        queue = DataQueue()
        target = entry(1.0, seq=1)
        queue.insert(target)
        assert queue.find(target.request_id) is target
        assert queue.find(entry(9.0, seq=99).request_id) is None

    def test_entries_of_transaction(self):
        queue = DataQueue()
        a = entry(1.0, seq=1)
        b = entry(2.0, seq=2)
        queue.insert(a)
        queue.insert(b)
        assert queue.entries_of(TransactionId(0, 1)) == (a,)

    def test_remove_returns_entry(self):
        queue = DataQueue()
        target = entry(1.0, seq=1)
        queue.insert(target)
        assert queue.remove(target.request_id) is target
        assert len(queue) == 0

    def test_remove_missing_raises(self):
        with pytest.raises(ProtocolError):
            DataQueue().remove(entry(1.0).request_id)


class TestReordering:
    def test_resort_after_precedence_change(self):
        queue = DataQueue()
        a, b = entry(1.0, seq=1), entry(2.0, seq=2)
        queue.insert(a)
        queue.insert(b)
        a.precedence = a.precedence.with_timestamp(5.0)
        queue.resort()
        assert queue.entries() == (b, a)

    def test_refile_moves_a_retimed_transaction(self):
        queue = DataQueue()
        a, a2 = entry(1.0, seq=1), entry(1.0, seq=1, index=1)
        b, c = entry(2.0, seq=2), entry(3.0, seq=3)
        for item in (a, b, a2, c):
            queue.insert(item)
        assert queue.entries() == (a, a2, b, c)
        batch = queue.entries_of(a.request.transaction)
        for item in batch:
            item.precedence = item.precedence.with_timestamp(2.5)
        queue.refile(batch)
        assert queue.entries() == (b, a, a2, c)
        assert queue.head() is b
        assert queue.remove(a2.request_id) is a2
        assert queue.entries() == (b, a, c)

    def test_refile_after_resort_keeps_current_order(self):
        # update_timestamp takes the batch, then a full resort moves its
        # first entry, then the rest tie with it: refile must keep the
        # resorted order (a2 before a), not the batch's (a before a2).
        queue = DataQueue()
        a, a2 = entry(1.0, seq=1), entry(1.0, seq=1, index=1)
        b, c = entry(2.0, seq=2), entry(3.0, seq=3)
        for item in (a, a2, b, c):
            queue.insert(item)
        batch = queue.entries_of(a.request.transaction)
        assert batch == (a, a2)
        a.precedence = a.precedence.with_timestamp(5.0)
        queue.resort()
        assert queue.entries() == (a2, b, c, a)
        a2.precedence = a2.precedence.with_timestamp(5.0)
        queue.refile(batch)
        assert queue.entries() == (b, c, a2, a)
        assert queue.entries_of(a.request.transaction) == (a2, a)

    def test_blocked_status_flag(self):
        blocked = entry(1.0, status=EntryStatus.BLOCKED)
        assert blocked.is_blocked
        accepted = entry(1.0, status=EntryStatus.ACCEPTED)
        assert not accepted.is_blocked
