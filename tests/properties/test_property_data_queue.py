"""Property tests for the indexed :class:`DataQueue`.

The queue keeps hash indices (request id, transaction), a parallel filed-key
list for binary search, and a cached first-ungranted cursor.  These tests
drive it with random operation sequences and, after every step, compare every
observable against a naive list model that re-implements the original
unindexed behaviour (append + stable sort, linear scans).  Both containers
hold the *same* entry objects, so mutations (grants, precedence changes) are
seen by both and only the bookkeeping differs.

:meth:`DataQueue.refile` is checked against the model's full stable re-sort,
including the order the queue manager calls it in when a PA timestamp update
re-handles intermediate conflicts: ``entries_of(t)`` first, then a full
``resort()``, then ``refile`` of that (now stale-ordered) batch.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.ids import TransactionId
from repro.common.protocol_names import Protocol
from repro.core.data_queue import DataQueue, QueuedRequest
from repro.core.precedence import Precedence

from tests.conftest import make_request


class NaiveDataQueue:
    """The original list-only implementation, kept as the reference model."""

    def __init__(self):
        self.entries = []

    def insert(self, entry):
        self.entries.append(entry)
        self.entries.sort(key=lambda e: e.precedence.sort_key())

    def find(self, request_id):
        for entry in self.entries:
            if entry.request_id == request_id:
                return entry
        return None

    def entries_of(self, transaction):
        return tuple(e for e in self.entries if e.transaction == transaction)

    def remove(self, request_id):
        entry = self.find(request_id)
        self.entries.remove(entry)
        return entry

    def resort(self):
        self.entries.sort(key=lambda e: e.precedence.sort_key())

    def head(self):
        for entry in self.entries:
            if not entry.granted:
                return entry
        return None

    def ungranted(self):
        return tuple(e for e in self.entries if not e.granted)


PROTOCOLS = (
    Protocol.TWO_PHASE_LOCKING,
    Protocol.TIMESTAMP_ORDERING,
    Protocol.PRECEDENCE_AGREEMENT,
)
TRANSACTION_PICKS = st.integers(min_value=0, max_value=5)
TIMESTAMPS = st.floats(min_value=0.0, max_value=8.0)
PROTOCOL_PICKS = st.integers(min_value=0, max_value=2)


@st.composite
def operation_sequences(draw):
    """A list of (op, args) tuples driving both queue implementations.

    A drawn run of inserts comes first, so the later steps usually find
    transactions with several queued entries (what a refile batch needs).
    """
    prefix = draw(st.lists(st.tuples(TRANSACTION_PICKS, TIMESTAMPS, PROTOCOL_PICKS), max_size=20))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    [
                        "insert",
                        "remove",
                        "grant_head",
                        "retime_and_resort",
                        "retime_and_refile",
                        "resort_then_refile",
                        "find_missing",
                    ]
                ),
                TRANSACTION_PICKS,
                TIMESTAMPS,
                PROTOCOL_PICKS,
            ),
            min_size=1,
            max_size=60,
        )
    )
    return [("insert", *args) for args in prefix] + ops


def check_agreement(queue: DataQueue, model: NaiveDataQueue):
    assert list(queue) == model.entries
    assert queue.entries() == tuple(model.entries)
    assert len(queue) == len(model.entries)
    assert queue.head() is model.head()
    assert queue.ungranted() == model.ungranted()
    for entry in model.entries:
        assert queue.find(entry.request_id) is entry
    for txn_seq in range(1, 7):
        transaction = TransactionId(0, txn_seq)
        assert queue.entries_of(transaction) == model.entries_of(transaction)


def queued_transaction(model, pick):
    """The transaction of a queued entry (an empty batch tests nothing)."""
    if not model.entries:
        return TransactionId(0, pick + 1)
    return model.entries[pick % len(model.entries)].transaction


def retime(entries, timestamp):
    for entry in entries:
        entry.precedence = entry.precedence.with_timestamp(timestamp)


class TestDataQueueMatchesNaiveModel:
    @given(operation_sequences())
    @settings(max_examples=200, deadline=None)
    def test_random_operations(self, ops):
        queue = DataQueue()
        model = NaiveDataQueue()
        next_index = 0
        for op, txn_pick, timestamp, proto_pick in ops:
            transaction = TransactionId(0, txn_pick + 1)
            if op == "insert":
                protocol = PROTOCOLS[proto_pick]
                request = make_request(
                    tid=transaction,
                    index=next_index,
                    protocol=protocol,
                    timestamp=timestamp,
                    item=0,
                )
                next_index += 1
                entry = QueuedRequest(
                    request=request,
                    precedence=Precedence(
                        timestamp=timestamp,
                        protocol=protocol,
                        site=0,
                        transaction=transaction,
                        arrival_seq=next_index,
                    ),
                )
                queue.insert(entry)
                model.insert(entry)
            elif op == "remove":
                if model.entries:
                    victim = model.entries[txn_pick % len(model.entries)]
                    removed = queue.remove(victim.request_id)
                    assert removed is model.remove(victim.request_id)
            elif op == "grant_head":
                head = model.head()
                if head is not None:
                    assert queue.head() is head
                    head.granted = True
            elif op == "retime_and_resort":
                if model.entries:
                    target = model.entries[txn_pick % len(model.entries)]
                    target.precedence = target.precedence.with_timestamp(timestamp)
                    queue.resort()
                    model.resort()
            elif op == "retime_and_refile":
                # One transaction's entries move together (a PA timestamp
                # agreement); re-filing them must equal a full stable re-sort.
                batch = queue.entries_of(queued_transaction(model, txn_pick))
                retime(batch, timestamp)
                queue.refile(batch)
                model.resort()
            elif op == "resort_then_refile":
                # The batch is taken before a full resort reorders it, as
                # update_timestamp does when a granted entry's bump re-handles
                # intermediate conflicts: its first entry moves behind every
                # drawn timestamp, then its siblings tie with it there, so
                # refile must keep the current order, not the batch's.
                late = 10.0 + timestamp
                batch = queue.entries_of(queued_transaction(model, txn_pick))
                retime(batch[:1], late)
                queue.resort()
                model.resort()
                retime(batch, late)
                queue.refile(batch)
                model.resort()
            elif op == "find_missing":
                missing = make_request(tid=transaction, index=10_000 + txn_pick)
                assert queue.find(missing.request_id) is None
            check_agreement(queue, model)
