"""Differential: ``QueueManager`` against the Section 4 reference, step by step.

Random interleavings of every queue-manager entry point — ``submit`` under
the three protocols, ``update_timestamp``, ``downgrade``, ``release``,
``release_prepared`` and ``abort`` (with and without an attempt), ``crash``
and ``restore_lock`` — run on one to three copies, with semi-locks on and
off, through both :class:`~repro.core.queue_manager.QueueManager` and
:class:`tests.core.reference_scheduler.ReferenceCopy`.  After every action the
two must agree exactly on the drained effects (in order), the execution-log
traffic, the granted locks, the queue order, the wait-for adjacency, the
timestamps and the counters.

Tier-1 runs Hypothesis's default example count; ``make qm-differential`` runs
2,000 examples per test (the ``qm-differential`` profile in
``tests/conftest.py``).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import ProtocolError
from repro.common.ids import CopyId, TransactionId
from repro.common.protocol_names import Protocol
from repro.core.queue_manager import QueueManager
from repro.storage.log import ExecutionLog

from tests.conftest import make_request
from tests.core.reference_scheduler import ReferenceCopy

TRANSACTIONS = [TransactionId(site, seq) for site, seq in ((0, 1), (1, 2), (2, 3), (1, 4), (0, 5))]
ACTIONS = ["submit"] * 5 + ["update_timestamp", "release", "abort"] * 2
ACTIONS += ["downgrade", "release_prepared", "crash", "restore_lock"]
ALL_PROTOCOLS = list(Protocol)
#: Timestamps trail the step clock by up to JITTER quarter steps, so most
#: requests arrive in timestamp order and some do not.  Quarter steps and
#: dyadic intervals keep every back-off exact.
JITTER = st.integers(min_value=0, max_value=12)
INTERVALS = st.sampled_from([0.25, 0.5, 1.0])


class LogTap:
    """Execution-log observer that records the traffic the reference mirrors."""

    def __init__(self):
        self.events = []

    def entry_recorded(self, entry):
        record = (entry.copy, entry.transaction, entry.op_type, entry.protocol, entry.time)
        self.events.append(("record",) + record + (entry.attempt,))

    def entries_withdrawn(self, copy, transaction, attempt):
        self.events.append(("withdraw", copy, transaction, attempt))

    def transaction_quiesced(self, copy, transaction, attempt):
        self.events.append(("quiesced", copy, transaction, attempt))


class Pair:
    """One copy driven through both implementations."""

    def __init__(self, copy, log, semi_locks):
        self.manager = QueueManager(copy, log, semi_locks_enabled=semi_locks)
        self.reference = ReferenceCopy(copy, semi_locks)
        self.lost = []  # requests granted here before a crash: restorable


def manager_adjacency(managers):
    adjacency, transaction_of = {}, {}
    for manager in managers:
        manager.collect_wait_edges(adjacency, transaction_of)
    return [
        (transaction_of[waiter], {transaction_of[holder] for holder in holders})
        for waiter, holders in adjacency.items()
    ]


def reference_adjacency(references):
    adjacency = {}
    for reference in references:
        reference.wait_edges(adjacency)
    return list(adjacency.items())


def manager_state(manager):
    locks = [
        (lock.request_id, lock.mode, lock.pre_scheduled, lock.normal_grant_sent)
        + (lock.implemented, lock.release_on_normal)
        for lock in manager.granted_locks()
    ]
    queue = [
        (entry.request_id, entry.precedence.timestamp, entry.is_blocked, entry.granted)
        for entry in manager.queue_entries()
    ]
    counters = (manager.grants_issued, manager.rejections, manager.backoffs)
    return locks, queue, (manager.read_ts, manager.write_ts), counters


def reference_state(reference):
    locks = [
        (lock.request.request_id, lock.mode, lock.pre_scheduled, lock.normal_sent)
        + (lock.implemented, lock.release_on_normal)
        for lock in reference.locks()
    ]
    queue = [
        (entry.request.request_id, entry.timestamp, entry.blocked, entry.granted)
        for entry in reference.queue
    ]
    counters = (reference.grants, reference.rejections, reference.backoffs)
    return locks, queue, (reference.read_ts, reference.write_ts), counters


def assert_agree(pairs):
    for pair in pairs:
        manager, reference = pair.manager, pair.reference
        assert manager.drain_effects() == reference.drain()
        assert manager_state(manager) == reference_state(reference)
        waiting = [e.transaction for e in reference.queue if not e.granted and not e.blocked]
        assert manager.blocked_transactions() == tuple(dict.fromkeys(waiting))
    managers = [pair.manager for pair in pairs]
    references = [pair.reference for pair in pairs]
    assert manager_adjacency(managers) == reference_adjacency(references)


def run(data, semi_locks, protocols=ALL_PROTOCOLS):
    copies = [CopyId(item, 0) for item in range(data.draw(st.integers(1, 3), label="copies"))]
    log = ExecutionLog()
    tap = LogTap()
    log.attach_observer(tap)
    pairs = [Pair(copy, log, semi_locks) for copy in copies]
    transactions = TRANSACTIONS[: data.draw(st.integers(2, len(TRANSACTIONS)), label="txns")]
    protocol_of = {tid: data.draw(st.sampled_from(protocols)) for tid in transactions}
    # A transaction's requests mostly carry its current timestamp, as issuers
    # send them; now and then it moves on, as a restarted attempt does.
    timestamp_of = dict.fromkeys(transactions, 0.0)
    next_index = dict.fromkeys(transactions, 0)
    now = 0.0
    for _ in range(data.draw(st.integers(8, 60), label="steps")):
        now += 1.0

        def fresh_timestamp(label):
            return max(0.0, (now - data.draw(JITTER, label=label)) / 4.0)

        pair = data.draw(st.sampled_from(pairs), label="copy")
        manager, reference = pair.manager, pair.reference
        action = data.draw(st.sampled_from(ACTIONS), label="action")
        # Mostly act on a transaction the action can affect here: confirm a
        # blocked PA entry, or finish one of the two oldest lock holders (what
        # turns later pre-scheduled locks normal).
        if action == "update_timestamp":
            likely = [e.transaction for e in reference.queue if e.blocked]
        else:
            likely = [lock.transaction for lock in reference.locks()][:2]
        if action == "submit" or not likely or data.draw(st.integers(0, 3), label="any") == 0:
            tid = data.draw(st.sampled_from(transactions), label="transaction")
        else:
            tid = data.draw(st.sampled_from(likely), label="likely transaction")
        attempt = data.draw(st.sampled_from([None, 0, 1]), label="attempt")
        before = len(reference.log)
        if action == "submit":
            next_index[tid] += 1
            if data.draw(st.integers(0, 2), label="new timestamp") == 0:
                timestamp_of[tid] = fresh_timestamp("timestamp")
            request = make_request(
                tid=tid,
                index=next_index[tid],
                attempt=attempt or 0,
                protocol=protocol_of[tid],
                op=data.draw(st.sampled_from("rw"), label="op"),
                item=manager.copy.item,
                copy_site=manager.copy.site,
                timestamp=timestamp_of[tid],
                backoff_interval=data.draw(INTERVALS, label="interval"),
            )
            manager.submit(request, now)
            reference.submit(request, now)
        elif action == "update_timestamp":
            timestamp = fresh_timestamp("agreed")
            manager.update_timestamp(tid, timestamp, now)
            reference.update_timestamp(tid, timestamp, now)
        elif action == "downgrade":
            if not semi_locks:
                continue
            manager.downgrade(tid, now)
            reference.downgrade(tid, now)
        elif action in ("release", "release_prepared", "abort"):
            getattr(manager, action)(tid, now, attempt)
            getattr(reference, action)(tid, now, attempt)
        elif action == "crash":
            pair.lost.extend(lock.request for lock in reference.locks())
            manager.crash(now)
            reference.crash(now)
        else:
            queued = {entry.request.request_id for entry in reference.queue}
            candidates = [r for r in pair.lost if r.request_id not in queued]
            if not candidates:
                continue
            request = data.draw(st.sampled_from(candidates), label="restored")
            manager.restore_lock(request, now)
            reference.restore_lock(request, now)
        # The log is shared by the copies; this step touched one copy only.
        assert tap.events == reference.log[before:], action
        tap.events.clear()
        assert_agree(pairs)


DIFFERENTIAL = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestQueueManagerMatchesReference:
    @DIFFERENTIAL
    @given(st.data())
    def test_with_semi_locks(self, data):
        run(data, semi_locks=True)

    @DIFFERENTIAL
    @given(st.data())
    def test_with_full_locks(self, data):
        run(data, semi_locks=False)

    @DIFFERENTIAL
    @given(st.data())
    def test_timestamp_ordering_only(self, data):
        # Pre-scheduled grants, downgrades and promotion to normal are T/O's:
        # without 2PL and PA entries in the way they happen far more often.
        run(data, semi_locks=True, protocols=[Protocol.TIMESTAMP_ORDERING])

    def test_both_reject_a_request_for_another_copy(self):
        request = make_request(item=1)
        for scheduler in (QueueManager(CopyId(0, 0)), ReferenceCopy(CopyId(0, 0))):
            try:
                scheduler.submit(request, 1.0)
            except ProtocolError:
                continue
            raise AssertionError(f"{scheduler} accepted a request for another copy")
