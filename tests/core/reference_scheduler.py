"""Section 4's unified scheduler for one copy, written as plainly as the paper states it.

This is the test reference for :class:`repro.core.queue_manager.QueueManager`
(``tests/properties/test_queue_manager_reference.py`` holds the two to the
same behaviour step by step).  It keeps one list of entries per copy, sorted
by unified precedence after every change, and answers every question by
walking that list: no indices, cursors, counters or caches.  A granted lock is
simply a granted entry.

* **Unified precedence (4.1).**  Compare timestamps; on a tie 2PL counts as
  the biggest site id; 2PL requests among themselves go by arrival order,
  others by transaction id.  A 2PL request takes the biggest timestamp seen
  in the queue before it arrived.
* **Assignment (3.3, 3.4).**  2PL is always accepted.  T/O is rejected unless
  its timestamp exceeds ``W-TS`` (reads) or both ``W-TS`` and ``R-TS``
  (writes).  PA is inserted blocked and answered with a proposal: its own
  timestamp when T/O would accept it, else the smallest ``TS + k * INT``
  (``k >= 1``) above the threshold; the issuer's agreed timestamp unblocks it.
* **Semi-lock grants (4.2).**  Only ``HD(j)``, the first ungranted entry, is
  considered.  Rule 2: a T/O read gets SRL once no other transaction holds a
  WL, a T/O write WL once none holds RL or WL; a 2PL/PA read gets RL once none
  holds WL or SWL, a 2PL/PA write WL once none holds anything.  A lock is
  pre-scheduled while an earlier conflicting lock (one side WL or SWL) is
  unreleased, and normal after (rule 3).  Rule 4: a finished T/O transaction
  downgrades (RL->SRL, WL->SWL) and keeps its locks until they are normal; a
  committed 2PC attempt's pre-scheduled T/O lock is released the moment it
  turns normal.
* **Failures.**  A crash loses the queue, the locks and the outbox but keeps
  the timestamps; ``restore_lock`` re-grants a prepared request at once.

With semi-locks off every reader takes RL and T/O uses the 2PL/PA rules.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.errors import ProtocolError
from repro.common.operations import OperationType
from repro.common.protocol_names import Protocol
from repro.core.effects import BackoffIssued, GrantIssued, RequestRejected
from repro.core.locks import LockMode

TWO_PL = Protocol.TWO_PHASE_LOCKING
T_O = Protocol.TIMESTAMP_ORDERING
PA = Protocol.PRECEDENCE_AGREEMENT
RL, WL, SRL, SWL = LockMode.READ, LockMode.WRITE, LockMode.SEMI_READ, LockMode.SEMI_WRITE


class Entry:
    """One request in the queue; once granted it is also the lock."""

    def __init__(self, request, timestamp, arrival, blocked, mode):
        self.request = request
        self.timestamp = timestamp
        self.arrival = arrival
        self.blocked = blocked
        self.mode = mode
        self.granted = False
        self.grant_order = 0
        self.pre_scheduled = False
        self.normal_sent = False
        self.implemented = False
        self.release_on_normal = False

    @property
    def transaction(self):
        return self.request.transaction

    @property
    def is_read(self):
        return self.request.op_type is OperationType.READ

    def precedence(self):
        """The entry's point in the unified precedence space."""
        if self.request.protocol is TWO_PL:
            return (self.timestamp, 1, 0, self.arrival, 0)
        tid = self.transaction
        return (self.timestamp, 0, tid.site, tid.site, tid.seq)


def conflict(first: LockMode, second: LockMode) -> bool:
    """Two locks conflict when either is a WL or SWL."""
    return first in (WL, SWL) or second in (WL, SWL)


def backoff(timestamp: float, interval: float, threshold: float) -> float:
    """The smallest ``timestamp + k * interval`` with ``k >= 1`` above ``threshold``."""
    k = 1
    while timestamp + k * interval <= threshold:
        k += 1
    return timestamp + k * interval


class ReferenceCopy:
    """The scheduler of one copy: its queue, timestamps, outbox and log traffic."""

    def __init__(self, copy, semi_locks=True):
        self.copy = copy
        self.semi_locks = semi_locks
        self.queue: List[Entry] = []
        self.awaiting: List[Entry] = []  # downgraded, still pre-scheduled, in that order
        self.read_ts = float("-inf")
        self.write_ts = float("-inf")
        self.max_seen = 0.0
        self.arrivals = 0
        self.grant_clock = 0
        self.effects: list = []
        self.log: list = []  # ("record" | "withdraw" | "quiesced", ...) in call order
        self.records: list = []  # the log entries of this copy that still stand
        self.grants = self.rejections = self.backoffs = 0

    # -- what the differential compares ----------------------------------- #

    def locks(self):
        return sorted((e for e in self.queue if e.granted), key=lambda e: e.grant_order)

    def entries_of(self, transaction, attempt=None):
        return [
            e
            for e in self.queue
            if e.transaction == transaction
            and (attempt is None or e.request.request_id.attempt == attempt)
        ]

    def drain(self):
        effects, self.effects = self.effects, []
        return effects

    # -- helpers ---------------------------------------------------------- #

    def mode_for(self, request) -> LockMode:
        if request.op_type is OperationType.WRITE:
            return WL
        if self.semi_locks and request.protocol is T_O:
            return SRL
        return RL

    def insert(self, entry):
        self.queue.append(entry)
        self.queue.sort(key=Entry.precedence)  # stable: ties stay in arrival order

    def note(self, timestamp):
        self.max_seen = max(self.max_seen, timestamp)

    def implement(self, entry, now):
        if entry.implemented:
            return
        request = entry.request
        attempt = request.request_id.attempt
        record = (self.copy, request.transaction, request.op_type, request.protocol, now, attempt)
        self.records.append(record)
        self.log.append(("record",) + record)
        entry.implemented = True

    def downgrade_lock(self, entry):
        entry.mode = {RL: SRL, WL: SWL}.get(entry.mode, entry.mode)
        if not entry.normal_sent and entry not in self.awaiting:
            self.awaiting.append(entry)

    def drop(self, entry):
        self.queue.remove(entry)
        if entry in self.awaiting:
            self.awaiting.remove(entry)

    # -- the paper's steps ------------------------------------------------ #

    def submit(self, request, now):
        if request.copy != self.copy:
            raise ProtocolError("request for another copy")
        arrival, self.arrivals = self.arrivals, self.arrivals + 1
        ts, mode = request.timestamp, self.mode_for(request)
        is_read = request.op_type is OperationType.READ
        if request.protocol is TWO_PL:
            self.insert(Entry(request, self.max_seen, arrival, False, mode))
        elif request.protocol is T_O:
            if not (ts > self.write_ts and (is_read or ts > self.read_ts)):
                self.rejections += 1
                self.effects.append(RequestRejected(request=request, time=now))
                return
            self.insert(Entry(request, ts, arrival, False, mode))
            self.note(ts)
        else:
            threshold = self.write_ts if is_read else max(self.write_ts, self.read_ts)
            proposal = ts if ts > threshold else backoff(ts, request.backoff_interval, threshold)
            if proposal > ts:
                self.backoffs += 1
            self.insert(Entry(request, proposal, arrival, True, mode))
            self.note(proposal)
            self.effects.append(BackoffIssued(request=request, new_timestamp=proposal, time=now))
            return
        self.try_grant(now)

    def can_grant(self, entry):
        if self.semi_locks and entry.request.protocol is T_O:
            blockers = (WL,) if entry.is_read else (RL, WL)
        else:
            blockers = (WL, SWL) if entry.is_read else (RL, WL, SRL, SWL)
        return not any(
            lock.transaction != entry.transaction and lock.mode in blockers
            for lock in self.locks()
        )

    def try_grant(self, now):
        while True:
            head = next((e for e in self.queue if not e.granted), None)
            if head is None or head.blocked or not self.can_grant(head):
                return
            self.grant_clock += 1
            head.granted, head.grant_order = True, self.grant_clock
            head.pre_scheduled = any(
                lock.transaction != head.transaction and conflict(lock.mode, head.mode)
                for lock in self.locks()
                if lock is not head
            )
            head.normal_sent = not head.pre_scheduled
            if head.is_read:
                self.read_ts = max(self.read_ts, head.timestamp)
                self.implement(head, now)
            else:
                self.write_ts = max(self.write_ts, head.timestamp)
            self.grants += 1
            self.effects.append(
                GrantIssued(
                    request=head.request, mode=head.mode, normal=head.normal_sent, time=now
                )
            )

    def promote(self, now):
        for lock in self.locks():
            if lock.normal_sent or lock not in self.queue:
                continue
            if any(
                other.transaction != lock.transaction
                and other.grant_order < lock.grant_order
                and conflict(other.mode, lock.mode)
                for other in self.locks()
            ):
                continue
            lock.normal_sent, lock.pre_scheduled = True, False
            if lock in self.awaiting:
                self.awaiting.remove(lock)
            if lock.release_on_normal:
                self.drop(lock)
                continue
            self.effects.append(
                GrantIssued(request=lock.request, mode=lock.mode, normal=True, time=now)
            )

    def update_timestamp(self, transaction, new_ts, now):
        self.note(new_ts)
        for entry in self.entries_of(transaction):
            if entry.granted:
                old_ts = entry.timestamp
                if new_ts <= old_ts:
                    continue
                entry.timestamp = new_ts
                if entry.is_read:
                    self.read_ts = max(self.read_ts, new_ts)
                else:
                    self.write_ts = max(self.write_ts, new_ts)
                self.rehandle(entry, old_ts, new_ts, now)
            else:
                if new_ts > entry.timestamp or entry.blocked:
                    entry.timestamp = max(new_ts, entry.timestamp)
                entry.blocked = False
        self.queue.sort(key=Entry.precedence)
        self.try_grant(now)

    def rehandle(self, granted, old_ts, new_ts, now):
        """Re-decide conflicting ungranted arrivals whose timestamps fell in the gap."""
        for entry in [e for e in self.queue if not e.granted]:
            if entry.transaction == granted.transaction:
                continue
            if entry.is_read and granted.is_read:
                continue
            if not old_ts <= entry.timestamp <= new_ts:
                continue
            request = entry.request
            if request.protocol is T_O:
                self.drop(entry)
                self.rejections += 1
                reason = "conflicting PA timestamp agreement"
                self.effects.append(RequestRejected(request=request, time=now, reason=reason))
            elif request.protocol is PA:
                entry.timestamp = backoff(request.timestamp, request.backoff_interval, new_ts)
                entry.blocked = True
                self.backoffs += 1
                self.note(entry.timestamp)
                self.effects.append(
                    BackoffIssued(request=request, new_timestamp=entry.timestamp, time=now)
                )
        self.queue.sort(key=Entry.precedence)

    def downgrade(self, transaction, now):
        if not self.semi_locks:
            raise ProtocolError("downgrade needs semi-locks")
        mine = [lock for lock in self.locks() if lock.transaction == transaction]
        for lock in mine:
            self.implement(lock, now)
            self.downgrade_lock(lock)
        if mine:
            self.try_grant(now)

    def release(self, transaction, now, attempt=None):
        for entry in self.entries_of(transaction, attempt):
            if entry.granted:
                self.implement(entry, now)
            self.drop(entry)
        self.log.append(("quiesced", self.copy, transaction, attempt))
        self.promote(now)
        self.try_grant(now)

    def release_prepared(self, transaction, now, attempt=None):
        for entry in self.entries_of(transaction, attempt):
            if entry.granted:
                self.implement(entry, now)
                deferred = entry.request.protocol is T_O and not entry.normal_sent
                if self.semi_locks and deferred:
                    self.downgrade_lock(entry)
                    entry.release_on_normal = True
                    continue
            self.drop(entry)
        self.log.append(("quiesced", self.copy, transaction, attempt))
        self.promote(now)
        self.try_grant(now)

    def abort(self, transaction, now, attempt=None):
        for entry in self.entries_of(transaction, attempt):
            self.drop(entry)
        kept = [
            record
            for record in self.records
            if record[1] != transaction or (attempt is not None and record[5] != attempt)
        ]
        if len(kept) < len(self.records):
            self.records = kept
            self.log.append(("withdraw", self.copy, transaction, attempt))
        self.promote(now)
        self.try_grant(now)

    def crash(self, now):
        self.queue, self.awaiting, self.effects = [], [], []
        self.grant_clock = 0

    def restore_lock(self, request, now):
        if request.copy != self.copy:
            raise ProtocolError("lock for another copy")
        timestamp = self.max_seen if request.protocol is TWO_PL else request.timestamp
        arrival, self.arrivals = self.arrivals, self.arrivals + 1
        entry = Entry(request, timestamp, arrival, False, self.mode_for(request))
        self.insert(entry)
        self.grant_clock += 1
        entry.granted, entry.grant_order, entry.normal_sent = True, self.grant_clock, True
        if entry.is_read:
            self.read_ts = max(self.read_ts, timestamp)
            entry.implemented = True
        else:
            self.write_ts = max(self.write_ts, timestamp)

    def wait_edges(self, adjacency: Dict) -> None:
        """Add ``waiter -> {holders}`` edges: lock conflicts, earlier waiters, normality."""
        earlier_waiters: set = set()
        for entry in self.queue:
            if entry.granted or entry.blocked:
                continue
            waiter = adjacency.setdefault(entry.transaction, set())
            for lock in self.locks():
                if lock.transaction != entry.transaction and conflict(lock.mode, entry.mode):
                    adjacency.setdefault(lock.transaction, set())
                    waiter.add(lock.transaction)
            waiter.update(earlier_waiters - {entry.transaction})
            earlier_waiters.add(entry.transaction)
        for lock in self.awaiting:
            waiter = adjacency.setdefault(lock.transaction, set())
            for earlier in self.locks():
                if (
                    earlier.transaction != lock.transaction
                    and earlier.grant_order < lock.grant_order
                    and conflict(earlier.mode, lock.mode)
                ):
                    adjacency.setdefault(earlier.transaction, set())
                    waiter.add(earlier.transaction)
