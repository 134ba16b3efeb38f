"""The unified queue manager: one per physical copy.

This is the heart of the paper's integration step (Section 4).  For each
arriving request the queue manager

1. applies the *assignment function* of the request's protocol (2PL appends
   at the tail; T/O accepts or rejects against ``R-TS``/``W-TS``; PA accepts
   or proposes a back-off timestamp), and
2. enforces the assigned precedences with the *semi-lock protocol*: requests
   are considered for granting only when they are ``HD(j)`` (every smaller
   precedence already granted), and the lock they receive — RL, WL or SRL,
   normal or pre-scheduled — follows the rules of Section 4.2.

The queue manager is a pure state machine.  It never sends messages; instead
it appends :mod:`effects <repro.core.effects>` (grants, back-offs,
rejections) to an outbox which the system layer drains, and it records
implemented operations into an :class:`~repro.storage.log.ExecutionLog` so
the serializability oracle can audit the run afterwards.

Two deliberate strengthenings over the paper's prose (both discussed in
DESIGN.md, "Key design decisions"):

* **PA runs as propose/confirm.**  Every PA request is inserted *blocked* and
  answered with a timestamp proposal; it only becomes grantable once the
  issuer broadcasts the agreed timestamp (``update_timestamp``).  The paper's
  one-round variant can grant a request before the agreement finishes, which
  leaves a transaction with different effective precedences at different
  queues and admits PA-PA wait cycles, contradicting Theorem 3.
* **Repair of intermediate conflicts.**  Should a timestamp update ever reach
  a request that is *already granted* at a smaller timestamp (possible only
  when the queue manager is driven directly with the paper's one-round PA),
  any conflicting requests accepted in the meantime with intermediate
  timestamps are re-handled: T/O requests are rejected, PA requests are
  backed off past the new timestamp.  This applies exactly the decision the
  assignment function would have made had the final timestamp been known at
  arrival time, preserving condition (E1).
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.common.errors import ProtocolError
from repro.common.ids import CopyId, TransactionId
from repro.common.operations import OperationType
from repro.common.protocol_names import Protocol
from repro.core.data_queue import DataQueue, EntryStatus, QueuedRequest
from repro.core.deadlock import pack_transaction
from repro.core.effects import BackoffIssued, Effect, GrantIssued, RequestRejected
from repro.core.locks import GrantedLock, LockMode, LockTable, blocking_modes
from repro.core.precedence import Precedence
from repro.core.protocols.base import DecisionKind
from repro.core.protocols.precedence_agreement import PrecedenceAgreementPolicy
from repro.core.protocols.registry import default_policies
from repro.core.requests import Request
from repro.storage.log import ExecutionLog

_READ = OperationType.READ
_ACCEPTED = EntryStatus.ACCEPTED
_BLOCKED = EntryStatus.BLOCKED
_REJECT = DecisionKind.REJECT
_BLOCK = DecisionKind.BLOCK
_TWO_PHASE_LOCKING = Protocol.TWO_PHASE_LOCKING


class _Plan(NamedTuple):
    """Everything an arrival of one protocol needs, looked up once per request.

    ``read`` and ``write`` are ``(lock mode, blocking modes)`` for that
    operation type.
    """

    assign: Callable
    read: Tuple[LockMode, Tuple[LockMode, ...]]
    write: Tuple[LockMode, Tuple[LockMode, ...]]


def _build_plans(semi_locks_enabled: bool) -> Dict[Protocol, _Plan]:
    def locking(protocol, policy, op_type):
        return (
            policy.lock_mode(op_type, semi_locks_enabled),
            blocking_modes(protocol, op_type, semi_locks_enabled),
        )

    return {
        protocol: _Plan(
            assign=policy.assign,
            read=locking(protocol, policy, OperationType.READ),
            write=locking(protocol, policy, OperationType.WRITE),
        )
        for protocol, policy in default_policies().items()
    }


#: Per ``semi_locks_enabled``: protocol -> plan, built once from the default policies.
_PLANS = {semi: _build_plans(semi) for semi in (True, False)}


class QueueManager:
    """Unified concurrency-control manager for one physical copy.

    A request costs a constant handful of steps: one plan lookup fixes its
    assignment function, lock mode and blocking modes; the data queue files
    it by binary search; ``HD(j)`` comes from a cursor; the grant test walks
    only the copy's granted locks; and promotion visits only the locks still
    pre-scheduled (DESIGN.md, "Queue manager representation").
    """

    def __init__(
        self,
        copy: CopyId,
        execution_log: Optional[ExecutionLog] = None,
        *,
        semi_locks_enabled: bool = True,
    ) -> None:
        self._copy = copy
        self._log = execution_log if execution_log is not None else ExecutionLog()
        self._semi_locks_enabled = semi_locks_enabled
        self._plans = _PLANS[semi_locks_enabled]
        self._queue = DataQueue()
        self._locks = LockTable(copy)
        self._effects: List[Effect] = []
        # R-TS(j) / W-TS(j): biggest timestamps of granted read / write requests.
        self._read_ts = float("-inf")
        self._write_ts = float("-inf")
        # Biggest timestamp that has ever appeared in this queue (2PL precedence rule).
        self._max_timestamp_seen = 0.0
        self._arrival_counter = 0
        # Statistics.
        self._grants_issued = 0
        self._rejections = 0
        self._backoffs = 0
        self._crashes = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def copy(self) -> CopyId:
        """The physical copy this queue manager serves."""
        return self._copy

    @property
    def execution_log(self) -> ExecutionLog:
        """The shared execution log the manager appends implemented operations to."""
        return self._log

    @property
    def read_ts(self) -> float:
        """``R-TS(j)``: biggest timestamp of a granted read request."""
        return self._read_ts

    @property
    def write_ts(self) -> float:
        """``W-TS(j)``: biggest timestamp of a granted write request."""
        return self._write_ts

    @property
    def semi_locks_enabled(self) -> bool:
        """Whether unified enforcement uses semi-locks (vs. full locks, the E6 ablation)."""
        return self._semi_locks_enabled

    @property
    def grants_issued(self) -> int:
        """Number of lock grants issued so far."""
        return self._grants_issued

    @property
    def rejections(self) -> int:
        """Number of T/O rejections issued so far."""
        return self._rejections

    @property
    def backoffs(self) -> int:
        """Number of PA back-offs issued so far."""
        return self._backoffs

    @property
    def crashes(self) -> int:
        """Number of times this queue manager's site has crashed."""
        return self._crashes

    def holds_granted_lock(self, request_id) -> bool:
        """Whether the granted, unreleased lock for ``request_id`` is still in place.

        The two-phase commit participant's vote hinges on this: a site crash
        wipes the volatile lock table, and a transaction whose lock vanished
        can no longer be guaranteed its write order, so the participant must
        vote *no* for it.
        """
        return request_id in self._locks

    def queue_entries(self) -> Tuple[QueuedRequest, ...]:
        """Current queue contents in precedence order (granted entries included)."""
        return self._queue.entries()

    def granted_locks(self) -> Tuple[GrantedLock, ...]:
        """Granted, unreleased locks in grant order."""
        return self._locks.locks()

    def queue_length(self) -> int:
        """Number of entries currently in the data queue."""
        return len(self._queue)

    def drain_effects(self) -> List[Effect]:
        """Return and clear the pending effects (grants, back-offs, rejections)."""
        effects, self._effects = self._effects, []
        return effects

    # ------------------------------------------------------------------ #
    # Request issuer -> queue manager entry points
    # ------------------------------------------------------------------ #

    def submit(self, request: Request, now: float) -> None:
        """Handle the arrival of a new request (the paper's QM step 2(b)-(c))."""
        copy = request.copy
        if copy != self._copy:
            raise ProtocolError(
                f"request for {copy} submitted to the queue manager of {self._copy}"
            )
        plan = self._plans[request.protocol]
        kind, precedence, backoff_timestamp = plan.assign(
            request, self._read_ts, self._write_ts, self._max_timestamp_seen, self._arrival_counter
        )
        self._arrival_counter += 1

        if kind is _REJECT:
            self._rejections += 1
            self._effects.append(RequestRejected(request=request, time=now))
            return

        if kind is _BLOCK:
            status = _BLOCKED
            if backoff_timestamp is not None and backoff_timestamp > request.timestamp:
                self._backoffs += 1
        else:
            status = _ACCEPTED
        mode, blockers = plan.read if request.op_type is _READ else plan.write
        entry = QueuedRequest(
            request=request,
            precedence=precedence,
            status=status,
            enqueue_time=now,
            mode=mode,
            blockers=blockers,
        )
        self._queue.insert(entry)
        if status is _BLOCKED:
            self._note_timestamp(precedence.timestamp)
            self._effects.append(
                BackoffIssued(request=request, new_timestamp=backoff_timestamp, time=now)
            )
            return
        if request.protocol is not _TWO_PHASE_LOCKING:
            self._note_timestamp(request.timestamp)
        self._try_grant(now)

    def update_timestamp(
        self, transaction: TransactionId, new_timestamp: float, now: float
    ) -> None:
        """Apply a PA transaction's agreed timestamp (the paper's QM step 2(d)).

        Blocked and not-yet-granted entries of the transaction move to the new
        precedence and become accepted.  Already-granted entries keep their
        grants but their recorded timestamps (and ``R-TS``/``W-TS``) are bumped,
        and any conflicting intermediate arrivals are re-handled (see the
        module docstring).
        """
        self._note_timestamp(new_timestamp)
        entries = self._queue.entries_of(transaction)
        for entry in entries:
            if entry.granted:
                self._bump_granted_timestamp(entry, new_timestamp, now)
            else:
                if new_timestamp > entry.precedence.timestamp or entry.status is _BLOCKED:
                    entry.precedence = entry.precedence.with_timestamp(
                        max(new_timestamp, entry.precedence.timestamp)
                    )
                entry.status = _ACCEPTED
        # Only this transaction's precedences moved, and precedences of
        # different transactions never tie, so re-filing its entries orders
        # the queue exactly as a full stable re-sort would.
        self._queue.refile(entries)
        self._try_grant(now)

    def release(
        self, transaction: TransactionId, now: float, attempt: Optional[int] = None
    ) -> None:
        """Release every lock ``transaction`` holds here and drop its queue entries.

        Operations that have not been implemented yet (no prior downgrade) are
        recorded as implemented at release time — the paper's definition of
        the implementation instant for 2PL and PA operations.  With
        ``attempt`` given only that attempt's entries are touched (used by the
        two-phase commit participant, which releases exactly the attempt it
        holds a prepared record for).
        """
        for entry in self._queue.entries_of(transaction):
            request_id = entry.request.request_id
            if attempt is not None and request_id.attempt != attempt:
                continue
            lock = entry.lock
            if entry.granted and lock is not None:
                self._implement(lock, entry.request, now)
                self._locks.release(request_id)
            self._queue.remove(request_id)
        # Every operation of the released attempt(s) is implemented (reads at
        # grant time, writes just above), so this copy is quiesced for the
        # transaction: no further log entry of it can appear here.
        self._log.note_quiesced(self._copy, transaction, attempt)
        self._promote_pre_scheduled(now)
        self._try_grant(now)

    def downgrade(self, transaction: TransactionId, now: float) -> None:
        """Convert ``transaction``'s locks here into semi-locks (RL->SRL, WL->SWL).

        Called by the issuer of a T/O transaction that finished execution
        while holding at least one pre-scheduled lock.  The operations are
        recorded as implemented now; the locks stay in place (still blocking
        2PL and PA requests) until the final release.
        """
        if not self._semi_locks_enabled:
            raise ProtocolError("downgrade is only meaningful when semi-locks are enabled")
        changed = False
        for lock in self._locks.locks_of(transaction):
            entry = self._queue.find(lock.request_id)
            if entry is None:
                raise ProtocolError(f"granted lock {lock.request_id} has no queue entry")
            self._implement(lock, entry.request, now)
            self._locks.downgrade(lock)
            changed = True
        if changed:
            self._try_grant(now)

    def release_prepared(
        self, transaction: TransactionId, now: float, attempt: Optional[int] = None
    ) -> None:
        """Release a committed 2PC attempt's locks, honouring the semi-lock rule.

        Invoked by the commit participant when it applies a commit decision.
        Normally-granted locks release immediately (implementing their
        operations, exactly like :meth:`release`).  A T/O lock that is still
        *pre-scheduled* — an earlier conflicting lock remains unreleased —
        must not vanish yet: Section 4.2 rule 4 keeps it in place as a
        semi-lock so later 2PL/PA requests cannot slip in front of the
        not-yet-finished earlier operation (the inversion
        ``examples/semilock_necessity.py`` demonstrates).  The operation is
        implemented now (as the one-phase downgrade does), the lock is
        downgraded, and it is flagged to auto-release the moment it becomes
        normal — the participant has no reason to hold it a tick longer.
        """
        for entry in self._queue.entries_of(transaction):
            request_id = entry.request.request_id
            if attempt is not None and request_id.attempt != attempt:
                continue
            lock = entry.lock
            if entry.granted and lock is not None:
                defer = (
                    self._semi_locks_enabled
                    and lock.protocol is Protocol.TIMESTAMP_ORDERING
                    and not lock.normal_grant_sent
                )
                self._implement(lock, entry.request, now)
                if defer:
                    self._locks.downgrade(lock)
                    lock.release_on_normal = True
                    continue
                self._locks.release(request_id)
            self._queue.remove(request_id)
        # A deferred semi-lock only delays the *lock* release; its operation
        # was implemented above, so the copy is quiesced for this attempt
        # regardless.
        self._log.note_quiesced(self._copy, transaction, attempt)
        self._promote_pre_scheduled(now)
        self._try_grant(now)

    def abort(
        self, transaction: TransactionId, now: float, attempt: Optional[int] = None
    ) -> None:
        """Remove every trace of ``transaction`` without recording implementations.

        Used for T/O restarts and 2PL deadlock victims, which by construction
        have not executed yet.  Reads the attempt had already recorded (reads
        take effect at grant time) are withdrawn from the execution log so
        that only committed work is audited for serializability.  The log
        withdrawal does not depend on finding queue entries: a site crash may
        have wiped the volatile queue state while the durable log still holds
        the attempt's tentative reads.  ``attempt`` restricts the abort to one
        attempt's entries (two-phase recovery resolving an old in-doubt round).
        """
        for entry in self._queue.entries_of(transaction):
            request_id = entry.request.request_id
            if attempt is not None and request_id.attempt != attempt:
                continue
            if entry.granted and entry.lock is not None and request_id in self._locks:
                self._locks.release(request_id)
            self._queue.remove(request_id)
        self._log.remove_transaction(self._copy, transaction, attempt)
        self._promote_pre_scheduled(now)
        self._try_grant(now)

    # ------------------------------------------------------------------ #
    # Site failure (fault model) entry points
    # ------------------------------------------------------------------ #

    def crash(self, now: float) -> None:
        """Fail-stop: lose all volatile state (data queue, lock table, outbox).

        Timestamps (``R-TS``/``W-TS``/max-seen) survive — recovery restores
        them conservatively, the standard cheap trick that keeps T/O sound
        after a crash — and the shared execution log and value store are
        durable by definition.  Everything queued or granted is simply gone:
        transactions that held locks here can no longer be guaranteed their
        write order, which is exactly what the two-phase commit participant's
        vote verification checks.
        """
        self._queue = DataQueue()
        self._locks = LockTable(self._copy)
        self._effects = []
        self._crashes += 1

    def restore_lock(self, request: Request, now: float) -> None:
        """Re-install a prepared (in-doubt) transaction's granted lock after recovery.

        Standard 2PC recovery: before a recovered site accepts new work, the
        locks of transactions in the prepared state are re-acquired from the
        commit log so their pending writes keep their place in the conflict
        order.  The lock is granted immediately (the queue is empty right
        after a crash wipe) and no grant effect is emitted — the issuer
        already holds the original grant.  A restored read is marked
        implemented: its log entry, recorded at the original grant instant,
        survived the crash in the durable execution log.
        """
        if request.copy != self._copy:
            raise ProtocolError(
                f"lock for {request.copy} restored at the queue manager of {self._copy}"
            )
        plan = self._plans[request.protocol]
        mode, blockers = plan.read if request.op_type is _READ else plan.write
        if request.protocol.is_two_phase_locking:
            timestamp = self._max_timestamp_seen
        else:
            timestamp = request.timestamp
        precedence = Precedence(
            timestamp=timestamp,
            protocol=request.protocol,
            site=request.transaction.site,
            transaction=request.transaction,
            arrival_seq=self._arrival_counter,
        )
        self._arrival_counter += 1
        entry = QueuedRequest(
            request=request,
            precedence=precedence,
            status=EntryStatus.ACCEPTED,
            enqueue_time=now,
            mode=mode,
            blockers=blockers,
        )
        self._queue.insert(entry)
        lock = self._locks.grant(
            request_id=entry.request_id,
            transaction=entry.transaction,
            protocol=request.protocol,
            mode=mode,
            time=now,
            pre_scheduled=False,
        )
        entry.granted = True
        entry.lock = lock
        if request.is_read:
            self._read_ts = max(self._read_ts, timestamp)
            lock.implemented = True
        else:
            self._write_ts = max(self._write_ts, timestamp)

    # ------------------------------------------------------------------ #
    # Wait-for information for the deadlock detector
    # ------------------------------------------------------------------ #

    def wait_edges(self) -> List[Tuple[TransactionId, TransactionId]]:
        """Edges ``(waiter, holder)`` contributed by this queue to the wait-for graph.

        A not-yet-granted request waits for (a) every transaction holding an
        unreleased lock that conflicts with the mode it is asking for, and
        (b) every transaction with a not-yet-granted entry ahead of it in the
        queue (the ``HD(j)`` rule prevents it from being considered until
        those are granted).  Blocked PA entries wait only for their own
        issuer's timestamp agreement, so they contribute no outgoing edges.
        A finished T/O transaction whose downgraded semi-lock is still
        pre-scheduled waits, without any queue entry, for (c) every holder of
        an earlier conflicting lock (Section 4.2 rule 4).
        """
        adjacency: Dict[int, set] = {}
        transaction_of: Dict[int, TransactionId] = {}
        self.collect_wait_edges(adjacency, transaction_of)
        return [
            (transaction_of[waiter_key], transaction_of[holder_key])
            for waiter_key, holders in adjacency.items()
            for holder_key in sorted(holders)
        ]

    def collect_wait_edges(
        self,
        adjacency: Dict[int, set],
        transaction_of: Dict[int, TransactionId],
    ) -> None:
        """Accumulate this queue's wait-for edges into a packed-key adjacency.

        Fast path for :class:`~repro.system.detector.DeadlockDetectorActor`
        (and the single source of truth for the edge rules — :meth:`wait_edges`
        unpacks this adjacency): one edge per conflicting lock holder plus one
        per distinct earlier ungranted waiter, written straight into
        ``adjacency`` keyed by :func:`pack_transaction` ints, using one bulk
        ``set.update`` per waiter instead of a tuple per edge.

        Blocked (negotiation-pending) PA entries resolve on their own —
        waiting behind one is not a wait on another transaction's progress, so
        they are neither waiters nor waited-on here.
        """
        prior_keys: set = set()
        for entry in self._queue:
            if entry.granted or entry.is_blocked:
                continue
            waiter = entry.transaction
            waiter_key = pack_transaction(waiter)
            bucket = adjacency.get(waiter_key)
            if bucket is None:
                bucket = adjacency[waiter_key] = set()
                transaction_of[waiter_key] = waiter
            for lock in self._locks.conflicting_locks(entry.mode, excluding=waiter):
                holder = lock.transaction
                holder_key = pack_transaction(holder)
                if holder_key not in adjacency:
                    adjacency[holder_key] = set()
                    transaction_of[holder_key] = holder
                bucket.add(holder_key)
            if prior_keys:
                bucket.update(prior_keys)
                bucket.discard(waiter_key)
            prior_keys.add(waiter_key)
        # Normality waits: the holder releases nothing until these locks
        # turn normal (DESIGN.md, "Normality waits in the wait-for graph").
        for lock in self._locks.awaiting_normal():
            waiter = lock.transaction
            waiter_key = pack_transaction(waiter)
            transaction_of[waiter_key] = waiter
            bucket = adjacency.setdefault(waiter_key, set())
            for earlier in self._locks.conflicting_locks(
                lock.mode, excluding=waiter, granted_before=lock.grant_seq
            ):
                holder_key = pack_transaction(earlier.transaction)
                transaction_of[holder_key] = earlier.transaction
                adjacency.setdefault(holder_key, set())
                bucket.add(holder_key)

    def blocked_transactions(self) -> Tuple[TransactionId, ...]:
        """Transactions with at least one ungranted, non-blocked entry here."""
        seen: Dict[TransactionId, None] = {}  # insertion-ordered set
        for entry in self._queue.ungranted():
            if not entry.is_blocked:
                seen.setdefault(entry.transaction, None)
        return tuple(seen)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _note_timestamp(self, timestamp: float) -> None:
        if timestamp > self._max_timestamp_seen:
            self._max_timestamp_seen = timestamp

    def _try_grant(self, now: float) -> None:
        """Grant ``HD(j)`` while it is grantable (the paper's QM step 2(e)).

        The head is grantable when no other transaction holds one of its
        blocking modes (Section 4.2 rule 2, fixed per entry on arrival).
        """
        queue, locks = self._queue, self._locks
        while True:
            entry = queue.head()
            if entry is None or entry.status is _BLOCKED:
                return
            request = entry.request
            lock = locks.acquire(
                request.request_id,
                request.transaction,
                request.protocol,
                entry.mode,
                entry.blockers,
                now,
            )
            if lock is None:
                return
            entry.granted = True
            entry.lock = lock
            timestamp = entry.precedence.timestamp
            if request.op_type is _READ:
                if timestamp > self._read_ts:
                    self._read_ts = timestamp
                # A read takes effect the moment its lock is granted: the value
                # it observes is attached to the grant (paper, Section 3.4 step
                # 1(g)), so this is the instant that orders it against
                # conflicting writes.
                self._implement(lock, request, now)
            elif timestamp > self._write_ts:
                self._write_ts = timestamp
            self._grants_issued += 1
            normal = not lock.pre_scheduled
            self._effects.append(
                GrantIssued(request=request, mode=lock.mode, normal=normal, time=now)
            )

    def _promote_pre_scheduled(self, now: float) -> None:
        """Send normal grants for pre-scheduled locks whose earlier conflicts are gone.

        Only the lock table's pre-scheduled locks can turn normal, so a
        release visits those alone, in grant order, and usually none.
        """
        for lock in self._locks.pre_scheduled():
            if lock.request_id not in self._locks:
                continue  # auto-released earlier in this very pass
            if self._locks.conflicting_locks(
                lock.mode, excluding=lock.transaction, granted_before=lock.grant_seq
            ):
                continue
            self._locks.mark_normal(lock)
            entry = self._queue.find(lock.request_id)
            if entry is None:
                continue
            if lock.release_on_normal:
                # The 2PC holder already committed and "released": the
                # semi-lock's ordering job ends the instant it turns normal,
                # and nobody is waiting for a grant effect.
                self._locks.release(lock.request_id)
                self._queue.remove(lock.request_id)
                continue
            self._effects.append(
                GrantIssued(request=entry.request, mode=lock.mode, normal=True, time=now)
            )

    def _implement(self, lock: GrantedLock, request: Request, now: float) -> None:
        """Record the operation as implemented exactly once (paper, Section 4.3)."""
        if lock.implemented:
            return
        self._log.record(
            copy=self._copy,
            transaction=lock.transaction,
            op_type=request.op_type,
            protocol=lock.protocol,
            time=now,
            attempt=lock.request_id.attempt,
        )
        lock.implemented = True

    def _bump_granted_timestamp(
        self, entry: QueuedRequest, new_timestamp: float, now: float
    ) -> None:
        """Raise a granted entry's timestamp to the PA-agreed value and repair the queue."""
        old_timestamp = entry.precedence.timestamp
        if new_timestamp <= old_timestamp:
            return
        entry.precedence = entry.precedence.with_timestamp(new_timestamp)
        if entry.request.is_read:
            self._read_ts = max(self._read_ts, new_timestamp)
        else:
            self._write_ts = max(self._write_ts, new_timestamp)
        self._rehandle_intermediate_conflicts(entry, old_timestamp, new_timestamp, now)

    def _rehandle_intermediate_conflicts(
        self,
        granted_entry: QueuedRequest,
        old_timestamp: float,
        new_timestamp: float,
        now: float,
    ) -> None:
        """Re-decide conflicting, ungranted arrivals whose timestamps fell in the gap.

        They were accepted against the granted request's original timestamp;
        with the agreed timestamp known they would have been rejected (T/O) or
        backed off (PA), so that decision is applied now.  2PL entries are
        unaffected: their precedence is arrival-based and the serializability
        argument for them rests on locking, not timestamps.
        """
        for entry in list(self._queue.ungranted()):
            if entry.transaction == granted_entry.transaction:
                continue
            if not entry.request.conflicts_with(granted_entry.request):
                continue
            timestamp = entry.precedence.timestamp
            if not old_timestamp <= timestamp <= new_timestamp:
                continue
            protocol = entry.request.protocol
            if protocol.is_timestamp_ordering:
                self._queue.remove(entry.request_id)
                self._rejections += 1
                self._effects.append(
                    RequestRejected(
                        request=entry.request,
                        time=now,
                        reason="conflicting PA timestamp agreement",
                    )
                )
            elif protocol.is_precedence_agreement:
                backoff = PrecedenceAgreementPolicy.backoff_timestamp(
                    entry.request.timestamp, entry.request.backoff_interval, new_timestamp
                )
                entry.precedence = entry.precedence.with_timestamp(backoff)
                entry.status = EntryStatus.BLOCKED
                self._backoffs += 1
                self._note_timestamp(backoff)
                self._effects.append(
                    BackoffIssued(request=entry.request, new_timestamp=backoff, time=now)
                )
        self._queue.resort()
