"""Per-copy operation logs.

Section 2 of the paper models an execution as "a set of logs.  There is one
log associated with each physical data item.  The log indicates the order in
which physical operations are implemented on that data item."  These logs are
the ground truth the serializability oracle (Theorem 1 / Theorem 2) operates
on, so the queue managers append to them at the exact instant an operation is
*implemented* in the paper's sense (lock released, or lock downgraded to a
semi-lock for T/O operations).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.common.errors import SimulationError
from repro.common.ids import CopyId, SiteId, TransactionId
from repro.common.operations import OperationType
from repro.common.protocol_names import Protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.requests import Request


@dataclass(frozen=True)
class LogEntry:
    """One implemented physical operation.

    ``attempt`` records which execution attempt of the transaction
    implemented the operation; the two-phase commit layer's recovery needs
    it to withdraw exactly one aborted attempt's tentative reads without
    touching entries a newer attempt already recorded.
    """

    copy: CopyId
    transaction: TransactionId
    op_type: OperationType
    protocol: Protocol
    time: float
    attempt: int = 0

    def conflicts_with(self, other: "LogEntry") -> bool:
        """Entries conflict when they touch the same copy, come from different
        transactions, and at least one is a write."""
        return (
            self.copy == other.copy
            and self.transaction != other.transaction
            and self.op_type.conflicts_with(other.op_type)
        )


class CopyLog:
    """Implementation-order log for one physical copy."""

    def __init__(self, copy: CopyId) -> None:
        self._copy = copy
        self._entries: List[LogEntry] = []
        # Entries per transaction, so removals for transactions that never
        # recorded anything here (the common case for aborts) stay O(1).
        self._entry_counts: Dict[TransactionId, int] = {}

    @property
    def copy(self) -> CopyId:
        """The physical copy this log records."""
        return self._copy

    def append(
        self,
        transaction: TransactionId,
        op_type: OperationType,
        protocol: Protocol,
        time: float,
        attempt: int = 0,
    ) -> LogEntry:
        """Record that ``transaction`` implemented an operation on this copy at ``time``."""
        entry = LogEntry(self._copy, transaction, op_type, protocol, time, attempt)
        self._entries.append(entry)
        self._entry_counts[transaction] = self._entry_counts.get(transaction, 0) + 1
        return entry

    def entries(self) -> Tuple[LogEntry, ...]:
        """The implemented operations in implementation order."""
        return tuple(self._entries)

    def transactions(self) -> Tuple[TransactionId, ...]:
        """Transactions with at least one entry here (O(distinct), unsorted)."""
        return tuple(self._entry_counts)

    def has_transaction(self, transaction: TransactionId) -> bool:
        """Whether ``transaction`` has at least one entry in this log."""
        return transaction in self._entry_counts

    def remove_transaction(self, transaction: TransactionId, attempt: Optional[int] = None) -> int:
        """Remove entries of ``transaction`` (used when an attempt aborts).

        Only committed transactions participate in the serializability check;
        an aborted attempt may already have recorded its reads (reads take
        effect at lock-grant time), so those tentative entries are withdrawn
        here.  With ``attempt`` given, only that attempt's entries go — the
        two-phase recovery path resolving an old in-doubt attempt must not
        disturb entries a newer attempt of the same transaction recorded.
        Returns the number of entries removed.
        """
        if not self._entry_counts.get(transaction):
            return 0
        before = len(self._entries)
        self._entries = [
            entry
            for entry in self._entries
            if entry.transaction != transaction
            or (attempt is not None and entry.attempt != attempt)
        ]
        removed = before - len(self._entries)
        if removed:
            remaining = self._entry_counts[transaction] - removed
            if remaining:
                self._entry_counts[transaction] = remaining
            else:
                del self._entry_counts[transaction]
        return removed

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self._entries)

    def conflict_edges(self) -> Iterator[Tuple[TransactionId, TransactionId]]:
        """Yield ``(earlier, later)`` pairs that generate this copy's conflict order.

        One pass keeps the last writer and the distinct readers since its
        write.  Any operation by ``T`` yields ``last_writer -> T``; a write
        also yields ``reader -> T`` for each of those readers, and ``T``
        becomes the last writer with no readers.  Pairs of a transaction with
        itself are skipped.

        Every yielded pair is a real conflict (one side is a write, the
        transactions differ, the first is implemented first).  Every other
        conflicting pair is a path through the yielded ones — a write reaches
        any later operation along the chain of writes in between, a read
        reaches any later write through the first write after it — so a graph
        built from these edges has the same reachability as one built from
        all conflicting pairs: the same cycles-or-not verdict and the same
        lexicographically-smallest topological order.  A read yields at most
        one pair and a write at most one per read since the previous write
        plus one, so at most ``2 * len(self)`` pairs are yielded in total.

        A pair recurs when the same two transactions meet again later in the
        log; callers deduplicate (the conflict graph stores successor *sets*).
        """
        last_writer: Optional[TransactionId] = None
        readers: Dict[TransactionId, None] = {}  # insertion-ordered set
        for entry in self._entries:
            transaction = entry.transaction
            if last_writer is not None and last_writer != transaction:
                yield last_writer, transaction
            if entry.op_type.is_write:
                for reader in readers:
                    if reader != transaction:
                        yield reader, transaction
                last_writer = transaction
                readers.clear()
            else:
                readers[transaction] = None


class ExecutionLog:
    """The full execution: one :class:`CopyLog` per physical copy.

    The log doubles as the audit pipeline's event bus: observers attached
    with :meth:`attach_observer` see every recorded entry, every withdrawal,
    and every per-copy quiesce notification (the queue managers report the
    processing of a transaction's final release through
    :meth:`note_quiesced`).  In ``bounded`` mode the incremental
    serializability checker calls :meth:`retire_transaction` as transactions
    retire, so the durable log only ever holds the live window of the
    execution instead of its full history.
    """

    def __init__(self, *, bounded: bool = False) -> None:
        self._logs: Dict[CopyId, CopyLog] = {}
        self._bounded = bounded
        self._observers: List[Any] = []
        # Copies each transaction has live entries at, so retirement drops a
        # transaction in O(its own entries) instead of a full-log sweep.
        self._copies_of: Dict[TransactionId, Set[CopyId]] = {}
        self._entries_retired = 0

    @property
    def bounded(self) -> bool:
        """Whether retired transactions' entries are dropped from the log."""
        return self._bounded

    @property
    def entries_retired(self) -> int:
        """Entries dropped by :meth:`retire_transaction` so far."""
        return self._entries_retired

    def attach_observer(self, observer: Any) -> None:
        """Attach an audit observer.

        ``observer`` duck-types three callbacks: ``entry_recorded(entry)``,
        ``entries_withdrawn(copy, transaction, attempt)`` and
        ``transaction_quiesced(copy, transaction, attempt)``.
        """
        self._observers.append(observer)

    def log_for(self, copy: CopyId) -> CopyLog:
        """The log for ``copy``, created on first use."""
        if copy not in self._logs:
            self._logs[copy] = CopyLog(copy)
        return self._logs[copy]

    def record(
        self,
        copy: CopyId,
        transaction: TransactionId,
        op_type: OperationType,
        protocol: Protocol,
        time: float,
        attempt: int = 0,
    ) -> LogEntry:
        """Append an implemented operation to the log of ``copy``."""
        entry = self.log_for(copy).append(transaction, op_type, protocol, time, attempt)
        self._copies_of.setdefault(transaction, set()).add(copy)
        for observer in self._observers:
            observer.entry_recorded(entry)
        return entry

    def remove_transaction(
        self, copy: CopyId, transaction: TransactionId, attempt: Optional[int] = None
    ) -> int:
        """Withdraw the tentative entries of ``transaction`` from the log of ``copy``.

        ``attempt`` restricts the withdrawal to one attempt's entries (see
        :meth:`CopyLog.remove_transaction`).
        """
        if copy not in self._logs:
            return 0
        log = self._logs[copy]
        removed = log.remove_transaction(transaction, attempt)
        if removed:
            if not log.has_transaction(transaction):
                copies = self._copies_of.get(transaction)
                if copies is not None:
                    copies.discard(copy)
                    if not copies:
                        del self._copies_of[transaction]
            for observer in self._observers:
                observer.entries_withdrawn(copy, transaction, attempt)
        return removed

    def note_quiesced(
        self, copy: CopyId, transaction: TransactionId, attempt: Optional[int] = None
    ) -> None:
        """Report that ``copy`` processed the final release of ``transaction``.

        Pure notification for the audit observers — the log itself does not
        change.  After this point no further entry of the released attempt
        (``None`` = any attempt) can be recorded at ``copy``, which is the
        fact the incremental serializability checker's retirement needs.
        """
        for observer in self._observers:
            observer.transaction_quiesced(copy, transaction, attempt)

    def retire_transaction(self, transaction: TransactionId) -> int:
        """Drop every entry of a retired transaction (bounded mode).

        Called by the incremental checker once ``transaction`` can never
        again participate in a conflict; unlike :meth:`remove_transaction`
        this is not a withdrawal (the operations *happened* and were
        audited), so observers are not notified.  Returns the number of
        entries dropped.
        """
        dropped = 0
        for copy in self._copies_of.pop(transaction, ()):
            log = self._logs.get(copy)
            if log is not None:
                dropped += log.remove_transaction(transaction)
        self._entries_retired += dropped
        return dropped

    def copies(self) -> Tuple[CopyId, ...]:
        """Every copy that has at least one implemented operation."""
        return tuple(self._logs)

    def logs(self) -> Iterable[CopyLog]:
        """The per-copy logs, keyed by copy id."""
        return self._logs.values()

    def iter_entries(self) -> Iterator[LogEntry]:
        """Stream every log entry across all copies without materialising a list."""
        for log in self._logs.values():
            yield from log

    def all_entries(self) -> List[LogEntry]:
        """Every log entry across all copies, in no particular global order.

        Materialises the full list — callers that only need iteration or
        counts should use :meth:`iter_entries` / :meth:`total_operations`,
        which stay lazy (and therefore bounded in streaming-audit runs).
        """
        return list(self.iter_entries())

    def transactions(self) -> Tuple[TransactionId, ...]:
        """Every transaction that implemented at least one operation."""
        seen: Set[TransactionId] = set()
        for log in self._logs.values():
            seen.update(log.transactions())
        return tuple(sorted(seen))

    def total_operations(self) -> int:
        """Total implemented operations across all copies."""
        return sum(len(log) for log in self._logs.values())


# --------------------------------------------------------------------------- #
# Commit logging (the durable state behind two-phase commit)
# --------------------------------------------------------------------------- #


class CommitDecision(enum.Enum):
    """Outcome of an atomic-commit round."""

    COMMIT = "commit"
    ABORT = "abort"

    @property
    def is_commit(self) -> bool:
        """Whether the decision commits the transaction."""
        return self is CommitDecision.COMMIT


@dataclass
class PreparedRecord:
    """Durable participant-side record of one prepared transaction attempt.

    Written by a commit participant *before* it votes yes (the write-ahead
    rule of presumed-nothing 2PC): the record survives a site crash and is
    everything recovery needs — the granted requests to re-install as locks,
    the pending writes to apply on a commit decision, and the coordinator to
    ask when the decision never arrived.
    """

    transaction: TransactionId
    attempt: int
    coordinator: str
    requests: Tuple["Request", ...]
    writes: Dict[CopyId, Any]
    prepared_at: float
    decision: Optional[CommitDecision] = None
    decided_at: Optional[float] = None
    #: Sites of the round's other participants: the cooperative termination
    #: protocol queries their commit participants when the coordinator is
    #: unreachable.  Empty for rounds run before the termination protocol
    #: existed or when the coordinator chose not to share the membership.
    participants: Tuple[SiteId, ...] = ()
    #: Decision the participant must acknowledge back to the coordinator so
    #: it can forget the outcome record (presumed-abort acks commits,
    #: presumed-commit acks aborts, presumed-nothing acks neither).
    ack_decision: Optional[CommitDecision] = None

    @property
    def in_doubt(self) -> bool:
        """Whether the participant is still blocked on the coordinator's decision."""
        return self.decision is None


@dataclass(frozen=True)
class DecisionRecord:
    """Durable coordinator-side record of one commit decision."""

    transaction: TransactionId
    attempt: int
    decision: CommitDecision
    time: float


@dataclass
class BeginRecord:
    """Durable coordinator-side record that a commit round started.

    Presumed-commit forces this record *before* any prepare request leaves
    the coordinator: after a coordinator crash the recovery walk needs to
    know which rounds were in flight, because with commit presumed an
    absent outcome record means "committed" and only the begin record tells
    recovery which in-flight rounds must instead be aborted explicitly.
    """

    transaction: TransactionId
    attempt: int
    participants: Tuple[SiteId, ...]
    time: float
    #: Set once the round's decision is logged (or presumed); decided begin
    #: records are garbage the next checkpoint collects.
    decided: bool = False


class SiteCommitLog:
    """The durable commit log of one site.

    Holds both roles' records: :class:`PreparedRecord` entries written by the
    site's commit participant, and :class:`DecisionRecord` entries written by
    the site's coordinator.  Records are keyed by ``(transaction, attempt)``
    because a transaction aborted in one commit round can prepare again under
    a later attempt while the old round's record is still in doubt at a
    crashed site.
    """

    def __init__(self, site: SiteId) -> None:
        self._site = site
        self._prepared: Dict[Tuple[TransactionId, int], PreparedRecord] = {}
        self._decisions: Dict[Tuple[TransactionId, int], DecisionRecord] = {}
        self._begins: Dict[Tuple[TransactionId, int], BeginRecord] = {}
        # Decisions the coordinator may forget once every listed participant
        # has acknowledged, and decisions covered by a presumption (readable
        # from the *absence* of a record, so immediately collectable).
        self._ack_tracked: Dict[Tuple[TransactionId, int], Set[SiteId]] = {}
        self._presumed: Set[Tuple[TransactionId, int]] = set()
        self._forced_writes = 0
        self._lazy_writes = 0
        self._records_truncated = 0
        self._peak_records = 0

    @property
    def site(self) -> SiteId:
        """The site this log belongs to."""
        return self._site

    @property
    def forced_writes(self) -> int:
        """Number of forced (synchronous) log writes issued at this site."""
        return self._forced_writes

    @property
    def lazy_writes(self) -> int:
        """Number of lazy (asynchronous) log writes issued at this site."""
        return self._lazy_writes

    @property
    def records_truncated(self) -> int:
        """Total records reclaimed by checkpoint truncation so far."""
        return self._records_truncated

    @property
    def peak_records(self) -> int:
        """Largest number of live log records ever held at once."""
        return self._peak_records

    def record_count(self) -> int:
        """Number of live (untruncated) records in the log right now."""
        return len(self._prepared) + len(self._decisions) + len(self._begins)

    def _count_write(self, forced: bool) -> None:
        if forced:
            self._forced_writes += 1
        else:
            self._lazy_writes += 1
        self._peak_records = max(self._peak_records, self.record_count())

    def log_prepared(self, record: PreparedRecord, *, forced: bool = True) -> None:
        """Durably record that a transaction attempt prepared here.

        ``forced`` distinguishes a synchronous write the participant must
        wait out before voting (the presumed-nothing/update-participant
        rule) from a lazy one (read-only participants under presumed-abort
        and presumed-commit, whose vote carries no redo obligation).
        """
        key = (record.transaction, record.attempt)
        if key in self._prepared:
            raise SimulationError(
                f"transaction {record.transaction} attempt {record.attempt} "
                f"prepared twice at site {self._site}"
            )
        self._prepared[key] = record
        self._count_write(forced)

    def prepared_record(
        self, transaction: TransactionId, attempt: int
    ) -> Optional[PreparedRecord]:
        """The prepared record of one attempt, or ``None``."""
        return self._prepared.get((transaction, attempt))

    def in_doubt_records(self) -> Tuple[PreparedRecord, ...]:
        """Every prepared record still waiting for a decision, oldest first."""
        return tuple(
            record
            for record in self._prepared.values()
            if record.in_doubt
        )

    def log_decision(
        self,
        transaction: TransactionId,
        attempt: int,
        decision: CommitDecision,
        time: float,
        *,
        forced: bool = True,
        await_acks_from: Tuple[SiteId, ...] = (),
        presumed: bool = False,
    ) -> DecisionRecord:
        """Durably record a coordinator's commit/abort decision.

        ``forced`` marks a synchronous write (the decision must hit the log
        before any outcome message leaves); a lazy decision record may be
        written after the fact, which is presumed-commit's saving on the
        commit path.  ``await_acks_from`` lists participant sites whose
        acknowledgements allow the record to be garbage-collected at the
        next checkpoint; ``presumed`` marks a decision the protocol can
        reconstruct from the record's *absence*, collectable immediately.
        Decisions with neither (presumed-nothing's) are retained forever.
        """
        key = (transaction, attempt)
        record = DecisionRecord(transaction, attempt, decision, time)
        self._decisions[key] = record
        if await_acks_from:
            self._ack_tracked[key] = set(await_acks_from)
        if presumed:
            self._presumed.add(key)
        begin = self._begins.get(key)
        if begin is not None:
            begin.decided = True
        self._count_write(forced)
        return record

    def record_ack(self, transaction: TransactionId, attempt: int, site: SiteId) -> None:
        """Note a participant's acknowledgement of an outcome message.

        Unknown acknowledgements (for decisions that never tracked acks, or
        duplicates after a retry) are ignored — acks only ever *release*
        retention obligations.
        """
        pending = self._ack_tracked.get((transaction, attempt))
        if pending is not None:
            pending.discard(site)

    def log_begin(
        self,
        transaction: TransactionId,
        attempt: int,
        participants: Tuple[SiteId, ...],
        time: float,
        *,
        forced: bool = True,
    ) -> BeginRecord:
        """Durably record that a commit round with ``participants`` started."""
        record = BeginRecord(transaction, attempt, tuple(participants), time)
        self._begins[(transaction, attempt)] = record
        self._count_write(forced)
        return record

    def begin_record(
        self, transaction: TransactionId, attempt: int
    ) -> Optional[BeginRecord]:
        """The begin record of one attempt, or ``None``."""
        return self._begins.get((transaction, attempt))

    def undecided_begin_records(self) -> Tuple[BeginRecord, ...]:
        """Begin records whose round has no logged decision yet."""
        return tuple(
            record for record in self._begins.values() if not record.decided
        )

    def decision_for(
        self, transaction: TransactionId, attempt: int
    ) -> Optional[CommitDecision]:
        """The logged decision of one attempt, or ``None`` while undecided."""
        record = self._decisions.get((transaction, attempt))
        return record.decision if record is not None else None

    def decision_count(self) -> int:
        """Number of decisions this site's coordinator has logged."""
        return len(self._decisions)

    def decisions(self) -> Tuple[Tuple[TransactionId, int, CommitDecision], ...]:
        """Every decision this site's log holds, from both commit roles.

        Combines the coordinator-side :class:`DecisionRecord` entries with
        the decisions resolved on participant-side :class:`PreparedRecord`
        entries, as ``(transaction, attempt, decision)`` triples sorted by
        key.  The live-mode differential harness uses this to assert that
        each 2PC round reached a *unique* decision across all site logs.
        """
        seen: Dict[Tuple[TransactionId, int], CommitDecision] = {}
        for (transaction, attempt), record in self._decisions.items():
            seen[(transaction, attempt)] = record.decision
        for (transaction, attempt), prepared in self._prepared.items():
            if prepared.decision is not None and (transaction, attempt) not in seen:
                seen[(transaction, attempt)] = prepared.decision
        return tuple(
            (transaction, attempt, decision)
            for (transaction, attempt), decision in sorted(seen.items())
        )

    def truncate(self) -> int:
        """Checkpoint the log: drop every record recovery can no longer need.

        Collectable are resolved prepared records (the participant applied or
        discarded the writes and will never be in doubt again), decided begin
        records, and decisions that are either *presumed* (reconstructable
        from absence) or fully acknowledged by every tracked participant.
        Presumed-nothing decisions are never tracked or presumed, so they
        survive every checkpoint — the retention cost the presumed variants
        exist to avoid.  Returns the number of records reclaimed.
        """
        dead_prepared = [
            key for key, record in self._prepared.items() if not record.in_doubt
        ]
        for key in dead_prepared:
            del self._prepared[key]
        dead_begins = [key for key, record in self._begins.items() if record.decided]
        for key in dead_begins:
            del self._begins[key]
        dead_decisions = [
            key
            for key in self._decisions
            if key in self._presumed
            or (key in self._ack_tracked and not self._ack_tracked[key])
        ]
        for key in dead_decisions:
            del self._decisions[key]
            self._ack_tracked.pop(key, None)
            self._presumed.discard(key)
        reclaimed = len(dead_prepared) + len(dead_begins) + len(dead_decisions)
        self._records_truncated += reclaimed
        return reclaimed
