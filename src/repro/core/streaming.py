"""Incremental conflict-serializability checking with transaction retirement.

The batch oracle (:mod:`repro.core.serializability`) rebuilds the conflict
graph from the complete per-copy logs after the run — O(entries) memory for
the whole execution.  This module maintains the same graph *online*, as the
queue managers record operations, and **retires** a committed transaction the
moment two conditions hold:

1. it is *sealed* — its commit point has passed and every copy its committed
   attempt touched has processed the final release, so no further log entry
   of the transaction can ever appear (appends only happen at copy-log
   tails, so a sealed transaction can never gain a new *incoming* conflict
   edge either); and
2. every predecessor in the conflict graph has already retired.

Retired transactions leave the graph, their log entries are dropped (the
``on_retire`` hook lets a bounded :class:`~repro.storage.log.ExecutionLog`
discard them too), and the retirement sequence *is* a serialization witness:
by induction on the retirement order, every conflict edge ``Y -> X`` of the
final committed view has ``Y`` retired before ``X``.  A transaction on a
conflict cycle can never retire (some predecessor transitively waits on it),
so the residual graph at :meth:`~IncrementalSerializabilityChecker.finalize`
is non-empty exactly when the execution is not serializable — the same
verdict, witness validity and cycle evidence as
:func:`~repro.core.serializability.check_serializable`, in memory
proportional to the *live* transaction window instead of the run length.

Aborted attempts withdraw their tentative reads mid-run; the checker keeps
per-copy conflict-pair support counts so a withdrawal removes exactly the
edges that lost their last supporting operation pair, mirroring what the
batch sweep over the shrunken log would have produced.

The checker plugs into an :class:`~repro.storage.log.ExecutionLog` as an
observer (``attach_observer``); the commit layer additionally feeds it
commit points (:meth:`~IncrementalSerializabilityChecker.note_commit`) and
the queue managers feed per-copy quiesce points through
``ExecutionLog.note_quiesced``.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.common.errors import SimulationError
from repro.common.ids import CopyId, TransactionId
from repro.core.serializability import ConflictGraph, SerializabilityReport
from repro.storage.log import LogEntry

#: ``(transaction, attempt, is_write)`` — the checker's compact entry form.
_LiveEntry = Tuple[TransactionId, int, bool]

#: Conflict-pair key: ``(earlier transaction, later transaction)``.
_Pair = Tuple[TransactionId, TransactionId]


class IncrementalSerializabilityChecker:
    """Online serializability oracle with bounded live state.

    Parameters
    ----------
    on_retire:
        Called with each transaction id the moment it retires; the bounded
        execution log hooks
        :meth:`~repro.storage.log.ExecutionLog.retire_transaction` here so
        retired entries leave the durable log too.
    retain_order:
        When ``True`` (the default) the full retirement sequence is kept and
        returned as the witness ``serialization_order``, and a late log entry
        for an already-retired transaction raises loudly.  ``False`` trades
        both for strictly bounded memory: the witness is folded into a
        running SHA-256 digest (:attr:`order_digest`) plus a count, which is
        what the 10^6-transaction benchmark runs under.
    """

    def __init__(
        self,
        *,
        on_retire: Optional[Callable[[TransactionId], None]] = None,
        retain_order: bool = True,
    ) -> None:
        self._on_retire = on_retire
        self._retain_order = retain_order
        # Per-copy live entries in implementation order, with per-transaction
        # read/write counts (the batch sweep's reader/writer marks, folded).
        self._live: Dict[CopyId, List[_LiveEntry]] = {}
        self._counts: Dict[CopyId, Dict[TransactionId, List[int]]] = {}
        # Conflict-pair support: how many conflicting operation pairs at each
        # copy (and in total) back the edge ``(earlier, later)``.  An edge
        # exists in the graph iff its total support is positive.
        self._pairs: Dict[CopyId, Dict[_Pair, int]] = {}
        self._support: Dict[_Pair, int] = {}
        self._succs: Dict[TransactionId, Set[TransactionId]] = {}
        self._preds: Dict[TransactionId, Set[TransactionId]] = {}
        # Per-transaction live footprint (dropped at retirement).
        self._entry_total: Dict[TransactionId, int] = {}
        self._tx_copies: Dict[TransactionId, Set[CopyId]] = {}
        # Live entries per (transaction, attempt) — lets the commit point
        # skip the stale-attempt sweep when only the committed attempt ever
        # recorded (the overwhelmingly common case).
        self._attempt_counts: Dict[TransactionId, Dict[int, int]] = {}
        # Commit/seal state.  ``_sealed`` holds sealed-but-not-yet-retired
        # transactions only, so every per-transaction structure here shrinks
        # back as transactions retire.
        self._committed: Dict[TransactionId, int] = {}
        self._commit_copies: Dict[TransactionId, Tuple[CopyId, ...]] = {}
        self._quiesced: Dict[TransactionId, Set[Tuple[CopyId, Optional[int]]]] = {}
        self._sealed: Set[TransactionId] = set()
        self._retired: Set[TransactionId] = set()
        self._retire_candidates: List[TransactionId] = []
        # Witness bookkeeping.
        self._witness: List[TransactionId] = []
        self._order_digest = hashlib.sha256()
        self._retired_count = 0
        # Edges whose source retired, awaiting their target's fate (exact
        # edge accounting for the report's ``conflict_edges``).  Each banked
        # edge carries the set of target attempts that supported it, or
        # ``None`` when the target had already committed at banking time
        # (its surviving support can only be the committed attempt); the
        # target's commit point drops edges supported solely by attempts
        # that turned out to be stale, keeping the count a true lower bound
        # of the batch committed view.
        self._pending_in: Dict[TransactionId, List[Optional[FrozenSet[int]]]] = {}
        self._edges_finalized = 0
        # Statistics.
        self._live_entry_count = 0
        self._withdrawn_entries = 0
        self._peak_live_entries = 0
        self._peak_live_transactions = 0
        self._entries_seen = 0
        self._finalized = False

    # ---------------------------------------------------------------- #
    # Observer interface (wired to ExecutionLog.attach_observer)
    # ---------------------------------------------------------------- #

    def entry_recorded(self, entry: LogEntry) -> None:
        """Fold one implemented operation into the live conflict graph."""
        tid = entry.transaction
        committed_attempt = self._committed.get(tid)
        if committed_attempt is not None and entry.attempt != committed_attempt:
            # A stale attempt's operation surfacing after the commit point
            # (e.g. an in-flight downgrade raced the abort); the committed
            # view can never contain it.
            return
        if tid in self._retired:
            raise SimulationError(
                f"transaction {tid} recorded an operation after retirement; "
                "the seal protocol guarantees this cannot happen"
            )
        if tid in self._sealed:
            raise SimulationError(
                f"transaction {tid} recorded an operation after its final "
                f"release quiesced every copy it touched"
            )
        copy = entry.copy
        is_write = entry.op_type.is_write
        counts = self._counts.setdefault(copy, {})
        for other, (reads, writes) in counts.items():
            if other == tid:
                continue
            pairs = writes + (reads if is_write else 0)
            if pairs:
                self._add_support(other, tid, copy, pairs)
        bucket = counts.setdefault(tid, [0, 0])
        bucket[1 if is_write else 0] += 1
        self._live.setdefault(copy, []).append((tid, entry.attempt, is_write))
        self._entry_total[tid] = self._entry_total.get(tid, 0) + 1
        attempts = self._attempt_counts.setdefault(tid, {})
        attempts[entry.attempt] = attempts.get(entry.attempt, 0) + 1
        self._tx_copies.setdefault(tid, set()).add(copy)
        self._succs.setdefault(tid, set())
        self._preds.setdefault(tid, set())
        self._live_entry_count += 1
        self._entries_seen += 1
        if self._live_entry_count > self._peak_live_entries:
            self._peak_live_entries = self._live_entry_count
        if len(self._entry_total) > self._peak_live_transactions:
            self._peak_live_transactions = len(self._entry_total)

    def entries_withdrawn(
        self, copy: CopyId, transaction: TransactionId, attempt: Optional[int] = None
    ) -> None:
        """Mirror a log withdrawal (an aborted attempt's tentative entries)."""
        if transaction in self._retired:
            # A late abort of an old attempt whose entries the checker
            # already withdrew at the commit point; nothing live remains.
            return
        self._withdraw(copy, transaction, attempt)
        self._drain_retirements()

    def transaction_quiesced(
        self, copy: CopyId, transaction: TransactionId, attempt: Optional[int] = None
    ) -> None:
        """Note that ``copy`` processed the final release of ``transaction``.

        ``attempt`` is the released attempt (``None`` releases every
        attempt, the one-phase final release).  Quiesce and commit
        notifications are order-independent: under two-phase commit the
        cooperative termination protocol can release a participant's locks
        before the coordinator's commit point is observed.
        """
        if transaction in self._retired:
            return  # duplicate release (2PC sends one per request)
        self._quiesced.setdefault(transaction, set()).add((copy, attempt))
        self._check_seal(transaction)
        self._drain_retirements()

    # ---------------------------------------------------------------- #
    # Commit-layer interface
    # ---------------------------------------------------------------- #

    def note_commit(
        self, transaction: TransactionId, attempt: int, copies: Iterable[CopyId]
    ) -> None:
        """Record the commit point: ``attempt`` of ``transaction`` committed.

        ``copies`` is the set of physical copies the committed attempt
        touched — the transaction seals once each of them has quiesced.
        Entries of every *other* attempt are withdrawn immediately (they can
        never reach the committed view), which also covers abort messages a
        crashed site dropped.
        """
        previous = self._committed.get(transaction)
        if previous is not None:
            if previous != attempt:
                raise SimulationError(
                    f"transaction {transaction} committed attempt {attempt} "
                    f"after already committing attempt {previous}"
                )
            return
        if transaction in self._retired:
            raise SimulationError(
                f"transaction {transaction} committed after retirement"
            )
        self._committed[transaction] = attempt
        self._commit_copies[transaction] = tuple(copies)
        pending = self._pending_in.get(transaction)
        if pending is not None:
            # Resolve edges banked while this transaction was uncommitted:
            # one supported only by attempts other than the committed one is
            # built on entries the committed view can never contain.
            resolved: List[Optional[FrozenSet[int]]] = [
                None for supports in pending if supports is None or attempt in supports
            ]
            if resolved:
                self._pending_in[transaction] = resolved
            else:
                del self._pending_in[transaction]
        for copy in tuple(self._tx_copies.get(transaction, ())):
            self._withdraw(copy, transaction, attempt, invert=True)
        self._check_seal(transaction)
        self._drain_retirements()

    # ---------------------------------------------------------------- #
    # Final verdict
    # ---------------------------------------------------------------- #

    def finalize(
        self, committed_attempts: Optional[Mapping[TransactionId, int]] = None
    ) -> SerializabilityReport:
        """Seal every live transaction and report the final verdict.

        With ``committed_attempts`` (transaction -> committed attempt
        number), entries of non-committed transactions and of stale attempts
        are withdrawn first, exactly like the batch oracle's committed view.
        Without it every surviving entry is audited (the full-log check the
        direct queue-manager tests use).

        The witness ``serialization_order`` is the retirement order followed
        by a topological order of the residual graph — a valid serialization
        order whenever one exists, though not necessarily the
        lexicographically-smallest one the batch oracle reports.
        ``conflict_edges`` counts the edges of the *retirement-pruned* graph
        — every edge the checker materialised and resolved.  Operations
        implemented after a predecessor retired never materialise an edge
        from it (forgetting those sources is exactly what bounds the
        memory), so the count is a lower bound of the number of conflicting
        transaction pairs (not of the batch report, which counts the reduced
        graph of :meth:`CopyLog.conflict_edges`); the verdict, witness
        validity and cycle evidence are unaffected because a retired
        transaction can never gain an incoming edge.
        """
        if self._finalized:
            raise SimulationError("an incremental checker can only finalize once")
        self._finalized = True
        if committed_attempts is not None:
            for tid in tuple(self._entry_total):
                attempt = committed_attempts.get(tid)
                for copy in tuple(self._tx_copies.get(tid, ())):
                    if attempt is None:
                        self._withdraw(copy, tid, None)
                    else:
                        self._withdraw(copy, tid, attempt, invert=True)
        # Force-seal every survivor: the run is over, nothing records again.
        for tid in self._entry_total:
            if tid not in self._retired:
                self._sealed.add(tid)
        self._retire_candidates.extend(self._sealed)
        self._drain_retirements()
        residual = sorted(self._entry_total)
        transactions_checked = self._retired_count + len(residual)
        conflict_edges = (
            self._edges_finalized
            + sum(len(self._pending_in.get(tid, ())) for tid in residual)
            + len(self._support)
        )
        if not residual:
            return SerializabilityReport(
                serializable=True,
                serialization_order=list(self._witness),
                transactions_checked=transactions_checked,
                conflict_edges=conflict_edges,
            )
        graph = ConflictGraph()
        for tid in residual:
            graph.add_node(tid)
        for source in residual:
            for target in self._succs.get(source, ()):
                graph.add_edge(source, target)
        order = graph.topological_order()
        if order is not None:  # pragma: no cover - retirement reaches fixpoint
            for tid in order:
                self._bank_witness(tid)
            return SerializabilityReport(
                serializable=True,
                serialization_order=list(self._witness) + list(order),
                transactions_checked=transactions_checked,
                conflict_edges=conflict_edges,
            )
        return SerializabilityReport(
            serializable=False,
            cycle=graph.find_cycle(),
            transactions_checked=transactions_checked,
            conflict_edges=conflict_edges,
        )

    # ---------------------------------------------------------------- #
    # Introspection
    # ---------------------------------------------------------------- #

    @property
    def retired_count(self) -> int:
        """Transactions retired (and removed from live state) so far."""
        return self._retired_count

    @property
    def live_entry_count(self) -> int:
        """Log entries currently held live by the checker."""
        return self._live_entry_count

    @property
    def live_transaction_count(self) -> int:
        """Transactions currently holding at least one live entry."""
        return len(self._entry_total)

    @property
    def order_digest(self) -> str:
        """SHA-256 over the retirement sequence (the compact witness)."""
        return self._order_digest.hexdigest()

    def stats(self) -> Dict[str, int]:
        """Peak/total counters for result reporting and the memory gate."""
        return {
            "entries_seen": self._entries_seen,
            "entries_withdrawn": self._withdrawn_entries,
            "retired": self._retired_count,
            "peak_live_entries": self._peak_live_entries,
            "peak_live_transactions": self._peak_live_transactions,
            "live_entries": self._live_entry_count,
            "live_transactions": len(self._entry_total),
        }

    def has_edge(self, source: TransactionId, target: TransactionId) -> bool:
        """Whether the live graph currently holds the edge ``source -> target``."""
        return target in self._succs.get(source, ())

    def is_retired(self, transaction: TransactionId) -> bool:
        """Whether ``transaction`` has retired (requires ``retain_order``)."""
        if not self._retain_order:
            raise SimulationError(
                "retirement membership is not tracked with retain_order=False"
            )
        return transaction in self._retired

    # ---------------------------------------------------------------- #
    # Internals
    # ---------------------------------------------------------------- #

    def _add_support(
        self, earlier: TransactionId, later: TransactionId, copy: CopyId, pairs: int
    ) -> None:
        key = (earlier, later)
        bucket = self._pairs.setdefault(copy, {})
        bucket[key] = bucket.get(key, 0) + pairs
        total = self._support.get(key, 0)
        if total == 0:
            self._succs.setdefault(earlier, set()).add(later)
            self._preds.setdefault(later, set()).add(earlier)
        self._support[key] = total + pairs

    def _drop_support(
        self,
        key: _Pair,
        pairs: int,
        *,
        bank: bool = False,
        bank_attempts: Optional[FrozenSet[int]] = None,
    ) -> None:
        remaining = self._support[key] - pairs
        if remaining:
            self._support[key] = remaining
            return
        del self._support[key]
        earlier, later = key
        self._succs[earlier].discard(later)
        self._preds[later].discard(earlier)
        if bank:
            # The source retired: remember the edge against the target until
            # the target's own fate resolves its membership in the committed
            # view.  ``bank_attempts`` names the target attempts supporting
            # it (``None`` once the support is known final — the target had
            # already committed, so stale attempts were withdrawn before
            # banking); the target's commit point prunes the conditional
            # entries whose every supporting attempt turned out stale.
            self._pending_in.setdefault(later, []).append(bank_attempts)
        if later in self._sealed and not self._preds[later]:
            self._retire_candidates.append(later)

    def _withdraw(
        self,
        copy: CopyId,
        transaction: TransactionId,
        attempt: Optional[int],
        *,
        invert: bool = False,
    ) -> int:
        """Remove ``transaction``'s entries at ``copy`` and repair the graph.

        ``attempt=None`` removes every attempt's entries; with an attempt
        given, ``invert=False`` removes exactly that attempt (the abort
        path) and ``invert=True`` removes every *other* attempt (the commit
        point withdrawing stale attempts).
        """
        counts = self._counts.get(copy)
        if not counts or transaction not in counts:
            return 0
        if attempt is not None:
            attempts = self._attempt_counts.get(transaction)
            if attempts is not None:
                nothing_to_remove = (
                    (len(attempts) == 1 and attempt in attempts)
                    if invert
                    else attempt not in attempts
                )
                if nothing_to_remove:
                    return 0
        live = self._live[copy]
        pairs = self._pairs.get(copy, {})
        for key in [k for k in pairs if transaction in k]:
            self._drop_support(key, pairs.pop(key))
        del counts[transaction]
        kept: List[_LiveEntry] = []
        removed = 0
        removed_attempts: Dict[int, int] = {}
        running: Dict[TransactionId, List[int]] = {}
        for item in live:
            tid, item_attempt, is_write = item
            if tid == transaction:
                matches = attempt is None or (
                    (item_attempt != attempt) if invert else (item_attempt == attempt)
                )
                if matches:
                    removed += 1
                    removed_attempts[item_attempt] = removed_attempts.get(item_attempt, 0) + 1
                    continue
                # Re-discover this surviving entry's incoming pairs.
                for other, (reads, writes) in running.items():
                    if other == transaction:
                        continue
                    count = writes + (reads if is_write else 0)
                    if count:
                        self._add_support(other, transaction, copy, count)
            else:
                mine = running.get(transaction)
                if mine is not None:
                    count = mine[1] + (mine[0] if is_write else 0)
                    if count:
                        self._add_support(transaction, tid, copy, count)
            bucket = running.setdefault(tid, [0, 0])
            bucket[1 if is_write else 0] += 1
            kept.append(item)
        if kept:
            self._live[copy] = kept
        else:
            del self._live[copy]
            self._counts.pop(copy, None)
            self._pairs.pop(copy, None)
        survivors = running.get(transaction)
        if survivors is not None:
            counts[transaction] = survivors
        else:
            self._tx_copies.get(transaction, set()).discard(copy)
        if removed:
            self._live_entry_count -= removed
            self._withdrawn_entries += removed
            attempt_bucket = self._attempt_counts.get(transaction)
            if attempt_bucket is not None:
                for item_attempt, count in removed_attempts.items():
                    left = attempt_bucket.get(item_attempt, 0) - count
                    if left > 0:
                        attempt_bucket[item_attempt] = left
                    else:
                        attempt_bucket.pop(item_attempt, None)
                if not attempt_bucket:
                    del self._attempt_counts[transaction]
            remaining = self._entry_total[transaction] - removed
            if remaining:
                self._entry_total[transaction] = remaining
            else:
                del self._entry_total[transaction]
                self._remove_node(transaction)
        return removed

    def _remove_node(self, transaction: TransactionId) -> None:
        """Forget a transaction whose last live entry was withdrawn."""
        for succ in self._succs.pop(transaction, ()):
            self._preds[succ].discard(transaction)
        for pred in self._preds.pop(transaction, ()):
            self._succs[pred].discard(transaction)
        self._tx_copies.pop(transaction, None)
        self._pending_in.pop(transaction, None)

    def _check_seal(self, transaction: TransactionId) -> None:
        if transaction in self._sealed or transaction in self._retired:
            return
        attempt = self._committed.get(transaction)
        copies = self._commit_copies.get(transaction)
        if attempt is None or copies is None:
            return
        quiesced = self._quiesced.get(transaction, set())
        for copy in copies:
            if (copy, None) not in quiesced and (copy, attempt) not in quiesced:
                return
        self._sealed.add(transaction)
        self._retire_candidates.append(transaction)

    def _drain_retirements(self) -> None:
        while self._retire_candidates:
            self._try_retire(self._retire_candidates.pop())

    def _try_retire(self, transaction: TransactionId) -> None:
        if transaction not in self._sealed or transaction in self._retired:
            return
        if self._preds.get(transaction):
            return
        self._sealed.discard(transaction)
        if transaction not in self._entry_total:
            # Committed and sealed, but every entry was withdrawn (or none
            # was ever recorded): the committed view has nothing to audit.
            # Still a retirement for protocol purposes — late duplicates and
            # conflicting commit points must keep being caught.
            if self._retain_order:
                self._retired.add(transaction)
            self._forget(transaction)
            return
        self._bank_witness(transaction)
        self._retired_count += 1
        if self._retain_order:
            self._retired.add(transaction)
        self._edges_finalized += len(self._pending_in.pop(transaction, ()))
        # Purge every live entry of the transaction; the support drops
        # cascade into edge removals, each an out-edge banked against its
        # target.  An uncommitted target may yet commit a *different*
        # attempt and withdraw the very entries supporting the edge, so the
        # replay below records which target attempts support each pair
        # (mirroring ``entry_recorded``'s direction rule: a later write
        # conflicts with any earlier operation, a later read only with an
        # earlier write) for the target's commit point to resolve.
        support_attempts: Dict[TransactionId, Set[int]] = {}
        for copy in self._tx_copies.get(transaction, ()):
            copy_pairs = self._pairs.get(copy)
            if not copy_pairs:
                continue
            reads = writes = 0
            for tid, item_attempt, is_write in self._live.get(copy, ()):
                if tid == transaction:
                    if is_write:
                        writes += 1
                    else:
                        reads += 1
                elif (transaction, tid) in copy_pairs and tid not in self._committed:
                    if writes + (reads if is_write else 0):
                        support_attempts.setdefault(tid, set()).add(item_attempt)
        for copy in tuple(self._tx_copies.get(transaction, ())):
            live = self._live.get(copy)
            if live is None:
                continue
            counts = self._counts[copy]
            pairs = self._pairs.get(copy, {})
            for key in [k for k in pairs if transaction in k]:
                attempts: Optional[FrozenSet[int]] = None
                if key[0] == transaction and key[1] not in self._committed:
                    attempts = frozenset(support_attempts.get(key[1], ()))
                self._drop_support(key, pairs.pop(key), bank=True, bank_attempts=attempts)
            kept = [item for item in live if item[0] != transaction]
            removed = len(live) - len(kept)
            if kept:
                self._live[copy] = kept
            else:
                del self._live[copy]
                self._counts.pop(copy, None)
                self._pairs.pop(copy, None)
            if transaction in counts:
                del counts[transaction]
            self._live_entry_count -= removed
        del self._entry_total[transaction]
        self._attempt_counts.pop(transaction, None)
        self._forget(transaction)
        if self._on_retire is not None:
            self._on_retire(transaction)

    def _bank_witness(self, transaction: TransactionId) -> None:
        if self._retain_order:
            self._witness.append(transaction)
        self._order_digest.update(repr(transaction).encode("utf-8"))
        self._order_digest.update(b";")

    def _forget(self, transaction: TransactionId) -> None:
        """Drop the commit/seal bookkeeping of a resolved transaction."""
        self._committed.pop(transaction, None)
        self._commit_copies.pop(transaction, None)
        self._quiesced.pop(transaction, None)
        for succ in self._succs.pop(transaction, ()):
            self._preds[succ].discard(transaction)
            if succ in self._sealed and not self._preds[succ]:
                self._retire_candidates.append(succ)
        self._preds.pop(transaction, None)
        self._tx_copies.pop(transaction, None)
