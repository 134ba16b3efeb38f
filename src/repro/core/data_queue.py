"""The per-copy data queue ``QUEUE(j)`` and its head-of-queue rule ``HD(j)``.

Entries are kept sorted by unified precedence.  ``HD(j)`` is the first entry
that has not yet been granted; by construction every entry with a smaller
precedence has already been granted, which is exactly the paper's definition
(Section 3.4, step 2(e)ii).  Granted entries stay in the queue until their
locks are released (or the transaction aborts), because later entries must
still order themselves behind them.

Representation
--------------
The queue keeps three synchronised structures:

* ``_entries`` — the precedence-ordered list itself, maintained by binary
  insertion (``bisect``) instead of a full re-sort on every arrival;
* ``_keys`` — a parallel list of *filed keys*, one per entry.  A filed key is
  ``(precedence.sort_key(), insertion_seq)``: unique, strictly increasing for
  equal precedences in arrival order, so binary search pinpoints any entry in
  O(log n) even among precedence ties.  Filed keys are recorded on the entry
  (``filed_key``) at insert, :meth:`refile` and :meth:`resort` time, so
  callers may mutate ``entry.precedence`` freely between a batch of updates
  and the closing :meth:`refile` / :meth:`resort` — lookups stay consistent
  because they use the key an entry was *filed* under;
* ``_by_request`` / ``_by_transaction`` — hash indices making ``find`` O(1)
  and ``entries_of`` O(k) in the number of the transaction's own entries.

``_head_hint`` caches a lower bound on the index of the first ungranted entry
so ``head()`` / ``ungranted()`` do not rescan the granted prefix on every
grant-loop iteration.  The hint only ever needs to move *backwards* on an
insert or removal before it; it is safe because a granted entry never becomes
ungranted again.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.errors import ProtocolError
from repro.common.ids import RequestId, TransactionId
from repro.core.locks import GrantedLock, LockMode
from repro.core.precedence import Precedence
from repro.core.requests import Request


class EntryStatus(enum.Enum):
    """Marking of a queue entry, mirroring the paper's 'accepted' / 'blocked'."""

    ACCEPTED = "accepted"
    BLOCKED = "blocked"       # PA request waiting for its issuer's final timestamp


@dataclass
class QueuedRequest:
    """One request sitting in a data queue."""

    request: Request
    precedence: Precedence
    status: EntryStatus = EntryStatus.ACCEPTED
    granted: bool = False
    lock: Optional[GrantedLock] = None
    enqueue_time: float = 0.0
    #: The lock mode the request asks for and the granted modes that keep it
    #: waiting (Section 4.2 rule 2), fixed by the queue manager on arrival.
    mode: Optional[LockMode] = None
    blockers: Tuple[LockMode, ...] = ()
    #: The key the data queue filed the entry under (its own bookkeeping).
    filed_key: Optional[Tuple] = field(default=None, repr=False, compare=False)

    @property
    def transaction(self) -> TransactionId:
        """The transaction the queued request belongs to."""
        return self.request.transaction

    @property
    def request_id(self) -> RequestId:
        """The globally unique id of the underlying request."""
        return self.request.request_id

    @property
    def is_blocked(self) -> bool:
        """Whether the entry is blocked (PA timestamp agreement still pending)."""
        return self.status is EntryStatus.BLOCKED


_filed_key = attrgetter("filed_key")


class DataQueue:
    """Precedence-ordered queue of requests for one physical copy."""

    def __init__(self) -> None:
        self._entries: List[QueuedRequest] = []
        self._keys: List[Tuple] = []
        self._by_request: Dict[RequestId, QueuedRequest] = {}
        self._by_transaction: Dict[TransactionId, List[QueuedRequest]] = {}
        self._insert_seq = 0
        self._head_hint = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[QueuedRequest]:
        return iter(self._entries)

    def entries(self) -> Tuple[QueuedRequest, ...]:
        """All entries in precedence order."""
        return tuple(self._entries)

    def insert(self, entry: QueuedRequest) -> None:
        """Insert an entry keeping the queue sorted by precedence."""
        request = entry.request
        request_id = request.request_id
        if self._by_request.setdefault(request_id, entry) is not entry:
            raise ProtocolError(f"request {request_id} is already queued")
        self._file(entry)
        self._by_transaction.setdefault(request.transaction, []).append(entry)

    def _file(self, entry: QueuedRequest) -> None:
        """Place ``entry`` by binary search under a fresh key for its precedence."""
        key = entry.filed_key = (entry.precedence.sort_key(), self._insert_seq)
        self._insert_seq += 1
        position = bisect.bisect_left(self._keys, key)
        self._entries.insert(position, entry)
        self._keys.insert(position, key)
        if position < self._head_hint:
            self._head_hint = position

    def find(self, request_id: RequestId) -> Optional[QueuedRequest]:
        """The entry for ``request_id`` or ``None``."""
        return self._by_request.get(request_id)

    def entries_of(self, transaction: TransactionId) -> Tuple[QueuedRequest, ...]:
        """All entries belonging to ``transaction``, in precedence order."""
        bucket = self._by_transaction.get(transaction)
        if not bucket:
            return ()
        if len(bucket) == 1:
            return (bucket[0],)
        return tuple(sorted(bucket, key=_filed_key))

    def remove(self, request_id: RequestId) -> QueuedRequest:
        """Remove and return the entry for ``request_id``."""
        entry = self._by_request.pop(request_id, None)
        if entry is None:
            raise ProtocolError(f"request {request_id} is not queued")
        self._unfile(entry)
        transaction = entry.request.transaction
        bucket = self._by_transaction.pop(transaction)
        if len(bucket) > 1:
            bucket.remove(entry)
            self._by_transaction[transaction] = bucket
        return entry

    def _unfile(self, entry: QueuedRequest) -> None:
        """Take ``entry`` out of the ordered list (the indices keep it)."""
        position = self._index_of(entry)
        del self._entries[position]
        del self._keys[position]
        if position < self._head_hint:
            self._head_hint -= 1

    def resort(self) -> None:
        """Re-establish precedence order after an entry's precedence changed.

        The sort is stable, so entries whose precedences still tie keep their
        relative order; every entry is then re-filed under its current key.
        """
        self._entries.sort(key=lambda entry: entry.precedence.sort_key())
        self._keys = [
            (entry.precedence.sort_key(), index)
            for index, entry in enumerate(self._entries)
        ]
        for entry, key in zip(self._entries, self._keys):
            entry.filed_key = key
        self._insert_seq = len(self._entries)
        self._head_hint = 0

    def refile(self, entries: Tuple[QueuedRequest, ...]) -> None:
        """Re-file queued ``entries`` under their current precedences.

        The same order :meth:`resort` gives when only these entries'
        precedences changed and none of them ties an entry outside the batch
        (precedences of different transactions never tie): the batch leaves
        the list, then returns by binary search in its queue order, so ties
        inside it keep their relative order.  O(k log n) instead of O(n log n).
        """
        if len(entries) > 1:
            entries = sorted(entries, key=_filed_key)
        for entry in entries:
            self._unfile(entry)
        for entry in entries:
            self._file(entry)

    def head(self) -> Optional[QueuedRequest]:
        """``HD(j)``: the first not-yet-granted entry in precedence order, or ``None``."""
        entries = self._entries
        position = self._head_hint
        end = len(entries)
        while position < end:
            entry = entries[position]
            if not entry.granted:
                self._head_hint = position
                return entry
            position += 1
        self._head_hint = position
        return None

    def ungranted(self) -> Tuple[QueuedRequest, ...]:
        """All not-yet-granted entries in precedence order."""
        if self.head() is None:
            return ()
        return tuple(
            entry for entry in self._entries[self._head_hint :] if not entry.granted
        )

    def _index_of(self, entry: QueuedRequest) -> int:
        """Position of ``entry`` via binary search on its filed key."""
        key = entry.filed_key
        position = bisect.bisect_left(self._keys, key)
        if position >= len(self._entries) or self._entries[position] is not entry:
            raise ProtocolError(
                f"queue index out of sync for request {entry.request_id}"
            )  # pragma: no cover - guarded by the class invariants
        return position
