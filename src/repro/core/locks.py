"""Lock modes, the conflict relation, and the per-copy lock table.

Section 4.2 of the paper defines the semi-lock protocol in terms of four lock
modes:

* ``RL`` — read lock, held by 2PL and PA readers;
* ``WL`` — write lock, held by every writer (and by T/O writers until they
  downgrade);
* ``SRL`` — semi-read lock, the mode granted to T/O readers;
* ``SWL`` — semi-write lock, the mode a T/O writer's ``WL`` is converted to
  when its transaction finishes execution while still holding pre-scheduled
  locks.

Two locks conflict when they lock the same copy and at least one of them is a
``WL`` or ``SWL``.  A granted lock is *pre-scheduled* when at least one
conflicting lock granted earlier has not yet been released; it becomes
*normal* when the last such lock is released.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.errors import ProtocolError
from repro.common.ids import CopyId, RequestId, TransactionId
from repro.common.operations import OperationType
from repro.common.protocol_names import Protocol


class LockMode(enum.Enum):
    """The four lock modes of the semi-lock protocol."""

    READ = "RL"
    WRITE = "WL"
    SEMI_READ = "SRL"
    SEMI_WRITE = "SWL"

    def __str__(self) -> str:
        return self.value

    @property
    def is_semi(self) -> bool:
        """Whether this is a semi-lock mode (orders conflicting writes only)."""
        return self in (LockMode.SEMI_READ, LockMode.SEMI_WRITE)

    @property
    def is_write_like(self) -> bool:
        """Modes that make every other lock on the copy a conflict (WL and SWL)."""
        return self in (LockMode.WRITE, LockMode.SEMI_WRITE)

    def conflicts_with(self, other: "LockMode") -> bool:
        """Two locks conflict iff at least one is a WL or SWL (Section 4.2, rule 2)."""
        return self.is_write_like or other.is_write_like

    def downgraded(self) -> "LockMode":
        """The semi-lock this mode converts to when a T/O transaction finishes
        execution while holding pre-scheduled locks (RL -> SRL, WL -> SWL)."""
        if self is LockMode.READ:
            return LockMode.SEMI_READ
        if self is LockMode.WRITE:
            return LockMode.SEMI_WRITE
        return self


def requested_lock_mode(protocol: Protocol, op_type: OperationType) -> LockMode:
    """Lock mode a request of the given protocol and operation type asks for.

    Per the grant rules of Section 4.2: 2PL and PA readers take ``RL``, every
    writer takes ``WL``, and T/O readers take ``SRL``.
    """
    if op_type.is_write:
        return LockMode.WRITE
    if protocol.is_timestamp_ordering:
        return LockMode.SEMI_READ
    return LockMode.READ


def blocking_modes(
    protocol: Protocol, op_type: OperationType, semi_locks_enabled: bool = True
) -> Tuple[LockMode, ...]:
    """Granted modes, held by another transaction, that keep a request waiting.

    The semi-lock grant rules of Section 4.2 (rule 2).  Without semi-locks T/O
    requests follow the 2PL / PA rules.
    """
    if semi_locks_enabled and protocol.is_timestamp_ordering:
        # T/O read: SRL once every WL is released; T/O write: WL once RLs and WLs are.
        return (LockMode.WRITE,) if op_type.is_read else (LockMode.READ, LockMode.WRITE)
    # 2PL / PA read: RL once WLs and SWLs are released; write: WL once every lock is.
    if op_type.is_read:
        return (LockMode.WRITE, LockMode.SEMI_WRITE)
    return tuple(LockMode)


#: The modes a lock conflicts with: everything for WL and SWL, else WL and SWL.
_WRITE_LIKE = (LockMode.WRITE, LockMode.SEMI_WRITE)
_ALL_MODES = tuple(LockMode)


@dataclass
class GrantedLock:
    """One granted, not-yet-released lock on a physical copy."""

    request_id: RequestId
    transaction: TransactionId
    protocol: Protocol
    copy: CopyId
    mode: LockMode
    grant_time: float
    grant_seq: int
    pre_scheduled: bool = False
    normal_grant_sent: bool = True
    implemented: bool = False
    #: Two-phase commit: the holder committed and released while this lock
    #: was still pre-scheduled; the (downgraded) lock must be released the
    #: moment it becomes normal instead of sending a normal-grant effect.
    release_on_normal: bool = False

    def downgrade(self) -> None:
        """Convert RL -> SRL / WL -> SWL (the semi-lock transformation)."""
        self.mode = self.mode.downgraded()


class LockTable:
    """Granted locks of one physical copy, in grant order.

    ``grant`` is the only insertion and numbers locks in increasing
    ``grant_seq``, so the dicts' insertion order already is grant order: no
    method sorts.  Two small indices sit beside the table, both usually
    empty: the locks still pre-scheduled, and those of them already
    downgraded (``awaiting_normal``).  A count of the WL and SWL locks held
    lets :meth:`acquire` grant a read without walking the table while no
    writer holds the copy.
    """

    def __init__(self, copy: CopyId) -> None:
        self._copy = copy
        self._locks: Dict[RequestId, GrantedLock] = {}
        self._grant_counter = 0
        # Locks held in WL or SWL (a downgrade never changes whether a lock is one).
        self._write_like = 0
        # Locks granted pre-scheduled that have not turned normal yet.
        self._pre_scheduled: Dict[RequestId, GrantedLock] = {}
        # Downgraded locks still pre-scheduled: their finished holders wait
        # for normality (see awaiting_normal).  Almost always empty.
        self._awaiting_normal: Dict[RequestId, GrantedLock] = {}

    @property
    def copy(self) -> CopyId:
        """The physical copy whose locks this table tracks."""
        return self._copy

    def __len__(self) -> int:
        return len(self._locks)

    def __contains__(self, request_id: RequestId) -> bool:
        return request_id in self._locks

    def grant(
        self,
        request_id: RequestId,
        transaction: TransactionId,
        protocol: Protocol,
        mode: LockMode,
        time: float,
        pre_scheduled: bool,
    ) -> GrantedLock:
        """Record a newly granted lock."""
        grant_seq = self._grant_counter + 1
        lock = GrantedLock(
            request_id=request_id,
            transaction=transaction,
            protocol=protocol,
            copy=self._copy,
            mode=mode,
            grant_time=time,
            grant_seq=grant_seq,
            pre_scheduled=pre_scheduled,
            normal_grant_sent=not pre_scheduled,
        )
        if self._locks.setdefault(request_id, lock) is not lock:
            raise ProtocolError(f"request {request_id} already holds a lock on {self._copy}")
        self._grant_counter = grant_seq
        if mode in _WRITE_LIKE:
            self._write_like += 1
        if pre_scheduled:
            self._pre_scheduled[request_id] = lock
        return lock

    def release(self, request_id: RequestId) -> GrantedLock:
        """Remove a granted lock and return it."""
        lock = self._locks.pop(request_id, None)
        if lock is None:
            raise ProtocolError(f"request {request_id} holds no lock on {self._copy} to release")
        if lock.mode in _WRITE_LIKE:
            self._write_like -= 1
        if not lock.normal_grant_sent:
            del self._pre_scheduled[request_id]
            self._awaiting_normal.pop(request_id, None)
        return lock

    def downgrade(self, lock: GrantedLock) -> None:
        """Convert ``lock`` to its semi-lock mode (RL -> SRL, WL -> SWL)."""
        lock.downgrade()
        if not lock.normal_grant_sent:
            self._awaiting_normal[lock.request_id] = lock

    def mark_normal(self, lock: GrantedLock) -> None:
        """Every conflicting lock granted before ``lock`` has been released."""
        lock.normal_grant_sent = True
        lock.pre_scheduled = False
        self._pre_scheduled.pop(lock.request_id, None)
        self._awaiting_normal.pop(lock.request_id, None)

    def pre_scheduled(self) -> Tuple[GrantedLock, ...]:
        """Locks granted pre-scheduled that have not turned normal yet, in grant order."""
        return tuple(self._pre_scheduled.values()) if self._pre_scheduled else ()

    def awaiting_normal(self) -> Tuple[GrantedLock, ...]:
        """Downgraded locks that are still pre-scheduled, in downgrade order.

        Each one is a wait the queue does not show: its holder has finished
        but may release none of its locks until every conflicting lock
        granted earlier here is released.
        """
        return tuple(self._awaiting_normal.values())

    def get(self, request_id: RequestId) -> Optional[GrantedLock]:
        """The granted lock with ``request_id``, or ``None``."""
        return self._locks.get(request_id)

    def locks(self) -> Tuple[GrantedLock, ...]:
        """All granted, unreleased locks in grant order."""
        return tuple(self._locks.values())

    def locks_of(self, transaction: TransactionId) -> Tuple[GrantedLock, ...]:
        """Every lock currently granted to ``transaction``, in grant order."""
        return tuple(
            lock for lock in self._locks.values() if lock.transaction == transaction
        )

    def acquire(
        self,
        request_id: RequestId,
        transaction: TransactionId,
        protocol: Protocol,
        mode: LockMode,
        blockers: Tuple[LockMode, ...],
        time: float,
    ) -> Optional[GrantedLock]:
        """Grant ``mode`` unless another transaction holds a lock in ``blockers``.

        ``None`` when blocked (Section 4.2 rule 2).  Otherwise the new lock is
        pre-scheduled when another transaction holds a conflicting lock
        (rule 3).  One walk over the copy's locks answers both questions, and
        none is needed for a read while no WL or SWL is held: a blocking mode
        always conflicts, and only those two conflict with a read.
        """
        if mode in _WRITE_LIKE:
            conflicting = _ALL_MODES
        elif not self._write_like:
            return self.grant(request_id, transaction, protocol, mode, time, False)
        else:
            conflicting = _WRITE_LIKE
        pre_scheduled = False
        for lock in self._locks.values():
            held = lock.mode
            if held in blockers:
                holder = lock.transaction
                if holder is not transaction and holder != transaction:
                    return None
            elif not pre_scheduled and held in conflicting:
                holder = lock.transaction
                pre_scheduled = holder is not transaction and holder != transaction
        return self.grant(request_id, transaction, protocol, mode, time, pre_scheduled)

    def holders(self) -> Tuple[TransactionId, ...]:
        """Distinct transactions currently holding locks, in grant order."""
        seen: List[TransactionId] = []
        for lock in self._locks.values():
            if lock.transaction not in seen:
                seen.append(lock.transaction)
        return tuple(seen)

    def unreleased_with_modes(
        self, modes: Iterable[LockMode], excluding: Optional[TransactionId] = None
    ) -> Tuple[GrantedLock, ...]:
        """Granted locks whose mode is in ``modes``, excluding one transaction's own locks."""
        mode_set = set(modes)
        return tuple(
            lock
            for lock in self._locks.values()
            if lock.mode in mode_set and lock.transaction != excluding
        )

    def conflicting_locks(
        self,
        mode: LockMode,
        excluding: Optional[TransactionId] = None,
        granted_before: Optional[int] = None,
    ) -> Tuple[GrantedLock, ...]:
        """Granted locks that conflict with ``mode``.

        ``excluding`` skips the requesting transaction's own locks (a
        transaction never conflicts with itself); ``granted_before`` restricts
        to locks granted earlier than the given grant sequence number (used to
        decide whether a lock is still pre-scheduled).
        """
        modes = _ALL_MODES if mode in _WRITE_LIKE else _WRITE_LIKE
        result = []
        for lock in self._locks.values():
            if excluding is not None and lock.transaction == excluding:
                continue
            if granted_before is not None and lock.grant_seq >= granted_before:
                continue
            if lock.mode in modes:
                result.append(lock)
        return tuple(result)
