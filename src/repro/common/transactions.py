"""Transaction specifications and life-cycle states.

The paper's transaction model (Section 2) has three phases: a read phase, a
local computing phase and a write phase.  A :class:`TransactionSpec` captures
the *static* shape of a transaction — which logical items it reads and writes,
where it originates and how long its local computation takes — while the
dynamic execution state lives in the coordinator
(:class:`repro.system.coordinator.TransactionExecution`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.ids import ItemId, SiteId, TransactionId
from repro.common.operations import LogicalOperation, OperationType
from repro.common.protocol_names import Protocol


class TransactionStatus(enum.Enum):
    """Life-cycle of one transaction attempt as seen by its coordinator.

    The legal transitions form the explicit state machine enforced by
    :meth:`repro.system.coordinator.RequestIssuerActor.transition`; the
    ``PREPARING`` state exists only under the two-phase commit layer, while
    one-phase commits jump straight from ``EXECUTING`` to ``COMMITTED``.
    """

    PENDING = "pending"                # created, not yet arrived / issued
    REQUESTING = "requesting"          # requests sent, waiting for grants or back-offs
    BACKING_OFF = "backing-off"        # PA only: new timestamp broadcast, waiting again
    EXECUTING = "executing"            # all needed grants held, local computation running
    PREPARING = "preparing"            # 2PC only: prepare sent, waiting for votes
    COMMITTED = "committed"            # commit decided, releases under way
    ABORTED = "aborted"                # rejected (T/O) or deadlock victim (2PL); will restart
    FINISHED = "finished"              # committed and fully cleaned up


@dataclass(frozen=True)
class TransactionSpec:
    """Immutable description of a transaction submitted to the system.

    Parameters
    ----------
    tid:
        Globally unique transaction identifier; its ``site`` component is the
        originating site (where the request issuer runs).
    read_items / write_items:
        Logical items accessed during the read and write phases.  A legal
        transaction may read and write the same item; the sets need not be
        disjoint.
    compute_time:
        Duration of the local computing phase in simulated time units.
    protocol:
        Concurrency-control protocol this transaction runs under, or ``None``
        when the dynamic selector is expected to choose one at arrival time.
    arrival_time:
        Simulated time at which the transaction enters the system.
    logic:
        Optional local-computation function.  It receives a mapping of the
        read items to their current values and returns a mapping of written
        items to their new values; when omitted, writes install an opaque
        token identifying the writer.  Examples use this to model realistic
        read-compute-write transactions (transfers, reservations).
    """

    tid: TransactionId
    read_items: Tuple[ItemId, ...]
    write_items: Tuple[ItemId, ...]
    compute_time: float = 0.0
    protocol: Optional[Protocol] = None
    arrival_time: float = 0.0
    logic: Optional[Callable[[Dict[ItemId, Any]], Dict[ItemId, Any]]] = None

    def __post_init__(self) -> None:
        if not self.read_items and not self.write_items:
            raise ConfigurationError(f"transaction {self.tid} accesses no data items")
        if self.compute_time < 0:
            raise ConfigurationError(f"transaction {self.tid} has negative compute time")
        if len(set(self.read_items)) != len(self.read_items):
            raise ConfigurationError(f"transaction {self.tid} reads a logical item twice")
        if len(set(self.write_items)) != len(self.write_items):
            raise ConfigurationError(f"transaction {self.tid} writes a logical item twice")

    @property
    def origin_site(self) -> SiteId:
        """Site at which the transaction is submitted (its request issuer's site)."""
        return self.tid.site

    @property
    def size(self) -> int:
        """Number of distinct logical data items accessed (the paper's ``st``)."""
        return len(set(self.read_items) | set(self.write_items))

    @property
    def num_reads(self) -> int:
        """The paper's ``m(t)``: number of read requests."""
        return len(self.read_items)

    @property
    def num_writes(self) -> int:
        """The paper's ``n(t)``: number of write requests."""
        return len(self.write_items)

    def logical_operations(self) -> Tuple[LogicalOperation, ...]:
        """All logical operations, read phase first then write phase (Section 2)."""
        reads = tuple(LogicalOperation(OperationType.READ, item) for item in self.read_items)
        writes = tuple(LogicalOperation(OperationType.WRITE, item) for item in self.write_items)
        return reads + writes

    def accessed_items(self) -> Tuple[ItemId, ...]:
        """Distinct logical items accessed, in deterministic order."""
        return tuple(sorted(set(self.read_items) | set(self.write_items)))


@dataclass
class TransactionOutcome:
    """Per-transaction result record collected by the metrics subsystem."""

    spec: TransactionSpec
    protocol: Protocol
    arrival_time: float
    commit_time: float
    restarts: int = 0
    backoffs: int = 0
    deadlock_aborts: int = 0
    messages: int = 0
    blocked_time: float = 0.0
    waited_for: Sequence[TransactionId] = field(default_factory=tuple)

    @property
    def system_time(self) -> float:
        """The paper's performance measure ``S``: commit time minus arrival time."""
        return self.commit_time - self.arrival_time
