"""The request issuer / transaction coordinator actor, one per site.

This actor drives the transaction life cycle as an **explicit state
machine** (the legal moves live in :data:`LEGAL_TRANSITIONS` and are
enforced by :meth:`RequestIssuerActor.transition`):

* translate logical operations into physical requests (read-one / write-all)
  and send them to the queue managers;
* for **2PL** transactions, wait for every lock, execute, release; restart
  when chosen as a deadlock victim;
* for **T/O** transactions, restart with a fresh, larger timestamp whenever a
  request is rejected; after execution either release directly or — when some
  lock was granted pre-scheduled — downgrade all locks to semi-locks, keep
  collecting normal grants, and only then release (the semi-lock protocol of
  Section 4.2);
* for **PA** transactions, run the timestamp-agreement loop of Section 3.4:
  collect grants and back-off proposals, take the maximum, broadcast the
  agreed timestamp, and wait again; PA transactions never restart under
  concurrency control (the fault model's request timeout may still retry
  one whose request was dropped at a crashed site).

The *commit point* is delegated to a pluggable
:class:`~repro.commit.base.CommitProtocol`: once the local computation
finishes, ``begin_commit`` decides when the transaction counts as
committed and how its write-all reaches the copies (implicit one-phase
commit, or presumed-nothing 2PC with prepare/vote/decide).

The coordinator is also where the dynamic selector plugs in: when a
transaction arrives without a protocol, ``choose_protocol`` is consulted
(Section 5's STL-based selection, or any other strategy).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.commit.base import CommitProtocol, create_commit_protocol
from repro.common.config import CommitConfig
from repro.common.errors import SimulationError
from repro.common.ids import CopyId, RequestId, SiteId, TransactionId
from repro.common.operations import OperationType, PhysicalOperation
from repro.common.protocol_names import Protocol
from repro.common.transactions import TransactionOutcome, TransactionSpec, TransactionStatus
from repro.core.effects import BackoffIssued, GrantIssued, RequestRejected
from repro.core.requests import Request
from repro.sim.actor import Actor, Message
from repro.storage.catalog import ReplicaCatalog
from repro.storage.log import SiteCommitLog
from repro.storage.store import ValueStore
from repro.system.metrics import MetricsCollector
from repro.system.queue_manager_actor import GrantDelivery, queue_manager_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.streaming import IncrementalSerializabilityChecker as AuditStream
    from repro.live.transport import Transport
    from repro.sim.faults import FaultInjector

#: Hook used for dynamic protocol selection: ``(spec, now) -> Protocol``.
ProtocolChooser = Callable[[TransactionSpec, float], Protocol]

#: The transaction life-cycle state machine: every legal move, and nothing
#: else.  ``PREPARING`` is reachable only under the two-phase commit layer.
LEGAL_TRANSITIONS: Mapping[TransactionStatus, Tuple[TransactionStatus, ...]] = {
    TransactionStatus.PENDING: (TransactionStatus.REQUESTING,),
    TransactionStatus.REQUESTING: (
        TransactionStatus.EXECUTING,
        TransactionStatus.BACKING_OFF,
        TransactionStatus.ABORTED,
    ),
    TransactionStatus.BACKING_OFF: (
        TransactionStatus.REQUESTING,
        TransactionStatus.EXECUTING,
        TransactionStatus.ABORTED,
    ),
    TransactionStatus.EXECUTING: (
        TransactionStatus.COMMITTED,
        TransactionStatus.PREPARING,
        # Only the coordinator-recovery walk aborts an EXECUTING transaction:
        # its completion event may have been suppressed while the coordinator
        # was down, so recovery restarts the attempt rather than risk a hang.
        TransactionStatus.ABORTED,
    ),
    TransactionStatus.PREPARING: (
        TransactionStatus.COMMITTED,
        TransactionStatus.ABORTED,
    ),
    TransactionStatus.COMMITTED: (TransactionStatus.FINISHED,),
    TransactionStatus.ABORTED: (TransactionStatus.REQUESTING,),
    TransactionStatus.FINISHED: (),
}


def request_issuer_name(site: SiteId) -> str:
    """Network name of the request-issuer actor at ``site``."""
    return f"ri-{site}"


class _RequestPhase(enum.Enum):
    """State of one outstanding physical request within the current attempt."""

    WAITING = "waiting"          # sent, no grant and no back-off yet
    BACKED_OFF = "backed-off"    # PA: a back-off timestamp was proposed
    GRANTED = "granted"          # lock held (pre-scheduled or normal)


class RequestState:
    """Book-keeping for one physical request of the current attempt."""

    __slots__ = ("request", "phase", "normal_grant", "backoff_timestamp", "grant_time")

    def __init__(self, request: Request) -> None:
        self.request = request
        self.phase = _RequestPhase.WAITING
        self.normal_grant = False
        self.backoff_timestamp: Optional[float] = None
        self.grant_time: Optional[float] = None


@dataclass(slots=True)
class TransactionExecution:
    """Dynamic state of one transaction at its coordinator.

    The *plan* — ``physical_operations``, ``copies`` and ``queue_managers``,
    index-aligned, one request per distinct copy in copy order — is
    translated once per transaction: the catalog is static and reads go to
    the nearest copy, so every attempt issues the same requests.
    ``requests`` holds the current attempt's states in the same order, and
    the four counters are kept exact at every phase change, so the progress
    rules never walk the requests.
    """

    spec: TransactionSpec
    protocol: Protocol
    timestamp: float
    attempt: int = 0
    status: TransactionStatus = TransactionStatus.PENDING
    physical_operations: Tuple[PhysicalOperation, ...] = ()
    copies: Tuple[CopyId, ...] = ()
    queue_managers: Tuple[str, ...] = ()
    reads: int = 0
    writes: int = 0
    requests: List[RequestState] = field(default_factory=list)
    #: Requests of the current attempt with neither a grant nor a back-off.
    waiting: int = 0
    #: Requests of the current attempt holding a PA back-off proposal.
    backed_off: int = 0
    #: Requests of the current attempt holding their lock.
    granted: int = 0
    #: Requests of the current attempt that received their normal grant.
    normal: int = 0
    restarts: int = 0
    deadlock_aborts: int = 0
    backoff_rounds: int = 0
    commit_time: Optional[float] = None
    awaiting_final_release: bool = False
    read_values: Dict[int, Any] = field(default_factory=dict)
    #: When the current attempt entered its commit round (``PREPARING``);
    #: the coordinator-recovery walk measures recovery latency from it.
    prepare_time: Optional[float] = None

    @property
    def tid(self) -> TransactionId:
        """The transaction's globally unique id."""
        return self.spec.tid

    def any_pre_scheduled(self) -> bool:
        """True when some granted lock has not (yet) received its normal grant."""
        return any(
            state.phase is _RequestPhase.GRANTED and not state.normal_grant
            for state in self.requests
        )


class RequestIssuerActor(Actor):
    """Coordinator for all transactions originating at one site."""

    #: The issuer *is* the transaction-manager process the coordinator-crash
    #: fault model kills: messages to it are dropped while it is down, its
    #: volatile commit state is wiped at the crash instant, and on recovery
    #: it walks the durable site log to re-drive in-doubt work.  Site
    #: crashes still do not touch it (``crashable`` stays False): the data
    #: layer and the TM process fail independently.
    coordinator_crashable = True

    def __init__(
        self,
        site: SiteId,
        transport: "Transport",
        catalog: ReplicaCatalog,
        metrics: MetricsCollector,
        *,
        io_time: float = 0.0,
        restart_delay: float = 0.05,
        pa_backoff_interval: float = 1.0,
        semi_locks_enabled: bool = True,
        choose_protocol: Optional[ProtocolChooser] = None,
        value_store: Optional[ValueStore] = None,
        protocol_registry: Optional[Dict[TransactionId, Protocol]] = None,
        protocol_switch_threshold: Optional[int] = None,
        commit_config: Optional[CommitConfig] = None,
        commit_log: Optional[SiteCommitLog] = None,
        faults: Optional[FaultInjector] = None,
        audit_stream: Optional["AuditStream"] = None,
        request_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(name=request_issuer_name(site), site=site)
        self._transport = transport
        self._catalog = catalog
        self._metrics = metrics
        self._io_time = io_time
        self._restart_delay = restart_delay
        self._pa_backoff_interval = pa_backoff_interval
        self._semi_locks_enabled = semi_locks_enabled
        self._choose_protocol = choose_protocol
        self._value_store = value_store
        self._protocol_registry = protocol_registry if protocol_registry is not None else {}
        self._protocol_switch_threshold = protocol_switch_threshold
        self._commit_config = commit_config if commit_config is not None else CommitConfig()
        self._commit_log = commit_log if commit_log is not None else SiteCommitLog(site)
        self._faults = faults
        self._audit_stream = audit_stream
        # Under the fault model the watchdog interval comes from the fault
        # configuration; live mode (no fault injector, but real message loss
        # and no global deadlock detector) passes an explicit timeout.
        self._request_timeout = (
            faults.config.request_timeout if faults is not None else request_timeout
        )
        self._commit: CommitProtocol = create_commit_protocol(
            self._commit_config.protocol, self
        )
        # Live transactions only: an execution leaves at FINISHED, and
        # _finished keeps the attempt it committed under.
        self._executions: Dict[TransactionId, TransactionExecution] = {}
        self._finished: Dict[TransactionId, int] = {}
        # Submitted transactions that have not reached COMMITTED: kept exact
        # by submit_transaction and transition(), so the run's termination
        # test never walks the execution table.
        self._uncommitted = 0
        self._timestamp_counter = 0
        self._protocol_switches = 0

    # ---------------------------------------------------------------- #
    # Surface used by the commit layer
    # ---------------------------------------------------------------- #

    @property
    def transport(self) -> "Transport":
        """The transport this coordinator sends messages and arms timers on."""
        return self._transport

    @property
    def catalog(self) -> ReplicaCatalog:
        """The replica catalog (write-all placement)."""
        return self._catalog

    @property
    def metrics(self) -> MetricsCollector:
        """The run's metrics collector."""
        return self._metrics

    @property
    def value_store(self) -> Optional[ValueStore]:
        """The store commit layers install write values into."""
        return self._value_store

    @property
    def faults(self) -> Optional[FaultInjector]:
        """The fault injector, or ``None`` in a fault-free run."""
        return self._faults

    @property
    def commit_config(self) -> CommitConfig:
        """The commit-layer configuration."""
        return self._commit_config

    @property
    def commit_log(self) -> SiteCommitLog:
        """This site's durable commit log (coordinator-side records)."""
        return self._commit_log

    def _up(self) -> bool:
        """Whether this coordinator process is alive right now.

        Internal watchdog and completion events check this before acting: a
        real TM process that is down fires nothing, and acting on a timer
        while "down" would both break the failure model and double-fire
        restarts for transactions the recovery walk re-drives from the log.
        """
        return self._faults is None or self._faults.coordinator_up(
            self.site, self._transport.now
        )

    def transition(
        self, execution: TransactionExecution, status: TransactionStatus
    ) -> None:
        """Move ``execution`` to ``status``, enforcing the life-cycle state machine."""
        current = execution.status
        if status is current:
            return
        if status not in LEGAL_TRANSITIONS[current]:
            raise SimulationError(
                f"illegal transaction transition {current.value} -> {status.value} "
                f"for {execution.tid}"
            )
        execution.status = status
        if status is TransactionStatus.FINISHED:
            # Retirement: a finished transaction holds no lock and waits for
            # nothing, so only its committed attempt outlives it.  Late
            # replies then find no execution and are ignored, and pending
            # timers holding the object are no-ops under their guards.
            del self._executions[execution.tid]
            self._finished[execution.tid] = execution.attempt
        elif status is TransactionStatus.COMMITTED:
            # The commit point: every path to COMMITTED funnels through this
            # transition (and COMMITTED -> FINISHED is the only way out), so
            # the uncommitted count drops exactly once per transaction and the
            # streaming audit learns exactly once which attempt committed and
            # which copies it must see quiesce.
            self._uncommitted -= 1
            if self._audit_stream is not None:
                self._audit_stream.note_commit(execution.tid, execution.attempt, execution.copies)

    def compute_write_values(self, execution: TransactionExecution) -> Dict[int, Any]:
        """The write set's values: the spec's logic applied to the read values."""
        if execution.spec.logic is not None:
            return execution.spec.logic(dict(execution.read_values))
        return {item: f"written-by-{execution.tid}" for item in execution.spec.write_items}

    def record_outcome(self, execution: TransactionExecution) -> None:
        """Report a committed transaction's outcome to the metrics collector."""
        outcome = TransactionOutcome(
            spec=execution.spec,
            protocol=execution.protocol,
            arrival_time=execution.spec.arrival_time,
            commit_time=execution.commit_time if execution.commit_time is not None else 0.0,
            restarts=execution.restarts,
            backoffs=execution.backoff_rounds,
            deadlock_aborts=execution.deadlock_aborts,
        )
        self._metrics.record_commit(outcome)

    def release_phase(self, execution: TransactionExecution) -> None:
        """Release a committed transaction's locks (one-phase commit path).

        T/O transactions that finished while holding a pre-scheduled lock
        run the semi-lock dance of Section 4.2 rule 4: downgrade, keep
        collecting normal grants, release only when all are normal.
        """
        needs_semi = (
            execution.protocol.is_timestamp_ordering
            and self._semi_locks_enabled
            and execution.any_pre_scheduled()
        )
        if needs_semi:
            execution.awaiting_final_release = True
            for queue_manager in execution.queue_managers:
                self._transport.send(self, queue_manager, "downgrade", execution.tid)
            if self._request_timeout is not None:
                # Fault-model watchdog: a crashed site wipes the pre-scheduled
                # lock whose normal grant this wait depends on, so the wait
                # could otherwise outlive the run and leak the transaction's
                # locks at every healthy site.
                self._transport.schedule(
                    self._request_timeout,
                    partial(self._on_release_timeout, execution, execution.attempt),
                    label=f"release-timeout-{execution.tid}",
                    site=self.site,
                )
            self._advance(execution)
        else:
            self._final_release(execution)

    def _on_release_timeout(self, execution: TransactionExecution, attempt: int) -> None:
        """Force the final release of a committed transaction stuck awaiting normality.

        Only reachable under the fault model: the normal grant it is waiting
        for was wiped with a crashed site's lock table and will never arrive.
        The transaction is committed either way; reclaiming its remaining
        locks bounds how long one dead site can block healthy ones.
        """
        if not self._up():
            return
        if execution.attempt != attempt:
            return
        if not execution.awaiting_final_release:
            return
        if execution.status is not TransactionStatus.COMMITTED:
            return
        self._final_release(execution)

    def abort_for_commit(self, execution: TransactionExecution) -> None:
        """Abort an attempt whose commit round decided abort (ordinary restart).

        The abort messages travel the issuer-to-queue-manager channels, so
        FIFO ordering guarantees they land before any request of the next
        attempt.
        """
        self._abort_attempt(execution, due_to_deadlock=False)

    # ---------------------------------------------------------------- #
    # Public API
    # ---------------------------------------------------------------- #

    def submit_transaction(self, spec: TransactionSpec) -> None:
        """Accept a newly arrived transaction and start its first attempt."""
        now = self._transport.now
        protocol = spec.protocol
        if protocol is None:
            if self._choose_protocol is None:
                raise SimulationError(
                    f"transaction {spec.tid} has no protocol and no selector is configured"
                )
            protocol = self._choose_protocol(spec, now)
        execution = TransactionExecution(
            spec=spec, protocol=protocol, timestamp=self._new_timestamp(now)
        )
        self._plan(execution)
        self._executions[spec.tid] = execution
        self._uncommitted += 1
        self._protocol_registry[spec.tid] = protocol
        self._metrics.record_arrival(protocol, spec.arrival_time)
        self._start_attempt(execution)

    @property
    def uncommitted(self) -> int:
        """Number of submitted transactions that have not committed yet (O(1))."""
        return self._uncommitted

    def execution_status(self, tid: TransactionId) -> Optional[TransactionStatus]:
        """The life-cycle status of ``tid``'s current attempt, or ``None``."""
        execution = self._executions.get(tid)
        if execution is not None:
            return execution.status
        return TransactionStatus.FINISHED if tid in self._finished else None

    def committed_attempts(self) -> Dict[TransactionId, int]:
        """For every committed transaction, the attempt number that committed.

        The serializability oracle audits the view of the execution log
        restricted to these attempts; entries stranded by an abort message
        that a crashed site never received belong to no committed attempt
        and are excluded.  Retired transactions answer from the finished
        map; only those still COMMITTED (awaiting their final release) are
        read off a live execution.
        """
        committed = dict(self._finished)
        for tid, execution in self._executions.items():
            if execution.status is TransactionStatus.COMMITTED:
                committed[tid] = execution.attempt
        return committed

    def granted_lock_count(self, tid: TransactionId) -> int:
        """Number of locks the transaction currently holds (victim-selection hint).

        A retired (finished) transaction holds none.
        """
        execution = self._executions.get(tid)
        if execution is None:
            return 0
        return execution.granted

    def abort_victim(self, tid: TransactionId) -> None:
        """Abort ``tid`` as a deadlock victim (invoked via the detector's message)."""
        execution = self._executions.get(tid)
        if execution is None:
            return
        if execution.status not in (TransactionStatus.REQUESTING, TransactionStatus.BACKING_OFF):
            # The transaction acquired its last lock (or committed) after the
            # detector's snapshot was taken; the cycle no longer exists.
            return
        self._abort_attempt(execution, due_to_deadlock=True)

    # ---------------------------------------------------------------- #
    # Coordinator crash and recovery
    # ---------------------------------------------------------------- #

    def on_coordinator_crash(self, site: SiteId, now: float) -> None:
        """Crash listener: the TM process dies, losing its volatile commit state.

        Wired to the fault injector's coordinator-crash notifications;
        events for other sites are ignored.  The transaction table itself
        survives (it models the terminals' pending work, which recovery
        re-drives); what dies is the commit layer's in-memory round state —
        vote tallies and parked status queries.
        """
        if site != self.site:
            return
        self._commit.on_coordinator_crash()

    def on_coordinator_recovery(self, site: SiteId, now: float) -> None:
        """Recovery listener: walk the transaction table and re-drive stuck work.

        The walk is the log-driven recovery pass of a restarting TM:

        * ``PREPARING`` — the round is by construction undecided (decisions
          log atomically with round closure), so the commit layer's
          :meth:`~repro.commit.base.CommitProtocol.recover` aborts it under
          the variant's own logging rules and restarts the attempt;
        * ``REQUESTING`` / ``BACKING_OFF`` / ``EXECUTING`` — replies and
          completion events addressed to the dead process were dropped, so
          the attempt is aborted and restarted;
        * ``ABORTED`` — the pending restart timer was suppressed while
          down; schedule it again (idempotent under the status guard);
        * ``COMMITTED`` still awaiting its final release — force it, as the
          release watchdog would have.

        Every timer suppressed during the downtime is accounted here and
        nowhere else, so a recovering coordinator never double-fires
        restarts for transactions it re-drives from its log.
        """
        if site != self.site:
            return
        self._metrics.record_coordinator_recovery()
        for execution in list(self._executions.values()):
            status = execution.status
            if status is TransactionStatus.PREPARING:
                started = (
                    execution.prepare_time
                    if execution.prepare_time is not None
                    else now
                )
                self._metrics.record_coordinator_redrive(now - started)
                self._commit.recover(execution)
            elif status in (
                TransactionStatus.REQUESTING,
                TransactionStatus.BACKING_OFF,
                TransactionStatus.EXECUTING,
            ):
                self._metrics.record_coordinator_redrive()
                self._abort_attempt(execution, due_to_deadlock=False)
            elif status is TransactionStatus.ABORTED:
                self._metrics.record_coordinator_redrive()
                self._transport.schedule(
                    self._restart_delay,
                    partial(self._restart, execution),
                    label=f"restart-{execution.tid}",
                    site=self.site,
                )
            elif (
                status is TransactionStatus.COMMITTED
                and execution.awaiting_final_release
            ):
                self._metrics.record_coordinator_redrive()
                self._final_release(execution)

    # ---------------------------------------------------------------- #
    # Message handling
    # ---------------------------------------------------------------- #

    def handle(self, message: Message) -> None:
        """Dispatch one inbound network message to its handler."""
        if message.kind == "grant":
            payload = message.payload
            if isinstance(payload, GrantDelivery):
                self._on_grant(payload.effect, payload.read_value)
            else:
                self._on_grant(payload)
        elif message.kind == "backoff":
            self._on_backoff(message.payload)
        elif message.kind == "reject":
            self._on_reject(message.payload)
        elif message.kind in self._commit.message_kinds:
            self._commit.handle_message(message.kind, message.payload)
        elif message.kind == "abort_victim":
            self.abort_victim(message.payload)
        elif message.kind == "submit":
            self.submit_transaction(message.payload)
        else:
            raise SimulationError(f"request issuer received unknown message kind {message.kind!r}")

    # ---------------------------------------------------------------- #
    # Attempt management
    # ---------------------------------------------------------------- #

    def _new_timestamp(self, now: float) -> float:
        """A timestamp strictly increasing within this site.

        Timestamps are simulated clock readings; the tiny counter-based offset
        keeps them distinct when several transactions start at the same
        instant (ties across sites are resolved by the precedence rules).
        """
        self._timestamp_counter += 1
        return now + self._timestamp_counter * 1e-9

    def _plan(self, execution: TransactionExecution) -> None:
        """Translate the transaction once: the plan every attempt issues."""
        operations = self._translate(execution.spec)
        execution.physical_operations = tuple(operations)
        execution.copies = tuple(operation.copy for operation in operations)
        execution.queue_managers = tuple(queue_manager_name(copy) for copy in execution.copies)
        execution.reads = sum(1 for operation in operations if operation.is_read)
        execution.writes = len(operations) - execution.reads

    def _start_attempt(self, execution: TransactionExecution) -> None:
        self.transition(execution, TransactionStatus.REQUESTING)
        tid = execution.tid
        attempt = execution.attempt
        protocol = execution.protocol
        self._metrics.record_attempt(protocol, execution.reads, execution.writes)
        states: List[RequestState] = []
        execution.requests = states
        execution.waiting = len(execution.physical_operations)
        execution.backed_off = execution.granted = execution.normal = 0
        for index, operation in enumerate(execution.physical_operations):
            request = Request(
                request_id=RequestId(tid, index, attempt),
                transaction=tid,
                protocol=protocol,
                op_type=operation.op_type,
                copy=operation.copy,
                timestamp=execution.timestamp,
                backoff_interval=self._pa_backoff_interval,
                issuer=self.name,
            )
            states.append(RequestState(request))
            self._transport.send(self, execution.queue_managers[index], "request", request)
        if self._request_timeout is not None:
            self._transport.schedule(
                self._request_timeout,
                partial(self._on_request_timeout, execution, attempt),
                label=f"request-timeout-{tid}",
                site=self.site,
            )

    def _on_request_timeout(self, execution: TransactionExecution, attempt: int) -> None:
        """Fault-model watchdog: retry an attempt stuck waiting for grants.

        A request dropped at a crashed site would otherwise block its
        transaction forever; the watchdog aborts the attempt so the restart
        can try again (and succeed once the site recovers).
        """
        if not self._up():
            # A dead TM process fires no timers; the recovery walk restarts
            # whatever is still stuck when the coordinator comes back.
            return
        if execution.attempt != attempt:
            return
        if execution.status not in (TransactionStatus.REQUESTING, TransactionStatus.BACKING_OFF):
            return
        self._metrics.record_timeout_restart()
        self._abort_attempt(execution, due_to_deadlock=False)

    def _translate(self, spec: TransactionSpec) -> List[PhysicalOperation]:
        """Logical-to-physical translation with per-copy de-duplication.

        When a transaction both reads and writes the same item, the write
        request subsumes the read at the copy chosen for reading (a write lock
        covers the read), so only one request per copy is ever issued.
        """
        operations = self._catalog.translate(spec.logical_operations(), spec.origin_site)
        strongest: Dict[CopyId, PhysicalOperation] = {}
        for operation in operations:
            existing = strongest.get(operation.copy)
            if existing is None or (existing.is_read and operation.is_write):
                strongest[operation.copy] = operation
        return [strongest[copy] for copy in sorted(strongest)]

    def _abort_attempt(self, execution: TransactionExecution, due_to_deadlock: bool) -> None:
        now = self._transport.now
        for state in execution.requests:
            if state.phase is _RequestPhase.GRANTED and state.grant_time is not None:
                self._metrics.record_lock_time(
                    execution.protocol, now - state.grant_time, aborted=True
                )
        for queue_manager in execution.queue_managers:
            self._transport.send(self, queue_manager, "abort", execution.tid)
        self.transition(execution, TransactionStatus.ABORTED)
        if due_to_deadlock:
            execution.deadlock_aborts += 1
        else:
            execution.restarts += 1
        self._metrics.record_restart(execution.protocol, due_to_deadlock)
        self._transport.schedule(
            self._restart_delay,
            partial(self._restart, execution),
            label=f"restart-{execution.tid}",
            site=self.site,
        )

    def _restart(self, execution: TransactionExecution) -> None:
        if not self._up():
            # Suppressed while down; the recovery walk reschedules it.
            return
        if execution.status is not TransactionStatus.ABORTED:
            return
        execution.attempt += 1
        execution.timestamp = self._new_timestamp(self._transport.now)
        self._maybe_switch_protocol(execution)
        self._start_attempt(execution)

    def _maybe_switch_protocol(self, execution: TransactionExecution) -> None:
        """Future-work item 4: switch a repeatedly aborted transaction to PA.

        PA attempts are never rejected and never chosen as deadlock victims,
        so the switch bounds how often one transaction can be restarted.
        """
        if self._protocol_switch_threshold is None:
            return
        if execution.protocol.is_precedence_agreement:
            return
        aborts = execution.restarts + execution.deadlock_aborts
        if aborts < self._protocol_switch_threshold:
            return
        execution.protocol = Protocol.PRECEDENCE_AGREEMENT
        self._protocol_registry[execution.tid] = Protocol.PRECEDENCE_AGREEMENT
        self._protocol_switches += 1

    @property
    def protocol_switches(self) -> int:
        """Number of transactions this issuer has switched to PA after repeated aborts."""
        return self._protocol_switches

    # ---------------------------------------------------------------- #
    # Responses from queue managers
    # ---------------------------------------------------------------- #

    def _lookup(self, request: Request) -> Optional[Tuple[TransactionExecution, RequestState]]:
        execution = self._executions.get(request.transaction)
        if execution is None:
            return None
        request_id = request.request_id
        if request_id.attempt != execution.attempt:
            return None            # stale message from a previous attempt
        return execution, execution.requests[request_id.index]

    def _on_grant(self, effect: GrantIssued, read_value: Any = None) -> None:
        found = self._lookup(effect.request)
        if found is None:
            return
        execution, state = found
        if execution.status is TransactionStatus.ABORTED:
            return
        phase = state.phase
        if phase is not _RequestPhase.GRANTED:
            if phase is _RequestPhase.WAITING:
                execution.waiting -= 1
            else:
                execution.backed_off -= 1
            state.phase = _RequestPhase.GRANTED
            execution.granted += 1
            state.grant_time = self._transport.now
            request = effect.request
            if request.op_type is OperationType.READ:
                # The value attached to the grant is what the read observed;
                # keep the first copy (later "normal" re-grants carry no data).
                execution.read_values.setdefault(request.copy.item, read_value)
        if effect.normal and not state.normal_grant:
            state.normal_grant = True
            execution.normal += 1
        self._advance(execution)

    def _on_backoff(self, effect: BackoffIssued) -> None:
        found = self._lookup(effect.request)
        if found is None:
            return
        execution, state = found
        if execution.status is TransactionStatus.ABORTED:
            return
        phase = state.phase
        if phase is not _RequestPhase.BACKED_OFF:
            if phase is _RequestPhase.WAITING:
                execution.waiting -= 1
            else:
                execution.granted -= 1
            state.phase = _RequestPhase.BACKED_OFF
            execution.backed_off += 1
        state.backoff_timestamp = effect.new_timestamp
        if effect.new_timestamp is not None and effect.new_timestamp > effect.request.timestamp:
            # Only a proposal above the transaction's own timestamp is a true
            # back-off; an "acceptable as-is" proposal is just the first phase
            # of the PA propose/confirm negotiation.
            self._metrics.record_backoff(execution.protocol, effect.request.op_type)
        self._advance(execution)

    def _on_reject(self, effect: RequestRejected) -> None:
        found = self._lookup(effect.request)
        if found is None:
            return
        execution, _state = found
        if execution.status is TransactionStatus.ABORTED:
            return
        self._metrics.record_rejection(execution.protocol, effect.request.op_type)
        self._abort_attempt(execution, due_to_deadlock=False)

    # ---------------------------------------------------------------- #
    # Progress rules
    # ---------------------------------------------------------------- #

    def _advance(self, execution: TransactionExecution) -> None:
        """Apply the protocol's progress rule after any state change."""
        status = execution.status
        if status is TransactionStatus.REQUESTING or status is TransactionStatus.BACKING_OFF:
            if execution.granted == len(execution.requests):
                self._begin_execution(execution)
            elif (
                execution.protocol.is_precedence_agreement
                and not execution.waiting
                and execution.backed_off
            ):
                self._run_backoff_round(execution)
            return
        if execution.awaiting_final_release and execution.normal == len(execution.requests):
            self._final_release(execution)

    def _run_backoff_round(self, execution: TransactionExecution) -> None:
        """PA timestamp agreement: adopt the maximum proposal and broadcast the confirmation."""
        backed_off = [
            state for state in execution.requests if state.phase is _RequestPhase.BACKED_OFF
        ]
        agreed = max(
            [execution.timestamp]
            + [
                state.backoff_timestamp
                for state in backed_off
                if state.backoff_timestamp is not None
            ]
        )
        if agreed > execution.timestamp:
            # The agreement moved the timestamp: that is a real back-off round.
            execution.backoff_rounds += 1
            self._metrics.record_backoff_round(execution.protocol)
        execution.timestamp = agreed
        self.transition(execution, TransactionStatus.BACKING_OFF)
        for state in backed_off:
            state.phase = _RequestPhase.WAITING
            state.backoff_timestamp = None
        execution.waiting += len(backed_off)
        execution.backed_off = 0
        for queue_manager in execution.queue_managers:
            self._transport.send(self, queue_manager, "update_ts", (execution.tid, agreed))

    def _begin_execution(self, execution: TransactionExecution) -> None:
        self.transition(execution, TransactionStatus.EXECUTING)
        self._fill_missing_read_values(execution)
        duration = execution.spec.compute_time + self._io_time * len(execution.physical_operations)
        self._transport.schedule(
            duration,
            partial(self._complete_execution, execution, execution.attempt),
            label=f"execute-{execution.tid}",
            site=self.site,
        )

    def _fill_missing_read_values(self, execution: TransactionExecution) -> None:
        """Complete the read set for items whose grant carried no value.

        Items that the transaction both reads and writes are covered by a
        write request (whose grant carries no data), and runs without a value
        store attach ``None``; those are read here, under the protection of
        the write lock the transaction already holds.
        """
        if self._value_store is None:
            return
        for item in execution.spec.read_items:
            if execution.read_values.get(item) is None:
                copy = self._catalog.read_copy(item, self.site)
                execution.read_values[item] = self._value_store.read(copy)

    def _complete_execution(self, execution: TransactionExecution, attempt: int = 0) -> None:
        """The local computation finished: hand the transaction to the commit layer.

        The attempt guard matters once coordinator recovery can abort an
        ``EXECUTING`` transaction: the superseded attempt's completion event
        may still be queued, and the retry could be ``EXECUTING`` again when
        it fires — without the guard the stale event would open a commit
        round for work the new attempt has not finished.
        """
        if not self._up():
            # Suppressed while down; the recovery walk aborts the attempt.
            return
        if execution.attempt != attempt:
            return
        if execution.status is not TransactionStatus.EXECUTING:
            return
        self._commit.begin_commit(execution)

    def _final_release(self, execution: TransactionExecution) -> None:
        """Release every lock: one walk records each hold time and sends the release."""
        now = self._transport.now
        execution.awaiting_final_release = False
        for state, queue_manager in zip(execution.requests, execution.queue_managers):
            if state.grant_time is not None:
                self._metrics.record_lock_time(
                    execution.protocol, now - state.grant_time, aborted=False
                )
            self._transport.send(self, queue_manager, "release", execution.tid)
        self.transition(execution, TransactionStatus.FINISHED)
