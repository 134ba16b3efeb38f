"""Assembly of the whole simulated distributed database."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Sequence, Tuple

from repro.commit.audit import (
    ReplicaReport,
    StreamingReplicaAuditor,
    check_replica_convergence,
)
from repro.commit.base import commit_protocol_class
from repro.common.config import SystemConfig, WorkloadConfig
from repro.common.errors import SimulationError
from repro.common.ids import CopyId, SiteId, TransactionId
from repro.common.protocol_names import Protocol
from repro.common.transactions import TransactionSpec
from repro.core.queue_manager import QueueManager
from repro.core.serializability import SerializabilityReport, check_serializable
from repro.live.transport import SimTransport
from repro.sim.network import Network
from repro.sim.rng import RandomStreams
from repro.sim.simulator import Simulator
from repro.storage.catalog import ReplicaCatalog
from repro.storage.log import ExecutionLog, SiteCommitLog
from repro.storage.store import ValueStore
from repro.system.coordinator import ProtocolChooser, RequestIssuerActor
from repro.system.detector import DeadlockDetectorActor
from repro.system.metrics import MetricsCollector
from repro.system.queue_manager_actor import QueueManagerActor

if TYPE_CHECKING:  # pragma: no cover - typing only; imported where a run uses them
    from repro.commit.participant import CommitParticipantActor
    from repro.core.streaming import IncrementalSerializabilityChecker
    from repro.sim.faults import FaultInjector


@dataclass
class RunResult:
    """Everything a finished simulation run exposes to experiments and tests."""

    system: SystemConfig
    workload: Optional[WorkloadConfig]
    metrics: MetricsCollector
    serializability: SerializabilityReport
    end_time: float
    submitted: int
    committed: int
    messages_total: int
    messages_remote: int
    messages_by_kind: Dict[str, int]
    detector_scans: int
    deadlocks_found: int
    deadlock_victims: Tuple[TransactionId, ...]
    protocol_switches: int = 0
    protocol_of: Dict[TransactionId, Protocol] = field(default_factory=dict)
    #: Arrival times at which workload drift segments took effect (empty for
    #: stationary workloads); set by the runner after generation.
    drift_boundaries: Tuple[float, ...] = ()
    #: Name of the commit layer the run used (``one-phase`` / ``two-phase``).
    commit_protocol: str = "one-phase"
    #: Replica-convergence audit over every replicated item's final values.
    replica_report: ReplicaReport = field(
        default_factory=lambda: ReplicaReport(checked_items=0, divergent_items=())
    )
    #: Site crashes that fired during the run (0 in fault-free runs).
    crashes: int = 0
    #: Messages dropped because their receiver's site was down.
    messages_dropped: int = 0
    #: Coordinator (TM-process) crashes that fired during the run.
    coordinator_crashes: int = 0
    #: Forced (synchronous) commit-log writes summed over every site.
    forced_log_writes: int = 0
    #: Lazy (asynchronous) commit-log writes summed over every site.
    lazy_log_writes: int = 0
    #: Commit-log records reclaimed by checkpoint truncation, all sites.
    log_records_truncated: int = 0
    #: Largest live commit-log record count any site ever held.
    peak_log_records: int = 0
    #: Audit pipeline the run used (``batch`` or ``streaming``).
    audit: str = "batch"
    #: Streaming-audit bookkeeping (entries seen/retired, peak live state);
    #: empty for batch runs.
    audit_stats: Dict[str, int] = field(default_factory=dict)
    #: Attempt number each committed transaction committed under, keyed by
    #: transaction id.  The live-mode differential harness compares this
    #: against a live run's committed set; excluded from :meth:`summary`.
    committed_attempts: Dict[TransactionId, int] = field(default_factory=dict)

    @property
    def serializable(self) -> bool:
        """Whether the run passed the conflict-serializability audit."""
        return self.serializability.serializable

    @property
    def availability(self) -> float:
        """Fraction of submitted transactions that committed by the end of the run."""
        if not self.submitted:
            return 0.0
        return self.committed / self.submitted

    @property
    def atomic(self) -> bool:
        """Whether every committed write-all fully happened (no replica divergence)."""
        return self.replica_report.convergent

    @property
    def lost_writes(self) -> int:
        """Write-all members lost at crashed sites (one-phase commit under faults)."""
        return self.metrics.lost_writes

    @property
    def commit_aborts(self) -> int:
        """Two-phase commit rounds that decided abort."""
        return self.metrics.commit_aborts

    @property
    def timeout_restarts(self) -> int:
        """Attempts aborted by the request-timeout watchdog."""
        return self.metrics.timeout_restarts

    @property
    def mean_system_time(self) -> float:
        """The paper's performance measure ``S`` averaged over committed transactions."""
        return self.metrics.mean_system_time()

    @property
    def throughput(self) -> float:
        """Committed transactions per unit of simulated time."""
        return self.metrics.throughput()

    @property
    def restarts(self) -> int:
        """Total non-deadlock restarts (T/O rejections) across the run."""
        return self.metrics.total_restarts()

    @property
    def deadlock_aborts(self) -> int:
        """Total deadlock victimisations across the run."""
        return self.metrics.total_deadlock_aborts()

    @property
    def backoff_rounds(self) -> int:
        """Total PA back-off rounds across the run."""
        return self.metrics.total_backoff_rounds()

    @property
    def messages_per_transaction(self) -> float:
        """Messages sent per committed transaction (0 when nothing committed)."""
        if not self.committed:
            return 0.0
        return self.messages_total / self.committed

    def summary(self) -> Dict[str, object]:
        """Flat dictionary used by the result tables in :mod:`repro.analysis`."""
        return {
            "committed": self.committed,
            "submitted": self.submitted,
            "mean_system_time": self.mean_system_time,
            "throughput": self.throughput,
            "restarts": self.restarts,
            "deadlock_aborts": self.deadlock_aborts,
            "backoff_rounds": self.backoff_rounds,
            "protocol_switches": self.protocol_switches,
            "messages_total": self.messages_total,
            "messages_per_transaction": self.messages_per_transaction,
            "serializable": self.serializable,
            "end_time": self.end_time,
            "commit_protocol": self.commit_protocol,
            "audit": self.audit,
            "availability": self.availability,
            "atomic": self.atomic,
            "replica_divergent_items": len(self.replica_report.divergent_items),
            "lost_writes": self.lost_writes,
            "commit_aborts": self.commit_aborts,
            "timeout_restarts": self.timeout_restarts,
            "mean_commit_latency": self.metrics.mean_commit_latency,
            "mean_in_doubt_time": self.metrics.mean_in_doubt_time,
            "crashes": self.crashes,
            "messages_dropped": self.messages_dropped,
            "coordinator_crashes": self.coordinator_crashes,
            "coordinator_recoveries": self.metrics.coordinator_recoveries,
            "redriven_transactions": self.metrics.redriven_transactions,
            "mean_recovery_latency": self.metrics.mean_recovery_latency,
            "max_in_doubt_time": self.metrics.max_in_doubt_time,
            "termination_resolutions": self.metrics.termination_resolutions,
            "forced_log_writes": self.forced_log_writes,
            "lazy_log_writes": self.lazy_log_writes,
            "log_records_truncated": self.log_records_truncated,
            "peak_log_records": self.peak_log_records,
        }


class DistributedDatabase:
    """Builds and runs the simulated distributed database of the paper.

    Typical use::

        system = SystemConfig(num_sites=4, num_items=64)
        workload = WorkloadConfig(arrival_rate=20.0, num_transactions=500)
        database = DistributedDatabase(system)
        database.load_workload(generate_workload(system, workload))
        result = database.run()
        assert result.serializable

    A protocol chooser may be supplied for dynamic (per-transaction)
    concurrency control; transactions whose spec already names a protocol
    bypass it.
    """

    def __init__(
        self,
        system: SystemConfig,
        *,
        choose_protocol: Optional[ProtocolChooser] = None,
        value_store: Optional[ValueStore] = None,
    ) -> None:
        self._system = system
        self._simulator = Simulator()
        self._rng = RandomStreams(system.seed)
        self._faults: Optional[FaultInjector] = None
        if system.faults is not None:
            from repro.sim.faults import FaultInjector

            self._faults = FaultInjector(
                self._simulator, system.faults, system.num_sites, self._rng
            )
        self._network = Network(
            self._simulator, system.network, self._rng, faults=self._faults
        )
        # The transport seam: under the simulator it is pure delegation to
        # the network and simulator above, so actor behaviour is
        # byte-identical to pre-seam code; live mode swaps in a TcpTransport.
        self._transport = SimTransport(self._simulator, self._network)
        self._catalog = ReplicaCatalog.from_config(system)
        streaming = system.audit == "streaming"
        self._execution_log = ExecutionLog(bounded=streaming)
        self._audit_checker: Optional[IncrementalSerializabilityChecker] = None
        if streaming:
            from repro.core.streaming import IncrementalSerializabilityChecker

            # The checker observes every recorded/withdrawn entry and, once a
            # transaction is sealed and safe, retires its log entries so the
            # execution log stays bounded by the live window.
            self._audit_checker = IncrementalSerializabilityChecker(
                on_retire=self._execution_log.retire_transaction
            )
            self._execution_log.attach_observer(self._audit_checker)
        self._value_store = value_store if value_store is not None else ValueStore()
        self._replica_auditor: Optional[StreamingReplicaAuditor] = None
        if streaming:
            self._replica_auditor = StreamingReplicaAuditor(
                self._value_store.default_value
            )
            self._value_store.attach_write_observer(self._replica_auditor)
        self._metrics = MetricsCollector(streaming=streaming)
        self._protocol_registry: Dict[TransactionId, Protocol] = {}
        self._pending_arrivals = 0
        self._submitted = 0
        self._workload_config: Optional[WorkloadConfig] = None
        self._commit_logs: Dict[SiteId, SiteCommitLog] = {
            site: SiteCommitLog(site) for site in range(system.num_sites)
        }

        self._queue_managers: Dict[CopyId, QueueManager] = {}
        self._queue_manager_actors: Dict[CopyId, QueueManagerActor] = {}
        for site in range(system.num_sites):
            for copy in self._catalog.copies_at(site):
                manager = QueueManager(
                    copy,
                    self._execution_log,
                    semi_locks_enabled=system.semi_locks_enabled,
                )
                actor = QueueManagerActor(
                    manager, self._transport, self._metrics, self._value_store
                )
                self._network.register(actor)
                self._queue_managers[copy] = manager
                self._queue_manager_actors[copy] = actor

        self._participants: Dict[SiteId, CommitParticipantActor] = {}
        if commit_protocol_class(system.commit.protocol).uses_participants:
            from repro.commit.participant import CommitParticipantActor

            for site in range(system.num_sites):
                participant = CommitParticipantActor(
                    site=site,
                    transport=self._transport,
                    metrics=self._metrics,
                    value_store=self._value_store,
                    managers={
                        copy: self._queue_managers[copy]
                        for copy in self._catalog.copies_at(site)
                    },
                    commit_log=self._commit_logs[site],
                    commit_config=system.commit,
                    faults=self._faults,
                )
                self._network.register(participant)
                self._participants[site] = participant

        if self._faults is not None:
            self._faults.add_crash_listener(self._on_site_crashed)
            for participant in self._participants.values():
                self._faults.add_recovery_listener(participant.on_site_event)

        self._issuers: Dict[SiteId, RequestIssuerActor] = {}
        for site in range(system.num_sites):
            issuer = RequestIssuerActor(
                site=site,
                transport=self._transport,
                catalog=self._catalog,
                metrics=self._metrics,
                io_time=system.io_time,
                restart_delay=system.restart_delay,
                pa_backoff_interval=system.pa_backoff_interval,
                semi_locks_enabled=system.semi_locks_enabled,
                choose_protocol=choose_protocol,
                value_store=self._value_store,
                protocol_registry=self._protocol_registry,
                protocol_switch_threshold=system.protocol_switch_threshold,
                commit_config=system.commit,
                commit_log=self._commit_logs[site],
                faults=self._faults,
                audit_stream=self._audit_checker,
            )
            self._network.register(issuer)
            self._issuers[site] = issuer

        if self._faults is not None:
            for issuer in self._issuers.values():
                self._faults.add_coordinator_crash_listener(issuer.on_coordinator_crash)
                self._faults.add_coordinator_recovery_listener(
                    issuer.on_coordinator_recovery
                )

        self._detector = DeadlockDetectorActor(
            simulator=self._simulator,
            network=self._network,
            queue_managers=list(self._queue_managers.values()),
            issuers=self._issuers,
            protocol_registry=self._protocol_registry,
            period=system.deadlock_detection_period,
            message_cost_per_site=system.deadlock_detection_message_cost,
            keep_running=lambda: self.remaining_work() > 0,
        )
        self._network.register(self._detector)

    # ---------------------------------------------------------------- #
    # Accessors
    # ---------------------------------------------------------------- #

    @property
    def simulator(self) -> Simulator:
        """The discrete-event simulator driving the run."""
        return self._simulator

    @property
    def network(self) -> Network:
        """The message-passing network between actors."""
        return self._network

    @property
    def transport(self) -> SimTransport:
        """The transport seam the actors send and schedule through."""
        return self._transport

    @property
    def catalog(self) -> ReplicaCatalog:
        """The replica catalog mapping items to physical copies."""
        return self._catalog

    @property
    def metrics(self) -> MetricsCollector:
        """The run's metrics collector."""
        return self._metrics

    @property
    def execution_log(self) -> ExecutionLog:
        """The per-copy log of implemented operations (the oracle's input)."""
        return self._execution_log

    @property
    def audit_checker(self) -> Optional[IncrementalSerializabilityChecker]:
        """The incremental oracle, or ``None`` when the run audits in batch."""
        return self._audit_checker

    @property
    def value_store(self) -> ValueStore:
        """The store holding every copy's current value."""
        return self._value_store

    @property
    def detector(self) -> DeadlockDetectorActor:
        """The periodic deadlock detector actor."""
        return self._detector

    @property
    def faults(self) -> Optional[FaultInjector]:
        """The fault injector, or ``None`` when the run is fault-free."""
        return self._faults

    def queue_manager(self, copy: CopyId) -> QueueManager:
        """The queue manager serving ``copy``."""
        return self._queue_managers[copy]

    def issuer(self, site: SiteId) -> RequestIssuerActor:
        """The request issuer actor of ``site``."""
        return self._issuers[site]

    def participant(self, site: SiteId) -> CommitParticipantActor:
        """The commit-participant actor of ``site`` (a two-phase-family run has one per site)."""
        return self._participants[site]

    def commit_log(self, site: SiteId) -> SiteCommitLog:
        """The durable commit log of ``site``."""
        return self._commit_logs[site]

    def _on_site_crashed(self, site: SiteId, now: float) -> None:
        """Crash listener: wipe the volatile state of the site's queue managers."""
        for copy in self._catalog.copies_at(site):
            self._queue_managers[copy].crash(now)

    def protocol_of(self, tid: TransactionId) -> Optional[Protocol]:
        """The protocol ``tid`` ran under, or ``None`` if it never started."""
        return self._protocol_registry.get(tid)

    def remaining_work(self) -> int:
        """Arrivals not yet submitted plus transactions not yet committed.

        This is the run's termination test: the deadlock detector and the
        checkpoint chain stop rescheduling themselves once it reaches zero,
        which lets the event queue drain.  It is O(sites): every issuer keeps
        its uncommitted count exactly.
        """
        uncommitted = sum(issuer.uncommitted for issuer in self._issuers.values())
        return self._pending_arrivals + uncommitted

    # ---------------------------------------------------------------- #
    # Workload submission
    # ---------------------------------------------------------------- #

    def load_workload(
        self,
        specs: Sequence[TransactionSpec],
        workload_config: Optional[WorkloadConfig] = None,
    ) -> None:
        """Schedule the arrival of every transaction in ``specs``, one at a time.

        The arrivals fire exactly as ``for spec in specs: submit(spec)``
        would fire them, but only one of them is pending at any moment: each
        arrival schedules the next as it fires, so the event list does not
        grow with the workload.  The block of seqs the eager loop would have
        drawn is reserved up front and handed out in firing order — a stable
        sort by arrival time — so every arrival tie-breaks against every
        other event as it would have under the eager loop.
        """
        self._workload_config = workload_config
        for spec in specs:
            self._check_origin(spec)
        now = self._simulator.now
        ordered = sorted(specs, key=lambda spec: max(spec.arrival_time, now))
        self._pending_arrivals += len(ordered)
        self._submitted += len(ordered)
        first_seq = self._simulator.reserve(len(ordered))
        self._schedule_next_arrival(iter(enumerate(ordered, first_seq)), now)

    def _schedule_next_arrival(
        self, arrivals: Iterator[Tuple[int, TransactionSpec]], not_before: float
    ) -> None:
        """Push the next of ``load_workload``'s arrivals with its reserved seq."""
        step = next(arrivals, None)
        if step is None:
            return
        seq, spec = step

        def arrive() -> None:
            self._schedule_next_arrival(arrivals, not_before)
            self._arrive(spec)

        self._simulator.schedule_at(
            max(spec.arrival_time, not_before), arrive, label=f"arrival-{spec.tid}", seq=seq
        )

    def submit(self, spec: TransactionSpec) -> None:
        """Schedule one transaction to arrive at its ``arrival_time``."""
        self._check_origin(spec)
        self._pending_arrivals += 1
        self._submitted += 1
        self._simulator.schedule_at(
            max(spec.arrival_time, self._simulator.now),
            lambda spec=spec: self._arrive(spec),
            label=f"arrival-{spec.tid}",
        )

    def _check_origin(self, spec: TransactionSpec) -> None:
        if spec.origin_site not in self._issuers:
            raise SimulationError(
                f"transaction {spec.tid} originates at unknown site {spec.origin_site}"
            )

    def _arrive(self, spec: TransactionSpec) -> None:
        if self._faults is not None and not self._faults.coordinator_up(
            spec.origin_site, self._simulator.now
        ):
            # A crashed transaction manager cannot accept new work; the
            # arrival waits at the terminal until the coordinator restarts.
            recovery = self._faults.coordinator_recovery_time(
                spec.origin_site, self._simulator.now
            )
            self._simulator.schedule_at(
                recovery,
                lambda spec=spec: self._arrive(spec),
                label=f"arrival-deferred-{spec.tid}",
            )
            return
        self._pending_arrivals -= 1
        self._issuers[spec.origin_site].submit_transaction(spec)

    # ---------------------------------------------------------------- #
    # Running
    # ---------------------------------------------------------------- #

    def run(
        self,
        max_time: Optional[float] = None,
        max_events: int = 5_000_000,
    ) -> RunResult:
        """Run the simulation until the event queue drains (all work finished).

        ``max_time`` bounds the simulated clock, ``max_events`` guards against
        runaway runs; hitting the event cap raises :class:`SimulationError`
        because it indicates a livelock rather than a legitimate long run.
        """
        if self._faults is not None:
            self._faults.start()
        self._detector.start()
        if self._system.commit.checkpoint_interval is not None:
            self._schedule_checkpoint()
        end_time = self._simulator.run(until=max_time, max_events=max_events)
        if self._simulator.pending_events and max_time is None:
            if self._simulator.events_processed >= max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events with "
                    f"{self.remaining_work()} transactions still outstanding"
                )
        return self._build_result(end_time)

    def _schedule_checkpoint(self) -> None:
        interval = self._system.commit.checkpoint_interval
        assert interval is not None
        self._simulator.schedule(interval, self._run_checkpoint, label="checkpoint")

    def _run_checkpoint(self) -> None:
        """Periodic checkpoint: truncate every site's commit log.

        Only collectable records go — resolved prepares, decided begin
        records, and decisions that are presumed or fully acknowledged —
        so any participant that could still ask about an outcome keeps
        getting an answer.  The chain stops rescheduling itself once the
        workload has drained, letting the event queue empty.
        """
        for log in self._commit_logs.values():
            log.truncate()
        if self.remaining_work() > 0:
            self._schedule_checkpoint()

    def _build_result(self, end_time: float) -> RunResult:
        committed_attempts: Dict[TransactionId, int] = {}
        for issuer in self._issuers.values():
            committed_attempts.update(issuer.committed_attempts())
        audit_stats: Dict[str, int] = {}
        if self._audit_checker is not None:
            report = self._audit_checker.finalize(committed_attempts)
            audit_stats = self._audit_checker.stats()
            assert self._replica_auditor is not None
            replica_report = self._replica_auditor.report(self._catalog)
        else:
            report = check_serializable(self._execution_log, committed_attempts)
            replica_report = check_replica_convergence(self._value_store, self._catalog)
        return RunResult(
            system=self._system,
            workload=self._workload_config,
            metrics=self._metrics,
            serializability=report,
            end_time=end_time,
            submitted=self._submitted,
            committed=self._metrics.committed_count,
            messages_total=self._network.messages_sent,
            messages_remote=self._network.remote_messages,
            messages_by_kind=self._network.messages_by_kind(),
            detector_scans=self._detector.scans,
            deadlocks_found=self._detector.deadlocks_found,
            deadlock_victims=self._detector.victims,
            protocol_switches=sum(issuer.protocol_switches for issuer in self._issuers.values()),
            # The registry itself, not a copy: the run is over and nothing
            # writes it again, and a copy would double an O(n) map.
            protocol_of=self._protocol_registry,
            commit_protocol=self._system.commit.protocol,
            committed_attempts=committed_attempts,
            replica_report=replica_report,
            audit=self._system.audit,
            audit_stats=audit_stats,
            crashes=self._faults.crash_count if self._faults is not None else 0,
            messages_dropped=self._network.messages_dropped,
            coordinator_crashes=(
                self._faults.coordinator_crash_count if self._faults is not None else 0
            ),
            forced_log_writes=sum(log.forced_writes for log in self._commit_logs.values()),
            lazy_log_writes=sum(log.lazy_writes for log in self._commit_logs.values()),
            log_records_truncated=sum(log.records_truncated for log in self._commit_logs.values()),
            peak_log_records=max(log.peak_records for log in self._commit_logs.values()),
        )
