"""One live site as an asyncio process: the daemon behind ``repro.cli serve``.

A :class:`SiteDaemon` assembles exactly the per-site slice of what
:class:`~repro.system.database.DistributedDatabase` builds for the whole
simulated system — the queue managers of the copies stored at the site,
the commit participant, the request issuer (transaction manager) — and
registers them on a :class:`~repro.live.tcp.TcpTransport` instead of the
simulated network.  The actors themselves are byte-for-byte the classes
the simulator runs; nothing protocol-level is reimplemented here.

On top of the protocol actors the daemon adds two live-only pieces:

* a **control actor** ``ctl-{site}`` answering the driver's ``hello`` /
  ``ctl_status`` / ``ctl_report`` / ``ctl_shutdown`` messages, and
* **audit forwarding**: observers on the execution log and value store
  that stream every recorded/withdrawn/quiesced log entry, value write and
  commit point to the driver, where the run-wide
  :class:`~repro.core.streaming.IncrementalSerializabilityChecker` and
  :class:`~repro.commit.audit.StreamingReplicaAuditor` fold them.  Per-copy
  event order is preserved because a copy's events are emitted only by its
  own site, over one FIFO TCP connection; the checker tolerates cross-site
  commit/quiesce interleaving by design.

Live mode refuses one-phase commit: its "coordinator writes every remote
copy directly" shortcut only exists inside a shared-memory simulation.
The atomic-commit family (``two-phase``, ``presumed-abort``,
``presumed-commit``) is what real processes can run.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from typing import Dict, Optional

from repro.common.config import SystemConfig
from repro.common.errors import SimulationError
from repro.common.ids import CopyId, TransactionId
from repro.commit.participant import CommitParticipantActor
from repro.core.queue_manager import QueueManager
from repro.live.tcp import ClusterMap, TcpTransport
from repro.sim.actor import Actor, Message
from repro.storage.catalog import ReplicaCatalog
from repro.storage.log import ExecutionLog, SiteCommitLog
from repro.storage.store import ValueStore
from repro.system.coordinator import RequestIssuerActor
from repro.system.metrics import MetricsCollector
from repro.system.queue_manager_actor import QueueManagerActor


class LiveConfigError(SimulationError):
    """A configuration that cannot run as real networked processes."""


def control_name(site: int) -> str:
    """Network name of the control actor of ``site``."""
    return f"ctl-{site}"


def live_system(system: SystemConfig) -> SystemConfig:
    """Adapt a (possibly simulator-oriented) system config for live mode.

    Fault injection is simulator machinery (it kills simulated sites on the
    simulated clock), so it is stripped; the commit protocol must already
    be an atomic-commit one — one-phase commit is rejected because its
    remote writes are a shared-memory shortcut no real deployment has.
    """
    if system.commit.protocol == "one-phase":
        raise LiveConfigError(
            "live mode requires an atomic commit protocol "
            "(two-phase / presumed-abort / presumed-commit); one-phase "
            "commit writes remote copies directly and only exists in the "
            "simulator"
        )
    if system.faults is not None:
        system = replace(system, faults=None)
    return system


class _AuditForwarder:
    """Execution-log + value-store observer that streams events to the driver."""

    def __init__(self, transport: TcpTransport, sender: Actor, driver: str) -> None:
        self._transport = transport
        self._sender = sender
        self._driver = driver

    def entry_recorded(self, entry) -> None:
        """Forward one implemented operation to the driver's checker."""
        self._transport.send(self._sender, self._driver, "audit_entry", entry)

    def entries_withdrawn(self, copy, transaction, attempt=None) -> None:
        """Forward a withdrawal (an aborted attempt's tentative entries)."""
        self._transport.send(
            self._sender, self._driver, "audit_withdraw", (copy, transaction, attempt)
        )

    def transaction_quiesced(self, copy, transaction, attempt=None) -> None:
        """Forward a final-release notification for one copy."""
        self._transport.send(
            self._sender, self._driver, "audit_quiesce", (copy, transaction, attempt)
        )

    def value_written(self, copy, value) -> None:
        """Forward a committed value write to the driver's replica auditor."""
        self._transport.send(self._sender, self._driver, "audit_write", (copy, value))

    def value_initialized(self, copy, value) -> None:
        """Forward an explicit value initialisation."""
        self._transport.send(self._sender, self._driver, "audit_init", (copy, value))


class _CommitPointForwarder:
    """The issuer's ``audit_stream``: forwards each commit point to the driver."""

    def __init__(self, transport: TcpTransport, sender: Actor, driver: str) -> None:
        self._transport = transport
        self._sender = sender
        self._driver = driver

    def note_commit(self, transaction, attempt, copies) -> None:
        """Forward the commit point (transaction, attempt, touched copies)."""
        self._transport.send(
            self._sender,
            self._driver,
            "audit_commit",
            (transaction, attempt, tuple(copies)),
        )


class _ControlActor(Actor):
    """The daemon's management endpoint: status, final report, shutdown."""

    def __init__(self, daemon: "SiteDaemon") -> None:
        super().__init__(name=control_name(daemon.site), site=daemon.site)
        self._daemon = daemon

    def handle(self, message: Message) -> None:
        """Answer one control message from the driver."""
        daemon = self._daemon
        if message.kind == "hello":
            daemon.transport.send(self, message.sender, "hello_ack", daemon.site)
        elif message.kind == "ctl_status":
            daemon.transport.send(
                self, message.sender, "ctl_status_reply", daemon.status()
            )
        elif message.kind == "ctl_report":
            daemon.transport.send(
                self, message.sender, "ctl_report_reply", daemon.report()
            )
        elif message.kind == "ctl_shutdown":
            daemon.transport.send(self, message.sender, "ctl_shutdown_ack", daemon.site)
            daemon.request_shutdown()
        else:
            raise SimulationError(
                f"control actor received unknown message kind {message.kind!r}"
            )


class SiteDaemon:
    """Everything one site runs in live mode, on one asyncio event loop.

    Construction builds the actors; :meth:`serve` binds the listener and
    runs until :meth:`request_shutdown` (normally triggered by the driver's
    ``ctl_shutdown``) or until an actor raises, in which case the error is
    re-raised so a supervisor sees the failure instead of a hung cluster.
    """

    def __init__(
        self,
        site: int,
        system: SystemConfig,
        cluster: ClusterMap,
        *,
        driver: str = "drv",
        request_timeout: Optional[float] = 5.0,
    ) -> None:
        self._site = site
        self._system = live_system(system)
        self._cluster = dict(cluster)
        self._driver = driver
        self._transport = TcpTransport(f"site-{site}", site, self._cluster)
        self._stop = asyncio.Event()

        system = self._system
        self._catalog = ReplicaCatalog.from_config(system)
        self._value_store = ValueStore()
        self._execution_log = ExecutionLog()
        self._commit_log = SiteCommitLog(site)
        self._metrics = MetricsCollector()
        self._protocol_registry: Dict[TransactionId, object] = {}

        self._control = _ControlActor(self)
        self._transport.register(self._control)
        forwarder = _AuditForwarder(self._transport, self._control, driver)
        self._execution_log.attach_observer(forwarder)
        self._value_store.attach_write_observer(forwarder)

        self._managers: Dict[CopyId, QueueManager] = {}
        for copy in self._catalog.copies_at(site):
            manager = QueueManager(
                copy, self._execution_log, semi_locks_enabled=system.semi_locks_enabled
            )
            self._managers[copy] = manager
            self._transport.register(
                QueueManagerActor(
                    manager, self._transport, self._metrics, self._value_store
                )
            )

        self._participant = CommitParticipantActor(
            site=site,
            transport=self._transport,
            metrics=self._metrics,
            value_store=self._value_store,
            managers=dict(self._managers),
            commit_log=self._commit_log,
            commit_config=system.commit,
        )
        self._transport.register(self._participant)

        self._issuer = RequestIssuerActor(
            site=site,
            transport=self._transport,
            catalog=self._catalog,
            metrics=self._metrics,
            io_time=system.io_time,
            restart_delay=system.restart_delay,
            pa_backoff_interval=system.pa_backoff_interval,
            semi_locks_enabled=system.semi_locks_enabled,
            value_store=self._value_store,
            protocol_registry=self._protocol_registry,
            protocol_switch_threshold=system.protocol_switch_threshold,
            commit_config=system.commit,
            commit_log=self._commit_log,
            audit_stream=_CommitPointForwarder(self._transport, self._control, driver),
            request_timeout=request_timeout,
        )
        self._transport.register(self._issuer)

    # ---------------------------------------------------------------- #
    # Accessors
    # ---------------------------------------------------------------- #

    @property
    def site(self) -> int:
        """The site this daemon hosts."""
        return self._site

    @property
    def transport(self) -> TcpTransport:
        """The daemon's TCP transport."""
        return self._transport

    # ---------------------------------------------------------------- #
    # Control plane
    # ---------------------------------------------------------------- #

    def status(self) -> Dict[str, object]:
        """The drain probe: how much work this site still holds."""
        return {
            "site": self._site,
            "active": self._issuer.uncommitted,
            "committed": self._metrics.committed_count,
        }

    def report(self) -> Dict[str, object]:
        """The final per-site report the driver folds into its run result."""
        return {
            "site": self._site,
            "committed_attempts": dict(self._issuer.committed_attempts()),
            "decisions": self._commit_log.decisions(),
            "messages_sent": self._transport.messages_sent,
            "messages_by_kind": self._transport.messages_by_kind(),
            "metrics": {
                "committed": self._metrics.committed_count,
                "mean_system_time": self._metrics.mean_system_time(),
                "mean_commit_latency": self._metrics.mean_commit_latency,
                "restarts": self._metrics.total_restarts(),
                "timeout_restarts": self._metrics.timeout_restarts,
                "commit_aborts": self._metrics.commit_aborts,
            },
        }

    def request_shutdown(self) -> None:
        """Ask the daemon to exit; pending outbound frames get a grace tick."""
        self._transport.schedule(0.05, self._stop.set, label="shutdown")

    # ---------------------------------------------------------------- #
    # Lifecycle
    # ---------------------------------------------------------------- #

    async def serve(self) -> None:
        """Bind the site's listener and run until shutdown or actor failure."""
        await self._transport.start_server()
        try:
            while not self._stop.is_set():
                if self._transport.errors:
                    break
                try:
                    await asyncio.wait_for(self._stop.wait(), timeout=0.2)
                except asyncio.TimeoutError:
                    continue
        finally:
            await self._transport.close()
        self._transport.raise_errors()
