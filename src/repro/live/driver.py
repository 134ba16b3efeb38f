"""The live load driver: replays a workload against a running cluster.

The driver is the live counterpart of
:meth:`repro.system.database.DistributedDatabase.load_workload` plus the
run's audit: it connects to every site daemon, paces each
:class:`~repro.common.transactions.TransactionSpec` to its arrival time on
the wall clock, submits it to the transaction manager of its origin site,
and folds the audit events every daemon streams back into the same
:class:`~repro.core.streaming.IncrementalSerializabilityChecker` and
:class:`~repro.commit.audit.StreamingReplicaAuditor` a streaming simulator
run uses.  The end product is a :class:`LiveRunResult` carrying the same
verdicts a simulated :class:`~repro.system.database.RunResult` carries —
which is what makes the sim-vs-live differential harness (and experiment
E12) a one-line comparison.

Drain detection polls every site's control actor: the run is over when no
site holds an active transaction and the committed count equals the
submitted count.  A hard deadline turns a wedged cluster into a
:class:`LiveRunError` naming each site's last known status instead of a
hung process.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence, Tuple

from repro.commit.audit import ReplicaReport, StreamingReplicaAuditor
from repro.common.config import SystemConfig
from repro.common.ids import TransactionId
from repro.common.transactions import TransactionSpec
from repro.core.serializability import SerializabilityReport
from repro.core.streaming import IncrementalSerializabilityChecker
from repro.live.daemon import control_name
from repro.live.tcp import ClusterMap, TcpTransport
from repro.sim.actor import Actor, Message
from repro.storage.catalog import ReplicaCatalog
from repro.storage.log import CommitDecision
from repro.system.coordinator import request_issuer_name


class LiveRunError(Exception):
    """A live run that failed to complete: wedged drain, lost site, actor error."""


@dataclass
class LiveRunResult:
    """Everything a finished live run exposes — the live twin of ``RunResult``."""

    submitted: int
    committed: int
    committed_attempts: Dict[TransactionId, int]
    serializability: SerializabilityReport
    replica_report: ReplicaReport
    #: Per-site ``(transaction, attempt, decision)`` triples from the site
    #: commit logs, for the 2PC decision-uniqueness assertion.
    decisions_by_site: Dict[int, Tuple[Tuple[TransactionId, int, CommitDecision], ...]]
    #: Wall-clock seconds from first submission to drain.
    duration: float
    #: Messages sent, summed over every site transport and the driver.
    messages_total: int
    per_site_metrics: Dict[int, Dict[str, object]] = field(default_factory=dict)
    messages_by_kind: Dict[str, int] = field(default_factory=dict)

    @property
    def serializable(self) -> bool:
        """Whether the run passed the conflict-serializability audit."""
        return self.serializability.serializable

    @property
    def atomic(self) -> bool:
        """Whether every replicated item converged to one value."""
        return self.replica_report.convergent

    @property
    def throughput(self) -> float:
        """Committed transactions per wall-clock second."""
        if self.duration <= 0.0:
            return 0.0
        return self.committed / self.duration

    @property
    def protocol_messages(self) -> int:
        """Messages of the protocol stack itself, comparable with a sim run.

        Excludes the live harness's own traffic — audit-event forwarding
        (``audit_*``), the driver's control plane (``ctl_*``, ``hello*``)
        and workload submission (``submit``, which the simulator performs
        through its scheduler rather than the network).
        """
        return sum(
            count
            for kind, count in self.messages_by_kind.items()
            if not kind.startswith(("audit_", "ctl_", "hello"))
            and kind != "submit"
        )

    def conflicting_decisions(
        self,
    ) -> Tuple[Tuple[TransactionId, int, Tuple[CommitDecision, ...]], ...]:
        """2PC rounds whose site logs disagree on the decision (must be empty).

        Collects every ``(transaction, attempt)`` round across all site
        logs and returns those with more than one distinct decision — the
        atomicity property the differential harness asserts is that this
        tuple is empty.
        """
        observed: Dict[Tuple[TransactionId, int], set] = {}
        for decisions in self.decisions_by_site.values():
            for transaction, attempt, decision in decisions:
                observed.setdefault((transaction, attempt), set()).add(decision)
        return tuple(
            (transaction, attempt, tuple(sorted(seen, key=lambda d: d.value)))
            for (transaction, attempt), seen in sorted(observed.items())
            if len(seen) > 1
        )

    def summary(self) -> Dict[str, object]:
        """Flat dictionary comparable with ``RunResult.summary()`` keys."""
        return {
            "committed": self.committed,
            "submitted": self.submitted,
            "serializable": self.serializable,
            "atomic": self.atomic,
            "availability": (self.committed / self.submitted) if self.submitted else 0.0,
            "throughput": self.throughput,
            "messages_total": self.messages_total,
            "protocol_messages": self.protocol_messages,
            "duration": self.duration,
            "conflicting_decisions": len(self.conflicting_decisions()),
        }


class _DriverActor(Actor):
    """The driver's endpoint: folds audit events, resolves control replies."""

    def __init__(self, name: str, driver: "LiveDriver") -> None:
        super().__init__(name=name, site=-1)
        self._driver = driver

    def handle(self, message: Message) -> None:
        """Dispatch one inbound message from a site daemon."""
        driver = self._driver
        kind = message.kind
        if kind == "audit_entry":
            driver.checker.entry_recorded(message.payload)
        elif kind == "audit_withdraw":
            copy, transaction, attempt = message.payload
            driver.checker.entries_withdrawn(copy, transaction, attempt)
        elif kind == "audit_quiesce":
            copy, transaction, attempt = message.payload
            driver.checker.transaction_quiesced(copy, transaction, attempt)
        elif kind == "audit_commit":
            transaction, attempt, copies = message.payload
            driver.checker.note_commit(transaction, attempt, copies)
            driver.committed_seen[transaction] = attempt
        elif kind == "audit_write":
            copy, value = message.payload
            driver.auditor.value_written(copy, value)
        elif kind == "audit_init":
            copy, value = message.payload
            driver.auditor.value_initialized(copy, value)
        elif kind in ("hello_ack", "ctl_status_reply", "ctl_report_reply", "ctl_shutdown_ack"):
            driver.resolve_reply(kind, message)
        else:
            raise LiveRunError(f"driver received unknown message kind {kind!r}")


class LiveDriver:
    """Replays one workload against a live cluster and audits the result.

    Parameters
    ----------
    system:
        The system configuration every daemon was built from (the driver
        rebuilds the replica catalog from it for the convergence audit).
    cluster:
        Site → listen address map, identical to the daemons' view.
    specs:
        The workload, exactly as a simulated run would receive it.
    pacing:
        Wall-clock seconds per unit of spec arrival time.  ``0.0`` submits
        everything immediately in arrival order — the deterministic
        zero-jitter mode the differential tests use.
    compute_scale:
        Factor applied to each spec's ``compute_time`` so simulated-scale
        workloads replay in reasonable wall time.
    drain_timeout:
        Hard wall-clock deadline for the whole run.
    """

    def __init__(
        self,
        system: SystemConfig,
        cluster: ClusterMap,
        specs: Sequence[TransactionSpec],
        *,
        name: str = "drv",
        pacing: float = 0.0,
        compute_scale: float = 1.0,
        poll_interval: float = 0.05,
        drain_timeout: float = 60.0,
        reply_timeout: float = 10.0,
    ) -> None:
        self._system = system
        self._cluster = dict(cluster)
        self._specs = list(specs)
        self._name = name
        self._pacing = pacing
        self._compute_scale = compute_scale
        self._poll_interval = poll_interval
        self._drain_timeout = drain_timeout
        self._reply_timeout = reply_timeout
        self._transport = TcpTransport("driver", None, self._cluster)
        self._actor = _DriverActor(name, self)
        self._transport.register(self._actor)
        self.checker = IncrementalSerializabilityChecker()
        self.auditor = StreamingReplicaAuditor()
        self.committed_seen: Dict[TransactionId, int] = {}
        self._waiters: Dict[Tuple[str, int], asyncio.Future] = {}

    @property
    def transport(self) -> TcpTransport:
        """The driver's TCP transport."""
        return self._transport

    def resolve_reply(self, kind: str, message: Message) -> None:
        """Resolve the future waiting on a control reply, keyed by site."""
        payload = message.payload
        site = payload["site"] if isinstance(payload, dict) else int(payload)
        future = self._waiters.pop((kind, site), None)
        if future is not None and not future.done():
            future.set_result(payload)

    async def _ask(self, site: int, kind: str, reply_kind: str) -> object:
        """Send one control message to ``site`` and await its reply."""
        loop = asyncio.get_event_loop()
        future: asyncio.Future = loop.create_future()
        self._waiters[(reply_kind, site)] = future
        self._transport.send(self._actor, control_name(site), kind)
        try:
            return await asyncio.wait_for(future, timeout=self._reply_timeout)
        except asyncio.TimeoutError:
            raise LiveRunError(
                f"site {site} did not answer {kind!r} within {self._reply_timeout}s"
            ) from None

    def _check_errors(self) -> None:
        if self._transport.errors:
            raise LiveRunError(
                f"driver transport failed: {self._transport.errors[0]!r}"
            ) from self._transport.errors[0]

    async def run(self) -> LiveRunResult:
        """Execute the full run: hello, submit, drain, report, shutdown."""
        sites = sorted(self._cluster)
        try:
            await asyncio.gather(
                *(self._ask(site, "hello", "hello_ack") for site in sites)
            )
            started = self._transport.now
            await self._submit_all()
            statuses = await self._drain(sites)
            duration = self._transport.now - started
            reports = await asyncio.gather(
                *(self._ask(site, "ctl_report", "ctl_report_reply") for site in sites)
            )
            del statuses
            result = self._build_result(reports, duration)
        finally:
            await self._shutdown(sites)
            await self._transport.close()
        return result

    async def _submit_all(self) -> None:
        specs = sorted(self._specs, key=lambda spec: (spec.arrival_time, spec.tid))
        start = self._transport.now
        for spec in specs:
            if self._pacing > 0.0:
                target = start + spec.arrival_time * self._pacing
                delay = target - self._transport.now
                if delay > 0.0:
                    await asyncio.sleep(delay)
            if self._compute_scale != 1.0:
                spec = replace(spec, compute_time=spec.compute_time * self._compute_scale)
            self._transport.send(
                self._actor, request_issuer_name(spec.origin_site), "submit", spec
            )
            self._check_errors()
        # Yield so the submit frames flush before drain polling starts.
        await asyncio.sleep(0)

    async def _drain(self, sites: List[int]) -> Dict[int, Dict[str, object]]:
        deadline = self._transport.now + self._drain_timeout
        statuses: Dict[int, Dict[str, object]] = {}
        while True:
            self._check_errors()
            replies = await asyncio.gather(
                *(self._ask(site, "ctl_status", "ctl_status_reply") for site in sites)
            )
            statuses = {reply["site"]: reply for reply in replies}
            active = sum(int(reply["active"]) for reply in replies)
            committed = sum(int(reply["committed"]) for reply in replies)
            if active == 0 and committed >= len(self._specs):
                return statuses
            if self._transport.now >= deadline:
                raise LiveRunError(
                    f"cluster did not drain within {self._drain_timeout}s: "
                    f"{committed}/{len(self._specs)} committed, "
                    f"per-site status {statuses!r}"
                )
            await asyncio.sleep(self._poll_interval)

    async def _shutdown(self, sites: List[int]) -> None:
        for site in sites:
            try:
                await self._ask(site, "ctl_shutdown", "ctl_shutdown_ack")
            except LiveRunError:
                # Best-effort: a site that already died still gets reported
                # through the transport error / drain paths.
                pass

    def _build_result(
        self, reports: Sequence[Dict[str, object]], duration: float
    ) -> LiveRunResult:
        committed_attempts: Dict[TransactionId, int] = {}
        decisions_by_site: Dict[int, Tuple] = {}
        per_site_metrics: Dict[int, Dict[str, object]] = {}
        messages_total = self._transport.messages_sent
        messages_by_kind = self._transport.messages_by_kind()
        for report in reports:
            site = int(report["site"])
            committed_attempts.update(report["committed_attempts"])
            decisions_by_site[site] = tuple(
                tuple(entry) for entry in report["decisions"]
            )
            per_site_metrics[site] = dict(report["metrics"])
            messages_total += int(report["messages_sent"])
            for kind, count in dict(report["messages_by_kind"]).items():
                messages_by_kind[kind] = messages_by_kind.get(kind, 0) + int(count)
        serializability = self.checker.finalize(committed_attempts)
        catalog = ReplicaCatalog.from_config(self._system)
        replica_report = self.auditor.report(catalog)
        return LiveRunResult(
            submitted=len(self._specs),
            committed=len(committed_attempts),
            committed_attempts=committed_attempts,
            serializability=serializability,
            replica_report=replica_report,
            decisions_by_site=decisions_by_site,
            duration=duration,
            messages_total=messages_total,
            per_site_metrics=per_site_metrics,
            messages_by_kind=messages_by_kind,
        )


def drive_cluster(
    system: SystemConfig,
    cluster: ClusterMap,
    specs: Sequence[TransactionSpec],
    **options: object,
) -> LiveRunResult:
    """Run a :class:`LiveDriver` to completion on a fresh event loop.

    The driver (and its transport) must be constructed *inside* the loop it
    runs on, so this helper wraps construction and execution together.
    """

    async def _run() -> LiveRunResult:
        driver = LiveDriver(system, cluster, specs, **options)  # type: ignore[arg-type]
        return await driver.run()

    return asyncio.run(_run())
