"""The two-phase commit participant: one crashable actor per site.

The participant fronts its site's data layer for the commit protocol:

* on ``prepare`` it re-verifies the transaction's local locks against the
  site's queue managers, durably logs a
  :class:`~repro.storage.log.PreparedRecord` (write-ahead: the record hits
  the log *before* the yes vote leaves the site — forced, or lazy when the
  coordinator marked this participant read-only under a presumed variant),
  and votes;
* on ``decide`` it applies the pending writes to the local copies (commit)
  and then releases — or aborts — exactly the prepared attempt's locks at
  the local queue managers, so a write is always installed before the lock
  that guards it falls; when the round's variant asked for it, the applied
  outcome is acknowledged back to the coordinator so the decision record
  becomes collectable;
* after a site recovery it restores the locks of every in-doubt record
  (2PC recovery re-acquires prepared transactions' locks before the site
  takes new work) and asks each record's coordinator for the verdict with a
  ``status_query``.

When coordinator faults are possible (or the cooperative termination
protocol is switched on explicitly), the participant also arms a watchdog
per prepared record: if the record is still in doubt ``termination_timeout``
after preparing, it re-queries the coordinator — and, with the termination
protocol enabled, asks the round's peer participants too.  Any peer that
saw the decision (or shares a site log with the coordinator that logged
it) answers, letting the blocked participant decide *without* the
coordinator; peers that are themselves uncertain answer "uncertain" and
the watchdog retries with multiplicative backoff.  That is what bounds
blocked-in-doubt time under a coordinator blackout.

The participant is ``crashable``: while its site is down the network drops
everything addressed to it, and the in-doubt state it comes back with is
precisely what its durable commit log says.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.commit.messages import (
    AckMessage,
    DecisionMessage,
    PeerQuery,
    PeerReply,
    PrepareRequest,
    StatusQuery,
    StatusReply,
    VoteMessage,
)
from repro.common.config import CommitConfig
from repro.common.errors import SimulationError
from repro.common.ids import CopyId, SiteId, TransactionId
from repro.core.queue_manager import QueueManager
from repro.live.transport import Transport
from repro.sim.actor import Actor, Message
from repro.storage.log import CommitDecision, PreparedRecord, SiteCommitLog
from repro.storage.store import ValueStore
from repro.system.metrics import MetricsCollector
from repro.system.queue_manager_actor import queue_manager_name

if TYPE_CHECKING:  # pragma: no cover - typing only; a fault-free run never imports it
    from repro.sim.faults import FaultInjector


def commit_participant_name(site: SiteId) -> str:
    """Network name of the commit-participant actor at ``site``."""
    return f"cp-{site}"


class CommitParticipantActor(Actor):
    """Votes on, applies, and recovers two-phase commits for one site."""

    crashable = True

    def __init__(
        self,
        site: SiteId,
        transport: Transport,
        metrics: MetricsCollector,
        value_store: ValueStore,
        managers: Dict[CopyId, QueueManager],
        commit_log: SiteCommitLog,
        *,
        commit_config: Optional[CommitConfig] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        super().__init__(name=commit_participant_name(site), site=site)
        self._transport = transport
        self._metrics = metrics
        self._value_store = value_store
        self._managers = dict(managers)
        self._log = commit_log
        self._commit_config = commit_config if commit_config is not None else CommitConfig()
        self._termination_enabled = self._commit_config.termination_protocol
        # The in-doubt watchdog only exists when it can ever matter: either
        # the termination protocol was asked for, or coordinator faults make
        # re-querying necessary for liveness.  Keeping it off otherwise
        # leaves pre-existing configurations event-for-event identical.
        self._watchdog_enabled = self._termination_enabled or (
            faults is not None and faults.config.has_coordinator_faults()
        )

    @property
    def commit_log(self) -> SiteCommitLog:
        """The durable commit log backing this participant."""
        return self._log

    # ---------------------------------------------------------------- #
    # Message handling
    # ---------------------------------------------------------------- #

    def handle(self, message: Message) -> None:
        """Dispatch one inbound commit-protocol message."""
        if message.kind == "prepare":
            self._on_prepare(message.payload)
        elif message.kind == "decide":
            self._on_decide(message.payload)
        elif message.kind == "status_reply":
            self._on_status_reply(message.payload)
        elif message.kind == "peer_query":
            self._on_peer_query(message.payload)
        elif message.kind == "peer_reply":
            self._on_peer_reply(message.payload)
        else:
            raise SimulationError(
                f"commit participant received unknown message kind {message.kind!r}"
            )

    def _on_prepare(self, prepare: PrepareRequest) -> None:
        now = self._transport.now
        verified = all(
            self._managers[request.copy].holds_granted_lock(request.request_id)
            for request in prepare.requests
        )
        if verified:
            self._log.log_prepared(
                PreparedRecord(
                    transaction=prepare.transaction,
                    attempt=prepare.attempt,
                    coordinator=prepare.coordinator,
                    requests=prepare.requests,
                    writes=dict(prepare.writes),
                    prepared_at=now,
                    participants=prepare.participants,
                    ack_decision=prepare.ack_decision,
                ),
                forced=prepare.force_log,
            )
            if self._watchdog_enabled:
                self._arm_watchdog(
                    prepare.transaction,
                    prepare.attempt,
                    self._commit_config.termination_timeout,
                )
        self._transport.send(
            self,
            prepare.coordinator,
            "vote",
            VoteMessage(
                transaction=prepare.transaction,
                attempt=prepare.attempt,
                site=self.site,
                commit=verified,
            ),
        )

    def _on_decide(self, decision: DecisionMessage) -> None:
        record = self._log.prepared_record(decision.transaction, decision.attempt)
        if record is None or not record.in_doubt:
            # Vote-no rounds log nothing here (the coordinator's abort path
            # cleans the queue managers); duplicates resolve once.
            return
        self._resolve(record, decision.decision)

    def _on_status_reply(self, reply: StatusReply) -> None:
        record = self._log.prepared_record(reply.transaction, reply.attempt)
        if record is None or not record.in_doubt:
            return
        self._resolve(record, reply.decision)

    # ---------------------------------------------------------------- #
    # Cooperative termination: peer queries and the in-doubt watchdog
    # ---------------------------------------------------------------- #

    def _arm_watchdog(
        self, transaction: TransactionId, attempt: int, interval: float
    ) -> None:
        self._transport.schedule(
            interval,
            lambda: self._on_in_doubt_timeout(transaction, attempt, interval),
            label=f"in-doubt-{transaction}",
            site=self.site,
        )

    def _on_in_doubt_timeout(
        self, transaction: TransactionId, attempt: int, interval: float
    ) -> None:
        """Still in doubt after ``interval``: re-query, then back off and retry.

        The coordinator is always re-asked (its reply may simply have been
        dropped while this site was down, or it may have restarted and only
        now be able to answer).  With the termination protocol on, the
        round's peer group is asked too — any peer that knows the outcome
        ends the blocking without the coordinator.
        """
        record = self._log.prepared_record(transaction, attempt)
        if record is None or not record.in_doubt:
            return
        self._transport.send(
            self,
            record.coordinator,
            "status_query",
            StatusQuery(transaction=transaction, attempt=attempt, reply_to=self.name),
        )
        if self._termination_enabled:
            for site in record.participants:
                if site == self.site:
                    continue
                self._transport.send(
                    self,
                    commit_participant_name(site),
                    "peer_query",
                    PeerQuery(
                        transaction=transaction, attempt=attempt, reply_to=self.name
                    ),
                )
        self._arm_watchdog(
            transaction, attempt, interval * self._commit_config.termination_backoff
        )

    def _on_peer_query(self, query: PeerQuery) -> None:
        """Answer a blocked peer from everything this site durably knows.

        Two sources: the shared site log's coordinator-side decision records
        (when this site hosted the round's coordinator), and this
        participant's own resolved prepared record.  A site that knows
        nothing answers "uncertain" rather than staying silent, so the
        asker's retry accounting stays deterministic.
        """
        decision = self._log.decision_for(query.transaction, query.attempt)
        if decision is None:
            record = self._log.prepared_record(query.transaction, query.attempt)
            if record is not None:
                decision = record.decision
        self._transport.send(
            self,
            query.reply_to,
            "peer_reply",
            PeerReply(
                transaction=query.transaction,
                attempt=query.attempt,
                decision=decision,
                site=self.site,
            ),
        )

    def _on_peer_reply(self, reply: PeerReply) -> None:
        record = self._log.prepared_record(reply.transaction, reply.attempt)
        if record is None or not record.in_doubt:
            return
        if reply.decision is None:
            return  # the peer is uncertain too; the watchdog keeps retrying
        self._metrics.record_termination_resolution()
        self._resolve(record, reply.decision)

    # ---------------------------------------------------------------- #
    # Decision application and recovery
    # ---------------------------------------------------------------- #

    def _resolve(self, record: PreparedRecord, decision: CommitDecision) -> None:
        """Apply a decision to one prepared record (writes first, locks after).

        A commit releases through ``commit_release``, which honours the
        semi-lock rule: a T/O lock still pre-scheduled at decision time is
        downgraded and kept until it turns normal, so later 2PL/PA requests
        cannot overtake the earlier conflicting operation it was ordered
        behind.
        """
        now = self._transport.now
        record.decision = decision
        record.decided_at = now
        self._metrics.record_in_doubt_time(now - record.prepared_at)
        if decision.is_commit:
            for copy, value in record.writes.items():
                self._value_store.write(copy, value, record.transaction, now)
            kind = "commit_release"
        else:
            kind = "abort"
        for request in record.requests:
            self._transport.send(
                self,
                queue_manager_name(request.copy),
                kind,
                (record.transaction, record.attempt),
            )
        if record.ack_decision is not None and record.ack_decision is decision:
            self._transport.send(
                self,
                record.coordinator,
                "ack",
                AckMessage(
                    transaction=record.transaction,
                    attempt=record.attempt,
                    site=self.site,
                ),
            )

    def on_site_event(self, site: SiteId, now: float) -> None:
        """Recovery listener: restore in-doubt locks, then ask the coordinators.

        Wired to the fault injector's recovery notifications; events for
        other sites are ignored.  Lock restoration happens synchronously at
        the recovery instant — before any queued message can reach the
        recovered queue managers — so no new transaction can slip past a
        prepared one's write order.
        """
        if site != self.site:
            return
        in_doubt = self._log.in_doubt_records()
        if not in_doubt:
            return
        for record in in_doubt:
            for request in record.requests:
                self._managers[request.copy].restore_lock(request, now)
            self._transport.send(
                self,
                record.coordinator,
                "status_query",
                StatusQuery(
                    transaction=record.transaction,
                    attempt=record.attempt,
                    reply_to=self.name,
                ),
            )
