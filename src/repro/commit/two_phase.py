"""Presumed-nothing two-phase commit: the coordinator side.

Modelled on the coordinate/participate/recovery split of real 2PC
transaction managers.  When a transaction finishes its local computation
the coordinator

1. moves it to the ``PREPARING`` state and sends every participant site a
   ``prepare`` carrying the granted requests and pending writes local to
   that site;
2. collects ``vote`` replies.  A participant votes yes only after durably
   logging a prepared record *and* re-verifying that the transaction still
   holds its local locks (a site crash wipes the volatile lock table, so a
   survivor of a crash votes no);
3. on unanimous yes, durably logs the **commit** decision — that instant is
   the commit point and is what the commit-latency metric measures — then
   tells every participant to apply its writes and release its locks;
4. on a missing or negative vote (bounded by ``prepare_timeout``), logs
   **abort**, tells the participants to forget the round, and aborts the
   attempt for an ordinary restart.

Participants that were down when the decision went out resolve their
in-doubt records after recovery with a ``status_query``; the coordinator
answers from its durable decision log — immediately when the decision
exists, or as soon as it is made when the query arrives mid-round.

This class is also the chassis of the **protocol family**: the
presumed-abort and presumed-commit variants (:mod:`repro.commit.presumed`)
subclass it and override only the logging/ack matrix — which records are
forced, which outcome is presumed from a missing record, and which outcome
participants must acknowledge.  The vote/decide message flow is shared.

Coordinator crashes are survived through two hooks the owning coordinator
calls: :meth:`on_coordinator_crash` wipes the volatile round state (the
in-memory vote tallies and parked status queries a real TM process loses),
and :meth:`recover` re-drives one transaction the recovery walk found still
``PREPARING`` — since the decision is logged and the round closed in one
atomic event, a round open across a crash is by construction undecided, so
every variant may safely abort it under its own logging rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Dict, List, Optional, Set, Tuple

from repro.commit.base import CommitProtocol, register_commit_protocol
from repro.commit.messages import (
    AckMessage,
    DecisionMessage,
    PrepareRequest,
    StatusQuery,
    StatusReply,
    VoteMessage,
)
from repro.commit.participant import commit_participant_name
from repro.common.ids import SiteId, TransactionId
from repro.common.transactions import TransactionStatus
from repro.storage.log import CommitDecision

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.system.coordinator import TransactionExecution


@dataclass
class _CommitRound:
    """Coordinator-side state of one in-flight prepare/vote/decide round."""

    execution: "TransactionExecution"
    participants: Tuple[SiteId, ...]
    prepare_time: float
    votes: Set[SiteId] = field(default_factory=set)
    decided: bool = False


@register_commit_protocol
class TwoPhaseCommit(CommitProtocol):
    """Prepare/vote/decide commit with durable logging and recovery queries."""

    name = "two-phase"
    message_kinds = ("vote", "status_query")

    # ------------------------------------------------------------------ #
    # The logging/ack matrix (overridden by the presumed variants)
    # ------------------------------------------------------------------ #

    #: Outcome a status query for an unknown round is answered with.
    #: ``None`` (presumed-nothing) parks the query until a decision exists.
    presumption: ClassVar[Optional[CommitDecision]] = None

    #: Outcome participants must acknowledge so the coordinator may forget
    #: the decision record.  ``None``: the protocol is ack-free and the
    #: decision record is retained forever.
    ack_decision: ClassVar[Optional[CommitDecision]] = None

    #: Whether read-only participants (no local writes) may write their
    #: prepared record lazily instead of forcing it before the vote.
    lazy_read_only_prepares: ClassVar[bool] = False

    #: Whether a forced begin record precedes the prepare round (needed by
    #: presumed-commit, whose recovery must tell "never started" apart from
    #: "in flight when the coordinator died").
    logs_begin_record: ClassVar[bool] = False

    def __init__(self, coordinator) -> None:
        super().__init__(coordinator)
        self._rounds: Dict[TransactionId, _CommitRound] = {}
        # Status queries that arrived while the round was still undecided,
        # answered the moment the decision is logged.
        self._waiting_queries: Dict[Tuple[TransactionId, int], List[str]] = {}

    # ---------------------------------------------------------------- #
    # Phase one: prepare
    # ---------------------------------------------------------------- #

    def begin_commit(self, execution: "TransactionExecution") -> None:
        """Open a commit round: send ``prepare`` to every participant site."""
        coordinator = self._coordinator
        now = coordinator.transport.now
        coordinator.transition(execution, TransactionStatus.PREPARING)
        execution.prepare_time = now
        new_values = coordinator.compute_write_values(execution)
        requests_by_site: Dict[SiteId, List] = {}
        for state in execution.requests:
            requests_by_site.setdefault(state.request.copy.site, []).append(state.request)
        writes_by_site: Dict[SiteId, Dict] = {site: {} for site in requests_by_site}
        for item in execution.spec.write_items:
            value = new_values.get(item, f"written-by-{execution.tid}")
            for copy in coordinator.catalog.write_copies(item):
                writes_by_site.setdefault(copy.site, {})[copy] = value
        participants = tuple(sorted(requests_by_site))
        # The termination protocol's peer group: every participant site plus
        # the coordinator's own (whose durable site log knows the decision
        # even while the coordinator process itself is dead).
        peer_group = tuple(sorted(set(participants) | {coordinator.site}))
        commit_round = _CommitRound(
            execution=execution, participants=participants, prepare_time=now
        )
        self._rounds[execution.tid] = commit_round
        attempt = execution.attempt
        if self.logs_begin_record:
            coordinator.commit_log.log_begin(
                execution.tid, attempt, participants, now
            )
        for site in participants:
            force_log = not (
                self.lazy_read_only_prepares and not writes_by_site.get(site)
            )
            coordinator.transport.send(
                coordinator,
                commit_participant_name(site),
                "prepare",
                PrepareRequest(
                    transaction=execution.tid,
                    attempt=attempt,
                    coordinator=coordinator.name,
                    requests=tuple(requests_by_site[site]),
                    writes=writes_by_site.get(site, {}),
                    participants=peer_group,
                    force_log=force_log,
                    ack_decision=self.ack_decision,
                ),
            )
        coordinator.transport.schedule(
            coordinator.commit_config.prepare_timeout,
            lambda: self._on_prepare_timeout(execution.tid, attempt),
            label=f"prepare-timeout-{execution.tid}",
            site=coordinator.site,
        )

    # ---------------------------------------------------------------- #
    # Phase two: votes and the decision
    # ---------------------------------------------------------------- #

    def handle_message(self, kind: str, payload: object) -> None:
        """Route a ``vote``, ``status_query`` or ``ack`` delivered to the coordinator."""
        if kind == "vote":
            self._on_vote(payload)
        elif kind == "status_query":
            self._on_status_query(payload)
        elif kind == "ack":
            self._on_ack(payload)
        else:
            super().handle_message(kind, payload)

    def _current_round(self, transaction: TransactionId, attempt: int):
        commit_round = self._rounds.get(transaction)
        if commit_round is None or commit_round.decided:
            return None
        if commit_round.execution.attempt != attempt:
            return None  # late message from a superseded commit round
        return commit_round

    def _on_vote(self, vote: VoteMessage) -> None:
        commit_round = self._current_round(vote.transaction, vote.attempt)
        if commit_round is None:
            return
        if not vote.commit:
            self._decide(commit_round, CommitDecision.ABORT)
            return
        commit_round.votes.add(vote.site)
        if len(commit_round.votes) == len(commit_round.participants):
            self._decide(commit_round, CommitDecision.COMMIT)

    def _on_prepare_timeout(self, transaction: TransactionId, attempt: int) -> None:
        commit_round = self._current_round(transaction, attempt)
        if commit_round is None:
            return
        self._decide(commit_round, CommitDecision.ABORT)

    def _log_decision(
        self,
        transaction: TransactionId,
        attempt: int,
        decision: CommitDecision,
        now: float,
        participants: Tuple[SiteId, ...],
    ) -> None:
        """Write the outcome under this variant's logging rules.

        Presumed-nothing forces both outcomes and (having no presumption or
        ack round to fall back on) retains the records forever.
        """
        self._coordinator.commit_log.log_decision(transaction, attempt, decision, now)

    def _decide(self, commit_round: _CommitRound, decision: CommitDecision) -> None:
        """Log the decision, notify the participants, finish or retry the transaction."""
        coordinator = self._coordinator
        now = coordinator.transport.now
        execution = commit_round.execution
        attempt = execution.attempt
        commit_round.decided = True
        del self._rounds[execution.tid]
        self._log_decision(
            execution.tid, attempt, decision, now, commit_round.participants
        )
        for site in commit_round.participants:
            coordinator.transport.send(
                coordinator,
                commit_participant_name(site),
                "decide",
                DecisionMessage(transaction=execution.tid, attempt=attempt, decision=decision),
            )
        self._answer_waiting_queries(execution.tid, attempt, decision)
        if decision.is_commit:
            coordinator.metrics.record_commit_latency(now - commit_round.prepare_time)
            coordinator.transition(execution, TransactionStatus.COMMITTED)
            execution.commit_time = now
            coordinator.record_outcome(execution)
            # The locks release at the participants when they apply the
            # decision; account their holding time up to the commit point.
            for state in execution.requests:
                if state.grant_time is not None:
                    coordinator.metrics.record_lock_time(
                        execution.protocol, now - state.grant_time, aborted=False
                    )
            coordinator.transition(execution, TransactionStatus.FINISHED)
        else:
            coordinator.metrics.record_commit_abort()
            coordinator.abort_for_commit(execution)

    # ---------------------------------------------------------------- #
    # Recovery: status queries, acks and the coordinator restart walk
    # ---------------------------------------------------------------- #

    def _on_status_query(self, query: StatusQuery) -> None:
        coordinator = self._coordinator
        decision = coordinator.commit_log.decision_for(query.transaction, query.attempt)
        if decision is None:
            commit_round = self._current_round(query.transaction, query.attempt)
            if commit_round is not None or self.presumption is None:
                # Still mid-round (or presumed-nothing, which never guesses):
                # park the query; _decide answers it.
                self._waiting_queries.setdefault(
                    (query.transaction, query.attempt), []
                ).append(query.reply_to)
                return
            # No record and no live round: the presumption *is* the answer
            # (that absence-of-record reading is what lets the presumed
            # variants skip a forced write for the presumed outcome).
            decision = self.presumption
        coordinator.transport.send(
            coordinator,
            query.reply_to,
            "status_reply",
            StatusReply(transaction=query.transaction, attempt=query.attempt, decision=decision),
        )

    def _on_ack(self, ack: AckMessage) -> None:
        self._coordinator.commit_log.record_ack(ack.transaction, ack.attempt, ack.site)

    def _answer_waiting_queries(
        self, transaction: TransactionId, attempt: int, decision: CommitDecision
    ) -> None:
        for reply_to in self._waiting_queries.pop((transaction, attempt), ()):
            self._coordinator.transport.send(
                self._coordinator,
                reply_to,
                "status_reply",
                StatusReply(transaction=transaction, attempt=attempt, decision=decision),
            )

    def on_coordinator_crash(self) -> None:
        """Lose the volatile commit state a real TM process loses with a crash.

        The in-memory vote tallies and parked status queries are gone; what
        survives is exactly the durable site log.  The recovery walk (via
        :meth:`recover`) re-drives whatever was in flight.
        """
        self._rounds.clear()
        self._waiting_queries.clear()

    def recover(self, execution: "TransactionExecution") -> None:
        """Re-drive one round found still ``PREPARING`` after a coordinator restart.

        The decision is logged and the round closed inside one atomic event,
        so an execution still ``PREPARING`` is by construction undecided: no
        participant can hold (or ever receive) a commit for this attempt,
        and every variant may abort it under its own logging rules — exactly
        the classic "no commit record ⇒ abort" recovery reading.
        """
        coordinator = self._coordinator
        now = coordinator.transport.now
        attempt = execution.attempt
        participants = tuple(sorted({copy.site for copy in execution.copies}))
        self._log_decision(
            execution.tid, attempt, CommitDecision.ABORT, now, participants
        )
        for site in participants:
            coordinator.transport.send(
                coordinator,
                commit_participant_name(site),
                "decide",
                DecisionMessage(
                    transaction=execution.tid,
                    attempt=attempt,
                    decision=CommitDecision.ABORT,
                ),
            )
        coordinator.metrics.record_commit_abort()
        coordinator.abort_for_commit(execution)
