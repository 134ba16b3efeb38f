"""The Precedence Agreement algorithm (timestamp version) as a PAM policy.

Section 3.4: PA behaves like Basic T/O except that an out-of-order request is
not rejected.  Instead the queue manager computes the smallest back-off
timestamp ``TS' = TS + k * INT`` (``k`` a natural number) acceptable under the
T/O rule and returns it to the request issuer; the issuer gathers the
responses, takes the maximum, and broadcasts the agreed timestamp back to
every queue manager it contacted.  PA is therefore free of both deadlocks and
restarts (Corollary 1).

Deviation from the paper's one-round presentation
--------------------------------------------------
The ICDE 1988 text lets a queue manager grant a PA request *before* the
issuer has finished the timestamp agreement (its step 1(c)/(d)).  A request
granted early at its original timestamp can later be re-timestamped upward by
the agreement, leaving the transaction with *different effective precedences
at different queues* — and that admits wait-for cycles between two PA
transactions (each holding an early grant the other needs), contradicting
Theorem 3.  We therefore run PA as an explicit two-phase negotiation:

1. **Propose.**  Every PA request is inserted *blocked* and the queue manager
   immediately answers with a timestamp proposal — the request's own
   timestamp when it is acceptable, or the backed-off ``TS'`` otherwise.
2. **Confirm.**  The issuer takes the maximum over all proposals (and its own
   timestamp), broadcasts the agreed value, and only then do the entries
   become *accepted* and eligible for granting.

With the timestamp fixed before any lock is granted, every wait-for edge
among PA (and T/O) transactions points from a larger to a smaller final
timestamp, so cycles require a 2PL member — exactly the property Theorem 3
claims.  The cost is one extra proposal/confirm round trip per queue, which
the message counters report.  See DESIGN.md ("Key design decisions").
"""

from __future__ import annotations

import math

from repro.common.errors import ProtocolError
from repro.common.operations import OperationType
from repro.common.protocol_names import Protocol
from repro.core.protocols.base import Assignment, DecisionKind, ProtocolPolicy
from repro.core.requests import Request


class PrecedenceAgreementPolicy(ProtocolPolicy):
    """Assignment function for PA requests (propose/confirm variant)."""

    protocol = Protocol.PRECEDENCE_AGREEMENT

    def assign(
        self,
        request: Request,
        read_ts: float,
        write_ts: float,
        max_timestamp_seen: float,
        arrival_seq: int,
    ) -> Assignment:
        """Insert the PA request blocked with a proposed timestamp (Section 3.4 step 1).

        The proposal is the request's own timestamp when it beats the largest
        conflicting granted timestamp (``W-TS`` for a read, ``W-TS`` and
        ``R-TS`` for a write), else the backed-off ``TS'``.  Either way the
        entry waits, blocked, for the issuer's confirmation.
        """
        timestamp = request.timestamp
        if request.op_type is OperationType.READ:
            threshold = write_ts
        else:
            threshold = max(write_ts, read_ts)
        if timestamp <= threshold:
            timestamp = self.backoff_timestamp(timestamp, request.backoff_interval, threshold)
        return DecisionKind.BLOCK, self._timestamp_precedence(request, timestamp), timestamp

    @staticmethod
    def backoff_timestamp(timestamp: float, interval: float, threshold: float) -> float:
        """Smallest ``timestamp + k * interval`` (k a natural number) strictly above ``threshold``.

        This is the paper's ``TS'_ij`` computation.  The interval must be
        positive; ``k`` is at least 1 so a back-off always moves the timestamp
        forward even when the original value already exceeds the threshold.
        """
        if interval <= 0:
            raise ProtocolError("PA back-off interval must be positive")
        if threshold < timestamp:
            return timestamp + interval
        steps = math.floor((threshold - timestamp) / interval) + 1
        candidate = timestamp + steps * interval
        # Guard against floating-point rounding leaving the candidate at or
        # below the threshold.
        while candidate <= threshold:
            steps += 1
            candidate = timestamp + steps * interval
        return candidate
