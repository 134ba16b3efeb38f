"""Static Two-Phase Locking as a PAM assignment policy.

Section 3.3: for 2PL the data queue is first-come-first-served, so the
precedence of an arriving request is simply its arrival order.  In the
unified precedence space (Section 4.1) this becomes: the request's timestamp
component is the biggest timestamp that has ever appeared in the queue before
its arrival (so it lands at the current tail), 2PL counts as the biggest site
id on ties, and 2PL requests among themselves are ordered by arrival.

2PL requests are always accepted — the price is that 2PL transactions may
deadlock (Theorem 3 / Corollary 2 show 2PL is the *only* source of blocking),
which the system resolves with the wait-for-graph detector.
"""

from __future__ import annotations

from repro.common.protocol_names import Protocol
from repro.core.precedence import Precedence
from repro.core.protocols.base import Assignment, DecisionKind, ProtocolPolicy
from repro.core.requests import Request


class TwoPhaseLockingPolicy(ProtocolPolicy):
    """Assignment function for static 2PL requests."""

    protocol = Protocol.TWO_PHASE_LOCKING

    def assign(
        self,
        request: Request,
        read_ts: float,
        write_ts: float,
        max_timestamp_seen: float,
        arrival_seq: int,
    ) -> Assignment:
        """Accept the 2PL request at the tail; it waits for conflicting locks ahead of it."""
        transaction = request.transaction
        precedence = Precedence(
            max_timestamp_seen, self.protocol, transaction.site, transaction, arrival_seq
        )
        return DecisionKind.ACCEPT, precedence, None
