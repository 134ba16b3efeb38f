"""Basic Timestamp Ordering as a PAM assignment policy.

Section 3.3: every operation of a transaction carries the transaction's
timestamp; the serialization order is the timestamp order, so (E2) holds by
construction, and (E1) is enforced by *rejecting* requests that arrive out of
timestamp order — a read whose timestamp is not larger than the biggest
granted write timestamp ``W-TS(j)``, or a write whose timestamp is not larger
than both ``W-TS(j)`` and the biggest granted read timestamp ``R-TS(j)``.
A rejected transaction restarts with a fresh, larger timestamp.
"""

from __future__ import annotations

from repro.common.operations import OperationType
from repro.common.protocol_names import Protocol
from repro.core.protocols.base import Assignment, DecisionKind, ProtocolPolicy
from repro.core.requests import Request


class TimestampOrderingPolicy(ProtocolPolicy):
    """Assignment function for Basic T/O requests."""

    protocol = Protocol.TIMESTAMP_ORDERING

    def assign(
        self,
        request: Request,
        read_ts: float,
        write_ts: float,
        max_timestamp_seen: float,
        arrival_seq: int,
    ) -> Assignment:
        """Accept the request in timestamp order, or reject it as arriving too late.

        In order means no conflicting request with a later timestamp has been
        granted: a read must beat ``W-TS``, a write both ``W-TS`` and ``R-TS``.
        """
        timestamp = request.timestamp
        precedence = self._timestamp_precedence(request, timestamp)
        if timestamp > write_ts and (
            request.op_type is OperationType.READ or timestamp > read_ts
        ):
            return DecisionKind.ACCEPT, precedence, None
        return DecisionKind.REJECT, precedence, None
