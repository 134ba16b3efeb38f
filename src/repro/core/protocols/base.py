"""Abstract protocol policy: the per-protocol precedence assignment function."""

from __future__ import annotations

import abc
import enum
from typing import Optional, Tuple

from repro.common.operations import OperationType
from repro.common.protocol_names import Protocol
from repro.core.locks import LockMode, requested_lock_mode
from repro.core.precedence import Precedence
from repro.core.requests import Request


class DecisionKind(enum.Enum):
    """What the assignment function decided for an arriving request."""

    ACCEPT = "accept"     # insert with the produced precedence, marked 'accepted'
    BLOCK = "block"       # insert marked 'blocked' and send a back-off timestamp (PA)
    REJECT = "reject"     # do not insert; the transaction restarts (T/O)


#: What :meth:`ProtocolPolicy.assign` returns: the decision, the precedence
#: produced, and the back-off timestamp proposed (PA only).
Assignment = Tuple[DecisionKind, Precedence, Optional[float]]


class ProtocolPolicy(abc.ABC):
    """Precedence assignment for one concurrency-control protocol."""

    #: The protocol this policy implements.
    protocol: Protocol

    @abc.abstractmethod
    def assign(
        self,
        request: Request,
        read_ts: float,
        write_ts: float,
        max_timestamp_seen: float,
        arrival_seq: int,
    ) -> Assignment:
        """The assignment function: decide ``request``'s fate on arrival.

        ``read_ts`` / ``write_ts`` are the paper's ``R-TS(j)`` / ``W-TS(j)``:
        the biggest timestamps of granted read and write requests.
        ``max_timestamp_seen`` is the biggest timestamp that has ever appeared
        in the queue (used by the 2PL assignment rule).  ``arrival_seq`` is
        the per-queue arrival counter that keeps 2PL requests FCFS among
        themselves.  The queue manager calls this on every arrival, so it
        takes the state as plain arguments and returns a plain tuple.
        """

    def lock_mode(self, op_type: OperationType, semi_locks_enabled: bool = True) -> LockMode:
        """Lock mode a request of this protocol asks for.

        When the semi-lock machinery is disabled (the naive "lock everything"
        fallback of Section 4.2) every reader takes a plain read lock.
        """
        if not semi_locks_enabled:
            return LockMode.WRITE if op_type.is_write else LockMode.READ
        return requested_lock_mode(self.protocol, op_type)

    def _timestamp_precedence(self, request: Request, timestamp: float) -> Precedence:
        """Precedence at ``timestamp`` in the transaction's own slot (T/O and PA)."""
        transaction = request.transaction
        return Precedence(timestamp, self.protocol, transaction.site, transaction)
