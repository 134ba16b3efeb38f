"""Request records sent from request issuers to queue managers."""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.ids import CopyId, RequestId, TransactionId
from repro.common.operations import OperationType
from repro.common.protocol_names import Protocol


@dataclass(frozen=True)
class Request:
    """One physical-operation request.

    ``timestamp`` is the transaction timestamp ``TS_i`` (meaningful for T/O
    and PA; carried but unused for precedence assignment by 2PL).
    ``backoff_interval`` is the PA back-off quantum ``INT_i``.
    ``issuer`` is the network name of the request issuer to which grants,
    back-offs and rejections must be sent.
    """

    request_id: RequestId
    transaction: TransactionId
    protocol: Protocol
    op_type: OperationType
    copy: CopyId
    timestamp: float
    backoff_interval: float = 1.0
    issuer: str = ""

    @property
    def is_read(self) -> bool:
        """Whether the request asks for a read."""
        return self.op_type.is_read

    def conflicts_with(self, other: "Request") -> bool:
        """Requests conflict when they access the same copy, come from different
        transactions, and at least one writes."""
        return (
            self.copy == other.copy
            and self.transaction != other.transaction
            and self.op_type.conflicts_with(other.op_type)
        )
