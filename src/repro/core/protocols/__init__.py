"""Per-protocol precedence-assignment policies and the policy registry.

In the Precedence-Assignment Model the three algorithms differ only in how a
precedence is assigned to an arriving request (and in what happens when the
assignment fails): 2PL appends at the tail of the queue, Basic T/O uses the
transaction timestamp and rejects out-of-order arrivals, and PA uses the
transaction timestamp but proposes a backed-off timestamp instead of
rejecting.  The unified queue manager delegates that per-protocol decision to
the policies in this package and applies the shared semi-lock enforcement to
whatever precedence they produce.

New concurrency-control algorithms (the paper's future-work item 2) are added
by implementing :class:`~repro.core.protocols.base.ProtocolPolicy` and calling
:func:`register_policy`.
"""

from repro.core.protocols.base import DecisionKind, ProtocolPolicy
from repro.core.protocols.precedence_agreement import PrecedenceAgreementPolicy
from repro.core.protocols.registry import (
    default_policies,
    register_policy,
)
from repro.core.protocols.timestamp_ordering import TimestampOrderingPolicy
from repro.core.protocols.two_phase_locking import TwoPhaseLockingPolicy

__all__ = [
    "DecisionKind",
    "PrecedenceAgreementPolicy",
    "ProtocolPolicy",
    "TimestampOrderingPolicy",
    "TwoPhaseLockingPolicy",
    "default_policies",
    "register_policy",
]
