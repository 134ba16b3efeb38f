"""Registry of protocol policies.

The unified queue manager looks up the assignment policy for each arriving
request here.  Registering a new policy is the extension point for
integrating further concurrency-control algorithms into the unified scheme
(future-work item 2 of the paper).
"""

from __future__ import annotations

from typing import Dict

from repro.common.errors import UnknownProtocolError
from repro.common.protocol_names import Protocol
from repro.core.protocols.base import ProtocolPolicy
from repro.core.protocols.precedence_agreement import PrecedenceAgreementPolicy
from repro.core.protocols.timestamp_ordering import TimestampOrderingPolicy
from repro.core.protocols.two_phase_locking import TwoPhaseLockingPolicy

_REGISTRY: Dict[Protocol, ProtocolPolicy] = {}


def register_policy(policy: ProtocolPolicy, replace: bool = False) -> None:
    """Register ``policy`` for its protocol.

    Pass ``replace=True`` to swap in an alternative implementation of an
    already-registered protocol (used by tests and ablation studies).
    """
    if policy.protocol in _REGISTRY and not replace:
        raise UnknownProtocolError(
            f"a policy for {policy.protocol} is already registered; pass replace=True to override"
        )
    _REGISTRY[policy.protocol] = policy


def default_policies() -> Dict[Protocol, ProtocolPolicy]:
    """A fresh mapping with the three policies of the paper."""
    return {
        Protocol.TWO_PHASE_LOCKING: TwoPhaseLockingPolicy(),
        Protocol.TIMESTAMP_ORDERING: TimestampOrderingPolicy(),
        Protocol.PRECEDENCE_AGREEMENT: PrecedenceAgreementPolicy(),
    }


# Populate the module-level registry with the defaults on import.
for _policy in default_policies().values():
    if _policy.protocol not in _REGISTRY:
        register_policy(_policy)
