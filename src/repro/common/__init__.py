"""Shared value types used across the reproduction.

This package holds the vocabulary of the system: identifiers for sites,
transactions, data items and physical copies; the operation and request
records exchanged between request issuers and queue managers; transaction
specifications produced by the workload generator; configuration dataclasses;
and the exception hierarchy.

Everything here is deliberately free of simulation or protocol logic so that
the concurrency-control core (:mod:`repro.core`) and the simulation kernel
(:mod:`repro.sim`) can both depend on it without cycles.
"""

from repro._exports import lazy_exports

__all__ = [
    "ConfigurationError",
    "CopyId",
    "DeadlockError",
    "ItemId",
    "LogicalOperation",
    "NetworkConfig",
    "OperationType",
    "PhysicalOperation",
    "Protocol",
    "ProtocolError",
    "ProtocolMix",
    "ReproError",
    "RequestId",
    "SerializationViolationError",
    "SimulationError",
    "SiteId",
    "SystemConfig",
    "TransactionAbortedError",
    "TransactionId",
    "TransactionSpec",
    "TransactionStatus",
    "UnknownProtocolError",
    "WorkloadConfig",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.common.config": ("NetworkConfig", "ProtocolMix", "SystemConfig", "WorkloadConfig"),
        "repro.common.errors": (
            "ConfigurationError",
            "DeadlockError",
            "ProtocolError",
            "ReproError",
            "SerializationViolationError",
            "SimulationError",
            "TransactionAbortedError",
            "UnknownProtocolError",
        ),
        "repro.common.ids": ("CopyId", "ItemId", "RequestId", "SiteId", "TransactionId"),
        "repro.common.operations": ("LogicalOperation", "OperationType", "PhysicalOperation"),
        "repro.common.protocol_names": ("Protocol",),
        "repro.common.transactions": ("TransactionSpec", "TransactionStatus"),
    },
)
