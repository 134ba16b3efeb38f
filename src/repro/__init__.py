"""repro — reproduction of Wang & Li, "A Unified Concurrency Control Algorithm
for Distributed Database Systems" (ICDE 1988).

The package implements, on top of a deterministic discrete-event simulation of
a distributed database:

* the three concurrency-control protocols the paper integrates — static
  Two-Phase Locking, Basic Timestamp Ordering, and Precedence Agreement;
* their integration through the Precedence-Assignment Model: the unified
  precedence space and the semi-lock enforcement protocol (Section 4);
* the System Throughput Loss model and the per-transaction dynamic protocol
  selector (Section 5);
* a conflict-serializability oracle used to audit every run (Theorem 2).

Quick start::

    from repro import SystemConfig, WorkloadConfig, run_simulation

    result = run_simulation(
        SystemConfig(num_sites=4, num_items=64),
        WorkloadConfig(arrival_rate=20.0, num_transactions=300),
        protocol="PA",
    )
    print(result.mean_system_time, result.serializable)
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "ConflictGraph",
    "CopyId",
    "DistributedDatabase",
    "ItemId",
    "LogicalOperation",
    "NetworkConfig",
    "OperationType",
    "PhysicalOperation",
    "Protocol",
    "ProtocolMix",
    "RequestId",
    "RunResult",
    "STLProtocolSelector",
    "SiteId",
    "SystemConfig",
    "ThroughputLossModel",
    "TransactionGenerator",
    "TransactionId",
    "TransactionOutcome",
    "TransactionSpec",
    "TransactionStatus",
    "WorkloadConfig",
    "__version__",
    "check_serializable",
    "generate_workload",
    "run_simulation",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.common.config": ("NetworkConfig", "ProtocolMix", "SystemConfig", "WorkloadConfig"),
        "repro.common.ids": ("CopyId", "ItemId", "RequestId", "SiteId", "TransactionId"),
        "repro.common.operations": ("LogicalOperation", "OperationType", "PhysicalOperation"),
        "repro.common.protocol_names": ("Protocol",),
        "repro.common.transactions": (
            "TransactionOutcome",
            "TransactionSpec",
            "TransactionStatus",
        ),
        "repro.core.serializability": ("ConflictGraph", "check_serializable"),
        "repro.selection.selector": ("STLProtocolSelector",),
        "repro.selection.stl": ("ThroughputLossModel",),
        "repro.system.database": ("DistributedDatabase", "RunResult"),
        "repro.system.runner": ("run_simulation",),
        "repro.workload.generator": ("TransactionGenerator", "generate_workload"),
    },
)
