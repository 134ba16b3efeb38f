"""The simulated distributed database system.

This package wires the pure concurrency-control core (:mod:`repro.core`) to
the discrete-event kernel (:mod:`repro.sim`):

* :class:`~repro.system.queue_manager_actor.QueueManagerActor` — one per
  physical copy; wraps a :class:`~repro.core.queue_manager.QueueManager` and
  turns its effects into network messages.
* :class:`~repro.system.coordinator.RequestIssuerActor` — one per site; runs
  the transaction life cycle (issue requests, negotiate PA timestamps, handle
  T/O rejections and deadlock aborts, execute, downgrade/release).
* :class:`~repro.system.detector.DeadlockDetectorActor` — periodic global
  wait-for-graph scan, 2PL victim aborts.
* :class:`~repro.system.database.DistributedDatabase` — builds the whole
  system from configuration and runs a workload to completion.
* :class:`~repro.system.metrics.MetricsCollector` — per-transaction outcomes
  and the per-protocol statistics the dynamic selector feeds on.
"""

from repro._exports import lazy_exports

__all__ = [
    "DistributedDatabase",
    "MetricsCollector",
    "ProtocolStatistics",
    "RunResult",
    "run_simulation",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.system.database": ("DistributedDatabase", "RunResult"),
        "repro.system.metrics": ("MetricsCollector", "ProtocolStatistics"),
        "repro.system.runner": ("run_simulation",),
    },
)
