"""Storage substrate: replica catalog, per-copy operation logs and the value store.

The paper's system model (Section 2) stores each logical data item redundantly
as physical copies at different sites and models an execution as one log per
physical copy recording the order in which operations were implemented.  This
package provides exactly those pieces:

* :class:`~repro.storage.catalog.ReplicaCatalog` — the logical-to-physical
  mapping with read-one / write-all translation.
* :class:`~repro.storage.log.CopyLog` and
  :class:`~repro.storage.log.ExecutionLog` — the per-copy implementation-order
  logs that feed the serializability oracle.
* :class:`~repro.storage.store.ValueStore` — a simple versioned key/value
  store so that examples and tests can observe the effect of executions
  (lost updates, non-repeatable reads) rather than only their schedules.
"""

from repro._exports import lazy_exports

__all__ = ["CopyLog", "ExecutionLog", "LogEntry", "ReplicaCatalog", "ValueStore"]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.storage.catalog": ("ReplicaCatalog",),
        "repro.storage.log": ("CopyLog", "ExecutionLog", "LogEntry"),
        "repro.storage.store": ("ValueStore",),
    },
)
