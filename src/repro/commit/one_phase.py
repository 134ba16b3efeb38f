"""The one-phase (implicit) commit layer: the paper's base behaviour.

Commit is a local decision of the coordinator: the instant the local
computation finishes, the write set is installed into every copy, the
transaction counts as committed, and the locks are released (directly, or
through the T/O semi-lock downgrade dance).  With no faults configured
this is **bit-identical** to the pre-refactor code path — same writes,
same messages, same ordering — which the golden-digest tests pin.

Under the fault model the weakness this layer exists to demonstrate
appears: a write-all member addressed to a copy whose site is down is
simply lost (the site never saw it, and nobody will ever retry it), so a
committed transaction can leave its item's copies divergent — the
half-applied write-all that E10 measures and two-phase commit prevents.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.commit.base import CommitProtocol, register_commit_protocol
from repro.common.transactions import TransactionStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.system.coordinator import TransactionExecution


@register_commit_protocol
class OnePhaseCommit(CommitProtocol):
    """Implicit commit at the coordinator (no extra messages, no logging)."""

    name = "one-phase"
    uses_participants = False

    def begin_commit(self, execution: "TransactionExecution") -> None:
        """Install the writes, mark the transaction committed, release the locks."""
        coordinator = self._coordinator
        now = coordinator.transport.now
        self._write_phase(execution, now)
        coordinator.transition(execution, TransactionStatus.COMMITTED)
        execution.commit_time = now
        coordinator.record_outcome(execution)
        coordinator.release_phase(execution)

    def _write_phase(self, execution: "TransactionExecution", now: float) -> None:
        """Write-all while the locks are held; writes to downed sites are lost."""
        coordinator = self._coordinator
        if coordinator.value_store is None:
            return
        new_values = coordinator.compute_write_values(execution)
        faults = coordinator.faults
        for item in execution.spec.write_items:
            value = new_values.get(item, f"written-by-{execution.tid}")
            for copy in coordinator.catalog.write_copies(item):
                if faults is not None and not faults.site_up(copy.site, now):
                    coordinator.metrics.record_lost_write()
                    continue
                coordinator.value_store.write(copy, value, execution.tid, now)
