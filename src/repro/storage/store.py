"""A small value store for the physical copies.

The concurrency-control layer only needs the *order* of operations, but the
examples (bank transfers, inventory reservations) and several integration
tests want to observe actual values so that anomalies such as lost updates
would be visible if the protocols were wrong.  ``ValueStore`` keeps the
current value and the committed-write count of each physical copy.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.common.ids import CopyId, TransactionId


class ValueStore:
    """Current values and committed-write counts of physical copies."""

    def __init__(self, default_value: Any = 0) -> None:
        self._default_value = default_value
        self._write_observers: List[Any] = []
        self._values: Dict[CopyId, Any] = {}
        # Committed writes per copy.  Under write-all every copy of an item
        # must see the same count; a mismatch is durable evidence of a
        # half-applied write-all even when a later full write-all made the
        # final values agree again.
        self._write_counts: Dict[CopyId, int] = {}

    @property
    def default_value(self) -> Any:
        """Value a copy reads as before any write or initialisation."""
        return self._default_value

    def attach_write_observer(self, observer: Any) -> None:
        """Register a duck-typed observer of committed writes.

        The observer's ``value_written(copy, value)`` is called on every
        :meth:`write` and ``value_initialized(copy, value)`` on every
        :meth:`initialize` — enough for a streaming auditor to mirror the
        store's convergence-relevant state without re-reading it at the end.
        """
        self._write_observers.append(observer)

    def read(self, copy: CopyId) -> Any:
        """Current value of ``copy`` (the default when never written)."""
        return self._values.get(copy, self._default_value)

    def write(self, copy: CopyId, value: Any, writer: TransactionId, time: float) -> None:
        """Install ``writer``'s value as the current value of ``copy`` at ``time``."""
        self._values[copy] = value
        self._write_counts[copy] = self._write_counts.get(copy, 0) + 1
        for observer in self._write_observers:
            observer.value_written(copy, value)

    def write_count(self, copy: CopyId) -> int:
        """Number of committed writes ``copy`` has received (initialisation excluded)."""
        return self._write_counts.get(copy, 0)

    def initialize(self, copy: CopyId, value: Any) -> None:
        """Set an initial value outside of any transaction (load phase)."""
        self._values[copy] = value
        for observer in self._write_observers:
            observer.value_initialized(copy, value)

    def snapshot(self) -> Dict[CopyId, Any]:
        """Current value of every copy ever touched."""
        return dict(self._values)
