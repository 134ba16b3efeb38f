"""Write-all atomicity audit: do an item's copies agree after the run?

The serializability oracle checks the *order* of implemented operations;
this audit checks the *values*: under read-one/write-all, every copy of a
logical item must hold the same value once the run has drained.  A
half-applied write-all — the failure mode of one-phase commit under site
crashes — leaves copies divergent, which no ordering check can see when
the lost write simply never reached the crashed copy's log.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.common.ids import CopyId, ItemId
from repro.storage.catalog import ReplicaCatalog
from repro.storage.store import ValueStore


@dataclass(frozen=True)
class ReplicaReport:
    """Outcome of the replica-convergence audit."""

    checked_items: int
    divergent_items: Tuple[ItemId, ...]

    @property
    def convergent(self) -> bool:
        """Whether every item's copies ended the run with one agreed value."""
        return not self.divergent_items


def check_replica_convergence(
    value_store: ValueStore, catalog: ReplicaCatalog
) -> ReplicaReport:
    """Compare every replicated item's copies: final values *and* write counts.

    Items with a single copy are trivially convergent and skipped.  An item
    is divergent when its copies ended the run with different values, or
    received a different number of committed writes — the latter catches a
    half-applied write-all even when a later complete write-all happened to
    make the final values agree again.
    """
    divergent = []
    checked = 0
    for item in range(catalog.num_items):
        copies = catalog.copies_of(item)
        if len(copies) < 2:
            continue
        checked += 1
        values = [value_store.read(copy) for copy in copies]
        counts = [value_store.write_count(copy) for copy in copies]
        if any(value != values[0] for value in values[1:]) or any(
            count != counts[0] for count in counts[1:]
        ):
            divergent.append(item)
    return ReplicaReport(checked_items=checked, divergent_items=tuple(divergent))


class StreamingReplicaAuditor:
    """Replica-convergence audit that observes writes instead of re-reading.

    Attach to a :class:`~repro.storage.store.ValueStore` with
    ``value_store.attach_write_observer(auditor)`` (or feed it directly in a
    harness): every committed write updates a per-copy running ``(value,
    count, digest)`` triple, so :meth:`report` reproduces exactly the
    verdict of :func:`check_replica_convergence` — same value and
    write-count comparisons over the same items — from O(copies) state and
    without touching the store at the end of the run.  The rolling SHA-256
    digest of each copy's write *sequence* is extra diagnostic state (two
    copies can converge in value and count yet have seen different
    intermediate writes); it never affects the verdict.
    """

    def __init__(self, default_value: Any = 0) -> None:
        self._default_value = default_value
        self._values: Dict[CopyId, Any] = {}
        self._counts: Dict[CopyId, int] = {}
        self._digests: Dict[CopyId, "hashlib._Hash"] = {}

    # Observer protocol (ValueStore.attach_write_observer) --------------- #

    def value_initialized(self, copy: CopyId, value: Any) -> None:
        """Mirror a load-phase initialisation: sets the value, not the count."""
        self._values[copy] = value
        self._fold(copy, "init", value)

    def value_written(self, copy: CopyId, value: Any) -> None:
        """Mirror one committed write to ``copy``."""
        self._values[copy] = value
        self._counts[copy] = self._counts.get(copy, 0) + 1
        self._fold(copy, "write", value)

    def _fold(self, copy: CopyId, kind: str, value: Any) -> None:
        digest = self._digests.get(copy)
        if digest is None:
            digest = self._digests[copy] = hashlib.sha256()
        digest.update(f"{kind}:{value!r};".encode())

    # Reporting ---------------------------------------------------------- #

    def report(self, catalog: ReplicaCatalog) -> ReplicaReport:
        """The same verdict :func:`check_replica_convergence` would produce."""
        divergent = []
        checked = 0
        for item in range(catalog.num_items):
            copies = catalog.copies_of(item)
            if len(copies) < 2:
                continue
            checked += 1
            values = [self._values.get(copy, self._default_value) for copy in copies]
            counts = [self._counts.get(copy, 0) for copy in copies]
            if any(value != values[0] for value in values[1:]) or any(
                count != counts[0] for count in counts[1:]
            ):
                divergent.append(item)
        return ReplicaReport(checked_items=checked, divergent_items=tuple(divergent))
