"""Replica catalog: where each logical data item's physical copies live.

The catalog answers two questions for the request issuer:

* *read-one*: which single copy should a logical read touch?  (We pick the
  copy closest to the reading site — the local copy if one exists, otherwise
  the lowest-numbered holding site.)
* *write-all*: which copies must a logical write touch?  (All of them.)

Placement is round-robin with ``replication_factor`` consecutive sites per
item, which spreads both storage and queue-manager load evenly.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import ConfigurationError
from repro.common.ids import CopyId, ItemId, SiteId
from repro.common.operations import (
    LogicalOperation,
    OperationType,
    PhysicalOperation,
)


class ReplicaCatalog:
    """Mapping from logical data items to their physical copies."""

    def __init__(self, num_sites: int, num_items: int, replication_factor: int = 1) -> None:
        if not 1 <= replication_factor <= num_sites:
            raise ConfigurationError(
                "replication factor must be between 1 and the number of sites"
            )
        self._num_sites = num_sites
        self._num_items = num_items
        self._replication_factor = replication_factor
        self._placement: Dict[ItemId, Tuple[SiteId, ...]] = {}
        for item in range(num_items):
            first_site = item % num_sites
            sites = tuple(
                (first_site + offset) % num_sites for offset in range(replication_factor)
            )
            self._placement[item] = sites

    @classmethod
    def from_config(cls, config: SystemConfig) -> "ReplicaCatalog":
        """Build the catalog implied by a system configuration (round-robin placement)."""
        return cls(config.num_sites, config.num_items, config.replication_factor)

    @property
    def num_sites(self) -> int:
        """Number of sites copies are spread over."""
        return self._num_sites

    @property
    def num_items(self) -> int:
        """Number of logical data items."""
        return self._num_items

    def sites_holding(self, item: ItemId) -> Tuple[SiteId, ...]:
        """All sites that store a copy of ``item``."""
        self._check_item(item)
        return self._placement[item]

    def copies_of(self, item: ItemId) -> Tuple[CopyId, ...]:
        """All physical copies of ``item``."""
        return tuple(CopyId(item, site) for site in self.sites_holding(item))

    def copies_at(self, site: SiteId) -> Tuple[CopyId, ...]:
        """All physical copies stored at ``site``."""
        if not 0 <= site < self._num_sites:
            raise ConfigurationError(f"site {site} does not exist")
        return tuple(
            CopyId(item, site)
            for item, sites in self._placement.items()
            if site in sites
        )

    def read_copy(self, item: ItemId, reader_site: SiteId) -> CopyId:
        """The single copy a logical read from ``reader_site`` should access (read-one)."""
        sites = self.sites_holding(item)
        if reader_site in sites:
            return CopyId(item, reader_site)
        return CopyId(item, sites[0])

    def write_copies(self, item: ItemId) -> Tuple[CopyId, ...]:
        """Every copy a logical write must update (write-all)."""
        return self.copies_of(item)

    def translate(
        self, operations: Sequence[LogicalOperation], origin_site: SiteId
    ) -> List[PhysicalOperation]:
        """Translate logical operations into physical ones for a transaction at ``origin_site``.

        Reads become a single physical read of the nearest copy; writes become
        one physical write per copy.  The returned list preserves the logical
        order (reads of the read phase before writes of the write phase).
        """
        physical: List[PhysicalOperation] = []
        for operation in operations:
            if operation.is_read:
                physical.append(
                    PhysicalOperation(
                        OperationType.READ, self.read_copy(operation.item, origin_site)
                    )
                )
            else:
                physical.extend(
                    PhysicalOperation(OperationType.WRITE, copy)
                    for copy in self.write_copies(operation.item)
                )
        return physical

    def _check_item(self, item: ItemId) -> None:
        if not 0 <= item < self._num_items:
            raise ConfigurationError(f"logical data item {item} does not exist")
