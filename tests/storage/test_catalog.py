"""Replica catalog: placement and logical-to-physical translation."""

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import ConfigurationError
from repro.common.ids import CopyId
from repro.common.operations import LogicalOperation, OperationType
from repro.storage.catalog import ReplicaCatalog


class TestPlacement:
    def test_single_copy_placement_round_robin(self):
        catalog = ReplicaCatalog(num_sites=3, num_items=6, replication_factor=1)
        assert catalog.sites_holding(0) == (0,)
        assert catalog.sites_holding(1) == (1,)
        assert catalog.sites_holding(3) == (0,)

    def test_replicated_placement_uses_consecutive_sites(self):
        catalog = ReplicaCatalog(num_sites=4, num_items=4, replication_factor=2)
        assert catalog.sites_holding(3) == (3, 0)

    def test_every_item_has_replication_factor_copies(self):
        catalog = ReplicaCatalog(num_sites=5, num_items=20, replication_factor=3)
        for item in range(20):
            assert len(catalog.copies_of(item)) == 3

    def test_copies_at_site_partition_matches_copies_of(self):
        catalog = ReplicaCatalog(num_sites=3, num_items=9, replication_factor=2)
        from_sites = {copy for site in range(3) for copy in catalog.copies_at(site)}
        from_items = {copy for item in range(9) for copy in catalog.copies_of(item)}
        assert from_sites == from_items

    def test_invalid_replication_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            ReplicaCatalog(num_sites=2, num_items=4, replication_factor=3)

    def test_unknown_item_rejected(self):
        catalog = ReplicaCatalog(num_sites=2, num_items=4)
        with pytest.raises(ConfigurationError):
            catalog.sites_holding(10)

    def test_unknown_site_rejected(self):
        catalog = ReplicaCatalog(num_sites=2, num_items=4)
        with pytest.raises(ConfigurationError):
            catalog.copies_at(5)

    def test_from_config(self):
        config = SystemConfig(num_sites=4, num_items=8, replication_factor=2)
        catalog = ReplicaCatalog.from_config(config)
        assert catalog.num_sites == 4
        assert len(catalog.copies_of(0)) == 2


class TestReadOneWriteAll:
    def test_read_prefers_local_copy(self):
        catalog = ReplicaCatalog(num_sites=3, num_items=3, replication_factor=3)
        assert catalog.read_copy(0, reader_site=2) == CopyId(0, 2)

    def test_read_falls_back_to_first_holder(self):
        catalog = ReplicaCatalog(num_sites=4, num_items=4, replication_factor=1)
        # Item 1 lives only at site 1; a reader at site 3 goes there.
        assert catalog.read_copy(1, reader_site=3) == CopyId(1, 1)

    def test_write_targets_every_copy(self):
        catalog = ReplicaCatalog(num_sites=4, num_items=4, replication_factor=3)
        assert set(catalog.write_copies(2)) == set(catalog.copies_of(2))


class TestTranslation:
    def test_reads_become_single_physical_read(self):
        catalog = ReplicaCatalog(num_sites=3, num_items=3, replication_factor=2)
        physical = catalog.translate([LogicalOperation(OperationType.READ, 0)], origin_site=0)
        assert len(physical) == 1
        assert physical[0].op_type is OperationType.READ

    def test_writes_become_one_per_copy(self):
        catalog = ReplicaCatalog(num_sites=3, num_items=3, replication_factor=2)
        physical = catalog.translate([LogicalOperation(OperationType.WRITE, 0)], origin_site=0)
        assert len(physical) == 2
        assert all(op.op_type is OperationType.WRITE for op in physical)

    def test_translation_preserves_read_then_write_order(self):
        catalog = ReplicaCatalog(num_sites=2, num_items=4, replication_factor=1)
        operations = [
            LogicalOperation(OperationType.READ, 0),
            LogicalOperation(OperationType.WRITE, 1),
        ]
        physical = catalog.translate(operations, origin_site=0)
        assert physical[0].op_type is OperationType.READ
        assert physical[-1].op_type is OperationType.WRITE
