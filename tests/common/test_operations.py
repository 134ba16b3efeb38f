"""Logical and physical operations and their conflict relation."""

from repro.common.ids import CopyId
from repro.common.operations import (
    LogicalOperation,
    OperationType,
    PhysicalOperation,
)

READ, WRITE = OperationType.READ, OperationType.WRITE


class TestOperationType:
    def test_read_write_flags(self):
        assert OperationType.READ.is_read and not OperationType.READ.is_write
        assert OperationType.WRITE.is_write and not OperationType.WRITE.is_read

    def test_conflicts_require_at_least_one_write(self):
        assert not OperationType.READ.conflicts_with(OperationType.READ)
        assert OperationType.READ.conflicts_with(OperationType.WRITE)
        assert OperationType.WRITE.conflicts_with(OperationType.READ)
        assert OperationType.WRITE.conflicts_with(OperationType.WRITE)

    def test_str(self):
        assert str(OperationType.READ) == "r"
        assert str(OperationType.WRITE) == "w"


class TestLogicalOperation:
    def test_conflict_requires_same_item(self):
        assert not LogicalOperation(READ, 1).conflicts_with(LogicalOperation(WRITE, 2))
        assert LogicalOperation(READ, 1).conflicts_with(LogicalOperation(WRITE, 1))
        assert not LogicalOperation(READ, 1).conflicts_with(LogicalOperation(READ, 1))

    def test_str(self):
        assert str(LogicalOperation(WRITE, 9)) == "w(D9)"


class TestPhysicalOperation:
    def test_item_and_site_shortcuts(self):
        operation = PhysicalOperation(OperationType.WRITE, CopyId(5, 2))
        assert operation.item == 5
        assert operation.site == 2

    def test_conflict_requires_same_copy(self):
        a = PhysicalOperation(OperationType.WRITE, CopyId(5, 2))
        b = PhysicalOperation(OperationType.READ, CopyId(5, 2))
        c = PhysicalOperation(OperationType.READ, CopyId(5, 3))
        assert a.conflicts_with(b)
        assert not b.conflicts_with(c)
        assert not b.conflicts_with(b)

    def test_str(self):
        operation = PhysicalOperation(OperationType.READ, CopyId(1, 0))
        assert str(operation) == "r(D1@0)"
