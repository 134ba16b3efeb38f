"""Logical and physical operations.

A transaction is a sequence of *logical* read/write operations on logical data
items.  Before execution the request issuer translates each logical operation
into one or more *physical* operations on physical copies (read-one /
write-all replication, see :mod:`repro.storage.catalog`), and sends one
request per physical operation to the queue manager of that copy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.ids import CopyId, ItemId


class OperationType(enum.Enum):
    """Kind of access an operation performs."""

    READ = "r"
    WRITE = "w"

    def __str__(self) -> str:
        return self.value

    @property
    def is_read(self) -> bool:
        """Whether this operation type is a read."""
        return self is OperationType.READ

    @property
    def is_write(self) -> bool:
        """Whether this operation type is a write."""
        return self is OperationType.WRITE

    def conflicts_with(self, other: "OperationType") -> bool:
        """Two operations conflict when they touch the same item and at least one writes."""
        return self.is_write or other.is_write


@dataclass(frozen=True)
class LogicalOperation:
    """A read or write of a logical data item, as written by the user."""

    op_type: OperationType
    item: ItemId

    def __str__(self) -> str:
        return f"{self.op_type}(D{self.item})"

    @property
    def is_read(self) -> bool:
        """Whether this logical operation reads its item."""
        return self.op_type.is_read

    @property
    def is_write(self) -> bool:
        """Whether this logical operation writes its item."""
        return self.op_type.is_write

    def conflicts_with(self, other: "LogicalOperation") -> bool:
        """True when both operations touch the same logical item and one writes."""
        return self.item == other.item and self.op_type.conflicts_with(other.op_type)


@dataclass(frozen=True)
class PhysicalOperation:
    """A read or write of one physical copy, produced by logical-to-physical translation."""

    op_type: OperationType
    copy: CopyId

    def __str__(self) -> str:
        return f"{self.op_type}({self.copy})"

    @property
    def is_read(self) -> bool:
        """Whether this physical operation reads its copy."""
        return self.op_type.is_read

    @property
    def is_write(self) -> bool:
        """Whether this physical operation writes its copy."""
        return self.op_type.is_write

    @property
    def item(self) -> ItemId:
        """Logical item this physical operation belongs to."""
        return self.copy.item

    @property
    def site(self) -> int:
        """Site holding the accessed copy."""
        return self.copy.site

    def conflicts_with(self, other: "PhysicalOperation") -> bool:
        """True when both operations touch the same copy and one writes."""
        return self.copy == other.copy and self.op_type.conflicts_with(other.op_type)

