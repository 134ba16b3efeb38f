"""Identifier types for sites, transactions, data items and physical copies.

The paper distinguishes *logical* data items ``D_i`` from their *physical*
copies ``D_ij`` stored at particular sites, and identifies transactions by a
(site, sequence) pair — the site id participates in the unified precedence
tie-breaking rules of Section 4.1, so it is kept explicit here rather than
being folded into an opaque integer.
"""

from __future__ import annotations

from typing import NamedTuple, Union

#: Sites are numbered ``0 .. num_sites - 1``.
SiteId = int

#: Logical data items are numbered ``0 .. num_items - 1``.
ItemId = int


class TransactionId(NamedTuple):
    """Globally unique transaction identifier.

    Ordering is lexicographic on ``(site, seq)``; the unified precedence rules
    only ever compare transaction ids as a final tie-break, so any total order
    works as long as it is consistent across sites.

    Identifiers are hashed millions of times per run (queue indices, wait-for
    graphs, the conflict graph), so all three id types are tuples: hashing,
    equality and ordering run in C.  The hash is that of the field tuple.
    Being tuples, ids of different types with equal fields compare and hash
    equal (``CopyId(1, 2) == TransactionId(1, 2) == (1, 2)``), so no mapping,
    set or queue may key two id types at once (DESIGN.md, "What a message
    costs").
    """

    site: SiteId
    seq: int

    def __str__(self) -> str:
        return f"T{self.site}.{self.seq}"


class CopyId(NamedTuple):
    """Identifier of a physical copy ``D_ij``: logical item ``item`` stored at ``site``."""

    item: ItemId
    site: SiteId

    def __str__(self) -> str:
        return f"D{self.item}@{self.site}"


class RequestId(NamedTuple):
    """Identifier of one physical-operation request sent to a queue manager.

    ``index`` is the position of the operation within its transaction; the
    pair ``(transaction, index)`` is unique per *attempt*, so ``attempt`` (the
    restart count of the transaction at the time the request was issued) is
    included to distinguish re-issued requests after a T/O restart.
    """

    transaction: TransactionId
    index: int
    attempt: int = 0

    def __str__(self) -> str:
        return f"{self.transaction}.op{self.index}#{self.attempt}"


#: Anything accepted where a data-item identifier is expected.
AnyItem = Union[ItemId, CopyId]
