"""The unified precedence space (UPS) of Section 4.1.

Every request in every data queue carries a precedence drawn from the same
space: the timestamp space extended with tie-breaking rules.  The paper's
ordering is:

1. compare timestamps;
2. on a tie, compare the site ids of the issuing transactions, where a
   2PL-controlled transaction is regarded as having the *biggest* site id;
3. if still tied, then either both requests are 2PL (compare their arrival
   order at the data queue) or neither is (compare transaction ids).

2PL requests are assigned, as their timestamp component, the biggest
timestamp that had appeared in the data queue before their arrival — this
puts every 2PL request at the current tail of the queue and preserves FCFS
order among 2PL requests (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.common.ids import SiteId, TransactionId
from repro.common.protocol_names import Protocol


@dataclass(frozen=True)
class Precedence:
    """One point of the unified precedence space.

    ``timestamp`` is the transaction timestamp for T/O and PA requests, or the
    biggest previously-seen timestamp for 2PL requests.  ``arrival_seq`` is
    the per-queue arrival counter used to order 2PL requests among themselves;
    it is ignored for non-2PL requests.
    """

    timestamp: float
    protocol: Protocol
    site: SiteId
    transaction: TransactionId
    arrival_seq: int = 0

    @property
    def is_two_phase_locking(self) -> bool:
        """Whether this precedence belongs to a 2PL request."""
        return self.protocol.is_two_phase_locking

    def sort_key(self) -> Tuple:
        """Total-order key implementing the three tie-breaking rules."""
        if self.protocol is Protocol.TWO_PHASE_LOCKING:
            # Rule 2: 2PL counts as the biggest site id (group 1 sorts after
            # group 0).  Rule 3 (both 2PL): arrival order at the data queue.
            return (self.timestamp, 1, 0, self.arrival_seq, 0)
        # Rule 2: compare real site ids.  Rule 3 (neither 2PL): transaction id.
        return (
            self.timestamp,
            0,
            self.site,
            self.transaction.site,
            self.transaction.seq,
        )

    def __lt__(self, other: "Precedence") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Precedence") -> bool:
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "Precedence") -> bool:
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "Precedence") -> bool:
        return self.sort_key() >= other.sort_key()

    def with_timestamp(self, timestamp: float) -> "Precedence":
        """A copy of this precedence with a new timestamp (PA back-off update)."""
        return Precedence(
            timestamp=timestamp,
            protocol=self.protocol,
            site=self.site,
            transaction=self.transaction,
            arrival_seq=self.arrival_seq,
        )

    def __str__(self) -> str:
        return f"<ts={self.timestamp:.6g} {self.protocol} {self.transaction}>"
