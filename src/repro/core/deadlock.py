"""Wait-for graph and deadlock detection.

Only 2PL transactions can cause the system to block (Theorem 3); every
deadlock cycle must contain at least one 2PL transaction (Corollary 2).  The
detector therefore resolves each cycle by aborting a 2PL member — preferring
the one holding the fewest granted locks, then the youngest — and the system
layer restarts the victim after the configured restart delay.

The paper treats deadlock-detection time and cost as tunable system
parameters; :class:`repro.system.detector.DeadlockDetectorActor` invokes
:class:`DeadlockDetector` periodically and charges the configured message
overhead per scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.common.ids import TransactionId
from repro.common.protocol_names import Protocol


#: Sequence numbers must fit in the low 48 bits of a packed key.
_PACK_SEQ_LIMIT = 1 << 48


def pack_transaction(tid: TransactionId) -> int:
    """Pack a transaction id into one int key for the detector's hot loops.

    Python-level ``__hash__`` calls on the id dataclasses dominate wait-for
    graph construction at scale; plain ints hash in C.  The packing is
    monotone — ``pack(a) < pack(b)`` iff ``(a.site, a.seq) < (b.site, b.seq)``
    for sequence numbers in ``[0, 2**48)`` — so sorting keys visits
    transactions in exactly the same order as sorting the ids themselves.
    Out-of-range sequence numbers would silently collide two distinct
    transactions into one node, so they are rejected loudly instead.
    """
    seq = tid.seq
    if not 0 <= seq < _PACK_SEQ_LIMIT:
        raise ValueError(f"transaction seq {seq} outside packable range [0, 2**48)")
    return (tid.site << 48) | seq


def _find_cycle_masked(sorted_nodes, adjacency, removed):
    """One cycle among the non-``removed`` nodes, or ``None`` when acyclic.

    The three-colour DFS behind :meth:`DeadlockDetector.resolve_packed`:
    nodes and successors are visited in the pre-sorted order given, and
    removed nodes are skipped at visit time, so the detector can mask victims
    without rebuilding (or re-sorting) the graph.  The nodes are packed int
    keys (see :func:`pack_transaction`, whose packing is monotone, so the
    visit order is the order of the transaction ids).
    """
    WHITE, GREY = 0, 1
    BLACK = 2
    colour: Dict = {}
    parent: Dict = {}

    for start in sorted_nodes:
        if start in removed or colour.get(start, WHITE) != WHITE:
            continue
        stack: List = [(start, iter(adjacency[start]))]
        colour[start] = GREY
        parent[start] = None
        while stack:
            node, successors = stack[-1]
            advanced = False
            for successor in successors:
                if successor in removed:
                    continue
                state = colour.get(successor, WHITE)
                if state == WHITE:
                    colour[successor] = GREY
                    parent[successor] = node
                    stack.append((successor, iter(adjacency[successor])))
                    advanced = True
                    break
                if state == GREY:
                    return _extract_cycle(node, successor, parent)
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return None


def _extract_cycle(node, back_edge_target, parent: Mapping) -> Tuple:
    """The cycle a back edge ``node -> back_edge_target`` closes, walking ``parent`` links."""
    cycle = [back_edge_target]
    current = node
    while current is not None and current != back_edge_target:
        cycle.append(current)
        current = parent.get(current)
    cycle.reverse()
    return tuple(cycle)


@dataclass
class DeadlockResolution:
    """Outcome of one detector scan.

    ``cycles``/``victims`` record the resolved (true) deadlocks — one 2PL
    victim per cycle.  ``phantom_cycles`` records cycles with no 2PL member:
    Corollary 2 proves a true deadlock cycle always contains one, so such a
    cycle can only be an artifact of in-flight state (e.g. a restarted T/O
    transaction whose old attempt's lock releases have not yet reached every
    copy, merging two attempts into one wait-for node).  Phantom cycles
    dissolve on their own and abort nobody.
    """

    cycles: List[Tuple[TransactionId, ...]] = field(default_factory=list)
    victims: List[TransactionId] = field(default_factory=list)
    phantom_cycles: List[Tuple[TransactionId, ...]] = field(default_factory=list)

    @property
    def deadlock_found(self) -> bool:
        """Whether the scan resolved at least one true deadlock."""
        return bool(self.cycles)


class DeadlockDetector:
    """Resolves deadlock cycles by picking 2PL victims.

    ``lock_count_of`` lets the caller bias victim selection toward the
    transaction holding the fewest granted locks (cheapest to restart); ties
    break toward the youngest transaction id.
    """

    def __init__(
        self,
        lock_count_of: Optional[Callable[[TransactionId], int]] = None,
    ) -> None:
        self._lock_count_of = lock_count_of or (lambda _tid: 0)

    def resolve_packed(
        self,
        adjacency: Dict[int, Set[int]],
        transaction_of: Mapping[int, TransactionId],
        protocol_of: Mapping[TransactionId, Protocol],
    ) -> DeadlockResolution:
        """Find every deadlock cycle in a packed-key wait-for adjacency and choose victims.

        ``adjacency`` maps each waiter's :func:`pack_transaction` key to the
        keys it waits for (queue managers accumulate their wait edges
        straight into it, see ``QueueManager.collect_wait_edges``), and
        ``transaction_of`` maps every key back to its transaction id.  One
        scan resolves every cycle present at scan time.

        The adjacency is sorted exactly once per scan; chosen victims are
        masked with a ``removed`` set rather than rewriting every successor
        list, so each cycle hunt after the first costs only the DFS itself.
        The traversal visits nodes and successors in sorted (= sorted
        transaction id) order, which makes the cycles found — and therefore
        the victims — identical to a scan that physically deleted the victims
        from an id-keyed graph.
        """
        sorted_nodes = sorted(adjacency)
        sorted_adjacency = {node: sorted(bucket) for node, bucket in adjacency.items()}
        removed: Set[int] = set()
        resolution = DeadlockResolution()
        while True:
            cycle_keys = _find_cycle_masked(sorted_nodes, sorted_adjacency, removed)
            if cycle_keys is None:
                return resolution
            cycle = tuple(transaction_of[key] for key in cycle_keys)
            victim = self._choose_victim(cycle, protocol_of)
            if victim is None:
                # No 2PL member: by Corollary 2 this cannot be a true
                # deadlock — it is a phantom closed by in-flight releases of
                # a restarted transaction's previous attempt.  Abort nobody;
                # mask the cycle's nodes for this scan (the next periodic
                # scan re-examines them after the releases have landed).
                resolution.phantom_cycles.append(cycle)
                removed.update(cycle_keys)
                continue
            resolution.cycles.append(cycle)
            resolution.victims.append(victim)
            removed.add(pack_transaction(victim))

    def _choose_victim(
        self,
        cycle: Sequence[TransactionId],
        protocol_of: Mapping[TransactionId, Protocol],
    ) -> Optional[TransactionId]:
        """The 2PL member to abort, or ``None`` for a phantom (no-2PL) cycle.

        Corollary 2 guarantees every true deadlock cycle contains a 2PL
        transaction; among those the victim is the one holding the fewest
        granted locks (cheapest to restart), ties broken toward the youngest.
        """
        two_phase = [
            tid
            for tid in cycle
            if protocol_of.get(tid, Protocol.TWO_PHASE_LOCKING).is_two_phase_locking
        ]
        if not two_phase:
            return None
        return min(
            two_phase,
            key=lambda tid: (self._lock_count_of(tid), -tid.seq, tid.site),
        )
