"""Deadlock cycle search and victim selection (``DeadlockDetector.resolve_packed``)."""

import pytest

from repro.common.ids import TransactionId
from repro.common.protocol_names import Protocol
from repro.core.deadlock import (
    DeadlockDetector,
    _extract_cycle,
    _find_cycle_masked,
    pack_transaction,
)

from tests.conftest import packed_wait_for


T1, T2, T3, T4 = (TransactionId(0, i) for i in range(1, 5))


def resolve(detector, edges, protocol_of):
    return detector.resolve_packed(*packed_wait_for(edges), protocol_of)


def find_cycle(edges, removed=()):
    adjacency, transaction_of = packed_wait_for(edges)
    sorted_adjacency = {node: sorted(bucket) for node, bucket in adjacency.items()}
    keys = _find_cycle_masked(
        sorted(adjacency), sorted_adjacency, {pack_transaction(t) for t in removed}
    )
    return None if keys is None else tuple(transaction_of[key] for key in keys)


class TestPackTransaction:
    def test_packing_preserves_id_order(self):
        ids = [TransactionId(site, seq) for site in (0, 1, 7) for seq in (0, 1, 2**20, 2**48 - 1)]
        assert sorted(ids, key=pack_transaction) == sorted(ids)
        assert len({pack_transaction(tid) for tid in ids}) == len(ids)

    @pytest.mark.parametrize("seq", [-1, 2**48])
    def test_rejects_a_seq_outside_48_bits(self, seq):
        with pytest.raises(ValueError, match="outside packable range"):
            pack_transaction(TransactionId(0, seq))


class TestCycleSearch:
    def test_acyclic_graph_has_no_cycle(self):
        resolution = resolve(DeadlockDetector(), [(T1, T2), (T2, T3)], {})
        assert resolution.cycles == [] and resolution.phantom_cycles == []

    def test_self_edges_are_ignored(self):
        assert packed_wait_for([(T1, T1)]) == ({}, {})
        assert not resolve(DeadlockDetector(), [(T1, T1)], {}).deadlock_found

    def test_two_cycle_detected(self):
        (cycle,) = resolve(DeadlockDetector(), [(T1, T2), (T2, T1)], {}).cycles
        assert set(cycle) == {T1, T2}

    def test_long_cycle_detected(self):
        edges = [(T1, T2), (T2, T3), (T3, T4), (T4, T1)]
        (cycle,) = resolve(DeadlockDetector(), edges, {}).cycles
        assert set(cycle) == {T1, T2, T3, T4}

    def test_cycle_in_disconnected_component(self):
        edges = [(T1, T2), (T3, T4), (T4, T3)]
        (cycle,) = resolve(DeadlockDetector(), edges, {}).cycles
        assert set(cycle) == {T3, T4}

    def test_removed_node_breaks_the_cycle(self):
        edges = [(T1, T2), (T2, T3), (T3, T1)]
        assert set(find_cycle(edges)) == {T1, T2, T3}
        assert find_cycle(edges, removed=[T2]) is None

    def test_successors_are_visited_in_id_order(self):
        # T1 closes a cycle through T2 and another through T3; the search
        # follows T1's smaller successor first, so the T2 cycle comes first.
        edges = [(T1, T3), (T1, T2), (T2, T1), (T3, T1)]
        assert find_cycle(edges) == (T2, T1)
        assert find_cycle(edges, removed=[T2]) == (T3, T1)

    def test_extracted_cycle_follows_the_wait_edges(self):
        # DFS tree a -> b -> c, back edge c -> a.
        cycle = _extract_cycle("c", "a", {"a": None, "b": "a", "c": "b"})
        assert sorted(cycle) == ["a", "b", "c"]
        edges = {("a", "b"), ("b", "c"), ("c", "a")}
        assert all((cycle[i], cycle[(i + 1) % 3]) in edges for i in range(3))


class TestDeadlockDetector:
    def test_no_deadlock_resolution_is_empty(self):
        detector = DeadlockDetector()
        resolution = resolve(detector, [(T1, T2)], {})
        assert not resolution.deadlock_found
        assert resolution.victims == []

    def test_victim_chosen_from_cycle(self):
        detector = DeadlockDetector()
        resolution = resolve(detector, [(T1, T2), (T2, T1)], {})
        assert resolution.deadlock_found
        assert len(resolution.victims) == 1
        assert resolution.victims[0] in {T1, T2}

    def test_victim_prefers_2pl_members(self):
        detector = DeadlockDetector()
        protocols = {T1: Protocol.PRECEDENCE_AGREEMENT, T2: Protocol.TWO_PHASE_LOCKING}
        resolution = resolve(detector, [(T1, T2), (T2, T1)], protocols)
        assert resolution.victims == [T2]

    def test_victim_prefers_fewest_locks(self):
        detector = DeadlockDetector(lock_count_of=lambda tid: {T1: 5, T2: 1}[tid])
        protocols = {T1: Protocol.TWO_PHASE_LOCKING, T2: Protocol.TWO_PHASE_LOCKING}
        resolution = resolve(detector, [(T1, T2), (T2, T1)], protocols)
        assert resolution.victims == [T2]

    def test_tie_break_prefers_youngest(self):
        detector = DeadlockDetector()
        protocols = {T1: Protocol.TWO_PHASE_LOCKING, T2: Protocol.TWO_PHASE_LOCKING}
        resolution = resolve(detector, [(T1, T2), (T2, T1)], protocols)
        assert resolution.victims == [T2]   # larger seq = younger

    def test_multiple_cycles_all_resolved_in_one_scan(self):
        detector = DeadlockDetector()
        edges = [(T1, T2), (T2, T1), (T3, T4), (T4, T3)]
        resolution = resolve(detector, edges, {})
        assert len(resolution.cycles) == 2
        assert len(resolution.victims) == 2

    def test_overlapping_cycles_may_share_a_victim(self):
        detector = DeadlockDetector()
        protocols = {tid: Protocol.TWO_PHASE_LOCKING for tid in (T1, T2, T3)}
        edges = [(T1, T2), (T2, T1), (T2, T3), (T3, T2)]
        resolution = resolve(detector, edges, protocols)
        # Removing victims must leave the remaining graph acyclic.
        victims = set(resolution.victims)
        remaining = [edge for edge in edges if not victims.intersection(edge)]
        assert not resolve(detector, remaining, protocols).deadlock_found

    def test_victims_are_chosen_in_search_order(self):
        detector = DeadlockDetector()
        edges = [(T1, T3), (T1, T2), (T2, T1), (T3, T1)]
        resolution = resolve(detector, edges, {})
        assert resolution.cycles == [(T2, T1), (T3, T1)]
        assert resolution.victims == [T2, T3]

    def test_unknown_protocol_defaults_to_2pl_candidate(self):
        detector = DeadlockDetector()
        resolution = resolve(detector, [(T1, T2), (T2, T1)], {T1: Protocol.TIMESTAMP_ORDERING})
        # T2 has no protocol registered; it is treated as 2PL and chosen.
        assert resolution.victims == [T2]


class TestPhantomCycles:
    """Cycles without a 2PL member are phantoms (Corollary 2) and abort nobody."""

    def test_pure_to_cycle_aborts_nobody(self):
        detector = DeadlockDetector()
        protocols = {T1: Protocol.TIMESTAMP_ORDERING, T2: Protocol.TIMESTAMP_ORDERING}
        resolution = resolve(detector, [(T1, T2), (T2, T1)], protocols)
        assert resolution.victims == []
        assert not resolution.deadlock_found
        assert resolution.phantom_cycles == [(T1, T2)] or resolution.phantom_cycles == [(T2, T1)]

    def test_pure_pa_cycle_aborts_nobody(self):
        detector = DeadlockDetector()
        protocols = {T1: Protocol.PRECEDENCE_AGREEMENT, T2: Protocol.PRECEDENCE_AGREEMENT}
        resolution = resolve(detector, [(T1, T2), (T2, T1)], protocols)
        assert resolution.victims == []
        assert len(resolution.phantom_cycles) == 1

    def test_true_cycle_next_to_a_phantom_is_still_resolved(self):
        detector = DeadlockDetector()
        protocols = {
            T1: Protocol.TIMESTAMP_ORDERING,
            T2: Protocol.TIMESTAMP_ORDERING,
            T3: Protocol.TWO_PHASE_LOCKING,
            T4: Protocol.TWO_PHASE_LOCKING,
        }
        edges = [(T1, T2), (T2, T1), (T3, T4), (T4, T3)]
        resolution = resolve(detector, edges, protocols)
        assert len(resolution.phantom_cycles) == 1
        assert len(resolution.cycles) == 1
        assert resolution.victims and resolution.victims[0] in {T3, T4}

    def test_mixed_cycle_is_not_a_phantom(self):
        detector = DeadlockDetector()
        protocols = {T1: Protocol.TIMESTAMP_ORDERING, T2: Protocol.TWO_PHASE_LOCKING}
        resolution = resolve(detector, [(T1, T2), (T2, T1)], protocols)
        assert resolution.victims == [T2]
        assert resolution.phantom_cycles == []
