"""The deadlock detector's one-sort, masked resolver against the plain algorithm.

:meth:`DeadlockDetector.resolve_packed` takes a wait-for adjacency over
packed int keys (built here by ``packed_wait_for``), sorts it once per scan
and *masks* each victim (and every node of a phantom, no-2PL cycle) instead
of deleting it.  Its docstring promises the cycles, and therefore the
victims, of a scan that physically deletes them from an id-keyed graph.
The reference below is that plain scan: a recursive three-colour DFS in
sorted id order, a fresh search after every deletion, and the victim rule
written out (a 2PL member, fewest locks, then youngest).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.ids import TransactionId
from repro.common.protocol_names import Protocol
from repro.core.deadlock import DeadlockDetector

from tests.conftest import packed_wait_for

#: Few transactions and many edges, so one scan meets several cycles at once.
POOL = [TransactionId(site, seq) for site in range(2) for seq in range(1, 5)]
PROTOCOLS = st.sampled_from(
    [Protocol.TWO_PHASE_LOCKING, Protocol.TIMESTAMP_ORDERING, Protocol.PRECEDENCE_AGREEMENT]
)


def first_cycle(successors):
    """The first cycle a sorted-order, three-colour DFS closes, or ``None``."""
    done, path = set(), []

    def visit(node):
        path.append(node)
        for successor in sorted(successors[node]):
            if successor in path:
                return tuple(path[path.index(successor) :])
            if successor not in done and (found := visit(successor)):
                return found
        done.add(path.pop())
        return None

    for node in sorted(successors):
        if node not in done and (found := visit(node)):
            return found
    return None


def reference_resolve(edges, protocol_of, lock_count):
    """``(cycles, victims, phantom_cycles)`` by deleting nodes from the graph."""
    successors = {}
    for waiter, holder in edges:
        if waiter != holder:
            successors.setdefault(waiter, set()).add(holder)
            successors.setdefault(holder, set())
    cycles, victims, phantoms = [], [], []
    while True:
        cycle = first_cycle(successors)
        if cycle is None:
            return cycles, victims, phantoms
        two_phase = [tid for tid in cycle if protocol_of[tid] is Protocol.TWO_PHASE_LOCKING]
        if two_phase:
            victim = min(two_phase, key=lambda tid: (lock_count[tid], -tid.seq, tid.site))
            cycles.append(cycle)
            victims.append(victim)
            doomed = (victim,)
        else:
            phantoms.append(cycle)
            doomed = cycle
        for node in doomed:
            del successors[node]
            for bucket in successors.values():
                bucket.discard(node)


def rotated(cycle):
    """``cycle`` starting at its smallest member (the two scans may rotate it)."""
    start = cycle.index(min(cycle))
    return cycle[start:] + cycle[:start]


@given(
    edges=st.lists(
        st.tuples(st.sampled_from(POOL), st.sampled_from(POOL)), min_size=12, max_size=40
    ),
    protocols=st.lists(PROTOCOLS, min_size=len(POOL), max_size=len(POOL)),
    locks=st.lists(st.integers(min_value=0, max_value=1), min_size=len(POOL), max_size=len(POOL)),
)
@settings(max_examples=300, deadline=None)
def test_resolve_matches_deleting_scan(edges, protocols, locks):
    protocol_of = dict(zip(POOL, protocols))
    lock_count = dict(zip(POOL, locks))
    detector = DeadlockDetector(lock_count_of=lock_count.__getitem__)
    resolution = detector.resolve_packed(*packed_wait_for(edges), protocol_of)
    cycles, victims, phantoms = reference_resolve(edges, protocol_of, lock_count)
    assert resolution.victims == victims
    assert list(map(rotated, resolution.cycles)) == list(map(rotated, cycles))
    assert list(map(rotated, resolution.phantom_cycles)) == list(map(rotated, phantoms))
