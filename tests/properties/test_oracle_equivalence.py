"""Differential harness: the incremental checker against the batch oracle.

The streaming audit pipeline replaces the batch serializability oracle in
``audit="streaming"`` runs, so its verdicts must be provably interchangeable.
This module replays the *same* event stream — operations, aborted-attempt
withdrawals (delivered or dropped), commit points, per-copy quiesces — into
both an :class:`~repro.core.streaming.IncrementalSerializabilityChecker` and
a plain :class:`~repro.storage.log.ExecutionLog` audited by
:func:`~repro.core.serializability.check_serializable`, and asserts:

* the serializable/non-serializable **verdict** is identical;
* ``transactions_checked`` is identical;
* a reported **cycle** consists of real conflicting pairs (edges of the
  all-pairs reference graph);
* the streaming **witness** is a valid topological order of that reference
  graph over exactly the batch graph's nodes (the incremental witness is the
  retirement order, a *different* valid order than the batch oracle's
  lexicographically-smallest one — so validity, not identity, is asserted);
* ``conflict_edges`` never exceeds the all-pairs count (the checker counts
  the retirement-pruned graph of conflicting pairs, a documented lower
  bound), and the batch oracle's reduced graph never exceeds it either.

The reference is the all-pairs scan kept in
``test_property_oracle_equivalence``: the batch oracle itself checks a
reduced graph with the same reachability, so its edge count says nothing
about the streaming checker's.

The same fuzzed streams double as the retirement-safety property: once a
transaction retires it must never reappear in the live graph, gain an edge,
or accept another log entry.

End-to-end, every registered scenario — including the crash/fault scenarios
whose committed-attempt filtering is the subtlest path — is run at small
scale under both audit modes and the summaries compared field by field.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.replications import summarize_run
from repro.common.errors import SimulationError
from repro.common.ids import CopyId, TransactionId
from repro.common.operations import OperationType
from repro.common.protocol_names import Protocol
from repro.core.serializability import check_serializable, committed_view
from repro.core.streaming import IncrementalSerializabilityChecker
from repro.storage.log import ExecutionLog
from repro.system.runner import run_simulation
from repro.workload.scenarios import all_scenarios

from tests.properties.test_property_oracle_equivalence import reference_conflict_graph


# --------------------------------------------------------------------------- #
# Scripted event streams
# --------------------------------------------------------------------------- #


@st.composite
def audit_scripts(draw):
    """A random interleaved audit event stream with commits, aborts and drops.

    Each transaction runs one or two attempts of random read/write operations
    over a small copy set.  A superseded attempt's abort withdrawal is either
    *delivered* mid-stream (the normal path) or *dropped* (the crashed-site
    path — the commit point must then withdraw the stale entries itself).
    Committing transactions seal via a commit point followed by per-copy
    quiesce notifications; the rest stay open until ``finalize``.
    """
    num_transactions = draw(st.integers(min_value=1, max_value=5))
    num_copies = draw(st.integers(min_value=1, max_value=3))
    scripts = []
    for transaction in range(num_transactions):
        attempts = draw(st.integers(min_value=1, max_value=2))
        events = []
        for attempt in range(attempts):
            operations = draw(
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=num_copies - 1),
                        st.booleans(),
                    ),
                    min_size=0,
                    max_size=4,
                )
            )
            for copy, is_write in operations:
                events.append(("op", transaction, attempt, copy, is_write))
            if attempt < attempts - 1 and draw(st.booleans()):
                events.append(("abort", transaction, attempt))
        if draw(st.booleans()):
            events.append(("commit", transaction, attempts - 1))
        scripts.append(events)
    # Interleave the per-transaction scripts in a random order that preserves
    # each transaction's own event sequence.
    tags = [t for t, events in enumerate(scripts) for _ in events]
    tags = draw(st.permutations(tags))
    queues = [list(reversed(events)) for events in scripts]
    return num_copies, [queues[tag].pop() for tag in tags]


def replay(stream, *, checker, check_each=None):
    """Feed ``stream`` through a log with ``checker`` attached as observer.

    Returns the (unbounded) log holding the full surviving history and the
    committed-attempts map the commit events produced — exactly what the
    batch oracle needs for its committed view.
    """
    log = ExecutionLog()
    log.attach_observer(checker)
    committed = {}
    touched = {}
    time = 0.0
    for event in stream:
        kind = event[0]
        if kind == "op":
            _, transaction, attempt, copy, is_write = event
            time += 1.0
            log.record(
                CopyId(copy, 0),
                TransactionId(0, transaction + 1),
                OperationType.WRITE if is_write else OperationType.READ,
                Protocol.TWO_PHASE_LOCKING,
                time,
                attempt,
            )
            touched.setdefault((transaction, attempt), set()).add(CopyId(copy, 0))
        elif kind == "abort":
            _, transaction, attempt = event
            tid = TransactionId(0, transaction + 1)
            for copy in touched.pop((transaction, attempt), set()):
                log.remove_transaction(copy, tid, attempt)
        else:
            _, transaction, attempt = event
            tid = TransactionId(0, transaction + 1)
            copies = tuple(sorted(touched.get((transaction, attempt), set())))
            committed[tid] = attempt
            checker.note_commit(tid, attempt, copies)
            for copy in copies:
                log.note_quiesced(copy, tid, attempt)
        if check_each is not None:
            check_each()
    return log, committed


def assert_reports_equivalent(log, committed, streaming_report):
    """The core differential assertion: streaming verdict == batch verdict."""
    batch = check_serializable(log, committed_attempts=committed)
    assert streaming_report.serializable == batch.serializable
    assert streaming_report.transactions_checked == batch.transactions_checked
    graph = reference_conflict_graph(committed_view(log, committed))
    # The checker counts the retirement-pruned graph (edges whose source
    # retired before the target's later operations never materialise) — a
    # documented lower bound of the all-pairs count, never an overcount.
    assert streaming_report.conflict_edges <= graph.edge_count()
    assert batch.conflict_edges <= graph.edge_count()
    if batch.serializable:
        witness = streaming_report.serialization_order
        assert sorted(witness) == sorted(graph.nodes())
        position = {tid: index for index, tid in enumerate(witness)}
        for source in graph.nodes():
            for target in graph.successors(source):
                assert position[source] < position[target]
    else:
        assert streaming_report.cycle is not None
        cycle = list(streaming_report.cycle)
        for index, node in enumerate(cycle):
            assert graph.has_edge(node, cycle[(index + 1) % len(cycle)])


# --------------------------------------------------------------------------- #
# Property-based differential tests
# --------------------------------------------------------------------------- #


class TestStreamedVerdictMatchesBatch:
    @given(audit_scripts())
    @settings(max_examples=200, deadline=None)
    def test_committed_view_equivalence(self, script):
        """Commits, delivered and dropped aborts: same verdict as batch."""
        _, stream = script
        checker = IncrementalSerializabilityChecker()
        log, committed = replay(stream, checker=checker)
        assert_reports_equivalent(log, committed, checker.finalize(committed))

    @given(audit_scripts())
    @settings(max_examples=100, deadline=None)
    def test_equivalence_without_retirement(self, script):
        """With no commit points nothing retires: pure graph maintenance.

        The stream's commit events are stripped, so the checker holds every
        live entry until ``finalize`` — this isolates the incremental
        edge-maintenance and withdrawal repair from the retirement logic.
        """
        _, stream = script
        stream = [event for event in stream if event[0] != "commit"]
        checker = IncrementalSerializabilityChecker()
        log, committed = replay(stream, checker=checker)
        assert not committed
        # Without a committed view every surviving entry is audited.
        batch = check_serializable(log)
        report = checker.finalize()
        assert report.serializable == batch.serializable
        assert report.transactions_checked == batch.transactions_checked
        # Nothing retired, so the checker holds every conflicting pair.
        graph = reference_conflict_graph(log)
        assert report.conflict_edges == graph.edge_count()
        assert batch.conflict_edges <= graph.edge_count()
        if batch.serializable:
            position = {
                tid: index for index, tid in enumerate(report.serialization_order)
            }
            assert sorted(position) == sorted(graph.nodes())
            for source in graph.nodes():
                for target in graph.successors(source):
                    assert position[source] < position[target]

    @given(audit_scripts())
    @settings(max_examples=100, deadline=None)
    def test_order_digest_folds_the_witness(self, script):
        """``retain_order=False`` reaches the same verdict with no witness list."""
        _, stream = script
        retaining = IncrementalSerializabilityChecker()
        compact = IncrementalSerializabilityChecker(retain_order=False)
        log, committed = replay(stream, checker=retaining)
        compact_log, compact_committed = replay(stream, checker=compact)
        assert compact_committed == committed
        full = retaining.finalize(committed)
        folded = compact.finalize(compact_committed)
        assert folded.serializable == full.serializable
        assert folded.transactions_checked == full.transactions_checked
        assert compact.order_digest == retaining.order_digest


class TestRetirementSafety:
    @given(audit_scripts())
    @settings(max_examples=150, deadline=None)
    def test_retired_transactions_never_regain_live_state(self, script):
        """After every event: no retired transaction holds entries or edges."""
        _, stream = script
        retired = []
        checker = IncrementalSerializabilityChecker(on_retire=retired.append)

        def check_each():
            for tid in retired:
                assert checker.is_retired(tid)
                assert tid not in checker._entry_total
                assert tid not in checker._preds
                assert tid not in checker._succs
            for earlier, later in checker._support:
                assert earlier not in retired
                assert later not in retired

        log, committed = replay(stream, checker=checker, check_each=check_each)
        report = checker.finalize(committed)
        if report.serializable:
            # Every retirement was banked into the witness, in order.
            assert report.serialization_order[: len(retired)] == retired

    def test_recording_after_retirement_raises(self):
        log = ExecutionLog()
        checker = IncrementalSerializabilityChecker()
        log.attach_observer(checker)
        tid = TransactionId(0, 1)
        copy = CopyId(0, 0)
        log.record(copy, tid, OperationType.WRITE, Protocol.TWO_PHASE_LOCKING, 1.0)
        checker.note_commit(tid, 0, (copy,))
        log.note_quiesced(copy, tid, 0)
        assert checker.is_retired(tid)
        with pytest.raises(SimulationError):
            log.record(copy, tid, OperationType.READ, Protocol.TWO_PHASE_LOCKING, 2.0)

    def test_late_abort_of_a_retired_transaction_is_ignored(self):
        log = ExecutionLog()
        checker = IncrementalSerializabilityChecker()
        log.attach_observer(checker)
        tid = TransactionId(0, 1)
        copy = CopyId(0, 0)
        log.record(copy, tid, OperationType.WRITE, Protocol.TWO_PHASE_LOCKING, 1.0, 1)
        checker.note_commit(tid, 1, (copy,))
        log.note_quiesced(copy, tid, None)
        assert checker.is_retired(tid)
        # A stale attempt's abort arriving after retirement must be a no-op.
        checker.entries_withdrawn(copy, tid, 0)
        assert checker.finalize({tid: 1}).serializable

    def test_conflicting_commit_points_raise(self):
        checker = IncrementalSerializabilityChecker()
        tid = TransactionId(0, 1)
        copy = CopyId(0, 0)
        checker.note_commit(tid, 0, (copy,))
        checker.note_commit(tid, 0, (copy,))  # duplicate decision: idempotent
        with pytest.raises(SimulationError):
            checker.note_commit(tid, 1, (copy,))

    def test_commit_point_after_empty_retirement_raises(self):
        """A zero-entry commit retires instantly yet stays protocol-visible."""
        checker = IncrementalSerializabilityChecker()
        tid = TransactionId(0, 1)
        checker.note_commit(tid, 0, ())  # no copies: seals and retires at once
        assert checker.is_retired(tid)
        with pytest.raises(SimulationError):
            checker.note_commit(tid, 1, ())

    def test_finalize_is_one_shot(self):
        checker = IncrementalSerializabilityChecker()
        checker.finalize()
        with pytest.raises(SimulationError):
            checker.finalize()


class TestBankedEdgeResolution:
    """Edges banked at a source's retirement respect the target's commit.

    Regression for a hypothesis-found overcount: a source retired while its
    only out-edge support was a *stale, not-yet-committed* attempt of the
    target (the dropped-abort path).  The banked edge must dissolve at the
    target's commit point — the committed view never contains those entries
    — keeping ``conflict_edges`` a true lower bound of the batch count.
    """

    def test_stale_attempt_support_dissolves_at_the_commit_point(self):
        stream = [
            ("op", 0, 0, 0, False),  # T1 attempt 0 reads copy 0
            ("op", 1, 0, 0, True),  # T2 attempt 0 writes copy 0 (stale later)
            ("commit", 0, 0),  # T1 seals and retires; edge T1 -> T2 banked
            ("op", 1, 1, 0, False),  # T2 attempt 1 reads copy 0
            ("commit", 1, 1),  # attempt 0 withdrawn: the banked edge is void
        ]
        checker = IncrementalSerializabilityChecker()
        log, committed = replay(stream, checker=checker)
        report = checker.finalize(committed)
        assert report.serializable
        assert report.conflict_edges == 0
        assert_reports_equivalent(log, committed, report)

    def test_committed_attempt_support_survives_the_commit_point(self):
        stream = [
            ("op", 0, 0, 0, False),  # T1 attempt 0 reads copy 0
            ("op", 1, 1, 0, True),  # T2 writes with its eventual attempt
            ("commit", 0, 0),  # T1 retires; edge banked on attempt 1
            ("commit", 1, 1),  # attempt 1 committed: the edge is real
        ]
        checker = IncrementalSerializabilityChecker()
        log, committed = replay(stream, checker=checker)
        report = checker.finalize(committed)
        assert report.serializable
        assert report.conflict_edges == 1
        assert_reports_equivalent(log, committed, report)


# --------------------------------------------------------------------------- #
# End-to-end: full simulation runs under both audit modes
# --------------------------------------------------------------------------- #


def _streaming_equals_batch(scenario, monkeypatch):
    # RunResult does not expose the execution log, so the all-pairs count of
    # the batch run is taken where the database hands its log to the oracle.
    allpairs_edges = []

    def counting_oracle(log, committed_attempts):
        view = committed_view(log, committed_attempts)
        allpairs_edges.append(reference_conflict_graph(view).edge_count())
        return check_serializable(log, committed_attempts)

    monkeypatch.setattr("repro.system.database.check_serializable", counting_oracle)
    batch = run_simulation(
        scenario.system.with_overrides(audit="batch"),
        scenario.workload,
        protocol=scenario.protocol,
        dynamic_selection=scenario.dynamic_selection,
        selection_mode=scenario.selection_mode,
    )
    streaming = run_simulation(
        scenario.system.with_overrides(audit="streaming"),
        scenario.workload,
        protocol=scenario.protocol,
        dynamic_selection=scenario.dynamic_selection,
        selection_mode=scenario.selection_mode,
    )
    assert batch.audit == "batch" and streaming.audit == "streaming"
    assert streaming.serializability.serializable
    assert batch.serializability.serializable
    assert (
        streaming.serializability.transactions_checked
        == batch.serializability.transactions_checked
    )
    (allpairs_count,) = allpairs_edges  # the streaming run never calls the batch oracle
    assert streaming.serializability.conflict_edges <= allpairs_count
    assert batch.serializability.conflict_edges <= allpairs_count
    # Same transactions audited; the streaming witness is the retirement
    # order, a different-but-valid serialization (validity is proven by the
    # property tests above, set-equality pins the audited population here).
    assert sorted(streaming.serializability.serialization_order) == sorted(
        batch.serializability.serialization_order
    )
    assert streaming.replica_report == batch.replica_report
    assert streaming.audit_stats["retired"] > 0
    assert streaming.audit_stats["live_entries"] == 0
    assert (
        streaming.audit_stats["peak_live_entries"]
        < streaming.audit_stats["entries_seen"]
    )
    batch_summary = summarize_run(batch)
    streaming_summary = summarize_run(streaming)
    assert batch_summary.pop("audit") == "batch"
    assert streaming_summary.pop("audit") == "streaming"
    # The one structural difference: streaming folds outcomes away, so the
    # raw commit-time list is empty — everything derived from it is not.
    commit_times = batch_summary.pop("commit_times")
    assert streaming_summary.pop("commit_times") == []
    assert len(commit_times) == batch_summary["committed"]
    assert streaming_summary == batch_summary


@pytest.mark.parametrize(
    "scenario", all_scenarios(), ids=lambda scenario: scenario.name
)
def test_every_registered_scenario_streams_identically(scenario, monkeypatch):
    """Both audit modes agree on every registered scenario, faults included.

    The crash scenarios exercise the committed-attempts filtering (dropped
    abort messages strand stale entries the streaming commit point must
    withdraw); the two-phase scenarios exercise quiesce-before-commit
    orderings from the cooperative termination protocol.
    """
    _streaming_equals_batch(scenario.configured(transactions=40), monkeypatch)


def test_dynamic_selection_streams_identically(monkeypatch):
    """The STL selector's runs audit identically under both modes."""
    base = all_scenarios()[0].configured(transactions=40)
    _streaming_equals_batch(
        dataclasses.replace(base, dynamic_selection=True, selection_mode="adaptive"),
        monkeypatch,
    )
